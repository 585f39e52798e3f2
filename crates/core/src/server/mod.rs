//! The VoD server: session management, rate-controlled transmission,
//! periodic state synchronization, takeover and load balancing.
//!
//! One server process serves many clients; every movie it holds puts it in
//! that movie's group, where replicas share per-client records every
//! [`VodConfig::sync_interval`]. On a membership change the members
//! exchange their records and deterministically redistribute the clients
//! (see [`redistribute_clients`]); a server that acquires a client joins the
//! client's session group and resumes transmission from the last
//! synchronized offset — conservatively, preferring duplicate frames over
//! gaps (paper §6.1.1).
//!
//! Who serves whom is decided in [`takeover`], by a plain value per movie
//! group, who holds what in [`replicas`], by a plain value per server, and
//! how each client is streamed in [`session`], by a plain value per served
//! client; none has effects. This module owns the effects — timers, group
//! membership, datagrams, trace events, counters — and the transmission
//! loop of prefix sessions.

mod assign;
mod emergency;
pub mod replicas;
pub mod session;
pub mod takeover;

pub use assign::{
    admit_client, assign_clients_geo, assign_clients_with_capacity, redistribute_clients,
};
pub use emergency::Emergency;
pub use replicas::Placement;
pub use session::ServerSession;
pub use takeover::TakeoverTable;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use gcs::{GcsEvent, GcsNode, GroupId, View};
use media::{FrameNo, Movie, MovieId};
use simnet::{Context, Endpoint, NodeId, Process, SimTime, Timer, TimerId, VecMap};

use crate::config::{VodConfig, EXCHANGE_TIMEOUT, SCHEDULING_JITTER};
use crate::forecast::BringUpTrigger;
use crate::metrics::{Cumulative, TimeSeries};
use crate::profile::{ProfileHandle, Subsystem};
use crate::protocol::{
    client_of_session_group, movie_group, movie_of_group, ClientId, ClientRecord, ControlPayload,
    VideoPacket, VodWire, GCS_PORT, SERVER_GROUP, VIDEO_PORT,
};
use crate::trace::{TraceHandle, VodEvent};
use replicas::{Decision, Holdings, Note, PrefixVerdict};
use session::{frame_interval, Action, Input, ServerTimer};
use takeover::{Cx, Input as TableInput, Resume};

/// Sentinel owner for clients admitted to no server (admission control):
/// deterministic across replicas, never a real node id.
pub const UNSERVED: NodeId = NodeId(u32::MAX);

/// Timer tags (low byte = kind, high bits = client/movie id).
mod tag {
    pub const GCS_TICK: u64 = 1;
    pub const SYNC: u64 = 2;
    pub const SEND: u64 = 3;
    pub const DECAY: u64 = 4;
    pub const EXCHANGE: u64 = 5;
    pub const SHUTDOWN: u64 = 6;
    pub const PREFIX: u64 = 7;
    pub const BRINGUP: u64 = 8;

    /// The tag of the `kind` timer of client or movie `id`.
    pub fn of(kind: u64, id: u32) -> u64 {
        kind | (u64::from(id) << 8)
    }

    pub fn kind(tag: u64) -> u64 {
        tag & 0xFF
    }

    pub fn id(tag: u64) -> u32 {
        (tag >> 8) as u32
    }
}

/// A movie replica this server holds, plus who else holds it (used to
/// bootstrap the movie group deterministically).
#[derive(Clone, Debug)]
pub(crate) struct Replica {
    /// The movie data.
    pub(crate) movie: Arc<Movie>,
    /// All servers holding a copy (including this one).
    pub(crate) holders: Vec<NodeId>,
}

/// Why a session closes: the client moved to another replica (its record
/// lives on), or the session itself is over — announced to the other
/// replicas unless the news came from one of them.
enum Close {
    Migrated,
    Ended { announce: bool },
}

/// A local prefix transmission: this server feeds a waiting client the
/// cached first seconds of a movie it does not replicate, until the
/// coordinator reports the real replica is up (or the prefix runs out).
struct PrefixSession {
    record: ClientRecord,
    /// Exclusive end of the cached range; transmission stops here.
    end_frame: FrameNo,
    frames_sent: u64,
    started_at: SimTime,
    timer: TimerId,
}

/// A movie this server holds: the data, the holders its group was
/// bootstrapped from, and who serves whom in that group.
struct Held {
    movie: Arc<Movie>,
    holders: Vec<NodeId>,
    table: TakeoverTable,
}

/// The read-only look at `movies` the placement rule takes.
fn tables(movies: &BTreeMap<MovieId, Held>) -> Holdings<'_> {
    movies.iter().map(|(&id, s)| (id, &s.table)).collect()
}

/// Counters recorded by a server. `PartialEq` backs the determinism
/// contract: tests compare full stats between traced and untraced runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Number of clients owned over time, sampled at every sync tick
    /// (drives the load-balancing visualizations).
    pub owned_over_time: TimeSeries,
    /// Video frames transmitted.
    pub frames_sent: u64,
    /// Clients acquired through takeover/redistribution.
    pub takeovers: Cumulative,
    /// State-synchronization multicasts sent.
    pub syncs_sent: u64,
    /// Redistribution rounds executed.
    pub redistributions: u64,
    /// Open requests this server (as coordinator) could not place on any
    /// replica — the client was parked as [`UNSERVED`].
    pub admission_rejections: Cumulative,
    /// Replicas this server brought up for hot movies.
    pub replica_bringups: Cumulative,
    /// Replicas this server retired from cold movies.
    pub replica_retires: Cumulative,
    /// Prefix transmissions started from this server's prefix cache.
    pub prefix_serves: Cumulative,
    /// Prefix transmissions ended (handoff to a replica, release, or
    /// prefix exhaustion).
    pub prefix_handoffs: Cumulative,
}

/// The VoD server process.
pub struct VodServer {
    cfg: VodConfig,
    node: NodeId,
    servers: Vec<NodeId>,
    gcs: GcsNode<ControlPayload>,
    movies: BTreeMap<MovieId, Held>,
    /// Movies this server *can* bring up on demand (the paper's servers
    /// sit on a shared disk farm, so any server can serve any movie).
    catalog: BTreeMap<MovieId, Arc<Movie>>,
    sessions: VecMap<ClientId, ServerSession>,
    /// The send timer armed for each session, if one is.
    send_timers: VecMap<ClientId, TimerId>,
    /// The actions of the session step being applied, reused across steps.
    actions: Vec<Action>,
    /// The actions of the takeover-table step being applied, likewise.
    movie_actions: Vec<takeover::Action>,
    stats: ServerStats,
    trace: TraceHandle,
    profile: ProfileHandle,
    sync_round: u64,
    /// Who holds what: the server-group view, the demand reports, the
    /// placement rule and its forecasts, copies in flight, orphan OPENs
    /// and the prefix tier's cache and routing.
    placement: Placement,
    /// Prefix transmissions this server is currently running.
    prefix_sessions: VecMap<ClientId, PrefixSession>,
    /// True when this process replaces a crashed instance: on start it
    /// always *joins* existing groups rather than creating them.
    rejoin: bool,
}

impl std::fmt::Debug for VodServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VodServer")
            .field("node", &self.node)
            .field("movies", &self.movies.len())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

impl VodServer {
    /// Creates a server on `node` holding `replicas`, with `servers` as the
    /// universe of nodes that may ever run a VoD server (the GCS bootstrap
    /// set).
    pub(crate) fn new(
        cfg: VodConfig,
        node: NodeId,
        servers: Vec<NodeId>,
        replicas: Vec<Replica>,
    ) -> Self {
        let gcs = GcsNode::new(
            cfg.gcs.clone(),
            node,
            GCS_PORT,
            tag::GCS_TICK,
            servers.clone(),
        );
        let placement = Placement::new(cfg.placement);
        let mut server = VodServer {
            cfg,
            node,
            servers,
            gcs,
            movies: BTreeMap::new(),
            catalog: BTreeMap::new(),
            sessions: VecMap::new(),
            send_timers: VecMap::new(),
            actions: Vec::new(),
            movie_actions: Vec::new(),
            stats: ServerStats::default(),
            trace: TraceHandle::disabled(),
            profile: ProfileHandle::disabled(),
            sync_round: 0,
            placement,
            prefix_sessions: VecMap::new(),
            rejoin: false,
        };
        for replica in replicas {
            server.hold(replica.movie, replica.holders);
        }
        server
    }

    /// Becomes a holder of `movie`, with an empty takeover table.
    fn hold(&mut self, movie: Arc<Movie>, holders: Vec<NodeId>) {
        let (id, table) = (movie.id(), TakeoverTable::default());
        self.catalog.insert(id, Arc::clone(&movie));
        let held = Held {
            movie,
            holders,
            table,
        };
        self.movies.insert(id, held);
    }

    /// Marks this process as a post-crash replacement (paper §5.2: a
    /// repaired server re-merges with the operational servers). On start
    /// it joins the server group and its movie groups instead of racing
    /// to create them; the view-synchronous merge then delivers it the
    /// current membership, and the next periodic state exchange plus the
    /// deterministic client redistribution hand it back its share of the
    /// load. Per-client state is *not* carried over — a reboot loses
    /// volatile memory — so everything it serves is re-learned from the
    /// surviving replicas' sync messages.
    pub(crate) fn with_rejoin(mut self) -> Self {
        self.rejoin = true;
        self
    }

    /// Extends the catalog of movies this server can bring up on demand.
    /// Without this, dynamic replication can only clone movies the server
    /// was seeded with.
    pub(crate) fn with_catalog(mut self, movies: impl IntoIterator<Item = Arc<Movie>>) -> Self {
        for movie in movies {
            self.catalog.entry(movie.id()).or_insert(movie);
        }
        self
    }

    /// Installs a trace handle: server-side events (session adoption and
    /// takeover, state-exchange rounds, redistribution, emergency bursts,
    /// shutdown handoff) and this node's GCS events flow into it. Tracing
    /// is passive and does not change the server's behaviour.
    pub(crate) fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace.clone();
        if trace.is_enabled() {
            let node = self.node;
            self.gcs
                .set_tracer(move |at, event| trace.emit(at, || VodEvent::from_gcs(node, event)));
        }
        self
    }

    /// Installs a profile handle: the server's view-change, periodic sync
    /// and takeover/exchange paths open cost spans on it. Profiling is
    /// passive and does not change the server's behaviour.
    pub(crate) fn with_profile(mut self, profile: ProfileHandle) -> Self {
        self.profile = profile;
        self
    }

    /// This server's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The statistics recorded so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Gracefully detaches this server from the service (paper §3: "when
    /// a server crashes **or detaches** ... it is replaced in a
    /// transparent way").
    ///
    /// Unlike a crash, a planned shutdown needs no failure-detection
    /// delay: the server leaves its movie groups, the resulting membership
    /// change redistributes its clients onto the survivors, and the
    /// process exits once the handoff is under way.
    pub fn shutdown(&mut self, ctx: &mut Context<'_, VodWire>) {
        let (at, server) = (ctx.now(), self.node);
        self.trace.emit(at, || VodEvent::ShutdownStarted { server });
        // Publish the freshest offsets first so the successors resume with
        // minimal duplicate re-transmission.
        let movie_ids: Vec<MovieId> = self.movies.keys().copied().collect();
        for movie_id in movie_ids {
            self.movie_step(ctx, movie_id, TableInput::Sync { round: None });
            self.gcs.leave(ctx, movie_group(movie_id));
        }
        for client in self.clients_owned() {
            self.close_session(ctx, client, Close::Migrated);
        }
        self.gcs.leave(ctx, SERVER_GROUP);
        // Give the leave protocol a moment to complete, then exit; the
        // simulator reaps the process at the end of the current handler
        // chain.
        ctx.set_timer_after(Duration::from_secs(2), tag::SHUTDOWN);
    }

    /// Clients currently served by this server, in id order.
    pub fn clients_owned(&self) -> Vec<ClientId> {
        self.sessions.keys().copied().collect()
    }

    /// All client records known for `movie` (owned or not).
    pub fn known_records(&self, movie: MovieId) -> Vec<ClientRecord> {
        self.movies
            .get(&movie)
            .map(|m| m.table.records().copied().collect())
            .unwrap_or_default()
    }

    /// The movie-group view this server currently has for `movie`.
    pub fn movie_view(&self, movie: MovieId) -> Option<&View> {
        self.gcs.view(movie_group(movie))
    }

    // ------------------------------------------------------------------
    // GCS event handling
    // ------------------------------------------------------------------

    fn handle_events(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        events: Vec<GcsEvent<ControlPayload>>,
    ) {
        for event in events {
            match event {
                GcsEvent::View { group, view } => self.on_view(ctx, group, view),
                GcsEvent::Deliver {
                    sender, payload, ..
                } => self.on_control(ctx, sender, payload),
            }
        }
    }

    fn on_view(&mut self, ctx: &mut Context<'_, VodWire>, group: GroupId, view: View) {
        let _span = self.profile.span(Subsystem::GcsViewChange);
        if group == SERVER_GROUP {
            self.placement.install_server_view(view);
            return;
        }
        if let Some(movie_id) = movie_of_group(group) {
            self.movie_step(ctx, movie_id, TableInput::View(view));
        } else if let Some(client) = client_of_session_group(group) {
            self.step(ctx, client, Input::SessionView(view));
        }
    }

    fn on_control(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        sender: NodeId,
        payload: ControlPayload,
    ) {
        match payload {
            ControlPayload::Open(open) => {
                if self.cfg.replication.is_some() && !self.movies.contains_key(&open.movie) {
                    self.placement
                        .note_orphan_open(open.movie, open.client, ctx.now());
                }
                self.admit(ctx, takeover::candidate(&open));
            }
            ControlPayload::Sync {
                server,
                movie,
                view_epoch,
                records,
            } => {
                let (from, epoch) = (server, view_epoch);
                let report = TableInput::Report {
                    from,
                    epoch,
                    records,
                };
                self.movie_step(ctx, movie, report);
            }
            ControlPayload::Remove { movie, client } => {
                self.movie_step(ctx, movie, TableInput::Remove(client));
                if sender != self.node {
                    self.close_session(ctx, client, Close::Ended { announce: false });
                }
            }
            ControlPayload::Flow { client, req } => self.step(ctx, client, Input::Flow(req)),
            ControlPayload::Vcr { client, cmd } => self.step(ctx, client, Input::Vcr(cmd)),
            ControlPayload::EndOfMovie { .. } => {}
            ControlPayload::Demand {
                server,
                entries,
                prefixes,
            } => self.placement.file_report(server, &entries, &prefixes),
            ControlPayload::PrefixAssign { target, record } => {
                if target == self.node {
                    self.start_prefix(ctx, record);
                }
            }
            ControlPayload::PrefixRelease {
                target,
                client,
                owner,
                ..
            } => {
                if target == self.node {
                    self.finish_prefix(ctx, client, Some(owner));
                }
            }
        }
    }

    /// Connection establishment, and its retry for a parked client, at the
    /// movie's table. Returns the owner the client has now.
    fn admit(&mut self, ctx: &mut Context<'_, VodWire>, candidate: ClientRecord) -> Option<NodeId> {
        let (movie, client) = (candidate.movie, candidate.client);
        self.movie_step(ctx, movie, TableInput::Open(candidate));
        let owner = self.movies.get(&movie)?.table.get(client)?.owner;
        (owner != UNSERVED).then_some(owner)
    }

    /// Steps `movie`'s takeover table with `input` and performs the
    /// actions it emitted, in emission order. A publication comes back
    /// through [`Self::multicast`] as this server's own report, which
    /// steps the table again before the next action here.
    fn movie_step(&mut self, ctx: &mut Context<'_, VodWire>, movie: MovieId, input: TableInput) {
        let Some(held) = self.movies.get_mut(&movie) else {
            return;
        };
        let cx = Cx {
            me: self.node,
            now: ctx.now(),
            cfg: &self.cfg,
            movie,
            gop: held.movie.gop(),
            fps: held.movie.fps(),
            sessions: &self.sessions,
        };
        let mut actions = std::mem::take(&mut self.movie_actions);
        held.table.step(&cx, input, &mut actions);
        for action in actions.drain(..) {
            match action {
                takeover::Action::Publish(records) => self.publish(ctx, movie, records),
                takeover::Action::Sync(records) => {
                    self.stats.syncs_sent += 1;
                    self.publish(ctx, movie, records);
                }
                takeover::Action::ArmDeadline => {
                    ctx.set_timer_after(EXCHANGE_TIMEOUT, tag::of(tag::EXCHANGE, movie.0));
                }
                takeover::Action::Redistributing => self.stats.redistributions += 1,
                takeover::Action::Stop(client) => self.close_session(ctx, client, Close::Migrated),
                takeover::Action::Start(how) => self.start_session(ctx, how),
                takeover::Action::Parked => self.stats.admission_rejections.add(ctx.now(), 1),
                takeover::Action::Trace(event) => self.trace.emit(ctx.now(), || event),
            }
        }
        self.movie_actions = actions;
    }

    /// Starts the session `how` settled. A prefix source that became the
    /// client's real server (e.g. it won the bring-up election and the
    /// redistribution handed it the client) closes the prefix
    /// transmission first: the session supersedes it.
    fn start_session(&mut self, ctx: &mut Context<'_, VodWire>, how: Resume) {
        let (client, at) = (how.record.client, ctx.now());
        if self.prefix_sessions.contains_key(&client) {
            self.finish_prefix(ctx, client, Some(self.node));
        }
        let Some(state) = self.movies.get(&how.record.movie) else {
            return;
        };
        let movie = Arc::clone(&state.movie);
        let session = ServerSession::start(&self.cfg, movie, how, &mut self.actions);
        self.stats.takeovers.add(at, 1);
        self.sessions.insert(client, session);
        self.apply(ctx, client);
    }

    /// Steps `client`'s session, if this server runs one, with `input`.
    fn step(&mut self, ctx: &mut Context<'_, VodWire>, client: ClientId, input: Input) {
        if let Some(session) = self.sessions.get_mut(&client) {
            session.step(ctx.now(), input, &mut self.actions);
            self.apply(ctx, client);
        }
    }

    /// Performs the actions `client`'s session emitted, in emission order.
    fn apply(&mut self, ctx: &mut Context<'_, VodWire>, client: ClientId) {
        let mut actions = std::mem::take(&mut self.actions);
        let send = tag::of(tag::SEND, client.0);
        for action in actions.drain(..) {
            match action {
                Action::Send(to, packet, interval) => {
                    self.stats.frames_sent += 1;
                    let dst = Endpoint::new(to, VIDEO_PORT);
                    ctx.send(VIDEO_PORT, dst, VodWire::Video(packet));
                    let after = interval + ctx.rng().jitter(SCHEDULING_JITTER);
                    self.send_timers
                        .insert(client, ctx.set_timer_after(after, send));
                }
                Action::Arm(ServerTimer::Send, after) => {
                    self.send_timers
                        .insert(client, ctx.set_timer_after(after, send));
                }
                Action::Arm(ServerTimer::Decay, after) => {
                    ctx.set_timer_after(after, tag::of(tag::DECAY, client.0));
                }
                Action::Disarm => self.disarm(ctx, client),
                Action::EndOfMovie(group) => {
                    self.multicast(ctx, group, ControlPayload::EndOfMovie { client });
                }
                Action::JoinSession(group, node) => self.gcs.join(ctx, group, &[node]),
                Action::End => self.close_session(ctx, client, Close::Ended { announce: true }),
                Action::Trace(event) => self.trace.emit(ctx.now(), || event),
            }
        }
        self.actions = actions;
    }

    /// Cancels `client`'s send timer, if one is armed.
    fn disarm(&mut self, ctx: &mut Context<'_, VodWire>, client: ClientId) {
        if let Some(timer) = self.send_timers.remove(&client) {
            ctx.cancel_timer(timer);
        }
    }

    /// Stops transmitting to `client` and leaves its session group; an
    /// ended session also takes its record with it.
    fn close_session(&mut self, ctx: &mut Context<'_, VodWire>, client: ClientId, how: Close) {
        let Some(session) = self.sessions.remove(&client) else {
            return;
        };
        self.disarm(ctx, client);
        let record = session.record();
        let (at, server, movie) = (ctx.now(), self.node, record.movie);
        self.trace.emit(at, || match how {
            Close::Migrated => VodEvent::SessionStopped { server, client },
            Close::Ended { .. } => VodEvent::SessionEnded { server, client },
        });
        if let Close::Ended { announce } = how {
            self.movie_step(ctx, movie, TableInput::Remove(client));
            if announce {
                let payload = ControlPayload::Remove { movie, client };
                self.multicast(ctx, movie_group(movie), payload);
            }
        }
        self.gcs.leave(ctx, record.session_group);
    }

    // ------------------------------------------------------------------
    // Timers: sync, exchange deadline
    // ------------------------------------------------------------------

    /// Periodic state multicast (paper §5.2, every half second).
    fn on_sync_timer(&mut self, ctx: &mut Context<'_, VodWire>) {
        let _span = self.profile.span(Subsystem::ServerSync);
        self.sync_round += 1;
        let now = ctx.now();
        let owned = self.sessions.len() as f64;
        self.stats.owned_over_time.push(now, owned);
        let round = Some(self.sync_round);
        let movie_ids: Vec<MovieId> = self.movies.keys().copied().collect();
        for movie_id in movie_ids {
            self.movie_step(ctx, movie_id, TableInput::Sync { round });
        }
        if self.cfg.replication.is_some() {
            self.replica_manager(ctx);
        }
        ctx.set_timer_after(self.cfg.sync_interval, tag::SYNC);
    }

    // ------------------------------------------------------------------
    // Dynamic replica management (opt-in via VodConfig::replication)
    // ------------------------------------------------------------------

    /// The sync tick of the replica manager and the prefix tier: what to
    /// report, who moves which replica and where waiting clients are fed
    /// from meanwhile is [`Placement`]'s; the multicasts, the group
    /// membership and the order they happen in are here.
    fn replica_manager(&mut self, ctx: &mut Context<'_, VodWire>) {
        // The multicast self-delivers, which files our own entries through
        // the regular control path; demand data is at most one sync
        // interval stale.
        let report = self.placement.report(self.node, &tables(&self.movies));
        self.multicast(ctx, SERVER_GROUP, report);
        let (node, now) = (self.node, ctx.now());
        let held = tables(&self.movies);
        for decision in self.placement.tick(node, now, &held, &self.catalog) {
            match decision {
                Decision::BringUp(note, trigger) => self.bring_up(ctx, note, trigger),
                Decision::Retire(note) => self.retire_replica(ctx, note),
            }
        }
        let Some(pc) = self.cfg.prefix_cache else {
            return;
        };
        // The cache follows the forecasts the tick just refreshed and the
        // replicas it just moved.
        let held = tables(&self.movies);
        self.placement
            .refresh_prefix_cache(pc.budget, &held, &self.catalog);
        // One assignment at a time: a retried admission publishes, and
        // what it changes the next verdict must see.
        for (client, movie) in self.placement.prefix_assignments() {
            let table = self.movies.get(&movie).map(|s| &s.table);
            let owner = match self.placement.prefix_verdict(node, client, table) {
                PrefixVerdict::Keep => None,
                PrefixVerdict::Release(owner) => Some(owner),
                PrefixVerdict::Retry { parked, otherwise } => self.admit(ctx, parked).or(otherwise),
            };
            if let Some(release) = owner.and_then(|o| self.placement.release_prefix(client, o)) {
                self.multicast(ctx, SERVER_GROUP, release);
            }
        }
        let held = tables(&self.movies);
        for assign in self.placement.route_prefixes(node, &held) {
            self.multicast(ctx, SERVER_GROUP, assign);
        }
    }

    /// Starts copying `note.movie` onto this server's disk farm
    /// ([`ReplicationConfig::bringup_delay`]). Once the copy is there the
    /// server joins the movie's group as a fresh replica: the resulting
    /// view change triggers the regular state exchange, and the paper's
    /// deterministic redistribution hands it its share of the sessions —
    /// no replication-specific handoff protocol is needed.
    ///
    /// [`ReplicationConfig::bringup_delay`]: crate::config::ReplicationConfig::bringup_delay
    fn bring_up(&mut self, ctx: &mut Context<'_, VodWire>, note: Note, trigger: BringUpTrigger) {
        let (at, server) = (ctx.now(), self.node);
        self.stats.replica_bringups.add(at, 1);
        self.trace.emit(at, || VodEvent::ReplicaBringUp {
            server,
            movie: note.movie,
            demand: note.demand,
            replicas: note.replicas,
            policy: note.policy,
            trigger,
            forecast: note.forecast,
        });
        let rules = self.cfg.replication;
        let copy = rules.map_or(Duration::ZERO, |r| r.bringup_delay);
        if copy.is_zero() {
            self.complete_bringup(ctx, note.movie);
        } else {
            ctx.set_timer_after(copy, tag::of(tag::BRINGUP, note.movie.0));
        }
    }

    /// The copy is there (at once, or when the `BRINGUP` timer fires):
    /// install the replica and join the movie group through the peers the
    /// election saw.
    fn complete_bringup(&mut self, ctx: &mut Context<'_, VodWire>, movie_id: MovieId) {
        let Some(peers) = self.placement.copy_landed(movie_id) else {
            return;
        };
        if self.movies.contains_key(&movie_id) {
            return;
        }
        let Some(movie) = self.catalog.get(&movie_id).cloned() else {
            return;
        };
        self.hold(movie, [&peers[..], &[self.node]].concat());
        self.gcs.join(ctx, movie_group(movie_id), &peers);
    }

    /// Gracefully retires this server's replica of a cold movie: publish
    /// the freshest offsets, leave the movie group (the survivors' view
    /// change redistributes our sessions), and stop local transmission —
    /// the single-movie version of [`VodServer::shutdown`].
    fn retire_replica(&mut self, ctx: &mut Context<'_, VodWire>, note: Note) {
        let movie_id = note.movie;
        self.movie_step(ctx, movie_id, TableInput::Sync { round: None });
        self.gcs.leave(ctx, movie_group(movie_id));
        for client in self.clients_of(movie_id) {
            self.close_session(ctx, client, Close::Migrated);
        }
        self.movies.remove(&movie_id);
        let (at, server) = (ctx.now(), self.node);
        self.stats.replica_retires.add(at, 1);
        self.trace.emit(at, || VodEvent::ReplicaRetire {
            server,
            movie: movie_id,
            demand: note.demand,
            replicas: note.replicas,
            policy: note.policy,
            forecast: note.forecast,
        });
    }

    /// Movies this server currently holds a replica of, in id order.
    pub fn movies_held(&self) -> Vec<MovieId> {
        self.movies.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Prefix-cache tier (opt-in via VodConfig::prefix_cache)
    // ------------------------------------------------------------------

    /// Starts serving `record`'s client from the prefix cache, if this
    /// server still can (cache hit, no conflicting session, room under
    /// the admission cap).
    fn start_prefix(&mut self, ctx: &mut Context<'_, VodWire>, record: ClientRecord) {
        let Some(pc) = self.cfg.prefix_cache else {
            return;
        };
        let (cap, busy) = (self.cfg.max_sessions_per_server, self.sessions.len());
        let busy = busy + self.prefix_sessions.len();
        if self.movies.contains_key(&record.movie)
            || !self.placement.prefix_cache().contains(&record.movie)
            || self.sessions.contains_key(&record.client)
            || self.prefix_sessions.contains_key(&record.client)
            || cap.is_some_and(|cap| busy >= cap as usize)
        {
            return;
        }
        let Some(movie) = self.catalog.get(&record.movie) else {
            return;
        };
        let prefix_frames = pc.prefix.as_secs() * u64::from(movie.fps());
        if record.next_frame.0 >= prefix_frames {
            return; // the client is already past the cached range
        }
        let at = ctx.now();
        self.stats.prefix_serves.add(at, 1);
        let (server, client, client_node) = (self.node, record.client, record.client_node);
        let (movie_id, from_frame, rate_fps) = (record.movie, record.next_frame, record.rate_fps);
        self.trace.emit(at, || VodEvent::PrefixServe {
            server,
            client,
            client_node,
            movie: movie_id,
            from_frame,
            prefix_frames,
            rate_fps,
        });
        let timer = ctx.set_timer_after(Duration::ZERO, tag::of(tag::PREFIX, record.client.0));
        let session = PrefixSession {
            record,
            end_frame: FrameNo(prefix_frames),
            frames_sent: 0,
            started_at: at,
            timer,
        };
        self.prefix_sessions.insert(record.client, session);
    }

    /// Ends a prefix transmission. `to_owner` is the server the client's
    /// session landed on (`None` = the prefix ran out or the session is
    /// gone — encoded as [`UNSERVED`] in the trace).
    fn finish_prefix(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        client: ClientId,
        to_owner: Option<NodeId>,
    ) {
        let Some(session) = self.prefix_sessions.remove(&client) else {
            return;
        };
        ctx.cancel_timer(session.timer);
        let (at, server, movie) = (ctx.now(), self.node, session.record.movie);
        self.stats.prefix_handoffs.add(at, 1);
        let frames_sent = session.frames_sent;
        let served_us = at.saturating_since(session.started_at).as_micros() as u64;
        let to_owner = to_owner.unwrap_or(UNSERVED);
        self.trace.emit(at, || VodEvent::PrefixHandoff {
            server,
            client,
            movie,
            frames_sent,
            served_us,
            to_owner,
        });
    }

    /// Transmission timer of one prefix session: ship the next cached
    /// frame at the record's base rate (no jitter, no quality filter —
    /// the prefix is a stopgap, not a tuned stream) and self-terminate at
    /// the end of the cached range.
    fn on_prefix_timer(&mut self, ctx: &mut Context<'_, VodWire>, client: ClientId) {
        let Some(session) = self.prefix_sessions.get_mut(&client) else {
            return;
        };
        let (record, next) = (session.record, session.record.next_frame);
        let movie = self.catalog.get(&record.movie);
        let frame = movie
            .and_then(|m| m.frame(next))
            .filter(|_| next < session.end_frame);
        let Some(frame) = frame else {
            return self.finish_prefix(ctx, client, None);
        };
        let packet = VideoPacket {
            client,
            movie: record.movie,
            frame,
        };
        let dst = Endpoint::new(record.client_node, VIDEO_PORT);
        ctx.send(VIDEO_PORT, dst, VodWire::Video(packet));
        let after = frame_interval(record.rate_fps);
        session.timer = ctx.set_timer_after(after, tag::of(tag::PREFIX, client.0));
        session.record.next_frame = next.plus(1);
        session.frames_sent += 1;
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Multicasts `records` to `movie`'s group under its view's epoch.
    fn publish(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        movie: MovieId,
        records: Vec<ClientRecord>,
    ) {
        let Some(state) = self.movies.get(&movie) else {
            return;
        };
        let payload = ControlPayload::Sync {
            server: self.node,
            movie,
            view_epoch: state.table.view().id.epoch,
            records,
        };
        self.multicast(ctx, movie_group(movie), payload);
    }

    /// Multicasts `payload` to `group`. The sender is handed its own
    /// message before this returns, so every publication is followed, in
    /// the same handler, by this server's reaction to it.
    fn multicast(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        group: GroupId,
        payload: ControlPayload,
    ) {
        // A NotMember error means we are not (yet) in the group: drop the
        // report; the periodic sync recovers.
        if let Ok(events) = self.gcs.multicast(ctx, group, payload) {
            self.handle_events(ctx, events);
        }
    }

    /// The clients this server streams `movie` to, in id order.
    fn clients_of(&self, movie: MovieId) -> Vec<ClientId> {
        let here = self
            .sessions
            .iter()
            .filter(|(_, s)| s.record().movie == movie);
        here.map(|(&client, _)| client).collect()
    }
}

impl Process<VodWire> for VodServer {
    fn on_start(&mut self, ctx: &mut Context<'_, VodWire>) {
        self.gcs.start(ctx);
        // Deterministic group bootstrap: the minimum holder creates the
        // group, everyone else joins it (merging resolves any race).
        let movie_ids: Vec<(MovieId, Vec<NodeId>)> = self
            .movies
            .iter()
            .map(|(&id, s)| (id, s.holders.clone()))
            .collect();
        for (movie_id, holders) in movie_ids {
            let group = movie_group(movie_id);
            // A rejoining replacement never races to *create* a group the
            // survivors already run: it joins, and `join`'s singleton
            // fallback plus the coordinator merge cover the case where it
            // really is alone.
            if !self.rejoin && holders.iter().min() == Some(&self.node) {
                let events = self.gcs.create_group(group);
                self.handle_events(ctx, events);
            } else {
                self.gcs.join(ctx, group, &holders);
            }
        }
        if !self.rejoin && self.servers.iter().copied().min() == Some(self.node) {
            let events = self.gcs.create_group(SERVER_GROUP);
            self.handle_events(ctx, events);
        } else {
            self.gcs.join(ctx, SERVER_GROUP, &[]);
        }
        ctx.set_timer_after(self.cfg.sync_interval, tag::SYNC);
    }

    fn on_datagram(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        from: Endpoint,
        _to: Endpoint,
        msg: VodWire,
    ) {
        match msg {
            VodWire::Gcs(pkt) => {
                let events = self.gcs.on_packet(ctx, from, pkt);
                self.handle_events(ctx, events);
            }
            VodWire::Video(_) => {} // servers do not consume video
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VodWire>, timer: Timer) {
        let client = ClientId(tag::id(timer.tag));
        match tag::kind(timer.tag) {
            tag::GCS_TICK => {
                let events = self.gcs.on_timer(ctx, timer);
                self.handle_events(ctx, events);
            }
            tag::SYNC => self.on_sync_timer(ctx),
            tag::SEND => self.step(ctx, client, Input::Timer(ServerTimer::Send)),
            tag::DECAY => self.step(ctx, client, Input::Timer(ServerTimer::Decay)),
            tag::EXCHANGE => {
                let _span = self.profile.span(Subsystem::ServerTakeover);
                let movie = MovieId(tag::id(timer.tag));
                self.movie_step(ctx, movie, TableInput::Deadline);
            }
            tag::PREFIX => self.on_prefix_timer(ctx, client),
            tag::BRINGUP => self.complete_bringup(ctx, MovieId(tag::id(timer.tag))),
            tag::SHUTDOWN => ctx.exit(),
            _ => debug_assert!(false, "unknown timer tag {}", timer.tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tags_round_trip() {
        for kind in [
            tag::SEND,
            tag::DECAY,
            tag::EXCHANGE,
            tag::PREFIX,
            tag::BRINGUP,
        ] {
            for id in [0u32, 1, 42, 77, u32::MAX] {
                let t = tag::of(kind, id);
                assert_eq!(tag::kind(t), kind);
                assert_eq!(tag::id(t), id);
            }
        }
    }
}
