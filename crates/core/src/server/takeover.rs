//! The takeover table: who serves whom in one movie group.
//!
//! Every replica of a movie keeps one [`TakeoverTable`] — the shared
//! client records, the tombstones of ended sessions, the movie-group view
//! and the state exchange a view change started — and every decision the
//! paper's §5.2 describes is made inside it: what to report when a view
//! installs, how concurrent reports merge, when the exchange is complete,
//! who owns each client afterwards, which sessions this server must start
//! and stop, and from which offset a taken-over stream resumes.
//!
//! The table has no effects and reads no clock. Its one mutating entry
//! point is [`TakeoverTable::step`]: it takes a context ([`Cx`]: the
//! time, this server, the movie and the sessions the server runs) and one
//! [`Input`], and appends the [`Action`]s that follow. [`VodServer`] is the
//! shell that performs them; the property tests of
//! `tests/prop_takeover.rs` and the model checker's fair closure
//! (`crates/mc`) are two more callers.
//!
//! The actions of one step are a sequence: stops come before starts, the
//! `Redistributed` trace after the starts, and the publication that
//! follows a redistribution last, carrying each just-started record as
//! its session holds it. Every [`Action::Publish`] and [`Action::Sync`]
//! comes back to this server as an [`Input::Report`] inside the same
//! handler, because the GCS hands the sender its own multicast.
//!
//! [`VodServer`]: super::VodServer

use std::collections::BTreeSet;
use std::time::Duration;

use gcs::View;
use media::{FrameNo, GopPattern, MovieId, QualityFilter};
use simnet::{NodeId, SimTime, VecMap};

use super::assign::{admit_client, redistribute_clients};
use super::UNSERVED;
use crate::config::{
    FailoverMode, ResumePolicy, TakeoverPolicy, VodConfig, DEFAULT_RATE_FPS, DEGRADED_FPS,
    MIN_RATE_FPS,
};
use crate::protocol::{ClientId, ClientRecord, OpenRequest};
use crate::trace::VodEvent;

/// How long the removal of a record is remembered against stale reports.
const TOMBSTONE_TTL: Duration = Duration::from_secs(30);

/// Every how many periodic reports the records of *other* owners ride
/// along (they exist purely to repair replicas that missed an
/// assignment; the steady traffic is the paper's "information about its
/// clients").
const FOREIGN_EVERY: u64 = 4;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Exchange {
    epoch: u64,
    reported: BTreeSet<NodeId>,
}

/// What the table reacts to.
#[derive(Clone, PartialEq, Debug)]
pub enum Input {
    /// A view of the movie group installed.
    View(View),
    /// A replica's report, this server's own included.
    Report {
        /// The replica that multicast it.
        from: NodeId,
        /// The epoch of the sender's view when it sent.
        epoch: u64,
        /// The records it carries.
        records: Vec<ClientRecord>,
    },
    /// A client's OPEN as a record ([`candidate`]), or a parked record the
    /// coordinator retries on behalf of a client that stopped re-OPENing.
    Open(ClientRecord),
    /// The client's session ended.
    Remove(ClientId),
    /// The exchange deadline ([`Action::ArmDeadline`]) passed.
    Deadline,
    /// Publish this server's records.
    Sync {
        /// The periodic round, which also expires the tombstones; `None`
        /// for an immediate publication.
        round: Option<u64>,
    },
}

/// What the shell does, in the order the table emits it.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Multicast the records to the movie group under the view's epoch:
    /// an exchange report, or an admission.
    Publish(Vec<ClientRecord>),
    /// Multicast this server's state synchronization like a publication:
    /// the periodic round, or the one right after a redistribution (the
    /// shell counts them).
    Sync(Vec<ClientRecord>),
    /// Arm the exchange deadline; step [`Input::Deadline`] when it fires.
    ArmDeadline,
    /// A redistribution round runs (the shell counts it).
    Redistributing,
    /// Stop the session: the client's record names another owner.
    Stop(ClientId),
    /// Start the session as settled; a prefix transmission this server
    /// runs for the client closes first.
    Start(Resume),
    /// An OPEN's first refusal parked the client as [`UNSERVED`] on every
    /// replica (the coordinator alone emits it, so it counts once).
    Parked,
    /// Record the event as happening at the step's `now`.
    Trace(VodEvent),
}

/// What a step reads besides the table.
#[derive(Debug)]
pub struct Cx<'a, S> {
    /// This server.
    pub me: NodeId,
    /// The step's time.
    pub now: SimTime,
    /// The deployment.
    pub cfg: &'a VodConfig,
    /// The table's movie.
    pub movie: MovieId,
    /// The movie's GOP structure.
    pub gop: &'a GopPattern,
    /// The movie's frame rate.
    pub fps: u32,
    /// The sessions this server runs, of every movie, by client: each
    /// one's live record.
    pub sessions: &'a VecMap<ClientId, S>,
}

/// How a session starts on its new owner ([`Action::Start`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Resume {
    /// The record the session runs on: owned by the new server, resume
    /// offset and rate settled.
    pub record: ClientRecord,
    /// The frame filter of the session's quality cap.
    pub filter: QualityFilter,
    /// Cross-DC rescue in reduced quality: the owner is outside the
    /// client's home site and no home-site server is in the movie view,
    /// so the stream is capped at [`DEGRADED_FPS`].
    pub degraded: bool,
}

/// One movie group's records, view and pending exchange, as one replica
/// sees them.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct TakeoverTable {
    records: VecMap<ClientId, ClientRecord>,
    /// Ended sessions: removal time per client, so an in-flight stale sync
    /// cannot resurrect a removed record (a record updated *after* the
    /// removal — e.g. by the owner on the other side of a healed
    /// partition — is accepted and clears the tombstone).
    tombstones: VecMap<ClientId, SimTime>,
    view: View,
    exchange: Option<Exchange>,
    failures_seen: u32,
}

/// Total order on records used to merge concurrent sync reports
/// deterministically: the assignment of the newest view wins, then the
/// freshest timestamp, ties broken by owner and progress so every
/// replica resolves identically regardless of arrival order. (Removals
/// are outside this order: a tombstone drops every report no fresher than
/// it, but it carries the receiver's clock, so two replicas can disagree
/// about a report stamped in between — `tests/prop_takeover.rs` pins the
/// counterexample.)
fn record_key(r: &ClientRecord) -> (u64, SimTime, u32, u64) {
    (r.assigned_epoch, r.updated_at, r.owner.0, r.next_frame.0)
}

impl TakeoverTable {
    /// The movie-group view last installed.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The record of `client`, if known.
    pub fn get(&self, client: ClientId) -> Option<&ClientRecord> {
        self.records.get(&client)
    }

    /// All known records, in client order.
    pub fn records(&self) -> impl Iterator<Item = &ClientRecord> {
        self.records.values()
    }

    /// How many clients `owner` serves ([`UNSERVED`]: how many wait).
    pub fn owned_by(&self, owner: NodeId) -> usize {
        self.records().filter(|r| r.owner == owner).count()
    }

    /// Advances the table by `input`, appending what the shell must do to
    /// `out` in the order it must be done. Total: any input in any state
    /// is accepted, and one that does not apply does nothing.
    pub fn step<S: AsRef<ClientRecord>>(
        &mut self,
        cx: &Cx<'_, S>,
        input: Input,
        out: &mut Vec<Action>,
    ) {
        match input {
            Input::View(view) => self.install(cx, view, out),
            Input::Report {
                from,
                epoch,
                records,
            } => self.merge(cx, from, epoch, records, out),
            Input::Open(candidate) => self.admit(cx, candidate, out),
            // Forget the record and remember the removal against reports
            // still in flight, also when no record of it arrived here yet:
            // a removal and a stale report then leave the same table in
            // either order.
            Input::Remove(client) => {
                self.records.remove(&client);
                self.tombstones.insert(client, cx.now);
            }
            // Still pending at its deadline, the exchange redistributes
            // over whatever reports arrived.
            Input::Deadline => {
                if self.exchange.take().is_some() {
                    self.take_over(cx, out);
                }
            }
            Input::Sync { round } => {
                if round.is_some() {
                    // Drop the tombstones no in-flight report can still
                    // contradict.
                    self.tombstones
                        .retain(|_, &mut at| cx.now.saturating_since(at) < TOMBSTONE_TTL);
                }
                let live = |client| cx.sessions.get(&client).map(|s| *s.as_ref());
                self.report(cx, round, live, out);
            }
        }
    }

    /// Installs `view`, counting the members it lost towards
    /// [`TakeoverPolicy::SingleBackup`]'s failure budget. A view without
    /// `me` (e.g. it left gracefully) coordinates nothing; alone in it,
    /// `me` redistributes at once. Otherwise a state exchange starts: `me`
    /// reports everything it knows under the view's epoch and arms the
    /// exchange deadline (paper §5.2: "the servers first exchange
    /// information about clients, and then use it to deduce which clients
    /// each of them will serve").
    fn install<S: AsRef<ClientRecord>>(
        &mut self,
        cx: &Cx<'_, S>,
        view: View,
        out: &mut Vec<Action>,
    ) {
        let lost = self.view.members.iter().filter(|m| !view.contains(**m));
        self.failures_seen = self.failures_seen.saturating_add(lost.count() as u32);
        self.view = view;
        self.exchange = None;
        if !self.view.contains(cx.me) {
            return;
        }
        if self.view.len() == 1 {
            return self.take_over(cx, out);
        }
        let (epoch, members) = (self.view.id.epoch, self.view.len());
        self.exchange = Some(Exchange {
            epoch,
            reported: BTreeSet::new(),
        });
        out.push(Action::Trace(VodEvent::StateExchangeStarted {
            server: cx.me,
            movie: cx.movie,
            epoch,
            members,
        }));
        out.push(Action::ArmDeadline);
        out.push(Action::Publish(self.records().copied().collect()));
    }

    /// Merges `from`'s report, sent under `view_epoch`: per client the
    /// record that is greater by assignment epoch, then timestamp, then
    /// owner and offset wins, and a record no fresher than the client's
    /// tombstone is dropped. With no exchange pending, the sessions are
    /// reconciled with the records. A report under the pending exchange's
    /// epoch counts towards its completion, and the last one redistributes;
    /// until then owners may be about to change, so no session starts or
    /// stops.
    fn merge<S: AsRef<ClientRecord>>(
        &mut self,
        cx: &Cx<'_, S>,
        from: NodeId,
        view_epoch: u64,
        records: Vec<ClientRecord>,
        out: &mut Vec<Action>,
    ) {
        for record in records {
            if let Some(&removed_at) = self.tombstones.get(&record.client) {
                if record.updated_at <= removed_at {
                    continue; // stale report of an ended session
                }
                self.tombstones.remove(&record.client);
            }
            let known = self.get(record.client);
            if known.is_none_or(|known| record_key(known) < record_key(&record)) {
                self.records.insert(record.client, record);
            }
        }
        let Some(exchange) = self.exchange.as_mut() else {
            return self.reconcile(cx, out);
        };
        if view_epoch == exchange.epoch {
            exchange.reported.insert(from);
            let members = &self.view.members;
            if members.iter().all(|m| exchange.reported.contains(m)) {
                self.exchange = None;
                self.take_over(cx, out);
            }
        }
    }

    /// Redistribution after a completed or expired exchange, or alone in
    /// the view: reassign, reconcile, and publish what changed hands.
    ///
    /// The reassignment is deterministic (see [`redistribute_clients`]):
    /// every record gets an owner from the view, or [`UNSERVED`], stamped
    /// with the view's epoch so that the assignment dominates periodic
    /// reports from before the change. A baseline [`VodConfig::takeover`]
    /// reassigns nothing (orphans stay orphaned).
    fn take_over<S: AsRef<ClientRecord>>(&mut self, cx: &Cx<'_, S>, out: &mut Vec<Action>) {
        out.push(Action::Redistributing);
        let reassign = match cx.cfg.takeover {
            TakeoverPolicy::Full => true,
            TakeoverPolicy::SingleBackup => self.failures_seen <= 1,
            TakeoverPolicy::None => false,
        };
        let epoch = self.view.id.epoch;
        if reassign {
            let (assignment, unassigned) =
                redistribute_clients(cx.cfg, &self.view.members, &self.records);
            let parked = unassigned.into_iter().map(|client| (client, UNSERVED));
            for (client, owner) in assignment.into_iter().chain(parked) {
                if let Some(record) = self.records.get_mut(&client) {
                    record.owner = owner;
                    record.assigned_epoch = epoch;
                }
            }
        }
        let first = out.len();
        self.reconcile(cx, out);
        if !reassign {
            return;
        }
        let started: VecMap<ClientId, ClientRecord> = (out[first..].iter())
            .filter_map(|action| match action {
                Action::Start(how) => Some((how.record.client, how.record)),
                _ => None,
            })
            .collect();
        let stopped = out.len() - first - started.len();
        let running = cx.sessions.values();
        let here = running.filter(|s| s.as_ref().movie == cx.movie).count();
        out.push(Action::Trace(VodEvent::Redistributed {
            server: cx.me,
            movie: cx.movie,
            epoch,
            owned: here + started.len() - stopped,
        }));
        // Publish the newly owned records promptly so the other replicas
        // see fresh state (and the old server, if alive, stops quickly).
        let running = |client| cx.sessions.get(&client).map(S::as_ref);
        let live = |client| started.get(&client).or(running(client)).copied();
        self.report(cx, None, live, out);
    }

    /// Stops the sessions of this table's movie whose record names another
    /// replica, then starts one for every record `me` owns without any
    /// session.
    fn reconcile<S: AsRef<ClientRecord>>(&self, cx: &Cx<'_, S>, out: &mut Vec<Action>) {
        let moved = |client| self.get(client).is_some_and(|r| r.owner != cx.me);
        for (&client, session) in cx.sessions.iter() {
            if session.as_ref().movie == cx.movie && moved(client) {
                out.push(Action::Stop(client));
            }
        }
        for record in self.records() {
            if record.owner == cx.me && !cx.sessions.contains_key(&record.client) {
                out.push(Action::Start(self.resume(cx, *record)));
            }
        }
    }

    /// Connection establishment, decided by the view's coordinator alone:
    /// the least-loaded member takes `candidate`'s client (see
    /// [`admit_client`]). Publishes to the group a served client's own
    /// record again (a duplicate OPEN — the republication repairs a lost
    /// assignment), the candidate stamped with its owner and this view's
    /// epoch, or — on the first refusal only, as [`Action::Parked`] — the
    /// candidate parked as [`UNSERVED`] on every replica. Nothing when `me`
    /// does not coordinate or a parked client still has no room.
    ///
    /// The candidate is the client's OPEN as a record ([`candidate`]), or
    /// the parked record itself when the coordinator retries on behalf of
    /// a client that stopped re-OPENing; its `owner` is ignored.
    fn admit<S>(&mut self, cx: &Cx<'_, S>, candidate: ClientRecord, out: &mut Vec<Action>) {
        if self.view.coordinator_candidate() != Some(cx.me) {
            return;
        }
        let known = self.get(candidate.client).copied();
        let parked = known.is_some_and(|r| r.owner == UNSERVED);
        if let Some(known) = known.filter(|_| !parked) {
            return out.push(Action::Publish(vec![known]));
        }
        let members = &self.view.members;
        let (client, node) = (candidate.client, candidate.client_node);
        let owner = admit_client(cx.cfg, members, &self.records, client, node).unwrap_or(UNSERVED);
        if parked && owner == UNSERVED {
            return;
        }
        let record = ClientRecord {
            owner,
            assigned_epoch: self.view.id.epoch,
            updated_at: cx.now,
            ..candidate
        };
        self.records.insert(client, record);
        if owner == UNSERVED {
            out.push(Action::Parked);
        }
        out.push(Action::Publish(vec![record]));
    }

    /// Multicasts, as an [`Action::Sync`], the records `me` reports while
    /// it is in the view: its own, refreshed from the running session
    /// (`live`) and restamped, and the others' on every fourth periodic
    /// `round` and on every immediate publication (`round` = `None`) —
    /// which must go out even when `me` owns nothing: it is how a new owner
    /// learns about an assignment decided here.
    fn report<S>(
        &mut self,
        cx: &Cx<'_, S>,
        round: Option<u64>,
        live: impl Fn(ClientId) -> Option<ClientRecord>,
        out: &mut Vec<Action>,
    ) {
        if !self.view.contains(cx.me) {
            return;
        }
        let foreign = round.is_none_or(|r| r.is_multiple_of(FOREIGN_EVERY));
        let mut report = Vec::new();
        for record in self.records.values_mut() {
            if record.owner == cx.me {
                if let Some(session) = live(record.client) {
                    record.next_frame = session.next_frame;
                    record.rate_fps = session.rate_fps;
                    record.max_fps = session.max_fps;
                    record.paused = session.paused;
                }
                record.updated_at = cx.now;
            } else if !foreign {
                continue;
            }
            report.push(*record);
        }
        out.push(Action::Sync(report));
    }

    /// How `me` takes over `record`'s client.
    ///
    /// The resume offset is the last synchronized one — conservatively,
    /// preferring duplicate frames over gaps (paper §6.1.1) — unless
    /// [`ResumePolicy::SkipAhead`] estimates how far the previous server
    /// got since and jumps over it (ablation D5: trades duplicates for
    /// possible holes). A cross-DC rescue is thinned like a
    /// quality-capped client (paper §4.3), but the record's own `max_fps`
    /// is left untouched: the cap is a property of this rescue session,
    /// and full quality returns with the next redistribution onto a home
    /// server.
    fn resume<S>(&self, cx: &Cx<'_, S>, mut record: ClientRecord) -> Resume {
        let (cfg, me) = (cx.cfg, cx.me);
        // Only while no home-site server is left in the movie view may
        // the stream be degraded — a healthy home DC serves at full
        // quality, and the oracle checks exactly that.
        let rescue_fps = cfg.multidc.as_ref().and_then(|mdc| {
            let home = mdc.map.home_site_of_client(record.client_node)?;
            let away = |n: &NodeId| mdc.map.site_of_server(*n) != Some(home);
            let rescue = away(&me) && self.view.members.iter().all(away);
            (rescue && mdc.mode == FailoverMode::RemoteDegraded).then_some(DEGRADED_FPS)
        });
        record.owner = me;
        if cfg.resume == ResumePolicy::SkipAhead && !record.paused {
            let staleness = cx.now.saturating_since(record.updated_at).as_secs_f64();
            let estimated = (staleness * f64::from(record.rate_fps)).ceil() as u64;
            record.next_frame = FrameNo(record.next_frame.0.saturating_add(estimated));
        }
        let max_fps = rescue_fps.map_or(record.max_fps, |fps| record.max_fps.min(fps));
        let (filter, cap) = quality(cx.gop, cx.fps, max_fps);
        record.rate_fps = record.rate_fps.min(cap);
        Resume {
            record,
            filter,
            degraded: rescue_fps.is_some(),
        }
    }
}

/// A client's OPEN as the record [`Input::Open`] carries.
pub fn candidate(open: &OpenRequest) -> ClientRecord {
    ClientRecord {
        client: open.client,
        client_node: open.client_node,
        session_group: open.session_group,
        movie: open.movie,
        next_frame: open.start_at,
        rate_fps: DEFAULT_RATE_FPS,
        max_fps: open.max_fps,
        owner: UNSERVED,
        assigned_epoch: 0,
        updated_at: SimTime::ZERO,
        paused: false,
    }
}

/// The filter that thins a movie of `fps` frames per second down to
/// `max_fps`, and the transmission-rate cap that goes with it: a thinned
/// stream must not be pumped at the full-rate cadence.
pub fn quality(gop: &GopPattern, fps: u32, max_fps: u32) -> (QualityFilter, u32) {
    let filter = QualityFilter::new(gop, fps, max_fps);
    let cap = filter.effective_fps(fps).ceil() as u32;
    (filter, cap.max(MIN_RATE_FPS))
}

#[cfg(test)]
mod tests {
    use gcs::ViewId;

    use super::*;
    use crate::config::{MultiDcConfig, SiteMap};
    use crate::protocol::session_group;
    use media::MovieId;

    const ME: NodeId = NodeId(1);
    const PEER: NodeId = NodeId(2);

    fn view(epoch: u64, members: &[u32]) -> View {
        let members: Vec<NodeId> = members.iter().map(|&n| NodeId(n)).collect();
        let id = ViewId {
            epoch,
            coordinator: members.first().copied().unwrap_or_default(),
        };
        View::new(id, members)
    }

    fn record(client: u32, epoch: u64, at: u64, owner: NodeId, frame: u64) -> ClientRecord {
        ClientRecord {
            client: ClientId(client),
            client_node: NodeId(100 + client),
            session_group: session_group(ClientId(client)),
            movie: MovieId(1),
            next_frame: FrameNo(frame),
            rate_fps: 30,
            max_fps: 30,
            owner,
            assigned_epoch: epoch,
            updated_at: SimTime::from_millis(at),
            paused: false,
        }
    }

    fn open(client: u32, start_at: u64) -> OpenRequest {
        OpenRequest {
            client: ClientId(client),
            client_node: NodeId(100 + client),
            session_group: session_group(ClientId(client)),
            movie: MovieId(1),
            start_at: FrameNo(start_at),
            max_fps: 30,
        }
    }

    fn report(from: NodeId, epoch: u64, records: Vec<ClientRecord>) -> Input {
        Input::Report {
            from,
            epoch,
            records,
        }
    }

    /// Steps `table` as the server `me` running `sessions`, at `now`, for
    /// movie 1 (MPEG-1 at 30 fps); returns the actions.
    fn step_running(
        cfg: &VodConfig,
        table: &mut TakeoverTable,
        me: NodeId,
        now: SimTime,
        sessions: &VecMap<ClientId, ClientRecord>,
        input: Input,
    ) -> Vec<Action> {
        let gop = GopPattern::mpeg1();
        let cx = Cx {
            me,
            now,
            cfg,
            movie: MovieId(1),
            gop: &gop,
            fps: 30,
            sessions,
        };
        let mut out = Vec::new();
        table.step(&cx, input, &mut out);
        out
    }

    /// [`step_running`] with no session running.
    fn step(
        cfg: &VodConfig,
        table: &mut TakeoverTable,
        me: NodeId,
        now: SimTime,
        input: Input,
    ) -> Vec<Action> {
        step_running(cfg, table, me, now, &VecMap::new(), input)
    }

    /// The epoch of the `Redistributed` trace among `actions`, if any.
    fn redistributed(actions: &[Action]) -> Option<u64> {
        actions.iter().find_map(|action| match action {
            Action::Trace(VodEvent::Redistributed { epoch, .. }) => Some(*epoch),
            _ => None,
        })
    }

    /// A table whose view `members` at `epoch` is installed and, when it
    /// has several members, whose exchange every member completed.
    fn settled(cfg: &VodConfig, epoch: u64, members: &[u32]) -> TakeoverTable {
        let (mut table, now) = (TakeoverTable::default(), SimTime::ZERO);
        step(cfg, &mut table, ME, now, Input::View(view(epoch, members)));
        for &m in members {
            step(cfg, &mut table, ME, now, report(NodeId(m), epoch, vec![]));
        }
        assert!(table.exchange.is_none());
        table
    }

    #[test]
    fn record_merge_order_prefers_epoch_then_freshness() {
        // A redistribution result (newer epoch, older timestamp) dominates
        // a periodic report from before the view change.
        let redistributed = record(1, 5, 1_000, NodeId(3), 100);
        let stale_periodic = record(1, 4, 2_000, NodeId(1), 120);
        assert!(record_key(&redistributed) > record_key(&stale_periodic));
        // Within an epoch, the fresher report wins.
        let older = record(1, 5, 1_000, NodeId(3), 100);
        let newer = record(1, 5, 1_500, NodeId(3), 130);
        assert!(record_key(&newer) > record_key(&older));
        // Full ties resolve identically everywhere (deterministic merge).
        assert_eq!(
            record_key(&older),
            record_key(&record(1, 5, 1_000, NodeId(3), 100))
        );
    }

    #[test]
    fn a_view_install_excludes_redistributes_alone_or_starts_an_exchange() {
        let (cfg, now) = (VodConfig::paper_default(), SimTime::ZERO);
        let mut table = TakeoverTable::default();
        let alone = step(&cfg, &mut table, ME, now, Input::View(view(1, &[1])));
        assert_eq!(alone.first(), Some(&Action::Redistributing));
        let known = vec![record(7, 1, 10, ME, 0)];
        step(&cfg, &mut table, ME, now, report(ME, 1, known.clone()));
        let exchange = step(&cfg, &mut table, ME, now, Input::View(view(2, &[1, 2, 3])));
        let started = VodEvent::StateExchangeStarted {
            server: ME,
            movie: MovieId(1),
            epoch: 2,
            members: 3,
        };
        assert_eq!(
            exchange,
            [
                Action::Trace(started),
                Action::ArmDeadline,
                Action::Publish(known)
            ]
        );
        assert!(table.exchange.is_some());
        let excluded = step(&cfg, &mut table, ME, now, Input::View(view(3, &[2, 3])));
        assert!(excluded.is_empty());
        assert!(
            table.exchange.is_none(),
            "an excluded server coordinates nothing"
        );
        // [1] -> [1,2,3] lost nobody, [1,2,3] -> [2,3] lost one member.
        assert_eq!(table.failures_seen, 1);
    }

    #[test]
    fn an_exchange_ends_with_the_last_members_report_or_the_deadline() {
        let (cfg, now) = (VodConfig::paper_default(), SimTime::ZERO);
        let mut table = TakeoverTable::default();
        let hear = |table: &mut TakeoverTable, input| step(&cfg, table, ME, now, input);
        hear(&mut table, Input::View(view(4, &[1, 2, 3])));
        assert!(hear(&mut table, report(ME, 4, vec![])).is_empty());
        let stale = hear(&mut table, report(PEER, 3, vec![]));
        assert!(stale.is_empty(), "stale epoch");
        let stranger = hear(&mut table, report(NodeId(9), 4, vec![]));
        assert!(stranger.is_empty(), "non-member");
        assert!(hear(&mut table, report(PEER, 4, vec![])).is_empty());
        assert!(table.exchange.is_some());
        let last = hear(&mut table, report(NodeId(3), 4, vec![]));
        assert_eq!(last.first(), Some(&Action::Redistributing));
        assert!(table.exchange.is_none());
        let after = hear(&mut table, report(NodeId(3), 4, vec![]));
        assert!(!after.contains(&Action::Redistributing));
        let deadline = hear(&mut table, Input::Deadline);
        assert!(deadline.is_empty(), "nothing left for the deadline");

        hear(&mut table, Input::View(view(5, &[1, 2])));
        assert!(hear(&mut table, report(ME, 5, vec![])).is_empty());
        let expired = hear(&mut table, Input::Deadline);
        assert_eq!(expired.first(), Some(&Action::Redistributing));
        let late = hear(&mut table, report(PEER, 5, vec![]));
        assert!(!late.contains(&Action::Redistributing));
    }

    #[test]
    fn redistribution_stamps_the_views_epoch_unless_the_policy_is_a_baseline() {
        let (cfg, now) = (VodConfig::paper_default(), SimTime::ZERO);
        let mut table = settled(&cfg, 1, &[1, 2]);
        let records = vec![record(7, 1, 10, PEER, 50), record(8, 1, 10, PEER, 60)];
        step(&cfg, &mut table, ME, now, report(PEER, 1, records));
        let alone = step(&cfg, &mut table, ME, now, Input::View(view(2, &[1])));
        assert_eq!(redistributed(&alone), Some(2));
        for r in table.records() {
            assert_eq!((r.owner, r.assigned_epoch), (ME, 2));
        }
        // The stamp is what lets the assignment survive a report the old
        // owner sent before it learned of the change.
        let stale = vec![record(7, 1, 9_999, PEER, 90)];
        step(&cfg, &mut table, ME, now, report(PEER, 1, stale));
        assert_eq!(table.get(ClientId(7)).map(|r| r.owner), Some(ME));

        let mut take_over = |cfg: &VodConfig, epoch, members: &[u32]| {
            let actions = step(cfg, &mut table, ME, now, Input::View(view(epoch, members)));
            redistributed(&actions)
        };
        let none = cfg.clone().with_takeover(TakeoverPolicy::None);
        assert_eq!(take_over(&none, 2, &[1]), None);
        let single = cfg.with_takeover(TakeoverPolicy::SingleBackup);
        assert_eq!(
            take_over(&single, 2, &[1]),
            Some(2),
            "first failure is covered"
        );
        take_over(&single, 3, &[1, 2]);
        assert_eq!(take_over(&single, 4, &[1]), None, "the second is not");
    }

    #[test]
    fn one_admission_path_serves_first_duplicate_retried_and_readmitted_opens() {
        let cfg = VodConfig::paper_default().with_session_cap(1);
        let now = SimTime::from_secs(3);
        // The record an OPEN publishes; `Parked` comes with a refusal.
        let admit = |table: &mut TakeoverTable, me, candidate, now| match step(
            &cfg,
            table,
            me,
            now,
            Input::Open(candidate),
        )
        .as_slice()
        {
            [] => None,
            [Action::Publish(records)] => {
                assert_ne!(records[0].owner, UNSERVED);
                Some(records[0])
            }
            [Action::Parked, Action::Publish(records)] => {
                assert_eq!(records[0].owner, UNSERVED);
                Some(records[0])
            }
            other => panic!("{other:?}"),
        };
        let mut table = settled(&cfg, 6, &[1, 2]);
        let mut follower = table.clone();
        assert_eq!(
            admit(&mut follower, PEER, candidate(&open(7, 0)), now),
            None
        );

        // First OPENs: least-loaded member, ties to the highest id.
        let first = admit(&mut table, ME, candidate(&open(7, 40)), now);
        let expected = ClientRecord {
            rate_fps: DEFAULT_RATE_FPS,
            updated_at: now,
            ..record(7, 6, 0, PEER, 40)
        };
        assert_eq!(first, Some(expected));
        let second = admit(&mut table, ME, candidate(&open(8, 0)), now);
        assert_eq!(second.map(|r| r.owner), Some(ME));

        // A duplicate OPEN republishes the record untouched, whatever the
        // retry says and whenever it comes.
        let later = SimTime::from_secs(9);
        let again = admit(&mut table, ME, candidate(&open(7, 999)), later);
        assert_eq!(again, Some(expected));

        // Both members full: the first refusal parks the client on every
        // replica, the retries of a parked client publish nothing.
        let refused = admit(&mut table, ME, candidate(&open(9, 5)), now);
        assert_eq!(refused.map(|r| r.owner), Some(UNSERVED));
        assert_eq!(admit(&mut table, ME, candidate(&open(9, 5)), later), None);
        let parked = *table.get(ClientId(9)).expect("parked");
        assert_eq!(admit(&mut table, ME, parked, later), None);

        // Room frees up. The client's own retry starts over from its OPEN;
        // the coordinator's retry on its behalf keeps the parked record.
        step(&cfg, &mut table, ME, later, Input::Remove(ClientId(7)));
        let mut by_open = table.clone();
        let retried = admit(&mut by_open, ME, candidate(&open(9, 77)), later);
        let readmitted = admit(&mut table, ME, parked, later);
        let placed = ClientRecord {
            owner: PEER,
            updated_at: later,
            ..parked
        };
        assert_eq!(readmitted, Some(placed));
        assert_eq!(
            retried,
            Some(ClientRecord {
                next_frame: FrameNo(77),
                ..placed
            })
        );
        assert_eq!(table.get(ClientId(9)), Some(&placed));
    }

    #[test]
    fn a_sync_restamps_own_records_and_carries_the_others_every_fourth_round() {
        let cfg = VodConfig::paper_default();
        let mut table = settled(&cfg, 1, &[1, 2]);
        let records = vec![record(7, 1, 10, ME, 50), record(8, 1, 10, PEER, 60)];
        step(
            &cfg,
            &mut table,
            PEER,
            SimTime::ZERO,
            report(PEER, 1, records),
        );
        let now = SimTime::from_secs(2);
        let session = ClientRecord {
            next_frame: FrameNo(75),
            rate_fps: 33,
            max_fps: 15,
            paused: true,
            // Not the owner's to report: the table's own values stand.
            assigned_epoch: 0,
            client_node: NodeId(5),
            ..record(7, 1, 10, ME, 50)
        };
        let sessions: VecMap<ClientId, ClientRecord> =
            [(ClientId(7), session)].into_iter().collect();
        let mut sync = |me, round| {
            let input = Input::Sync { round };
            step_running(&cfg, &mut table, me, now, &sessions, input)
        };
        let own = ClientRecord {
            assigned_epoch: 1,
            client_node: NodeId(107),
            updated_at: now,
            ..session
        };
        let foreign = record(8, 1, 10, PEER, 60);
        assert_eq!(sync(ME, Some(1)), [Action::Sync(vec![own])]);
        assert_eq!(sync(ME, Some(4)), [Action::Sync(vec![own, foreign])]);
        assert_eq!(sync(ME, None), [Action::Sync(vec![own, foreign])]);
        match sync(PEER, Some(3)).as_slice() {
            [Action::Sync(records)] => assert_eq!(records.len(), 1),
            other => panic!("{other:?}"),
        }
        assert!(sync(NodeId(3), None).is_empty(), "not a member");
    }

    #[test]
    fn a_tombstone_drops_reports_no_fresher_than_the_removal_until_it_expires() {
        let cfg = VodConfig::paper_default();
        let mut table = TakeoverTable::default();
        let hear = |table: &mut TakeoverTable, now, input| step(&cfg, table, ME, now, input);
        hear(&mut table, SimTime::ZERO, Input::View(view(1, &[1])));
        let at = |r: ClientRecord| report(PEER, 1, vec![r]);
        hear(&mut table, SimTime::ZERO, at(record(7, 1, 1_000, ME, 50)));
        let removed_at = SimTime::from_millis(2_000);
        hear(&mut table, removed_at, Input::Remove(ClientId(7)));
        hear(&mut table, removed_at, at(record(7, 1, 1_500, PEER, 60)));
        hear(&mut table, removed_at, at(record(7, 1, 2_000, PEER, 60)));
        assert_eq!(
            table.get(ClientId(7)),
            None,
            "as old as the removal is stale"
        );
        hear(&mut table, removed_at, at(record(7, 1, 2_001, PEER, 61)));
        assert_eq!(table.get(ClientId(7)).map(|r| r.owner), Some(PEER));
        assert!(table.tombstones.is_empty(), "a fresher record clears it");

        hear(&mut table, removed_at, Input::Remove(ClientId(7)));
        let round = Input::Sync { round: Some(1) };
        let before = removed_at + TOMBSTONE_TTL - Duration::from_micros(1);
        hear(&mut table, before, round.clone());
        assert_eq!(table.tombstones.len(), 1);
        hear(
            &mut table,
            removed_at + TOMBSTONE_TTL,
            Input::Sync { round: None },
        );
        assert_eq!(table.tombstones.len(), 1, "only a periodic round expires");
        hear(&mut table, removed_at + TOMBSTONE_TTL, round);
        assert!(table.tombstones.is_empty());
    }

    #[test]
    fn a_report_stops_what_moved_and_starts_what_is_owned_without_a_session() {
        let cfg = VodConfig::paper_default();
        let records = vec![
            record(1, 1, 10, ME, 0),   // owned, running: nothing to do
            record(2, 1, 10, ME, 0),   // owned, no session: start
            record(3, 1, 10, PEER, 0), // moved away: stop
            record(4, 1, 10, PEER, 0), // moved away, but the session streams another movie
            record(5, 1, 10, ME, 0),   // owned, but a session of another movie holds the client
            record(7, 1, 10, PEER, 0), // another replica's, and no business of ours
        ];
        // client -> the movie its session streams
        let sessions: VecMap<ClientId, ClientRecord> = [(1, 1), (3, 1), (6, 1), (4, 2), (5, 2)]
            .into_iter()
            .map(|(client, movie)| {
                let session = record(client, 1, 10, ME, 0);
                let movie = MovieId(movie);
                (ClientId(client), ClientRecord { movie, ..session })
            })
            .collect();
        let mut table = TakeoverTable::default();
        let input = report(PEER, 1, records);
        let actions = step_running(&cfg, &mut table, ME, SimTime::ZERO, &sessions, input);
        match actions.as_slice() {
            [Action::Stop(ClientId(3)), Action::Start(how)] => {
                assert_eq!(how.record, record(2, 1, 10, ME, 0))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn only_a_rescue_across_sites_with_no_home_server_in_view_is_degraded() {
        let mut map = SiteMap::new();
        let east = map.add_site("east", &[NodeId(1), NodeId(2)]);
        map.add_site("west", &[NodeId(3)]);
        map.home_clients(east, &[NodeId(107)]);
        let cfg = VodConfig::paper_default().with_multidc(MultiDcConfig::new(map));
        let now = SimTime::from_secs(1);
        // The session a report that gives `me` the client starts, once
        // the view `members` settled.
        let resume = |me: u32, members: &[u32]| {
            let (mut table, me) = (TakeoverTable::default(), NodeId(me));
            step(&cfg, &mut table, me, now, Input::View(view(1, members)));
            step(&cfg, &mut table, me, now, Input::Deadline);
            let given = vec![record(7, 1, 10, me, 50)];
            match step(&cfg, &mut table, me, now, report(PEER, 0, given)).as_slice() {
                [Action::Start(how)] => how.clone(),
                other => panic!("{other:?}"),
            }
        };
        let rescue = resume(3, &[3]);
        assert!(rescue.degraded);
        assert_eq!((rescue.record.rate_fps, rescue.record.max_fps), (16, 30));
        assert_eq!(rescue.record.owner, NodeId(3));
        for (me, members) in [(1, &[1, 3][..]), (3, &[2, 3]), (2, &[2])] {
            let full = resume(me, members);
            assert!(!full.degraded, "{me} in {members:?}");
            assert_eq!(full.record.rate_fps, 30);
        }
    }
}
