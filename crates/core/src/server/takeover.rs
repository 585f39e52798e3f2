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

/// What installing a movie-group view asks for.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Installed {
    /// This server is not in the view (e.g. it left gracefully): nothing
    /// to coordinate.
    Excluded,
    /// This server is the only member: redistribute at once.
    Alone,
    /// A state exchange started: multicast this report — everything the
    /// server knows — under the view's epoch and arm the exchange
    /// deadline (paper §5.2: "the servers first exchange information
    /// about clients, and then use it to deduce which clients each of
    /// them will serve").
    Exchange(Vec<ClientRecord>),
}

/// What a merged report asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Merged {
    /// The report completed the pending exchange: redistribute.
    Redistribute,
    /// No exchange is pending: reconcile the sessions with the records.
    Reconcile,
    /// An exchange is still waiting for members: owners may be about to
    /// change, so no session starts or stops yet.
    Pending,
}

/// The sessions a server must stop and start to match the records;
/// stops come first.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct SessionDiff {
    /// Clients whose record names another owner.
    stop: Vec<ClientId>,
    /// Records this server owns without a session.
    start: Vec<ClientRecord>,
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
            Input::View(view) => match self.install_view(cx.me, view) {
                Installed::Excluded => {}
                Installed::Alone => self.take_over(cx, out),
                Installed::Exchange(records) => {
                    let (server, movie) = (cx.me, cx.movie);
                    let (epoch, members) = (self.view.id.epoch, self.view.len());
                    out.push(Action::Trace(VodEvent::StateExchangeStarted {
                        server,
                        movie,
                        epoch,
                        members,
                    }));
                    out.push(Action::ArmDeadline);
                    out.push(Action::Publish(records));
                }
            },
            Input::Report {
                from,
                epoch,
                records,
            } => match self.merge_report(from, epoch, records) {
                Merged::Redistribute => self.take_over(cx, out),
                Merged::Reconcile => self.reconcile(cx, out),
                Merged::Pending => {}
            },
            Input::Open(candidate) => {
                if let Some(record) = self.admit(cx.cfg, cx.me, candidate, cx.now) {
                    if record.owner == UNSERVED {
                        out.push(Action::Parked);
                    }
                    out.push(Action::Publish(vec![record]));
                }
            }
            Input::Remove(client) => self.remove(client, cx.now),
            Input::Deadline if self.exchange_expired() => self.take_over(cx, out),
            Input::Deadline => {}
            Input::Sync { round } => {
                if round.is_some() {
                    self.expire_tombstones(cx.now);
                }
                let live = |client| cx.sessions.get(&client).map(|s| *s.as_ref());
                if let Some(records) = self.report(cx.me, cx.now, round, live) {
                    out.push(Action::Sync(records));
                }
            }
        }
    }

    /// Redistribution after a completed or expired exchange, or alone in
    /// the view: reassign, reconcile, and publish what changed hands.
    fn take_over<S: AsRef<ClientRecord>>(&mut self, cx: &Cx<'_, S>, out: &mut Vec<Action>) {
        out.push(Action::Redistributing);
        let reassigned = self.redistribute(cx.cfg);
        let first = out.len();
        self.reconcile(cx, out);
        let Some(epoch) = reassigned else {
            return;
        };
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
        if let Some(records) = self.report(cx.me, cx.now, None, live) {
            out.push(Action::Sync(records));
        }
    }

    /// Stops the sessions whose client the records give to another
    /// replica, starts one for every record `me` owns without a session.
    fn reconcile<S: AsRef<ClientRecord>>(&self, cx: &Cx<'_, S>, out: &mut Vec<Action>) {
        let here = |s: &S| s.as_ref().movie == cx.movie;
        let diff = self.session_diff(cx.me, cx.sessions, here);
        out.extend(diff.stop.into_iter().map(Action::Stop));
        for record in diff.start {
            let how = self.resume(cx.cfg, cx.me, cx.gop, cx.fps, record, cx.now);
            out.push(Action::Start(how));
        }
    }

    /// Installs `view`, counting the members it lost towards
    /// [`TakeoverPolicy::SingleBackup`]'s failure budget.
    fn install_view(&mut self, me: NodeId, view: View) -> Installed {
        let lost = self.view.members.iter().filter(|m| !view.contains(**m));
        self.failures_seen = self.failures_seen.saturating_add(lost.count() as u32);
        self.view = view;
        self.exchange = None;
        if !self.view.contains(me) {
            return Installed::Excluded;
        }
        if self.view.len() == 1 {
            return Installed::Alone;
        }
        self.exchange = Some(Exchange {
            epoch: self.view.id.epoch,
            reported: BTreeSet::new(),
        });
        Installed::Exchange(self.records().copied().collect())
    }

    /// Merges `from`'s report, sent under `view_epoch`: per client the
    /// record that is greater by assignment epoch, then timestamp, then
    /// owner and offset wins, and a record no fresher than the client's
    /// tombstone is dropped. A report under the pending exchange's epoch
    /// counts towards its completion.
    fn merge_report(
        &mut self,
        from: NodeId,
        view_epoch: u64,
        records: impl IntoIterator<Item = ClientRecord>,
    ) -> Merged {
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
            return Merged::Reconcile;
        };
        if view_epoch == exchange.epoch {
            exchange.reported.insert(from);
            let members = &self.view.members;
            if members.iter().all(|m| exchange.reported.contains(m)) {
                self.exchange = None;
                return Merged::Redistribute;
            }
        }
        Merged::Pending
    }

    /// Forgets `client`'s record (its session ended at `now`) and
    /// remembers the removal against reports still in flight, also when
    /// no record of it arrived here yet: a removal and a stale report then
    /// leave the same table in either order.
    fn remove(&mut self, client: ClientId, now: SimTime) {
        self.records.remove(&client);
        self.tombstones.insert(client, now);
    }

    /// Drops the tombstones no in-flight report can still contradict.
    fn expire_tombstones(&mut self, now: SimTime) {
        self.tombstones
            .retain(|_, &mut at| now.saturating_since(at) < TOMBSTONE_TTL);
    }

    /// The exchange deadline passed. Returns whether an exchange was
    /// still pending — then the server redistributes over whatever
    /// reports arrived.
    fn exchange_expired(&mut self) -> bool {
        self.exchange.take().is_some()
    }

    /// Connection establishment, decided by the view's coordinator alone:
    /// the least-loaded member takes `candidate`'s client (see
    /// [`admit_client`]). Returns the record to publish to the group:
    /// a served client's own record again (a duplicate OPEN — the
    /// republication repairs a lost assignment), the candidate stamped
    /// with its owner and this view's epoch, or — on the first refusal
    /// only — the candidate parked as [`UNSERVED`] on every replica.
    /// `None` when `me` does not coordinate or a parked client still has
    /// no room.
    ///
    /// The candidate is the client's OPEN as a record ([`candidate`]), or
    /// the parked record itself when the coordinator retries on behalf of
    /// a client that stopped re-OPENing; its `owner` is ignored.
    fn admit(
        &mut self,
        cfg: &VodConfig,
        me: NodeId,
        candidate: ClientRecord,
        now: SimTime,
    ) -> Option<ClientRecord> {
        if self.view.coordinator_candidate() != Some(me) {
            return None;
        }
        let known = self.get(candidate.client).copied();
        let parked = known.is_some_and(|r| r.owner == UNSERVED);
        if !parked && known.is_some() {
            return known;
        }
        let members = &self.view.members;
        let (client, node) = (candidate.client, candidate.client_node);
        let owner = admit_client(cfg, members, &self.records, client, node).unwrap_or(UNSERVED);
        if parked && owner == UNSERVED {
            return None;
        }
        let record = ClientRecord {
            owner,
            assigned_epoch: self.view.id.epoch,
            updated_at: now,
            ..candidate
        };
        self.records.insert(client, record);
        Some(record)
    }

    /// Deterministic redistribution after a completed state exchange
    /// (see [`redistribute_clients`]): every record gets an owner from
    /// the view, or [`UNSERVED`], stamped with the view's epoch so that
    /// the assignment dominates periodic reports from before the change.
    /// Returns that epoch, or `None` when [`VodConfig::takeover`] is a
    /// baseline that reassigns nothing (orphans stay orphaned).
    fn redistribute(&mut self, cfg: &VodConfig) -> Option<u64> {
        match cfg.takeover {
            TakeoverPolicy::Full => {}
            TakeoverPolicy::SingleBackup if self.failures_seen <= 1 => {}
            _ => return None,
        }
        let (assignment, unassigned) = redistribute_clients(cfg, &self.view.members, &self.records);
        let epoch = self.view.id.epoch;
        let parked = unassigned.into_iter().map(|client| (client, UNSERVED));
        for (client, owner) in assignment.into_iter().chain(parked) {
            if let Some(record) = self.records.get_mut(&client) {
                record.owner = owner;
                record.assigned_epoch = epoch;
            }
        }
        Some(epoch)
    }

    /// Compares the records with the `sessions` the server `me` runs
    /// (`here` tells whether a session streams this table's movie):
    /// sessions whose record names another owner stop, records `me` owns
    /// without any session start.
    fn session_diff<S>(
        &self,
        me: NodeId,
        sessions: &VecMap<ClientId, S>,
        here: impl Fn(&S) -> bool,
    ) -> SessionDiff {
        let moved = |client| self.get(client).is_some_and(|r| r.owner != me);
        SessionDiff {
            stop: sessions
                .iter()
                .filter(|(&client, session)| here(session) && moved(client))
                .map(|(&client, _)| client)
                .collect(),
            start: self
                .records()
                .filter(|r| r.owner == me && !sessions.contains_key(&r.client))
                .copied()
                .collect(),
        }
    }

    /// The records `me` multicasts at `now`, or `None` while it is outside
    /// the view: its own, refreshed from the running session (`live`) and
    /// restamped, and the others' on every fourth periodic `round` and on
    /// every immediate publication (`round` = `None`) — which must go out
    /// even when `me` owns nothing: it is how a new owner learns about an
    /// assignment decided here.
    fn report(
        &mut self,
        me: NodeId,
        now: SimTime,
        round: Option<u64>,
        live: impl Fn(ClientId) -> Option<ClientRecord>,
    ) -> Option<Vec<ClientRecord>> {
        if !self.view.contains(me) {
            return None;
        }
        let foreign = round.is_none_or(|r| r.is_multiple_of(FOREIGN_EVERY));
        let mut report = Vec::new();
        for record in self.records.values_mut() {
            if record.owner == me {
                if let Some(session) = live(record.client) {
                    record.next_frame = session.next_frame;
                    record.rate_fps = session.rate_fps;
                    record.max_fps = session.max_fps;
                    record.paused = session.paused;
                }
                record.updated_at = now;
            } else if !foreign {
                continue;
            }
            report.push(*record);
        }
        Some(report)
    }

    /// How the server `me` takes over `record`'s client at `now`, for a
    /// movie of `gop` structure at `fps`.
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
    fn resume(
        &self,
        cfg: &VodConfig,
        me: NodeId,
        gop: &GopPattern,
        fps: u32,
        mut record: ClientRecord,
        now: SimTime,
    ) -> Resume {
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
            let staleness = now.saturating_since(record.updated_at).as_secs_f64();
            let estimated = (staleness * f64::from(record.rate_fps)).ceil() as u64;
            record.next_frame = FrameNo(record.next_frame.0.saturating_add(estimated));
        }
        let max_fps = rescue_fps.map_or(record.max_fps, |fps| record.max_fps.min(fps));
        let (filter, cap) = quality(gop, fps, max_fps);
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

    /// A table whose view `members` at `epoch` is installed and, when it
    /// has several members, whose exchange every member completed.
    fn settled(cfg: &VodConfig, epoch: u64, members: &[u32]) -> TakeoverTable {
        let mut table = TakeoverTable::default();
        table.install_view(ME, view(epoch, members));
        for &m in members {
            table.merge_report(NodeId(m), epoch, []);
        }
        assert!(table.exchange.is_none());
        table.redistribute(cfg);
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
        let mut table = TakeoverTable::default();
        assert_eq!(table.install_view(ME, view(1, &[1])), Installed::Alone);
        table.merge_report(ME, 1, [record(7, 1, 10, ME, 0)]);
        let report = vec![record(7, 1, 10, ME, 0)];
        assert_eq!(
            table.install_view(ME, view(2, &[1, 2, 3])),
            Installed::Exchange(report)
        );
        assert!(table.exchange.is_some());
        assert_eq!(
            table.install_view(ME, view(3, &[2, 3])),
            Installed::Excluded
        );
        assert!(
            table.exchange.is_none(),
            "an excluded server coordinates nothing"
        );
        // [1] -> [1,2,3] lost nobody, [1,2,3] -> [2,3] lost one member.
        assert_eq!(table.failures_seen, 1);
    }

    #[test]
    fn an_exchange_ends_with_the_last_members_report_or_the_deadline() {
        let mut table = TakeoverTable::default();
        table.install_view(ME, view(4, &[1, 2, 3]));
        assert_eq!(table.merge_report(ME, 4, []), Merged::Pending);
        assert_eq!(
            table.merge_report(PEER, 3, []),
            Merged::Pending,
            "stale epoch"
        );
        assert_eq!(
            table.merge_report(NodeId(9), 4, []),
            Merged::Pending,
            "non-member"
        );
        assert_eq!(table.merge_report(PEER, 4, []), Merged::Pending);
        assert_eq!(table.merge_report(NodeId(3), 4, []), Merged::Redistribute);
        assert_eq!(table.merge_report(NodeId(3), 4, []), Merged::Reconcile);
        assert!(!table.exchange_expired(), "nothing left for the deadline");

        table.install_view(ME, view(5, &[1, 2]));
        assert_eq!(table.merge_report(ME, 5, []), Merged::Pending);
        assert!(table.exchange_expired());
        assert_eq!(table.merge_report(PEER, 5, []), Merged::Reconcile);
    }

    #[test]
    fn redistribution_stamps_the_views_epoch_unless_the_policy_is_a_baseline() {
        let cfg = VodConfig::paper_default();
        let mut table = settled(&cfg, 1, &[1, 2]);
        table.merge_report(
            PEER,
            1,
            [record(7, 1, 10, PEER, 50), record(8, 1, 10, PEER, 60)],
        );
        table.install_view(ME, view(2, &[1]));
        assert_eq!(table.redistribute(&cfg), Some(2));
        for r in table.records() {
            assert_eq!((r.owner, r.assigned_epoch), (ME, 2));
        }
        // The stamp is what lets the assignment survive a report the old
        // owner sent before it learned of the change.
        table.merge_report(PEER, 1, [record(7, 1, 9_999, PEER, 90)]);
        assert_eq!(table.get(ClientId(7)).map(|r| r.owner), Some(ME));

        let none = cfg.clone().with_takeover(TakeoverPolicy::None);
        assert_eq!(table.redistribute(&none), None);
        let single = cfg.with_takeover(TakeoverPolicy::SingleBackup);
        assert_eq!(
            table.redistribute(&single),
            Some(2),
            "first failure is covered"
        );
        table.install_view(ME, view(3, &[1, 2]));
        table.install_view(ME, view(4, &[1]));
        assert_eq!(table.redistribute(&single), None, "the second is not");
    }

    #[test]
    fn one_admission_path_serves_first_duplicate_retried_and_readmitted_opens() {
        let cfg = VodConfig::paper_default().with_session_cap(1);
        let now = SimTime::from_secs(3);
        let mut table = settled(&cfg, 6, &[1, 2]);
        let mut follower = table.clone();
        follower.install_view(PEER, view(6, &[1, 2]));
        assert_eq!(
            follower.admit(&cfg, PEER, candidate(&open(7, 0)), now),
            None
        );

        // First OPENs: least-loaded member, ties to the highest id.
        let first = table.admit(&cfg, ME, candidate(&open(7, 40)), now);
        let expected = ClientRecord {
            rate_fps: DEFAULT_RATE_FPS,
            updated_at: now,
            ..record(7, 6, 0, PEER, 40)
        };
        assert_eq!(first, Some(expected));
        let second = table.admit(&cfg, ME, candidate(&open(8, 0)), now);
        assert_eq!(second.map(|r| r.owner), Some(ME));

        // A duplicate OPEN republishes the record untouched, whatever the
        // retry says and whenever it comes.
        let later = SimTime::from_secs(9);
        let again = table.admit(&cfg, ME, candidate(&open(7, 999)), later);
        assert_eq!(again, Some(expected));

        // Both members full: the first refusal parks the client on every
        // replica, the retries of a parked client publish nothing.
        let refused = table.admit(&cfg, ME, candidate(&open(9, 5)), now);
        assert_eq!(refused.map(|r| r.owner), Some(UNSERVED));
        assert_eq!(table.admit(&cfg, ME, candidate(&open(9, 5)), later), None);
        let parked = *table.get(ClientId(9)).expect("parked");
        assert_eq!(table.admit(&cfg, ME, parked, later), None);

        // Room frees up. The client's own retry starts over from its OPEN;
        // the coordinator's retry on its behalf keeps the parked record.
        table.remove(ClientId(7), later);
        let mut by_open = table.clone();
        let retried = by_open.admit(&cfg, ME, candidate(&open(9, 77)), later);
        let readmitted = table.admit(&cfg, ME, parked, later);
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
    fn a_report_restamps_own_records_and_carries_the_others_every_fourth_round() {
        let cfg = VodConfig::paper_default();
        let mut table = settled(&cfg, 1, &[1, 2]);
        table.merge_report(
            PEER,
            1,
            [record(7, 1, 10, ME, 50), record(8, 1, 10, PEER, 60)],
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
        let live = |c: ClientId| (c == ClientId(7)).then_some(session);
        let own = ClientRecord {
            assigned_epoch: 1,
            client_node: NodeId(107),
            updated_at: now,
            ..session
        };
        let foreign = record(8, 1, 10, PEER, 60);
        assert_eq!(table.report(ME, now, Some(1), live), Some(vec![own]));
        assert_eq!(
            table.report(ME, now, Some(4), live),
            Some(vec![own, foreign])
        );
        assert_eq!(table.report(ME, now, None, live), Some(vec![own, foreign]));
        assert_eq!(
            table.report(PEER, now, Some(3), live).map(|r| r.len()),
            Some(1)
        );
        assert_eq!(
            table.report(NodeId(3), now, None, live),
            None,
            "not a member"
        );
    }

    #[test]
    fn a_tombstone_drops_reports_no_fresher_than_the_removal_until_it_expires() {
        let mut table = TakeoverTable::default();
        table.install_view(ME, view(1, &[1]));
        table.merge_report(ME, 1, [record(7, 1, 1_000, ME, 50)]);
        let removed_at = SimTime::from_millis(2_000);
        table.remove(ClientId(7), removed_at);
        table.merge_report(PEER, 1, [record(7, 1, 1_500, PEER, 60)]);
        table.merge_report(PEER, 1, [record(7, 1, 2_000, PEER, 60)]);
        assert_eq!(
            table.get(ClientId(7)),
            None,
            "as old as the removal is stale"
        );
        table.merge_report(PEER, 1, [record(7, 1, 2_001, PEER, 61)]);
        assert_eq!(table.get(ClientId(7)).map(|r| r.owner), Some(PEER));
        assert!(table.tombstones.is_empty(), "a fresher record clears it");

        table.remove(ClientId(7), removed_at);
        table.expire_tombstones(removed_at + TOMBSTONE_TTL - Duration::from_micros(1));
        assert_eq!(table.tombstones.len(), 1);
        table.expire_tombstones(removed_at + TOMBSTONE_TTL);
        assert!(table.tombstones.is_empty());
    }

    #[test]
    fn the_session_diff_stops_what_moved_and_starts_what_is_owned_without_a_session() {
        let mut table = TakeoverTable::default();
        let records = [
            record(1, 1, 10, ME, 0),   // owned, running: nothing to do
            record(2, 1, 10, ME, 0),   // owned, no session: start
            record(3, 1, 10, PEER, 0), // moved away: stop
            record(4, 1, 10, PEER, 0), // moved away, but the session streams another movie
            record(5, 1, 10, ME, 0),   // owned, but a session of another movie holds the client
            record(7, 1, 10, PEER, 0), // another replica's, and no business of ours
        ];
        table.merge_report(PEER, 1, records);
        // client -> whether its session streams this table's movie
        let sessions: VecMap<ClientId, bool> =
            [(1, true), (3, true), (6, true), (4, false), (5, false)]
                .into_iter()
                .map(|(client, here)| (ClientId(client), here))
                .collect();
        let diff = table.session_diff(ME, &sessions, |&here| here);
        assert_eq!(diff.stop, vec![ClientId(3)]);
        assert_eq!(diff.start, vec![record(2, 1, 10, ME, 0)]);
    }

    #[test]
    fn only_a_rescue_across_sites_with_no_home_server_in_view_is_degraded() {
        let mut map = SiteMap::new();
        let east = map.add_site("east", &[NodeId(1), NodeId(2)]);
        map.add_site("west", &[NodeId(3)]);
        map.home_clients(east, &[NodeId(107)]);
        let cfg = VodConfig::paper_default().with_multidc(MultiDcConfig::new(map));
        let gop = GopPattern::mpeg1();
        let now = SimTime::from_secs(1);
        let resume = |me: u32, members: &[u32]| {
            let mut table = TakeoverTable::default();
            table.install_view(NodeId(me), view(1, members));
            table.resume(&cfg, NodeId(me), &gop, 30, record(7, 1, 10, PEER, 50), now)
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

    /// Totality and safe outputs of the private decisions, over one walk:
    /// no sequence of views (with and without this server, the empty
    /// one), reports from members and strangers at stale and future
    /// epochs, removals of unknown clients, duplicate and parked OPENs,
    /// deadlines with no exchange pending, redistributions, session diffs
    /// and reports panics the table, with epochs, times and frame numbers
    /// within a step of `u64::MAX`; and what comes out can be acted on.
    mod walk {
        use proptest::prelude::*;

        use super::super::*;
        use crate::config::{MultiDcConfig, SiteMap, SHED_HEADROOM};
        use crate::protocol::session_group;
        use gcs::ViewId;
        use media::MovieId;

        /// This server. Nodes 1–5 may be members of a view; 6 never is.
        const ME: NodeId = NodeId(2);

        /// Mostly small, sometimes within a step of `u64::MAX`.
        fn edge(x: u64) -> u64 {
            match x % 4 {
                0 => u64::MAX - (x >> 2) % 3,
                _ => (x >> 2) % 8,
            }
        }

        fn view_of(epoch: u64, member_bits: u64) -> View {
            let members: Vec<NodeId> = (1..=5)
                .filter(|n| member_bits >> n & 1 == 1)
                .map(NodeId)
                .collect();
            let coordinator = members.first().copied().unwrap_or_default();
            View::new(ViewId { epoch, coordinator }, members)
        }

        fn node(x: u64) -> NodeId {
            match x % 7 {
                0 => UNSERVED,
                n => NodeId(n as u32),
            }
        }

        /// A record of one of six clients, every other field drawn from `x`.
        fn record(x: u64) -> ClientRecord {
            let client = ClientId((x % 6) as u32);
            ClientRecord {
                client,
                client_node: NodeId(100 + client.0),
                session_group: session_group(client),
                movie: MovieId(1),
                owner: node(x >> 3),
                assigned_epoch: edge(x >> 6),
                updated_at: SimTime::from_micros(edge(x >> 12)),
                next_frame: FrameNo(edge(x >> 18)),
                rate_fps: [0, 1, 30, u32::MAX][(x >> 24) as usize % 4],
                max_fps: [0, 15, 30, u32::MAX][(x >> 26) as usize % 4],
                paused: x >> 28 & 1 == 1,
            }
        }

        fn open(x: u64) -> OpenRequest {
            let r = record(x);
            OpenRequest {
                client: r.client,
                client_node: r.client_node,
                session_group: r.session_group,
                movie: r.movie,
                start_at: r.next_frame,
                max_fps: r.max_fps,
            }
        }

        /// The configurations whose branches the table has: admission cap, both
        /// takeover baselines, skip-ahead resume, geo-affine placement with
        /// degraded rescue.
        fn config(pick: u8) -> VodConfig {
            let cfg = VodConfig::paper_default();
            match pick % 6 {
                0 => cfg,
                1 => cfg.with_session_cap(1),
                2 => cfg.with_takeover(TakeoverPolicy::None),
                3 => cfg.with_takeover(TakeoverPolicy::SingleBackup),
                4 => cfg.with_resume(ResumePolicy::SkipAhead),
                _ => {
                    let mut map = SiteMap::new();
                    let east = map.add_site("east", &[NodeId(1), NodeId(2)]);
                    let west = map.add_site("west", &[NodeId(3), NodeId(4)]);
                    map.home_clients(east, &[NodeId(100), NodeId(101)]);
                    map.home_clients(west, &[NodeId(102), NodeId(103)]);
                    cfg.with_session_cap(2)
                        .with_multidc(MultiDcConfig::new(map))
                }
            }
        }

        /// Applies one input, drawn from `(kind, a, b)`, to `table` the way the
        /// server would, and checks what comes back. `pending` mirrors, from the
        /// outside, whether a state exchange is under way.
        fn step(
            cfg: &VodConfig,
            table: &mut TakeoverTable,
            pending: &mut bool,
            (kind, a, b): (u8, u64, u64),
        ) -> Result<(), TestCaseError> {
            let now = SimTime::from_micros(edge(b));
            match kind % 10 {
                0 => {
                    let (known, view) = (table.records().copied().collect(), view_of(edge(b), a));
                    let installed = table.install_view(ME, view.clone());
                    let expected = match view.members.as_slice() {
                        members if !members.contains(&ME) => Installed::Excluded,
                        [_] => Installed::Alone,
                        _ => Installed::Exchange(known),
                    };
                    prop_assert_eq!(&installed, &expected);
                    *pending = matches!(installed, Installed::Exchange(_));
                }
                1 | 2 => {
                    let records = [a, a >> 29, b].map(record);
                    let merged = table.merge_report(node(a >> 5), edge(b >> 7), records);
                    // Owners may be about to change: no session starts or stops
                    // on a report until the exchange is over.
                    prop_assert_eq!(merged == Merged::Reconcile, !*pending);
                    *pending = merged == Merged::Pending;
                }
                3 => {
                    let client = ClientId((a % 7) as u32);
                    table.remove(client, now);
                    prop_assert_eq!(table.get(client), None);
                }
                4 | 5 => {
                    // An OPEN, or the coordinator's retry for a parked client.
                    let parked = table.records().find(|r| r.owner == UNSERVED).copied();
                    let asked = match parked {
                        Some(parked) if kind % 10 == 5 => parked,
                        _ => candidate(&open(a)),
                    };
                    let before = table.get(asked.client).copied();
                    if let Some(published) = table.admit(cfg, ME, asked, now) {
                        let view = table.view();
                        prop_assert_eq!(view.coordinator_candidate(), Some(ME));
                        prop_assert_eq!(table.get(asked.client), Some(&published));
                        match before {
                            // A served client's duplicate OPEN: republished as is.
                            Some(known) if known.owner != UNSERVED => {
                                prop_assert_eq!(published, known)
                            }
                            // A parked client is heard of again only once placed.
                            Some(_) => prop_assert!(view.contains(published.owner)),
                            None => {
                                prop_assert!(
                                    published.owner == UNSERVED || view.contains(published.owner)
                                )
                            }
                        }
                        if before.is_none_or(|known| known.owner == UNSERVED) {
                            let stamp = (published.assigned_epoch, published.updated_at);
                            prop_assert_eq!(stamp, (view.id.epoch, now));
                        }
                    }
                }
                6 => {
                    prop_assert_eq!(table.exchange_expired(), *pending);
                    *pending = false;
                }
                7 => {
                    let reassigned = table.redistribute(cfg);
                    if cfg.takeover == TakeoverPolicy::Full {
                        prop_assert_eq!(reassigned, Some(table.view().id.epoch));
                    }
                    if let Some(epoch) = reassigned {
                        let view = table.view();
                        for r in table.records() {
                            prop_assert!(r.owner == UNSERVED || view.contains(r.owner), "{r:?}");
                            prop_assert_eq!(r.assigned_epoch, epoch);
                        }
                        if let Some(cap) = cfg.max_sessions_per_server {
                            let shed = if cfg.multidc.is_some() {
                                SHED_HEADROOM
                            } else {
                                0
                            };
                            for &m in &view.members {
                                prop_assert!(table.owned_by(m) <= (cap + shed) as usize);
                            }
                        }
                    }
                }
                8 => {
                    // client -> whether its session streams this table's movie
                    let sessions: VecMap<ClientId, bool> = (0..6)
                        .filter(|c| a >> c & 1 == 1)
                        .map(|c| (ClientId(c), b >> c & 1 == 1))
                        .collect();
                    let diff = table.session_diff(ME, &sessions, |&here| here);
                    for r in &diff.start {
                        prop_assert_eq!(r.owner, ME);
                        prop_assert_eq!(table.get(r.client), Some(r));
                        prop_assert!(!sessions.contains_key(&r.client));
                        prop_assert!(!diff.stop.contains(&r.client));
                    }
                    for client in &diff.stop {
                        prop_assert_eq!(sessions.get(client), Some(&true));
                        prop_assert!(table.get(*client).is_some_and(|r| r.owner != ME));
                    }
                }
                _ => {
                    table.expire_tombstones(now);
                    let round = (a & 1 == 1).then_some(edge(a >> 1));
                    let live =
                        |c: ClientId| (b >> c.0 & 1 == 1).then(|| record(b ^ u64::from(c.0)));
                    let report = table.report(ME, now, round, live);
                    prop_assert_eq!(report.is_some(), table.view().contains(ME));
                    let foreign = round.is_none_or(|r| r % 4 == 0);
                    for r in report.iter().flatten() {
                        prop_assert_eq!(table.get(r.client), Some(r));
                        let allowed = if r.owner == ME {
                            r.updated_at == now
                        } else {
                            foreign
                        };
                        prop_assert!(allowed, "{r:?} in round {round:?}");
                    }
                    let gop = GopPattern::mpeg1();
                    let fps = [1, 24, 30, 60][(a >> 8) as usize % 4];
                    for r in table.records() {
                        let resumed = table.resume(cfg, ME, &gop, fps, *r, now);
                        prop_assert_eq!(resumed.record.owner, ME);
                        prop_assert!(resumed.record.next_frame >= r.next_frame);
                        prop_assert!(resumed.record.rate_fps <= r.rate_fps);
                    }
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Totality and safe outputs, over one walk.
            #[test]
            fn any_sequence_of_inputs_is_survived_and_answered_safely(
                pick in any::<u8>(),
                inputs in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..80),
            ) {
                let cfg = config(pick);
                let (mut table, mut pending) = (TakeoverTable::default(), false);
                for input in inputs {
                    step(&cfg, &mut table, &mut pending, input)?;
                }
            }
        }
    }
}
