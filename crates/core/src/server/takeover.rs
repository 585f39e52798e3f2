//! The takeover table: who serves whom in one movie group.
//!
//! Every replica of a movie keeps one [`TakeoverTable`] — the shared
//! client records, the tombstones of ended sessions, the movie-group view
//! and the state exchange a view change started — and every decision the
//! paper's §5.2 describes is a method on it: what to report when a view
//! installs, how concurrent reports merge, when the exchange is complete,
//! who owns each client afterwards, which sessions this server must start
//! and stop, and from which offset a taken-over stream resumes.
//!
//! The table has no effects and reads no clock: the caller passes the
//! time and its own node id, and acts on plain return values (arm a
//! timer, multicast a report, start a session). [`VodServer`] is that
//! caller; the property tests of `tests/prop_takeover.rs` are another.
//!
//! [`VodServer`]: super::VodServer

use std::collections::BTreeSet;
use std::time::Duration;

use gcs::View;
use media::{FrameNo, GopPattern, QualityFilter};
use simnet::{NodeId, SimTime, VecMap};

use super::assign::{admit_client, redistribute_clients};
use super::UNSERVED;
use crate::config::{
    FailoverMode, ResumePolicy, TakeoverPolicy, VodConfig, DEFAULT_RATE_FPS, DEGRADED_FPS,
    MIN_RATE_FPS,
};
use crate::protocol::{ClientId, ClientRecord, OpenRequest};

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

/// What installing a movie-group view asks of the server
/// ([`TakeoverTable::install_view`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Installed {
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

/// What a merged report asks of the server
/// ([`TakeoverTable::merge_report`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Merged {
    /// The report completed the pending exchange: redistribute.
    Redistribute,
    /// No exchange is pending: reconcile the sessions with the records.
    Reconcile,
    /// An exchange is still waiting for members: owners may be about to
    /// change, so no session starts or stops yet.
    Pending,
}

/// The sessions a server must stop and start to match the records
/// ([`TakeoverTable::session_diff`]); stops come first.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SessionDiff {
    /// Clients whose record names another owner.
    pub stop: Vec<ClientId>,
    /// Records this server owns without a session.
    pub start: Vec<ClientRecord>,
}

/// How a session starts on its new owner ([`TakeoverTable::resume`]).
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
/// are outside this order and do *not* commute with stale reports —
/// `tests/prop_takeover.rs` pins the counterexample.)
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

    /// Installs `view`, counting the members it lost towards
    /// [`TakeoverPolicy::SingleBackup`]'s failure budget.
    pub fn install_view(&mut self, me: NodeId, view: View) -> Installed {
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
    pub fn merge_report(
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
    /// remembers the removal against reports still in flight.
    pub fn remove(&mut self, client: ClientId, now: SimTime) {
        if self.records.remove(&client).is_some() {
            self.tombstones.insert(client, now);
        }
    }

    /// Drops the tombstones no in-flight report can still contradict.
    pub fn expire_tombstones(&mut self, now: SimTime) {
        self.tombstones
            .retain(|_, &mut at| now.saturating_since(at) < TOMBSTONE_TTL);
    }

    /// The exchange deadline passed. Returns whether an exchange was
    /// still pending — then the server redistributes over whatever
    /// reports arrived.
    pub fn exchange_expired(&mut self) -> bool {
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
    pub fn admit(
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
    pub fn redistribute(&mut self, cfg: &VodConfig) -> Option<u64> {
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
    pub fn session_diff<S>(
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
    pub fn report(
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
    pub fn resume(
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

/// A client's OPEN as the record [`TakeoverTable::admit`] places.
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
}
