//! The takeover table (`server/takeover.rs`) on its own: no simulation, no
//! GCS, no clock — views, reports, removals, OPENs, deadlines and sync
//! rounds go in through its one entry point, `TakeoverTable::step`, and
//! the actions that come out are checked.
//!
//! * **Totality and safe actions** — no sequence of forged inputs panics
//!   it: views with and without this server (the empty one too), reports
//!   from members and strangers at stale and future epochs, removals of
//!   unknown clients, duplicate and parked OPENs, deadlines with no
//!   exchange pending, with epochs, times and frame numbers within a step
//!   of `u64::MAX`, on a server that also streams a second movie. What
//!   comes out can be acted on: a session starts only for a record this
//!   server owns and runs nothing for yet, stops only where it runs this
//!   movie, nothing is published from outside the view, and a
//!   redistribution names only members of the view (or nobody), stamped
//!   with its epoch. Each input gets what the table's state asks for: no
//!   session moves while an exchange is pending, a view starts an
//!   exchange or redistributes as its members say, an OPEN is decided by
//!   the coordinator alone, a sync restamps this server's records, a
//!   resume never goes back, and a removal forgets the record.
//! * **Convergence** — replicas that step one view and hear every
//!   publication, their own included, in any order, end with equal
//!   records, and every client runs on its owner alone or is unserved
//!   everywhere. Reports merge to the same records in any order; a
//!   redistribution outlives reports from before the change; a report no
//!   fresher than a removal resurrects nothing.
//! * **Resume offsets** — the conservative resume never passes the
//!   record, skip-ahead adds ⌈staleness × rate⌉ and nothing when paused.
//! * **Removals** — a removal tombstones the client whether or not the
//!   record arrived, so a `Remove` and a stale report commute.
//! * **Known deviations** — a tombstone carries the receiver's clock
//!   (ROADMAP item 1c), and a partial merge gives one client two owners
//!   (item 1b): pinned so a fix starts from a failing test.

use ftvod_core::config::{
    MultiDcConfig, ResumePolicy, SiteMap, TakeoverPolicy, VodConfig, SHED_HEADROOM,
};
use ftvod_core::protocol::{session_group, ClientId, ClientRecord, OpenRequest};
use ftvod_core::server::takeover::{candidate, Action, Cx, Input};
use ftvod_core::server::{TakeoverTable, UNSERVED};
use ftvod_core::VodEvent;
use gcs::{View, ViewId};
use media::{FrameNo, GopPattern, MovieId};
use proptest::prelude::*;
use simnet::{NodeId, SimTime, VecMap};

/// This server. Nodes 1–5 may be members of a view; 6 never is.
const ME: NodeId = NodeId(2);

/// The tables' movie.
const MOVIE: MovieId = MovieId(1);

/// Another movie this server streams, which no table step may touch.
const OTHER: MovieId = MovieId(2);

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

/// [`config`]'s variants that reassign every orphan
/// ([`TakeoverPolicy::Full`]): default, cap 1, skip-ahead, multidc.
fn full(pick: u8) -> VodConfig {
    config([0, 1, 4, 5][pick as usize % 4])
}

/// One replica as the server runs it: its table, the sessions its
/// `Start` and `Stop` actions leave running, and the frame rate of its
/// MPEG-1 movie.
#[derive(Clone, Debug)]
struct Replica {
    me: NodeId,
    table: TakeoverTable,
    sessions: VecMap<ClientId, ClientRecord>,
    fps: u32,
}

impl Replica {
    /// A replica of a 60 fps movie.
    fn new(me: NodeId) -> Self {
        Replica {
            me,
            table: TakeoverTable::default(),
            sessions: VecMap::new(),
            fps: 60,
        }
    }

    /// Steps the table at `now` and applies the starts and stops; returns
    /// every action.
    fn step(&mut self, cfg: &VodConfig, now: SimTime, input: Input) -> Vec<Action> {
        let gop = GopPattern::mpeg1();
        let cx = Cx {
            me: self.me,
            now,
            cfg,
            movie: MOVIE,
            gop: &gop,
            fps: self.fps,
            sessions: &self.sessions,
        };
        let mut out = Vec::new();
        self.table.step(&cx, input, &mut out);
        for action in &out {
            match action {
                Action::Start(how) => {
                    self.sessions.insert(how.record.client, how.record);
                }
                Action::Stop(client) => {
                    self.sessions.remove(client);
                }
                _ => {}
            }
        }
        out
    }

    /// Steps `input`, then — as the GCS hands the sender its multicast —
    /// every publication back to this replica as its own report.
    fn step_and_hear(&mut self, cfg: &VodConfig, now: SimTime, input: Input) -> Vec<Action> {
        let mut out = self.step(cfg, now, input);
        let mut next = 0;
        while let Some(action) = out.get(next) {
            if let Some(records) = published(action) {
                let (from, epoch) = (self.me, self.table.view().id.epoch);
                let report = Input::Report {
                    from,
                    epoch,
                    records,
                };
                out.extend(self.step(cfg, now, report));
            }
            next += 1;
        }
        out
    }
}

/// The records an action publishes, if it is a publication.
fn published(action: &Action) -> Option<Vec<ClientRecord>> {
    match action {
        Action::Publish(records) | Action::Sync(records) => Some(records.clone()),
        _ => None,
    }
}

/// The clients the actions start.
fn started(actions: &[Action]) -> Vec<ClientId> {
    let start = |a: &Action| match a {
        Action::Start(how) => Some(how.record.client),
        _ => None,
    };
    actions.iter().filter_map(start).collect()
}

/// A forged input, drawn from `(kind, a, b)`.
fn forged(replica: &Replica, (kind, a, b): (u8, u64, u64)) -> Input {
    match kind % 8 {
        0 => Input::View(view_of(edge(b), a)),
        1 | 2 => Input::Report {
            from: node(a >> 5),
            epoch: edge(b >> 7),
            records: [a, a >> 29, b].map(record).to_vec(),
        },
        3 => Input::Remove(ClientId((a % 7) as u32)),
        // An OPEN, or the coordinator's retry for a parked client.
        4 => Input::Open(candidate(&open(a))),
        5 => {
            let parked = replica.table.records().find(|r| r.owner == UNSERVED);
            Input::Open(parked.copied().unwrap_or_else(|| candidate(&open(a))))
        }
        6 => Input::Deadline,
        _ => Input::Sync {
            round: (a & 1 == 1).then_some(edge(a >> 1)),
        },
    }
}

/// Sessions of [`OTHER`] for the clients among 0–5 whose bit is set.
fn other_movie(bits: u8) -> VecMap<ClientId, ClientRecord> {
    (0..6u64)
        .filter(|c| bits >> c & 1 == 1)
        .map(|c| {
            let session = ClientRecord {
                movie: OTHER,
                owner: ME,
                ..record(c)
            };
            (session.client, session)
        })
        .collect()
}

/// The sessions of `movie` among `sessions`.
fn of_movie(sessions: &VecMap<ClientId, ClientRecord>, movie: MovieId) -> Vec<ClientRecord> {
    let of = sessions.values().filter(|s| s.movie == movie);
    of.copied().collect()
}

/// Steps one forged input and checks that what comes out can be acted on
/// and is what the table's state asks for. `pending` mirrors, from the
/// outside, whether a state exchange is under way.
fn walk_step(
    cfg: &VodConfig,
    replica: &mut Replica,
    pending: &mut bool,
    (kind, a, b): (u8, u64, u64),
) -> Result<(), TestCaseError> {
    let now = SimTime::from_micros(edge(b));
    let (running, before) = (replica.sessions.clone(), replica.table.clone());
    let input = forged(replica, (kind, a, b));
    let actions = replica.step(cfg, now, input.clone());
    let table = &replica.table;
    let (view, epoch) = (table.view(), table.view().id.epoch);
    let redistributing = actions.iter().position(|a| *a == Action::Redistributing);
    for action in &actions {
        match action {
            Action::Start(how) => {
                let client = how.record.client;
                prop_assert_eq!(how.record.owner, ME);
                prop_assert_eq!(table.get(client).map(|r| r.owner), Some(ME));
                prop_assert!(!running.contains_key(&client), "{client} started twice");
                // The record the start was made from: the table's before
                // the step or one the step's report carried, stamped alike.
                let reported = match &input {
                    Input::Report { records, .. } => records.as_slice(),
                    _ => &[],
                };
                let mut known = before.get(client).into_iter().chain(reported);
                let resumed = |r: &&ClientRecord| {
                    let kept = (r.client, r.updated_at, r.max_fps, r.paused);
                    kept == (
                        client,
                        how.record.updated_at,
                        how.record.max_fps,
                        how.record.paused,
                    ) && how.record.next_frame >= r.next_frame
                        && how.record.rate_fps <= r.rate_fps
                };
                prop_assert!(known.any(|r| resumed(&r)), "{how:?} behind {input:?}");
            }
            Action::Stop(client) => {
                let movie = running.get(client).map(|s| s.movie);
                prop_assert_eq!(movie, Some(MOVIE), "{} stopped unrun", client);
                prop_assert!(table.get(*client).is_some_and(|r| r.owner != ME));
            }
            Action::Publish(_) | Action::Sync(_) => prop_assert!(view.contains(ME), "{view}"),
            Action::ArmDeadline => prop_assert!(view.contains(ME) && view.len() > 1),
            Action::Trace(VodEvent::Redistributed {
                epoch: stamped,
                owned,
                ..
            }) => {
                prop_assert_eq!(*stamped, epoch);
                prop_assert_eq!(*owned, of_movie(&replica.sessions, MOVIE).len());
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
            Action::Parked | Action::Redistributing | Action::Trace(_) => {}
        }
    }
    // Owners may be about to change: no session starts or stops while an
    // exchange is pending, unless the step ends it.
    let moved = |a: &Action| matches!(a, Action::Start(_) | Action::Stop(_));
    if *pending && actions.iter().any(moved) {
        prop_assert!(redistributing.is_some(), "{actions:?}");
    }
    prop_assert_eq!(
        of_movie(&running, OTHER),
        of_movie(&replica.sessions, OTHER)
    );
    if let (TakeoverPolicy::Full, Some(at)) = (cfg.takeover, redistributing) {
        let traced = actions[at..].iter().any(
            |a| matches!(a, Action::Trace(VodEvent::Redistributed { epoch: e, .. }) if *e == epoch),
        );
        prop_assert!(traced, "{actions:?}");
    }
    match input {
        Input::View(_) if !view.contains(ME) => prop_assert!(actions.is_empty()),
        Input::View(_) if view.members == [ME] => {
            prop_assert_eq!(actions.first(), Some(&Action::Redistributing))
        }
        Input::View(_) => {
            let started = VodEvent::StateExchangeStarted {
                server: ME,
                movie: MOVIE,
                epoch,
                members: view.len(),
            };
            let known = before.records().copied().collect();
            let expected = [
                Action::Trace(started),
                Action::ArmDeadline,
                Action::Publish(known),
            ];
            prop_assert_eq!(actions.as_slice(), expected.as_slice());
        }
        Input::Report { .. } if *pending && redistributing.is_none() => {
            prop_assert!(actions.is_empty(), "{actions:?}")
        }
        Input::Report { .. } | Input::Deadline => {
            prop_assert_eq!(redistributing.is_some(), *pending)
        }
        Input::Remove(client) => prop_assert_eq!(table.get(client), None),
        Input::Open(asked) => {
            let known = before.get(asked.client).copied();
            let coordinator = view.coordinator_candidate() == Some(ME);
            let published = match actions.as_slice() {
                [] => {
                    // Only a parked client that still finds no room, or
                    // any OPEN away from the coordinator, publishes nothing.
                    let parked = known.is_some_and(|r| r.owner == UNSERVED);
                    prop_assert!(!coordinator || parked);
                    return Ok(());
                }
                [Action::Publish(records)] => records.as_slice(),
                [Action::Parked, Action::Publish(records)] => {
                    prop_assert_eq!(
                        records.iter().map(|r| r.owner).collect::<Vec<_>>(),
                        [UNSERVED]
                    );
                    records.as_slice()
                }
                other => return Err(TestCaseError::fail(format!("{other:?}"))),
            };
            prop_assert!(coordinator);
            let [published] = published else {
                return Err(TestCaseError::fail(format!("{published:?}")));
            };
            prop_assert_eq!(table.get(asked.client), Some(published));
            match known {
                // A served client's duplicate OPEN: republished as is.
                Some(known) if known.owner != UNSERVED => prop_assert_eq!(*published, known),
                // A new or parked client: stamped with the view and the step.
                known => {
                    let stamp = (published.assigned_epoch, published.updated_at);
                    prop_assert_eq!(stamp, (epoch, now));
                    let placed = view.contains(published.owner);
                    // A parked client is heard of again only once placed.
                    prop_assert!(placed || known.is_none() && published.owner == UNSERVED);
                }
            }
        }
        Input::Sync { round } => {
            let synced = match actions.as_slice() {
                [] => None,
                [Action::Sync(records)] => Some(records),
                other => return Err(TestCaseError::fail(format!("{other:?}"))),
            };
            prop_assert_eq!(synced.is_some(), view.contains(ME));
            let foreign = round.is_none_or(|r| r % 4 == 0);
            for r in synced.into_iter().flatten() {
                prop_assert_eq!(table.get(r.client), Some(r));
                if r.owner == ME {
                    prop_assert_eq!(r.updated_at, now);
                } else {
                    prop_assert!(foreign, "{r:?} in round {round:?}");
                }
            }
            if let Some(records) = synced {
                let own = records.iter().filter(|r| r.owner == ME).count();
                prop_assert_eq!(own, table.owned_by(ME));
            }
        }
    }
    *pending = match input {
        Input::View(_) => view.contains(ME) && view.len() > 1,
        _ => *pending && redistributing.is_none(),
    };
    Ok(())
}

/// Replicas of the view `member_bits` at `epoch` start from the same
/// records (`seeds`), each running what it owns. They step the view, and
/// every publication reaches every replica, the sender included, in the
/// order `picks` draws. Then all tables are equal, and every client runs
/// on its owner alone or is unserved everywhere.
fn converges(
    cfg: &VodConfig,
    member_bits: u64,
    epoch: u64,
    seeds: &[u64],
    picks: &[u64],
) -> Result<(), TestCaseError> {
    let view = view_of(epoch, (member_bits % 31 + 1) << 1);
    let now = SimTime::from_secs(100);
    // Older than the view and than `now`, so the owner's restamp wins.
    let records: Vec<ClientRecord> = (seeds.iter())
        .map(|&x| ClientRecord {
            assigned_epoch: (x >> 6) % epoch,
            updated_at: SimTime::from_micros((x >> 12) % 100_000_000),
            ..record(x)
        })
        .collect();
    let mut replicas: Vec<Replica> = view.members.iter().map(|&m| Replica::new(m)).collect();
    let mut inbox = Vec::new();
    for (i, replica) in replicas.iter_mut().enumerate() {
        let (from, records) = (replica.me, records.clone());
        let seed = Input::Report {
            from,
            epoch: 0,
            records,
        };
        replica.step(cfg, now, seed);
        inbox.push((i, Input::View(view.clone())));
    }
    for pick in picks.iter().cycle() {
        if inbox.is_empty() {
            break;
        }
        let (i, input) = inbox.remove(*pick as usize % inbox.len());
        let (from, actions) = (replicas[i].me, replicas[i].step(cfg, now, input));
        for records in actions.iter().filter_map(published) {
            let epoch = replicas[i].table.view().id.epoch;
            for to in 0..replicas.len() {
                let records = records.clone();
                inbox.push((
                    to,
                    Input::Report {
                        from,
                        epoch,
                        records,
                    },
                ));
            }
        }
    }
    let first = &replicas[0].table;
    for replica in &replicas {
        prop_assert_eq!(
            &replica.table,
            first,
            "{} and {}",
            replica.me,
            replicas[0].me
        );
    }
    for r in first.records() {
        let run_by: Vec<NodeId> = (replicas.iter())
            .filter(|replica| replica.sessions.contains_key(&r.client))
            .map(|replica| replica.me)
            .collect();
        let expected: Vec<NodeId> = (r.owner != UNSERVED)
            .then_some(r.owner)
            .into_iter()
            .collect();
        prop_assert_eq!(&run_by, &expected, "{:?}", r);
        prop_assert!(r.owner == UNSERVED || view.contains(r.owner), "{r:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totality and safe actions, over one walk of forged inputs on a
    /// server that also streams [`OTHER`] to the clients the low six bits
    /// of `others` name, for a movie of the frame rate its top two pick.
    #[test]
    fn any_sequence_of_forged_steps_is_survived_and_answered_safely(
        pick in any::<u8>(),
        others in any::<u8>(),
        inputs in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..80),
    ) {
        let (cfg, mut replica, mut pending) = (config(pick), Replica::new(ME), false);
        replica.sessions = other_movie(others);
        replica.fps = [1, 24, 30, 60][usize::from(others >> 6)];
        for input in inputs {
            walk_step(&cfg, &mut replica, &mut pending, input)?;
        }
    }

    /// Convergence through `step`, over the `Full` configurations.
    #[test]
    fn replicas_that_hear_every_publication_agree_and_serve_each_client_once(
        pick in any::<u8>(),
        member_bits in any::<u64>(),
        epoch in 1u64..1_000,
        seeds in prop::collection::vec(any::<u64>(), 0..8),
        picks in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        converges(&full(pick), member_bits, epoch, &seeds, &picks)?;
    }

    /// After a removal at `t`, only a report stamped *after* `t` brings
    /// the client back.
    #[test]
    fn a_report_no_fresher_than_the_removal_resurrects_nothing(
        x in any::<u64>(),
        t in 2u64..1_000_000,
        age in 0u64..3,
    ) {
        let cfg = VodConfig::paper_default();
        let stamped = |at| ClientRecord { updated_at: SimTime::from_micros(at), ..record(x) };
        let report = |at| Input::Report { from: ME, epoch: 0, records: vec![stamped(at)] };
        let mut replica = Replica::new(ME);
        replica.step(&cfg, SimTime::ZERO, report(1));
        replica.step(&cfg, SimTime::from_micros(t), Input::Remove(record(x).client));
        replica.step(&cfg, SimTime::ZERO, report(t - age));
        prop_assert_eq!(replica.table.get(record(x).client), None);
        replica.step(&cfg, SimTime::ZERO, report(t + 1));
        prop_assert_eq!(replica.table.get(record(x).client), Some(&stamped(t + 1)));
    }

    /// After a redistribution, a report from before the view change — any
    /// older epoch, however fresh its timestamp — moves no client.
    #[test]
    fn a_redistribution_outlives_reports_from_before_the_change(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        stale in prop::collection::vec(any::<u64>(), 1..8),
        member_bits in any::<u64>(),
        epoch in 1u64..u64::MAX,
    ) {
        let cfg = VodConfig::paper_default();
        let mut replica = Replica::new(ME);
        let records = seeds.into_iter().map(record).collect();
        replica.step(&cfg, SimTime::ZERO, Input::Report { from: ME, epoch: 0, records });
        let view = view_of(epoch, member_bits | 1 << ME.0);
        let mut actions = replica.step(&cfg, SimTime::ZERO, Input::View(view));
        actions.extend(replica.step(&cfg, SimTime::ZERO, Input::Deadline));
        let stamped = actions.iter().find_map(|a| match a {
            Action::Trace(VodEvent::Redistributed { epoch, .. }) => Some(*epoch),
            _ => None,
        });
        prop_assert_eq!(stamped, Some(epoch));
        let owners = |t: &TakeoverTable| t.records().map(|r| (r.client, r.owner)).collect::<Vec<_>>();
        let decided = owners(&replica.table);
        let stale = stale.into_iter().map(record).filter(|r| replica.table.get(r.client).is_some());
        let stale = stale.map(|r| ClientRecord { assigned_epoch: r.assigned_epoch % epoch, ..r });
        let records: Vec<ClientRecord> = stale.collect();
        replica.step(&cfg, SimTime::ZERO, Input::Report { from: NodeId(1), epoch: 0, records });
        prop_assert_eq!(owners(&replica.table), decided);
    }

    /// `record_key`'s promise: "every replica resolves identically
    /// regardless of arrival order". (Two records of one client that tie
    /// on the whole key — epoch, timestamp, owner, offset — and differ
    /// elsewhere would resolve by arrival; here, as from an honest owner,
    /// the rest of a record follows from its key.)
    #[test]
    fn reports_merge_to_the_same_table_in_any_order(
        reports in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..4), 1..10),
        rotate in 0usize..10,
    ) {
        let cfg = VodConfig::paper_default();
        let keyed = |x: u64| {
            let r = record(x & 0xFF_FFFF);
            ClientRecord { rate_fps: 30, max_fps: 30, paused: false, ..r }
        };
        let merge = |order: &[Vec<u64>]| {
            let mut replica = Replica::new(ME);
            for report in order {
                let records = report.iter().copied().map(keyed).collect();
                replica.step(&cfg, SimTime::ZERO, Input::Report { from: ME, epoch: 0, records });
            }
            replica.table
        };
        let forwards = merge(&reports);
        let mut other = reports.clone();
        other.reverse();
        prop_assert_eq!(&merge(&other), &forwards);
        other.rotate_left(rotate % reports.len());
        prop_assert_eq!(&merge(&other), &forwards);
    }

    /// D5's ground truth: the conservative resume restarts at the last
    /// synchronized offset, never past it; skip-ahead jumps the frames the
    /// old server is estimated to have sent since — ⌈staleness × rate⌉ —
    /// and none for a paused stream. The resume is the session a report
    /// that gives this server the client starts.
    #[test]
    fn resume_offsets_follow_the_policy(
        x in any::<u64>(),
        frame in 0u64..1_000_000,
        rate in 1u32..=60,
        synced_us in 0u64..100_000_000,
        stale_us in 0u64..20_000_000,
    ) {
        let r = ClientRecord {
            next_frame: FrameNo(frame),
            rate_fps: rate,
            max_fps: 60,
            owner: ME,
            updated_at: SimTime::from_micros(synced_us),
            ..record(x)
        };
        let now = SimTime::from_micros(synced_us + stale_us);
        let resumed = |cfg: &VodConfig| {
            let report = Input::Report { from: ME, epoch: 0, records: vec![r] };
            let actions = Replica::new(ME).step(cfg, now, report);
            match actions.as_slice() {
                [Action::Start(how)] => Ok(how.record),
                _ => Err(TestCaseError::fail(format!("{actions:?}"))),
            }
        };
        let conservative = VodConfig::paper_default();
        prop_assert_eq!(resumed(&conservative)?, r);

        let resumed = resumed(&conservative.with_resume(ResumePolicy::SkipAhead))?;
        let skipped = (resumed.next_frame.0 - frame) as f64;
        let estimate = stale_us as f64 * f64::from(rate) / 1e6;
        if r.paused {
            prop_assert_eq!(skipped, 0.0);
        } else {
            // The ceiling, give or take the float's last bit.
            prop_assert!(skipped >= estimate - 1e-6 && skipped < estimate + 1.0 + 1e-6);
        }
        prop_assert_eq!(resumed, ClientRecord { next_frame: resumed.next_frame, ..r });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The convergence property at 20 000 cases (a few seconds in a
    /// release build).
    #[test]
    #[ignore = "release-build sweep; run with --ignored"]
    fn replicas_that_hear_every_publication_agree_at_twenty_thousand_cases(
        pick in any::<u8>(),
        member_bits in any::<u64>(),
        epoch in 1u64..1_000,
        seeds in prop::collection::vec(any::<u64>(), 0..8),
        picks in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        converges(&full(pick), member_bits, epoch, &seeds, &picks)?;
    }
}

/// A removal is remembered also by a replica that never knew the record,
/// so `Remove` and a stale report commute: whichever arrives first, the
/// stale record is dropped, and it stays dropped when it comes again.
#[test]
fn a_removal_of_an_unknown_client_leaves_a_tombstone() {
    let cfg = VodConfig::paper_default();
    let stale = ClientRecord {
        updated_at: SimTime::from_secs(1),
        ..record(0)
    };
    let removed_at = SimTime::from_secs(2);
    let report = || Input::Report {
        from: ME,
        epoch: 0,
        records: vec![stale],
    };
    let remove = || Input::Remove(stale.client);

    let mut remove_first = Replica::new(ME);
    remove_first.step(&cfg, removed_at, remove());
    remove_first.step(&cfg, removed_at, report());

    let mut sync_first = Replica::new(ME);
    sync_first.step(&cfg, removed_at, report());
    sync_first.step(&cfg, removed_at, remove());

    assert_eq!(remove_first.table, sync_first.table);
    for mut replica in [remove_first, sync_first] {
        assert_eq!(replica.table.get(stale.client), None);
        replica.step(&cfg, removed_at, report());
        assert_eq!(replica.table.get(stale.client), None);
    }
}

/// **Known deviation** (ROADMAP item 1c), the second half: a tombstone
/// carries the *receiver's* clock, not the time the session ended at its
/// owner, so two replicas that deliver the same `Remove` at different
/// moments disagree about a report stamped in between.
#[test]
fn known_deviation_a_tombstone_is_stamped_with_the_receivers_clock() {
    let cfg = VodConfig::paper_default();
    let known = ClientRecord {
        updated_at: SimTime::from_secs(1),
        ..record(0)
    };
    let between = ClientRecord {
        updated_at: SimTime::from_secs(3),
        ..known
    };
    let report = |records| Input::Report {
        from: ME,
        epoch: 0,
        records,
    };
    let verdict = |remove_delivered_at: u64| {
        let mut replica = Replica::new(ME);
        let at = SimTime::from_secs(remove_delivered_at);
        replica.step(&cfg, at, report(vec![known]));
        replica.step(&cfg, at, Input::Remove(known.client));
        replica.step(&cfg, at, report(vec![between]));
        replica.table.get(known.client).copied()
    };
    assert_eq!(verdict(2), Some(between), "delivered early: accepted");
    assert_eq!(verdict(4), None, "delivered late: dropped");
}

/// **Known deviation** (ROADMAP item 1b, modelled on seed 1012; the table
/// half of `prop_server.rs::known_deviation_two_servers_in_one_session_group_both_stream`).
/// After a heal, n4 installs `[2,4]` at epoch 6 while n1 and n2 install
/// `[1,2]` at epoch 7 without it. n2's report never reaches n4, whose
/// exchange ends at its deadline; n2's ends with n1's report. Each
/// redistributes over its own view, and both start n1's former client c1.
#[test]
fn known_deviation_a_partial_merge_gives_one_client_two_owners() {
    let cfg = VodConfig::paper_default();
    let synced = |client: u32, owner: u32| ClientRecord {
        client: ClientId(client),
        client_node: NodeId(100 + client),
        session_group: session_group(ClientId(client)),
        movie: MovieId(1),
        next_frame: FrameNo(300),
        rate_fps: 30,
        max_fps: 30,
        owner: NodeId(owner),
        assigned_epoch: 5,
        updated_at: SimTime::from_secs(20),
        paused: false,
    };
    let records = vec![synced(1, 1), synced(2, 2), synced(3, 4)];
    let now = SimTime::from_secs(21);
    let seeded = |me: u32| {
        let mut replica = Replica::new(NodeId(me));
        let (from, epoch, records) = (NodeId(me), 0, records.clone());
        replica.step(
            &cfg,
            now,
            Input::Report {
                from,
                epoch,
                records,
            },
        );
        replica
    };
    let (mut n4, mut n2) = (seeded(4), seeded(2));
    assert!(n4.sessions.contains_key(&ClientId(3)) && n2.sessions.contains_key(&ClientId(2)));

    let mut at_n4 = n4.step_and_hear(&cfg, now, Input::View(view_of(6, 1 << 2 | 1 << 4)));
    at_n4.extend(n4.step_and_hear(&cfg, now, Input::Deadline));

    let mut at_n2 = n2.step_and_hear(&cfg, now, Input::View(view_of(7, 1 << 1 | 1 << 2)));
    let from_n1 = Input::Report {
        from: NodeId(1),
        epoch: 7,
        records: records.clone(),
    };
    at_n2.extend(n2.step_and_hear(&cfg, now, from_n1));

    assert!(started(&at_n4).contains(&ClientId(1)), "{at_n4:?}");
    assert!(started(&at_n2).contains(&ClientId(1)), "{at_n2:?}");
    let owner = |replica: &Replica| replica.table.get(ClientId(1)).map(|r| r.owner);
    assert_eq!((owner(&n4), owner(&n2)), (Some(NodeId(4)), Some(NodeId(2))));
    assert!(n4.sessions.contains_key(&ClientId(1)) && n2.sessions.contains_key(&ClientId(1)));
}
