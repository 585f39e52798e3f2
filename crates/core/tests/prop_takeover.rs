//! The takeover table (`server/takeover.rs`) on its own: no simulation, no
//! GCS, no clock — views, reports, removals, OPENs and deadlines go in as
//! plain calls and the answers are checked.
//!
//! * **Totality** — no sequence of inputs panics it: views with and
//!   without this server (the empty one too), reports from members and
//!   strangers at stale and future epochs, removals of unknown clients,
//!   duplicate and parked OPENs, deadlines with no exchange pending, with
//!   epochs, times and frame numbers within a step of `u64::MAX`.
//! * **Safe outputs** — what comes out of that same walk can be acted on:
//!   a redistribution names only members of the view (or nobody), stamped
//!   with its epoch; no session is both started and stopped, or started
//!   for a record that names another owner; nothing reconciles while an
//!   exchange is pending; a report no fresher than a removal resurrects
//!   nothing.
//! * **Convergence** — reports merge to the same records in any order.
//!   Removals do not: two pinned counterexamples, named as the known
//!   deviations they are (ROADMAP item 1c).
//! * **Resume offsets** — the conservative resume never passes the
//!   record, skip-ahead adds ⌈staleness × rate⌉ and nothing when paused.

use ftvod_core::config::{
    MultiDcConfig, ResumePolicy, SiteMap, TakeoverPolicy, VodConfig, SHED_HEADROOM,
};
use ftvod_core::protocol::{session_group, ClientId, ClientRecord, OpenRequest};
use ftvod_core::server::takeover::{candidate, Installed, Merged};
use ftvod_core::server::{TakeoverTable, UNSERVED};
use gcs::{View, ViewId};
use media::{FrameNo, GopPattern, MovieId};
use proptest::prelude::*;
use simnet::{NodeId, SimTime, VecMap};

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
                    Some(known) if known.owner != UNSERVED => prop_assert_eq!(published, known),
                    // A parked client is heard of again only once placed.
                    Some(_) => prop_assert!(view.contains(published.owner)),
                    None => {
                        prop_assert!(published.owner == UNSERVED || view.contains(published.owner))
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
            let live = |c: ClientId| (b >> c.0 & 1 == 1).then(|| record(b ^ u64::from(c.0)));
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

    /// After a removal at `t`, only a report stamped *after* `t` brings
    /// the client back.
    #[test]
    fn a_report_no_fresher_than_the_removal_resurrects_nothing(
        x in any::<u64>(),
        t in 2u64..1_000_000,
        age in 0u64..3,
    ) {
        let stamped = |at| ClientRecord { updated_at: SimTime::from_micros(at), ..record(x) };
        let mut table = TakeoverTable::default();
        table.merge_report(ME, 0, [stamped(1)]);
        table.remove(record(x).client, SimTime::from_micros(t));
        table.merge_report(ME, 0, [stamped(t - age)]);
        prop_assert_eq!(table.get(record(x).client), None);
        table.merge_report(ME, 0, [stamped(t + 1)]);
        prop_assert_eq!(table.get(record(x).client), Some(&stamped(t + 1)));
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
        let mut table = TakeoverTable::default();
        table.merge_report(ME, 0, seeds.into_iter().map(record));
        table.install_view(ME, view_of(epoch, member_bits | 1 << ME.0));
        table.exchange_expired();
        prop_assert_eq!(table.redistribute(&cfg), Some(epoch));
        let owners = |t: &TakeoverTable| t.records().map(|r| (r.client, r.owner)).collect::<Vec<_>>();
        let decided = owners(&table);
        let stale = stale.into_iter().map(record).filter(|r| table.get(r.client).is_some());
        let stale = stale.map(|r| ClientRecord { assigned_epoch: r.assigned_epoch % epoch, ..r });
        let stale: Vec<ClientRecord> = stale.collect();
        table.merge_report(NodeId(1), 0, stale);
        prop_assert_eq!(owners(&table), decided);
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
        let keyed = |x: u64| {
            let r = record(x & 0xFF_FFFF);
            ClientRecord { rate_fps: 30, max_fps: 30, paused: false, ..r }
        };
        let merge = |order: &[Vec<u64>]| {
            let mut table = TakeoverTable::default();
            for report in order {
                table.merge_report(ME, 0, report.iter().copied().map(keyed));
            }
            table
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
    /// and none for a paused stream.
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
            updated_at: SimTime::from_micros(synced_us),
            ..record(x)
        };
        let (table, gop) = (TakeoverTable::default(), GopPattern::mpeg1());
        let now = SimTime::from_micros(synced_us + stale_us);
        let conservative = VodConfig::paper_default();
        let resumed = table.resume(&conservative, ME, &gop, 60, r, now).record;
        prop_assert_eq!(resumed, ClientRecord { owner: ME, ..r });

        let skip_ahead = conservative.with_resume(ResumePolicy::SkipAhead);
        let resumed = table.resume(&skip_ahead, ME, &gop, 60, r, now).record;
        let skipped = (resumed.next_frame.0 - frame) as f64;
        let estimate = stale_us as f64 * f64::from(rate) / 1e6;
        if r.paused {
            prop_assert_eq!(skipped, 0.0);
        } else {
            // The ceiling, give or take the float's last bit.
            prop_assert!(skipped >= estimate - 1e-6 && skipped < estimate + 1.0 + 1e-6);
        }
        prop_assert_eq!(resumed, ClientRecord { next_frame: resumed.next_frame, owner: ME, ..r });
    }
}

/// **Known deviation** (ROADMAP item 1c; today's behaviour, pinned, not
/// endorsed). A removal is remembered only by a replica that knew the
/// record, so `Remove` and a stale `Sync` do not commute: the replica
/// that hears of the removal first keeps the client the other one drops.
#[test]
fn known_deviation_a_removal_of_an_unknown_client_leaves_no_tombstone() {
    let stale = ClientRecord {
        updated_at: SimTime::from_secs(1),
        ..record(0)
    };
    let removed_at = SimTime::from_secs(2);

    let mut remove_first = TakeoverTable::default();
    remove_first.remove(stale.client, removed_at);
    remove_first.merge_report(ME, 0, [stale]);

    let mut sync_first = TakeoverTable::default();
    sync_first.merge_report(ME, 0, [stale]);
    sync_first.remove(stale.client, removed_at);

    assert_eq!(remove_first.get(stale.client), Some(&stale), "resurrected");
    assert_eq!(sync_first.get(stale.client), None);
    // And the stale report stays dead where the tombstone exists.
    sync_first.merge_report(ME, 0, [stale]);
    assert_eq!(sync_first.get(stale.client), None);
}

/// **Known deviation** (ROADMAP item 1c), the second half: a tombstone
/// carries the *receiver's* clock, not the time the session ended at its
/// owner, so two replicas that deliver the same `Remove` at different
/// moments disagree about a report stamped in between.
#[test]
fn known_deviation_a_tombstone_is_stamped_with_the_receivers_clock() {
    let known = ClientRecord {
        updated_at: SimTime::from_secs(1),
        ..record(0)
    };
    let between = ClientRecord {
        updated_at: SimTime::from_secs(3),
        ..known
    };
    let verdict = |remove_delivered_at: u64| {
        let mut table = TakeoverTable::default();
        table.merge_report(ME, 0, [known]);
        table.remove(known.client, SimTime::from_secs(remove_delivered_at));
        table.merge_report(ME, 0, [between]);
        table.get(known.client).copied()
    };
    assert_eq!(verdict(2), Some(between), "delivered early: accepted");
    assert_eq!(verdict(4), None, "delivered late: dropped");
}
