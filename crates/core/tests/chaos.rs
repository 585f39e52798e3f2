//! Chaos-engine integration tests: crashed servers restart and rejoin,
//! faults that overlap partitions reconverge after the heal, and the
//! trace-driven safety oracle tells a healthy fleet from a broken one.

use std::time::Duration;

use ftvod_core::campaign::{self, CHAOS_CLIENTS, CHAOS_FAULTS, CHAOS_SYNC};
use ftvod_core::oracle::summary_token;
use ftvod_core::protocol::{ClientId, TrafficClass};
use ftvod_core::scenario::ScenarioBuilder;
use ftvod_core::server::VodServer;
use ftvod_core::trace::{TraceRecorder, VodEvent, DEFAULT_EVENT_CAPACITY};
use media::{Movie, MovieId, MovieSpec};
use simnet::{NodeId, SimTime};

fn two_hour_movie(id: u32) -> Movie {
    Movie::generate(
        MovieId(id),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(7200)),
    )
}

/// The tentpole end to end: a server crashes mid-service, its clients are
/// taken over by the survivor, and the *restarted* replacement rejoins the
/// server and movie groups and receives clients back through the
/// deterministic redistribution — proven by the trace (a `NodeRestarted`
/// event, a post-restart `SessionStarted` on the restarted node) and by
/// video frames flowing from the restarted node afterwards.
#[test]
fn restarted_server_rejoins_groups_and_serves_redistributed_clients() {
    let servers = [NodeId(1), NodeId(2)];
    let crash = SimTime::from_secs(10);
    let restart = SimTime::from_secs(20);
    let mut builder = ScenarioBuilder::new(11);
    builder
        .record_events(DEFAULT_EVENT_CAPACITY)
        .movie(two_hour_movie(1), &servers)
        .server(NodeId(1))
        .server(NodeId(2))
        .crash_at(crash, NodeId(1))
        .restart_at(restart, NodeId(1));
    for c in 1..=4u32 {
        builder.client(
            ClientId(c),
            NodeId(100 + c),
            MovieId(1),
            SimTime::from_secs_f64(1.0 + 0.2 * f64::from(c)),
        );
    }
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(40));

    // The restart is recorded, and the replacement is alive at the end.
    let (restarted_at, post_restart_session, post_restart_video) = sim
        .trace()
        .with_recorder(|rec| {
            let restarted_at = rec.events().find_map(|(at, e)| match e {
                VodEvent::NodeRestarted { node } if *node == NodeId(1) => Some(at),
                _ => None,
            });
            let session = rec.events().any(|(at, e)| {
                matches!(e, VodEvent::SessionStarted { server, .. }
                    if *server == NodeId(1) && at > restart)
            });
            let video = rec.events().any(|(at, e)| {
                matches!(e, VodEvent::NetDelivered { from, class: TrafficClass::Video, .. }
                    if from.node == NodeId(1) && at > restart)
            });
            (restarted_at, session, video)
        })
        .expect("recording was enabled");
    assert_eq!(restarted_at, Some(restart), "the restart must be traced");
    assert!(sim.is_alive(NodeId(1)), "the replacement must stay up");

    // It rejoined the movie group: both servers are in the view again,
    // and it holds the movie's content.
    let members = sim
        .sim_mut()
        .with_process(NodeId(1), |s: &VodServer| {
            s.movie_view(MovieId(1)).map(|v| v.members.clone())
        })
        .unwrap()
        .expect("the replacement must be back in the movie group");
    assert_eq!(members, vec![NodeId(1), NodeId(2)], "post-heal movie view");
    let held = sim
        .sim_mut()
        .with_process(NodeId(1), |s: &VodServer| s.movies_held())
        .unwrap();
    assert!(
        held.contains(&MovieId(1)),
        "the replacement re-holds movie 1"
    );

    // Redistribution handed clients back, and the replacement streams.
    assert!(
        post_restart_session,
        "a client must be (re)started on the restarted server"
    );
    assert!(
        post_restart_video,
        "video frames must flow from the restarted server"
    );
    let owned_by_1 = sim
        .sim_mut()
        .with_process(NodeId(1), |s: &VodServer| s.clients_owned().len())
        .unwrap();
    assert!(owned_by_1 > 0, "redistribution must hand clients back");

    // Safety held throughout: the oracle passes the whole trace.
    let report = campaign::oracle(&sim);
    assert!(report.pass(), "{report}");
}

/// Regression for overlapping faults: a server crashes while a partition
/// is active, then the partition heals pairwise. The survivors must end in
/// one agreed view and every client must be owned by exactly one server —
/// the failure mode this pins down is a stale-view deadlock where the two
/// sides never re-merge after the heal.
#[test]
fn crash_during_partition_then_heal_reconverges_to_one_view() {
    let servers = [NodeId(1), NodeId(2), NodeId(3)];
    let mut builder = ScenarioBuilder::new(17);
    builder
        .record_events(DEFAULT_EVENT_CAPACITY)
        .movie(two_hour_movie(1), &servers)
        .server(NodeId(1))
        .server(NodeId(2))
        .server(NodeId(3))
        .partition_at(SimTime::from_secs(8), &[NodeId(3)], &[NodeId(1), NodeId(2)])
        .crash_at(SimTime::from_secs(10), NodeId(2))
        .heal_at(
            SimTime::from_secs(16),
            &[NodeId(3)],
            &[NodeId(1), NodeId(2)],
        );
    let clients: Vec<ClientId> = (1..=6).map(ClientId).collect();
    for &c in &clients {
        builder.client(
            c,
            NodeId(100 + c.0),
            MovieId(1),
            SimTime::from_secs_f64(1.0 + 0.2 * f64::from(c.0)),
        );
    }
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(40));

    // One view: both survivors agree the movie group is exactly {1, 3}.
    for node in [NodeId(1), NodeId(3)] {
        let members = sim
            .sim_mut()
            .with_process(node, |s: &VodServer| {
                s.movie_view(MovieId(1)).map(|v| v.members.clone())
            })
            .unwrap()
            .unwrap_or_else(|| panic!("{node} lost the movie group"));
        assert_eq!(
            members,
            vec![NodeId(1), NodeId(3)],
            "{node} must converge on the merged post-heal view"
        );
    }

    // Exactly one server per client: ownership is a partition of the
    // viewers, with no client claimed twice and none abandoned.
    let mut owners: Vec<(ClientId, NodeId)> = Vec::new();
    for &node in &servers {
        if !sim.is_alive(node) {
            continue;
        }
        let owned = sim
            .sim_mut()
            .with_process(node, |s: &VodServer| s.clients_owned())
            .unwrap();
        owners.extend(owned.into_iter().map(|c| (c, node)));
    }
    for &c in &clients {
        let claims: Vec<NodeId> = owners
            .iter()
            .filter(|&&(owned, _)| owned == c)
            .map(|&(_, n)| n)
            .collect();
        assert_eq!(
            claims.len(),
            1,
            "{c} must have exactly one server: {claims:?}"
        );
    }
    let report = campaign::oracle(&sim);
    assert!(report.pass(), "{report}");
}

/// The oracle tells sick from healthy: the same seeded chaos campaign
/// passes all four invariants at the paper's 500 ms sync interval and
/// fails re-serve when state exchange is slowed to 20 s — crashed servers'
/// clients cannot be taken over in time without fresh sync records.
#[test]
fn oracle_flags_broken_sync_interval_and_passes_paper_default() {
    let run = |sync: Duration| {
        let (wired, _faults) = campaign::chaos(CHAOS_CLIENTS, CHAOS_FAULTS, sync, 3);
        wired.run().oracle
    };
    let healthy = run(campaign::CHAOS_SYNC);
    assert!(
        healthy.pass(),
        "paper-default campaign must pass: {healthy}"
    );
    let broken = run(Duration::from_secs(20));
    assert!(
        broken.reserved_after_fault.is_fail(),
        "a 20s sync interval must break timely re-serve: {broken}"
    );
    assert!(!broken.pass());
}

/// The campaign module and the golden CLI output cannot drift apart
/// silently: the CLI-default chaos campaign for seed 1, wired and judged
/// through `ftvod_core::campaign`, renders exactly the verdict row and
/// fault schedule that `tests/golden/chaos_seed1_plan.txt` pins for
/// `ftvod-cli chaos --seeds 1 --plan`.
#[test]
fn default_chaos_campaign_matches_the_golden_cli_output() {
    let golden = include_str!("../../../tests/golden/chaos_seed1_plan.txt");
    let (wired, faults) = campaign::chaos(CHAOS_CLIENTS, CHAOS_FAULTS, campaign::CHAOS_SYNC, 1);
    let outcome = wired.run();
    let rendered = format!(
        "seed 1: {}\n{}",
        outcome.chaos_line(&faults),
        faults.render()
    );
    let (header, rest) = golden.split_once('\n').expect("golden has a header line");
    assert!(header.starts_with("chaos: 1 campaign(s) from seed 1"));
    assert_eq!(
        rest,
        format!("{rendered}chaos: 1/1 campaign(s) passed the oracle\n")
    );
}

/// The oracle and the run report read the recorder's fold, not its ring,
/// so a ring that evicts most of a run changes neither. Seed 10 fails
/// `re-served-after-fault`, so the compared verdicts carry a window.
#[test]
fn a_ring_that_evicts_changes_no_verdict_and_no_report() {
    let run = |ring: Option<usize>| {
        let (mut wired, _faults) = campaign::chaos(CHAOS_CLIENTS, CHAOS_FAULTS, CHAOS_SYNC, 10);
        if let Some(capacity) = ring {
            wired.builder.record_events(capacity);
        }
        let mut sim = wired.builder.build();
        sim.run_until(wired.end);
        let dropped = sim.trace().with_recorder(TraceRecorder::dropped);
        (wired.judge(&sim), dropped.expect("campaigns record"))
    };
    let (whole, none) = run(None);
    let (tail, dropped) = run(Some(4_096));
    assert_eq!(none, 0);
    assert!(dropped > 0, "the small ring evicted nothing");
    assert_eq!(summary_token(&whole.oracle), "FAIL[re-served-after-fault]");
    assert_eq!(whole.oracle.to_string(), tail.oracle.to_string());
    let mut tail_run = tail.run;
    assert_eq!(tail_run.events_dropped, dropped);
    tail_run.events_dropped = 0;
    assert_eq!(whole.run.to_json(), tail_run.to_json());
}
