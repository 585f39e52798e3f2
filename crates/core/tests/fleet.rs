//! Fleet-level service behaviour: admission control under churn, the
//! dynamic replica manager's bring-up/retire lifecycle, and the headline
//! comparison of dynamic vs static placement under a skewed workload.

use std::time::Duration;

use ftvod_core::config::{ReplicationConfig, VodConfig, MIN_REPLICAS};
use ftvod_core::protocol::{ClientId, VcrCmd};
use ftvod_core::scenario::ScenarioBuilder;
use ftvod_core::server::VodServer;
use ftvod_core::trace::DEFAULT_EVENT_CAPACITY;
use ftvod_core::workload::{fleet_builder, FleetProfile, FleetReport};
use media::{Movie, MovieId, MovieSpec};
use simnet::{NodeId, SimTime};

/// Admission control under churn: with one slot per server, late arrivals
/// are parked as UNSERVED, keep retrying, and are admitted — in arrival
/// order — exactly as the earlier viewers stop. Nothing leaks: once every
/// viewer has stopped, no server owns a session.
#[test]
fn parked_clients_are_admitted_as_sessions_end_without_leaks() {
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(120)),
    );
    let servers = [NodeId(1), NodeId(2)];
    let mut builder = ScenarioBuilder::new(5);
    builder
        .config(VodConfig::paper_default().with_session_cap(1))
        .movie(movie, &servers)
        .server(NodeId(1))
        .server(NodeId(2));
    let clients: Vec<ClientId> = (1..=4).map(ClientId).collect();
    for (i, &c) in clients.iter().enumerate() {
        builder.client(
            c,
            NodeId(100 + c.0),
            MovieId(1),
            SimTime::from_secs_f64(2.0 + 0.1 * i as f64),
        );
    }
    // The two admitted viewers stop mid-movie, freeing their slots; the
    // two parked viewers stop later, after they have been served.
    builder.vcr_at(SimTime::from_secs(10), ClientId(1), VcrCmd::Stop);
    builder.vcr_at(SimTime::from_secs(12), ClientId(2), VcrCmd::Stop);
    builder.vcr_at(SimTime::from_secs(20), ClientId(3), VcrCmd::Stop);
    builder.vcr_at(SimTime::from_secs(22), ClientId(4), VcrCmd::Stop);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(30));

    let first_frame = |c: ClientId| {
        sim.client_stats(c)
            .and_then(|s| s.first_frame_at)
            .unwrap_or_else(|| panic!("{c} was never served"))
    };
    // The first two viewers are admitted immediately.
    assert!(first_frame(ClientId(1)) < SimTime::from_secs(4));
    assert!(first_frame(ClientId(2)) < SimTime::from_secs(4));
    // The parked viewers are only served once a slot frees, in arrival
    // order: client 3 (parked first, retrying earlier) before client 4.
    assert!(first_frame(ClientId(3)) >= SimTime::from_secs(10));
    assert!(first_frame(ClientId(4)) >= SimTime::from_secs(12));
    assert!(
        first_frame(ClientId(3)) < first_frame(ClientId(4)),
        "re-admission must follow the deterministic parked order"
    );
    // The coordinator counted the two refusals (one per parked viewer).
    let rejections: u64 = servers
        .iter()
        .filter_map(|&n| sim.server_stats(n))
        .map(|s| s.admission_rejections.total())
        .sum();
    assert_eq!(rejections, 2, "each parked viewer is one refusal");
    // No leaks: every viewer stopped, so nobody owns a session and no
    // client record remains on either server.
    for &c in &clients {
        assert_eq!(sim.owner_of(c), None, "{c} still owned after stopping");
    }
    for &n in &servers {
        let leftovers = sim
            .sim_mut()
            .with_process(n, |s: &VodServer| s.known_records(MovieId(1)).len())
            .unwrap();
        assert_eq!(leftovers, 0, "{n} still holds client records");
    }
}

/// The replica lifecycle end to end: a single-copy movie goes hot (20
/// viewers against a threshold of 8 per replica), the manager brings up a
/// second and a third replica; once the viewers drain away the replica
/// above the floor of two is retired. Both decisions surface in the
/// per-server stats and the trace report.
#[test]
fn hot_movie_gains_a_replica_and_cold_movie_loses_it() {
    let mut profile = FleetProfile::small_fleet();
    profile.servers = 3;
    profile.clients = 20;
    profile.catalog_size = 1;
    profile.initial_replicas = 1;
    profile.sessions_per_server = Some(16);
    profile.arrival_window = Duration::from_secs(6);
    profile.min_session = Duration::from_secs(20);
    profile.max_session = Duration::from_secs(30);
    profile.vcr_pause_prob = 0.0;
    profile.vcr_seek_prob = 0.0;
    profile.churn_prob = 0.0;
    let (mut builder, plan) = fleet_builder(&profile, 3, Some(ReplicationConfig::paper_default()));
    builder.record_events(DEFAULT_EVENT_CAPACITY);
    let mut sim = builder.build();
    let end = profile.run_until();
    sim.run_until(end);

    let report = FleetReport::from_sim(&plan, &sim, end);
    assert_eq!(report.served, 20, "every session must be served");
    let (mut bringups, mut retires) = (0u64, 0u64);
    for node in profile.server_nodes() {
        let stats = sim.server_stats(node).unwrap();
        bringups += stats.replica_bringups.total();
        retires += stats.replica_retires.total();
    }
    assert!(bringups >= 1, "the hot movie must gain a replica");
    assert!(
        retires >= 1,
        "the drained movie must shed the extra replica"
    );
    // The decisions are visible in the derived trace report as well.
    let run = sim.report().expect("recording was enabled");
    assert_eq!(run.replica_bringups, bringups);
    assert_eq!(run.replica_retires, retires);
    // After the retire, the movie is back on the floor's two holders.
    let holders: usize = profile
        .server_nodes()
        .iter()
        .filter(|&&n| {
            sim.sim_mut()
                .with_process(n, |s: &VodServer| s.movies_held().contains(&MovieId(1)))
                .unwrap_or(false)
        })
        .count();
    assert_eq!(
        holders, MIN_REPLICAS as usize,
        "cold movie must end on exactly the floor's replicas"
    );
}

/// The headline claim: under a skewed workload whose hot movie exceeds any
/// single server's admission cap, dynamic replication serves viewers that
/// static placement leaves waiting.
#[test]
fn dynamic_replication_beats_static_placement() {
    let mut profile = FleetProfile::small_fleet();
    profile.servers = 4;
    profile.clients = 80;
    profile.catalog_size = 5;
    profile.zipf_exponent = 1.3;
    profile.sessions_per_server = Some(30);
    let run = |replication| {
        let (builder, plan) = fleet_builder(&profile, 7, replication);
        let mut sim = builder.build();
        let end = profile.run_until();
        sim.run_until(end);
        FleetReport::from_sim(&plan, &sim, end)
    };
    let fixed = run(None);
    let dynamic = run(Some(ReplicationConfig::paper_default()));
    assert_eq!(
        dynamic.served + dynamic.never_served,
        80,
        "every planned session is accounted for"
    );
    assert!(
        dynamic.unserved_seconds < fixed.unserved_seconds,
        "dynamic ({:.1}s unserved) must beat static ({:.1}s unserved)",
        dynamic.unserved_seconds,
        fixed.unserved_seconds
    );
    assert!(
        dynamic.served >= fixed.served,
        "dynamic must serve at least as many sessions"
    );
}
