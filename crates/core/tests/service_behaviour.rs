//! Service-level integration tests: smooth streaming, transparent
//! failover, load balancing, VCR control, quality adaptation and the
//! fault-tolerance baselines.

use std::time::Duration;

use ftvod_core::config::{TakeoverPolicy, VodConfig};
use ftvod_core::protocol::{ClientId, VcrCmd};
use ftvod_core::scenario::{presets, ScenarioBuilder, VodSim};
use ftvod_core::server::VodServer;
use media::{FrameNo, Movie, MovieId, MovieSpec};
use simnet::{LinkProfile, NodeId, SimTime};

const C1: ClientId = ClientId(1);
const S1: NodeId = NodeId(1);
const S2: NodeId = NodeId(2);
const S3: NodeId = NodeId(3);
const CLIENT_NODE: NodeId = NodeId(100);

fn movie(secs: u64) -> Movie {
    Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(secs)),
    )
}

/// A plain two-replica deployment with one client, no faults.
fn plain_scenario(seed: u64) -> VodSim {
    let mut builder = ScenarioBuilder::new(seed);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2));
    builder.build()
}

#[test]
fn fault_free_run_is_smooth() {
    let mut sim = plain_scenario(1);
    sim.run_until(SimTime::from_secs(60));
    let stats = sim.client_stats(C1).expect("client exists");
    assert!(
        stats.frames_received > 1600,
        "got {}",
        stats.frames_received
    );
    assert_eq!(stats.stalls.total(), 0, "no visible jitter without faults");
    assert!(
        stats.skipped.total() <= 15,
        "startup emergency may cost a few frames, got {}",
        stats.skipped.total()
    );
    assert_eq!(stats.late.total(), 0, "LAN with one server: nothing late");
    let displayed = sim.client_displayed(C1).unwrap();
    // ~58 s of display at 30 fps, minus startup buffering.
    assert!(displayed > 1600, "displayed only {displayed}");
}

#[test]
fn buffers_settle_between_water_marks() {
    let mut sim = plain_scenario(2);
    sim.run_until(SimTime::from_secs(60));
    let stats = sim.client_stats(C1).unwrap();
    // After the fill phase the combined policy holds hw nearly full and sw
    // oscillating in a band (paper: mean sw occupancy ≈ 23 of 37).
    let sw_mean = stats.sw_occupancy.mean_in_window(30.0, 60.0).unwrap();
    assert!(
        (10.0..35.0).contains(&sw_mean),
        "software occupancy mean {sw_mean} out of band"
    );
    let hw_mean = stats.hw_occupancy.mean_in_window(30.0, 60.0).unwrap();
    assert!(
        hw_mean > 200_000.0,
        "hardware buffer should sit near full, mean {hw_mean}"
    );
}

#[test]
fn initial_assignment_prefers_highest_id_replica() {
    let mut sim = plain_scenario(3);
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.owner_of(C1), Some(S2));
}

#[test]
fn crash_failover_is_transparent() {
    let (builder, crash_at, _) = presets::fig4_lan(4);
    let mut sim = builder.build();
    sim.run_until(crash_at + Duration::from_secs(10));
    assert_eq!(sim.owner_of(C1), Some(S1), "survivor took over");
    let stats = sim.client_stats(C1).unwrap();
    assert_eq!(
        stats.stalls.total(),
        0,
        "the migration must not be noticeable to a human observer"
    );
    // The takeover resumes from the last synchronized offset, so some
    // frames are transmitted twice and counted late (paper Fig 4b).
    assert!(stats.late.total() > 0, "expected duplicate (late) frames");
    assert!(
        stats.late.total() < 40,
        "duplicates bounded by the sync skew, got {}",
        stats.late.total()
    );
    // The stream interruption stays in the sub-second range (paper §4.2).
    let max_gap = stats
        .interruptions
        .iter()
        .map(|&(_, d)| d)
        .fold(0.0_f64, f64::max);
    assert!(max_gap < 1.5, "takeover gap too long: {max_gap}s");
}

#[test]
fn new_server_attracts_the_client_for_load_balancing() {
    let (builder, _, balance_at) = presets::fig4_lan(5);
    let mut sim = builder.build();
    sim.run_until(balance_at + Duration::from_secs(8));
    assert_eq!(
        sim.owner_of(C1),
        Some(S3),
        "client migrated to the new server"
    );
    let stats = sim.client_stats(C1).unwrap();
    assert_eq!(stats.stalls.total(), 0, "load balancing must be seamless");
}

#[test]
fn full_fig4_run_matches_paper_shapes() {
    let (builder, crash_at, balance_at) = presets::fig4_lan(6);
    let crash_s = crash_at.as_secs_f64();
    let balance_s = balance_at.as_secs_f64();
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(122));
    let stats = sim.client_stats(C1).unwrap();
    // 4(a): skipped frames step only around emergencies, a handful each.
    let quiet_window = stats.skipped.in_window(20.0, crash_s - 1.0);
    assert_eq!(quiet_window, 0, "no skips between startup and the crash");
    assert!(
        stats.skipped.total() <= 30,
        "total skipped {}",
        stats.skipped.total()
    );
    // No I frame is ever sacrificed (paper: "none of the skipped frames
    // was an I frame").
    assert_eq!(stats.i_frames_evicted, 0);
    // 4(b): late frames step at the crash and at the load balance.
    assert!(stats.late.in_window(crash_s, crash_s + 5.0) > 0);
    assert!(stats.late.in_window(balance_s, balance_s + 5.0) > 0);
    assert_eq!(stats.late.in_window(10.0, crash_s - 1.0), 0);
    // 4(c): software occupancy dips sharply at the crash, recovers.
    let dip = stats
        .sw_occupancy
        .min_in_window(crash_s, crash_s + 3.0)
        .unwrap();
    assert!(
        dip <= 8.0,
        "crash should drain the software buffer, min {dip}"
    );
    let recovered = stats
        .sw_occupancy
        .mean_in_window(crash_s + 8.0, balance_s - 1.0)
        .unwrap();
    assert!(recovered > 10.0, "buffer recovered to {recovered}");
    // 4(d): hardware buffer refills to near capacity after events.
    let hw_tail = stats.hw_occupancy.mean_in_window(100.0, 120.0).unwrap();
    assert!(hw_tail > 200_000.0);
    assert_eq!(stats.stalls.total(), 0, "whole run smooth");
}

#[test]
fn three_failures_survived_with_four_replicas() {
    let servers = [S1, S2, S3, NodeId(4)];
    let mut builder = ScenarioBuilder::new(7);
    builder
        .network(LinkProfile::lan())
        .movie(movie(150), &servers)
        .server(S1)
        .server(S2)
        .server(S3)
        .server(NodeId(4))
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        // Kill servers one at a time; k=4 replicas tolerate k-1 failures.
        .crash_at(SimTime::from_secs(20), NodeId(4))
        .crash_at(SimTime::from_secs(40), S3)
        .crash_at(SimTime::from_secs(60), S2);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(90));
    assert_eq!(sim.owner_of(C1), Some(S1), "last replica standing serves");
    let stats = sim.client_stats(C1).unwrap();
    assert_eq!(
        stats.stalls.total(),
        0,
        "three consecutive failures survived"
    );
    assert!(stats.frames_received > 2400);
}

#[test]
fn no_takeover_baseline_starves_after_crash() {
    let (builder, crash_at, _) = {
        let (mut b, c, l) = presets::fig4_lan(8);
        b.config(VodConfig::paper_default().with_takeover(TakeoverPolicy::None));
        (b, c, l)
    };
    let mut sim = builder.build();
    sim.run_until(crash_at + Duration::from_secs(20));
    assert_eq!(sim.owner_of(C1), None, "nobody takes over");
    let stats = sim.client_stats(C1).unwrap();
    assert!(
        stats.stalls.total() > 100,
        "the single-server baseline freezes, stalls = {}",
        stats.stalls.total()
    );
}

#[test]
fn single_backup_baseline_survives_one_failure_not_two() {
    let mut builder = ScenarioBuilder::new(9);
    builder
        .network(LinkProfile::lan())
        .config(VodConfig::paper_default().with_takeover(TakeoverPolicy::SingleBackup))
        .movie(movie(150), &[S1, S2, S3])
        .server(S1)
        .server(S2)
        .server(S3)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .crash_at(SimTime::from_secs(20), S3)
        .crash_at(SimTime::from_secs(40), S2);
    let mut sim = builder.build();
    // First failure (S3 was serving): survived.
    sim.run_until(SimTime::from_secs(35));
    let stalls_after_first = sim.client_stats(C1).unwrap().stalls.total();
    assert_eq!(stalls_after_first, 0, "first failure is covered");
    // Second failure: the Tiger-like baseline gives up.
    sim.run_until(SimTime::from_secs(70));
    let stats = sim.client_stats(C1).unwrap();
    assert!(
        stats.stalls.total() > 100,
        "second failure must starve the baseline, stalls = {}",
        stats.stalls.total()
    );
}

#[test]
fn pause_and_resume_stop_and_restart_the_stream() {
    let mut builder = ScenarioBuilder::new(10);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .vcr_at(SimTime::from_secs(20), C1, VcrCmd::Pause)
        .vcr_at(SimTime::from_secs(30), C1, VcrCmd::Resume);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(22));
    let received_at_pause = sim.client_stats(C1).unwrap().frames_received;
    sim.run_until(SimTime::from_secs(29));
    let received_mid_pause = sim.client_stats(C1).unwrap().frames_received;
    assert!(
        received_mid_pause - received_at_pause < 30,
        "server kept transmitting through the pause: {} → {}",
        received_at_pause,
        received_mid_pause
    );
    sim.run_until(SimTime::from_secs(50));
    let stats = sim.client_stats(C1).unwrap();
    assert!(
        stats.frames_received > received_mid_pause + 400,
        "stream resumed"
    );
    assert_eq!(stats.stalls.total(), 0, "paused time is not a stall");
}

#[test]
fn seek_jumps_and_recovers_via_emergency() {
    let mut builder = ScenarioBuilder::new(11);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .vcr_at(SimTime::from_secs(20), C1, VcrCmd::Seek(FrameNo(2700)));
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(19));
    let emergencies_before = sim.client_stats(C1).unwrap().emergencies.total();
    sim.run_until(SimTime::from_secs(40));
    let stats = sim.client_stats(C1).unwrap();
    assert!(
        stats.emergencies.total() > emergencies_before,
        "random access triggers the emergency refill (§4.1)"
    );
    // The buffer recovers after the seek.
    let tail = stats.sw_occupancy.mean_in_window(32.0, 40.0).unwrap();
    assert!(tail > 5.0, "buffer refilled after seek, mean {tail}");
}

#[test]
fn stop_removes_the_session_everywhere() {
    let mut builder = ScenarioBuilder::new(12);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .vcr_at(SimTime::from_secs(15), C1, VcrCmd::Stop);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(25));
    assert_eq!(sim.owner_of(C1), None, "session closed on every replica");
    let received_at_stop = sim.client_stats(C1).unwrap().frames_received;
    sim.run_until(SimTime::from_secs(35));
    let received_later = sim.client_stats(C1).unwrap().frames_received;
    assert!(
        received_later - received_at_stop < 10,
        "transmission ceased"
    );
}

/// A stop racing the serving replica's crash: the Stop command (and the
/// record removal it would have announced) dies with the server, so the
/// survivor's stale record resurrects the session for a client that
/// already quit. The client's departure from its session group on stop
/// must kill the zombie — the survivor installs a session view without
/// the client's node and ends the session instead of streaming to a
/// stopped client forever.
#[test]
fn stop_racing_server_crash_leaves_no_zombie_session() {
    let mut builder = ScenarioBuilder::new(21);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .vcr_at(SimTime::from_secs(15), C1, VcrCmd::Stop);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(14));
    assert_eq!(sim.owner_of(C1), Some(S2), "highest id serves first");
    // The crash lands at the same instant as the stop: positive link
    // latency guarantees S2 is gone before the Stop arrives, and S1
    // only knows the stale record.
    sim.sim_mut().crash_at(SimTime::from_secs(15), S2);
    sim.run_until(SimTime::from_secs(25));
    assert_eq!(sim.owner_of(C1), None, "the resurrected session must die");
    let received = sim.client_stats(C1).unwrap().frames_received;
    sim.run_until(SimTime::from_secs(35));
    assert_eq!(
        sim.client_stats(C1).unwrap().frames_received,
        received,
        "a stopped client accepts nothing"
    );
}

#[test]
fn quality_capped_client_gets_all_i_frames_at_reduced_rate() {
    let mut builder = ScenarioBuilder::new(13);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client_with_cap(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2), 15);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(62));
    let stats = sim.client_stats(C1).unwrap();
    // 15 fps requested of a 30 fps movie → ~16 fps effective (8 of 15 per
    // GOP); over ~60 s that is ~960 frames, far less than the ~1800 of a
    // full-rate client.
    assert!(
        (700..1300).contains(&stats.frames_received),
        "reduced-rate stream out of band: {}",
        stats.frames_received
    );
    assert_eq!(stats.stalls.total(), 0);
}

#[test]
fn quality_change_caps_the_rate_by_the_movies_own_frame_rate() {
    // Half quality of a 60 fps movie keeps 8 frames of every 15-frame GOP:
    // 32 frames a second, which the transmission rate must be allowed to
    // reach. (The cap was once computed as if every movie ran at 30 fps,
    // which halved it again, to 16.) The viewer pauses first, so no
    // flow-control request moves the rate after the cap is applied.
    let spec = MovieSpec {
        fps: 60,
        ..MovieSpec::paper_default()
    };
    let mut builder = ScenarioBuilder::new(14);
    builder
        .network(LinkProfile::lan())
        .movie(Movie::generate(MovieId(1), &spec), &[S1])
        .server(S1)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .vcr_at(SimTime::from_secs(20), C1, VcrCmd::Pause)
        .vcr_at(SimTime::from_secs(21), C1, VcrCmd::SetQuality(30));
    let mut sim = builder.build();
    let record = |sim: &mut VodSim| {
        let records = sim
            .sim_mut()
            .with_process(S1, |s: &VodServer| s.known_records(MovieId(1)));
        records.expect("server exists")[0]
    };
    sim.run_until(SimTime::from_secs(20));
    assert!(record(&mut sim).rate_fps > 32, "a 60 fps stream by now");
    sim.run_until(SimTime::from_secs(23));
    let capped = record(&mut sim);
    assert_eq!((capped.max_fps, capped.rate_fps), (30, 32));
}

#[test]
fn two_clients_distribute_across_replicas() {
    let c2 = ClientId(2);
    let mut builder = ScenarioBuilder::new(14);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .client(c2, NodeId(101), MovieId(1), SimTime::from_secs(3));
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(20));
    let o1 = sim.owner_of(C1).expect("c1 served");
    let o2 = sim.owner_of(c2).expect("c2 served");
    assert_ne!(o1, o2, "two clients should land on different replicas");
    sim.run_until(SimTime::from_secs(60));
    for c in [C1, c2] {
        let stats = sim.client_stats(c).unwrap();
        assert_eq!(stats.stalls.total(), 0, "client {c} stalled");
        assert!(stats.frames_received > 1500);
    }
}

#[test]
fn client_crash_cleans_up_server_state() {
    let mut builder = ScenarioBuilder::new(15);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2));
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(15));
    assert!(sim.owner_of(C1).is_some());
    sim.sim_mut().crash_at(SimTime::from_secs(15), CLIENT_NODE);
    sim.run_until(SimTime::from_secs(25));
    assert_eq!(sim.owner_of(C1), None, "dead client's session was reaped");
}

#[test]
fn partitioned_server_is_replaced_and_merge_reconciles() {
    let mut builder = ScenarioBuilder::new(16);
    builder
        .network(LinkProfile::lan())
        .movie(movie(150), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2));
    // S2 serves; partition it away from both S1 and the client.
    builder.partition_at(SimTime::from_secs(20), &[S2], &[S1, CLIENT_NODE]);
    builder.heal_all_at(SimTime::from_secs(45));
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(sim.owner_of(C1), Some(S1), "connected side takes over");
    sim.run_until(SimTime::from_secs(70));
    // After healing exactly one server transmits.
    let owner = sim.owner_of(C1);
    assert!(owner.is_some(), "client still served after merge");
    let stats = sim.client_stats(C1).unwrap();
    assert!(
        stats.stalls.total() < 150,
        "partition handled with at most a brief freeze, stalls = {}",
        stats.stalls.total()
    );
}

#[test]
fn sync_overhead_is_below_one_thousandth_of_video_bandwidth() {
    let mut sim = plain_scenario(17);
    sim.run_until(SimTime::from_secs(120));
    let video = sim.net_stats().class("video").sent_bytes;
    let sync = sim.net_stats().class("vod-sync").sent_bytes;
    assert!(video > 0);
    let ratio = sync as f64 / video as f64;
    // Paper §1: synchronization consumes "less than one thousandth of the
    // total communication bandwidth used by the VoD service". The GCS
    // carrier adds framing, so allow a small factor over the raw records.
    assert!(ratio < 0.004, "sync/video ratio {ratio}");
}

#[test]
fn runs_are_deterministic() {
    let run = |seed: u64| {
        let (builder, _, _) = presets::fig4_lan(seed);
        let mut sim = builder.build();
        sim.run_until(SimTime::from_secs(80));
        let stats = sim.client_stats(C1).unwrap();
        (
            stats.frames_received,
            stats.late.total(),
            stats.skipped.total(),
            stats.sw_occupancy.points().to_vec(),
        )
    };
    assert_eq!(run(42), run(42), "same seed, same run");
    // Divergence across seeds is best observed on the lossy WAN (a LAN
    // run is nearly seed-independent by design).
    let wan = |seed: u64| {
        let (builder, _, _) = presets::fig5_wan(seed);
        let mut sim = builder.build();
        sim.run_until(SimTime::from_secs(60));
        let stats = sim.client_stats(C1).unwrap();
        (
            stats.frames_received,
            stats.late.total(),
            stats.sw_occupancy.points().to_vec(),
        )
    };
    assert_ne!(wan(42), wan(43), "different seeds diverge");
}

#[test]
fn movie_end_is_signalled() {
    let mut builder = ScenarioBuilder::new(18);
    builder
        .network(LinkProfile::lan())
        .movie(movie(20), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2));
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(40));
    let node = CLIENT_NODE;
    let ended = sim
        .sim_mut()
        .with_process(node, |c: &ftvod_core::client::VodClient| {
            c.session().ended()
        })
        .unwrap();
    assert!(ended, "client learned the movie is over");
    assert_eq!(sim.owner_of(C1), None, "session closed at the end");
}

#[test]
fn graceful_shutdown_hands_over_without_detection_delay() {
    let mut builder = ScenarioBuilder::new(19);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        // Planned maintenance on the serving replica.
        .shutdown_at(SimTime::from_secs(20), S2);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(sim.owner_of(C1), Some(S1), "survivor serves after detach");
    let stats = sim.client_stats(C1).unwrap();
    assert_eq!(stats.stalls.total(), 0, "planned handoff is seamless");
    // Without a failure-detection wait, the interruption is shorter than a
    // crash takeover (well under the suspect timeout).
    let max_gap = stats
        .interruptions
        .iter()
        .filter(|&&(at, _)| at > 18.0)
        .map(|&(_, d)| d)
        .fold(0.0_f64, f64::max);
    assert!(
        max_gap < 0.45,
        "graceful handoff should beat failure detection, gap {max_gap}s"
    );
    // The detached process actually exited.
    sim.run_until(SimTime::from_secs(45));
    assert!(!sim.is_alive(S2), "server process should have exited");
}

#[test]
fn client_can_start_mid_movie() {
    let mut builder = ScenarioBuilder::new(20);
    builder
        .network(LinkProfile::lan())
        .movie(movie(120), &[S1, S2])
        .server(S1)
        .server(S2);
    builder.client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2));
    let mut sim = builder.build();
    // Drive a seek right after start to emulate "resume where I left off".
    sim.run_until(SimTime::from_secs(5));
    sim.sim_mut()
        .invoke(CLIENT_NODE, |c: &mut ftvod_core::client::VodClient, ctx| {
            c.vcr(ctx, VcrCmd::Seek(FrameNo(1800))); // minute one
        })
        .unwrap();
    sim.run_until(SimTime::from_secs(65));
    // 1800 frames of offset + ~58s of playback: the movie (3600 frames)
    // must end around t=62s.
    let ended = sim
        .sim_mut()
        .with_process(CLIENT_NODE, |c: &ftvod_core::client::VodClient| {
            c.session().ended()
        })
        .unwrap();
    assert!(ended, "mid-movie start reaches the end early");
}

#[test]
fn migration_of_a_paused_client_keeps_it_paused() {
    let (builder, crash_at, _) = {
        let (mut b, c, l) = presets::fig4_lan(21);
        b.vcr_at(c - Duration::from_secs(5), C1, VcrCmd::Pause);
        b.vcr_at(c + Duration::from_secs(10), C1, VcrCmd::Resume);
        (b, c, l)
    };
    let mut sim = builder.build();
    // The client pauses 5s before the crash; the takeover must not blast
    // frames at a paused viewer.
    sim.run_until(crash_at + Duration::from_secs(8));
    let received_while_paused = sim.client_stats(C1).unwrap().frames_received;
    sim.run_until(crash_at + Duration::from_secs(9));
    let still_paused = sim.client_stats(C1).unwrap().frames_received;
    assert!(
        still_paused - received_while_paused < 20,
        "new owner transmitted to a paused client"
    );
    // Resume works against the new owner.
    sim.run_until(crash_at + Duration::from_secs(25));
    let stats = sim.client_stats(C1).unwrap();
    assert!(
        stats.frames_received > still_paused + 300,
        "resume after migration restarts the stream"
    );
}

#[test]
fn client_recovers_after_losing_every_replica() {
    // Beyond the paper's k-1 assumption: all replicas die, a fresh one is
    // brought up later, and the client re-opens its session from where it
    // stopped.
    let mut builder = ScenarioBuilder::new(22);
    builder
        .network(LinkProfile::lan())
        .movie(movie(150), &[S1, S2, S3])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .crash_at(SimTime::from_secs(20), S2)
        .crash_at(SimTime::from_secs(21), S1)
        // Total outage 21s..35s, then a cold replica appears.
        .server_at(SimTime::from_secs(35), S3);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(30));
    let during_outage = sim.client_stats(C1).unwrap().frames_received;
    assert_eq!(sim.owner_of(C1), None, "everything is down");
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(
        sim.owner_of(C1),
        Some(S3),
        "fresh replica adopted the client"
    );
    let stats = sim.client_stats(C1).unwrap();
    assert!(
        stats.frames_received > during_outage + 400,
        "stream resumed after the blackout"
    );
    // The re-open resumes from the client's position rather than frame 0:
    // no flood of ancient duplicates.
    assert!(
        stats.late.total() < 80,
        "resume position was honoured, late = {}",
        stats.late.total()
    );
}

#[test]
fn playback_speed_control_scales_the_stream() {
    // Paper §3 lists "speed control" among the client's control messages:
    // double speed doubles consumption (and hence transmission); slow
    // motion halves it.
    let mut builder = ScenarioBuilder::new(23);
    builder
        .network(LinkProfile::lan())
        .movie(movie(240), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .vcr_at(SimTime::from_secs(30), C1, VcrCmd::SetSpeed(200))
        .vcr_at(SimTime::from_secs(60), C1, VcrCmd::SetSpeed(50));
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(28));
    let normal_start = sim.client_stats(C1).unwrap().frames_received;
    sim.run_until(SimTime::from_secs(38));
    // Skip the transition, then measure steady 2x.
    sim.run_until(SimTime::from_secs(48));
    let fast_start = sim.client_stats(C1).unwrap().frames_received;
    sim.run_until(SimTime::from_secs(58));
    let fast_rate = (sim.client_stats(C1).unwrap().frames_received - fast_start) as f64 / 10.0;
    sim.run_until(SimTime::from_secs(70));
    let slow_start = sim.client_stats(C1).unwrap().frames_received;
    sim.run_until(SimTime::from_secs(85));
    let slow_rate = (sim.client_stats(C1).unwrap().frames_received - slow_start) as f64 / 15.0;
    let normal_rate = normal_start as f64 / 26.0; // ~26 s of normal playback
    assert!(
        fast_rate > normal_rate * 1.6,
        "2x speed should nearly double the rate: {normal_rate:.1} -> {fast_rate:.1}"
    );
    assert!(
        slow_rate < normal_rate * 0.75,
        "slow motion should cut the rate: {normal_rate:.1} -> {slow_rate:.1}"
    );
    let stats = sim.client_stats(C1).unwrap();
    assert_eq!(stats.stalls.total(), 0, "speed changes stay smooth");
}

#[test]
fn admission_control_caps_sessions_and_admits_when_freed() {
    // Two servers, at most one session each; three viewers arrive.
    let mut builder = ScenarioBuilder::new(24);
    builder
        .network(LinkProfile::lan())
        .config(VodConfig::paper_default().with_session_cap(1))
        .movie(movie(150), &[S1, S2])
        .server(S1)
        .server(S2)
        .client(C1, CLIENT_NODE, MovieId(1), SimTime::from_secs(2))
        .client(ClientId(2), NodeId(101), MovieId(1), SimTime::from_secs(3))
        .client(ClientId(3), NodeId(102), MovieId(1), SimTime::from_secs(4))
        // The first viewer stops mid-movie, freeing a slot.
        .vcr_at(SimTime::from_secs(30), C1, VcrCmd::Stop);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(25));
    let served: Vec<bool> = [C1, ClientId(2), ClientId(3)]
        .iter()
        .map(|&c| sim.owner_of(c).is_some())
        .collect();
    assert_eq!(
        served.iter().filter(|&&s| s).count(),
        2,
        "only two sessions fit: {served:?}"
    );
    assert!(!served[2], "the last arrival waits");
    let waiting_received = sim.client_stats(ClientId(3)).unwrap().frames_received;
    assert_eq!(waiting_received, 0, "no partial service while waiting");
    // After c1 stops, the waiting client's periodic re-open is admitted.
    sim.run_until(SimTime::from_secs(45));
    assert!(
        sim.owner_of(ClientId(3)).is_some(),
        "freed capacity admits the waiting viewer"
    );
    sim.run_until(SimTime::from_secs(70));
    let stats = sim.client_stats(ClientId(3)).unwrap();
    assert!(
        stats.frames_received > 600,
        "admitted viewer streams normally"
    );
}

#[test]
fn crash_with_admission_control_sheds_rather_than_overloads() {
    // Two servers with capacity two each, four viewers; one server dies.
    // Under admission control the survivor keeps two viewers smooth and
    // parks the others instead of degrading all four.
    let mut builder = ScenarioBuilder::new(25);
    builder
        .network(LinkProfile::lan())
        .config(VodConfig::paper_default().with_session_cap(2))
        .movie(movie(150), &[S1, S2])
        .server(S1)
        .server(S2);
    for c in 1..=4u32 {
        builder.client(
            ClientId(c),
            NodeId(100 + c),
            MovieId(1),
            SimTime::from_secs(2),
        );
    }
    builder.crash_at(SimTime::from_secs(20), S2);
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(45));
    let served: Vec<ClientId> = (1..=4u32)
        .map(ClientId)
        .filter(|&c| sim.owner_of(c).is_some())
        .collect();
    assert_eq!(
        served.len(),
        2,
        "survivor respects its capacity: {served:?}"
    );
    for &c in &served {
        let stats = sim.client_stats(c).unwrap();
        // The survivors' viewers stay smooth after the takeover window.
        assert!(
            stats.stalls.in_window(30.0, 45.0) == 0,
            "served viewer {c} degraded"
        );
    }
}
