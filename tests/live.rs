//! Real-time smoke test: the full VoD stack streaming on the wall clock
//! through `VodSim::run_until_paced` (a fast, ~2 s version of the
//! `live_demo` example), and the proof that pacing is not a second event
//! loop: the paced run records exactly the events of the unpaced one.

use std::time::{Duration, Instant};

use ftvod::prelude::*;

const CRASH_AT: SimTime = SimTime::from_millis(1_100);

fn two_replicas_one_viewer() -> ScenarioBuilder {
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(30)),
    );
    let mut builder = ScenarioBuilder::new(5);
    builder
        .network(LinkProfile::lan())
        .record_events(DEFAULT_EVENT_CAPACITY)
        .movie(movie, &[NodeId(1), NodeId(2)])
        .server(NodeId(1))
        .server(NodeId(2))
        .client(ClientId(1), NodeId(100), MovieId(1), SimTime::ZERO)
        .crash_at(CRASH_AT, NodeId(2));
    builder
}

#[test]
fn video_streams_in_real_time() {
    let builder = two_replicas_one_viewer();
    let frames = |sim: &VodSim| sim.client_stats(ClientId(1)).unwrap().frames_received;

    // ~2 wall-clock seconds: connect, stream, then a failover.
    let mut paced = builder.build();
    let epoch = Instant::now();
    paced.run_until_paced(CRASH_AT, epoch);
    let before = frames(&paced);
    assert!(before > 10, "live stream never started: {before} frames");
    paced.run_until_paced(SimTime::from_secs(2), epoch);
    assert!(epoch.elapsed() >= Duration::from_secs(2));
    assert!(!paced.is_alive(NodeId(2)));
    let after = frames(&paced);
    assert!(
        after > before + 5,
        "stream did not survive the crash: {before} -> {after}"
    );

    let mut unpaced = builder.build();
    unpaced.run_until(SimTime::from_secs(2));
    let jsonl = paced.events_jsonl().expect("recording is on");
    assert!(
        Some(&jsonl) == unpaced.events_jsonl().as_ref(),
        "the paced run recorded other events than the unpaced one"
    );
}
