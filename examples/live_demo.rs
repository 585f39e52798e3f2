//! Live demo: the exact same server/client state machines that run in the
//! simulator, executed on the wall clock for ten real seconds — including
//! a failover.
//!
//! Everything else in this repository measures the service inside the
//! deterministic simulator; this example shows that the implementation is
//! a real service: [`VodSim::run_until_paced`] dispatches every event of
//! the scenario only once its time has really elapsed, so the takeover
//! happens while you watch. Handlers see the scheduled times, so the run
//! is the deterministic simulation slowed to wall time and the output is
//! the same on every run.
//!
//! ```text
//! cargo run --example live_demo            # runs ~10 wall-clock seconds
//! ```

use std::time::{Duration, Instant};

use ftvod::prelude::*;

const VIEWER: NodeId = NodeId(100);

fn main() {
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(60)),
    );
    let crash_at = SimTime::from_secs(5);
    let mut builder = ScenarioBuilder::new(42);
    builder
        .network(LinkProfile::lan())
        .movie(movie, &[NodeId(1), NodeId(2)])
        .server(NodeId(1))
        .server(NodeId(2))
        .client(ClientId(1), VIEWER, MovieId(1), SimTime::ZERO)
        // n2 serves the viewer (the higher id of two equally loaded
        // replicas); kill it mid-stream.
        .crash_at(crash_at, NodeId(2));
    let mut sim = builder.build();

    println!("streaming live (wall-clock time!); the serving replica dies at t=5s\n");
    let epoch = Instant::now();
    for second in 1..=10u64 {
        let now = SimTime::from_secs(second);
        sim.run_until_paced(now, epoch);
        let (received, sw, hw, stalls, displayed) = sim
            .sim_mut()
            .with_process(VIEWER, |c: &VodClient| {
                (
                    c.session().stats().frames_received,
                    c.session().buffer().occupancy(),
                    c.session().decoder().occupied(),
                    c.session().stats().stalls.total(),
                    c.session().decoder().displayed(),
                )
            })
            .expect("client exists");
        let marker = if now == crash_at {
            "  << n2 KILLED"
        } else {
            ""
        };
        println!(
            "t={second:>2}s  received {received:>4}  displayed {displayed:>4}  \
             sw {sw:>2}f  hw {:>3}KB  freezes {stalls}{marker}",
            hw / 1000
        );
    }

    let stats = sim.client_stats(ClientId(1)).expect("client exists");
    println!(
        "\nten real seconds of video, one crash: {} frozen frames, \
         {} duplicates at the takeover.",
        stats.stalls.total(),
        stats.late.total()
    );
    for (at, gap) in &stats.interruptions {
        println!("the stream was interrupted at t={at:.2}s for {gap:.2}s — the takeover, live.");
    }
}
