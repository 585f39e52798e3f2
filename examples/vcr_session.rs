//! Full VCR-like control (paper §3): pause, resume and random access —
//! including the §4.1 emergency refill that follows a seek.
//!
//! ```text
//! cargo run --example vcr_session
//! ```

use std::time::Duration;

use ftvod::prelude::*;
use ftvod::video::FrameNo;

fn main() {
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(180)),
    );
    let mut builder = ScenarioBuilder::new(3);
    builder
        .network(LinkProfile::lan())
        .movie(movie, &[NodeId(1), NodeId(2)])
        .server(NodeId(1))
        .server(NodeId(2))
        .client(ClientId(1), NodeId(100), MovieId(1), SimTime::from_secs(2))
        // Watch, pause for ten seconds, resume, then jump to minute two.
        .vcr_at(SimTime::from_secs(20), ClientId(1), VcrCmd::Pause)
        .vcr_at(SimTime::from_secs(30), ClientId(1), VcrCmd::Resume)
        .vcr_at(
            SimTime::from_secs(45),
            ClientId(1),
            VcrCmd::Seek(FrameNo(3600)),
        );
    let mut sim = builder.build();

    let mut last_received = 0;
    for checkpoint in [10u64, 19, 25, 29, 35, 44, 47, 55, 70] {
        sim.run_until(SimTime::from_secs(checkpoint));
        let stats = sim.client_stats(ClientId(1)).unwrap();
        let phase = match checkpoint {
            0..=19 => "playing",
            20..=29 => "paused",
            30..=44 => "resumed",
            45..=46 => "seeking to frame 3600 (2:00)",
            _ => "playing from 2:00",
        };
        println!(
            "t={checkpoint:>2}s [{phase:<28}] received {:>5} (+{:>3})  displayed {:>5}  emergencies {}",
            stats.frames_received,
            stats.frames_received - last_received,
            sim.client_displayed(ClientId(1)).unwrap(),
            stats.emergencies.total(),
        );
        last_received = stats.frames_received;
    }

    let stats = sim.client_stats(ClientId(1)).unwrap();
    println!(
        "\nthe seek flushed the buffers; the emergency mechanism refilled them \
         ({} emergency requests total) with {} visible freezes after the jump.",
        stats.emergencies.total(),
        stats.stalls.total()
    );
}
