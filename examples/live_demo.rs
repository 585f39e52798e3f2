//! Live demo: the exact same server/client state machines that run in the
//! simulator, executed on the wall clock for ten real seconds — including
//! a real-time failover.
//!
//! Everything else in this repository measures the service inside the
//! deterministic simulator; this example shows that the implementation is
//! a real service: the [`simnet::rt::RealTimeRunner`] drives it with real
//! timers and an in-process lossy network, and the takeover happens while
//! you watch.
//!
//! ```text
//! cargo run --example live_demo            # runs ~10 wall-clock seconds
//! ```

use std::sync::Arc;
use std::time::Duration;

use ftvod::prelude::*;
use ftvod::vod::client::{VodClient, WatchRequest};
use ftvod::vod::protocol::VodWire;
use ftvod::vod::server::{Replica, VodServer};
use simnet::rt::RealTimeRunner;

fn main() {
    let movie = Arc::new(Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(60)),
    ));
    let servers = vec![NodeId(1), NodeId(2)];
    let cfg = VodConfig::paper_default();

    let mut rt: RealTimeRunner<VodWire> = RealTimeRunner::new(42);
    rt.set_default_profile(LinkProfile::lan());
    for &s in &servers {
        let replicas = vec![Replica {
            movie: Arc::clone(&movie),
            holders: servers.clone(),
        }];
        rt.add_node(s, VodServer::new(cfg.clone(), s, servers.clone(), replicas));
    }
    rt.add_node(
        NodeId(100),
        VodClient::new(
            cfg,
            ClientId(1),
            NodeId(100),
            servers.clone(),
            WatchRequest::full_quality(&movie),
            0,
        ),
    );

    println!("streaming live (wall-clock time!); the serving replica dies at t=5s\n");
    for second in 1..=10u64 {
        rt.run_for(Duration::from_secs(1));
        if second == 5 {
            rt.stop_node(NodeId(2));
        }
        let (received, sw, hw, stalls, displayed) = rt
            .with_process(NodeId(100), |c: &VodClient| {
                (
                    c.session().stats().frames_received,
                    c.session().buffer().occupancy(),
                    c.session().decoder().occupied(),
                    c.session().stats().stalls.total(),
                    c.session().decoder().displayed(),
                )
            })
            .expect("client exists");
        let marker = if second == 5 {
            "  << n2 KILLED (for real)"
        } else {
            ""
        };
        println!(
            "t={second:>2}s  received {received:>4}  displayed {displayed:>4}  \
             sw {sw:>2}f  hw {:>3}KB  freezes {stalls}{marker}",
            hw / 1000
        );
    }

    let stats = rt
        .with_process(NodeId(100), |c: &VodClient| c.session().stats().clone())
        .unwrap();
    println!(
        "\nten real seconds of video, one real crash: {} frozen frames, \
         {} duplicates at the takeover.",
        stats.stalls.total(),
        stats.late.total()
    );
    for (at, gap) in &stats.interruptions {
        println!("the stream was interrupted at t={at:.2}s for {gap:.2}s — the takeover, live.");
    }
}
