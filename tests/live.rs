//! Real-time smoke test: the full VoD stack streaming on the wall clock
//! through `simnet::rt::RealTimeRunner` (a fast, sub-2s version of the
//! `live_demo` example).

use std::sync::Arc;
use std::time::Duration;

use ftvod::prelude::*;
use ftvod::vod::client::{VodClient, WatchRequest};
use ftvod::vod::protocol::VodWire;
use ftvod::vod::server::{Replica, VodServer};
use simnet::rt::RealTimeRunner;

#[test]
fn video_streams_in_real_time() {
    let movie = Arc::new(Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(30)),
    ));
    let servers = vec![NodeId(1), NodeId(2)];
    let cfg = VodConfig::paper_default();
    let mut rt: RealTimeRunner<VodWire> = RealTimeRunner::new(5);
    rt.set_default_profile(LinkProfile::lan());
    for &s in &servers {
        rt.add_node(
            s,
            VodServer::new(
                cfg.clone(),
                s,
                servers.clone(),
                vec![Replica {
                    movie: Arc::clone(&movie),
                    holders: servers.clone(),
                }],
            ),
        );
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
    // ~1.6 wall-clock seconds: connect, stream, then a live failover.
    rt.run_for(Duration::from_millis(1_100));
    let before = rt
        .with_process(NodeId(100), |c: &VodClient| {
            c.session().stats().frames_received
        })
        .expect("client exists");
    assert!(before > 10, "live stream never started: {before} frames");
    rt.stop_node(NodeId(2));
    rt.run_for(Duration::from_millis(900));
    let after = rt
        .with_process(NodeId(100), |c: &VodClient| {
            c.session().stats().frames_received
        })
        .unwrap();
    assert!(
        after > before + 5,
        "stream did not survive the live crash: {before} -> {after}"
    );
}
