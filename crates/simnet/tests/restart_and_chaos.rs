//! Behaviour of the chaos-facing simulator features: post-crash restart
//! (and its distinct trace event), Gilbert–Elliott burst loss, and
//! scheduled default-profile changes.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use simnet::{
    Context, Endpoint, LinkProfile, NodeId, Payload, Port, Process, SimTime, Simulation, Timer,
    TraceEvent,
};

const PORT: Port = Port(1);

#[derive(Clone, Debug)]
struct Blob {
    id: u64,
}

impl Payload for Blob {
    fn size_bytes(&self) -> usize {
        1000
    }

    fn class(&self) -> &'static str {
        "blob"
    }
}

/// Sends `count` datagrams, one per `interval`, to a fixed peer.
struct Streamer {
    peer: NodeId,
    count: u64,
    sent: u64,
    interval: Duration,
}

const TICK: u64 = 1;

impl Process<Blob> for Streamer {
    fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
        ctx.set_timer_after(self.interval, TICK);
    }

    fn on_datagram(&mut self, _: &mut Context<'_, Blob>, _: Endpoint, _: Endpoint, _: Blob) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, _: Timer) {
        if self.sent < self.count {
            ctx.send(PORT, Endpoint::new(self.peer, PORT), Blob { id: self.sent });
            self.sent += 1;
            ctx.set_timer_after(self.interval, TICK);
        }
    }
}

#[derive(Default)]
struct Sink {
    heard: Vec<(SimTime, u64)>,
}

impl Process<Blob> for Sink {
    fn on_datagram(&mut self, ctx: &mut Context<'_, Blob>, _: Endpoint, _: Endpoint, msg: Blob) {
        self.heard.push((ctx.now(), msg.id));
    }

    fn on_timer(&mut self, _: &mut Context<'_, Blob>, _: Timer) {}
}

fn stream_sim(profile: LinkProfile, seed: u64, count: u64) -> Simulation<Blob> {
    let mut sim = Simulation::new(seed);
    sim.set_default_profile(profile);
    sim.add_node(
        NodeId(1),
        Streamer {
            peer: NodeId(2),
            count,
            sent: 0,
            interval: Duration::from_millis(10),
        },
    );
    sim.add_node(NodeId(2), Sink::default());
    sim
}

/// `restart_at` revives a crashed node with a fresh process, and the
/// tracer sees `NodeRestarted` (not `NodeStarted`) for the repair — so a
/// trace consumer can tell first boots from post-crash repairs apart.
#[test]
fn restart_is_traced_distinctly_from_first_boot() {
    let log: Rc<RefCell<Vec<(&'static str, NodeId)>>> = Rc::default();
    let sink = Rc::clone(&log);
    let mut sim = stream_sim(LinkProfile::ideal(), 30, 1000);
    sim.set_tracer(move |_, event| match event {
        TraceEvent::NodeStarted { node, .. } => sink.borrow_mut().push(("started", *node)),
        TraceEvent::NodeRestarted { node, .. } => sink.borrow_mut().push(("restarted", *node)),
        _ => {}
    });
    sim.crash_at(SimTime::from_secs(1), NodeId(2));
    sim.restart_at(SimTime::from_secs(3), NodeId(2), Sink::default());
    sim.run_until(SimTime::from_secs(6));
    assert!(sim.is_alive(NodeId(2)));
    let log = log.borrow();
    assert_eq!(
        log.iter().filter(|(tag, _)| *tag == "started").count(),
        2,
        "both initial boots are plain starts"
    );
    assert_eq!(
        log.iter().filter(|(tag, _)| *tag == "restarted").count(),
        1,
        "the repair is a restart"
    );
    assert!(log.contains(&("restarted", NodeId(2))));
    // The replacement process only hears post-restart traffic.
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    assert!(!heard.is_empty());
    assert!(heard.iter().all(|(t, _)| *t >= SimTime::from_secs(3)));
}

/// With the Gilbert–Elliott chain in a certain-loss bad state, drops come
/// in consecutive runs rather than i.i.d. singletons: the mean observed
/// burst length must clearly exceed what independent drops produce.
#[test]
fn burst_loss_produces_correlated_drop_runs() {
    // ~10% overall loss in both setups, but the bursty link packs it into
    // runs of mean length 1/p_exit = 5.
    let bursty = LinkProfile::ideal().with_burst_loss(0.02222, 0.2, 1.0);
    let iid = LinkProfile::ideal().with_loss(0.1);
    let mean_run = |profile: LinkProfile| {
        let mut sim = stream_sim(profile, 31, 4000);
        sim.run_until(SimTime::from_secs(60));
        let heard = sim
            .with_process(NodeId(2), |s: &Sink| s.heard.clone())
            .unwrap();
        // Reconstruct drop runs from the gaps in the delivered id sequence
        // (the ideal link preserves order and never duplicates).
        let mut runs = Vec::new();
        let mut expected = 0u64;
        for &(_, id) in &heard {
            if id > expected {
                runs.push(id - expected);
            }
            expected = id + 1;
        }
        let dropped = sim.stats().class("blob").dropped_loss;
        assert!(
            (200..=800).contains(&dropped),
            "overall loss {dropped} outside the ~10% band"
        );
        runs.iter().sum::<u64>() as f64 / runs.len() as f64
    };
    let bursty_run = mean_run(bursty);
    let iid_run = mean_run(iid);
    assert!(
        bursty_run > 2.0 * iid_run,
        "bursty mean run {bursty_run:.2} must dwarf i.i.d. mean run {iid_run:.2}"
    );
}

/// A scheduled default-profile change takes effect mid-run: a lossy window
/// between two restores drops datagrams only inside the window.
#[test]
fn scheduled_profile_change_bounds_a_loss_window() {
    let mut sim = stream_sim(LinkProfile::ideal(), 32, 1000);
    sim.set_default_profile_at(SimTime::from_secs(2), LinkProfile::ideal().with_loss(1.0));
    sim.set_default_profile_at(SimTime::from_secs(4), LinkProfile::ideal());
    sim.run_until(SimTime::from_secs(20));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    let stats = sim.stats().class("blob");
    assert_eq!(stats.sent_msgs, 1000);
    // The 2s..4s window covers ~200 of the 10ms-cadence sends.
    assert!(
        (190..=210).contains(&stats.dropped_loss),
        "burst window drops {} outside expected band",
        stats.dropped_loss
    );
    assert!(heard
        .iter()
        .all(|(t, _)| *t <= SimTime::from_secs(2) || *t >= SimTime::from_secs(4)));
}
