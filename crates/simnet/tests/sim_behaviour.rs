//! Behavioural integration tests for the simulator: link models, fault
//! injection, timers and determinism.

use std::time::Duration;

use simnet::{
    Context, Endpoint, LinkProfile, NodeId, Payload, Port, Process, SimTime, Simulation, Timer,
    TimerId,
};

const PORT: Port = Port(1);

#[derive(Clone, Debug)]
struct Blob {
    id: u64,
    size: usize,
}

impl Payload for Blob {
    fn size_bytes(&self) -> usize {
        self.size
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
    size: usize,
}

impl Streamer {
    fn new(peer: NodeId, count: u64, interval: Duration, size: usize) -> Self {
        Streamer {
            peer,
            count,
            sent: 0,
            interval,
            size,
        }
    }
}

const TICK: u64 = 1;

impl Process<Blob> for Streamer {
    fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
        ctx.set_timer_after(self.interval, TICK);
    }

    fn on_datagram(&mut self, _: &mut Context<'_, Blob>, _: Endpoint, _: Endpoint, _: Blob) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, _: Timer) {
        if self.sent < self.count {
            let msg = Blob {
                id: self.sent,
                size: self.size,
            };
            ctx.send(PORT, Endpoint::new(self.peer, PORT), msg);
            self.sent += 1;
            ctx.set_timer_after(self.interval, TICK);
        }
    }
}

/// Records the ids and arrival times of everything it hears.
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
        Streamer::new(NodeId(2), count, Duration::from_millis(10), 1000),
    );
    sim.add_node(NodeId(2), Sink::default());
    sim
}

#[test]
fn ideal_link_delivers_everything_in_order() {
    let mut sim = stream_sim(LinkProfile::ideal(), 1, 100);
    sim.run_until(SimTime::from_secs(5));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    assert_eq!(heard.len(), 100);
    let ids: Vec<u64> = heard.iter().map(|(_, id)| *id).collect();
    assert_eq!(ids, (0..100).collect::<Vec<_>>());
}

#[test]
fn lan_link_is_lossless_and_ordered() {
    let mut sim = stream_sim(LinkProfile::lan(), 2, 500);
    sim.run_until(SimTime::from_secs(10));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    assert_eq!(heard.len(), 500);
    let stats = sim.stats().class("blob");
    assert_eq!(stats.dropped_loss, 0);
    assert_eq!(stats.sent_msgs, 500);
    assert_eq!(stats.delivered_msgs, 500);
}

#[test]
fn wan_link_loses_roughly_one_percent() {
    let mut sim = stream_sim(LinkProfile::wan().with_loss(0.05), 3, 2000);
    sim.run_until(SimTime::from_secs(60));
    let stats = sim.stats().class("blob");
    assert_eq!(stats.sent_msgs, 2000);
    // 5 % nominal loss: accept a generous band around the expectation.
    assert!(
        (40..=180).contains(&stats.dropped_loss),
        "loss {} outside expected band",
        stats.dropped_loss
    );
}

#[test]
fn wan_link_reorders_some_datagrams() {
    let mut sim = stream_sim(LinkProfile::wan().with_loss(0.0), 4, 2000);
    sim.run_until(SimTime::from_secs(60));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    // No loss, but the WAN profile may duplicate a handful of datagrams.
    assert!(
        heard.len() >= 2000,
        "no loss configured, got {}",
        heard.len()
    );
    let inversions = heard.windows(2).filter(|w| w[0].1 > w[1].1).count();
    assert!(
        inversions > 0,
        "expected at least one reordering on the WAN"
    );
}

#[test]
fn partition_blocks_and_heal_restores() {
    let mut sim = stream_sim(LinkProfile::ideal(), 5, 1000);
    sim.partition_at(SimTime::from_secs(2), &[NodeId(1)], &[NodeId(2)]);
    sim.heal_at(SimTime::from_secs(4), &[NodeId(1)], &[NodeId(2)]);
    sim.run_until(SimTime::from_secs(20));
    let stats = sim.stats().class("blob");
    assert_eq!(stats.sent_msgs, 1000);
    // 2 seconds of the 10s stream fall inside the partition window.
    assert!(
        (150..=250).contains(&stats.dropped_partition),
        "partition drops {} outside expected band",
        stats.dropped_partition
    );
    assert_eq!(
        stats.delivered_msgs + stats.dropped_partition,
        1000,
        "every datagram is either delivered or partition-dropped on an ideal link"
    );
}

/// Two empty sides heal every cut, as the `Healed` event they trace says:
/// the stream is cut off for the same two seconds as by a named heal.
#[test]
fn a_heal_with_empty_sides_reopens_every_cut() {
    let mut sim = stream_sim(LinkProfile::ideal(), 5, 1000);
    sim.partition_at(SimTime::from_secs(2), &[NodeId(1)], &[NodeId(2)]);
    sim.heal_at(SimTime::from_secs(4), &[], &[]);
    sim.run_until(SimTime::from_secs(20));
    let stats = sim.stats().class("blob");
    assert!(
        (150..=250).contains(&stats.dropped_partition),
        "partition drops {} outside expected band",
        stats.dropped_partition
    );
    assert_eq!(stats.delivered_msgs + stats.dropped_partition, 1000);
}

#[test]
fn crash_stops_delivery_but_state_remains_inspectable() {
    let mut sim = stream_sim(LinkProfile::ideal(), 6, 1000);
    sim.crash_at(SimTime::from_secs(1), NodeId(2));
    sim.run_until(SimTime::from_secs(20));
    assert!(!sim.is_alive(NodeId(2)));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.len())
        .unwrap();
    assert!(heard < 110, "crashed node kept receiving: {heard}");
    let stats = sim.stats().class("blob");
    assert!(stats.dropped_dead > 0);
}

/// A fault scheduled for a time already gone takes effect now: the clock
/// does not run backwards for it, and timers armed afterwards keep their
/// order.
#[test]
fn a_fault_scheduled_in_the_past_takes_effect_now() {
    let mut sim = stream_sim(LinkProfile::ideal(), 6, 1000);
    sim.run_until(SimTime::from_secs(5));
    sim.crash_at(SimTime::from_secs(1), NodeId(2));
    assert_eq!(sim.next_event_at(), Some(SimTime::from_secs(5)));
    let mut last = sim.now();
    while sim
        .next_event_at()
        .is_some_and(|at| at <= SimTime::from_secs(6))
    {
        assert!(sim.step());
        assert!(sim.now() >= last, "{} after {last}", sim.now());
        last = sim.now();
    }
    assert!(!sim.is_alive(NodeId(2)));
    // The sink heard the 10 ms stream up to the crash at 5 s and no
    // further, and the streamer's timers went on firing every 10 ms.
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    assert_eq!(heard.len(), 500);
    assert!(heard.iter().all(|(t, _)| *t <= SimTime::from_secs(5)));
    let sent = sim.with_process(NodeId(1), |s: &Streamer| s.sent).unwrap();
    assert_eq!(sent, 600);
}

#[test]
fn restarted_node_receives_again() {
    let mut sim = stream_sim(LinkProfile::ideal(), 7, 1000);
    sim.crash_at(SimTime::from_secs(1), NodeId(2));
    sim.start_node_at(SimTime::from_secs(5), NodeId(2), Sink::default());
    sim.run_until(SimTime::from_secs(20));
    assert!(sim.is_alive(NodeId(2)));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    assert!(!heard.is_empty());
    // The replacement process only hears messages sent after t=5s.
    assert!(heard.iter().all(|(t, _)| *t >= SimTime::from_secs(5)));
}

#[test]
fn bandwidth_adds_serialization_delay() {
    // 1000-byte messages over a 10 kB/s link: 100 ms serialization each.
    let profile = LinkProfile::ideal().with_bandwidth(Some(10_000));
    let mut sim = Simulation::new(8);
    sim.set_default_profile(profile);
    sim.add_node(
        NodeId(1),
        Streamer::new(NodeId(2), 5, Duration::from_millis(1), 1000),
    );
    sim.add_node(NodeId(2), Sink::default());
    sim.run_until(SimTime::from_secs(5));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    assert_eq!(heard.len(), 5);
    // Sends are 1 ms apart but the NIC drains one message per 100 ms, so the
    // k-th arrival is gated by serialization, not by the send cadence.
    let gaps: Vec<Duration> = heard.windows(2).map(|w| w[1].0 - w[0].0).collect();
    for gap in &gaps {
        assert!(
            *gap >= Duration::from_millis(99),
            "arrivals not spaced by serialization: {gap:?}"
        );
    }
}

/// `with_bandwidth` refuses `Some(0)`; a profile whose public field is set
/// to 0 anyway fails in `route` with std's message for a float that does
/// not fit a `Duration`, never with an integer division by zero.
#[test]
#[should_panic(expected = "value is either too big or NaN")]
fn zero_bandwidth_set_directly_panics_in_route() {
    let mut profile = LinkProfile::ideal();
    profile.bandwidth = Some(0);
    let mut sim = Simulation::new(8);
    sim.set_default_profile(profile);
    sim.add_node(
        NodeId(1),
        Streamer::new(NodeId(2), 1, Duration::from_millis(1), 1000),
    );
    sim.add_node(NodeId(2), Sink::default());
    sim.run_until(SimTime::from_secs(1));
}

#[test]
fn same_seed_same_outcome_different_seed_differs() {
    let profile = LinkProfile::wan();
    let run = |seed: u64| {
        let mut sim = stream_sim(profile.clone(), seed, 1000);
        sim.run_until(SimTime::from_secs(30));
        let heard = sim
            .with_process(NodeId(2), |s: &Sink| s.heard.clone())
            .unwrap();
        (heard, sim.stats().class("blob"))
    };
    let (heard_a, stats_a) = run(42);
    let (heard_b, stats_b) = run(42);
    assert_eq!(heard_a, heard_b, "same seed must reproduce identical runs");
    assert_eq!(stats_a, stats_b);
    let (heard_c, _) = run(43);
    assert_ne!(heard_a, heard_c, "different seeds should diverge");
}

/// A process that cancels its own timer before it fires.
struct Canceller {
    armed: Option<TimerId>,
    fired: bool,
}

impl Process<Blob> for Canceller {
    fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
        self.armed = Some(ctx.set_timer_after(Duration::from_secs(1), 99));
        ctx.set_timer_after(Duration::from_millis(100), 1);
    }

    fn on_datagram(&mut self, _: &mut Context<'_, Blob>, _: Endpoint, _: Endpoint, _: Blob) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, timer: Timer) {
        match timer.tag {
            1 => {
                if let Some(id) = self.armed.take() {
                    ctx.cancel_timer(id);
                }
            }
            99 => self.fired = true,
            _ => unreachable!(),
        }
    }
}

#[test]
fn cancelled_timer_never_fires() {
    let mut sim: Simulation<Blob> = Simulation::new(9);
    sim.add_node(
        NodeId(1),
        Canceller {
            armed: None,
            fired: false,
        },
    );
    sim.run_until(SimTime::from_secs(5));
    let fired = sim
        .with_process(NodeId(1), |c: &Canceller| c.fired)
        .unwrap();
    assert!(!fired);
}

/// `next_event_at` names the time `step` dispatches at — for every event
/// of a streaming run, and for a cancelled timer too: it is reported (a
/// pacer wakes for it) and `step` squashes it without firing.
#[test]
fn next_event_at_agrees_with_step() {
    let mut sim = stream_sim(LinkProfile::lan(), 3, 20);
    let mut steps = 0;
    while let Some(at) = sim.next_event_at() {
        assert!(sim.step());
        assert_eq!(sim.now(), at, "step dispatched at the announced time");
        steps += 1;
    }
    assert!(steps > 40, "20 timers + 20 deliveries at least: {steps}");
    assert!(!sim.step(), "an empty queue announces nothing");

    let mut sim: Simulation<Blob> = Simulation::new(9);
    sim.add_node(
        NodeId(1),
        Canceller {
            armed: None,
            fired: false,
        },
    );
    let mut announced = Vec::new();
    while let Some(at) = sim.next_event_at() {
        announced.push(at);
        sim.step();
        assert_eq!(sim.now(), at);
    }
    // Boot, the 100 ms canceller, and the squashed 1 s timer.
    assert_eq!(
        announced,
        [
            SimTime::ZERO,
            SimTime::from_micros(100_000),
            SimTime::from_secs(1)
        ]
    );
    let fired = sim
        .with_process(NodeId(1), |c: &Canceller| c.fired)
        .unwrap();
    assert!(!fired, "the squashed timer was announced but never fired");
}

/// A process that exits when told to.
struct Quitter {
    heard_after_exit: bool,
    exited: bool,
}

impl Process<Blob> for Quitter {
    fn on_datagram(&mut self, ctx: &mut Context<'_, Blob>, _: Endpoint, _: Endpoint, msg: Blob) {
        if self.exited {
            self.heard_after_exit = true;
        }
        if msg.id == 0 {
            self.exited = true;
            ctx.exit();
        }
    }

    fn on_timer(&mut self, _: &mut Context<'_, Blob>, _: Timer) {}
}

#[test]
fn exit_terminates_the_process() {
    let mut sim = Simulation::new(10);
    sim.add_node(
        NodeId(1),
        Streamer::new(NodeId(2), 10, Duration::from_millis(10), 100),
    );
    sim.add_node(
        NodeId(2),
        Quitter {
            heard_after_exit: false,
            exited: false,
        },
    );
    sim.run_until(SimTime::from_secs(2));
    assert!(!sim.is_alive(NodeId(2)));
    let leaked = sim
        .with_process(NodeId(2), |q: &Quitter| q.heard_after_exit)
        .unwrap();
    assert!(!leaked, "messages delivered after exit");
}

#[test]
fn invoke_drives_a_process_with_context() {
    let mut sim: Simulation<Blob> = Simulation::new(11);
    sim.add_node(NodeId(1), Sink::default());
    sim.add_node(NodeId(2), Sink::default());
    sim.run_until(SimTime::from_millis(1));
    // Drive node 1 to send a message "by hand".
    sim.invoke(NodeId(1), |_: &mut Sink, ctx| {
        ctx.send(
            PORT,
            Endpoint::new(NodeId(2), PORT),
            Blob { id: 7, size: 10 },
        );
    })
    .expect("invoke should find the Sink");
    sim.run_until(SimTime::from_secs(1));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.clone())
        .unwrap();
    assert_eq!(heard.len(), 1);
    assert_eq!(heard[0].1, 7);
}

#[test]
fn invoke_wrong_type_is_none_and_has_no_side_effects() {
    let mut sim: Simulation<Blob> = Simulation::new(12);
    sim.add_node(NodeId(1), Sink::default());
    sim.run_until(SimTime::from_millis(1));
    let r = sim.invoke(NodeId(1), |_: &mut Canceller, _ctx| ());
    assert!(r.is_none());
}

#[test]
fn per_link_override_beats_default() {
    let mut sim = Simulation::new(13);
    sim.set_default_profile(LinkProfile::ideal());
    // Break only the 1→2 link with 100% loss.
    sim.set_link_profile(NodeId(1), NodeId(2), LinkProfile::ideal().with_loss(1.0));
    sim.add_node(
        NodeId(1),
        Streamer::new(NodeId(2), 10, Duration::from_millis(1), 100),
    );
    sim.add_node(NodeId(2), Sink::default());
    sim.run_until(SimTime::from_secs(1));
    let heard = sim
        .with_process(NodeId(2), |s: &Sink| s.heard.len())
        .unwrap();
    assert_eq!(heard, 0);
    assert_eq!(sim.stats().class("blob").dropped_loss, 10);
}

/// The tracer sees every boot, crash and drop, and the deliveries of the
/// classes it asked for; a send is no event. Every traced class conserves
/// against the network's counters, and a tracer that asks for no class
/// sees the same run without its deliveries.
#[test]
fn tracer_observes_the_whole_lifecycle() {
    use simnet::{DropReason, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    let run = |delivered: fn(&str) -> bool| {
        let log: Rc<RefCell<Vec<String>>> = Rc::default();
        let sink = Rc::clone(&log);
        let mut sim = stream_sim(LinkProfile::ideal().with_loss(0.5), 20, 50);
        sim.set_tracer(delivered, move |_, event| {
            let tag = match event {
                TraceEvent::Delivered { .. } => "delivered",
                TraceEvent::Dropped {
                    reason: DropReason::Loss,
                    ..
                } => "lost",
                TraceEvent::Dropped { .. } => "dropped",
                TraceEvent::NodeStarted { .. } => "started",
                TraceEvent::NodeCrashed { .. } => "crashed",
                TraceEvent::NodeRestarted { .. } => "restarted",
                TraceEvent::Partitioned { .. } => "partitioned",
                TraceEvent::Healed { .. } => "healed",
                TraceEvent::LinkOverride { .. } => "link-override",
            };
            sink.borrow_mut().push(tag.to_owned());
        });
        sim.crash_at(SimTime::from_secs(2), NodeId(2));
        sim.run_until(SimTime::from_secs(3));
        let log = log.borrow().clone();
        (log, sim.stats().class("blob"))
    };
    let (log, stats) = run(|class| class == "blob");
    let count = |log: &[String], tag: &str| log.iter().filter(|t| *t == tag).count() as u64;
    assert_eq!(count(&log, "started"), 2, "both nodes boot");
    assert_eq!(count(&log, "crashed"), 1);
    assert!(count(&log, "lost") > 5, "loss model traced");
    assert!(count(&log, "delivered") > 5);
    // Conservation mirrors the stats counters: every send was delivered
    // or lost, and the tracer saw each delivery and each loss.
    assert_eq!(stats.sent_msgs, 50, "every send counted");
    assert_eq!(count(&log, "delivered"), stats.delivered_msgs);
    assert_eq!(count(&log, "lost"), stats.dropped_loss);
    assert_eq!(stats.delivered_msgs + stats.dropped_loss, stats.sent_msgs);
    // Asking for no class drops the deliveries from the trace and nothing
    // else from the run.
    let (quiet, same) = run(|_| false);
    let kept: Vec<&String> = log.iter().filter(|t| *t != "delivered").collect();
    assert_eq!(quiet.iter().collect::<Vec<_>>(), kept);
    assert_eq!(same, stats);
}

/// The end clock is the time of the last datagram sent or delivered,
/// traced or not: not that of a timer that sends nothing, nor the time a
/// run stops at.
#[test]
fn the_datagram_clock_follows_sends_and_deliveries_not_timers() {
    let profile = LinkProfile::ideal().with_base_delay(Duration::from_millis(3));
    let mut sim = stream_sim(profile, 4, 5);
    assert_eq!(sim.last_datagram_at(), SimTime::ZERO);
    // Sent at 10, 20 and 30 ms; the first two delivered at 13 and 23 ms.
    sim.run_until(SimTime::from_millis(30));
    assert_eq!(sim.last_datagram_at(), SimTime::from_millis(30));
    sim.run_until(SimTime::from_millis(31));
    assert_eq!(sim.last_datagram_at(), SimTime::from_millis(30));
    // The last send, at 50 ms, is delivered at 53 ms; the streamer's last
    // timer fires at 60 ms and sends nothing.
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.last_datagram_at(), SimTime::from_millis(53));
    assert_eq!(sim.now(), SimTime::from_secs(1));
    // A datagram that finds its destination crashed moves it too.
    sim.crash_at(SimTime::from_secs(2), NodeId(2));
    sim.invoke(NodeId(1), |s: &mut Streamer, ctx| {
        s.count += 1;
        ctx.set_timer_after(Duration::from_secs(2), TICK);
    });
    sim.run_until(SimTime::from_secs(4));
    assert_eq!(sim.last_datagram_at(), SimTime::from_millis(3_003));
    assert_eq!(sim.stats().class("blob").dropped_dead, 1);
}
