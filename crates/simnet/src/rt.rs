//! Real-time execution of the same [`crate::Process`] state
//! machines that run in the simulator.
//!
//! The discrete-event [`Simulation`] is the measurement substrate;
//! [`RealTimeRunner`] is the *deployment* substrate: a wall-clock pacer
//! over that very scheduler. It owns a `Simulation` and a start
//! [`Instant`], sleeps until the next event's scheduled time has really
//! elapsed, and then lets the simulation dispatch it — so the queue,
//! timer table, router, loss model, partitions, topology and tracer are
//! the simulator's own, not a second copy. A service developed and
//! tested against the simulator therefore runs live without any code
//! change — the VoD servers and clients of this workspace stream actual
//! wall-clock seconds of video this way (see the `live_demo` example of
//! the root crate).
//!
//! Handlers observe the *scheduled* time of the event they handle, not
//! the (slightly later) instant the pacer woke up, so periodic timers do
//! not accumulate wall-clock drift. The runner is single-threaded; given
//! the same seed, the same random draws decide losses and jitter, but
//! which events an external call ([`RealTimeRunner::invoke`],
//! [`RealTimeRunner::stop_node`]) lands between follows real time.

use std::time::{Duration, Instant};

use crate::net::{LinkProfile, NodeId, Payload};
use crate::process::{Context, Process};
use crate::sim::Simulation;
use crate::stats::NetStats;
use crate::time::SimTime;

/// A wall-clock executor for [`Process`] state machines.
///
/// # Examples
///
/// ```
/// use simnet::rt::RealTimeRunner;
/// use simnet::{Context, Endpoint, NodeId, Payload, Port, Process, Timer};
/// use std::time::Duration;
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Payload for Ping {
///     fn size_bytes(&self) -> usize { 8 }
/// }
///
/// struct Echo { heard: u32 }
/// impl Process<Ping> for Echo {
///     fn on_datagram(&mut self, _: &mut Context<'_, Ping>, _: Endpoint, _: Endpoint, _: Ping) {
///         self.heard += 1;
///     }
///     fn on_timer(&mut self, _: &mut Context<'_, Ping>, _: Timer) {}
/// }
///
/// struct Beeper { peer: NodeId }
/// impl Process<Ping> for Beeper {
///     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
///         ctx.set_timer_after(Duration::from_millis(5), 1);
///     }
///     fn on_datagram(&mut self, _: &mut Context<'_, Ping>, _: Endpoint, _: Endpoint, _: Ping) {}
///     fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, _: Timer) {
///         ctx.send(Port(1), Endpoint::new(self.peer, Port(1)), Ping);
///     }
/// }
///
/// let mut rt = RealTimeRunner::new(7);
/// rt.add_node(NodeId(1), Beeper { peer: NodeId(2) });
/// rt.add_node(NodeId(2), Echo { heard: 0 });
/// rt.run_for(Duration::from_millis(50)); // real wall-clock time
/// let heard = rt.with_process(NodeId(2), |e: &Echo| e.heard).unwrap();
/// assert_eq!(heard, 1);
/// ```
#[derive(Debug)]
pub struct RealTimeRunner<M: Payload> {
    started: Instant,
    sim: Simulation<M>,
}

impl<M: Payload> RealTimeRunner<M> {
    /// Creates a runner; `seed` controls the loss/jitter draws.
    pub fn new(seed: u64) -> Self {
        RealTimeRunner {
            started: Instant::now(),
            sim: Simulation::new(seed),
        }
    }

    /// Time elapsed since the runner was created, as the [`SimTime`] the
    /// processes observe.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.started.elapsed().as_micros() as u64)
    }

    /// Traffic counters accumulated so far.
    pub fn stats(&self) -> &NetStats {
        self.sim.stats()
    }

    /// The paced simulation, for everything the runner does not wrap:
    /// partitions, topology, tracer, profiling. Times passed to its
    /// `*_at` methods are on the runner's clock ([`RealTimeRunner::now`]).
    pub fn sim_mut(&mut self) -> &mut Simulation<M> {
        &mut self.sim
    }

    /// Sets the profile applied to links without an override.
    pub fn set_default_profile(&mut self, profile: LinkProfile) {
        self.sim.set_default_profile(profile);
    }

    /// Overrides the directed link `from → to`.
    pub fn set_link_profile(&mut self, from: NodeId, to: NodeId, profile: LinkProfile) {
        self.sim.set_link_profile(from, to, profile);
    }

    /// Boots `process` on `node` immediately, running its `on_start`.
    ///
    /// # Panics
    ///
    /// Panics if a live process already occupies `node`.
    pub fn add_node(&mut self, node: NodeId, process: impl Process<M>) {
        self.catch_up();
        self.sim.add_node(node, process);
        self.sim.run_until(self.sim.now());
    }

    /// Stops delivering events to `node` (its state stays inspectable).
    pub fn stop_node(&mut self, node: NodeId) {
        self.catch_up();
        self.sim.crash_at(self.sim.now(), node);
        self.sim.run_until(self.sim.now());
    }

    /// Whether `node` hosts a live process.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.sim.is_alive(node)
    }

    /// Runs the event loop for `duration` of real time, sleeping between
    /// events.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = Instant::now() + duration;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let due = self
                .sim
                .next_event_at()
                .map(|at| self.started + Duration::from_micros(at.as_micros()));
            match due {
                // A cancelled timer still wakes the pacer; `step` squashes it.
                Some(at) if at <= now => {
                    self.sim.step();
                }
                _ => {
                    let wake = due.map_or(deadline, |at| at.min(deadline));
                    std::thread::sleep(wake.saturating_duration_since(now));
                }
            }
        }
    }

    /// Borrows the process on `node` as `T` (post-mortem friendly).
    pub fn with_process<T: 'static, R>(&self, node: NodeId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.sim.with_process(node, f)
    }

    /// Invokes `f` on the live process at `node` with a [`Context`],
    /// applying its side effects — the live-mode analogue of
    /// [`Simulation::invoke`].
    pub fn invoke<T: 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_, M>) -> R,
    ) -> Option<R> {
        self.catch_up();
        self.sim.invoke(node, f)
    }

    /// Dispatches every event whose time has really elapsed and moves the
    /// simulation clock to the wall clock, so an external call acts "now".
    fn catch_up(&mut self) {
        self.sim.run_until(self.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Endpoint, Port};
    use crate::process::Timer;

    #[derive(Clone, Debug)]
    struct Num(u64);

    impl Payload for Num {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    /// Emits a message every 10 ms of real time.
    struct Ticker {
        peer: NodeId,
        sent: u64,
    }

    impl Process<Num> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            ctx.set_timer_after(Duration::from_millis(10), 1);
        }

        fn on_datagram(&mut self, _: &mut Context<'_, Num>, _: Endpoint, _: Endpoint, _: Num) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, Num>, _: Timer) {
            ctx.send(Port(1), Endpoint::new(self.peer, Port(1)), Num(self.sent));
            self.sent += 1;
            ctx.set_timer_after(Duration::from_millis(10), 1);
        }
    }

    #[derive(Default)]
    struct Collector {
        got: Vec<u64>,
    }

    impl Process<Num> for Collector {
        fn on_datagram(&mut self, _: &mut Context<'_, Num>, _: Endpoint, _: Endpoint, m: Num) {
            self.got.push(m.0);
        }

        fn on_timer(&mut self, _: &mut Context<'_, Num>, _: Timer) {}
    }

    #[test]
    fn periodic_traffic_flows_in_real_time() {
        let mut rt = RealTimeRunner::new(1);
        rt.add_node(
            NodeId(1),
            Ticker {
                peer: NodeId(2),
                sent: 0,
            },
        );
        rt.add_node(NodeId(2), Collector::default());
        rt.run_for(Duration::from_millis(120));
        let got = rt
            .with_process(NodeId(2), |c: &Collector| c.got.clone())
            .unwrap();
        // ~12 ticks expected; accept generous scheduling slack.
        assert!(
            (5..=14).contains(&got.len()),
            "unexpected tick count {}",
            got.len()
        );
        assert!(got.windows(2).all(|w| w[0] < w[1]), "out of order");
    }

    #[test]
    fn stopped_node_receives_nothing_more() {
        let mut rt = RealTimeRunner::new(2);
        rt.add_node(
            NodeId(1),
            Ticker {
                peer: NodeId(2),
                sent: 0,
            },
        );
        rt.add_node(NodeId(2), Collector::default());
        rt.run_for(Duration::from_millis(50));
        rt.stop_node(NodeId(2));
        let before = rt
            .with_process(NodeId(2), |c: &Collector| c.got.len())
            .unwrap();
        rt.run_for(Duration::from_millis(50));
        let after = rt
            .with_process(NodeId(2), |c: &Collector| c.got.len())
            .unwrap();
        assert_eq!(before, after);
        assert!(rt.stats().class("default").dropped_dead > 0);
    }

    #[test]
    fn invoke_applies_effects_live() {
        let mut rt = RealTimeRunner::new(3);
        rt.add_node(NodeId(1), Collector::default());
        rt.add_node(NodeId(2), Collector::default());
        rt.invoke(NodeId(1), |_: &mut Collector, ctx| {
            ctx.send(Port(1), Endpoint::new(NodeId(2), Port(1)), Num(9));
        })
        .expect("invoke works");
        rt.run_for(Duration::from_millis(20));
        let got = rt
            .with_process(NodeId(2), |c: &Collector| c.got.clone())
            .unwrap();
        assert_eq!(got, vec![9]);
    }

    #[test]
    fn lossy_profile_drops_in_real_time_too() {
        let mut rt = RealTimeRunner::new(4);
        rt.set_default_profile(LinkProfile::ideal().with_loss(1.0));
        rt.add_node(
            NodeId(1),
            Ticker {
                peer: NodeId(2),
                sent: 0,
            },
        );
        rt.add_node(NodeId(2), Collector::default());
        rt.run_for(Duration::from_millis(60));
        let got = rt
            .with_process(NodeId(2), |c: &Collector| c.got.len())
            .unwrap();
        assert_eq!(got, 0);
        assert!(rt.stats().class("default").dropped_loss > 0);
    }

    /// The runner paces the simulator's own router, so everything the
    /// simulator models applies live: a Gilbert–Elliott burst profile and
    /// a partition both drop, and a tracer on the inner simulation sees
    /// the traffic.
    #[test]
    fn burst_loss_partitions_and_tracing_apply_live() {
        use crate::sim::TraceEvent;
        use std::cell::Cell;
        use std::rc::Rc;

        // Burst loss: no i.i.d. loss at all, but the chain enters its bad
        // state on the first datagram and drops everything there.
        let mut rt = RealTimeRunner::new(5);
        rt.set_default_profile(LinkProfile::ideal().with_burst_loss(1.0, 0.0, 1.0));
        rt.add_node(
            NodeId(1),
            Ticker {
                peer: NodeId(2),
                sent: 0,
            },
        );
        rt.add_node(NodeId(2), Collector::default());
        rt.run_for(Duration::from_millis(60));
        assert!(rt.stats().class("default").dropped_loss > 0);
        assert_eq!(rt.stats().class("default").delivered_msgs, 0);

        // Tracing, then a partition cutting the same pair.
        let mut rt = RealTimeRunner::new(6);
        let sent = Rc::new(Cell::new(0u32));
        let delivered = Rc::new(Cell::new(0u32));
        let (s, d) = (Rc::clone(&sent), Rc::clone(&delivered));
        rt.sim_mut().set_tracer(move |e| match e {
            TraceEvent::Sent { .. } => s.set(s.get() + 1),
            TraceEvent::Delivered { .. } => d.set(d.get() + 1),
            _ => {}
        });
        rt.add_node(
            NodeId(1),
            Ticker {
                peer: NodeId(2),
                sent: 0,
            },
        );
        rt.add_node(NodeId(2), Collector::default());
        rt.run_for(Duration::from_millis(50));
        assert!(sent.get() > 0 && delivered.get() > 0);
        let now = rt.now();
        rt.sim_mut().partition_at(now, &[NodeId(1)], &[NodeId(2)]);
        rt.run_for(Duration::from_millis(50));
        let heard = delivered.get();
        rt.run_for(Duration::from_millis(50));
        assert_eq!(delivered.get(), heard, "the partition cut delivery");
        assert!(rt.stats().class("default").dropped_partition > 0);
    }
}
