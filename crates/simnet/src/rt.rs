//! Wall-clock pacing of a [`Simulation`].
//!
//! The discrete-event [`Simulation`] is both the measurement substrate and
//! the deployment one: [`run_paced`] dispatches the very same events as
//! [`Simulation::run_until`], in the same order, but only once their
//! scheduled time has really elapsed since a start [`Instant`]. The queue,
//! timer table, router, loss model, partitions, topology and tracer are
//! the simulator's own, not a second copy, so a service developed against
//! the simulator runs live without any code change (see the `live_demo`
//! example of the root crate).
//!
//! Handlers observe the *scheduled* time of the event they handle, not
//! the (slightly later) instant the pacer woke up, so periodic timers do
//! not accumulate wall-clock drift and a paced run is the deterministic
//! run, slowed to wall time.

use std::time::{Duration, Instant};

use crate::net::Payload;
use crate::sim::Simulation;
use crate::time::SimTime;

/// Runs `sim` up to `until` like [`Simulation::run_until`], sleeping
/// before each event until `epoch` plus its scheduled time, and before
/// returning until `epoch + until`.
pub fn run_paced<M: Payload>(sim: &mut Simulation<M>, until: SimTime, epoch: Instant) {
    while let Some(at) = sim.next_event_at().filter(|&at| at <= until) {
        sleep_until(epoch, at);
        sim.step();
    }
    sleep_until(epoch, until);
    sim.run_until(until);
}

fn sleep_until(epoch: Instant, at: SimTime) {
    let deadline = epoch + Duration::from_micros(at.as_micros());
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Endpoint, LinkProfile, NodeId, Port};
    use crate::process::{Context, Process, Timer};

    #[derive(Clone, Debug)]
    struct Num(u64);

    impl Payload for Num {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    /// Emits a message every 10 ms.
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

    fn ticker_pair() -> Simulation<Num> {
        let mut sim = Simulation::new(1);
        sim.set_default_profile(LinkProfile::lan().with_loss(0.2));
        sim.add_node(
            NodeId(1),
            Ticker {
                peer: NodeId(2),
                sent: 0,
            },
        );
        sim.add_node(NodeId(2), Collector::default());
        sim
    }

    #[test]
    fn paced_run_dispatches_what_run_until_does_in_wall_time() {
        let until = SimTime::from_millis(120);
        let mut unpaced = ticker_pair();
        unpaced.run_until(until);
        let mut paced = ticker_pair();
        let epoch = Instant::now();
        run_paced(&mut paced, until, epoch);
        assert!(epoch.elapsed() >= Duration::from_millis(120));
        assert_eq!(paced.now(), unpaced.now());
        let got = |sim: &Simulation<Num>| {
            sim.with_process(NodeId(2), |c: &Collector| c.got.clone())
                .unwrap()
        };
        assert!(!got(&paced).is_empty());
        assert_eq!(got(&paced), got(&unpaced));
        assert_eq!(
            paced.stats().class("default"),
            unpaced.stats().class("default")
        );
    }
}
