//! The process model: event handlers and the [`Context`] through which a
//! process interacts with the simulated world.
//!
//! A [`Process`] is a state machine driven by three kinds of events:
//! `on_start` (once, when the node boots), `on_datagram` (a message arrived
//! on one of the node's ports) and `on_timer` (a timer the process armed has
//! fired). Handlers receive a [`Context`] that buffers side effects — sends,
//! timer operations — which the simulator applies after the handler returns.
//! This keeps handlers free of borrow gymnastics while preserving
//! deterministic effect ordering. A sent message is stored at once, in the
//! cell of the simulator's event slab it will be delivered from, and the
//! buffered effect is that cell's index; the network's verdict on it (loss,
//! delay, duplication) is still drawn after the handler returns, in effect
//! order, because a handler may draw from the shared [`SimRng`] after
//! sending.

use std::any::Any;
use std::fmt;
use std::time::Duration;

use crate::net::{Endpoint, NodeId, Payload, Port};
use crate::rng::SimRng;
use crate::sim::{EventKind, Slab};
use crate::time::SimTime;

/// Handle to a pending timer, returned by [`Context::set_timer_after`] and
/// used with [`Context::cancel_timer`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl fmt::Debug for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// A fired timer, passed to [`Process::on_timer`].
///
/// The `tag` is an application-chosen discriminant (processes typically
/// define constants such as `const HEARTBEAT: u64 = 1`); the `id` matches
/// the handle returned when the timer was armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timer {
    /// Handle of this timer.
    pub id: TimerId,
    /// Application-chosen discriminant supplied when the timer was armed.
    pub tag: u64,
}

/// A state machine living on a simulated node.
///
/// Implementations must be `'static` so the simulator can store them as
/// trait objects and hand them back to tests via
/// [`Simulation::with_process`](crate::Simulation::with_process).
pub trait Process<M: Payload>: 'static {
    /// Called once when the node boots (either at
    /// [`Simulation::add_node`](crate::Simulation::add_node) time or when a
    /// scheduled start event fires). Arm initial timers here.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// A datagram arrived addressed to `to` (a port on this node).
    fn on_datagram(&mut self, ctx: &mut Context<'_, M>, from: Endpoint, to: Endpoint, msg: M);

    /// A previously armed timer fired.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: Timer);
}

/// Object-safe supertrait adding `Any` access for test introspection.
pub(crate) trait AnyProcess<M: Payload>: Process<M> {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M: Payload, T: Process<M>> AnyProcess<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A side effect requested by a handler, applied by the simulator after the
/// handler returns.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Route the delivery [`Context::send`] built in this slab cell.
    Send(u32),
    SetTimer {
        id: TimerId,
        at: SimTime,
        tag: u64,
    },
    CancelTimer(TimerId),
}

/// The interface a running [`Process`] uses to observe and affect the world.
///
/// All mutations are buffered and applied in order once the handler returns,
/// so two sends issued back-to-back are serialized onto the wire in that
/// order.
pub struct Context<'a, M: Payload> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) effects: &'a mut Vec<Effect>,
    pub(crate) bodies: &'a mut Slab<M>,
    pub(crate) next_timer_id: &'a mut u64,
    /// Raised by [`Context::exit`]; the simulator reads it once the
    /// handler has returned.
    pub(crate) exited: bool,
}

impl<M: Payload> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("node", &self.node)
            .finish()
    }
}

impl<M: Payload> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Deterministic random-number generator shared by the whole simulation.
    ///
    /// Draws are consumed in event order, so a fixed simulation seed yields a
    /// fully reproducible run.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends `msg` from local port `from_port` to `to`.
    ///
    /// Delivery (or loss) is governed by the link profile between the two
    /// nodes; see [`LinkProfile`](crate::LinkProfile).
    pub fn send(&mut self, from_port: Port, to: Endpoint, msg: M) {
        let (cell, vacant) = self.bodies.vacant();
        *vacant = Some(EventKind::Deliver {
            from: Endpoint::new(self.node, from_port),
            to,
            msg,
            sent_at: self.now,
        });
        self.effects.push(Effect::Send(cell));
    }

    /// Arms a one-shot timer that fires `after` from now, carrying `tag`.
    ///
    /// Returns a handle usable with [`Context::cancel_timer`]. Periodic
    /// behaviour is obtained by re-arming from `on_timer`.
    pub fn set_timer_after(&mut self, after: Duration, tag: u64) -> TimerId {
        self.set_timer_at(self.now + after, tag)
    }

    /// Arms a one-shot timer that fires at absolute time `at` (clamped to be
    /// no earlier than now), carrying `tag`.
    pub fn set_timer_at(&mut self, at: SimTime, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        let at = at.max(self.now);
        self.effects.push(Effect::SetTimer { id, at, tag });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Terminates this process gracefully at the end of the current handler:
    /// no further events will be delivered to it.
    pub fn exit(&mut self) {
        self.exited = true;
    }
}
