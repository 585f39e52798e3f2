//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns the event queue, the simulated hosts and the network
//! model. It is fully deterministic: given the same seed and the same
//! sequence of API calls, two runs produce identical event orders, identical
//! random draws and therefore identical results — the property that makes
//! every figure in the experiment harness exactly reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::{Duration, Instant};

use crate::net::{Endpoint, LinkProfile, NodeId, Payload};
use crate::process::{AnyProcess, Context, Effect, Process, Timer, TimerId};
use crate::profile::SimProfile;
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::topo::SiteTopology;

/// Why a datagram never reached its destination process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The random loss model dropped it.
    Loss,
    /// Source and destination were partitioned.
    Partition,
    /// The destination node was crashed or absent.
    DeadNode,
}

impl DropReason {
    /// Stable lower-snake-case name, used by CSV and JSONL exports.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::Partition => "partition",
            DropReason::DeadNode => "dead_node",
        }
    }
}

/// A structured observability event, delivered to the tracer installed
/// with [`Simulation::set_tracer`]. Tracing is entirely passive: it cannot
/// affect the run.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A datagram was submitted to the network.
    Sent {
        /// Simulated time of the send.
        at: SimTime,
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class of the payload.
        class: &'static str,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A datagram reached a live destination process.
    Delivered {
        /// Simulated time of the delivery.
        at: SimTime,
        /// Simulated time at which the datagram was submitted to the
        /// network (so `at - sent_at` is the end-to-end latency, including
        /// serialization, propagation and reordering).
        sent_at: SimTime,
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class of the payload.
        class: &'static str,
    },
    /// A datagram was dropped.
    Dropped {
        /// Simulated time of the drop decision.
        at: SimTime,
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Traffic class of the payload.
        class: &'static str,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A node booted (its `on_start` is about to run).
    NodeStarted {
        /// Simulated time of the boot.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// A node crashed.
    NodeCrashed {
        /// Simulated time of the crash.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// A previously crashed node booted again (repair): its `on_start` is
    /// about to run on a fresh process. Emitted instead of
    /// [`TraceEvent::NodeStarted`] when the node had crashed before.
    NodeRestarted {
        /// Simulated time of the reboot.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// A partition came up between two sets of nodes.
    Partitioned {
        /// Simulated time the partition took effect.
        at: SimTime,
        /// One side of the cut.
        a: Vec<NodeId>,
        /// The other side of the cut.
        b: Vec<NodeId>,
    },
    /// A partition was healed. Empty node lists mean *all* partitions were
    /// removed at once ([`Simulation::heal_all_at`]).
    Healed {
        /// Simulated time the heal took effect.
        at: SimTime,
        /// One side of the former cut.
        a: Vec<NodeId>,
        /// The other side of the former cut.
        b: Vec<NodeId>,
    },
    /// Per-link profile overrides between two node sets were installed
    /// (`degraded = true`) or removed (`degraded = false`) — the WAN
    /// brownout/restore primitive of
    /// [`Simulation::set_link_overrides_at`].
    LinkOverride {
        /// Simulated time the change took effect.
        at: SimTime,
        /// One side of the affected links.
        a: Vec<NodeId>,
        /// The other side of the affected links.
        b: Vec<NodeId>,
        /// Whether overrides were installed (`true`) or cleared (`false`).
        degraded: bool,
    },
}

type Tracer = Box<dyn FnMut(&TraceEvent)>;

enum EventKind<M: Payload> {
    Deliver {
        from: Endpoint,
        to: Endpoint,
        msg: M,
        class: &'static str,
        sent_at: SimTime,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
    },
    Start {
        node: NodeId,
        process: Box<dyn AnyProcess<M>>,
    },
    Crash {
        node: NodeId,
    },
    Partition {
        a: Vec<NodeId>,
        b: Vec<NodeId>,
    },
    Heal {
        a: Vec<NodeId>,
        b: Vec<NodeId>,
    },
    HealAll,
    SetDefaultProfile {
        profile: LinkProfile,
    },
    SetLinkOverrides {
        a: Vec<NodeId>,
        b: Vec<NodeId>,
        profile: Option<LinkProfile>,
    },
}

/// The pending-event queue: one-integer keys in a binary heap, the event
/// bodies in a slab beside it.
///
/// A sift moves and compares 16-byte keys instead of whole `EventKind`s
/// (a `Deliver` carries the application message inline), and a popped
/// body's slot goes on the free list, so the slab never grows past the
/// peak queue depth. `seq` is unique and assigned in push order, so
/// `(at, seq)` is a total order: same-instant events pop in the order
/// they were scheduled, which is the determinism contract every golden
/// file rests on.
struct EventQueue<M: Payload> {
    /// Min-heap of [`EventQueue::key`]s.
    heap: BinaryHeap<Reverse<u128>>,
    bodies: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    seq: u64,
}

/// Bits of a key holding `at` in microseconds: 8.9 simulated years.
const AT_BITS: u32 = 48;
/// Bits of a key holding `seq`: 2.8 × 10¹⁴ events scheduled in one run.
const SEQ_BITS: u32 = 48;
const SLOT_BITS: u32 = u32::BITS;

impl<M: Payload> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            bodies: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Packs `at | seq | slot`, most significant first, so the numeric
    /// order of keys *is* `(at, seq)` order and a sift step is one integer
    /// compare; the slot rides along in the low bits and never decides a
    /// comparison because `seq` is unique.
    ///
    /// # Panics
    ///
    /// Panics if `at` or `seq` does not fit its field: a wrapped key would
    /// silently reorder the run.
    fn key(at: SimTime, seq: u64, slot: u32) -> u128 {
        assert!(
            at.as_micros() >> AT_BITS == 0,
            "event scheduled past 2^48 us of simulated time"
        );
        assert!(seq >> SEQ_BITS == 0, "over 2^48 events scheduled");
        (u128::from(at.as_micros()) << (SEQ_BITS + SLOT_BITS))
            | (u128::from(seq) << SLOT_BITS)
            | u128::from(slot)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn at_of(key: u128) -> SimTime {
        SimTime::from_micros((key >> (SEQ_BITS + SLOT_BITS)) as u64)
    }

    fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| Self::at_of(key))
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.bodies[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.bodies.len()).expect("over 2^32 pending events");
                self.bodies.push(Some(kind));
                slot
            }
        };
        self.heap.push(Reverse(Self::key(at, self.seq, slot)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, EventKind<M>)> {
        let Reverse(key) = self.heap.pop()?;
        // Truncation keeps exactly the slot field.
        let slot = key as u32;
        let kind = self.bodies[slot as usize]
            .take()
            .expect("a queued key points at a filled slot");
        self.free.push(slot);
        Some((Self::at_of(key), kind))
    }
}

/// One row of the node table. A row whose `process` is `None` is padding
/// below a higher booted id, not a node.
struct NodeSlot<M: Payload> {
    process: Option<Box<dyn AnyProcess<M>>>,
    alive: bool,
    /// When this node's NIC finishes serializing what it already queued
    /// (only advanced by links with a finite bandwidth).
    egress_busy: SimTime,
}

/// A deterministic discrete-event simulation of a set of communicating
/// processes.
///
/// # Panics
///
/// Scheduling anything — a timer, a delivery, a fault — later than 2⁴⁸ µs
/// (8.9 years) of simulated time, or more than 2⁴⁸ events in one run,
/// panics: the event queue orders on one integer with 48 bits for each.
///
/// # Examples
///
/// ```
/// use simnet::{Context, Endpoint, NodeId, Payload, Port, Process, Simulation, SimTime, Timer};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Payload for Ping {
///     fn size_bytes(&self) -> usize { 8 }
/// }
///
/// #[derive(Default)]
/// struct Counter { received: u32 }
/// impl Process<Ping> for Counter {
///     fn on_datagram(&mut self, _ctx: &mut Context<'_, Ping>, _from: Endpoint,
///                    _to: Endpoint, _msg: Ping) {
///         self.received += 1;
///     }
///     fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, _t: Timer) {}
/// }
///
/// struct Sender;
/// impl Process<Ping> for Sender {
///     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
///         ctx.send(Port(1), Endpoint::new(NodeId(2), Port(1)), Ping);
///     }
///     fn on_datagram(&mut self, _: &mut Context<'_, Ping>, _: Endpoint, _: Endpoint, _: Ping) {}
///     fn on_timer(&mut self, _: &mut Context<'_, Ping>, _: Timer) {}
/// }
///
/// let mut sim = Simulation::new(42);
/// sim.add_node(NodeId(1), Sender);
/// sim.add_node(NodeId(2), Counter::default());
/// sim.run_until(SimTime::from_secs(1));
/// let received = sim.with_process(NodeId(2), |c: &Counter| c.received).unwrap();
/// assert_eq!(received, 1);
/// ```
pub struct Simulation<M: Payload> {
    now: SimTime,
    queue: EventQueue<M>,
    /// Node table indexed by the raw [`NodeId`]: ids are small and dense
    /// (servers from 1, clients from 100 or 1000), so a lookup is one
    /// bounds-checked index and the table costs 32 bytes per id up to the
    /// largest one booted.
    nodes: Vec<NodeSlot<M>>,
    default_profile: LinkProfile,
    topology: Option<SiteTopology>,
    overrides: HashMap<(NodeId, NodeId), LinkProfile>,
    /// Directed pairs severed by active partitions, with a count per
    /// pair: overlapping partitions may cut the same link, and healing
    /// one must not reopen a pair the other still severs.
    blocked: HashMap<(NodeId, NodeId), u32>,
    /// Nodes that crashed and have not been restarted since; lets the
    /// tracer distinguish a first boot from a post-crash repair.
    crashed: HashSet<NodeId>,
    /// Gilbert–Elliott state per directed link: `true` while the link is in
    /// the bad (bursty) state. Only touched when a profile sets `burst`.
    burst_bad: HashMap<(NodeId, NodeId), bool>,
    rng: SimRng,
    cancelled: HashSet<u64>,
    next_timer_id: u64,
    stats: NetStats,
    effects: Vec<Effect<M>>,
    tracer: Option<Tracer>,
    /// Hot-path cost accounting; `None` (the default) means every
    /// profiling update in the engine is skipped entirely.
    profile: Option<SimProfile>,
}

impl<M: Payload> Simulation<M> {
    /// Creates an empty simulation seeded with `seed`.
    ///
    /// All randomness (link jitter, loss, application draws through
    /// [`Context::rng`]) derives from this seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            default_profile: LinkProfile::ideal(),
            topology: None,
            overrides: HashMap::new(),
            blocked: HashMap::new(),
            crashed: HashSet::new(),
            burst_bad: HashMap::new(),
            rng: SimRng::seed_from_u64(seed),
            cancelled: HashSet::new(),
            next_timer_id: 0,
            stats: NetStats::new(),
            effects: Vec::new(),
            tracer: None,
            profile: None,
        }
    }

    /// Turns on hot-path cost accounting. Counters start from zero at the
    /// moment of the call; profiling is passive and cannot change the run
    /// (it touches no RNG, timers or messages — only its own counters and
    /// host wall-clock reads).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(SimProfile::default());
    }

    /// The accumulated hot-path profile, or `None` when profiling was
    /// never enabled.
    pub fn profile(&self) -> Option<&SimProfile> {
        self.profile.as_ref()
    }

    /// Installs a tracer receiving a [`TraceEvent`] for every send,
    /// delivery, drop, boot and crash. Pass a closure appending to a log,
    /// printing, or counting — tracing is passive and does not perturb the
    /// run.
    pub fn set_tracer(&mut self, tracer: impl FnMut(&TraceEvent) + 'static) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Removes the installed tracer.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// Hands the tracer the event `make` builds; without a tracer the
    /// event is never built.
    #[inline]
    fn trace(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer(&make());
        }
    }

    fn slot(&self, id: NodeId) -> Option<&NodeSlot<M>> {
        self.nodes.get(id.0 as usize)
    }

    fn slot_mut(&mut self, id: NodeId) -> Option<&mut NodeSlot<M>> {
        self.nodes.get_mut(id.0 as usize)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network traffic counters accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Sets the profile used for every link without an explicit override.
    pub fn set_default_profile(&mut self, profile: LinkProfile) {
        self.default_profile = profile;
    }

    /// Overrides the profile of the directed link `from → to`.
    pub fn set_link_profile(&mut self, from: NodeId, to: NodeId, profile: LinkProfile) {
        self.overrides.insert((from, to), profile);
    }

    /// Overrides the profile of both directions between `a` and `b`.
    pub fn set_link_profile_sym(&mut self, a: NodeId, b: NodeId, profile: LinkProfile) {
        self.overrides.insert((a, b), profile.clone());
        self.overrides.insert((b, a), profile);
    }

    /// Installs a multi-site topology: links between nodes of the same
    /// site use the topology's LAN profile, cross-site links its WAN
    /// profile. Explicit per-link overrides still win; nodes outside any
    /// site fall back to the LAN profile.
    pub fn set_topology(&mut self, topology: SiteTopology) {
        self.topology = Some(topology);
    }

    /// The installed topology, if any.
    pub fn topology(&self) -> Option<&SiteTopology> {
        self.topology.as_ref()
    }

    /// Schedules a symmetric per-link profile override between every node
    /// in `a` and every node in `b` at time `at`. `Some(profile)` installs
    /// the override (e.g. a WAN brownout profile); `None` removes the
    /// overrides, restoring whatever the topology or default profile
    /// dictates. The tracer sees [`TraceEvent::LinkOverride`].
    pub fn set_link_overrides_at(
        &mut self,
        at: SimTime,
        a: &[NodeId],
        b: &[NodeId],
        profile: Option<LinkProfile>,
    ) {
        self.schedule(
            at,
            EventKind::SetLinkOverrides {
                a: a.to_vec(),
                b: b.to_vec(),
                profile,
            },
        );
    }

    /// Boots `process` on node `id` at the current time.
    ///
    /// # Panics
    ///
    /// Panics if a live process already occupies `id`.
    pub fn add_node(&mut self, id: NodeId, process: impl Process<M>) {
        assert!(!self.is_alive(id), "node {id} already has a live process");
        self.start_node_at(self.now, id, process);
    }

    /// Schedules `process` to boot on node `id` at time `at` (the paper's
    /// "a new server may be brought up on the fly").
    ///
    /// # Panics
    ///
    /// Panics if `id` is above 2^20: the node table is indexed by the raw
    /// id, so ids are expected to be small and dense.
    pub fn start_node_at(&mut self, at: SimTime, id: NodeId, process: impl Process<M>) {
        id.table_row();
        let process: Box<dyn AnyProcess<M>> = Box::new(process);
        self.schedule(at, EventKind::Start { node: id, process });
    }

    /// Schedules a crash of node `id` at time `at`: the process stops
    /// receiving events, but its final state remains inspectable through
    /// [`Simulation::with_process`]. Messages already in flight *from* the
    /// node are still delivered (they left the NIC before the crash).
    pub fn crash_at(&mut self, at: SimTime, id: NodeId) {
        self.schedule(at, EventKind::Crash { node: id });
    }

    /// Schedules a fresh `process` to boot on the previously crashed node
    /// `id` at time `at` — the repair side of the crash/repair cycle. The
    /// replacement process starts from its initial state (a real machine
    /// reboot loses volatile memory); the tracer sees
    /// [`TraceEvent::NodeRestarted`] instead of `NodeStarted` when the node
    /// had crashed before.
    pub fn restart_at(&mut self, at: SimTime, id: NodeId, process: impl Process<M>) {
        self.start_node_at(at, id, process);
    }

    /// Schedules a replacement of the default link profile at time `at`
    /// (link overrides are untouched). Chaos campaigns use a pair of these
    /// to model a transient network degradation: degrade at `t`, restore
    /// the base profile at `t + duration`.
    pub fn set_default_profile_at(&mut self, at: SimTime, profile: LinkProfile) {
        self.schedule(at, EventKind::SetDefaultProfile { profile });
    }

    /// Schedules a network partition separating every node in `a` from every
    /// node in `b` (both directions) at time `at`.
    pub fn partition_at(&mut self, at: SimTime, a: &[NodeId], b: &[NodeId]) {
        self.schedule(
            at,
            EventKind::Partition {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        );
    }

    /// Schedules the removal of the partition between `a` and `b` at `at`.
    pub fn heal_at(&mut self, at: SimTime, a: &[NodeId], b: &[NodeId]) {
        self.schedule(
            at,
            EventKind::Heal {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        );
    }

    /// Schedules the removal of *all* partitions at `at`.
    pub fn heal_all_at(&mut self, at: SimTime) {
        self.schedule(at, EventKind::HealAll);
    }

    /// Whether node `id` currently hosts a live process.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.slot(id).is_some_and(|s| s.alive)
    }

    /// The ids of all nodes ever booted, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.booted().collect()
    }

    /// Booted nodes in ascending id order (padding rows skipped).
    fn booted(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.process.is_some())
            .map(|(id, _)| NodeId(id as u32))
    }

    /// Runs every event scheduled at or before `until`, then advances the
    /// clock to exactly `until`.
    pub fn run_until(&mut self, until: SimTime) {
        let started = self.profile.as_ref().map(|_| Instant::now());
        while self.queue.next_at().is_some_and(|at| at <= until) {
            let (at, kind) = self.queue.pop().expect("peeked event vanished");
            self.dispatch(at, kind);
        }
        if until > self.now {
            self.now = until;
        }
        if let (Some(profile), Some(started)) = (self.profile.as_mut(), started) {
            profile.dispatch_ns += started.elapsed().as_nanos() as u64;
        }
    }

    /// Runs for `d` of simulated time from the current clock.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// The time of the event [`Simulation::step`] would dispatch next, or
    /// `None` when the queue is empty. A cancelled timer still counts: it
    /// stays queued until its time comes and is squashed on dispatch.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.next_at()
    }

    /// Executes a single pending event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, kind)) => {
                let started = self.profile.as_ref().map(|_| Instant::now());
                self.dispatch(at, kind);
                if let (Some(profile), Some(started)) = (self.profile.as_mut(), started) {
                    profile.dispatch_ns += started.elapsed().as_nanos() as u64;
                }
                true
            }
            None => false,
        }
    }

    /// Borrows the process on `node` as concrete type `T`.
    ///
    /// Returns `None` if the node does not exist or hosts a different type.
    /// Works on crashed nodes too (post-mortem inspection).
    pub fn with_process<T: 'static, R>(&self, node: NodeId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.slot(node)?
            .process
            .as_ref()
            .and_then(|p| p.as_any().downcast_ref::<T>())
            .map(f)
    }

    /// Mutably borrows the process on `node` as concrete type `T`, without a
    /// [`Context`]: use this for passive inspection or test-only tweaks. To
    /// drive a process (e.g. issue a VCR command that must send messages),
    /// use [`Simulation::invoke`].
    pub fn with_process_mut<T: 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        self.slot_mut(node)?
            .process
            .as_mut()
            .and_then(|p| p.as_any_mut().downcast_mut::<T>())
            .map(f)
    }

    /// Invokes `f` on the live process at `node` with a full [`Context`],
    /// applying any side effects it requests. This is how external drivers
    /// (scenario scripts, interactive examples) inject commands such as
    /// "pause" or "seek" into a process between events.
    ///
    /// Returns `None` if the node is not alive or hosts a different type.
    pub fn invoke<T: 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_, M>) -> R,
    ) -> Option<R> {
        let slot = self.slot_mut(node)?;
        if !slot.alive {
            return None;
        }
        let mut process = slot.process.take()?;
        let mut effects = std::mem::take(&mut self.effects);
        let (result, exited) = {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
                exited: false,
            };
            let result = process
                .as_any_mut()
                .downcast_mut::<T>()
                .map(|typed| f(typed, &mut ctx));
            (result, ctx.exited)
        };
        if let Some(slot) = self.slot_mut(node) {
            slot.process = Some(process);
            if exited && result.is_some() {
                slot.alive = false;
            }
        }
        if result.is_some() {
            for effect in effects.drain(..) {
                self.apply_effect(node, effect);
            }
        } else {
            effects.clear();
        }
        self.effects = effects;
        result
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        self.queue.push(at, kind);
        if let Some(profile) = self.profile.as_mut() {
            profile.peak_queue_depth = profile.peak_queue_depth.max(self.queue.len() as u64);
        }
    }

    /// Increments a profile counter, doing nothing when profiling is off.
    #[inline]
    fn count(&mut self, bump: impl FnOnce(&mut SimProfile)) {
        if let Some(profile) = self.profile.as_mut() {
            bump(profile);
        }
    }

    fn dispatch(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        match kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                class,
                sent_at,
            } => {
                self.count(|p| p.deliver_events += 1);
                if !self.is_alive(to.node) {
                    self.stats.class_mut(class).dropped_dead += 1;
                    self.trace(|| TraceEvent::Dropped {
                        at,
                        from,
                        to,
                        class,
                        reason: DropReason::DeadNode,
                    });
                    return;
                }
                self.stats.class_mut(class).delivered_msgs += 1;
                self.trace(|| TraceEvent::Delivered {
                    at,
                    sent_at,
                    from,
                    to,
                    class,
                });
                self.run_handler(to.node, |process, ctx| {
                    process.on_datagram(ctx, from, to, msg);
                });
            }
            EventKind::Timer { node, id, tag } => {
                // Most runs never cancel a timer: skip the hash then.
                if !self.cancelled.is_empty() && self.cancelled.remove(&id.0) {
                    self.count(|p| p.timer_squashed += 1);
                    return;
                }
                if !self.is_alive(node) {
                    self.count(|p| p.timer_dead += 1);
                    return;
                }
                self.count(|p| p.timer_fired += 1);
                self.run_handler(node, |process, ctx| {
                    process.on_timer(ctx, Timer { id, tag });
                });
            }
            EventKind::Start { node, process } => {
                self.count(|p| p.start_events += 1);
                let index = node.0 as usize;
                if index >= self.nodes.len() {
                    self.nodes.resize_with(index + 1, || NodeSlot {
                        process: None,
                        alive: false,
                        egress_busy: SimTime::ZERO,
                    });
                }
                let slot = &mut self.nodes[index];
                slot.process = Some(process);
                slot.alive = true;
                if self.crashed.remove(&node) {
                    self.trace(|| TraceEvent::NodeRestarted { at, node });
                } else {
                    self.trace(|| TraceEvent::NodeStarted { at, node });
                }
                self.run_handler(node, |process, ctx| process.on_start(ctx));
            }
            EventKind::Crash { node } => {
                self.count(|p| p.crash_events += 1);
                if let Some(slot) = self.slot_mut(node) {
                    slot.alive = false;
                }
                self.crashed.insert(node);
                self.trace(|| TraceEvent::NodeCrashed { at, node });
            }
            EventKind::Partition { a, b } => {
                self.count(|p| p.partition_events += 1);
                for &x in &a {
                    for &y in &b {
                        *self.blocked.entry((x, y)).or_insert(0) += 1;
                        *self.blocked.entry((y, x)).or_insert(0) += 1;
                    }
                }
                self.trace(|| TraceEvent::Partitioned { at, a, b });
            }
            EventKind::Heal { a, b } => {
                self.count(|p| p.heal_events += 1);
                for &x in &a {
                    for &y in &b {
                        for pair in [(x, y), (y, x)] {
                            if let Some(count) = self.blocked.get_mut(&pair) {
                                *count -= 1;
                                if *count == 0 {
                                    self.blocked.remove(&pair);
                                }
                            }
                        }
                    }
                }
                self.trace(|| TraceEvent::Healed { at, a, b });
            }
            EventKind::HealAll => {
                self.count(|p| p.heal_events += 1);
                self.blocked.clear();
                self.trace(|| TraceEvent::Healed {
                    at,
                    a: Vec::new(),
                    b: Vec::new(),
                });
            }
            EventKind::SetDefaultProfile { profile } => {
                self.count(|p| p.profile_change_events += 1);
                self.default_profile = profile;
            }
            EventKind::SetLinkOverrides { a, b, profile } => {
                self.count(|p| p.profile_change_events += 1);
                for &x in &a {
                    for &y in &b {
                        match &profile {
                            Some(p) => {
                                self.overrides.insert((x, y), p.clone());
                                self.overrides.insert((y, x), p.clone());
                            }
                            None => {
                                self.overrides.remove(&(x, y));
                                self.overrides.remove(&(y, x));
                            }
                        }
                    }
                }
                let degraded = profile.is_some();
                self.trace(|| TraceEvent::LinkOverride { at, a, b, degraded });
            }
        }
    }

    fn run_handler(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn AnyProcess<M>, &mut Context<'_, M>),
    ) {
        let Some(mut process) = self.slot_mut(node).and_then(|slot| slot.process.take()) else {
            return;
        };
        let mut effects = std::mem::take(&mut self.effects);
        let exited = {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
                exited: false,
            };
            f(process.as_mut(), &mut ctx);
            ctx.exited
        };
        // The row exists: the process was just taken out of it.
        let slot = &mut self.nodes[node.0 as usize];
        slot.process = Some(process);
        if exited {
            slot.alive = false;
        }
        for effect in effects.drain(..) {
            self.apply_effect(node, effect);
        }
        self.effects = effects;
    }

    fn apply_effect(&mut self, node: NodeId, effect: Effect<M>) {
        match effect {
            Effect::Send { from, to, msg } => self.route(from, to, msg),
            Effect::SetTimer { id, at, tag } => {
                self.count(|p| p.timers_set += 1);
                self.schedule(at, EventKind::Timer { node, id, tag });
            }
            Effect::CancelTimer(id) => {
                self.count(|p| p.timers_cancelled += 1);
                self.cancelled.insert(id.0);
            }
        }
    }

    fn route(&mut self, from: Endpoint, to: Endpoint, msg: M) {
        self.count(|p| p.msgs_routed += 1);
        let class = msg.class();
        let size = msg.size_bytes();
        {
            let counters = self.stats.class_mut(class);
            counters.sent_msgs += 1;
            counters.sent_bytes += size as u64;
        }
        let at = self.now;
        self.trace(|| TraceEvent::Sent {
            at,
            from,
            to,
            class,
            bytes: size,
        });
        let link = (from.node, to.node);
        if !self.blocked.is_empty() && self.blocked.contains_key(&link) {
            self.stats.class_mut(class).dropped_partition += 1;
            self.trace(|| TraceEvent::Dropped {
                at,
                from,
                to,
                class,
                reason: DropReason::Partition,
            });
            return;
        }
        // The profile stays borrowed up to the last delay draw, so nothing
        // below may go through a `&mut self` method until then: the
        // delivery times are drawn first and scheduled afterwards.
        let overridden = if self.overrides.is_empty() {
            None
        } else {
            self.overrides.get(&link)
        };
        let profile = match (overridden, &self.topology) {
            (Some(profile), _) => profile,
            (None, Some(topo)) => topo.profile_for(from.node, to.node),
            (None, None) => &self.default_profile,
        };
        // Loss: plain i.i.d. by default; with `burst` set, a Gilbert–Elliott
        // two-state chain advanced once per datagram (one transition draw,
        // then the state-dependent loss draw). Profiles without `burst` draw
        // nothing extra, keeping existing runs byte-identical.
        let loss_now = match profile.burst {
            None => profile.loss,
            Some(burst) => {
                let bad = self.burst_bad.entry(link).or_insert(false);
                let transition = if *bad { burst.p_exit } else { burst.p_enter };
                if self.rng.gen_f64() < transition {
                    *bad = !*bad;
                }
                if *bad {
                    burst.loss_bad
                } else {
                    profile.loss
                }
            }
        };
        if loss_now > 0.0 && self.rng.gen_f64() < loss_now {
            self.stats.class_mut(class).dropped_loss += 1;
            self.trace(|| TraceEvent::Dropped {
                at,
                from,
                to,
                class,
                reason: DropReason::Loss,
            });
            return;
        }
        let mut depart = at;
        if let Some(bandwidth) = profile.bandwidth {
            let serialization = Duration::from_secs_f64(size as f64 / bandwidth as f64);
            // A datagram is only ever routed for the node whose handler
            // just ran, so the sender has a row.
            let busy = &mut self.nodes[from.node.0 as usize].egress_busy;
            *busy = (*busy).max(at) + serialization;
            depart = *busy;
        }
        // Draw order is part of the determinism contract: duplicate
        // decision, the copy's delay, then the original's delay.
        let duplicate = profile.duplicate > 0.0 && self.rng.gen_f64() < profile.duplicate;
        let copy_at = duplicate.then(|| depart + draw_delay(&mut self.rng, profile));
        let deliver_at = depart + draw_delay(&mut self.rng, profile);
        let deliver = |msg| EventKind::Deliver {
            from,
            to,
            msg,
            class,
            sent_at: at,
        };
        if let Some(copy_at) = copy_at {
            self.stats.class_mut(class).duplicated += 1;
            self.schedule(copy_at, deliver(msg.clone()));
        }
        self.schedule(deliver_at, deliver(msg));
    }
}

fn draw_delay(rng: &mut SimRng, profile: &LinkProfile) -> Duration {
    let mut delay = profile.base_delay;
    if !profile.jitter.is_zero() {
        delay += profile.jitter.mul_f64(rng.gen_f64());
    }
    if profile.reorder > 0.0 && rng.gen_f64() < profile.reorder {
        delay += profile.reorder_extra;
    }
    delay
}

impl<M: Payload> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("nodes", &self.booted().count())
            .finish()
    }
}

/// Differential test of the event queue's ordering contract: a seeded
/// random script of timers, cancels, sends, crashes and restarts — full
/// of same-instant ties — runs through [`Simulation`] and through a
/// reference model whose queue is a `Vec` stably sorted by time, and both
/// must dispatch the same events in the same order.
#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashSet};
    use std::rc::Rc;

    use super::*;
    use crate::net::Port;

    const NODES: u32 = 5;
    const PORT: Port = Port(1);
    /// The one link with a delay; every other send arrives in the instant it
    /// was sent.
    const SLOW_LINK: (u32, u32) = (1, 2);
    const SLOW_DELAY: Duration = Duration::from_millis(2);

    #[derive(Clone, Debug)]
    struct Note;

    impl Payload for Note {
        fn size_bytes(&self) -> usize {
            64
        }
    }

    /// One dispatched handler call: `(time, node, what)`.
    type Record = (SimTime, u32, Seen);

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Seen {
        Start,
        Timer { id: u64, tag: u64 },
        Datagram { from: u32 },
    }

    /// What a scripted process may do; implemented over a [`Context`] and
    /// over the reference model.
    trait Host {
        fn now(&self) -> SimTime;
        fn send(&mut self, to: u32);
        fn set_timer_at(&mut self, at: SimTime, tag: u64) -> u64;
        fn cancel(&mut self, id: u64);
    }

    /// The behaviour both sides run: on every handler call, a few random
    /// actions drawn from the process's own generator.
    struct Script {
        rng: SimRng,
        /// Every timer this incarnation armed, fired or not, cancelled or
        /// not: cancelling a random one covers cancel-after-fire and double
        /// cancel.
        armed: Vec<u64>,
        reactions_left: u32,
    }

    impl Script {
        fn new(seed: u64, node: u32, incarnation: u64) -> Self {
            Script {
                rng: SimRng::seed_from_u64(seed ^ (u64::from(node) << 32) ^ (incarnation << 48)),
                armed: Vec::new(),
                reactions_left: 40,
            }
        }

        fn react(&mut self, host: &mut impl Host) {
            if self.reactions_left == 0 {
                return;
            }
            self.reactions_left -= 1;
            for _ in 0..1 + self.rng.gen_u64_below(3) {
                let tag = self.rng.gen_u64_below(1000);
                match self.rng.gen_u64_below(4) {
                    0 => {
                        let after = [0, 0, 1, 5][self.rng.gen_u64_below(4) as usize];
                        let at = host.now() + Duration::from_millis(after);
                        self.armed.push(host.set_timer_at(at, tag));
                    }
                    1 => {
                        // The next 10 ms grid line: ties across nodes.
                        let grid = (host.now().as_micros() / 10_000 + 1) * 10_000;
                        self.armed
                            .push(host.set_timer_at(SimTime::from_micros(grid), tag));
                    }
                    2 => host.send(1 + self.rng.gen_u64_below(u64::from(NODES)) as u32),
                    _ => {
                        if !self.armed.is_empty() {
                            let pick = self.rng.gen_u64_below(self.armed.len() as u64) as usize;
                            host.cancel(self.armed[pick]);
                        }
                    }
                }
            }
        }
    }

    struct Scripted {
        script: Script,
        log: Rc<RefCell<Vec<Record>>>,
    }

    struct CtxHost<'a, 'b>(&'a mut Context<'b, Note>);

    impl Host for CtxHost<'_, '_> {
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn send(&mut self, to: u32) {
            self.0.send(PORT, Endpoint::new(NodeId(to), PORT), Note);
        }
        fn set_timer_at(&mut self, at: SimTime, tag: u64) -> u64 {
            self.0.set_timer_at(at, tag).0
        }
        fn cancel(&mut self, id: u64) {
            self.0.cancel_timer(TimerId(id));
        }
    }

    impl Scripted {
        fn seen(&mut self, ctx: &mut Context<'_, Note>, what: Seen) {
            self.log.borrow_mut().push((ctx.now(), ctx.node().0, what));
            self.script.react(&mut CtxHost(ctx));
        }
    }

    impl Process<Note> for Scripted {
        fn on_start(&mut self, ctx: &mut Context<'_, Note>) {
            self.seen(ctx, Seen::Start);
        }
        fn on_datagram(
            &mut self,
            ctx: &mut Context<'_, Note>,
            from: Endpoint,
            _: Endpoint,
            _: Note,
        ) {
            self.seen(ctx, Seen::Datagram { from: from.node.0 });
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Note>, timer: Timer) {
            let (id, tag) = (timer.id.0, timer.tag);
            self.seen(ctx, Seen::Timer { id, tag });
        }
    }

    enum ModelEvent {
        Start { node: u32, script: Script },
        Crash { node: u32 },
        Timer { node: u32, id: u64, tag: u64 },
        Deliver { from: u32, to: u32 },
    }

    /// The reference: pending events in a `Vec` that a *stable* sort keeps
    /// ordered by time alone, so same-instant events stay in push order.
    #[derive(Default)]
    struct Model {
        now: SimTime,
        queue: Vec<(SimTime, ModelEvent)>,
        /// `(script, alive)` per booted node.
        nodes: BTreeMap<u32, (Option<Script>, bool)>,
        cancelled: HashSet<u64>,
        next_timer: u64,
        log: Vec<Record>,
    }

    impl Model {
        fn push(&mut self, at: SimTime, event: ModelEvent) {
            self.queue.push((at, event));
            self.queue.sort_by_key(|(at, _)| *at);
        }

        fn next_at(&self) -> Option<SimTime> {
            self.queue.first().map(|(at, _)| *at)
        }

        fn step(&mut self) -> bool {
            if self.queue.is_empty() {
                return false;
            }
            let (at, event) = self.queue.remove(0);
            self.now = at;
            match event {
                ModelEvent::Start { node, script } => {
                    self.nodes.insert(node, (Some(script), true));
                    self.handle(node, Seen::Start);
                }
                ModelEvent::Crash { node } => {
                    if let Some((_, alive)) = self.nodes.get_mut(&node) {
                        *alive = false;
                    }
                }
                ModelEvent::Timer { node, id, tag } => {
                    if !self.cancelled.remove(&id) {
                        self.handle(node, Seen::Timer { id, tag });
                    }
                }
                ModelEvent::Deliver { from, to } => self.handle(to, Seen::Datagram { from }),
            }
            true
        }

        fn handle(&mut self, node: u32, what: Seen) {
            let Some((script, true)) = self.nodes.get_mut(&node) else {
                return;
            };
            let mut script = script.take().expect("no handler is running");
            self.log.push((self.now, node, what));
            script.react(&mut ModelHost { model: self, node });
            self.nodes.get_mut(&node).expect("still booted").0 = Some(script);
        }
    }

    struct ModelHost<'a> {
        model: &'a mut Model,
        node: u32,
    }

    impl Host for ModelHost<'_> {
        fn now(&self) -> SimTime {
            self.model.now
        }
        fn send(&mut self, to: u32) {
            let from = self.node;
            let slow = (from, to) == SLOW_LINK || (to, from) == SLOW_LINK;
            let delay = if slow { SLOW_DELAY } else { Duration::ZERO };
            self.model
                .push(self.model.now + delay, ModelEvent::Deliver { from, to });
        }
        fn set_timer_at(&mut self, at: SimTime, tag: u64) -> u64 {
            let id = self.model.next_timer;
            self.model.next_timer += 1;
            let node = self.node;
            self.model
                .push(at.max(self.model.now), ModelEvent::Timer { node, id, tag });
            id
        }
        fn cancel(&mut self, id: u64) {
            self.model.cancelled.insert(id);
        }
    }

    /// Runs one seed through both and returns how often it met
    /// `[squashed timers, events for dead nodes, stale cancels, ties]`.
    fn run_script(seed: u64) -> [u64; 4] {
        let log: Rc<RefCell<Vec<Record>>> = Rc::default();
        let scripted = |node: u32, incarnation: u64| Scripted {
            script: Script::new(seed, node, incarnation),
            log: Rc::clone(&log),
        };
        let mut sim: Simulation<Note> = Simulation::new(seed);
        sim.enable_profiling();
        sim.set_link_profile_sym(
            NodeId(SLOW_LINK.0),
            NodeId(SLOW_LINK.1),
            LinkProfile::ideal().with_base_delay(SLOW_DELAY),
        );
        let mut model = Model::default();

        for node in 1..=NODES {
            sim.add_node(NodeId(node), scripted(node, 0));
            let script = Script::new(seed, node, 0);
            model.push(SimTime::ZERO, ModelEvent::Start { node, script });
        }
        // Faults on the timers' 10 ms grid, so they tie with timers too.
        let mut driver = SimRng::seed_from_u64(seed ^ 0xD1FF);
        for incarnation in 1..=6 {
            let node = 1 + driver.gen_u64_below(u64::from(NODES)) as u32;
            let crash = SimTime::from_millis(10 * (1 + driver.gen_u64_below(8)));
            let restart = crash + Duration::from_millis(10 * driver.gen_u64_below(3));
            sim.crash_at(crash, NodeId(node));
            model.push(crash, ModelEvent::Crash { node });
            sim.restart_at(restart, NodeId(node), scripted(node, incarnation));
            let script = Script::new(seed, node, incarnation);
            model.push(restart, ModelEvent::Start { node, script });
        }

        let mut steps = 0;
        loop {
            assert_eq!(
                sim.next_event_at(),
                model.next_at(),
                "seed {seed}, step {steps}"
            );
            let (stepped, expected) = (sim.step(), model.step());
            assert_eq!(stepped, expected, "seed {seed}, step {steps}");
            assert_eq!(
                log.borrow().last(),
                model.log.last(),
                "seed {seed}, step {steps}"
            );
            if !stepped {
                break;
            }
            steps += 1;
        }
        assert_eq!(*log.borrow(), model.log, "seed {seed}");
        assert!(model.log.len() > 200, "seed {seed}: the script barely ran");

        // Popped slots are reused: the slab never outgrows the deepest queue.
        let profile = sim.profile().expect("profiling is on");
        assert!(
            sim.queue.bodies.len() as u64 <= profile.peak_queue_depth,
            "seed {seed}"
        );
        assert_eq!(sim.queue.free.len(), sim.queue.bodies.len(), "seed {seed}");

        let tied = model.log.windows(2).filter(|w| w[0].0 == w[1].0).count();
        let dead = profile.timer_dead + sim.stats().class("default").dropped_dead;
        // Ids left in the set were cancelled after firing, or twice.
        [
            profile.timer_squashed,
            dead,
            sim.cancelled.len() as u64,
            tied as u64,
        ]
    }

    #[test]
    fn dispatch_order_matches_a_stably_sorted_vec() {
        let mut covered = [0; 4];
        for seed in 0..40 {
            for (total, seen) in covered.iter_mut().zip(run_script(seed)) {
                *total += seen;
            }
        }
        // Not vacuous: timers were squashed, timers and datagrams reached
        // dead nodes, cancels hit fired timers, events shared an instant.
        assert!(covered.iter().all(|&n| n > 0), "{covered:?}");
    }

    /// The key fields narrower than the values they hold refuse what does
    /// not fit instead of wrapping into an earlier key.
    #[test]
    #[should_panic(expected = "past 2^48 us of simulated time")]
    fn an_instant_beyond_the_key_field_panics() {
        let mut sim: Simulation<Note> = Simulation::new(1);
        sim.crash_at(SimTime::from_micros(1 << AT_BITS), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "over 2^48 events scheduled")]
    fn a_sequence_number_beyond_the_key_field_panics() {
        let mut sim: Simulation<Note> = Simulation::new(1);
        sim.queue.seq = (1 << SEQ_BITS) - 1;
        // The last sequence number that fits, then the first that does not.
        sim.crash_at(SimTime::ZERO, NodeId(1));
        assert_eq!(sim.next_event_at(), Some(SimTime::ZERO));
        sim.crash_at(SimTime::ZERO, NodeId(1));
    }

    #[test]
    fn the_largest_key_fields_round_trip_in_order() {
        let mut sim: Simulation<Note> = Simulation::new(1);
        let last = SimTime::from_micros((1 << AT_BITS) - 1);
        sim.queue.seq = (1 << SEQ_BITS) - 2;
        sim.crash_at(last, NodeId(1));
        sim.crash_at(SimTime::from_secs(1), NodeId(2));
        assert_eq!(sim.next_event_at(), Some(SimTime::from_secs(1)));
        assert!(sim.step());
        assert_eq!(sim.next_event_at(), Some(last));
    }

    #[test]
    fn node_ids_and_debug_report_booted_nodes_not_table_rows() {
        let log: Rc<RefCell<Vec<Record>>> = Rc::default();
        let mut sim: Simulation<Note> = Simulation::new(1);
        for node in [7, 3] {
            let script = Script::new(1, node, 0);
            let log = Rc::clone(&log);
            sim.add_node(NodeId(node), Scripted { script, log });
        }
        sim.start_node_at(
            SimTime::from_secs(5),
            NodeId(9),
            Scripted {
                script: Script::new(1, 9, 0),
                log,
            },
        );
        sim.run_until(SimTime::from_secs(1));
        // The table has rows 0..=7; only 3 and 7 hold a node, 9 has not booted.
        assert_eq!(sim.node_ids(), [NodeId(3), NodeId(7)]);
        assert!(format!("{sim:?}").contains("nodes: 2"), "{sim:?}");
        assert!(!sim.is_alive(NodeId(5)) && !sim.is_alive(NodeId(9)));
        sim.crash_at(SimTime::from_secs(2), NodeId(3));
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(sim.node_ids(), [NodeId(3), NodeId(7), NodeId(9)]);
    }
}
