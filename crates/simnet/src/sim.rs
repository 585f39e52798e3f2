//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns the event queue, the simulated hosts and the network
//! model. It is fully deterministic: given the same seed and the same
//! sequence of API calls, two runs produce identical event orders, identical
//! random draws and therefore identical results — the property that makes
//! every figure in the experiment harness exactly reproducible.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
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

struct Scheduled<M: Payload> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M: Payload> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M: Payload> Eq for Scheduled<M> {}

impl<M: Payload> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M: Payload> Ord for Scheduled<M> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the earliest event;
    /// ties broken by insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct NodeSlot<M: Payload> {
    process: Option<Box<dyn AnyProcess<M>>>,
    alive: bool,
}

/// A deterministic discrete-event simulation of a set of communicating
/// processes.
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
    seq: u64,
    queue: BinaryHeap<Scheduled<M>>,
    nodes: BTreeMap<NodeId, NodeSlot<M>>,
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
    egress_busy: HashMap<NodeId, SimTime>,
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
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: BTreeMap::new(),
            default_profile: LinkProfile::ideal(),
            topology: None,
            overrides: HashMap::new(),
            blocked: HashMap::new(),
            crashed: HashSet::new(),
            burst_bad: HashMap::new(),
            egress_busy: HashMap::new(),
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

    fn trace(&mut self, event: TraceEvent) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer(&event);
        }
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
        if let Some(slot) = self.nodes.get(&id) {
            assert!(!slot.alive, "node {id} already has a live process");
        }
        self.start_node_at(self.now, id, process);
    }

    /// Schedules `process` to boot on node `id` at time `at` (the paper's
    /// "a new server may be brought up on the fly").
    pub fn start_node_at(&mut self, at: SimTime, id: NodeId, process: impl Process<M>) {
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
        self.nodes.get(&id).is_some_and(|s| s.alive)
    }

    /// The ids of all nodes ever booted, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Runs every event scheduled at or before `until`, then advances the
    /// clock to exactly `until`.
    pub fn run_until(&mut self, until: SimTime) {
        let started = self.profile.as_ref().map(|_| Instant::now());
        while let Some(head) = self.queue.peek() {
            if head.at > until {
                break;
            }
            let ev = self.queue.pop().expect("peeked event vanished");
            self.dispatch(ev.at, ev.kind);
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
        self.queue.peek().map(|head| head.at)
    }

    /// Executes a single pending event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                let started = self.profile.as_ref().map(|_| Instant::now());
                self.dispatch(ev.at, ev.kind);
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
        self.nodes
            .get(&node)?
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
        self.nodes
            .get_mut(&node)?
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
        let slot = self.nodes.get_mut(&node)?;
        if !slot.alive {
            return None;
        }
        let mut process = slot.process.take()?;
        let mut effects = std::mem::take(&mut self.effects);
        let result = {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
            };
            process
                .as_any_mut()
                .downcast_mut::<T>()
                .map(|typed| f(typed, &mut ctx))
        };
        let exited = effects.iter().any(|e| matches!(e, Effect::Exit));
        if let Some(slot) = self.nodes.get_mut(&node) {
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
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
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
                let alive = self.nodes.get(&to.node).is_some_and(|s| s.alive);
                if !alive {
                    self.stats.class_mut(class).dropped_dead += 1;
                    self.trace(TraceEvent::Dropped {
                        at,
                        from,
                        to,
                        class,
                        reason: DropReason::DeadNode,
                    });
                    return;
                }
                self.stats.class_mut(class).delivered_msgs += 1;
                self.trace(TraceEvent::Delivered {
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
                if self.cancelled.remove(&id.0) {
                    self.count(|p| p.timer_squashed += 1);
                    return;
                }
                if !self.nodes.get(&node).is_some_and(|s| s.alive) {
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
                let slot = self.nodes.entry(node).or_insert(NodeSlot {
                    process: None,
                    alive: false,
                });
                slot.process = Some(process);
                slot.alive = true;
                if self.crashed.remove(&node) {
                    self.trace(TraceEvent::NodeRestarted { at, node });
                } else {
                    self.trace(TraceEvent::NodeStarted { at, node });
                }
                self.run_handler(node, |process, ctx| process.on_start(ctx));
            }
            EventKind::Crash { node } => {
                self.count(|p| p.crash_events += 1);
                if let Some(slot) = self.nodes.get_mut(&node) {
                    slot.alive = false;
                }
                self.crashed.insert(node);
                self.trace(TraceEvent::NodeCrashed { at, node });
            }
            EventKind::Partition { a, b } => {
                self.count(|p| p.partition_events += 1);
                for &x in &a {
                    for &y in &b {
                        *self.blocked.entry((x, y)).or_insert(0) += 1;
                        *self.blocked.entry((y, x)).or_insert(0) += 1;
                    }
                }
                if self.tracer.is_some() {
                    self.trace(TraceEvent::Partitioned { at, a, b });
                }
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
                if self.tracer.is_some() {
                    self.trace(TraceEvent::Healed { at, a, b });
                }
            }
            EventKind::HealAll => {
                self.count(|p| p.heal_events += 1);
                self.blocked.clear();
                if self.tracer.is_some() {
                    self.trace(TraceEvent::Healed {
                        at,
                        a: Vec::new(),
                        b: Vec::new(),
                    });
                }
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
                if self.tracer.is_some() {
                    let degraded = profile.is_some();
                    self.trace(TraceEvent::LinkOverride { at, a, b, degraded });
                }
            }
        }
    }

    fn run_handler(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn AnyProcess<M>, &mut Context<'_, M>),
    ) {
        let Some(slot) = self.nodes.get_mut(&node) else {
            return;
        };
        let Some(mut process) = slot.process.take() else {
            return;
        };
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
            };
            f(process.as_mut(), &mut ctx);
        }
        let exited = effects.iter().any(|e| matches!(e, Effect::Exit));
        if let Some(slot) = self.nodes.get_mut(&node) {
            slot.process = Some(process);
            if exited {
                slot.alive = false;
            }
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
            Effect::Exit => {}
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
        self.trace(TraceEvent::Sent {
            at,
            from,
            to,
            class,
            bytes: size,
        });
        if self.blocked.contains_key(&(from.node, to.node)) {
            self.stats.class_mut(class).dropped_partition += 1;
            self.trace(TraceEvent::Dropped {
                at,
                from,
                to,
                class,
                reason: DropReason::Partition,
            });
            return;
        }
        let profile = match self.overrides.get(&(from.node, to.node)) {
            Some(p) => p.clone(),
            None => match &self.topology {
                Some(topo) => topo.profile_for(from.node, to.node).clone(),
                None => self.default_profile.clone(),
            },
        };
        // Loss: plain i.i.d. by default; with `burst` set, a Gilbert–Elliott
        // two-state chain advanced once per datagram (one transition draw,
        // then the state-dependent loss draw). Profiles without `burst` draw
        // nothing extra, keeping existing runs byte-identical.
        let loss_now = match profile.burst {
            None => profile.loss,
            Some(burst) => {
                let bad = self.burst_bad.entry((from.node, to.node)).or_insert(false);
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
            self.trace(TraceEvent::Dropped {
                at,
                from,
                to,
                class,
                reason: DropReason::Loss,
            });
            return;
        }
        let mut depart = self.now;
        if let Some(bandwidth) = profile.bandwidth {
            let serialization = Duration::from_secs_f64(size as f64 / bandwidth as f64);
            let busy = self.egress_busy.entry(from.node).or_insert(self.now);
            let start = (*busy).max(self.now);
            *busy = start + serialization;
            depart = *busy;
        }
        let duplicate = profile.duplicate > 0.0 && self.rng.gen_f64() < profile.duplicate;
        if duplicate {
            self.stats.class_mut(class).duplicated += 1;
            let delay = self.draw_delay(&profile);
            let copy = msg.clone();
            self.schedule(
                depart + delay,
                EventKind::Deliver {
                    from,
                    to,
                    msg: copy,
                    class,
                    sent_at: at,
                },
            );
        }
        let delay = self.draw_delay(&profile);
        self.schedule(
            depart + delay,
            EventKind::Deliver {
                from,
                to,
                msg,
                class,
                sent_at: at,
            },
        );
    }

    fn draw_delay(&mut self, profile: &LinkProfile) -> Duration {
        let mut delay = profile.base_delay;
        if !profile.jitter.is_zero() {
            delay += profile.jitter.mul_f64(self.rng.gen_f64());
        }
        if profile.reorder > 0.0 && self.rng.gen_f64() < profile.reorder {
            delay += profile.reorder_extra;
        }
        delay
    }
}

impl<M: Payload> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("nodes", &self.nodes.len())
            .finish()
    }
}
