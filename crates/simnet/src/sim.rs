//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns the event queue, the simulated hosts and the network
//! model. It is fully deterministic: given the same seed and the same
//! sequence of API calls, two runs produce identical event orders, identical
//! random draws and therefore identical results — the property that makes
//! every figure in the experiment harness exactly reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
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

/// A structured observability event, delivered with the simulated time it
/// happened at to the tracer installed with [`Simulation::set_tracer`].
/// Tracing is entirely passive: it cannot affect the run.
///
/// A send is not an event: [`NetStats`] counts sends per class, and
/// [`Simulation::last_datagram_at`] is the time of the last send or
/// delivery, traced or not.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A datagram of a class the tracer asked for reached a live
    /// destination process.
    Delivered {
        /// Simulated time at which the datagram was submitted to the
        /// network (so the delivery time minus `sent_at` is the end-to-end
        /// latency, including serialization, propagation and reordering).
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
        /// The node.
        node: NodeId,
    },
    /// A node crashed.
    NodeCrashed {
        /// The node.
        node: NodeId,
    },
    /// A previously crashed node booted again (repair): its `on_start` is
    /// about to run on a fresh process. Emitted instead of
    /// [`TraceEvent::NodeStarted`] when the node had crashed before.
    NodeRestarted {
        /// The node.
        node: NodeId,
    },
    /// A partition came up between two sets of nodes.
    Partitioned {
        /// One side of the cut.
        a: Vec<NodeId>,
        /// The other side of the cut.
        b: Vec<NodeId>,
    },
    /// A partition was healed. Empty node lists mean *all* partitions were
    /// removed at once ([`Simulation::heal_all_at`]).
    Healed {
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
        /// One side of the affected links.
        a: Vec<NodeId>,
        /// The other side of the affected links.
        b: Vec<NodeId>,
        /// Whether overrides were installed (`true`) or cleared (`false`).
        degraded: bool,
    },
}

type Tracer = Box<dyn FnMut(SimTime, &TraceEvent)>;

/// A pending event's body: 128 bytes for `VodWire` (104), so the rare
/// events box what would widen it, and a delivery asks its message for its
/// class ([`Payload::class`]) instead of carrying it.
pub(crate) enum EventKind<M: Payload> {
    Deliver {
        from: Endpoint,
        to: Endpoint,
        msg: M,
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
    SetDefaultProfile {
        profile: Box<LinkProfile>,
    },
    SetLinkOverrides {
        a: Vec<NodeId>,
        b: Vec<NodeId>,
        profile: Option<Box<LinkProfile>>,
    },
}

/// The bodies of pending events, out of line from the queue's keys.
///
/// A body is written once, where it is created — [`Context::send`] builds
/// a delivery here while the handler runs — and from then on only its
/// cell index moves: through the effects list, through `route`, into the
/// queue's key. Whoever ends an event's life takes the body out and the
/// cell goes on the free list, so the slab stays within a handler's sends
/// of the peak queue depth.
pub(crate) struct Slab<M: Payload> {
    cells: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M: Payload> Slab<M> {
    fn new() -> Self {
        Slab {
            cells: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A cell holding nothing, and its index. Handing the cell out before
    /// the body exists is what lets the caller build the body in it — `*cell
    /// = Some(EventKind::..)` with nothing between that can fail — instead
    /// of on its stack and then copy it here.
    pub(crate) fn vacant(&mut self) -> (u32, &mut Option<EventKind<M>>) {
        let cell = self.free.pop().unwrap_or_else(|| {
            let cell = u32::try_from(self.cells.len()).expect("over 2^32 pending events");
            self.cells.push(None);
            cell
        });
        (cell, &mut self.cells[cell as usize])
    }

    fn insert(&mut self, kind: EventKind<M>) -> u32 {
        let (cell, vacant) = self.vacant();
        *vacant = Some(kind);
        cell
    }

    /// Empties `cell` and frees it, returning what it held: the body is
    /// moved once, `Option` and all.
    fn take(&mut self, cell: u32) -> Option<EventKind<M>> {
        self.free.push(cell);
        self.cells[cell as usize].take()
    }
}

/// The pending-event queue: one-integer keys in three sorted sources —
/// a [`Calendar`] of the keys due within [`HORIZON`], FIFO lanes of the
/// constant-delay timers, and a binary heap of the rest. The bodies live
/// in the [`Slab`].
///
/// A key is 16 bytes instead of a whole `EventKind` (a `Deliver` carries
/// the application message inline). `seq` is unique and assigned in push
/// order, so `(at, seq)` is a total order: same-instant events pop in the
/// order they were scheduled, which is the determinism contract every
/// golden file rests on.
///
/// A lane holds the timers armed with one delay `at - now`. `now` never
/// decreases and `seq` grows, so each such key is above the one before
/// it: a lane is sorted by construction and needs no sift. Every other
/// key due within the horizon goes to the calendar, sorted by
/// construction too; only what is further out is sifted. `pop` takes the
/// least of the three heads, so what comes out is the same `(at, seq)`
/// order whichever source holds a key — routing decides speed, never
/// order.
struct EventQueue {
    /// Min-heap of [`EventQueue::key`]s.
    heap: BinaryHeap<Reverse<u128>>,
    calendar: Calendar,
    lanes: [VecDeque<u128>; LANES],
    /// Each lane's front, [`NO_KEY`] for an empty lane: inline, so that
    /// finding the least head after a pop reads one array instead of the
    /// fronts of eight deques.
    heads: [u128; LANES],
    /// The delay in microseconds each lane is bound to; [`UNBOUND`] from
    /// `bound` on.
    delays: [u64; LANES],
    bound: usize,
    /// The last delay that found no lane: asked for again at once, it is
    /// periodic enough to have one. (First-come binding spent the lanes
    /// on one-off start phases.)
    unmatched: u64,
    /// The least lane head and its lane, [`NO_KEY`] when every lane is
    /// empty. Cached because `next_at` and `pop` both want it for every
    /// event, and it only changes when a lane's head does.
    least: u128,
    least_lane: usize,
    seq: u64,
}

/// FIFO lanes beside the heap. A run arms its periodic timers with a
/// handful of delays (frame period, tick, heartbeat, sync, ...).
const LANES: usize = 8;
/// No timer is armed this far ahead: it would not fit a key's `at` field.
const UNBOUND: u64 = u64::MAX;
/// Above every key: that one would need 2^32 - 1 events pending.
const NO_KEY: u128 = u128::MAX;

/// Bits of a key holding `at` in microseconds: 8.9 simulated years.
const AT_BITS: u32 = 48;
/// Bits of a key holding `seq`: 2.8 × 10¹⁴ events scheduled in one run.
const SEQ_BITS: u32 = 48;
const CELL_BITS: u32 = u32::BITS;

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            calendar: Calendar::new(),
            lanes: Default::default(),
            heads: [NO_KEY; LANES],
            delays: [UNBOUND; LANES],
            bound: 0,
            unmatched: UNBOUND,
            least: NO_KEY,
            least_lane: 0,
            seq: 0,
        }
    }

    /// Packs `at | seq | cell`, most significant first, so the numeric
    /// order of keys *is* `(at, seq)` order and a sift step is one integer
    /// compare; the cell rides along in the low bits and never decides a
    /// comparison because `seq` is unique.
    ///
    /// # Panics
    ///
    /// Panics if `at` or `seq` does not fit its field: a wrapped key would
    /// silently reorder the run.
    fn key(at: SimTime, seq: u64, cell: u32) -> u128 {
        assert!(
            at.as_micros() >> AT_BITS == 0,
            "event scheduled past 2^48 us of simulated time"
        );
        assert!(seq >> SEQ_BITS == 0, "over 2^48 events scheduled");
        (u128::from(at.as_micros()) << (SEQ_BITS + CELL_BITS))
            | (u128::from(seq) << CELL_BITS)
            | u128::from(cell)
    }

    fn next_key(&mut self, at: SimTime, cell: u32) -> u128 {
        let key = Self::key(at, self.seq, cell);
        self.seq += 1;
        key
    }

    fn len(&self) -> usize {
        self.heap.len() + self.calendar.len + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    fn at_of(key: u128) -> SimTime {
        SimTime::from_micros((key >> (SEQ_BITS + CELL_BITS)) as u64)
    }

    #[inline]
    fn heap_top(&self) -> u128 {
        self.heap.peek().map_or(NO_KEY, |&Reverse(key)| key)
    }

    #[inline]
    fn next_at(&self) -> Option<SimTime> {
        let key = self.calendar.least.min(self.least).min(self.heap_top());
        (key != NO_KEY).then(|| Self::at_of(key))
    }

    /// Queues a key that has no lane: on the calendar if it is due within
    /// the horizon, on the heap otherwise.
    #[inline]
    fn push(&mut self, at: SimTime, cell: u32) {
        let key = self.next_key(at, cell);
        self.push_unlaned(key);
    }

    #[inline]
    fn push_unlaned(&mut self, key: u128) {
        debug_assert!(
            Self::at_of(key).as_micros() >= self.calendar.origin,
            "a key below the last pop"
        );
        if self.calendar.holds(key) {
            self.calendar.push(key);
        } else {
            self.heap.push(Reverse(key));
        }
    }

    /// Pushes a timer armed at `now` for `at`, on the lane of its delay if
    /// there is one. `now` must not be below that of an earlier call.
    fn push_timer(&mut self, now: SimTime, at: SimTime, cell: u32) {
        let key = self.next_key(at, cell);
        let delay = at.as_micros() - now.as_micros();
        let lane = match self.delays.iter().position(|&bound| bound == delay) {
            Some(lane) => lane,
            None if delay == self.unmatched && self.bound < LANES => {
                self.delays[self.bound] = delay;
                self.bound += 1;
                self.bound - 1
            }
            None => {
                self.unmatched = delay;
                self.push_unlaned(key);
                return;
            }
        };
        let keys = &mut self.lanes[lane];
        debug_assert!(keys.back().is_none_or(|&tail| tail < key));
        if keys.is_empty() {
            self.heads[lane] = key;
            if key < self.least {
                (self.least, self.least_lane) = (key, lane);
            }
        }
        keys.push_back(key);
    }

    /// The next event's time and cell, in `(at, seq)` order.
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let heap = self.heap_top();
        let key = if self.calendar.least < self.least.min(heap) {
            self.calendar.pop()
        } else if self.least < heap {
            let keys = &mut self.lanes[self.least_lane];
            let key = keys.pop_front().expect("the cached head is queued");
            self.heads[self.least_lane] = keys.front().copied().unwrap_or(NO_KEY);
            (self.least, self.least_lane) = (NO_KEY, 0);
            for (lane, &head) in self.heads.iter().enumerate() {
                if head < self.least {
                    (self.least, self.least_lane) = (head, lane);
                }
            }
            key
        } else {
            self.heap.pop()?.0
        };
        let at = Self::at_of(key);
        self.calendar.origin = at.as_micros();
        // Truncation keeps exactly the cell field.
        Some((at, key as u32))
    }
}

/// Slots of the [`Calendar`], one microsecond each: it holds the keys due
/// less than this many microseconds after the last pop. 2¹¹ and 2¹⁴
/// slots measured about the same as 2¹² on `steady_fleet`; 2¹⁶ cost
/// `paper_figs` 30 % of its wall time, because each of its 300
/// simulations builds a 512 KB table.
const HORIZON: u64 = 1 << 12;
/// Words of the calendar's occupancy bitmap.
const SLOT_WORDS: usize = (HORIZON / u64::BITS as u64) as usize;

/// The keys due within [`HORIZON`] of the last pop, in one FIFO per
/// microsecond.
///
/// The window is exactly one turn of the calendar, so every key in a
/// slot has the same `at`, and keys arrive in `seq` order: each FIFO is
/// in `(at, seq)` order without a compare. Every key lies in `[origin,
/// origin + HORIZON)` — a push is never below the clock and the clock
/// never below the last pop — so a circular scan of the occupancy bitmap
/// from `origin`'s slot meets the slots in `at` order.
struct Calendar {
    /// The `at` of the last pop, in microseconds.
    origin: u64,
    /// First and last cell of each slot's FIFO, plus one, so that 0 marks
    /// an empty slot and a new calendar is zero-filled memory.
    ends: Box<[[u32; 2]; HORIZON as usize]>,
    /// By cell: its key and the next cell of its FIFO plus one (0 ends
    /// it). A cell is queued at most once at a time.
    queued: Vec<(u128, u32)>,
    /// One bit per non-empty slot.
    occupied: [u64; SLOT_WORDS],
    len: usize,
    /// The least key held, [`NO_KEY`] when empty.
    least: u128,
}

impl Calendar {
    fn new() -> Self {
        let ends = vec![[0; 2]; HORIZON as usize].into_boxed_slice();
        Calendar {
            origin: 0,
            ends: ends.try_into().expect("one entry per slot"),
            queued: Vec::new(),
            occupied: [0; SLOT_WORDS],
            len: 0,
            least: NO_KEY,
        }
    }

    /// Whether `key`, not below `origin`, is due within the horizon.
    #[inline]
    fn holds(&self, key: u128) -> bool {
        EventQueue::at_of(key).as_micros().wrapping_sub(self.origin) < HORIZON
    }

    fn slot(key: u128) -> usize {
        (EventQueue::at_of(key).as_micros() % HORIZON) as usize
    }

    #[inline]
    fn push(&mut self, key: u128) {
        let (slot, cell) = (Self::slot(key), key as u32 as usize);
        if cell >= self.queued.len() {
            self.queued.resize(cell + 1, (NO_KEY, 0));
        }
        self.queued[cell] = (key, 0);
        let link = cell as u32 + 1;
        let [head, tail] = &mut self.ends[slot];
        if *tail == 0 {
            *head = link;
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.queued[*tail as usize - 1].1 = link;
        }
        *tail = link;
        self.len += 1;
        self.least = self.least.min(key);
    }

    /// Takes out the least key; there must be one.
    fn pop(&mut self) -> u128 {
        let key = self.least;
        let slot = Self::slot(key);
        let next = self.queued[key as u32 as usize].1;
        self.len -= 1;
        self.least = if next != 0 {
            self.ends[slot][0] = next;
            self.queued[next as usize - 1].0
        } else {
            self.ends[slot] = [0; 2];
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            self.first_from(slot)
        };
        key
    }

    /// The head of the first non-empty slot at or circularly after
    /// `slot`, [`NO_KEY`] if there is none.
    fn first_from(&self, slot: usize) -> u128 {
        if self.len == 0 {
            return NO_KEY;
        }
        let mut word = slot / 64;
        // The rest of this word first; its slots below `slot` come last,
        // when the scan wraps round to it.
        let mut bits = self.occupied[word] & (u64::MAX << (slot % 64));
        while bits == 0 {
            word = (word + 1) % SLOT_WORDS;
            bits = self.occupied[word];
        }
        let first = word * 64 + bits.trailing_zeros() as usize;
        self.queued[self.ends[first][0] as usize - 1].0
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
    queue: EventQueue,
    bodies: Slab<M>,
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
    effects: Vec<Effect>,
    tracer: Option<Tracer>,
    /// When a datagram was last sent or delivered.
    last_datagram_at: SimTime,
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
            bodies: Slab::new(),
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
            last_datagram_at: SimTime::ZERO,
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

    /// Installs a tracer receiving the current time and a [`TraceEvent`]
    /// for every drop, boot, crash and fault, and for every delivery of a
    /// class `delivered` names ([`Payload::class`]; asked once per class).
    /// Pass a closure appending to a log, printing, or counting — tracing
    /// is passive and does not perturb the run.
    pub fn set_tracer(
        &mut self,
        delivered: fn(&str) -> bool,
        tracer: impl FnMut(SimTime, &TraceEvent) + 'static,
    ) {
        self.stats.trace_deliveries(delivered);
        self.tracer = Some(Box::new(tracer));
    }

    /// The time of the last datagram sent or delivered (time zero before
    /// the first): where a trace that keeps no send and only some
    /// deliveries would have ended had it kept them all.
    pub fn last_datagram_at(&self) -> SimTime {
        self.last_datagram_at
    }

    /// Hands the tracer the current time and the event `make` builds;
    /// without a tracer the event is never built.
    #[inline]
    fn trace(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer(self.now, &make());
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
    /// dictates. The tracer sees [`TraceEvent::LinkOverride`]. An `at` already
    /// past means now.
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
                profile: profile.map(Box::new),
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
    /// "a new server may be brought up on the fly"). An `at` already past
    /// means now.
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
    /// node are still delivered (they left the NIC before the crash). An `at`
    /// already past means now.
    pub fn crash_at(&mut self, at: SimTime, id: NodeId) {
        self.schedule(at, EventKind::Crash { node: id });
    }

    /// Schedules a fresh `process` to boot on the previously crashed node
    /// `id` at time `at` — the repair side of the crash/repair cycle. The
    /// replacement process starts from its initial state (a real machine
    /// reboot loses volatile memory); the tracer sees
    /// [`TraceEvent::NodeRestarted`] instead of `NodeStarted` when the node
    /// had crashed before. An `at` already past means now.
    pub fn restart_at(&mut self, at: SimTime, id: NodeId, process: impl Process<M>) {
        self.start_node_at(at, id, process);
    }

    /// Schedules a replacement of the default link profile at time `at`
    /// (link overrides are untouched). Chaos campaigns use a pair of these
    /// to model a transient network degradation: degrade at `t`, restore
    /// the base profile at `t + duration`. An `at` already past means now.
    pub fn set_default_profile_at(&mut self, at: SimTime, profile: LinkProfile) {
        let profile = Box::new(profile);
        self.schedule(at, EventKind::SetDefaultProfile { profile });
    }

    /// Schedules a network partition separating every node in `a` from every
    /// node in `b` (both directions) at time `at`, or now if that is past.
    pub fn partition_at(&mut self, at: SimTime, a: &[NodeId], b: &[NodeId]) {
        self.schedule(
            at,
            EventKind::Partition {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        );
    }

    /// Schedules the removal of the partition between `a` and `b` at `at`, or
    /// now if that is past. Two empty sides remove every partition.
    pub fn heal_at(&mut self, at: SimTime, a: &[NodeId], b: &[NodeId]) {
        self.schedule(
            at,
            EventKind::Heal {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        );
    }

    /// Schedules the removal of *all* partitions at `at`, or now if that is
    /// past.
    pub fn heal_all_at(&mut self, at: SimTime) {
        self.heal_at(at, &[], &[]);
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
            let (at, cell) = self.queue.pop().expect("peeked event vanished");
            self.dispatch_cell(at, cell);
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
            Some((at, cell)) => {
                let started = self.profile.as_ref().map(|_| Instant::now());
                self.dispatch_cell(at, cell);
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
                bodies: &mut self.bodies,
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
            // Only `f` can exit, and a process of another type never ran it.
            if exited {
                slot.alive = false;
            }
        }
        // Nor did it leave effects.
        for effect in effects.drain(..) {
            self.apply_effect(node, effect);
        }
        self.effects = effects;
        result
    }

    /// Queues a fault or boot, no earlier than now: the clock never runs
    /// backwards, which the queue's lanes and calendar rely on.
    fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        let cell = self.bodies.insert(kind);
        self.queue.push(at.max(self.now), cell);
        self.note_depth();
    }

    fn note_depth(&mut self) {
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

    /// Runs the event queued in `cell` at `at` and frees the cell. A
    /// timer's three words are copied out and its body stays put; any
    /// other body is moved out once.
    fn dispatch_cell(&mut self, at: SimTime, cell: u32) {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        let slot = &mut self.bodies.cells[cell as usize];
        if let Some(EventKind::Timer { node, id, tag }) = *slot {
            *slot = None;
            self.bodies.free.push(cell);
            // Most runs never cancel a timer: skip the hash then.
            if !self.cancelled.is_empty() && self.cancelled.remove(&id.0) {
                self.count(|p| p.timer_squashed += 1);
            } else if !self.is_alive(node) {
                self.count(|p| p.timer_dead += 1);
            } else {
                self.count(|p| p.timer_fired += 1);
                self.run_handler(node, |process, ctx| {
                    process.on_timer(ctx, Timer { id, tag });
                });
            }
            return;
        }
        match self.bodies.take(cell) {
            Some(EventKind::Deliver {
                from,
                to,
                msg,
                sent_at,
            }) => {
                self.count(|p| p.deliver_events += 1);
                self.last_datagram_at = at;
                let class = msg.class();
                let alive = self.is_alive(to.node);
                let (counters, traced) = self.stats.row(class);
                if !alive {
                    counters.dropped_dead += 1;
                    self.trace(|| TraceEvent::Dropped {
                        from,
                        to,
                        class,
                        reason: DropReason::DeadNode,
                    });
                    return;
                }
                counters.delivered_msgs += 1;
                if traced {
                    self.trace(|| TraceEvent::Delivered {
                        sent_at,
                        from,
                        to,
                        class,
                    });
                }
                self.run_handler(to.node, |process, ctx| {
                    process.on_datagram(ctx, from, to, msg);
                });
            }
            Some(EventKind::Start { node, process }) => {
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
                    self.trace(|| TraceEvent::NodeRestarted { node });
                } else {
                    self.trace(|| TraceEvent::NodeStarted { node });
                }
                self.run_handler(node, |process, ctx| process.on_start(ctx));
            }
            Some(EventKind::Crash { node }) => {
                self.count(|p| p.crash_events += 1);
                if let Some(slot) = self.slot_mut(node) {
                    slot.alive = false;
                }
                self.crashed.insert(node);
                self.trace(|| TraceEvent::NodeCrashed { node });
            }
            Some(EventKind::Partition { a, b }) => {
                self.count(|p| p.partition_events += 1);
                for &x in &a {
                    for &y in &b {
                        *self.blocked.entry((x, y)).or_insert(0) += 1;
                        *self.blocked.entry((y, x)).or_insert(0) += 1;
                    }
                }
                self.trace(|| TraceEvent::Partitioned { a, b });
            }
            Some(EventKind::Heal { a, b }) => {
                self.count(|p| p.heal_events += 1);
                if a.is_empty() && b.is_empty() {
                    self.blocked.clear();
                }
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
                self.trace(|| TraceEvent::Healed { a, b });
            }
            Some(EventKind::SetDefaultProfile { profile }) => {
                self.count(|p| p.profile_change_events += 1);
                self.default_profile = *profile;
            }
            Some(EventKind::SetLinkOverrides { a, b, profile }) => {
                self.count(|p| p.profile_change_events += 1);
                for &x in &a {
                    for &y in &b {
                        match &profile {
                            Some(p) => {
                                self.overrides.insert((x, y), (**p).clone());
                                self.overrides.insert((y, x), (**p).clone());
                            }
                            None => {
                                self.overrides.remove(&(x, y));
                                self.overrides.remove(&(y, x));
                            }
                        }
                    }
                }
                let degraded = profile.is_some();
                self.trace(|| TraceEvent::LinkOverride { a, b, degraded });
            }
            Some(EventKind::Timer { .. }) | None => {
                unreachable!("a queued cell is filled, and a timer's was emptied above")
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
                bodies: &mut self.bodies,
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

    fn apply_effect(&mut self, node: NodeId, effect: Effect) {
        match effect {
            Effect::Send(cell) => self.route(cell),
            Effect::SetTimer { id, at, tag } => {
                self.count(|p| p.timers_set += 1);
                let (cell, vacant) = self.bodies.vacant();
                *vacant = Some(EventKind::Timer { node, id, tag });
                self.queue.push_timer(self.now, at, cell);
                self.note_depth();
            }
            Effect::CancelTimer(id) => {
                self.count(|p| p.timers_cancelled += 1);
                self.cancelled.insert(id.0);
            }
        }
    }

    /// Decides the fate of the delivery [`Context::send`] left in `cell`:
    /// a drop frees the cell, a duplicate is cloned into a second one, and
    /// otherwise only the cell's index is queued.
    fn route(&mut self, cell: u32) {
        self.count(|p| p.msgs_routed += 1);
        let Some(EventKind::Deliver {
            from, to, ref msg, ..
        }) = self.bodies.cells[cell as usize]
        else {
            unreachable!("a send effect names the delivery it built");
        };
        let (size, class) = (msg.size_bytes(), msg.class());
        {
            let counters = self.stats.class_mut(class);
            counters.sent_msgs += 1;
            counters.sent_bytes += size as u64;
        }
        let at = self.now;
        self.last_datagram_at = at;
        let link = (from.node, to.node);
        if !self.blocked.is_empty() && self.blocked.contains_key(&link) {
            self.stats.class_mut(class).dropped_partition += 1;
            self.trace(|| TraceEvent::Dropped {
                from,
                to,
                class,
                reason: DropReason::Partition,
            });
            self.bodies.take(cell);
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
                from,
                to,
                class,
                reason: DropReason::Loss,
            });
            self.bodies.take(cell);
            return;
        }
        let mut depart = at;
        if let Some(bandwidth) = profile.bandwidth {
            let serialization = serialization(size, bandwidth);
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
        if let Some(copy_at) = copy_at {
            self.stats.class_mut(class).duplicated += 1;
            let Some(EventKind::Deliver { msg, .. }) = &self.bodies.cells[cell as usize] else {
                unreachable!("matched above");
            };
            let copy = self.bodies.insert(EventKind::Deliver {
                from,
                to,
                msg: msg.clone(),
                sent_at: at,
            });
            self.queue.push(copy_at, copy);
        }
        self.queue.push(deliver_at, cell);
        self.note_depth();
    }
}

/// `size / bandwidth` seconds, exactly
/// `Duration::from_secs_f64(size as f64 / bandwidth as f64)` computed in
/// integers. Below 2⁵³ both operands are exact, so the float quotient is
/// within 2⁻⁵³ of the exact one and `from_secs_f64` rounds it to the
/// nearest nanosecond: away from a half nanosecond by more than that
/// error, the exact quotient rounded to nearest is the answer; nearer, or
/// out of that range, the float expression decides. A zero bandwidth
/// takes the float path too, whose panic names it.
fn serialization(size: usize, bandwidth: u64) -> Duration {
    const EXACT: u64 = 1 << 53;
    let float = || Duration::from_secs_f64(size as f64 / bandwidth as f64);
    let num = match (size as u64).checked_mul(1_000_000_000) {
        Some(num) if (1..EXACT).contains(&bandwidth) => num,
        _ => return float(),
    };
    let (ns, twice_rem) = (num / bandwidth, 2 * (num % bandwidth));
    if twice_rem.abs_diff(bandwidth) <= (num >> 52) + 1 {
        return float();
    }
    let exact = Duration::from_nanos(ns + u64::from(twice_rem > bandwidth));
    debug_assert_eq!(exact, float());
    exact
}

fn draw_delay(rng: &mut SimRng, profile: &LinkProfile) -> Duration {
    let mut delay = profile.base_delay;
    if !profile.jitter.is_zero() {
        delay += rng.jitter(profile.jitter);
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

#[cfg(test)]
mod exact_delays;

/// Differential test of the event queue's ordering contract: a seeded
/// random script of one-off and periodic timers, cancels, sends over
/// instant, slow, lossy-and-duplicating and partitioned links, exits,
/// crashes, restarts and outside invocations — full of same-instant ties —
/// runs through [`Simulation`] and through a reference model whose queue
/// is a `Vec` stably sorted by time, and both must dispatch the same
/// events in the same order. A property then holds the queue alone to a
/// sorted list of its keys.
#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet, HashSet};
    use std::rc::Rc;

    use proptest::prelude::*;

    use super::*;
    use crate::net::Port;

    const NODES: u32 = 5;
    const PORT: Port = Port(1);
    /// The one link with a delay; every other send arrives in the instant it
    /// was sent. Its delay plus jitter straddles the calendar's horizon, so
    /// its datagrams go to the calendar and to the heap.
    const SLOW_LINK: (u32, u32) = (1, 2);
    const SLOW_DELAY: Duration = Duration::from_micros(4_000);
    const SLOW_JITTER: Duration = Duration::from_micros(200);
    /// The one link that loses and duplicates.
    const LOSSY_LINK: (u32, u32) = (3, 4);
    const LOSS: f64 = 0.3;
    const DUPLICATE: f64 = 0.3;
    /// The two sides of the one partition, and when it holds.
    const CUT: ([u32; 2], [u32; 2]) = ([1, 2], [4, 5]);
    const CUT_FROM: SimTime = SimTime::from_millis(20);
    const CUT_UNTIL: SimTime = SimTime::from_millis(50);
    /// Delays in microseconds that scripts arm again and again: more of them
    /// than the queue has lanes, so some are bound and the rest refused, and
    /// all on one 500 µs grid, so lanes tie with each other and with the heap.
    const PERIODS: [u64; 12] = [
        500, 1_000, 1_500, 2_000, 2_500, 3_000, 4_000, 5_000, 6_000, 7_500, 8_000, 10_000,
    ];
    /// Tag `PERIODIC + i` marks a timer that re-arms itself `PERIODS[i]` on.
    const PERIODIC: u64 = 1000;
    /// Most actions, so most sends, of one handler call.
    const MAX_ACTIONS: u64 = 3;

    /// `clone` is what the network calls to duplicate a datagram, and nobody
    /// else: a copy can be told from its original.
    #[derive(Debug)]
    struct Note {
        copy: bool,
    }

    impl Clone for Note {
        fn clone(&self) -> Self {
            Note { copy: true }
        }
    }

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
        Timer {
            id: u64,
            tag: u64,
        },
        Datagram {
            from: u32,
            copy: bool,
        },
        /// Called from outside, between events.
        Invoked,
    }

    /// What a scripted process may do; implemented over a [`Context`] and
    /// over the reference model.
    trait Host {
        fn now(&self) -> SimTime;
        fn send(&mut self, to: u32);
        fn set_timer_at(&mut self, at: SimTime, tag: u64) -> u64;
        fn cancel(&mut self, id: u64);
        fn exit(&mut self);
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

        fn arm_periodic(&mut self, host: &mut impl Host, tag: u64) {
            let period = Duration::from_micros(PERIODS[(tag - PERIODIC) as usize]);
            self.armed.push(host.set_timer_at(host.now() + period, tag));
        }

        fn react(&mut self, host: &mut impl Host, what: Seen) {
            if self.reactions_left == 0 {
                return;
            }
            self.reactions_left -= 1;
            if let Seen::Timer { tag, .. } = what {
                if tag >= PERIODIC {
                    self.arm_periodic(host, tag);
                }
            }
            for _ in 0..1 + self.rng.gen_u64_below(MAX_ACTIONS) {
                let tag = self.rng.gen_u64_below(PERIODIC);
                match self.rng.gen_u64_below(6) {
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
                    3 => {
                        if !self.armed.is_empty() {
                            let pick = self.rng.gen_u64_below(self.armed.len() as u64) as usize;
                            host.cancel(self.armed[pick]);
                        }
                    }
                    4 => {
                        let period = self.rng.gen_u64_below(PERIODS.len() as u64);
                        self.arm_periodic(host, PERIODIC + period);
                    }
                    _ => {
                        if self.rng.gen_u64_below(48) == 0 {
                            host.exit();
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
            self.0
                .send(PORT, Endpoint::new(NodeId(to), PORT), Note { copy: false });
        }
        fn set_timer_at(&mut self, at: SimTime, tag: u64) -> u64 {
            self.0.set_timer_at(at, tag).0
        }
        fn cancel(&mut self, id: u64) {
            self.0.cancel_timer(TimerId(id));
        }
        fn exit(&mut self) {
            self.0.exit();
        }
    }

    impl Scripted {
        fn seen(&mut self, ctx: &mut Context<'_, Note>, what: Seen) {
            self.log.borrow_mut().push((ctx.now(), ctx.node().0, what));
            self.script.react(&mut CtxHost(ctx), what);
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
            msg: Note,
        ) {
            let (from, copy) = (from.node.0, msg.copy);
            self.seen(ctx, Seen::Datagram { from, copy });
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Note>, timer: Timer) {
            let (id, tag) = (timer.id.0, timer.tag);
            self.seen(ctx, Seen::Timer { id, tag });
        }
    }

    enum ModelEvent {
        Start { node: u32, script: Script },
        Crash { node: u32 },
        Cut(bool),
        Timer { node: u32, id: u64, tag: u64 },
        Deliver { from: u32, to: u32, copy: bool },
    }

    /// The reference: pending events in a `Vec` that a *stable* sort keeps
    /// ordered by time alone, so same-instant events stay in push order.
    struct Model {
        now: SimTime,
        queue: Vec<(SimTime, ModelEvent)>,
        /// `(script, alive)` per booted node.
        nodes: BTreeMap<u32, (Option<Script>, bool)>,
        cut: bool,
        /// The network's generator: seeded like the simulation's and drawn
        /// from for the same datagrams in the same order.
        rng: SimRng,
        cancelled: HashSet<u64>,
        next_timer: u64,
        /// Raised by the running handler's `exit`.
        exiting: bool,
        exits: u64,
        log: Vec<Record>,
    }

    impl Model {
        fn new(seed: u64) -> Self {
            Model {
                now: SimTime::ZERO,
                queue: Vec::new(),
                nodes: BTreeMap::new(),
                cut: false,
                rng: SimRng::seed_from_u64(seed),
                cancelled: HashSet::new(),
                next_timer: 0,
                exiting: false,
                exits: 0,
                log: Vec::new(),
            }
        }

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
                ModelEvent::Cut(cut) => self.cut = cut,
                ModelEvent::Timer { node, id, tag } => {
                    if !self.cancelled.remove(&id) {
                        self.handle(node, Seen::Timer { id, tag });
                    }
                }
                ModelEvent::Deliver { from, to, copy } => {
                    self.handle(to, Seen::Datagram { from, copy });
                }
            }
            true
        }

        /// Whether `node` was alive to see it.
        fn handle(&mut self, node: u32, what: Seen) -> bool {
            let Some((script, true)) = self.nodes.get_mut(&node) else {
                return false;
            };
            let mut script = script.take().expect("no handler is running");
            self.log.push((self.now, node, what));
            script.react(&mut ModelHost { model: self, node }, what);
            let exited = std::mem::take(&mut self.exiting);
            self.exits += u64::from(exited);
            let row = self.nodes.get_mut(&node).expect("still booted");
            *row = (Some(script), !exited);
            true
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
            let on = |link: (u32, u32)| (from, to) == link || (to, from) == link;
            let (a, b) = CUT;
            let severed =
                a.contains(&from) && b.contains(&to) || b.contains(&from) && a.contains(&to);
            if self.model.cut && severed {
                return;
            }
            let mut duplicated = false;
            if on(LOSSY_LINK) {
                if self.model.rng.gen_f64() < LOSS {
                    return;
                }
                duplicated = self.model.rng.gen_f64() < DUPLICATE;
            }
            let delay = if on(SLOW_LINK) {
                SLOW_DELAY + self.model.rng.jitter(SLOW_JITTER)
            } else {
                Duration::ZERO
            };
            let at = self.model.now + delay;
            // The copy is queued ahead of its original.
            if duplicated {
                let copy = true;
                self.model.push(at, ModelEvent::Deliver { from, to, copy });
            }
            let copy = false;
            self.model.push(at, ModelEvent::Deliver { from, to, copy });
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
        fn exit(&mut self) {
            self.model.exiting = true;
        }
    }

    /// The three sources a key is popped from.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Source {
        Calendar,
        Lane,
        Heap,
    }

    /// The source the next `pop` takes from, the key it takes, and whether
    /// another source's head shares that key's instant.
    fn next_source(queue: &EventQueue) -> Option<(Source, u128, bool)> {
        let heads = [
            (Source::Calendar, queue.calendar.least),
            (Source::Lane, queue.least),
            (Source::Heap, queue.heap_top()),
        ];
        let (source, key) = heads.into_iter().min_by_key(|&(_, head)| head)?;
        let at = EventQueue::at_of(key);
        let tied = heads.iter().any(|&(other, head)| {
            other != source && head != NO_KEY && EventQueue::at_of(head) == at
        });
        (key != NO_KEY).then_some((source, key, tied))
    }

    /// Whether every inline lane head is its lane's front.
    fn heads_are_fronts(queue: &EventQueue) -> bool {
        let front = |keys: &VecDeque<u128>| keys.front().copied().unwrap_or(NO_KEY);
        queue
            .heads
            .iter()
            .copied()
            .eq(queue.lanes.iter().map(front))
    }

    /// What the next `step` will pop: its source, the id of the timer it
    /// is if it is one, whether it is a datagram, and whether another
    /// source's head shares its instant.
    fn upcoming(sim: &Simulation<Note>) -> Option<(Source, Option<u64>, bool, bool)> {
        let (source, key, tied) = next_source(&sim.queue)?;
        let (timer, datagram) = match &sim.bodies.cells[key as u32 as usize] {
            Some(EventKind::Timer { id, .. }) => (Some(id.0), false),
            body => (None, matches!(body, Some(EventKind::Deliver { .. }))),
        };
        Some((source, timer, datagram, tied))
    }

    /// The simulation of `seed` before its first event, and the log its
    /// handlers write; `model` is given the same boots, faults and cut.
    fn scripted_sim(seed: u64, model: &mut Model) -> (Simulation<Note>, Rc<RefCell<Vec<Record>>>) {
        let log: Rc<RefCell<Vec<Record>>> = Rc::default();
        let scripted = |node: u32, incarnation: u64| Scripted {
            script: Script::new(seed, node, incarnation),
            log: Rc::clone(&log),
        };
        let ids = |nodes: [u32; 2]| nodes.map(NodeId);
        let mut sim: Simulation<Note> = Simulation::new(seed);
        sim.enable_profiling();
        sim.set_link_profile_sym(
            NodeId(SLOW_LINK.0),
            NodeId(SLOW_LINK.1),
            LinkProfile::ideal()
                .with_base_delay(SLOW_DELAY)
                .with_jitter(SLOW_JITTER),
        );
        let mut lossy = LinkProfile::ideal().with_loss(LOSS);
        lossy.duplicate = DUPLICATE;
        sim.set_link_profile_sym(NodeId(LOSSY_LINK.0), NodeId(LOSSY_LINK.1), lossy);

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
        sim.partition_at(CUT_FROM, &ids(CUT.0), &ids(CUT.1));
        model.push(CUT_FROM, ModelEvent::Cut(true));
        sim.heal_at(CUT_UNTIL, &ids(CUT.0), &ids(CUT.1));
        model.push(CUT_UNTIL, ModelEvent::Cut(false));
        (sim, log)
    }

    /// Runs one seed through both and returns how often it met each of
    /// [`COVERED`].
    fn run_script(seed: u64) -> [u64; COVERED.len()] {
        let mut model = Model::new(seed);
        let (mut sim, log) = scripted_sim(seed, &mut model);
        let (mut laned, mut refused, mut lane_squashed, mut ties) = (0, 0, 0, 0);
        let (mut calendared, mut sifted, mut sifted_datagrams) = (0, 0, 0);
        let mut strangers = 0;
        let mut steps = 0;
        loop {
            if steps % 5 == 0 {
                let node = 1 + (steps / 5) % NODES;
                // A process of another type is not run and leaves nothing
                // behind, a dead one neither.
                let stranger = sim.invoke(NodeId(node), |_: &mut Script, ctx| {
                    ctx.send(PORT, Endpoint::new(NodeId(1), PORT), Note { copy: false });
                });
                assert!(stranger.is_none(), "seed {seed}, step {steps}");
                strangers += 1;
                let invoked = sim.invoke(NodeId(node), |process: &mut Scripted, ctx| {
                    process.seen(ctx, Seen::Invoked);
                });
                let expected = model.handle(node, Seen::Invoked);
                assert_eq!(invoked.is_some(), expected, "seed {seed}, step {steps}");
                assert!(heads_are_fronts(&sim.queue), "seed {seed}, step {steps}");
            }
            assert_eq!(
                sim.next_event_at(),
                model.next_at(),
                "seed {seed}, step {steps}"
            );
            if let Some((source, timer, datagram, tied)) = upcoming(&sim) {
                let from_lane = source == Source::Lane;
                laned += u64::from(from_lane);
                calendared += u64::from(source == Source::Calendar);
                sifted += u64::from(source == Source::Heap);
                sifted_datagrams += u64::from(source == Source::Heap && datagram);
                refused += u64::from(!from_lane && timer.is_some());
                lane_squashed +=
                    u64::from(from_lane && timer.is_some_and(|id| sim.cancelled.contains(&id)));
                ties += u64::from(tied);
            }
            let (stepped, expected) = (sim.step(), model.step());
            assert_eq!(stepped, expected, "seed {seed}, step {steps}");
            assert!(heads_are_fronts(&sim.queue), "seed {seed}, step {steps}");
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

        // Every cell was given back, by whoever ended its event — a pop, a
        // loss, a partition — and cells are reused: the slab never outgrows
        // the deepest queue plus the sends of the handler then running.
        let profile = sim.profile().expect("profiling is on");
        assert_eq!(sim.bodies.free.len(), sim.bodies.cells.len(), "seed {seed}");
        assert!(
            sim.bodies.cells.len() as u64 <= profile.peak_queue_depth + MAX_ACTIONS,
            "seed {seed}"
        );
        assert_eq!(sim.queue.len(), 0, "seed {seed}");

        let tied = model.log.windows(2).filter(|w| w[0].0 == w[1].0).count();
        let net = sim.stats().class("default");
        let copies = model
            .log
            .iter()
            .filter(|(_, _, what)| matches!(what, Seen::Datagram { copy: true, .. }));
        [
            profile.timer_squashed,
            profile.timer_dead + net.dropped_dead,
            // Ids left in the set were cancelled after firing, or twice.
            sim.cancelled.len() as u64,
            tied as u64,
            laned,
            calendared,
            sifted,
            sifted_datagrams,
            refused,
            u64::from(sim.queue.bound == LANES),
            lane_squashed,
            ties,
            net.dropped_loss,
            copies.count() as u64,
            net.dropped_partition,
            model.exits,
            strangers,
        ]
    }

    /// What [`run_script`] counts, so that the test can show it met each.
    const COVERED: [&str; 17] = [
        "timers squashed",
        "timers and datagrams for dead nodes",
        "stale cancels",
        "events sharing an instant",
        "keys popped from a lane",
        "keys popped from the calendar",
        "keys popped from the heap",
        "datagrams due past the horizon",
        "timers refused a lane",
        "runs that bound every lane",
        "lane timers squashed",
        "heads of two sources at one instant",
        "datagrams lost",
        "copies delivered",
        "datagrams partitioned",
        "exits",
        "invocations of another type",
    ];

    #[test]
    fn dispatch_order_matches_a_stably_sorted_vec() {
        let mut covered = [0; COVERED.len()];
        for seed in 0..40 {
            for (total, seen) in covered.iter_mut().zip(run_script(seed)) {
                *total += seen;
            }
        }
        // Not vacuous: every way an event can end and every way a key can
        // travel was met.
        let met: Vec<_> = COVERED.iter().zip(covered).collect();
        assert!(met.iter().all(|&(_, n)| n > 0), "{met:?}");
    }

    /// `step` and `run_until` share one dispatch path: a script driven one
    /// event at a time and one driven to its end in one call hand every
    /// handler the same events and leave the same counters.
    #[test]
    fn step_and_run_until_dispatch_alike() {
        let seed = 7;
        let (mut stepped, stepped_log) = scripted_sim(seed, &mut Model::new(seed));
        while stepped.step() {}
        let (mut ran, ran_log) = scripted_sim(seed, &mut Model::new(seed));
        ran.run_until(SimTime::from_secs(3_600));
        assert_eq!(ran.next_event_at(), None);
        assert!(stepped_log.borrow().len() > 200);
        assert_eq!(*stepped_log.borrow(), *ran_log.borrow());
        let counters = |sim: &Simulation<Note>| {
            let profile = sim.profile().expect("profiling is on").counters();
            (profile, sim.stats().to_string())
        };
        assert_eq!(counters(&stepped), counters(&ran));
    }

    /// A payload the shape of the VoD wire type: 104 bytes, and spare
    /// values in its tag for the cell's own discriminant.
    #[derive(Clone, Debug)]
    enum Wide {
        Frame([u64; 12], u8),
        Beat,
    }

    impl Payload for Wide {
        fn size_bytes(&self) -> usize {
            match self {
                Wide::Frame(words, tail) => 8 * words.len() + usize::from(*tail),
                Wide::Beat => 8,
            }
        }
    }

    #[test]
    fn an_event_cell_is_128_bytes_for_a_104_byte_payload() {
        let sizes = [Wide::Frame([0; 12], 0), Wide::Beat].map(|wide| wide.size_bytes());
        assert_eq!(sizes, [96, 8]);
        assert_eq!(std::mem::size_of::<Wide>(), 104);
        assert_eq!(std::mem::size_of::<Option<EventKind<Wide>>>(), 128);
    }

    /// Pushes `(kind, delay, pops after it)`: kind 0 is not a timer, 1 and 2
    /// arm one, 3 arms two in a row — what binds a lane.
    fn queue_script() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
        prop::collection::vec((0u8..4, 0usize..DELAYS.len(), 0u8..4), 600..1000)
    }

    /// More delays than lanes; `0` ties a timer with what was just popped,
    /// and the last four lie on both sides of the calendar's horizon.
    const DELAYS: [u64; 15] = [
        0, 3, 5, 7, 10, 20, 33, 50, 100, 250, 1000, 4_095, 4_096, 4_097, 10_000,
    ];

    proptest! {
        /// The queue alone against a sorted list of its keys: however timer
        /// pushes (lane or not), plain pushes and pops interleave under a
        /// clock that only moves forward, every pop is the least key pending
        /// and `len` is what went in less what came out.
        #[test]
        fn the_queue_pops_keys_in_ascending_order(script in queue_script()) {
            let mut queue = EventQueue::new();
            let mut pending: Vec<u128> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut popped_from = [0u64; 3];
            let mut pop = |queue: &mut EventQueue, pending: &mut Vec<u128>, now: &mut SimTime| {
                let source = next_source(queue).map(|(source, ..)| source);
                let least = pending.iter().copied().min();
                prop_assert_eq!(queue.next_at(), least.map(EventQueue::at_of));
                let popped = queue.pop();
                prop_assert_eq!(popped, least.map(|key| (EventQueue::at_of(key), key as u32)));
                if let (Some((at, _)), Some(source)) = (popped, source) {
                    pending.retain(|&key| Some(key) != least);
                    *now = at;
                    popped_from[source as usize] += 1;
                }
                prop_assert_eq!(queue.len(), pending.len());
                prop_assert!(heads_are_fronts(queue));
                Ok(())
            };
            let mut cell = 0;
            for (kind, delay, pops) in script {
                let at = now + Duration::from_micros(DELAYS[delay]);
                for _ in 0..if kind == 3 { 2 } else { 1 } {
                    pending.push(EventQueue::key(at, queue.seq, cell));
                    match kind {
                        0 => queue.push(at, cell),
                        _ => queue.push_timer(now, at, cell),
                    }
                    cell += 1;
                    prop_assert_eq!(queue.len(), pending.len());
                    prop_assert!(heads_are_fronts(&queue));
                }
                for _ in 0..pops {
                    pop(&mut queue, &mut pending, &mut now)?;
                }
            }
            while !pending.is_empty() {
                pop(&mut queue, &mut pending, &mut now)?;
            }
            prop_assert_eq!(queue.pop(), None);
            // Not vacuous: every source was popped from, the lanes ran out,
            // and the clock went round the calendar several times.
            prop_assert!(popped_from.iter().all(|&n| n > 0), "{popped_from:?}");
            prop_assert!(queue.bound == LANES);
            prop_assert!(now.as_micros() > 4 * HORIZON, "{now:?}");
        }
    }

    /// The long differential run, for release builds: a million random
    /// pushes, timer or not, and as many pops against a `BTreeSet` of the
    /// pending keys, with delays from 0 to three horizons, in phases that
    /// fill the queue and phases that drain it.
    #[test]
    #[ignore = "release-build sweep; run with --ignored"]
    fn a_million_random_pushes_pop_in_key_order() {
        let mut rng = SimRng::seed_from_u64(41);
        let mut queue = EventQueue::new();
        let mut pending = BTreeSet::new();
        let (mut free, mut cells) = (Vec::new(), 0u32);
        let mut now = SimTime::ZERO;
        let (mut pushes, mut ops) = (0, 0u64);
        let mut popped_from = [0u64; 3];
        while pushes < 1_000_000 || !pending.is_empty() {
            ops += 1;
            let filling = (ops / 20_000) % 2 == 0 && pushes < 1_000_000;
            if rng.gen_u64_below(10) < if filling { 6 } else { 4 } && pushes < 1_000_000 {
                // Timers of more periods than there are lanes bind them all.
                let periodic = rng.gen_u64_below(4) == 0;
                let delay = match rng.gen_u64_below(4) {
                    _ if periodic => PERIODS[rng.gen_u64_below(PERIODS.len() as u64) as usize],
                    0 => 0,
                    1 => HORIZON - 1 + rng.gen_u64_below(3),
                    _ => rng.gen_u64_below(3 * HORIZON),
                };
                let at = now + Duration::from_micros(delay);
                let cell = free.pop().unwrap_or_else(|| {
                    cells += 1;
                    cells - 1
                });
                pending.insert(EventQueue::key(at, queue.seq, cell));
                if periodic {
                    queue.push_timer(now, at, cell);
                } else {
                    queue.push(at, cell);
                }
                pushes += 1;
            } else {
                let source = next_source(&queue).map(|(source, ..)| source);
                let least = pending.pop_first();
                assert_eq!(queue.next_at(), least.map(EventQueue::at_of), "op {ops}");
                let popped = queue.pop();
                assert_eq!(
                    popped,
                    least.map(|key| (EventQueue::at_of(key), key as u32)),
                    "op {ops}"
                );
                if let (Some((at, cell)), Some(source)) = (popped, source) {
                    now = at;
                    free.push(cell);
                    popped_from[source as usize] += 1;
                }
            }
            assert_eq!(queue.len(), pending.len(), "op {ops}");
            assert!(heads_are_fronts(&queue), "op {ops}");
        }
        assert!(popped_from.iter().all(|&n| n > 10_000), "{popped_from:?}");
        assert!(
            queue.bound == LANES && now.as_micros() > 1_000 * HORIZON,
            "{now:?}"
        );
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
