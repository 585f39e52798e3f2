//! The reference burst: a fixed piece of work in the benchmark's own
//! code, timed between units to tell how fast the machine is *right
//! now*.
//!
//! Why it exists. The sandbox alternates, for tens of seconds at a time,
//! between a calm mode and one in which branchy, allocation-heavy code
//! runs 1.3–1.7× slower (a plain ALU loop barely slows, so it is
//! contention on the core's front end or caches by neighbours, not the
//! clock). A whole 20 s invocation can fall inside the slow mode, and
//! then no minimum over its passes helps: measured over ten invocations,
//! the per-unit best of 3–4 passes still spread 22–33 %. A burst timed
//! next to a unit slows down with it (correlation 0.8), so dividing the
//! unit's time by the burst's slowdown takes most of the mode out: over
//! the same noise, pass times divided by burst times spread 1–6 %.
//!
//! The burst must not change when the program does, so it uses nothing
//! from the repo's crates: it is a tiny discrete-event loop over `std`
//! collections (a heap of events carrying small allocations, handlers
//! behind `dyn`, per-node `BTreeMap`s, a hash set of cancellations) —
//! the kind of code the simulator is made of, which is what makes it
//! slow down in step with it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Time of one burst on the box the benchmark was sized on, in its calm
/// mode, nanoseconds. Host metrics are scaled to a machine on which a
/// burst takes this long; only ratios of a burst's time to this constant
/// are ever used, so on another machine every host metric shifts by one
/// constant factor and comparisons between commits are unaffected.
pub const REFERENCE_NS: f64 = 1_300_000.0;

/// Events one burst dispatches.
const BURST_EVENTS: u64 = 15_000;

type Outbox = Vec<(u64, u32, Vec<u8>)>;

/// `(due, sequence number, destination, payload)`, earliest first.
type Queue = BinaryHeap<Reverse<(u64, u64, u32, Vec<u8>)>>;

trait Handler {
    fn on(&mut self, now: u64, payload: &[u8], out: &mut Outbox);
}

/// Notes who it heard from and sends a fresh datagram to a random peer.
struct Echo {
    peers: u32,
    me: u32,
    heard: BTreeMap<u32, u64>,
    x: u64,
}

impl Handler for Echo {
    fn on(&mut self, now: u64, payload: &[u8], out: &mut Outbox) {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        *self.heard.entry(u32::from(payload[0])).or_insert(0) += now & 0xff;
        if self.heard.len() > 24 {
            self.heard.pop_first();
        }
        let mut datagram = vec![0u8; 48 + (self.x & 63) as usize];
        datagram[0] = self.me as u8;
        let to = (self.x % u64::from(self.peers)) as u32;
        out.push((now + 1 + (self.x >> 40) % 997, to, datagram));
    }
}

/// Re-arms a timer.
struct Tick {
    fired: u64,
}

impl Handler for Tick {
    fn on(&mut self, now: u64, _: &[u8], out: &mut Outbox) {
        self.fired += 1;
        out.push((now + 500, TIMER, Vec::new()));
    }
}

/// Destination that stands for "the timer of whichever node is due".
const TIMER: u32 = u32::MAX;

/// Runs one burst and returns its host time in nanoseconds.
pub fn burst() -> u64 {
    let clock = Instant::now();
    let peers = 48u32;
    let mut nodes: BTreeMap<u32, Box<dyn Handler>> = BTreeMap::new();
    for i in 0..peers {
        let handler: Box<dyn Handler> = if i % 3 == 0 {
            Box::new(Tick { fired: 0 })
        } else {
            Box::new(Echo {
                peers,
                me: i,
                heard: BTreeMap::new(),
                x: 0x9E37_79B9_7F4A_7C15 ^ (u64::from(i) * 7919),
            })
        };
        nodes.insert(i, handler);
    }
    let mut queue = Queue::new();
    let mut cancelled: HashSet<u64> = HashSet::new();
    let mut traffic: HashMap<(u32, u32), u64> = HashMap::new();
    let mut seq = 0u64;
    for i in 0..peers {
        seq += 1;
        queue.push(Reverse((u64::from(i), seq, i, vec![i as u8; 32])));
    }
    let mut out = Outbox::new();
    let mut acc = 0u64;
    for _ in 0..BURST_EVENTS {
        let Some(Reverse((now, id, to, payload))) = queue.pop() else {
            break;
        };
        if cancelled.remove(&id) {
            // A cancelled event is re-armed, so the queue never drains.
            seq += 1;
            queue.push(Reverse((now + 3, seq, to, payload)));
            continue;
        }
        let to = if to == TIMER {
            (now % u64::from(peers)) as u32 / 3 * 3
        } else {
            to
        };
        if let Some(handler) = nodes.get_mut(&to) {
            let payload: &[u8] = if payload.is_empty() { &[0] } else { &payload };
            handler.on(now, payload, &mut out);
        }
        for (at, next, datagram) in out.drain(..) {
            seq += 1;
            *traffic.entry((to, next)).or_insert(0) += datagram.len() as u64;
            if seq.is_multiple_of(97) {
                cancelled.insert(seq);
            }
            queue.push(Reverse((at, seq, next, datagram)));
        }
        acc = acc.wrapping_add(now);
    }
    black_box(acc + traffic.len() as u64);
    clock.elapsed().as_nanos() as u64
}

/// How many neighbouring bursts the speed at a unit is read from. Modes
/// last seconds and bursts come every few tens of milliseconds, so the
/// median of nine follows the mode and sheds a burst that was itself hit.
const NEIGHBOURS: usize = 9;

/// The machine's slowdown around position `at` of a pass: the median of
/// the nearest bursts, over [`REFERENCE_NS`]. `bursts` holds `(position,
/// ns)` in position order, where a position counts the units finished
/// before the burst.
pub fn slowdown(bursts: &[(usize, u64)], at: usize) -> f64 {
    if bursts.is_empty() {
        return 1.0;
    }
    let after = bursts.partition_point(|&(position, _)| position <= at);
    let from = after
        .saturating_sub(NEIGHBOURS / 2 + 1)
        .min(bursts.len().saturating_sub(NEIGHBOURS));
    let mut near: Vec<u64> = bursts[from..(from + NEIGHBOURS).min(bursts.len())]
        .iter()
        .map(|&(_, ns)| ns)
        .collect();
    near.sort_unstable();
    near[near.len() / 2] as f64 / REFERENCE_NS
}
