//! Criterion micro-benchmarks for the simulator's per-event hot path and
//! the group-communication housekeeping tick that rides on it:
//!
//! * the event queue at a steady depth of 1 k and 4 k pending events,
//!   with `VodWire`-sized slab entries (the real message type, so the
//!   bodies the queue moves are the size the service's are), and 10⁶
//!   events at the depth `steady_fleet` runs at, 800 — the timers sit on
//!   a 100 µs grid of 64 instants, so about a dozen share each one and
//!   every pop has same-instant ties to order;
//! * `route` on a flat LAN and through a `SiteTopology` with a link
//!   override installed;
//! * an idle `GcsNode::on_timer` over 2 and 64 groups;
//! * a *dormant fleet*: endpoints that left their only group hold no timer,
//!   so ten simulated seconds of them dispatch nothing — asserted, not
//!   only timed.
//!
//! Every benchmark reports the time for the number of events (or ticks)
//! its name states, so per-event cost is the printed time over that.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ftvod_core::protocol::{ControlPayload, VodWire};
use gcs::{GcsConfig, GcsNode, GcsPacket, GroupId};
use simnet::{
    Context, Endpoint, LinkProfile, NodeId, Port, Process, SimTime, Simulation, SiteTopology, Timer,
};

const PORT: Port = Port(7);
const TICK: u64 = 1;
/// Events one timed iteration dispatches.
const EVENTS: u64 = 50_000;

/// Keeps `depth` timers pending: each one that fires arms a successor a
/// pseudo-random 0.1–6.4 ms ahead, so pushes land all over the heap
/// rather than at its tail.
struct Juggler {
    depth: u32,
    lcg: u64,
}

impl Juggler {
    fn arm(&mut self, ctx: &mut Context<'_, VodWire>) {
        self.lcg = self
            .lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let after = Duration::from_micros(100 * (1 + (self.lcg >> 58)));
        ctx.set_timer_after(after, TICK);
    }
}

impl Process<VodWire> for Juggler {
    fn on_start(&mut self, ctx: &mut Context<'_, VodWire>) {
        for _ in 0..self.depth {
            self.arm(ctx);
        }
    }
    fn on_datagram(&mut self, _: &mut Context<'_, VodWire>, _: Endpoint, _: Endpoint, _: VodWire) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, VodWire>, _: Timer) {
        self.arm(ctx);
    }
}

fn bench_queue(c: &mut Criterion) {
    for (events, depth) in [(EVENTS, 1_000u32), (EVENTS, 4_000), (1_000_000, 800)] {
        let name = format!("simnet: {events} timer events at queue depth {depth}");
        c.bench_function(&name, |b| {
            b.iter_batched(
                || {
                    let mut sim: Simulation<VodWire> = Simulation::new(1);
                    sim.add_node(NodeId(1), Juggler { depth, lcg: 1 });
                    sim.run_until(SimTime::from_millis(50));
                    sim
                },
                |mut sim| {
                    // A timer lives 3.25 ms on average.
                    let per_ms = f64::from(depth) / 3.25;
                    sim.run_for(Duration::from_secs_f64(events as f64 / per_ms / 1e3));
                    sim
                },
                BatchSize::PerIteration,
            );
        });
    }
}

/// On every 1 ms tick, sends one heartbeat to each of its next four
/// neighbours (with 16 nodes in two sites, a mix of LAN and WAN links).
struct Chatter {
    nodes: u32,
}

const FAN_OUT: u32 = 4;

impl Process<VodWire> for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_, VodWire>) {
        ctx.set_timer_after(Duration::from_millis(1), TICK);
    }
    fn on_datagram(&mut self, _: &mut Context<'_, VodWire>, _: Endpoint, _: Endpoint, _: VodWire) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, VodWire>, _: Timer) {
        ctx.set_timer_after(Duration::from_millis(1), TICK);
        let me = ctx.node().0;
        for hop in 1..=FAN_OUT {
            let peer = NodeId((me - 1 + hop) % self.nodes + 1);
            ctx.send(
                PORT,
                Endpoint::new(peer, PORT),
                VodWire::Gcs(GcsPacket::Heartbeat),
            );
        }
    }
}

fn bench_route(c: &mut Criterion) {
    const NODES: u32 = 16;
    let chatters = |topology: bool| {
        let mut sim: Simulation<VodWire> = Simulation::new(2);
        sim.set_default_profile(LinkProfile::lan());
        if topology {
            let ids: Vec<NodeId> = (1..=NODES).map(NodeId).collect();
            let (east, west) = ids.split_at(ids.len() / 2);
            let mut sites = SiteTopology::new(LinkProfile::lan(), LinkProfile::wan());
            sites.add_site("east", east);
            sites.add_site("west", west);
            sim.set_topology(sites);
            // One browned-out WAN link, so the override table is not empty.
            sim.set_link_profile_sym(east[0], west[0], LinkProfile::wan().with_loss(0.05));
        }
        for node in 1..=NODES {
            sim.add_node(NodeId(node), Chatter { nodes: NODES });
        }
        sim.run_until(SimTime::from_millis(100));
        sim
    };
    // Per tick and node: one timer, FAN_OUT sends, FAN_OUT deliveries.
    let ticks = EVENTS / u64::from(NODES * (1 + 2 * FAN_OUT));
    for (name, topology) in [("a flat LAN", false), ("two sites + override", true)] {
        let name = format!("simnet: {EVENTS} events, 4 in 9 routed over {name}");
        c.bench_function(&name, |b| {
            b.iter_batched(
                || chatters(topology),
                |mut sim| {
                    sim.run_for(Duration::from_millis(ticks));
                    sim
                },
                BatchSize::PerIteration,
            );
        });
    }
}

/// A process that is nothing but a `GcsNode`.
struct Member {
    gcs: GcsNode<ControlPayload>,
}

impl Process<VodWire> for Member {
    fn on_start(&mut self, ctx: &mut Context<'_, VodWire>) {
        self.gcs.start(ctx);
    }
    fn on_datagram(
        &mut self,
        ctx: &mut Context<'_, VodWire>,
        from: Endpoint,
        _: Endpoint,
        msg: VodWire,
    ) {
        if let VodWire::Gcs(pkt) = msg {
            self.gcs.on_packet(ctx, from, pkt);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, VodWire>, timer: Timer) {
        self.gcs.on_timer(ctx, timer);
    }
}

fn bench_idle_tick(c: &mut Criterion) {
    const TICKS: u64 = 2_000;
    for groups in [2u64, 64] {
        // The node is the only member of every group and its own only
        // bootstrap contact, so a tick sends nothing: what is timed is the
        // nine housekeeping passes walking `groups` settled groups.
        let name = format!("gcs: {TICKS} idle on_timer ticks over {groups} groups");
        c.bench_function(&name, |b| {
            b.iter_batched(
                || {
                    let id = NodeId(1);
                    let gcs = GcsNode::new(GcsConfig::new(), id, PORT, TICK, vec![id]);
                    let mut sim: Simulation<VodWire> = Simulation::new(3);
                    sim.add_node(id, Member { gcs });
                    sim.run_until(SimTime::from_millis(100));
                    sim.invoke(id, |m: &mut Member, _| {
                        for g in 0..groups {
                            m.gcs.create_group(GroupId(g));
                        }
                    });
                    sim.run_for(Duration::from_secs(1));
                    sim
                },
                |mut sim| {
                    sim.run_for(GcsConfig::new().tick * TICKS as u32);
                    sim
                },
                BatchSize::PerIteration,
            );
        });
    }
}

fn bench_dormant_fleet(c: &mut Criterion) {
    const NODES: u32 = 1_000;
    // What a fleet's clients are once their sessions have ended: each
    // created its session group, left it, and saw one more tick.
    let name = format!("gcs: 10 s of {NODES} endpoints that left their only group");
    c.bench_function(&name, |b| {
        b.iter_batched(
            || {
                let mut sim: Simulation<VodWire> = Simulation::new(5);
                for node in 1..=NODES {
                    let id = NodeId(node);
                    let gcs = GcsNode::new(GcsConfig::new(), id, PORT, TICK, vec![id]);
                    sim.add_node(id, Member { gcs });
                }
                sim.run_until(SimTime::from_millis(100));
                for node in 1..=NODES {
                    sim.invoke(NodeId(node), |m: &mut Member, ctx| {
                        let session = GroupId(u64::from(node));
                        m.gcs.create_group(session);
                        m.gcs.leave(ctx, session);
                    });
                }
                sim.run_for(GcsConfig::new().tick);
                sim.enable_profiling();
                sim
            },
            |mut sim| {
                sim.run_for(Duration::from_secs(10));
                let profile = sim.profile().expect("profiling enabled");
                assert_eq!(
                    (profile.timer_fired, profile.timers_set, sim.next_event_at()),
                    (0, 0, None),
                    "an endpoint in no group still ticks"
                );
                sim
            },
            BatchSize::PerIteration,
        );
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_queue, bench_route, bench_idle_tick, bench_dormant_fleet
}
criterion_main!(benches);
