//! Criterion micro-benchmarks for the group communication substrate:
//! multicast cost, view-change (takeover trigger) simulation cost, the
//! cost of an ack that carries no news and of one that arrives while
//! messages are buffered.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gcs::{GcsConfig, GcsEvent, GcsNode, GcsPacket, GroupId, View};
use simnet::{
    Context, Endpoint, LinkProfile, NodeId, Payload, Port, Process, SimTime, Simulation, Timer,
};

const GCS_PORT: Port = Port(7);
const TICK: u64 = 1;
const G: GroupId = GroupId(9);

#[derive(Clone, Debug)]
struct Blob(#[allow(dead_code)] u64); // payload content is opaque to the GCS

impl Payload for Blob {
    fn size_bytes(&self) -> usize {
        64
    }
}

type Wire = GcsPacket<Blob>;

struct App {
    gcs: GcsNode<Blob>,
    delivered: u64,
    views: Vec<View>,
}

impl App {
    fn new(node: NodeId, bootstrap: Vec<NodeId>) -> Self {
        App {
            gcs: GcsNode::new(GcsConfig::new(), node, GCS_PORT, TICK, bootstrap),
            delivered: 0,
            views: Vec::new(),
        }
    }

    fn record(&mut self, events: Vec<GcsEvent<Blob>>) {
        for event in events {
            match event {
                GcsEvent::Deliver { .. } => self.delivered += 1,
                GcsEvent::View { view, .. } => self.views.push(view),
            }
        }
    }
}

impl Process<Wire> for App {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire>) {
        self.gcs.start(ctx);
    }

    fn on_datagram(
        &mut self,
        ctx: &mut Context<'_, Wire>,
        from: Endpoint,
        _to: Endpoint,
        msg: Wire,
    ) {
        let events = self.gcs.on_packet(ctx, from, msg);
        self.record(events);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire>, timer: Timer) {
        let events = self.gcs.on_timer(ctx, timer);
        self.record(events);
    }
}

/// Builds a settled group of nodes `1..=members`.
fn formed(seed: u64, members: u32) -> Simulation<Wire> {
    let mut sim = Simulation::new(seed);
    sim.set_default_profile(LinkProfile::lan());
    let ids: Vec<NodeId> = (1..=members).map(NodeId).collect();
    for &id in &ids {
        sim.add_node(id, App::new(id, ids.clone()));
    }
    sim.run_until(SimTime::from_millis(100));
    sim.invoke(ids[0], |app: &mut App, _ctx| {
        let events = app.gcs.create_group(G);
        app.record(events);
    });
    for &id in &ids[1..] {
        sim.invoke(id, |app: &mut App, ctx| {
            app.gcs.join(ctx, G, &[]);
        });
    }
    sim.run_for(Duration::from_secs(2));
    sim
}

fn bench_multicast(c: &mut Criterion) {
    c.bench_function("gcs: 100 multicasts through a 3-member group", |b| {
        b.iter_batched(
            || formed(1, 3),
            |mut sim| {
                for v in 0..100u64 {
                    sim.invoke(NodeId(1), |app: &mut App, ctx| {
                        let events = app.gcs.multicast(ctx, G, Blob(v)).expect("member");
                        app.record(events);
                    });
                }
                sim.run_for(Duration::from_millis(500));
                sim
            },
            BatchSize::PerIteration,
        );
    });
}

fn bench_view_change(c: &mut Criterion) {
    c.bench_function("gcs: crash detection + view change (3 members)", |b| {
        b.iter_batched(
            || formed(2, 3),
            |mut sim| {
                let at = sim.now();
                sim.crash_at(at, NodeId(3));
                sim.run_for(Duration::from_secs(2));
                sim
            },
            BatchSize::PerIteration,
        );
    });
}

fn bench_quiet_acks(c: &mut Criterion) {
    const ACKS: u64 = 10_000;
    // A session group between its frames: client and server, nothing in
    // flight, the peer's periodic ack repeating the floors it sent before.
    let name = format!("gcs: {ACKS} acks without news at a settled 2-member group");
    c.bench_function(&name, |b| {
        b.iter_batched(
            || {
                let mut sim = formed(3, 2);
                for node in [NodeId(1), NodeId(2)] {
                    sim.invoke(node, |app: &mut App, ctx| {
                        let events = app.gcs.multicast(ctx, G, Blob(0)).expect("member");
                        app.record(events);
                    });
                }
                // Long enough for both messages to become stable.
                sim.run_for(Duration::from_secs(1));
                sim
            },
            |mut sim| {
                let from = Endpoint::new(NodeId(2), GCS_PORT);
                let floors = vec![(NodeId(2), 1), (NodeId(1), 1)];
                sim.invoke(NodeId(1), |app: &mut App, ctx| {
                    for _ in 0..ACKS {
                        let ack = GcsPacket::Ack {
                            group: G,
                            delivered: floors.clone(),
                        };
                        let events = app.gcs.on_packet(ctx, from, ack);
                        app.record(events);
                    }
                });
                sim
            },
            BatchSize::PerIteration,
        );
    });
}

fn bench_busy_acks(c: &mut Criterion) {
    const ACKS: u64 = 10_000;
    const HELD: u64 = 8;
    // A group with traffic in flight: the node holds two unstable
    // messages of its own and eight of a peer's, and that peer's acks —
    // sent before it saw any of them, alternately before and after its own
    // first — release nothing more. In the larger group the other members
    // have not acked at all.
    for members in [2u32, 8] {
        let name = format!(
            "gcs: {ACKS} acks at a {members}-member group holding {HELD} retained messages"
        );
        c.bench_function(&name, |b| {
            b.iter_batched(
                || {
                    let mut sim = formed(4, members);
                    let from = Endpoint::new(NodeId(2), GCS_PORT);
                    sim.invoke(NodeId(1), |app: &mut App, ctx| {
                        for v in 0..2 {
                            let events = app.gcs.multicast(ctx, G, Blob(v)).expect("member");
                            app.record(events);
                        }
                        for seq in 1..=HELD {
                            let msg = GcsPacket::AppMsg {
                                group: G,
                                origin: NodeId(2),
                                seq,
                                payload: Blob(seq),
                            };
                            let events = app.gcs.on_packet(ctx, from, msg);
                            app.record(events);
                        }
                    });
                    sim
                },
                |mut sim| {
                    let from = Endpoint::new(NodeId(2), GCS_PORT);
                    sim.invoke(NodeId(1), |app: &mut App, ctx| {
                        for i in 0..ACKS {
                            let ack = GcsPacket::Ack {
                                group: G,
                                delivered: vec![(NodeId(2), i % 2), (NodeId(1), 0)],
                            };
                            let events = app.gcs.on_packet(ctx, from, ack);
                            app.record(events);
                        }
                        assert_eq!(app.delivered, 2 + HELD);
                    });
                    sim
                },
                BatchSize::PerIteration,
            );
        });
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_multicast, bench_view_change, bench_quiet_acks, bench_busy_acks
}
criterion_main!(benches);
