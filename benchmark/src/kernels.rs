//! `kernel_*` drivers: each layer driven alone, through its public
//! functions, on inputs sized from the traced pass's counters.
//!
//! A kernel answers "what does this layer cost when nothing else runs?",
//! so that a saving claimed inside a layer can be checked against the
//! layer's own number and against its share of a run. Every kernel runs
//! [`REPEATS`] times and reports its fastest repeat: noise only adds.
//! Times are divided by the machine's slowdown like every host time.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Duration;

use ftvod_core::chaos::{ChaosPlan, ChaosProfile};
use ftvod_core::client::{FlowController, SoftwareBuffer};
use ftvod_core::config::VodConfig;
use ftvod_core::protocol::ClientId;
use ftvod_core::server::{assign_clients_geo, assign_clients_with_capacity};
use ftvod_core::workload::FleetPlan;
use gcs::proto::{ProtoAction, ProtoConfig, ProtoEvent, ProtoNode};
use gcs::{GcsConfig, GcsNode, GcsPacket, GroupId, View, ViewId};
use media::{HardwareDecoder, Movie, MovieId, MovieSpec};
use simnet::{
    Context, Endpoint, LinkProfile, NodeId, Payload, Port, Process, SimTime, Simulation,
    SiteTopology, Timer,
};

use crate::reference;
use crate::runs::{chaos_profile, steady_profile};
use crate::spans::Spans;
use crate::stats::timed;

/// How often each kernel is repeated; the fastest repeat is reported.
pub const REPEATS: usize = 3;

/// Runs `f` [`REPEATS`] times, each under a span, and returns the
/// fastest of the times `f` itself reports (so a kernel can keep its own
/// set-up outside its clock) together with the last result. Like every
/// host time, it is divided by the machine's slowdown, read from a
/// reference burst before and after every repeat.
fn fastest<R>(spans: &mut Spans, name: &'static str, mut f: impl FnMut() -> (u64, R)) -> (u64, R) {
    let mut best = u64::MAX;
    let mut last = None;
    let mut bursts = vec![(0, reference::burst())];
    for _ in 0..REPEATS {
        let ((ns, result), _) = spans.time(name, 0, &mut f);
        best = best.min(ns);
        last = Some(result);
        bursts.push((0, reference::burst()));
    }
    let calm_ns = best as f64 / reference::slowdown(&bursts, 0);
    (calm_ns as u64, last.expect("REPEATS > 0"))
}

// ---------------------------------------------------------------------------
// simnet: a bare `Simulation` with no-op processes.
// ---------------------------------------------------------------------------

/// A datagram the size of a video frame packet.
#[derive(Clone, Debug)]
struct Blank;

impl Payload for Blank {
    fn size_bytes(&self) -> usize {
        1400
    }
}

/// Re-arms one timer forever and sends `msgs_per_timer` datagrams per
/// timer on average, round-robin over the other nodes. Does nothing else.
struct Ticker {
    nodes: u32,
    msgs_per_timer: f64,
    credit: f64,
    next_peer: u32,
}

const TICK: Duration = Duration::from_millis(50);

impl Process<Blank> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, Blank>) {
        // Spread the phases so the queue holds one timer per node.
        let phase = Duration::from_micros(u64::from(ctx.node().0) * 7 % 50_000);
        ctx.set_timer_after(phase, 0);
    }

    fn on_datagram(&mut self, _: &mut Context<'_, Blank>, _: Endpoint, _: Endpoint, _: Blank) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Blank>, _: Timer) {
        ctx.set_timer_after(TICK, 0);
        self.credit += self.msgs_per_timer;
        while self.credit >= 1.0 {
            self.credit -= 1.0;
            self.next_peer = self.next_peer % self.nodes + 1;
            if NodeId(self.next_peer) == ctx.node() {
                self.next_peer = self.next_peer % self.nodes + 1;
            }
            ctx.send(
                Port(1),
                Endpoint::new(NodeId(self.next_peer), Port(1)),
                Blank,
            );
        }
    }
}

/// The event mix of a traced pass, which the simnet kernels replay.
#[derive(Clone, Copy, Debug)]
pub struct EventMix {
    /// Timer events dispatched.
    pub timer_events: u64,
    /// Datagram deliveries dispatched.
    pub deliver_events: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: u64,
}

/// Results of the simnet kernels.
#[derive(Clone, Copy, Debug)]
pub struct SimnetKernels {
    /// Host ns per timer event (set, pop, dispatch to a no-op handler).
    pub ns_per_timer: f64,
    /// Host ns per datagram (route + deliver) on a flat loss-free LAN.
    pub ns_per_msg_lan: f64,
    /// The same through a `SiteTopology` with link overrides and 1 % loss.
    pub ns_per_msg_topo: f64,
}

/// Events each simnet kernel dispatches.
const KERNEL_EVENTS: u64 = 400_000;

fn ticker_sim(nodes: u32, msgs_per_timer: f64, topo: bool) -> Simulation<Blank> {
    let mut sim = Simulation::new(7);
    sim.set_default_profile(LinkProfile::lan());
    if topo {
        let ids: Vec<NodeId> = (1..=nodes).map(NodeId).collect();
        let (east, west) = ids.split_at(ids.len() / 2);
        let mut sites = SiteTopology::new(LinkProfile::lan(), LinkProfile::wan().with_loss(0.01));
        sites.add_site("east", east);
        sites.add_site("west", west);
        sim.set_topology(sites);
        // A brownout between the first two nodes of each site, so the
        // override table is consulted and populated.
        sim.set_link_overrides_at(
            SimTime::ZERO,
            &east[..east.len().min(2)],
            &west[..west.len().min(2)],
            Some(ChaosPlan::brownout_profile()),
        );
    }
    for n in 1..=nodes {
        sim.add_node(
            NodeId(n),
            Ticker {
                nodes,
                msgs_per_timer,
                credit: 0.0,
                next_peer: n,
            },
        );
    }
    sim
}

/// Dispatches about [`KERNEL_EVENTS`] events and returns the host time
/// with `(timer events, deliver events)`.
fn drive_tickers(nodes: u32, msgs_per_timer: f64, topo: bool) -> (u64, (u64, u64)) {
    let mut sim = ticker_sim(nodes, msgs_per_timer, topo);
    sim.enable_profiling();
    let per_tick = f64::from(nodes) * (1.0 + msgs_per_timer);
    let ticks = (KERNEL_EVENTS as f64 / per_tick).ceil().max(1.0) as u32;
    let (ns, ()) = timed(|| sim.run_until(SimTime::ZERO + TICK * ticks));
    let profile = sim.profile().expect("profiling is on");
    (ns, (profile.timer_fired, profile.deliver_events))
}

/// Drives the bare scheduler with the traced pass's timer:datagram mix.
pub fn simnet(spans: &mut Spans, mix: EventMix) -> SimnetKernels {
    let nodes = mix.peak_queue_depth.clamp(16, 4096) as u32;
    let msgs_per_timer = mix.deliver_events as f64 / mix.timer_events.max(1) as f64;

    let (ns, (timers, _)) = fastest(spans, "kernel simnet timers", || {
        drive_tickers(nodes, 0.0, false)
    });
    let ns_per_timer = ns as f64 / timers.max(1) as f64;

    let per_msg = |spans: &mut Spans, name: &'static str, topo: bool| {
        let (ns, (timers, msgs)) =
            fastest(spans, name, || drive_tickers(nodes, msgs_per_timer, topo));
        (ns as f64 - timers as f64 * ns_per_timer).max(0.0) / msgs.max(1) as f64
    };
    SimnetKernels {
        ns_per_timer,
        ns_per_msg_lan: per_msg(spans, "kernel simnet lan", false),
        ns_per_msg_topo: per_msg(spans, "kernel simnet topo", true),
    }
}

// ---------------------------------------------------------------------------
// gcs: idle `GcsNode`s on a bare `Simulation`, and the pure `ProtoNode`.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
struct NoPayload;

impl Payload for NoPayload {
    fn size_bytes(&self) -> usize {
        0
    }
}

/// The embedding of the `gcs` crate's own doc example: a process that is
/// nothing but a `GcsNode`. It clocks the handling of membership packets
/// (everything but heartbeats, acks and announces) so that a view
/// change can be costed apart from the liveness traffic around it.
struct Member {
    gcs: GcsNode<NoPayload>,
    membership_ns: u64,
}

impl Process<GcsPacket<NoPayload>> for Member {
    fn on_start(&mut self, ctx: &mut Context<'_, GcsPacket<NoPayload>>) {
        self.gcs.start(ctx);
    }

    fn on_datagram(
        &mut self,
        ctx: &mut Context<'_, GcsPacket<NoPayload>>,
        from: Endpoint,
        _to: Endpoint,
        msg: GcsPacket<NoPayload>,
    ) {
        let liveness = matches!(
            msg,
            GcsPacket::Heartbeat | GcsPacket::Ack { .. } | GcsPacket::Announce { .. }
        );
        if liveness {
            black_box(self.gcs.on_packet(ctx, from, msg));
        } else {
            let (ns, events) = timed(|| self.gcs.on_packet(ctx, from, msg));
            black_box(events);
            self.membership_ns += ns;
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GcsPacket<NoPayload>>, timer: Timer) {
        black_box(self.gcs.on_timer(ctx, timer));
    }
}

const GCS_NODES: u32 = 8;
const GCS_GROUPS: u64 = 8;

/// Eight nodes, all members of eight groups, settled.
fn gcs_cluster() -> Simulation<GcsPacket<NoPayload>> {
    let ids: Vec<NodeId> = (1..=GCS_NODES).map(NodeId).collect();
    let mut sim = Simulation::new(11);
    sim.set_default_profile(LinkProfile::lan());
    for &id in &ids {
        sim.add_node(
            id,
            Member {
                gcs: GcsNode::new(GcsConfig::new(), id, Port(7), 1, ids.clone()),
                membership_ns: 0,
            },
        );
    }
    sim.run_until(SimTime::from_millis(100));
    for g in 1..=GCS_GROUPS {
        sim.invoke(NodeId(1), |m: &mut Member, _| {
            black_box(m.gcs.create_group(GroupId(g)));
        });
        for &id in &ids[1..] {
            sim.invoke(id, |m: &mut Member, ctx| m.gcs.join(ctx, GroupId(g), &[]));
        }
    }
    sim.run_until(SimTime::from_secs(5));
    sim
}

/// `(views installed, ns spent handling membership packets)`, summed
/// over the cluster.
fn membership_work(sim: &Simulation<GcsPacket<NoPayload>>) -> (u64, u64) {
    (1..=GCS_NODES)
        .filter_map(|n| {
            sim.with_process(NodeId(n), |m: &Member| {
                (m.gcs.views_installed(), m.membership_ns)
            })
        })
        .fold((0, 0), |(v, ns), (dv, dns)| (v + dv, ns + dns))
}

/// Results of the gcs kernels.
#[derive(Clone, Copy, Debug)]
pub struct GcsKernels {
    /// Host ns to keep one idle node (in eight groups) alive for one
    /// simulated second.
    pub idle_ns_per_node_s: f64,
    /// Host µs of membership-packet handling per view installed, while
    /// one member leaves and rejoins all eight groups once a second.
    pub view_change_us: f64,
    /// Host ns per `ProtoNode::step`.
    pub proto_step_ns: f64,
}

/// Drives the gcs layer alone.
pub fn gcs(spans: &mut Spans) -> GcsKernels {
    const IDLE_S: u64 = 20;

    let (idle_ns, ()) = fastest(spans, "kernel gcs idle", || {
        let mut sim = gcs_cluster();
        timed(|| sim.run_until(SimTime::from_secs(5 + IDLE_S)))
    });
    let idle_ns_per_node_s = idle_ns as f64 / (u64::from(GCS_NODES) * IDLE_S) as f64;

    // One member leaves all groups and joins them again, once a second:
    // two view changes per group and cycle, installed by every member.
    let (membership_ns, installed) = fastest(spans, "kernel gcs view change", || {
        let mut sim = gcs_cluster();
        let (views_before, ns_before) = membership_work(&sim);
        let churner = NodeId(GCS_NODES);
        for cycle in 0..IDLE_S {
            sim.run_until(SimTime::from_secs(5 + cycle));
            sim.invoke(churner, |m: &mut Member, ctx| {
                for g in 1..=GCS_GROUPS {
                    m.gcs.leave(ctx, GroupId(g));
                }
            });
            sim.run_until(SimTime::from_millis((5 + cycle) * 1000 + 500));
            sim.invoke(churner, |m: &mut Member, ctx| {
                for g in 1..=GCS_GROUPS {
                    m.gcs.join(ctx, GroupId(g), &[NodeId(1)]);
                }
            });
        }
        sim.run_until(SimTime::from_secs(5 + IDLE_S));
        let (views, ns) = membership_work(&sim);
        (ns - ns_before, views - views_before)
    });
    let view_change_us = membership_ns as f64 / installed.max(1) as f64 / 1e3;

    let (steps_ns, steps) = fastest(spans, "kernel gcs proto", || timed(proto_churn));
    GcsKernels {
        idle_ns_per_node_s,
        view_change_us,
        proto_step_ns: steps_ns as f64 / steps.max(1) as f64,
    }
}

/// Drives four pure `ProtoNode`s through repeated crash → exclude →
/// rejoin cycles, delivering every message they emit, and returns the
/// number of `step` calls made.
fn proto_churn() -> u64 {
    const CYCLES: u32 = 2_000;
    let ids: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let view = View::new(
        ViewId {
            epoch: 1,
            coordinator: NodeId(1),
        },
        ids.clone(),
    );
    let cfg = ProtoConfig::default();
    let mut nodes: Vec<ProtoNode> = ids
        .iter()
        .map(|&id| ProtoNode::member_of(cfg, id, ids.clone(), view.clone()))
        .collect();
    let mut steps = 0u64;
    let victim = NodeId(4);
    let mut down: BTreeSet<NodeId> = BTreeSet::new();

    // Steps `event` on node `at` and then every message that results,
    // dropping those addressed to a crashed node.
    fn settle(
        nodes: &mut [ProtoNode],
        down: &BTreeSet<NodeId>,
        steps: &mut u64,
        at: NodeId,
        event: ProtoEvent,
    ) {
        let mut queue: Vec<(NodeId, ProtoEvent)> = vec![(at, event)];
        while let Some((to, event)) = queue.pop() {
            if down.contains(&to) {
                continue;
            }
            let node = &mut nodes[(to.0 - 1) as usize];
            *steps += 1;
            for action in black_box(node.step(event)) {
                if let ProtoAction::Send { to: next, msg } = action {
                    queue.push((next, ProtoEvent::Deliver { from: to, msg }));
                }
            }
        }
    }

    for _ in 0..CYCLES {
        down.insert(victim);
        for &id in &ids[..3] {
            settle(
                &mut nodes,
                &down,
                &mut steps,
                id,
                ProtoEvent::Suspect(victim),
            );
        }
        for &id in &ids[..3] {
            settle(&mut nodes, &down, &mut steps, id, ProtoEvent::DoElection);
        }
        down.remove(&victim);
        nodes[3] = ProtoNode::new(cfg, victim, ids.clone());
        settle(
            &mut nodes,
            &down,
            &mut steps,
            victim,
            ProtoEvent::RequestJoin {
                contacts: ids[..3].to_vec(),
            },
        );
        for &id in &ids[..3] {
            settle(&mut nodes, &down, &mut steps, id, ProtoEvent::DoElection);
        }
    }
    assert!(
        nodes[0].group.view.id.epoch > 1,
        "the proto kernel never changed a view"
    );
    steps
}

// ---------------------------------------------------------------------------
// server, client, media, workload, chaos: plain function calls.
// ---------------------------------------------------------------------------

/// Results of the function-call kernels.
#[derive(Clone, Copy, Debug)]
pub struct CallKernels {
    /// `assign_clients_with_capacity`, ns per client.
    pub assign_ns_per_client: f64,
    /// `assign_clients_geo`, ns per client.
    pub assign_geo_ns_per_client: f64,
    /// `SoftwareBuffer::insert` + `feed` (+ one decoder tick), ns per frame.
    pub buffer_ns_per_frame: f64,
    /// `FlowController::on_frame_received`, ns per frame.
    pub flow_ns_per_frame: f64,
    /// `HardwareDecoder::push` + `tick_display`, ns per frame.
    pub decoder_tick_ns: f64,
    /// `Movie::generate` of a 120 s movie, µs.
    pub generate_us_per_movie: f64,
    /// `FleetPlan::generate`, ns per session.
    pub plan_ns_per_session: f64,
    /// `ChaosPlan::generate` of the default six-slot campaign, µs.
    pub chaos_plan_us: f64,
}

/// Drives the pure functions of the upper layers. `clients` and
/// `servers` size the assignment kernels (the pass's peak concurrent
/// sessions and its server count); `seed` seeds the two planners.
pub fn calls(spans: &mut Spans, clients: u32, servers: u32, seed: u64) -> CallKernels {
    let cfg = VodConfig::paper_default();
    let spec = MovieSpec::paper_default().with_duration(Duration::from_secs(120));

    let (generate_ns, movie) = fastest(spans, "Movie::generate", || {
        timed(|| Movie::generate(MovieId(1), black_box(&spec)))
    });
    let frames: Vec<media::FrameMeta> = (0..movie.frame_count())
        .filter_map(|n| movie.frame(media::FrameNo(n)))
        .collect();

    let client_ids: Vec<ClientId> = (1..=clients.max(8)).map(ClientId).collect();
    let server_ids: Vec<NodeId> = (1..=servers.max(2)).map(NodeId).collect();
    let cap = Some(client_ids.len().div_ceil(server_ids.len()) + 1);
    const ASSIGN_ROUNDS: u32 = 200;
    let (assign_ns, ()) = fastest(spans, "kernel server assign", || {
        timed(|| {
            for _ in 0..ASSIGN_ROUNDS {
                black_box(assign_clients_with_capacity(
                    black_box(&client_ids),
                    &server_ids,
                    cap,
                ));
            }
        })
    });
    let geo_clients: Vec<(ClientId, Option<usize>)> = client_ids
        .iter()
        .map(|&c| (c, Some(c.0 as usize % 2)))
        .collect();
    let geo_servers: Vec<(NodeId, Option<usize>)> = server_ids
        .iter()
        .map(|&s| (s, Some(s.0 as usize % 2)))
        .collect();
    let (geo_ns, ()) = fastest(spans, "kernel server assign_geo", || {
        timed(|| {
            for _ in 0..ASSIGN_ROUNDS {
                black_box(assign_clients_geo(
                    black_box(&geo_clients),
                    &geo_servers,
                    cap,
                    true,
                    2,
                ));
            }
        })
    });
    let assigned = f64::from(ASSIGN_ROUNDS) * client_ids.len() as f64;

    const FRAME_ROUNDS: u32 = 20;
    let played = f64::from(FRAME_ROUNDS) * frames.len() as f64;
    // The buffer can only be fed into a decoder that is being drained,
    // so this loop holds one decoder tick per frame as well.
    let (buffer_ns, ()) = fastest(spans, "kernel client buffer", || {
        timed(|| {
            for _ in 0..FRAME_ROUNDS {
                let mut buffer = SoftwareBuffer::new(cfg.sw_buffer_frames);
                let mut decoder = HardwareDecoder::new(cfg.hw_buffer_bytes);
                for frame in &frames {
                    black_box(buffer.insert(*frame));
                    black_box(buffer.feed(&mut decoder));
                    decoder.tick_display();
                }
            }
        })
    });
    let (decoder_ns, ()) = fastest(spans, "kernel media decoder", || {
        timed(|| {
            for _ in 0..FRAME_ROUNDS {
                let mut decoder = HardwareDecoder::new(cfg.hw_buffer_bytes);
                for frame in &frames {
                    let _ = black_box(decoder.push(*frame));
                    black_box(decoder.tick_display());
                }
            }
        })
    });
    let (flow_ns, ()) = fastest(spans, "kernel client flow", || {
        timed(|| {
            for _ in 0..FRAME_ROUNDS {
                let mut flow = FlowController::new(&cfg, 80);
                for i in 0..frames.len() {
                    let now = SimTime::from_micros(i as u64 * 33_333);
                    // A slow sawtooth over the whole occupancy range, so
                    // every band and both check periods are visited.
                    black_box(flow.on_frame_received(now, black_box(i / 16 % 80)));
                }
            }
        })
    });

    let plan_profile = steady_profile(2);
    let (plan_ns, plan) = fastest(spans, "FleetPlan::generate", || {
        timed(|| FleetPlan::generate(black_box(&plan_profile), seed))
    });
    let chaos = {
        let mut p = ChaosProfile::default_campaign();
        p.faults = 6;
        p
    };
    let chaos_servers = chaos_profile().server_nodes();
    const CHAOS_ROUNDS: u32 = 100;
    let (chaos_ns, ()) = fastest(spans, "ChaosPlan::generate", || {
        timed(|| {
            for round in 0..CHAOS_ROUNDS {
                black_box(ChaosPlan::generate(
                    &chaos,
                    &chaos_servers,
                    seed.wrapping_add(u64::from(round)),
                ));
            }
        })
    });

    CallKernels {
        assign_ns_per_client: assign_ns as f64 / assigned,
        assign_geo_ns_per_client: geo_ns as f64 / assigned,
        buffer_ns_per_frame: buffer_ns as f64 / played,
        flow_ns_per_frame: flow_ns as f64 / played,
        decoder_tick_ns: decoder_ns as f64 / played,
        generate_us_per_movie: generate_ns as f64 / 1e3,
        plan_ns_per_session: plan_ns as f64 / plan.sessions.len().max(1) as f64,
        chaos_plan_us: chaos_ns as f64 / f64::from(CHAOS_ROUNDS) / 1e3,
    }
}
