//! No event without work: a client whose session ended holds no timer, so
//! an idle deployment costs what its servers cost and a deployment with
//! nobody left drains its event queue.

use std::time::Duration;

use ftvod_core::protocol::{ClientId, ControlPayload, VcrCmd, VodWire};
use ftvod_core::scenario::{ScenarioBuilder, VodSim};
use gcs::{GcsConfig, GcsNode, GroupId, TICK_PERIOD};
use media::{Movie, MovieId, MovieSpec};
use simnet::{Context, Endpoint, LinkProfile, NodeId, Port, Process, SimTime, Simulation, Timer};

const SERVERS: [NodeId; 2] = [NodeId(1), NodeId(2)];
const CLIENTS: u32 = 3;
/// Every client has stopped, left its session group and slept by then.
const QUIET: SimTime = SimTime::from_secs(15);

/// Two replicas of one movie; `clients` sessions open one second apart
/// and every one of them `Stop`s at 10 s.
fn deployment(clients: u32) -> ScenarioBuilder {
    let movie = Movie::generate(
        MovieId(1),
        &MovieSpec::paper_default().with_duration(Duration::from_secs(120)),
    );
    let mut builder = ScenarioBuilder::new(5);
    builder
        .network(LinkProfile::lan())
        .movie(movie, &SERVERS)
        .server(SERVERS[0])
        .server(SERVERS[1])
        .profile_costs();
    for c in 1..=clients {
        let id = ClientId(c);
        builder
            .client(
                id,
                NodeId(100 + c),
                MovieId(1),
                SimTime::from_secs(u64::from(c)),
            )
            .vcr_at(SimTime::from_secs(10), id, VcrCmd::Stop);
    }
    builder
}

fn timers_fired(sim: &mut VodSim) -> u64 {
    sim.sim_mut()
        .profile()
        .expect("profiling enabled")
        .timer_fired
}

#[test]
fn an_idle_deployment_drains() {
    let mut builder = deployment(CLIENTS);
    for server in SERVERS {
        builder.shutdown_at(SimTime::from_secs(12), server);
    }
    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(9));
    for c in 1..=CLIENTS {
        let stats = sim.client_stats(ClientId(c)).expect("client exists");
        assert!(stats.frames_received > 100, "client {c} was never served");
    }
    sim.run_until(QUIET);
    assert!(SERVERS.iter().all(|&s| !sim.is_alive(s)));
    assert_eq!(
        sim.sim_mut().next_event_at(),
        None,
        "a stopped client or its GCS endpoint still holds a timer"
    );
}

#[test]
fn stopped_clients_cost_nothing() {
    let window = Duration::from_secs(10);
    let fired_in_window = |clients: u32| {
        let mut sim = deployment(clients).build();
        sim.run_until(QUIET);
        let before = timers_fired(&mut sim);
        sim.run_until(QUIET + window);
        timers_fired(&mut sim) - before
    };
    let servers_alone = fired_in_window(0);
    assert!(servers_alone > 0);
    assert_eq!(
        fired_in_window(CLIENTS),
        servers_alone,
        "timers fired with every session over, against the two servers alone"
    );
}

#[test]
fn a_running_client_keeps_sampling_its_buffers() {
    // The sampler ends with `stop`, not before: the occupancy series of a
    // client that plays on is as long as the run.
    let mut sim = deployment(1).build();
    sim.run_until(SimTime::from_secs(9));
    let playing = sim.client_stats(ClientId(1)).unwrap().sw_occupancy.len();
    // One sample per 100 ms since the client booted at 1 s.
    assert_eq!(playing, 80);
    sim.run_until(QUIET);
    let stopped = sim.client_stats(ClientId(1)).unwrap().sw_occupancy.len();
    assert_eq!(stopped, 90, "sampling ends at the Stop of 10 s");
}

/// A process that is nothing but a GCS endpoint.
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

/// What a fleet's clients are once their sessions have ended: each
/// created its session group, left it, and saw one more tick. A thousand
/// of them fire and set no timer in ten seconds and leave the queue empty.
#[test]
fn a_fleet_of_endpoints_that_left_their_only_group_schedules_nothing() {
    const NODES: u32 = 1_000;
    let mut sim: Simulation<VodWire> = Simulation::new(5);
    for node in 1..=NODES {
        let id = NodeId(node);
        let gcs = GcsNode::new(GcsConfig::new(), id, Port(7), 1, vec![id]);
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
    sim.run_for(TICK_PERIOD);
    sim.enable_profiling();
    sim.run_for(Duration::from_secs(10));
    let profile = sim.profile().expect("profiling enabled");
    assert_eq!(
        (profile.timer_fired, profile.timers_set, sim.next_event_at()),
        (0, 0, None),
        "an endpoint in no group still ticks"
    );
}
