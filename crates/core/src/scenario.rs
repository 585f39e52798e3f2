//! Scenario harness: wires servers and clients onto the simulated network
//! and scripts the fault/migration events of the paper's evaluation.
//!
//! [`ScenarioBuilder`] declares the deployment (movies, replicas, clients,
//! link profile) and the event script (crashes, server bring-ups, VCR
//! operations, partitions); [`VodSim`] runs it and exposes the recorded
//! statistics. [`presets`] contains ready-made builders for the paper's
//! two measurement scenarios (Figures 4 and 5).
//!
//! ```
//! use ftvod_core::protocol::ClientId;
//! use ftvod_core::scenario::ScenarioBuilder;
//! use media::{Movie, MovieId, MovieSpec};
//! use simnet::{LinkProfile, NodeId, SimTime};
//! use std::time::Duration;
//!
//! let movie = Movie::generate(
//!     MovieId(1),
//!     &MovieSpec::paper_default().with_duration(Duration::from_secs(30)),
//! );
//! let mut builder = ScenarioBuilder::new(1);
//! builder
//!     .network(LinkProfile::lan())
//!     .movie(movie, &[NodeId(1), NodeId(2)])
//!     .server(NodeId(1))
//!     .server(NodeId(2))
//!     .client(ClientId(1), NodeId(100), MovieId(1), SimTime::from_secs(2));
//! let mut sim = builder.build();
//! sim.run_until(SimTime::from_secs(12));
//! let stats = sim.client_stats(ClientId(1)).expect("client exists");
//! assert!(stats.frames_received > 200);
//! assert_eq!(stats.stalls.total(), 0);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use media::{Movie, MovieId};
use simnet::{LinkProfile, NodeId, SimTime, Simulation, SiteTopology};

use crate::client::{ClientStats, VodClient, WatchRequest};
use crate::config::VodConfig;
use crate::profile::{ProfileHandle, ProfileReport};
use crate::protocol::{ClientId, VcrCmd, VodWire};
use crate::server::{Replica, ServerStats, VodServer};
use crate::trace::{RunReport, SiteDef, TraceHandle, VodEvent};

#[derive(Clone, Debug)]
struct ClientSetup {
    id: ClientId,
    node: NodeId,
    movie: MovieId,
    at: SimTime,
    max_fps: Option<u32>,
}

#[derive(Clone, Debug)]
enum Scripted {
    Vcr { client: ClientId, cmd: VcrCmd },
    Shutdown { node: NodeId },
}

/// Declarative description of a deployment plus its event script.
#[derive(Debug)]
pub struct ScenarioBuilder {
    seed: u64,
    profile: LinkProfile,
    cfg: VodConfig,
    movies: BTreeMap<MovieId, (Arc<Movie>, Vec<NodeId>)>,
    server_universe: BTreeSet<NodeId>,
    initial_servers: BTreeSet<NodeId>,
    late_servers: Vec<(SimTime, NodeId)>,
    crashes: Vec<(SimTime, NodeId)>,
    restarts: Vec<(SimTime, NodeId)>,
    shutdowns: Vec<(SimTime, NodeId)>,
    partitions: Vec<(SimTime, Vec<NodeId>, Vec<NodeId>)>,
    heals: Vec<SimTime>,
    pair_heals: Vec<(SimTime, Vec<NodeId>, Vec<NodeId>)>,
    profile_changes: Vec<(SimTime, LinkProfile)>,
    clients: Vec<ClientSetup>,
    script: Vec<(SimTime, Scripted)>,
    event_capacity: Option<usize>,
    /// Cost profiling on.
    profile_costs: bool,
}

impl ScenarioBuilder {
    /// Creates a builder with the paper's default configuration, an ideal
    /// network and the given determinism seed.
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            profile: LinkProfile::lan(),
            cfg: VodConfig::paper_default(),
            movies: BTreeMap::new(),
            server_universe: BTreeSet::new(),
            initial_servers: BTreeSet::new(),
            late_servers: Vec::new(),
            crashes: Vec::new(),
            restarts: Vec::new(),
            shutdowns: Vec::new(),
            partitions: Vec::new(),
            heals: Vec::new(),
            pair_heals: Vec::new(),
            profile_changes: Vec::new(),
            clients: Vec::new(),
            script: Vec::new(),
            event_capacity: None,
            profile_costs: false,
        }
    }

    /// Opts the built simulation into event recording: every layer's
    /// [`VodEvent`]s are captured in a ring buffer of `capacity` events,
    /// exposed through [`VodSim::trace`], [`VodSim::events_jsonl`] and
    /// [`VodSim::report`]. Recording is passive — the simulated outcomes
    /// are bit-identical with and without it.
    pub fn record_events(&mut self, capacity: usize) -> &mut Self {
        self.event_capacity = Some(capacity);
        self
    }

    /// Opts the built simulation into cost profiling: scheduler counters
    /// ([`simnet::SimProfile`]) plus per-subsystem wall-clock spans,
    /// exposed through [`VodSim::profile`] and [`VodSim::profile_report`].
    /// Profiling is passive — simulated outcomes are bit-identical with
    /// and without it, and all non-wall-clock fields are deterministic.
    pub fn profile_costs(&mut self) -> &mut Self {
        self.profile_costs = true;
        self
    }

    /// Sets the link profile for every link (default: LAN). With a
    /// multi-DC site map it is the profile within a site; links between
    /// sites are [`LinkProfile::wan`].
    pub fn network(&mut self, profile: LinkProfile) -> &mut Self {
        self.profile = profile;
        self
    }

    /// Replaces the service configuration.
    pub fn config(&mut self, cfg: VodConfig) -> &mut Self {
        self.cfg = cfg;
        self
    }

    /// Adds a movie replicated on `holders` (server nodes).
    pub fn movie(&mut self, movie: Movie, holders: &[NodeId]) -> &mut Self {
        self.server_universe.extend(holders.iter().copied());
        self.movies
            .insert(movie.id(), (Arc::new(movie), holders.to_vec()));
        self
    }

    /// Boots a server at time zero.
    pub fn server(&mut self, node: NodeId) -> &mut Self {
        self.server_universe.insert(node);
        self.initial_servers.insert(node);
        self
    }

    /// Boots a server at `at` (the paper's "brought up on the fly").
    pub fn server_at(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.server_universe.insert(node);
        self.late_servers.push((at, node));
        self
    }

    /// Crashes a server at `at`.
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.crashes.push((at, node));
        self
    }

    /// Restarts a previously crashed server at `at` with a *fresh*
    /// process (a reboot loses all volatile memory). The replacement
    /// rejoins the server group and its movie groups instead of creating
    /// them, re-learns per-client state from the survivors' periodic sync
    /// and receives clients back through the deterministic redistribution
    /// (paper §5.2). The node must have been crashed before `at`.
    pub fn restart_at(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.server_universe.insert(node);
        self.restarts.push((at, node));
        self
    }

    /// Gracefully detaches a server at `at` (planned maintenance: the
    /// handoff happens without waiting for failure detection).
    pub fn shutdown_at(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.shutdowns.push((at, node));
        self
    }

    /// Partitions the network between `a` and `b` at `at`.
    pub fn partition_at(&mut self, at: SimTime, a: &[NodeId], b: &[NodeId]) -> &mut Self {
        self.partitions.push((at, a.to_vec(), b.to_vec()));
        self
    }

    /// Heals all partitions at `at`.
    pub fn heal_all_at(&mut self, at: SimTime) -> &mut Self {
        self.heals.push(at);
        self
    }

    /// Heals only the partition between `a` and `b` at `at`, leaving any
    /// other cuts in place (needed when faults overlap).
    pub fn heal_at(&mut self, at: SimTime, a: &[NodeId], b: &[NodeId]) -> &mut Self {
        self.pair_heals.push((at, a.to_vec(), b.to_vec()));
        self
    }

    /// Replaces the default link profile at `at` mid-run (scripted
    /// degradations: loss/jitter bursts and their later restoration).
    /// A deployment with a multi-DC site map routes every link by the
    /// site topology [`Self::build`] derives from it, so this has no
    /// effect there.
    pub fn network_at(&mut self, at: SimTime, profile: LinkProfile) -> &mut Self {
        self.profile_changes.push((at, profile));
        self
    }

    /// Starts a client on `node` watching `movie` at time `at`.
    pub fn client(&mut self, id: ClientId, node: NodeId, movie: MovieId, at: SimTime) -> &mut Self {
        self.clients.push(ClientSetup {
            id,
            node,
            movie,
            at,
            max_fps: None,
        });
        self
    }

    /// Starts a quality-capped client (paper §4.3).
    pub fn client_with_cap(
        &mut self,
        id: ClientId,
        node: NodeId,
        movie: MovieId,
        at: SimTime,
        max_fps: u32,
    ) -> &mut Self {
        self.clients.push(ClientSetup {
            id,
            node,
            movie,
            at,
            max_fps: Some(max_fps),
        });
        self
    }

    /// Schedules a VCR command on a running client.
    pub fn vcr_at(&mut self, at: SimTime, client: ClientId, cmd: VcrCmd) -> &mut Self {
        self.script.push((at, Scripted::Vcr { client, cmd }));
        self
    }

    /// Builds the runnable simulation. A multi-DC configuration's
    /// [`crate::config::SiteMap`] also becomes the simulator's
    /// [`SiteTopology`]: each site's servers and homed clients share the
    /// builder's profile, and traffic between sites crosses
    /// [`LinkProfile::wan`].
    ///
    /// # Panics
    ///
    /// Panics if a client references an unknown movie, or if a node hosts
    /// a server and a client or two clients (the later process would
    /// silently replace the earlier one).
    pub fn build(&self) -> VodSim {
        let mut sim: Simulation<VodWire> = Simulation::new(self.seed);
        sim.set_default_profile(self.profile.clone());
        let trace = match self.event_capacity {
            Some(capacity) => TraceHandle::recording(capacity),
            None => TraceHandle::disabled(),
        };
        if trace.is_enabled() {
            let handle = trace.clone();
            sim.set_tracer(move |at, event| handle.emit(at, || VodEvent::from_net(event)));
        }
        let profile = if self.profile_costs {
            ProfileHandle::enabled()
        } else {
            ProfileHandle::disabled()
        };
        if profile.is_enabled() {
            sim.enable_profiling();
        }
        let universe: Vec<NodeId> = self.server_universe.iter().copied().collect();
        let server = |node: NodeId| {
            let replicas = self
                .movies
                .values()
                .filter(|(_, holders)| holders.contains(&node))
                .map(|(movie, holders)| Replica {
                    movie: Arc::clone(movie),
                    holders: holders.clone(),
                })
                .collect();
            // Every server gets the full catalog (the paper's shared disk
            // farm): dynamic replication may ask any of them to bring up
            // any movie, not just the ones they were seeded with.
            VodServer::new(self.cfg.clone(), node, universe.clone(), replicas)
                .with_catalog(self.movies.values().map(|(movie, _)| Arc::clone(movie)))
                .with_trace(trace.clone())
                .with_profile(profile.clone())
        };
        for &node in &self.initial_servers {
            sim.add_node(node, server(node));
        }
        for &(at, node) in &self.late_servers {
            sim.start_node_at(at, node, server(node));
        }
        for &(at, node) in &self.crashes {
            sim.crash_at(at, node);
        }
        for &(at, node) in &self.restarts {
            sim.restart_at(at, node, server(node).with_rejoin());
        }
        for (at, a, b) in &self.partitions {
            sim.partition_at(*at, a, b);
        }
        for &at in &self.heals {
            sim.heal_all_at(at);
        }
        for (at, a, b) in &self.pair_heals {
            sim.heal_at(*at, a, b);
        }
        for (at, profile) in &self.profile_changes {
            sim.set_default_profile_at(*at, profile.clone());
        }
        if let Some(multidc) = &self.cfg.multidc {
            let map = &multidc.map;
            let mut topology = SiteTopology::new(self.profile.clone(), LinkProfile::wan());
            for site in 0..map.site_count() {
                let name = map.site_name(site).unwrap_or_default().to_string();
                let servers = map.servers(site).unwrap_or_default().to_vec();
                let clients = map.client_nodes(site).unwrap_or_default().to_vec();
                topology.add_site(&name, &servers);
                topology.home_nodes(site, &clients);
                trace.emit(SimTime::ZERO, || VodEvent::SiteDefined {
                    site: Box::new(SiteDef {
                        index: site as u32,
                        name,
                        servers,
                        clients,
                    }),
                });
            }
            sim.set_topology(topology);
        }
        let mut client_nodes = BTreeMap::new();
        let mut hosts = BTreeSet::new();
        for setup in &self.clients {
            let node = setup.node;
            let server = self.server_universe.contains(&node);
            assert!(!server, "node {node} hosts both a server and a client");
            assert!(hosts.insert(node), "node {node} hosts two clients");
            let (movie, _) = self
                .movies
                .get(&setup.movie)
                .unwrap_or_else(|| panic!("client references unknown movie {}", setup.movie));
            let mut request = WatchRequest::full_quality(movie);
            if let Some(cap) = setup.max_fps {
                request.max_fps = cap;
            }
            sim.start_node_at(
                setup.at,
                setup.node,
                VodClient::new(
                    self.cfg.clone(),
                    setup.id,
                    setup.node,
                    universe.clone(),
                    request,
                    self.seed,
                )
                .with_trace(trace.clone())
                .with_profile(profile.clone()),
            );
            client_nodes.insert(setup.id, setup.node);
        }
        let mut script = self.script.clone();
        for &(at, node) in &self.shutdowns {
            script.push((at, Scripted::Shutdown { node }));
        }
        script.sort_by_key(|(at, _)| *at);
        VodSim {
            sim,
            client_nodes,
            server_nodes: universe,
            script,
            next_script: 0,
            trace,
            profile,
        }
    }
}

/// A built, runnable VoD deployment.
pub struct VodSim {
    sim: Simulation<VodWire>,
    client_nodes: BTreeMap<ClientId, NodeId>,
    server_nodes: Vec<NodeId>,
    script: Vec<(SimTime, Scripted)>,
    next_script: usize,
    trace: TraceHandle,
    profile: ProfileHandle,
}

impl std::fmt::Debug for VodSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VodSim")
            .field("now", &self.sim.now())
            .field("clients", &self.client_nodes.len())
            .field("servers", &self.server_nodes.len())
            .finish()
    }
}

impl VodSim {
    /// Runs the simulation (and the scenario script) up to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_script(until, Simulation::run_until);
    }

    /// Runs like [`Self::run_until`], but on the wall clock: every event
    /// is dispatched once `epoch` plus its scheduled time has passed (see
    /// [`simnet::rt::run_paced`]). What the handlers see, and so every
    /// statistic and recorded event, is the same as unpaced.
    pub fn run_until_paced(&mut self, until: SimTime, epoch: Instant) {
        self.run_script(until, |sim, at| simnet::rt::run_paced(sim, at, epoch));
    }

    /// Interleaves the scenario script with `advance`, which runs the
    /// simulation up to a given time.
    fn run_script(
        &mut self,
        until: SimTime,
        mut advance: impl FnMut(&mut Simulation<VodWire>, SimTime),
    ) {
        while self.next_script < self.script.len() && self.script[self.next_script].0 <= until {
            let (at, action) = self.script[self.next_script].clone();
            self.next_script += 1;
            advance(&mut self.sim, at);
            match action {
                Scripted::Vcr { client, cmd } => {
                    if let Some(&node) = self.client_nodes.get(&client) {
                        self.sim
                            .invoke(node, |c: &mut VodClient, ctx| c.vcr(ctx, cmd));
                    }
                }
                Scripted::Shutdown { node } => {
                    self.sim
                        .invoke(node, |s: &mut VodServer, ctx| s.shutdown(ctx));
                }
            }
        }
        advance(&mut self.sim, until);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The statistics of `client`, cloned out of the simulation.
    pub fn client_stats(&self, client: ClientId) -> Option<ClientStats> {
        let node = self.client_nodes.get(&client)?;
        self.sim
            .with_process(*node, |c: &VodClient| c.session().stats().clone())
    }

    /// Frames displayed so far by `client`.
    pub fn client_displayed(&self, client: ClientId) -> Option<u64> {
        let node = self.client_nodes.get(&client)?;
        self.sim
            .with_process(*node, |c: &VodClient| c.session().decoder().displayed())
    }

    /// The statistics of the server on `node`.
    pub fn server_stats(&self, node: NodeId) -> Option<ServerStats> {
        self.sim
            .with_process(node, |s: &VodServer| s.stats().clone())
    }

    /// The node of the server currently transmitting to `client`, if any.
    pub fn owner_of(&self, client: ClientId) -> Option<NodeId> {
        self.server_nodes
            .iter()
            .copied()
            .filter(|&n| self.sim.is_alive(n))
            .find(|&n| {
                self.sim
                    .with_process(n, |s: &VodServer| s.clients_owned().contains(&client))
                    .unwrap_or(false)
            })
    }

    /// Network traffic counters.
    pub fn net_stats(&self) -> &simnet::NetStats {
        self.sim.stats()
    }

    /// Whether the server on `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.sim.is_alive(node)
    }

    /// The trace handle of this run (disabled unless the builder opted in
    /// via [`ScenarioBuilder::record_events`]).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The recorded events as JSON Lines; `None` without event recording.
    pub fn events_jsonl(&self) -> Option<String> {
        self.trace.to_jsonl()
    }

    /// Derives a [`RunReport`] from the recorded events; `None` without
    /// event recording.
    pub fn report(&self) -> Option<RunReport> {
        self.trace.report()
    }

    /// The profile handle of this run (disabled unless the builder opted
    /// in via [`ScenarioBuilder::profile_costs`]).
    pub fn profile(&self) -> &ProfileHandle {
        &self.profile
    }

    /// Merges scheduler counters, subsystem spans and network totals into
    /// a [`ProfileReport`]; `None` without cost profiling.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        if !self.profile.is_enabled() {
            return None;
        }
        Some(ProfileReport::collect(
            self.sim.profile(),
            &self.profile,
            Some(self.sim.stats()),
        ))
    }

    /// Escape hatch for tests and examples: the underlying simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<VodWire> {
        &mut self.sim
    }
}

/// Ready-made builders for the paper's measurement scenarios.
pub mod presets {
    use std::time::Duration;

    use media::{Movie, MovieId, MovieSpec};
    use simnet::{LinkProfile, SimTime};

    use super::ScenarioBuilder;
    use crate::protocol::ClientId;

    /// Node ids used by the preset scenarios.
    pub mod nodes {
        use simnet::NodeId;

        /// First initial server.
        pub const S1: NodeId = NodeId(1);
        /// Second initial server (serves the client first: the assignment
        /// rule prefers the highest-id among equally loaded replicas).
        pub const S2: NodeId = NodeId(2);
        /// The server brought up mid-run for load balancing.
        pub const S3: NodeId = NodeId(3);
        /// The client's host.
        pub const CLIENT: NodeId = NodeId(100);
    }

    /// The movie id used by the presets.
    pub const MOVIE: MovieId = MovieId(1);

    /// The client id used by the presets.
    pub const CLIENT_ID: ClientId = ClientId(1);

    /// When the preset client starts watching (the service gets two
    /// seconds to form its groups first).
    pub const CLIENT_START: SimTime = SimTime::from_secs(2);

    /// Builds the paper's LAN scenario (§6.1, Figure 4):
    /// two replicas, the serving one crashes ~38 s into the movie, and a
    /// third server is brought up ~24 s later, pulling the client over for
    /// load balancing. Returns the builder plus the two event times
    /// (crash, load-balance) in scenario seconds.
    pub fn fig4_lan(seed: u64) -> (ScenarioBuilder, SimTime, SimTime) {
        let crash_at = CLIENT_START + Duration::from_secs(38);
        let balance_at = crash_at + Duration::from_secs(24);
        let mut builder = deployment(seed, LinkProfile::lan());
        builder
            // S2 serves the client (highest id of the two initial
            // replicas); kill it mid-movie.
            .crash_at(crash_at, nodes::S2)
            // Bring up S3 for load balancing; the deterministic
            // redistribution hands it the client.
            .server_at(balance_at, nodes::S3);
        (builder, crash_at, balance_at)
    }

    /// Builds the paper's WAN scenario (§6.2, Figure 5): same deployment
    /// over a 7-hop Internet path; a new server is brought up ~25 s in
    /// (load balance) and the transmitting server is terminated ~22 s
    /// later. Returns the builder plus (load-balance, crash) times.
    pub fn fig5_wan(seed: u64) -> (ScenarioBuilder, SimTime, SimTime) {
        let balance_at = CLIENT_START + Duration::from_secs(25);
        let crash_at = balance_at + Duration::from_secs(22);
        let mut builder = deployment(seed, LinkProfile::wan());
        builder
            .server_at(balance_at, nodes::S3)
            // After the load balance S3 owns the client; terminate it.
            .crash_at(crash_at, nodes::S3);
        (builder, balance_at, crash_at)
    }

    /// The deployment both figures share: a 150 s movie held by S1–S3,
    /// S1 and S2 up at time zero, and the viewer on [`nodes::CLIENT`] from
    /// [`CLIENT_START`].
    fn deployment(seed: u64, network: LinkProfile) -> ScenarioBuilder {
        let spec = MovieSpec::paper_default().with_duration(Duration::from_secs(150));
        let mut builder = ScenarioBuilder::new(seed);
        builder
            .network(network)
            .movie(
                Movie::generate(MOVIE, &spec),
                &[nodes::S1, nodes::S2, nodes::S3],
            )
            .server(nodes::S1)
            .server(nodes::S2)
            .client(CLIENT_ID, nodes::CLIENT, MOVIE, CLIENT_START);
        builder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::MovieSpec;

    /// One short movie on n1 and n2, both up at time zero.
    fn two_servers() -> ScenarioBuilder {
        let spec = MovieSpec::paper_default().with_duration(std::time::Duration::from_secs(5));
        let mut builder = ScenarioBuilder::new(1);
        let (n1, n2) = (NodeId(1), NodeId(2));
        builder
            .movie(Movie::generate(MovieId(1), &spec), &[n1, n2])
            .server(n1)
            .server(n2);
        builder
    }

    #[test]
    #[should_panic(expected = "node n2 hosts both a server and a client")]
    fn a_client_on_a_servers_node_is_rejected() {
        let mut builder = two_servers();
        builder.client(ClientId(1), NodeId(2), MovieId(1), SimTime::from_secs(1));
        builder.build();
    }

    #[test]
    #[should_panic(expected = "node n3 hosts two clients")]
    fn two_clients_on_one_node_are_rejected() {
        let mut builder = two_servers();
        for client in [ClientId(1), ClientId(2)] {
            builder.client(client, NodeId(3), MovieId(1), SimTime::from_secs(1));
        }
        builder.build();
    }
}
