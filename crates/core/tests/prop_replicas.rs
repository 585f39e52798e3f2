//! The placement table (`server/replicas.rs`) on its own: no simulation, no
//! GCS, no clock — reports, views, OPENs and ticks go in as plain calls and
//! the decisions are checked.
//!
//! * **Totality and safe outputs** — no sequence of inputs panics it:
//!   reports from non-members and for unknown movies, empty and singleton
//!   server views, a view without this server, counts within a step of
//!   `u32::MAX`, orphan OPENs for held movies, a landed copy nobody
//!   decided, time going backwards. What comes out of that walk can be
//!   acted on: a bring-up names a catalog movie this server neither holds
//!   nor copies, a retire the movie whose view this server closes, the
//!   prefix cache fits its budget and names no held movie, a prefix source
//!   is live, advertising and not a holder, and every dropped assignment
//!   yields exactly one release.
//! * **Lockstep and one actor** — a fleet of values fed one world: the
//!   order reports arrive in within a tick changes nothing, every server's
//!   forecasts stay equal, and per movie and tick at most one server
//!   brings up, at most one retires, never below the floor, never during a
//!   cooldown and never while its own copy is in flight.
//! * **The floor** — a movie two servers hold keeps both copies, so one
//!   crash cannot take its last copy (ROADMAP item 1c).
//! * **Known deviations** (ROADMAP item 1c) — today's rule where it breaks
//!   the paper's promise, pinned so a fix starts from a failing test: two
//!   rescuers, a lone survivor that never rescues.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use ftvod_core::config::{
    PrefixCacheConfig, ReplicationConfig, VodConfig, COOLDOWN_TICKS, MIN_REPLICAS,
};
use ftvod_core::forecast::{BringUpTrigger, PolicyKind};
use ftvod_core::protocol::{session_group, ClientId, ClientRecord, ControlPayload, DemandEntry};
use ftvod_core::server::replicas::{Decision, Holdings, PrefixVerdict};
use ftvod_core::server::takeover::{Cx, Input};
use ftvod_core::server::{Placement, TakeoverTable, UNSERVED};
use gcs::{View, ViewId};
use media::{FrameNo, GopPattern, MovieId};
use proptest::prelude::*;
use simnet::{NodeId, SimTime, VecMap};

/// The sync interval the ticks below are spaced by.
const TICK: Duration = Duration::from_millis(500);

fn view(members: impl IntoIterator<Item = u32>) -> View {
    let members: Vec<NodeId> = members.into_iter().map(NodeId).collect();
    let coordinator = members.iter().min().copied().unwrap_or_default();
    View::new(
        ViewId {
            epoch: 1,
            coordinator,
        },
        members,
    )
}

fn record(movie: u32, client: u32, owner: NodeId) -> ClientRecord {
    let client = ClientId(client);
    ClientRecord {
        client,
        client_node: NodeId(1000 + client.0),
        session_group: session_group(client),
        movie: MovieId(movie),
        next_frame: FrameNo(0),
        rate_fps: 30,
        max_fps: 30,
        owner,
        assigned_epoch: 1,
        updated_at: SimTime::ZERO,
        paused: false,
    }
}

/// The table every holder of `movie` keeps: `members` in its view, and one
/// client (`100 × movie + i`) per entry of `owners`.
/// Seeded through [`TakeoverTable::step`] on the view's first member: the
/// view, then that member's report.
fn table(movie: u32, members: impl IntoIterator<Item = u32>, owners: &[NodeId]) -> TakeoverTable {
    let view = view(members);
    let first = view.members.first().copied().unwrap_or_default();
    let (cfg, gop) = (VodConfig::paper_default(), GopPattern::mpeg1());
    let sessions = VecMap::<ClientId, ClientRecord>::new();
    let cx = Cx {
        me: first,
        now: SimTime::ZERO,
        cfg: &cfg,
        movie: MovieId(movie),
        gop: &gop,
        fps: 30,
        sessions: &sessions,
    };
    let clients = owners.iter().zip(100 * movie..);
    let records = clients.map(|(&owner, c)| record(movie, c, owner)).collect();
    let report = Input::Report {
        from: first,
        epoch: 1,
        records,
    };
    let mut table = TakeoverTable::default();
    for input in [Input::View(view), report] {
        table.step(&cx, input, &mut Vec::new());
    }
    table
}

fn catalog(movies: impl IntoIterator<Item = u32>) -> BTreeMap<MovieId, ()> {
    movies.into_iter().map(|m| (MovieId(m), ())).collect()
}

fn replicating(kind: PolicyKind, rules: ReplicationConfig) -> VodConfig {
    VodConfig::paper_default()
        .with_dynamic_replication(rules)
        .with_placement(kind)
}

fn kind_of(pick: u8) -> PolicyKind {
    [PolicyKind::Reactive, PolicyKind::Predictive][pick as usize % 2]
}

fn entry(movie: u32, sessions: u32, waiting: u32) -> DemandEntry {
    DemandEntry {
        movie: MovieId(movie),
        sessions,
        waiting,
    }
}

fn demand_of(report: &ControlPayload) -> (NodeId, &[DemandEntry], &[MovieId]) {
    match report {
        ControlPayload::Demand {
            server,
            entries,
            prefixes,
        } => (*server, entries, prefixes),
        other => panic!("not a demand report: {other:?}"),
    }
}

// ----------------------------------------------------------------------
// One value, any input
// ----------------------------------------------------------------------

/// This server. Nodes 1–5 may be in the server group; 0 and 6 never are.
const ME: NodeId = NodeId(2);

/// Mostly small, sometimes within a step of `u32::MAX`.
fn edge(x: u64) -> u32 {
    match x % 4 {
        0 => u32::MAX - ((x >> 2) % 3) as u32,
        _ => ((x >> 2) % 24) as u32,
    }
}

/// What the walk remembers from the outside: the server view last
/// installed and who advertises which prefix.
struct Outside {
    servers: View,
    advertised: BTreeMap<NodeId, BTreeSet<MovieId>>,
}

/// Applies one input, drawn from `(kind, a, b)`, to `value` the way the
/// server would, and checks what comes back. Movies 1–3 may be held,
/// 1–5 are in the catalog, 6 and 7 are unknown.
fn step(
    cfg: &VodConfig,
    value: &mut Placement,
    outside: &mut Outside,
    held: &Holdings<'_>,
    (kind, a, b): (u8, u64, u64),
) -> Result<(), TestCaseError> {
    let catalog = catalog(1..=5);
    let now = SimTime::from_micros(u64::from(edge(b)) * 250_000);
    let movie = MovieId(1 + (a % 7) as u32);
    let client = ClientId(100 * movie.0 + (b % 4) as u32);
    match kind % 16 {
        0 => {
            let server = NodeId((a % 7) as u32);
            let movies = (0..3).map(|i| 1 + (a >> (3 + 3 * i)) % 7);
            let entries: Vec<DemandEntry> = movies
                .enumerate()
                .map(|(i, m)| entry(m as u32, edge(b >> (8 * i)), edge(b >> (8 * i + 4))))
                .collect();
            let prefixes: Vec<MovieId> = (1..=7)
                .filter(|m| b >> (40 + m) & 1 == 1)
                .map(MovieId)
                .collect();
            value.file_report(server, &entries, &prefixes);
            outside
                .advertised
                .insert(server, prefixes.into_iter().collect());
        }
        1 => {
            // A quiet fleet: every holder reports a session or none.
            for server in 1..=3 {
                let mine = held
                    .iter()
                    .filter(|(_, t)| t.view().contains(NodeId(server)));
                let entries: Vec<DemandEntry> = mine
                    .map(|(m, _)| entry(m.0, (a >> (2 * server)) as u32 % 2, 0))
                    .collect();
                value.file_report(NodeId(server), &entries, &[]);
                outside.advertised.insert(NodeId(server), BTreeSet::new());
            }
        }
        2 => {
            outside.servers = view((1..=5).filter(|n| a >> n & 1 == 1));
            value.install_server_view(outside.servers.clone());
            outside
                .advertised
                .retain(|n, _| outside.servers.contains(*n));
        }
        3 => value.note_orphan_open(movie, client, now),
        4 => {
            let landed = value.copy_landed(movie);
            prop_assert!(landed.is_none() || !held.contains_key(&movie));
            prop_assert_eq!(value.copy_landed(movie), None);
        }
        5 => {
            let assigned: BTreeMap<_, _> = value.prefix_assignments().into_iter().collect();
            let client = assigned
                .keys()
                .nth(a as usize % 5)
                .copied()
                .unwrap_or(client);
            let table = assigned.get(&client).and_then(|m| held.get(m)).copied();
            let table = table.filter(|_| b & 1 == 1);
            let verdict = value.prefix_verdict(ME, client, table);
            match (assigned.contains_key(&client), table, verdict) {
                (false, _, v) => prop_assert_eq!(v, PrefixVerdict::Keep),
                (true, None, v) => prop_assert_eq!(v, PrefixVerdict::Release(UNSERVED)),
                (true, Some(t), PrefixVerdict::Release(owner)) => {
                    prop_assert_eq!(owner, t.get(client).map_or(UNSERVED, |r| r.owner));
                }
                (true, Some(t), PrefixVerdict::Retry { parked, .. }) => {
                    prop_assert_eq!(t.get(client), Some(&parked));
                    prop_assert_eq!(parked.owner, UNSERVED);
                    prop_assert_eq!(t.view().coordinator_candidate(), Some(ME));
                }
                (true, Some(_), PrefixVerdict::Keep) => prop_assert!(false, "unresolved"),
            }
            // Every path that drops the assignment yields one release,
            // and only one.
            let owner = NodeId((b >> 8) as u32 % 7);
            let release = value.release_prefix(client, owner);
            prop_assert_eq!(release.is_some(), assigned.contains_key(&client));
            if let Some(ControlPayload::PrefixRelease {
                client: c,
                movie: m,
                owner: o,
                ..
            }) = release
            {
                prop_assert_eq!((c, Some(&m), o), (client, assigned.get(&client), owner));
            }
            prop_assert!(value.prefix_assignments().iter().all(|(c, _)| *c != client));
            prop_assert_eq!(value.release_prefix(client, owner), None);
        }
        _ => {
            // The sync tick, in the server's order: report, decide, cache,
            // route.
            let report = value.report(ME, held);
            let (server, entries, prefixes) = demand_of(&report);
            prop_assert_eq!(server, ME);
            prop_assert!(held.keys().all(|m| entries.iter().any(|e| e.movie == *m)));
            if outside.servers.contains(ME) {
                // Only a member's multicast is delivered back to it.
                value.file_report(ME, entries, prefixes);
                outside
                    .advertised
                    .insert(ME, prefixes.iter().copied().collect());
            }
            let decisions = value.tick(ME, now, held, &catalog);
            let live = &outside.servers;
            prop_assert!(decisions.is_empty() || live.len() > 1 && live.contains(ME));
            for decision in &decisions {
                match decision {
                    Decision::BringUp(note, trigger) => {
                        prop_assert!(catalog.contains_key(&note.movie), "{note:?}");
                        prop_assert!(!held.contains_key(&note.movie), "{note:?}");
                        let rescue = *trigger == BringUpTrigger::OrphanRescue;
                        prop_assert_eq!(rescue, note.replicas == 1);
                        prop_assert_eq!(note.policy, cfg.placement);
                    }
                    Decision::Retire(note) => {
                        let view = held[&note.movie].view();
                        prop_assert_eq!(view.members.last(), Some(&ME));
                        prop_assert!(view.len() as u32 > MIN_REPLICAS);
                    }
                }
            }
            let budget = (a % 4) as u32;
            value.refresh_prefix_cache(budget, held, &catalog);
            let cache = value.prefix_cache();
            prop_assert!(cache.len() <= budget as usize);
            prop_assert!(cache
                .iter()
                .all(|m| catalog.contains_key(m) && !held.contains_key(m)));
            let before = value.prefix_assignments();
            for assign in value.route_prefixes(ME, held) {
                let ControlPayload::PrefixAssign { target, record } = assign else {
                    return Err(TestCaseError::fail(format!("{assign:?}")));
                };
                let view = held[&record.movie].view();
                prop_assert_eq!(view.coordinator_candidate(), Some(ME));
                prop_assert_eq!(record.owner, UNSERVED);
                prop_assert!(live.contains(target) && !view.contains(target));
                let advertised = outside.advertised.get(&target);
                prop_assert!(advertised.is_some_and(|movies| movies.contains(&record.movie)));
                prop_assert!(before.iter().all(|(c, _)| *c != record.client));
                prop_assert!(value
                    .prefix_assignments()
                    .contains(&(record.client, record.movie)));
            }
        }
    }
    Ok(())
}

/// One walk of `inputs` over a value of the placement kind `pick` picks,
/// holding the movies it picks.
fn walk(pick: u8, inputs: Vec<(u8, u64, u64)>) -> Result<(), TestCaseError> {
    let rules =
        ReplicationConfig::paper_default().with_bringup_delay(TICK * u32::from(pick >> 3 & 1));
    let cfg =
        replicating(kind_of(pick), rules).with_prefix_cache(PrefixCacheConfig::paper_default());
    let parked = [ME, NodeId(3), UNSERVED, UNSERVED, ME];
    let tables = [
        table(1, [2, 3], &parked),
        table(2, [1, 2], &parked[..2]),
        table(3, [2], &parked[2..]),
    ];
    let held: Holdings<'_> = (1u32..)
        .zip(&tables)
        .filter(|(m, _)| pick >> (5 + m % 3) & 1 == 1)
        .map(|(m, t)| (MovieId(m), t))
        .collect();
    let mut value = Placement::new(cfg.placement);
    let mut outside = Outside {
        servers: View::default(),
        advertised: BTreeMap::new(),
    };
    for input in inputs {
        step(&cfg, &mut value, &mut outside, &held, input)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Totality and safe outputs, over one walk.
    #[test]
    fn any_sequence_of_inputs_is_survived_and_answered_safely(
        pick in any::<u8>(),
        inputs in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..120),
    ) {
        walk(pick, inputs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The walk at 20 000 cases (a release-build sweep).
    #[test]
    #[ignore = "release-build sweep; run with --ignored"]
    fn any_sequence_of_inputs_is_survived_and_answered_safely_at_twenty_thousand_cases(
        pick in any::<u8>(),
        inputs in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..120),
    ) {
        walk(pick, inputs)?;
    }
}

// ----------------------------------------------------------------------
// A fleet of values, one world
// ----------------------------------------------------------------------

const MOVIES: u32 = 4;

/// Servers 1..=n, each with its own [`Placement`], that all file every
/// live server's report each tick and hold consistent movie-group views —
/// the "equal demand maps and views" under which the elections promise one
/// actor.
struct World {
    cfg: VodConfig,
    values: BTreeMap<u32, Placement>,
    /// Movie → the servers in its movie-group view.
    holders: BTreeMap<u32, BTreeSet<u32>>,
    /// (movie, copying server) → the tick its copy lands.
    copies: BTreeMap<(u32, u32), usize>,
    /// Movie → (reporters last seen, tick they last changed): the policy's
    /// replica-set change detection, mirrored.
    seen: BTreeMap<u32, (usize, usize)>,
}

impl World {
    fn new(cfg: VodConfig, servers: u32, placement_bits: u64) -> Self {
        let kind = cfg.placement;
        let all = view(1..=servers);
        let values = (1..=servers).map(|n| {
            let mut value = Placement::new(kind);
            value.install_server_view(all.clone());
            (n, value)
        });
        let holders = (1..=MOVIES).map(|m| {
            let bits = placement_bits >> (8 * (m - 1));
            (m, (1..=servers).filter(|n| bits >> n & 1 == 1).collect())
        });
        World {
            cfg,
            values: values.collect(),
            holders: holders.collect(),
            copies: BTreeMap::new(),
            seen: BTreeMap::new(),
        }
    }

    fn servers(&self) -> View {
        view(self.values.keys().copied())
    }

    /// `server` crashes: out of the server group and every movie group.
    fn crash(&mut self, server: u32) {
        if self.values.len() <= 2 || self.values.remove(&server).is_none() {
            return;
        }
        self.holders.values_mut().for_each(|h| {
            h.remove(&server);
        });
        self.copies.retain(|&(_, n), _| n != server);
        let servers = self.servers();
        for value in self.values.values_mut() {
            value.install_server_view(servers.clone());
        }
    }

    /// One sync tick of the whole fleet under `demand` (per movie:
    /// sessions, waiting). Returns every decision with its server.
    fn tick(
        &mut self,
        t: usize,
        demand: &[(u32, u32)],
        shuffle: u64,
    ) -> Result<Vec<(u32, Decision)>, TestCaseError> {
        let rules = self.cfg.replication.expect("a replicating fleet");
        let now = SimTime::ZERO + TICK * t as u32;
        let catalog = catalog(1..=MOVIES);
        // Copies that are there join their movie group.
        let landed: Vec<(u32, u32)> = self
            .copies
            .iter()
            .filter(|(_, &at)| at <= t)
            .map(|(&k, _)| k)
            .collect();
        for (movie, server) in landed {
            self.copies.remove(&(movie, server));
            let value = self.values.get_mut(&server).expect("crashes cancel copies");
            prop_assert!(value.copy_landed(MovieId(movie)).is_some());
            self.holders
                .get_mut(&movie)
                .expect("a movie")
                .insert(server);
        }
        // The shared records: sessions dealt round the holders, the
        // waiting parked; nobody to park them with = orphan OPENs, which
        // every server hears.
        let mut tables = BTreeMap::new();
        for (movie, &(sessions, waiting)) in (1..=MOVIES).zip(demand) {
            let holders = &self.holders[&movie];
            if holders.is_empty() {
                for value in self.values.values_mut() {
                    for client in 0..waiting {
                        value.note_orphan_open(MovieId(movie), ClientId(100 * movie + client), now);
                    }
                }
                continue;
            }
            let owners = holders
                .iter()
                .cycle()
                .take(sessions as usize)
                .map(|&n| NodeId(n));
            let owners: Vec<NodeId> = owners.chain((0..waiting).map(|_| UNSERVED)).collect();
            tables.insert(movie, table(movie, holders.iter().copied(), &owners));
        }
        let held = |server: u32| -> Holdings<'_> {
            let mine = tables
                .iter()
                .filter(|(m, _)| self.holders[*m].contains(&server));
            mine.map(|(&m, t)| (MovieId(m), t)).collect()
        };
        let reports: Vec<ControlPayload> = self
            .values
            .iter()
            .map(|(&n, v)| v.report(NodeId(n), &held(n)))
            .collect();
        // What the policy sees change: the live reporters per movie.
        for movie in 1..=MOVIES {
            let reporters = reports
                .iter()
                .filter(|r| demand_of(r).1.iter().any(|e| e.movie == MovieId(movie)))
                .count();
            let seen = self.seen.entry(movie).or_insert((0, t));
            if reporters > 0 && seen.0 != reporters {
                *seen = (reporters, t);
            }
        }
        let mut decided = Vec::new();
        for (&server, value) in &mut self.values {
            // Lockstep: a twin that hears the same reports in another
            // order decides the same and ends up the same.
            let mut twin = value.clone();
            let mut order: Vec<&ControlPayload> = reports.iter().collect();
            for report in &order {
                let (from, entries, prefixes) = demand_of(report);
                value.file_report(from, entries, prefixes);
            }
            order.rotate_left(shuffle as usize % reports.len());
            order.reverse();
            for report in &order {
                let (from, entries, prefixes) = demand_of(report);
                twin.file_report(from, entries, prefixes);
            }
            let held = held(server);
            let decisions = value.tick(NodeId(server), now, &held, &catalog);
            prop_assert_eq!(&decisions, &twin.tick(NodeId(server), now, &held, &catalog));
            prop_assert_eq!(&*value, &twin);
            decided.extend(decisions.into_iter().map(|d| (server, d)));
        }
        for movie in (1..=MOVIES).map(MovieId) {
            let forecasts: Vec<_> = self.values.values().map(|v| v.forecast(movie)).collect();
            prop_assert!(
                forecasts.windows(2).all(|w| w[0] == w[1]),
                "the forecasts of {movie} diverged"
            );
        }
        // One actor per movie, tick and direction, and a legal one.
        let mut acted = BTreeSet::new();
        for &(server, decision) in &decided {
            let (Decision::BringUp(note, _) | Decision::Retire(note)) = decision;
            let movie = note.movie.0;
            let rescue = matches!(decision, Decision::BringUp(_, BringUpTrigger::OrphanRescue));
            let retire = matches!(decision, Decision::Retire(_));
            prop_assert!(acted.insert((movie, retire)), "two actors: {decided:?}");
            prop_assert!(
                rescue || t - self.seen[&movie].1 >= COOLDOWN_TICKS as usize,
                "{decision:?} by n{server} at tick {t}, replica set changed at {}",
                self.seen[&movie].1
            );
            let holders = self.holders.get_mut(&movie).expect("a movie");
            if retire {
                prop_assert_eq!(holders.last(), Some(&server));
                prop_assert!(holders.len() as u32 > MIN_REPLICAS);
                holders.remove(&server);
            } else {
                prop_assert!(!holders.contains(&server));
                prop_assert_eq!(
                    rescue,
                    holders.is_empty() && !self.copies.keys().any(|k| k.0 == movie)
                );
                let copy_ticks = (rules.bringup_delay.as_millis() / TICK.as_millis()) as usize;
                prop_assert!(
                    self.copies
                        .insert((movie, server), t + copy_ticks)
                        .is_none(),
                    "copied twice"
                );
            }
        }
        Ok(decided)
    }
}

/// One run of a fleet of `servers` under the placement kind `pick` picks:
/// phases of twelve ticks, each phase one demand level per movie, with
/// crashes where `chances` say so.
fn fleet_world(
    pick: u8,
    servers: u32,
    placement_bits: u64,
    phases: &[Vec<(u32, u32)>],
    chances: &[u64],
) -> Result<(), TestCaseError> {
    let rules =
        ReplicationConfig::paper_default().with_bringup_delay(TICK * 3 * u32::from(pick >> 3 & 3));
    let mut world = World::new(replicating(kind_of(pick), rules), servers, placement_bits);
    // Demand holds for a phase of twelve ticks — longer than cooldown
    // plus hysteresis — and is as often a trickle as a crowd.
    for (phase, levels) in phases.iter().enumerate() {
        let trickle = |&(s, w): &(u32, u32)| (if s < 40 { s } else { s % 4 }, w.saturating_sub(8));
        let demand: Vec<(u32, u32)> = levels.iter().map(trickle).collect();
        for (i, chance) in chances.iter().enumerate() {
            let chance = chance.rotate_left(phase as u32);
            if chance % 24 == 0 {
                world.crash(1 + (chance >> 8) as u32 % servers);
            }
            world.tick(12 * phase + i, &demand, chance >> 16)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lockstep and one actor, over one run of a fleet.
    #[test]
    fn a_fleet_fed_one_world_stays_in_lockstep_and_elects_one_actor(
        pick in any::<u8>(),
        servers in 2u32..7,
        placement_bits in any::<u64>(),
        phases in prop::collection::vec(prop::collection::vec((0u32..80, 0u32..12), 4..5), 1..6),
        chances in prop::collection::vec(any::<u64>(), 12..13),
    ) {
        fleet_world(pick, servers, placement_bits, &phases, &chances)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The fleet world at 20 000 cases (a release-build sweep).
    #[test]
    #[ignore = "release-build sweep; run with --ignored"]
    fn a_fleet_fed_one_world_stays_in_lockstep_and_elects_one_actor_at_twenty_thousand_cases(
        pick in any::<u8>(),
        servers in 2u32..7,
        placement_bits in any::<u64>(),
        phases in prop::collection::vec(prop::collection::vec((0u32..80, 0u32..12), 4..5), 1..6),
        chances in prop::collection::vec(any::<u64>(), 12..13),
    ) {
        fleet_world(pick, servers, placement_bits, &phases, &chances)?;
    }
}

// ----------------------------------------------------------------------
// Examples: the elections, the fix, the known deviations
// ----------------------------------------------------------------------

/// Files `reports` (server, its entries) with `value`.
fn file(value: &mut Placement, reports: &[(u32, &[DemandEntry])]) {
    for &(server, entries) in reports {
        value.file_report(NodeId(server), entries, &[]);
    }
}

/// Installs `servers` with `value` and ticks it as `me` until it decides
/// something, at most `ticks` times.
fn first_decision(
    value: &mut Placement,
    me: u32,
    servers: View,
    held: &Holdings<'_>,
    ticks: u32,
) -> Vec<Decision> {
    let all = catalog(1..=MOVIES);
    value.install_server_view(servers);
    let mut ticks =
        (0..ticks).map(|t| value.tick(NodeId(me), SimTime::ZERO + TICK * t, held, &all));
    ticks
        .find(|decisions| !decisions.is_empty())
        .unwrap_or_default()
}

/// The bring-up goes to the least-loaded live server that does not report
/// the movie, ties to the lowest id; the waiting backlog is shared record
/// state, so two holders that each see three parked clients report three,
/// not six.
#[test]
fn a_bring_up_goes_to_the_least_loaded_non_holder_and_waiting_is_not_summed() {
    let servers = view(1..=5);
    // Movie 1 on n1 and n2: 14 sessions + 3 waiting = 17 > 8 × 2. n3
    // carries 5 sessions of movie 2; n4 and n5 are idle.
    let hot: &[(u32, &[DemandEntry])] = &[
        (1, &[entry(1, 8, 3)]),
        (2, &[entry(1, 6, 3)]),
        (3, &[entry(2, 5, 0)]),
        (4, &[]),
        (5, &[]),
    ];
    let decide = |me: u32| {
        let mut value = Placement::new(PolicyKind::Reactive);
        file(&mut value, hot);
        first_decision(&mut value, me, servers.clone(), &Holdings::new(), 12)
    };
    let [Decision::BringUp(note, trigger)] = decide(4)[..] else {
        panic!("n4 is idle and the lowest id: {:?}", decide(4));
    };
    assert_eq!(
        (note.movie, note.demand, note.replicas),
        (MovieId(1), 17, 3)
    );
    assert_eq!(trigger, BringUpTrigger::ReactiveStreak);
    for other in [1, 2, 3, 5] {
        assert_eq!(decide(other), [], "n{other}");
    }
}

/// The retire goes to the highest id of the movie group's view, and only
/// while that view is above the floor of [`MIN_REPLICAS`]: a view of three
/// gives one up, a view of two does not.
#[test]
fn a_retire_goes_to_the_highest_id_of_a_view_above_the_floor() {
    assert_eq!(MIN_REPLICAS, 2);
    let cold: &[(u32, &[DemandEntry])] = &[
        (1, &[entry(1, 1, 0)]),
        (2, &[entry(1, 0, 0)]),
        (3, &[entry(1, 0, 0)]),
    ];
    let decide = |me: u32, members: &[u32]| {
        let views = table(1, members.iter().copied(), &[NodeId(1)]);
        let mut value = Placement::new(PolicyKind::Reactive);
        file(&mut value, cold);
        let held: Holdings<'_> = [(MovieId(1), &views)].into();
        first_decision(&mut value, me, view(1..=4), &held, 12)
    };
    let [Decision::Retire(note)] = decide(3, &[1, 2, 3])[..] else {
        panic!("n3 closes the view: {:?}", decide(3, &[1, 2, 3]));
    };
    assert_eq!((note.movie, note.demand, note.replicas), (MovieId(1), 1, 2));
    assert_eq!(decide(1, &[1, 2, 3]), []);
    assert_eq!(decide(2, &[1, 2, 3]), []);
    assert_eq!(decide(3, &[2, 3]), [], "two copies are the floor");
}

/// The gate reads the movie group's *view*, not the reporters: while n1's
/// last report is still on file after it left, three report the movie but
/// two hold it, and with a floor of two nobody may go.
#[test]
fn a_retire_is_gated_on_the_view_not_on_the_reports() {
    let reports: &[(u32, &[DemandEntry])] = &[
        (1, &[entry(1, 0, 0)]),
        (2, &[entry(1, 1, 0)]),
        (3, &[entry(1, 0, 0)]),
    ];
    let decide = |members: &[u32]| {
        let views = table(1, members.iter().copied(), &[NodeId(2)]);
        let held: Holdings<'_> = [(MovieId(1), &views)].into();
        let mut value = Placement::new(PolicyKind::Reactive);
        file(&mut value, reports);
        first_decision(&mut value, 3, view(1..=4), &held, 12)
    };
    assert_eq!(decide(&[2, 3]), []);
    assert!(matches!(decide(&[1, 2, 3])[..], [Decision::Retire(_)]));
}

/// A copy in flight is advertised as a sessionless holder until it lands.
#[test]
fn the_report_carries_copies_in_flight() {
    let mut value = Placement::new(PolicyKind::Reactive);
    // n2 is elected to rescue movie 3 and starts copying it.
    value.note_orphan_open(MovieId(3), ClientId(7), SimTime::ZERO);
    file(&mut value, &[(1, &[entry(1, 4, 0)]), (2, &[])]);
    let rescued = first_decision(&mut value, 2, view(1..=2), &Holdings::new(), 1);
    assert!(matches!(
        rescued[..],
        [Decision::BringUp(_, BringUpTrigger::OrphanRescue)]
    ));
    let report = value.report(NodeId(2), &Holdings::new());
    assert_eq!(demand_of(&report).1, [entry(3, 0, 0)]);
    assert_eq!(value.copy_landed(MovieId(3)), Some(vec![]));
    assert_eq!(demand_of(&value.report(NodeId(2), &Holdings::new())).1, []);
}

/// **The fix of this PR.** A server elected for a movie it cannot copy —
/// built without the full catalog — declines, and a declined bring-up
/// leaves the hot streak, the cooldown and the orphan OPENs alone: the
/// tick after the movie reaches its catalog, it acts. (Before, the
/// election's winner reset the streak, started a `COOLDOWN_TICKS`
/// refractory window and dropped the orphans as if it had acted, which
/// silenced the whole fleet for that movie.)
#[test]
fn a_declined_bring_up_leaves_streak_cooldown_and_orphans_alone() {
    let (partial, full) = (catalog([2]), catalog(1..=MOVIES));
    let at = |t: u32| SimTime::ZERO + TICK * t;
    let mut value = Placement::new(PolicyKind::Reactive);
    value.install_server_view(view(1..=2));
    // n2 is the only non-holder of hot movie 1, and the least loaded for
    // orphaned movie 3.
    file(&mut value, &[(1, &[entry(1, 20, 0)]), (2, &[])]);
    value.note_orphan_open(MovieId(3), ClientId(7), at(0));
    for t in 0..8 {
        let decisions = value.tick(NodeId(2), at(t), &Holdings::new(), &partial);
        assert_eq!(decisions, [], "tick {t}: neither movie is in n2's catalog");
    }
    let decisions = value.tick(NodeId(2), at(8), &Holdings::new(), &full);
    let triggers: Vec<_> = decisions
        .iter()
        .map(|d| match d {
            Decision::BringUp(note, trigger) => (note.movie.0, *trigger),
            Decision::Retire(_) => panic!("{d:?}"),
        })
        .collect();
    assert_eq!(
        triggers,
        [
            (1, BringUpTrigger::ReactiveStreak),
            (3, BringUpTrigger::OrphanRescue)
        ]
    );
}

/// **Known deviation** (ROADMAP item 1c; seed 932's n3 and n4): the rescue
/// election is only as agreed as the load it ranks by. Two servers whose
/// demand maps differ by one stale report — n4 missed n3's latest — each
/// find themselves the least loaded and both re-create the orphaned movie.
///
/// Electing the rescuer as the lowest id of the server-group view instead
/// was measured on top of the floor of two: `chaos --seed 2001 --seeds
/// 4000` read 20 `exclusive-service`, 7 `bounded-gaps` and 80
/// `re-served-after-fault` failures, against 19 / 6 / 86 for the floor
/// alone — no better, so it stays out; item 1b arbitrates the dual service
/// it causes instead.
#[test]
fn known_deviation_a_stale_report_elects_two_rescuers() {
    let servers = view([3, 4]);
    let rescuers = |n3_as_seen_by_n4: u32| {
        let rescues = |me: u32, n3_load: u32| {
            let mut value = Placement::new(PolicyKind::Reactive);
            value.note_orphan_open(MovieId(1), ClientId(24), SimTime::ZERO);
            file(
                &mut value,
                &[(3, &[entry(2, n3_load, 0)]), (4, &[entry(3, 3, 0)])],
            );
            !first_decision(&mut value, me, servers.clone(), &Holdings::new(), 1).is_empty()
        };
        (rescues(3, 2), rescues(4, n3_as_seen_by_n4))
    };
    assert_eq!(rescuers(2), (true, false), "equal maps: one rescuer");
    assert_eq!(
        rescuers(4),
        (true, true),
        "n4 still reads n3's old load: two"
    );
}

/// The floor (ROADMAP item 1c; seed 28): the retire election never spends
/// a two-holder movie down to one copy, however cold it runs, so one crash
/// cannot take the last copy and its sessions' records with it — k copies
/// tolerate k − 1 faults. (With a floor of one, n3 retired here, and in
/// seed 28 the sole remaining holder crashed with c4's only record.)
#[test]
fn a_movie_with_live_sessions_keeps_two_copies() {
    let views = table(2, [2, 3], &[NodeId(2), NodeId(3)]);
    let held: Holdings<'_> = [(MovieId(2), &views)].into();
    let mut value = Placement::new(PolicyKind::Reactive);
    file(
        &mut value,
        &[(2, &[entry(2, 1, 0)]), (3, &[entry(2, 1, 0)])],
    );
    for me in [2, 3] {
        let decisions = first_decision(&mut value, me, view(1..=4), &held, 12);
        assert_eq!(decisions, [], "n{me} keeps its copy");
    }
}

/// **Known deviation** (ROADMAP item 1c): the lone-survivor return comes
/// before the orphan pass, so the last live server ignores the waiting
/// viewers of a movie that is in its own catalog.
///
/// Deleting that return was measured on top of the floor of two: `chaos
/// --seed 1 --seeds 1000` read 18 `exclusive-service` failures instead of
/// 7. A server that a `[target] | rest` partition cuts off alone sees a
/// one-member server view, and the return is what stops it rescuing on
/// its own side of the cut; the fix needs a rescuer the cut-off side can
/// tell it is not.
#[test]
fn known_deviation_a_lone_survivor_never_rescues() {
    let mut value = Placement::new(PolicyKind::Reactive);
    let all = catalog(1..=MOVIES);
    value.install_server_view(view([1]));
    for t in 0..20 {
        let now = SimTime::ZERO + TICK * t;
        value.note_orphan_open(MovieId(1), ClientId(5), now);
        let decisions = value.tick(NodeId(1), now, &Holdings::new(), &all);
        assert_eq!(decisions, [], "tick {t}");
    }
    // A second live server is all it takes.
    value.install_server_view(view(1..=2));
    let decisions = value.tick(NodeId(1), SimTime::ZERO + TICK * 20, &Holdings::new(), &all);
    assert!(matches!(
        decisions[..],
        [Decision::BringUp(_, BringUpTrigger::OrphanRescue)]
    ));
}
