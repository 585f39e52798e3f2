//! The placement table: who holds what.
//!
//! The paper replicates each movie "on a subset of servers" and lets the
//! movie-group view change do every handoff; *which* subset is decided
//! here. Every server keeps one [`Placement`] — the server-group view, the
//! latest demand report of each live server, the load the last tick ranked
//! by, the placement rule's streaks and cooldowns, one forecast machine per
//! movie, the copies in flight, the OPENs nobody could answer, and the
//! prefix tier's cache, advertisements and routing — and every decision of
//! the replica manager (DESIGN.md §5d) and the prefix tier (§5h) is a
//! method on it: what to report, who brings up, retires or rescues which
//! movie this tick, which prefixes to cache, where a waiting client is fed
//! from meanwhile and when that source is released.
//!
//! The value has no effects and reads no clock: the caller installs each
//! server-group view, passes the time, its own node id and a read-only
//! look at what it holds ([`Holdings`]: movie → takeover table, whose view
//! and `owned_by` counts are all that is read; the catalog's keys), and
//! acts on plain return values — multicast a payload, join or leave a movie
//! group, arm the copy timer. [`VodServer`] is that caller; the property
//! tests of `tests/prop_replicas.rs` are another.
//!
//! Every server runs the same rule over (eventually) the same reports, so
//! every server's forecasts and placement state stay in lockstep and at
//! most one server acts per movie and tick. Two things the caller must
//! keep, because the goldens pin them: it files its *own* report by
//! multicasting [`Placement::report`] and handing the self-delivered
//! message to [`Placement::file_report`] like anyone else's (a server that
//! is not yet a member files nothing); and it runs the sync tick's steps in
//! order, one at a time — it carries out [`Placement::tick`]'s decisions
//! before it asks for the prefix cache or the routing, which read what is
//! held *then*, and it resolves the prefix assignments one by one
//! ([`Placement::prefix_verdict`]), because each retried admission
//! publishes, self-delivers and can change the record the next
//! assignment's verdict reads.
//!
//! [`VodServer`]: super::VodServer

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use gcs::View;
use media::MovieId;
use simnet::{NodeId, SimTime};

use super::assign::least_loaded;
use super::{TakeoverTable, UNSERVED};
use crate::config::{
    COLD_SESSIONS_PER_REPLICA, COOLDOWN_TICKS, HOT_SESSIONS_PER_REPLICA, HYSTERESIS_TICKS,
    MAX_REPLICAS, MIN_REPLICAS,
};
use crate::forecast::{BringUpTrigger, MovieForecast, PolicyKind, PopState, FORECAST_STREAM};
use crate::protocol::{ClientId, ClientRecord, ControlPayload, DemandEntry};

/// How long an unanswered OPEN for an un-held movie counts as live
/// demand in the orphan-rescue election. Clients retry every two
/// seconds, so a healthy waiting client refreshes its entry well within
/// this window; anything older is a viewer that gave up or got served.
const ORPHAN_OPEN_TTL: Duration = Duration::from_secs(5);

/// What a server holds, as the placement rule reads it: the takeover
/// table — its movie-group view and `owned_by` counts — of every movie it
/// is a replica of.
pub type Holdings<'a> = BTreeMap<MovieId, &'a TakeoverTable>;

/// The trace annotation of a decision: what the rule saw when it made it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Note {
    /// The movie whose replica set moves.
    pub movie: MovieId,
    /// Sessions plus waiting clients behind the decision (a retire:
    /// sessions only; a rescue: the live orphan OPENs).
    pub demand: u32,
    /// Replicas the movie has once the decision is carried out.
    pub replicas: u32,
    /// The policy that decided.
    pub policy: PolicyKind,
    /// The movie's forecast state this tick.
    pub forecast: PopState,
}

/// Something [`Placement::tick`] elected *this* server to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Start copying the movie; [`Placement::copy_landed`] has the peers
    /// to join once the copy is there.
    BringUp(Note, BringUpTrigger),
    /// Publish the freshest offsets, leave the movie group and drop the
    /// replica.
    Retire(Note),
}

/// What the coordinator does about one prefix assignment
/// ([`Placement::prefix_verdict`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefixVerdict {
    /// Nothing to resolve.
    Keep,
    /// Release the source: the client's replica is up (its owner), or the
    /// session, the movie or the coordinatorship is gone ([`UNSERVED`]).
    Release(NodeId),
    /// Still parked, and a prefix-fed client no longer re-OPENs on its
    /// own: retry the admission on its behalf and release to the owner
    /// that yields, or else to `otherwise` (the source evicted the
    /// prefix).
    Retry {
        /// The parked record to admit.
        parked: ClientRecord,
        /// Whom to release to when the admission finds no room.
        otherwise: Option<NodeId>,
    },
}

/// One movie's hysteresis: the replica set it was last judged at, its hot
/// and cold streaks and the ticks left before it may move again.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Hysteresis {
    /// Reporters at the last judgement (`None`: never judged).
    replicas: Option<u32>,
    hot: u32,
    cold: u32,
    cooldown: u32,
}

/// One server's picture of the fleet's demand and everything the replica
/// manager and the prefix tier decide from it.
///
/// | kind | bring-up | retire |
/// |---|---|---|
/// | `Reactive` | a full hot streak | a full cold streak |
/// | `Predictive` | the forecast surges (no streak: the machine's own dynamics are the damping) | a full cold streak *and* a cold forecast |
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Placement {
    kind: PolicyKind,
    /// The latest server-group view: the live servers.
    servers: View,
    /// Latest demand report per live server: movie -> (sessions, waiting).
    demand: BTreeMap<NodeId, BTreeMap<MovieId, (u32, u32)>>,
    /// Sessions reported per live server at the last tick (none reported
    /// = idle): what both elections and the prefix routing rank by.
    load: BTreeMap<NodeId, u32>,
    hysteresis: BTreeMap<MovieId, Hysteresis>,
    /// Per-movie popularity machines, fed from the aggregated demand every
    /// tick and seeded identically on every server.
    forecasts: BTreeMap<MovieId, MovieForecast>,
    /// Replicas this server is copying onto its disk farm, with the peers
    /// to join. Advertised in the reports as sessionless holders, so the
    /// fleet does not pile further bring-ups onto the movie meanwhile.
    pending_bringups: BTreeMap<MovieId, Vec<NodeId>>,
    /// Recent client OPENs for movies this server does not hold: a movie
    /// with waiting viewers but no live holder is re-created from the
    /// catalog instead of waiting out the crashed holder's restart.
    orphan_opens: BTreeMap<MovieId, BTreeMap<ClientId, SimTime>>,
    /// Movies whose prefix this server caches, advertised in its reports.
    prefix_cache: BTreeSet<MovieId>,
    /// Which movies each live server advertises a prefix of.
    prefix_sources: BTreeMap<NodeId, BTreeSet<MovieId>>,
    /// Waiting clients this server, as their movie's coordinator, has
    /// routed to a prefix source, and where.
    prefix_assignments: BTreeMap<ClientId, (NodeId, MovieId)>,
}

impl Placement {
    /// A table that has heard nothing yet, deciding by `kind`.
    pub fn new(kind: PolicyKind) -> Self {
        Placement {
            kind,
            servers: View::default(),
            demand: BTreeMap::new(),
            load: BTreeMap::new(),
            hysteresis: BTreeMap::new(),
            forecasts: BTreeMap::new(),
            pending_bringups: BTreeMap::new(),
            orphan_opens: BTreeMap::new(),
            prefix_cache: BTreeSet::new(),
            prefix_sources: BTreeMap::new(),
            prefix_assignments: BTreeMap::new(),
        }
    }

    /// The forecast machine of `movie`, if a tick has ever fed it.
    pub fn forecast(&self, movie: MovieId) -> Option<&MovieForecast> {
        self.forecasts.get(&movie)
    }

    /// Movies whose prefix this server caches.
    pub fn prefix_cache(&self) -> &BTreeSet<MovieId> {
        &self.prefix_cache
    }

    /// Files `server`'s demand report and prefix advertisement over its
    /// previous one.
    pub fn file_report(&mut self, server: NodeId, entries: &[DemandEntry], prefixes: &[MovieId]) {
        let entries = entries.iter().map(|e| (e.movie, (e.sessions, e.waiting)));
        self.demand.insert(server, entries.collect());
        self.prefix_sources
            .insert(server, prefixes.iter().copied().collect());
    }

    /// Keeps the new server-group view and drops the reports of servers
    /// that left it, so they cannot skew decisions.
    pub fn install_server_view(&mut self, servers: View) {
        self.demand.retain(|server, _| servers.contains(*server));
        self.prefix_sources
            .retain(|server, _| servers.contains(*server));
        self.servers = servers;
    }

    /// Notes `client`'s OPEN for `movie`, which this server does not hold.
    pub fn note_orphan_open(&mut self, movie: MovieId, client: ClientId, now: SimTime) {
        self.orphan_opens
            .entry(movie)
            .or_default()
            .insert(client, now);
    }

    /// This server's report to the server group: per held movie the
    /// sessions it owns and the clients parked as [`UNSERVED`], a
    /// sessionless entry per copy in flight, and the prefixes it caches.
    pub fn report(&self, me: NodeId, held: &Holdings<'_>) -> ControlPayload {
        let held_entries = held.iter().map(|(&movie, table)| DemandEntry {
            movie,
            sessions: table.owned_by(me) as u32,
            waiting: table.owned_by(UNSERVED) as u32,
        });
        let copying = self.pending_bringups.keys();
        let copying = copying
            .filter(|m| !held.contains_key(m))
            .map(|&movie| DemandEntry {
                movie,
                sessions: 0,
                waiting: 0,
            });
        ControlPayload::Demand {
            server: me,
            entries: held_entries.chain(copying).collect(),
            prefixes: self.prefix_cache.iter().copied().collect(),
        }
    }

    /// One sync tick of the replica manager, in one pass: rank the live
    /// servers by their reported sessions, age the cooldowns, aggregate the
    /// reports of the live servers (sessions sum across holders; the
    /// waiting backlog is shared record state, so it is the max; holders
    /// are the reporters), and per movie feed its forecast, judge it and
    /// run the election. Returns what *this* server was elected to do, in
    /// movie order with the rescues last.
    ///
    /// A movie whose replica count changed (or that is judged for the first
    /// time) restarts its streaks and cools down for [`COOLDOWN_TICKS`]; so
    /// does one this server acts on. A bring-up goes to the least-loaded
    /// live non-holder, ties to the lowest id. A retire goes to the highest
    /// id of the movie group's view — view-synchronous, so unlike the
    /// eventually consistent reports it cannot crown two candidates — and
    /// only while that view is above [`MIN_REPLICAS`]: at most one member
    /// leaves per view. A movie with live orphan OPENs and no reporter is
    /// rescued by the least-loaded live server. An elected server that
    /// cannot copy the movie (not in `catalog`, or already held or on its
    /// way) declines, which leaves streak, cooldown and orphan OPENs as
    /// they were.
    pub fn tick<M>(
        &mut self,
        me: NodeId,
        now: SimTime,
        held: &Holdings<'_>,
        catalog: &BTreeMap<MovieId, M>,
    ) -> Vec<Decision> {
        let sessions_of = |n: &NodeId| self.demand.get(n).into_iter().flatten().map(|(_, d)| d.0);
        let members = self.servers.members.iter();
        self.load = members
            .map(|n| (*n, sessions_of(n).fold(0, u32::saturating_add)))
            .collect();
        for movie in self.hysteresis.values_mut() {
            movie.cooldown = movie.cooldown.saturating_sub(1);
        }
        let mut decisions = Vec::new();
        let live = self.servers.len() as u32;
        if live <= 1 || !self.servers.contains(me) {
            return decisions; // nowhere to replicate to, or not a member yet
        }
        let mut agg: BTreeMap<MovieId, (u32, u32, BTreeSet<NodeId>)> = BTreeMap::new();
        for (&server, entries) in &self.demand {
            if !self.servers.contains(server) {
                continue;
            }
            for (&movie, &(sessions, waiting)) in entries {
                let entry = agg.entry(movie).or_default();
                entry.0 = entry.0.saturating_add(sessions);
                entry.1 = entry.1.max(waiting);
                entry.2.insert(server);
            }
        }
        let can_copy = |pending: &BTreeMap<MovieId, Vec<NodeId>>, movie| {
            catalog.contains_key(&movie)
                && !held.contains_key(&movie)
                && !pending.contains_key(&movie)
        };
        for (&movie, &(sessions, waiting, ref holders)) in &agg {
            let (demand, replicas) = (sessions.saturating_add(waiting), holders.len() as u32);
            // Every movie's machine is fed, also under the reactive rule:
            // the annotations and the prefix cache read its state.
            let forecast = self.forecasts.entry(movie);
            let forecast =
                forecast.or_insert_with(|| MovieForecast::seeded(FORECAST_STREAM, movie));
            forecast.observe(demand, replicas);
            let h = self.hysteresis.entry(movie).or_default();
            if h.replicas.replace(replicas) != Some(replicas) {
                // The replica set changed: hold off while the
                // redistribution settles.
                (h.hot, h.cold, h.cooldown) = (0, 0, COOLDOWN_TICKS);
                continue;
            }
            if h.cooldown > 0 {
                continue;
            }
            let can_grow = replicas < MAX_REPLICAS && replicas < live;
            let spare = replicas > MIN_REPLICAS
                && waiting == 0
                && sessions <= COLD_SESSIONS_PER_REPLICA.saturating_mul(replicas - 1);
            let (up, trigger, cold) = match self.kind {
                PolicyKind::Reactive => (
                    demand > HOT_SESSIONS_PER_REPLICA.saturating_mul(replicas),
                    BringUpTrigger::ReactiveStreak,
                    spare,
                ),
                PolicyKind::Predictive => (
                    forecast.surges(replicas),
                    BringUpTrigger::Forecast,
                    spare && forecast.state() == PopState::Cold,
                ),
            };
            let up = up && can_grow;
            h.hot = if up { h.hot + 1 } else { 0 };
            h.cold = if cold { h.cold + 1 } else { 0 };
            let mut note = Note {
                movie,
                demand,
                replicas: replicas + 1,
                policy: self.kind,
                forecast: forecast.state(),
            };
            if up && (self.kind == PolicyKind::Predictive || h.hot >= HYSTERESIS_TICKS) {
                let candidates = self.servers.members.iter().copied();
                let candidates = candidates.filter(|n| !holders.contains(n));
                if least_loaded(candidates, &self.load) != Some(me)
                    || !can_copy(&self.pending_bringups, movie)
                {
                    continue;
                }
                let peers = holders.iter().copied().collect();
                self.pending_bringups.insert(movie, peers);
                (h.hot, h.cooldown) = (0, COOLDOWN_TICKS);
                decisions.push(Decision::BringUp(note, trigger));
            } else if cold && h.cold >= HYSTERESIS_TICKS {
                let view = held.get(&movie).map(|table| table.view());
                let above_floor = view.filter(|view| view.len() as u32 > MIN_REPLICAS);
                if above_floor.and_then(|view| view.members.last()) != Some(&me) {
                    continue;
                }
                if let Some(own) = self.demand.get_mut(&me) {
                    own.remove(&movie);
                }
                (h.cold, h.cooldown) = (0, COOLDOWN_TICKS);
                (note.demand, note.replicas) = (sessions, replicas - 1);
                decisions.push(Decision::Retire(note));
            }
        }
        // Orphan rescue: a movie with waiting viewers but no live holder
        // cannot wait out the hot/cold hysteresis — nobody is left to
        // report demand for it. Every OPEN is multicast to the whole
        // server group, so all live servers observe the same orphans and
        // run the same election.
        self.orphan_opens.retain(|movie, clients| {
            clients.retain(|_, at| now.saturating_since(*at) < ORPHAN_OPEN_TTL);
            !clients.is_empty() && !agg.contains_key(movie) && !held.contains_key(movie)
        });
        if least_loaded(self.servers.members.iter().copied(), &self.load) == Some(me) {
            let orphans = self.orphan_opens.keys().copied();
            let orphans: Vec<MovieId> = orphans
                .filter(|&movie| can_copy(&self.pending_bringups, movie))
                .collect();
            for movie in orphans {
                let waiting = self.orphan_opens.remove(&movie).map_or(0, |c| c.len());
                let note = Note {
                    movie,
                    demand: waiting as u32,
                    replicas: 1,
                    policy: self.kind,
                    forecast: self
                        .forecast(movie)
                        .map_or(PopState::Cold, MovieForecast::state),
                };
                self.pending_bringups.insert(movie, Vec::new());
                let h = self.hysteresis.entry(movie).or_default();
                (h.hot, h.cooldown) = (0, COOLDOWN_TICKS);
                decisions.push(Decision::BringUp(note, BringUpTrigger::OrphanRescue));
            }
        }
        decisions
    }

    /// The copy of `movie` is there: the peers to join its group through,
    /// or `None` when no copy was under way.
    pub fn copy_landed(&mut self, movie: MovieId) -> Option<Vec<NodeId>> {
        self.pending_bringups.remove(&movie)
    }

    /// Recomputes the prefix cache from the forecasts: the hottest
    /// warming/hot movies of `catalog` this server does *not* replicate,
    /// up to `budget`, ties to the lower movie id on every server
    /// identically. Cooling movies fall out of the ranking, so eviction is
    /// LRU-by-forecast rather than by access time.
    pub fn refresh_prefix_cache<M>(
        &mut self,
        budget: u32,
        held: &Holdings<'_>,
        catalog: &BTreeMap<MovieId, M>,
    ) {
        let unheld = catalog.keys().filter(|m| !held.contains_key(m));
        let mut ranked: Vec<(Reverse<u64>, MovieId)> = unheld
            .filter_map(|&m| Some((m, self.forecasts.get(&m)?)))
            .filter(|(_, f)| matches!(f.state(), PopState::Warming | PopState::Hot))
            .map(|(m, f)| (Reverse(f.heat()), m))
            .collect();
        ranked.sort();
        let hottest = ranked.into_iter().take(budget as usize);
        self.prefix_cache = hottest.map(|(_, m)| m).collect();
    }

    /// The clients this server has routed to a prefix source, each with
    /// its movie.
    pub fn prefix_assignments(&self) -> Vec<(ClientId, MovieId)> {
        let assigned = self.prefix_assignments.iter();
        assigned
            .map(|(&client, &(_, movie))| (client, movie))
            .collect()
    }

    /// What to do about `client`'s prefix assignment, given the table of
    /// its movie (`None`: this server retired it and no longer
    /// coordinates; whoever does re-routes the client if it still waits).
    pub fn prefix_verdict(
        &self,
        me: NodeId,
        client: ClientId,
        table: Option<&TakeoverTable>,
    ) -> PrefixVerdict {
        let Some(&(source, movie)) = self.prefix_assignments.get(&client) else {
            return PrefixVerdict::Keep;
        };
        let Some(table) = table else {
            return PrefixVerdict::Release(UNSERVED);
        };
        let coordinating = table.view().coordinator_candidate() == Some(me);
        match table.get(client) {
            // Session gone (stop, crash, end of movie).
            None => PrefixVerdict::Release(UNSERVED),
            // The replica is up and owns the client: hand off. So does a
            // coordinatorship that moved (typically to the freshly joined
            // replica): assignments are coordinator-local state, so
            // release the source rather than orphan a transmission nobody
            // tracks any more.
            Some(record) if record.owner != UNSERVED || !coordinating => {
                PrefixVerdict::Release(record.owner)
            }
            Some(&parked) => {
                let sources = self.prefix_sources.get(&source);
                let advertised = sources.is_some_and(|movies| movies.contains(&movie));
                PrefixVerdict::Retry {
                    parked,
                    otherwise: (!advertised).then_some(UNSERVED),
                }
            }
        }
    }

    /// Drops `client`'s prefix assignment: the release to multicast, which
    /// tells the source where the client's session landed.
    pub fn release_prefix(&mut self, client: ClientId, owner: NodeId) -> Option<ControlPayload> {
        let (target, movie) = self.prefix_assignments.remove(&client)?;
        Some(ControlPayload::PrefixRelease {
            target,
            client,
            movie,
            owner,
        })
    }

    /// Routes the clients still parked in the movie groups this server
    /// coordinates to the least-loaded live server that advertises a
    /// prefix of their movie and does not hold it, ranked by the last
    /// tick's load; every assignment counts as one more session on its
    /// source. Returns the assignments to multicast.
    pub fn route_prefixes(&mut self, me: NodeId, held: &Holdings<'_>) -> Vec<ControlPayload> {
        let mut load = self.load.clone();
        for &(source, _) in self.prefix_assignments.values() {
            let sessions = load.entry(source).or_insert(0);
            *sessions = sessions.saturating_add(1);
        }
        let mut assigned = Vec::new();
        for (&movie, table) in held {
            let view = table.view();
            if view.coordinator_candidate() != Some(me) {
                continue;
            }
            for record in table.records().filter(|r| r.owner == UNSERVED) {
                if self.prefix_assignments.contains_key(&record.client) {
                    continue;
                }
                let sources = self.prefix_sources.iter().filter(|(n, movies)| {
                    self.servers.contains(**n) && !view.contains(**n) && movies.contains(&movie)
                });
                let Some(target) = least_loaded(sources.map(|(&n, _)| n), &load) else {
                    continue;
                };
                let sessions = load.entry(target).or_insert(0);
                *sessions = sessions.saturating_add(1);
                self.prefix_assignments
                    .insert(record.client, (target, movie));
                let record = *record;
                assigned.push(ControlPayload::PrefixAssign { target, record });
            }
        }
        assigned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ReplicationConfig, VodConfig};
    use crate::protocol::session_group;
    use crate::server::takeover::{Cx, Input};
    use gcs::ViewId;
    use media::{FrameNo, GopPattern};
    use simnet::VecMap;

    const TICK: Duration = Duration::from_millis(500);

    fn view(members: &[u32]) -> View {
        let members: Vec<NodeId> = members.iter().copied().map(NodeId).collect();
        let id = ViewId {
            epoch: 1,
            coordinator: members[0],
        };
        View::new(id, members)
    }

    fn cfg() -> VodConfig {
        VodConfig::paper_default()
            .with_dynamic_replication(ReplicationConfig::paper_default())
            .with_placement(PolicyKind::Predictive)
    }

    fn entry(movie: u32, sessions: u32) -> DemandEntry {
        DemandEntry {
            movie: MovieId(movie),
            sessions,
            waiting: 0,
        }
    }

    /// Movie 1's table on its coordinator n1, one record per owner: the
    /// view installed, then n1's report.
    fn table(members: &[u32], owners: &[NodeId]) -> TakeoverTable {
        let records = owners.iter().zip(0..).map(|(&owner, c)| ClientRecord {
            client: ClientId(c),
            client_node: NodeId(100 + c),
            session_group: session_group(ClientId(c)),
            movie: MovieId(1),
            next_frame: FrameNo(0),
            rate_fps: 30,
            max_fps: 30,
            owner,
            assigned_epoch: 1,
            updated_at: SimTime::ZERO,
            paused: false,
        });
        let (cfg, gop, sessions) = (
            cfg(),
            GopPattern::mpeg1(),
            VecMap::<ClientId, ClientRecord>::new(),
        );
        let cx = Cx {
            me: NodeId(1),
            now: SimTime::ZERO,
            cfg: &cfg,
            movie: MovieId(1),
            gop: &gop,
            fps: 30,
            sessions: &sessions,
        };
        let (from, epoch, records) = (NodeId(1), 1, records.collect());
        let mut table = TakeoverTable::default();
        for input in [
            Input::View(view(members)),
            Input::Report {
                from,
                epoch,
                records,
            },
        ] {
            table.step(&cx, input, &mut Vec::new());
        }
        table
    }

    #[test]
    fn a_departed_servers_report_and_advertisement_are_dropped() {
        let mut p = Placement::new(PolicyKind::Reactive);
        for server in 1..=3 {
            p.file_report(NodeId(server), &[entry(1, server)], &[MovieId(2)]);
        }
        p.install_server_view(view(&[1, 3]));
        let left: Vec<NodeId> = p.demand.keys().copied().collect();
        assert_eq!(left, [NodeId(1), NodeId(3)]);
        assert_eq!(left, p.prefix_sources.keys().copied().collect::<Vec<_>>());
    }

    #[test]
    fn an_orphan_open_counts_for_five_seconds() {
        let catalog = BTreeMap::from([(MovieId(1), ())]);
        let mut p = Placement::new(PolicyKind::Reactive);
        p.install_server_view(view(&[1, 2]));
        // n1 is idle, so n2 — this server — never rescues; it only keeps
        // the OPEN while it is fresh.
        p.file_report(NodeId(2), &[entry(2, 1)], &[]);
        p.note_orphan_open(MovieId(1), ClientId(7), SimTime::ZERO);
        let mut tick = |at: Duration| {
            let now = SimTime::ZERO + at;
            p.tick(NodeId(2), now, &Holdings::new(), &catalog);
            p.orphan_opens.contains_key(&MovieId(1))
        };
        assert!(tick(ORPHAN_OPEN_TTL - TICK));
        assert!(!tick(ORPHAN_OPEN_TTL));
    }

    #[test]
    fn the_prefix_cache_takes_the_hottest_unheld_movies_up_to_its_budget() {
        let catalog: BTreeMap<MovieId, ()> = (1..=5).map(|m| (MovieId(m), ())).collect();
        let mut p = Placement::new(PolicyKind::Predictive);
        p.install_server_view(view(&[1, 2]));
        // Hot: movies 1 (40), 2 (60) and 3 (20); movie 4 idles; 5 unseen.
        let demand = [entry(1, 40), entry(2, 60), entry(3, 20), entry(4, 0)];
        p.file_report(NodeId(1), &demand, &[]);
        p.tick(NodeId(2), SimTime::ZERO, &Holdings::new(), &catalog);
        let cached = |p: &mut Placement, budget, held: &Holdings<'_>| {
            p.refresh_prefix_cache(budget, held, &catalog);
            p.prefix_cache().iter().map(|m| m.0).collect::<Vec<_>>()
        };
        assert_eq!(cached(&mut p, 4, &Holdings::new()), [1, 2, 3]);
        assert_eq!(cached(&mut p, 2, &Holdings::new()), [1, 2]);
        let held = table(&[1, 2], &[]);
        assert_eq!(
            cached(&mut p, 2, &Holdings::from([(MovieId(2), &held)])),
            [1, 3]
        );
        assert_eq!(cached(&mut p, 0, &Holdings::new()), [] as [u32; 0]);
    }

    #[test]
    fn a_prefix_assignment_is_routed_resolved_and_released_once() {
        let (me, n2, n3, n4) = (NodeId(1), NodeId(2), NodeId(3), NodeId(4));
        let mut p = Placement::new(PolicyKind::Predictive);
        p.install_server_view(view(&[1, 2, 3, 4]));
        // n2 holds movie 1 too; n3 (2 sessions) and n4 (idle) advertise its
        // prefix; n5 does as well but is not live.
        p.file_report(me, &[entry(1, 3)], &[]);
        p.file_report(n2, &[entry(1, 3)], &[MovieId(1)]);
        p.file_report(n3, &[entry(2, 2)], &[MovieId(1)]);
        p.file_report(n4, &[], &[MovieId(1)]);
        p.file_report(NodeId(5), &[], &[MovieId(1)]);
        let parked = table(&[1, 2], &[me, UNSERVED, UNSERVED, UNSERVED]);
        let held = Holdings::from([(MovieId(1), &parked)]);
        p.tick(me, SimTime::ZERO, &held, &BTreeMap::<_, ()>::new());
        let routed = p.route_prefixes(me, &held);
        let targets: Vec<(u32, NodeId)> = routed
            .iter()
            .map(|assign| match assign {
                ControlPayload::PrefixAssign { target, record } => (record.client.0, *target),
                other => panic!("{other:?}"),
            })
            .collect();
        // Each assignment is a session on its source: n4 takes two before
        // it ties with n3, and the tie goes to the lower id.
        assert_eq!(targets, [(1, n4), (2, n4), (3, n3)]);
        assert_eq!(p.route_prefixes(me, &held), [], "routed once");
        let verdict = |p: &Placement, client, table| p.prefix_verdict(me, ClientId(client), table);
        // Still parked and still advertised: retry, else keep.
        let retry = PrefixVerdict::Retry {
            parked: *parked.get(ClientId(1)).expect("parked"),
            otherwise: None,
        };
        assert_eq!(verdict(&p, 1, Some(&parked)), retry);
        assert_eq!(
            verdict(&p, 0, Some(&parked)),
            PrefixVerdict::Keep,
            "never routed"
        );
        // Placed, gone, coordinatorship moved, movie retired: release.
        let placed = table(&[1, 2], &[me, n2]);
        assert_eq!(verdict(&p, 1, Some(&placed)), PrefixVerdict::Release(n2));
        assert_eq!(
            verdict(&p, 2, Some(&placed)),
            PrefixVerdict::Release(UNSERVED)
        );
        let moved = table(&[0, 1, 2], &[me, UNSERVED]);
        assert_eq!(
            verdict(&p, 1, Some(&moved)),
            PrefixVerdict::Release(UNSERVED)
        );
        assert_eq!(verdict(&p, 1, None), PrefixVerdict::Release(UNSERVED));
        // The source evicted the prefix: retry, else release to nobody.
        p.file_report(n3, &[entry(2, 2)], &[]);
        let evicted = PrefixVerdict::Retry {
            parked: *parked.get(ClientId(3)).expect("parked"),
            otherwise: Some(UNSERVED),
        };
        assert_eq!(verdict(&p, 3, Some(&parked)), evicted);
        let release = ControlPayload::PrefixRelease {
            target: n3,
            client: ClientId(3),
            movie: MovieId(1),
            owner: UNSERVED,
        };
        assert_eq!(p.release_prefix(ClientId(3), UNSERVED), Some(release));
        assert_eq!(p.release_prefix(ClientId(3), UNSERVED), None);
    }

    /// Ticks a fresh table of `kind` as `me` in a server view of n1–n4
    /// for twelve sync ticks, movie 1 reported by each of `holders` — the
    /// first with `demand(t)`'s sessions, all with its waiting clients —
    /// and held by `me` in a view of `holders` when it is one of them.
    /// The replica set never moves: a copy `me` starts lands at once but
    /// is never reported, and `me` keeps reporting a replica it retired.
    /// Each decision with the tick (from 1) it was made on.
    fn decided(
        kind: PolicyKind,
        me: u32,
        holders: &[u32],
        demand: impl Fn(u32) -> (u32, u32),
    ) -> Vec<(u32, Decision)> {
        let (catalog, views) = (BTreeMap::from([(MovieId(1), ())]), table(holders, &[]));
        let held = match holders.contains(&me) {
            true => Holdings::from([(MovieId(1), &views)]),
            false => Holdings::new(),
        };
        let mut p = Placement::new(kind);
        p.install_server_view(view(&[1, 2, 3, 4]));
        let mut decided = Vec::new();
        for t in 1..=12 {
            let (sessions, waiting) = demand(t);
            for (&server, sessions) in holders.iter().zip([sessions].into_iter().chain([0; 4])) {
                let report = DemandEntry {
                    movie: MovieId(1),
                    sessions,
                    waiting,
                };
                p.file_report(NodeId(server), &[report], &[]);
            }
            let now = SimTime::ZERO + TICK * t;
            let decisions = p.tick(NodeId(me), now, &held, &catalog);
            decided.extend(decisions.into_iter().map(|d| (t, d)));
            p.copy_landed(MovieId(1));
        }
        decided
    }

    /// The ticks `decided` acted on.
    fn ticks(decided: &[(u32, Decision)]) -> Vec<u32> {
        decided.iter().map(|&(t, _)| t).collect()
    }

    /// The reactive rule: a movie first judged (or just moved) waits out
    /// the cooldown and then a full hot streak — [`COOLDOWN_TICKS`] ticks
    /// of cooldown and [`HYSTERESIS_TICKS`] hot ones, the first of them
    /// shared — before the bring-up, and the bring-up starts the cooldown
    /// again.
    #[test]
    fn a_reactive_bring_up_waits_out_the_cooldown_and_a_full_streak() {
        let hot = decided(PolicyKind::Reactive, 2, &[1], |_| (12, 0));
        let first = COOLDOWN_TICKS + HYSTERESIS_TICKS;
        assert_eq!(ticks(&hot), [first, 2 * first - 1]);
        let [(_, Decision::BringUp(note, trigger)), _] = hot[..] else {
            panic!("{hot:?}");
        };
        assert_eq!(trigger, BringUpTrigger::ReactiveStreak);
        assert_eq!((note.demand, note.replicas), (12, 2));
    }

    /// Exactly at the hot threshold (demand == hot × replicas) is not hot,
    /// one above is, waiting clients count; exactly at the cold threshold
    /// (sessions == cold × (replicas − 1)) is cold on a movie above the
    /// floor of two, one above is not, and one waiting client vetoes it.
    #[test]
    fn the_reactive_hot_and_cold_boundaries_and_the_waiting_veto() {
        let fired = [
            COOLDOWN_TICKS + HYSTERESIS_TICKS,
            2 * (COOLDOWN_TICKS + HYSTERESIS_TICKS) - 1,
        ];
        let up = |sessions, waiting| {
            ticks(&decided(PolicyKind::Reactive, 2, &[1], |_| {
                (sessions, waiting)
            }))
        };
        assert_eq!(up(HOT_SESSIONS_PER_REPLICA, 0), []);
        assert_eq!(up(HOT_SESSIONS_PER_REPLICA + 1, 0), fired);
        assert_eq!(up(HOT_SESSIONS_PER_REPLICA - 4, 5), fired);
        let down = |sessions, waiting| {
            let decided = decided(PolicyKind::Reactive, 3, &[1, 2, 3], |_| (sessions, waiting));
            let retires = decided
                .iter()
                .all(|(_, d)| matches!(d, Decision::Retire(_)));
            assert!(retires, "{decided:?}");
            ticks(&decided)
        };
        let cold_at = COLD_SESSIONS_PER_REPLICA * 2;
        assert_eq!(down(cold_at, 0), fired);
        assert_eq!(down(cold_at + 1, 0), []);
        assert_eq!(down(cold_at, 1), []);
    }

    /// Tick 1 of a flash crowd after a quiet spell: demand jumps over the
    /// threshold, the machine goes hot and the predictive rule brings a
    /// replica up on that same tick, where the reactive rule is still
    /// building its streak.
    #[test]
    fn the_predictive_rule_brings_up_on_the_tick_the_machine_goes_hot() {
        let quiet = COOLDOWN_TICKS + 1;
        let crowd = |sessions, waiting| {
            move |t| {
                if t > quiet {
                    (sessions, waiting)
                } else {
                    (0, 0)
                }
            }
        };
        for (sessions, waiting) in [(12, 0), (4, 8)] {
            let first = |kind| decided(kind, 2, &[1], crowd(sessions, waiting))[0];
            let (t, Decision::BringUp(note, trigger)) = first(PolicyKind::Predictive) else {
                panic!("a bring-up");
            };
            assert_eq!((t, trigger), (quiet + 1, BringUpTrigger::Forecast));
            assert_eq!(note.forecast, PopState::Hot);
            let (t, Decision::BringUp(_, trigger)) = first(PolicyKind::Reactive) else {
                panic!("a bring-up");
            };
            assert_eq!((t, trigger), (quiet + 2, BringUpTrigger::ReactiveStreak));
        }
    }

    /// The two retire rules: three idle replicas of a movie whose forecast
    /// is still warming (a trickle that rose from nothing and stays) retire
    /// on the plain cold streak under `Reactive`; `Predictive` waits for
    /// the machine to say *cold* — the trickle stopping — and retires a
    /// full cold streak later.
    #[test]
    fn the_predictive_rule_retires_only_on_a_cold_forecast() {
        let stops = 8;
        let trickle = |t| (u32::from(t > 1 && t < stops), 0);
        let reactive = decided(PolicyKind::Reactive, 3, &[1, 2, 3], trickle);
        let first = COOLDOWN_TICKS + HYSTERESIS_TICKS;
        assert_eq!(ticks(&reactive), [first, 2 * first - 1]);
        let predictive = decided(PolicyKind::Predictive, 3, &[1, 2, 3], trickle);
        let [(t, Decision::Retire(note))] = predictive[..] else {
            panic!("{predictive:?}");
        };
        assert_eq!(
            (t, note.forecast),
            (stops + HYSTERESIS_TICKS - 1, PopState::Cold)
        );
    }

    /// The tick that retires a movie strikes it off this server's own
    /// report at once, so a tick before the next report is filed does not
    /// count this server as a holder any more.
    #[test]
    fn a_retire_strikes_the_movie_off_this_servers_own_report() {
        let (views, catalog) = (table(&[1, 2, 3], &[]), BTreeMap::<_, ()>::new());
        let held = Holdings::from([(MovieId(1), &views)]);
        let mut p = Placement::new(PolicyKind::Reactive);
        p.install_server_view(view(&[1, 2, 3]));
        p.file_report(NodeId(1), &[entry(1, 0)], &[]);
        p.file_report(NodeId(2), &[entry(1, 0)], &[]);
        p.file_report(NodeId(3), &[entry(1, 2), entry(2, 3)], &[]);
        let retired = (1..=12).find_map(|t| {
            let decisions = p.tick(NodeId(3), SimTime::ZERO + TICK * t, &held, &catalog);
            decisions.first().copied()
        });
        assert!(matches!(retired, Some(Decision::Retire(_))), "{retired:?}");
        assert_eq!(p.demand[&NodeId(3)], BTreeMap::from([(MovieId(2), (3, 0))]));
    }

    /// A movie no tick has fed reads *cold*: the rescue of a movie nobody
    /// reports is annotated with a cold forecast, and it has no machine.
    #[test]
    fn an_unobserved_movie_reads_cold() {
        let mut p = Placement::new(PolicyKind::Predictive);
        p.install_server_view(view(&[1, 2]));
        p.note_orphan_open(MovieId(3), ClientId(7), SimTime::ZERO);
        let catalog = BTreeMap::from([(MovieId(3), ())]);
        let decisions = p.tick(NodeId(1), SimTime::ZERO, &Holdings::new(), &catalog);
        let [Decision::BringUp(note, BringUpTrigger::OrphanRescue)] = decisions[..] else {
            panic!("{decisions:?}");
        };
        assert_eq!(note.forecast, PopState::Cold);
        assert!(p.forecast(MovieId(3)).is_none());
    }
}
