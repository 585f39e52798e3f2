//! Popularity forecasting and pluggable replica-placement policies
//! (DESIGN.md §5h).
//!
//! The PR 2 replica manager is purely *reactive*: it counts demand
//! streaks after the clients have already arrived. This module adds the
//! predictive half, following the Markov-chain replication strategy of
//! the related work: every movie gets a small popularity state machine
//! ([`MovieForecast`]: cold → warming → hot → cooling) fed by the demand
//! shares that already flow over the half-second sync, plus an online
//! estimate of its own transition frequencies seeded deterministically
//! per movie. Placement decisions are one struct, [`PlacementPolicy`],
//! that holds the shared streak/cooldown bookkeeping and one of two
//! [`PolicyKind`]s:
//!
//! * `Reactive` — the original hot/cold hysteresis, bit-for-bit;
//! * `Predictive` — forecast-driven: bring a replica up as soon as the
//!   machine says *hot* (or *warming* with an overload projection and a
//!   warming→hot transition estimate above ½), retire on *cold*.
//!
//! Everything here is integer arithmetic over the shared demand reports,
//! so every server's forecast bank and policy state stay in lockstep —
//! the property the replica manager's deterministic elections rely on.

use std::collections::BTreeMap;

use media::MovieId;
use simnet::SimRng;

use crate::config::{
    COLD_SESSIONS_PER_REPLICA, COOLDOWN_TICKS, HOT_SESSIONS_PER_REPLICA, HYSTERESIS_TICKS,
    MAX_REPLICAS, MIN_REPLICAS,
};

/// Domain-separated seed stream for the forecast transition priors
/// ("FORECAST" in ASCII-ish hex). Every server seeds its bank with the
/// same constant, so the per-movie priors agree fleet-wide.
pub const FORECAST_STREAM: u64 = 0x464f_5245_4341_5354;

/// Fixed-point scale of the demand EWMA and slope estimates.
const FP: i64 = 16;

/// EWMA/slope estimates look this many sync ticks ahead when projecting
/// demand against capacity.
const LOOKAHEAD_TICKS: i64 = 2;

/// Popularity states of the per-movie Markov machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PopState {
    /// No meaningful demand.
    Cold,
    /// Demand present and rising.
    Warming,
    /// Demand above the per-replica hot threshold.
    Hot,
    /// Demand falling back from hot.
    Cooling,
}

impl PopState {
    /// Stable lowercase name (trace/JSON encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            PopState::Cold => "cold",
            PopState::Warming => "warming",
            PopState::Hot => "hot",
            PopState::Cooling => "cooling",
        }
    }

    /// Dense index into the warming row's counts.
    fn index(self) -> usize {
        match self {
            PopState::Cold => 0,
            PopState::Warming => 1,
            PopState::Hot => 2,
            PopState::Cooling => 3,
        }
    }

    /// Ranking weight used by the prefix-cache eviction order: hotter
    /// states rank higher.
    fn rank(self) -> u64 {
        match self {
            PopState::Cold => 0,
            PopState::Cooling => 1,
            PopState::Warming => 2,
            PopState::Hot => 3,
        }
    }
}

/// One movie's popularity state machine plus its online transition
/// estimation.
///
/// The counts of transitions out of warming start from small seeded
/// priors (Laplace smoothing with a deterministic per-movie perturbation)
/// and accumulate every observed one; their warming→hot share is what the
/// predictive policy consults before believing an overload projection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MovieForecast {
    state: PopState,
    /// Demand EWMA, fixed-point ×16.
    ewma: i64,
    /// Demand slope EWMA (per tick), fixed-point ×16.
    slope: i64,
    last_demand: u32,
    observed: bool,
    /// Estimated counts of transitions out of warming, by destination.
    warming: [u64; 4],
}

impl MovieForecast {
    /// A fresh machine with priors drawn from `seed`, perturbed per
    /// `movie` so the draw is independent of the order movies are first
    /// observed in (every server converges to the same bank regardless
    /// of which movie it hears about first).
    pub fn seeded(seed: u64, movie: MovieId) -> Self {
        let mut rng = SimRng::seed_from_u64(
            seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(movie.0) + 1),
        );
        // Discard four draws: the warming priors are the fifth to eighth,
        // the draws every seeded run's output was recorded with.
        for _ in 0..4 {
            rng.gen_u64_below(3);
        }
        // Priors in 1..=3: enough mass that one observation does not
        // dominate, small enough that real transitions quickly reshape the
        // estimate.
        let warming = std::array::from_fn(|_| 1 + rng.gen_u64_below(3));
        MovieForecast {
            state: PopState::Cold,
            ewma: 0,
            slope: 0,
            last_demand: 0,
            observed: false,
            warming,
        }
    }

    /// Current popularity state.
    pub fn state(&self) -> PopState {
        self.state
    }

    /// Feeds one sync tick's aggregate demand (`sessions + waiting`) for
    /// the movie at its current replica count and returns the new state.
    pub fn observe(&mut self, demand: u32, replicas: u32) -> PopState {
        let d = i64::from(demand);
        let delta = if self.observed {
            d - i64::from(self.last_demand)
        } else {
            0
        };
        // EWMA α = 1/4 for the level, 1/2 for the slope: the slope must
        // react within a tick or two of a flash crowd, the level smooths
        // admission noise.
        self.ewma = (3 * self.ewma + FP * d) / 4;
        self.slope = (self.slope + FP * delta) / 2;
        self.last_demand = demand;
        self.observed = true;

        let hot_threshold = i64::from(HOT_SESSIONS_PER_REPLICA) * i64::from(replicas.max(1));
        let over_now = d > hot_threshold;
        let low =
            demand == 0 || d <= i64::from(COLD_SESSIONS_PER_REPLICA) * i64::from(replicas.max(1));
        let next = match self.state {
            PopState::Cold => {
                if over_now {
                    PopState::Hot
                } else if demand > 0 && self.slope > 0 {
                    PopState::Warming
                } else {
                    PopState::Cold
                }
            }
            PopState::Warming => {
                if over_now {
                    PopState::Hot
                } else if demand == 0 && self.slope <= 0 {
                    PopState::Cold
                } else if self.slope < 0 {
                    PopState::Cooling
                } else {
                    PopState::Warming
                }
            }
            PopState::Hot => {
                if !over_now && self.slope < 0 {
                    PopState::Cooling
                } else {
                    PopState::Hot
                }
            }
            PopState::Cooling => {
                if over_now {
                    PopState::Hot
                } else if low && self.slope <= 0 {
                    PopState::Cold
                } else if self.slope > 0 {
                    PopState::Warming
                } else {
                    PopState::Cooling
                }
            }
        };
        if self.state == PopState::Warming {
            self.warming[next.index()] += 1;
        }
        self.state = next;
        next
    }

    /// Whether demand projected two sync ticks ahead along the slope
    /// EWMA exceeds the hot threshold at the current replica count.
    pub fn predicts_overload(&self, replicas: u32) -> bool {
        let hot_threshold = i64::from(HOT_SESSIONS_PER_REPLICA) * i64::from(replicas.max(1));
        let projected = FP * i64::from(self.last_demand) + LOOKAHEAD_TICKS * self.slope;
        projected > FP * hot_threshold
    }

    /// Whether the estimated warming→hot transition probability is at
    /// least ½ — the Markov-estimation gate on acting from *warming*
    /// alone. Seeded priors put fresh movies near the boundary; every
    /// observed warming tick that does (or does not) go hot moves it.
    pub fn hot_affinity(&self) -> bool {
        let total: u64 = self.warming.iter().sum();
        2 * self.warming[PopState::Hot.index()] >= total
    }

    /// Eviction key of the prefix cache: hotter state first, then the
    /// demand EWMA. Strictly increasing in attractiveness.
    pub fn heat(&self) -> u64 {
        (self.state.rank() << 32) | (self.ewma.max(0) as u64).min(u64::from(u32::MAX))
    }
}

/// The per-movie forecast machines of one server, all derived from one
/// seed so identical demand streams produce identical banks fleet-wide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForecastBank {
    seed: u64,
    movies: BTreeMap<MovieId, MovieForecast>,
}

impl ForecastBank {
    /// An empty bank; per-movie machines are created on first
    /// observation with priors derived from `seed`.
    pub fn new(seed: u64) -> Self {
        ForecastBank {
            seed,
            movies: BTreeMap::new(),
        }
    }

    /// Feeds one movie's aggregate demand for this tick; returns the new
    /// state.
    pub fn observe(&mut self, movie: MovieId, demand: u32, replicas: u32) -> PopState {
        let seed = self.seed;
        self.movies
            .entry(movie)
            .or_insert_with(|| MovieForecast::seeded(seed, movie))
            .observe(demand, replicas)
    }

    /// The machine for `movie`, if it has ever been observed.
    pub fn get(&self, movie: MovieId) -> Option<&MovieForecast> {
        self.movies.get(&movie)
    }

    /// The state for `movie` (`Cold` when never observed).
    pub fn state(&self, movie: MovieId) -> PopState {
        self.movies
            .get(&movie)
            .map_or(PopState::Cold, MovieForecast::state)
    }
}

/// Which placement policy a server runs (config + trace annotation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// The PR 2 hot/cold hysteresis.
    #[default]
    Reactive,
    /// Forecast-driven pre-emptive bring-up.
    Predictive,
}

impl PolicyKind {
    /// Stable lowercase name (trace/JSON/CLI encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyKind::Reactive => "reactive",
            PolicyKind::Predictive => "predictive",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "reactive" => Ok(PolicyKind::Reactive),
            "predictive" => Ok(PolicyKind::Predictive),
            other => Err(format!("unknown policy {other} (reactive | predictive)")),
        }
    }
}

/// What tripped a replica bring-up (trace annotation and the RunReport
/// trigger breakdown).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BringUpTrigger {
    /// The reactive hot streak reached the hysteresis bound.
    ReactiveStreak,
    /// The popularity forecast pre-empted the streak.
    Forecast,
    /// A movie with waiting viewers had no live holder at all.
    OrphanRescue,
}

impl BringUpTrigger {
    /// Stable name (trace/JSON encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            BringUpTrigger::ReactiveStreak => "reactive-streak",
            BringUpTrigger::Forecast => "forecast",
            BringUpTrigger::OrphanRescue => "orphan-rescue",
        }
    }
}

/// A policy's verdict for one movie on one sync tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementAction {
    /// Leave the replica set alone.
    Hold,
    /// One more replica should come up (the server runs the election).
    BringUp(BringUpTrigger),
    /// One replica should retire.
    Retire,
}

/// One movie's aggregated demand as seen on a sync tick.
#[derive(Clone, Copy, Debug)]
pub struct MovieObservation {
    /// The movie.
    pub movie: MovieId,
    /// Sessions currently served, summed across live holders.
    pub sessions: u32,
    /// Waiting (admission-parked) clients, max across holders.
    pub waiting: u32,
    /// Live holders of the movie.
    pub replicas: u32,
    /// Live servers in the server group.
    pub live: u32,
}

impl MovieObservation {
    fn demand(&self) -> u32 {
        self.sessions.saturating_add(self.waiting)
    }

    /// Room to add a replica under [`MAX_REPLICAS`] and the live set.
    fn can_grow(&self) -> bool {
        self.replicas < MAX_REPLICAS && self.replicas < self.live
    }

    /// The reactive bring-up signal: demand over the per-replica hot
    /// threshold, and room to grow.
    fn hot(&self) -> bool {
        self.demand() > HOT_SESSIONS_PER_REPLICA.saturating_mul(self.replicas) && self.can_grow()
    }

    /// The reactive retire signal: a replica above [`MIN_REPLICAS`],
    /// nobody waiting, and the sessions fit on one replica fewer.
    fn spare(&self) -> bool {
        self.replicas > MIN_REPLICAS
            && self.waiting == 0
            && self.sessions <= COLD_SESSIONS_PER_REPLICA.saturating_mul(self.replicas - 1)
    }
}

/// Whether the forecast machine justifies an immediate bring-up.
fn forecast_surge(f: &MovieForecast, obs: &MovieObservation) -> bool {
    match f.state() {
        PopState::Hot => true,
        PopState::Warming => f.predicts_overload(obs.replicas) && f.hot_affinity(),
        PopState::Cold | PopState::Cooling => false,
    }
}

/// The replica-placement policy: one [`decide`](PlacementPolicy::decide)
/// per aggregated movie per sync tick, under one of two rules
/// ([`PolicyKind`]) over shared hysteresis bookkeeping — streaks,
/// cooldowns and replica-set change detection. The replica manager keeps
/// the elections (who acts); the policy only says *whether* the replica
/// set should move, which keeps it deterministic over the shared demand
/// stream.
///
/// | kind | bring-up | retire |
/// |---|---|---|
/// | `Reactive` | a full hot streak | a full cold streak |
/// | `Predictive` | the forecast surges (no streak: the machine's own dynamics are the damping) | a full cold streak *and* a cold forecast |
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementPolicy {
    kind: PolicyKind,
    hot_streak: BTreeMap<MovieId, u32>,
    cold_streak: BTreeMap<MovieId, u32>,
    cooldown: BTreeMap<MovieId, u32>,
    last_replicas: BTreeMap<MovieId, u32>,
}

impl PlacementPolicy {
    /// A policy of `kind` that has seen nothing yet.
    pub fn new(kind: PolicyKind) -> Self {
        PlacementPolicy {
            kind,
            hot_streak: BTreeMap::new(),
            cold_streak: BTreeMap::new(),
            cooldown: BTreeMap::new(),
            last_replicas: BTreeMap::new(),
        }
    }

    /// Which kind this is (trace annotation).
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Called once per sync tick before any decisions: cooldowns age.
    pub fn begin_tick(&mut self) {
        for ticks in self.cooldown.values_mut() {
            *ticks = ticks.saturating_sub(1);
        }
    }

    /// Replica-set change detection plus the cooldown gate. Returns true
    /// when the movie must be left alone this tick.
    fn settling(&mut self, movie: MovieId, replicas: u32) -> bool {
        if self.last_replicas.insert(movie, replicas) != Some(replicas) {
            // Observed replica-count change (including the first
            // observation): restart hysteresis and hold off further
            // changes while the redistribution settles.
            self.hot_streak.insert(movie, 0);
            self.cold_streak.insert(movie, 0);
            self.cooldown.insert(movie, COOLDOWN_TICKS);
            return true;
        }
        self.cooldown.get(&movie).copied().unwrap_or(0) > 0
    }

    /// The verdict for one movie. `forecast` is the shared bank's machine
    /// for the movie, already fed this tick's demand.
    pub fn decide(&mut self, obs: &MovieObservation, forecast: &MovieForecast) -> PlacementAction {
        if self.settling(obs.movie, obs.replicas) {
            return PlacementAction::Hold;
        }
        let surge = || forecast_surge(forecast, obs) && obs.can_grow();
        let (up, trigger, cold) = match self.kind {
            PolicyKind::Reactive => (obs.hot(), BringUpTrigger::ReactiveStreak, obs.spare()),
            PolicyKind::Predictive => (
                surge(),
                BringUpTrigger::Forecast,
                obs.spare() && forecast.state() == PopState::Cold,
            ),
        };
        let run = |streak: &mut BTreeMap<MovieId, u32>, on: bool| {
            let s = streak.entry(obs.movie).or_insert(0);
            *s = if on { *s + 1 } else { 0 };
            *s
        };
        let (hot_run, cold_run) = (
            run(&mut self.hot_streak, up),
            run(&mut self.cold_streak, cold),
        );
        let streak_ok = self.kind != PolicyKind::Reactive || hot_run >= HYSTERESIS_TICKS;
        if up && streak_ok {
            PlacementAction::BringUp(trigger)
        } else if cold && cold_run >= HYSTERESIS_TICKS {
            PlacementAction::Retire
        } else {
            PlacementAction::Hold
        }
    }

    /// Called when this server won the election and performed `action`
    /// on `movie`: reset the relevant streak and start the cooldown.
    pub fn acted(&mut self, movie: MovieId, action: PlacementAction) {
        match action {
            PlacementAction::BringUp(_) => self.hot_streak.insert(movie, 0),
            PlacementAction::Retire => self.cold_streak.insert(movie, 0),
            PlacementAction::Hold => None,
        };
        self.cooldown.insert(movie, COOLDOWN_TICKS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(movie: u32, sessions: u32, waiting: u32, replicas: u32, live: u32) -> MovieObservation {
        MovieObservation {
            movie: MovieId(movie),
            sessions,
            waiting,
            replicas,
            live,
        }
    }

    #[test]
    fn forecast_walks_cold_warming_hot_cooling_cold() {
        let mut f = MovieForecast::seeded(FORECAST_STREAM, MovieId(1));
        assert_eq!(f.state(), PopState::Cold);
        // Rising demand warms the movie up.
        f.observe(0, 1);
        f.observe(2, 1);
        assert_eq!(f.state(), PopState::Warming);
        // Past the hot threshold (8/replica) it is hot.
        f.observe(12, 1);
        assert_eq!(f.state(), PopState::Hot);
        // Falling below the threshold cools it...
        f.observe(4, 1);
        assert_eq!(f.state(), PopState::Cooling);
        // ...and a drained movie goes cold again.
        f.observe(0, 1);
        f.observe(0, 1);
        assert_eq!(f.state(), PopState::Cold);
    }

    #[test]
    fn overload_projection_fires_before_the_threshold() {
        let mut f = MovieForecast::seeded(FORECAST_STREAM, MovieId(1));
        // Steep rise: 0 → 3 → 6; still below the hot threshold of 8 but
        // the 2-tick projection crosses it.
        f.observe(0, 1);
        f.observe(3, 1);
        f.observe(6, 1);
        assert_eq!(f.state(), PopState::Warming);
        assert!(f.predicts_overload(1));
        // A flat movie at the same level does not.
        let mut flat = MovieForecast::seeded(FORECAST_STREAM, MovieId(2));
        for _ in 0..6 {
            flat.observe(6, 1);
        }
        assert!(!flat.predicts_overload(1));
    }

    #[test]
    fn seeded_machines_are_reproducible_and_movie_dependent() {
        let a = MovieForecast::seeded(7, MovieId(3));
        let b = MovieForecast::seeded(7, MovieId(3));
        assert_eq!(a, b);
        let c = MovieForecast::seeded(7, MovieId(4));
        // Movie-dependent, and the priors every seeded run's golden
        // output was recorded with.
        assert_eq!((a.warming, c.warming), ([3, 2, 1, 1], [2, 1, 2, 2]));
    }

    #[test]
    fn bank_state_defaults_to_cold() {
        let bank = ForecastBank::new(FORECAST_STREAM);
        assert_eq!(bank.state(MovieId(9)), PopState::Cold);
        assert!(bank.get(MovieId(9)).is_none());
    }

    /// A machine no reactive decision reads.
    fn unread() -> MovieForecast {
        MovieForecast::seeded(FORECAST_STREAM, MovieId(1))
    }

    #[test]
    fn reactive_needs_the_full_streak_and_respects_cooldown() {
        let f = unread();
        let mut p = PlacementPolicy::new(PolicyKind::Reactive);
        let movie = MovieId(1);
        // First observation: replica-set change detection swallows it and
        // arms the cooldown, exactly like the pre-trait manager.
        p.begin_tick();
        assert_eq!(p.decide(&obs(1, 12, 0, 1, 4), &f), PlacementAction::Hold);
        // Cooldown gates the next COOLDOWN_TICKS - 1 ticks (the streak
        // starts accruing on the tick the cooldown reaches zero).
        for _ in 0..COOLDOWN_TICKS - 1 {
            p.begin_tick();
            assert_eq!(p.decide(&obs(1, 12, 0, 1, 4), &f), PlacementAction::Hold);
        }
        // Streak builds: HYSTERESIS_TICKS - 1 hot ticks are not enough...
        for _ in 0..HYSTERESIS_TICKS - 1 {
            p.begin_tick();
            assert_eq!(p.decide(&obs(1, 12, 0, 1, 4), &f), PlacementAction::Hold);
        }
        // ...the next one fires.
        p.begin_tick();
        let fired = PlacementAction::BringUp(BringUpTrigger::ReactiveStreak);
        assert_eq!(p.decide(&obs(1, 12, 0, 1, 4), &f), fired);
        p.acted(movie, fired);
        // Immediately after acting the cooldown gates the movie again.
        p.begin_tick();
        assert_eq!(p.decide(&obs(1, 12, 0, 1, 4), &f), PlacementAction::Hold);
    }

    #[test]
    fn reactive_boundary_conditions_match_the_thresholds() {
        let f = unread();
        let mut p = PlacementPolicy::new(PolicyKind::Reactive);
        // Warm the change-detection/cooldown up on a quiet movie,
        // stopping one tick short so no streak has accrued yet.
        for _ in 0..COOLDOWN_TICKS {
            p.begin_tick();
            p.decide(&obs(1, 1, 0, 2, 4), &f);
        }
        // Exactly at the hot threshold (demand == hot * replicas) is NOT
        // hot; one above is.
        let at = HOT_SESSIONS_PER_REPLICA * 2;
        for _ in 0..HYSTERESIS_TICKS + 2 {
            p.begin_tick();
            assert_eq!(p.decide(&obs(1, at, 0, 2, 4), &f), PlacementAction::Hold);
        }
        // Exactly at the cold threshold (sessions == cold * (replicas-1),
        // nobody waiting) IS cold, on a movie above the floor of two.
        let cold_at = COLD_SESSIONS_PER_REPLICA * 2;
        let mut q = PlacementPolicy::new(PolicyKind::Reactive);
        for _ in 0..COOLDOWN_TICKS {
            q.begin_tick();
            q.decide(&obs(1, cold_at, 0, 3, 4), &f);
        }
        for _ in 0..HYSTERESIS_TICKS - 1 {
            q.begin_tick();
            assert_eq!(
                q.decide(&obs(1, cold_at, 0, 3, 4), &f),
                PlacementAction::Hold
            );
        }
        q.begin_tick();
        assert_eq!(
            q.decide(&obs(1, cold_at, 0, 3, 4), &f),
            PlacementAction::Retire
        );
        // A single waiting client vetoes retirement.
        let mut r = PlacementPolicy::new(PolicyKind::Reactive);
        for _ in 0..COOLDOWN_TICKS {
            r.begin_tick();
            r.decide(&obs(1, cold_at, 1, 3, 4), &f);
        }
        for _ in 0..HYSTERESIS_TICKS + 2 {
            r.begin_tick();
            assert_eq!(
                r.decide(&obs(1, cold_at, 1, 3, 4), &f),
                PlacementAction::Hold
            );
        }
    }

    /// Settles change detection and the cooldown of `kind` on a quiet
    /// movie 1, then feeds one tick of `demand`: the bank and the verdict.
    fn verdict_after_quiet(kind: PolicyKind, sessions: u32, waiting: u32) -> PlacementAction {
        let movie = MovieId(1);
        let mut bank = ForecastBank::new(FORECAST_STREAM);
        let mut p = PlacementPolicy::new(kind);
        for _ in 0..=COOLDOWN_TICKS {
            p.begin_tick();
            bank.observe(movie, 0, 1);
            p.decide(&obs(1, 0, 0, 1, 4), &bank.movies[&movie]);
        }
        p.begin_tick();
        bank.observe(movie, sessions + waiting, 1);
        p.decide(&obs(1, sessions, waiting, 1, 4), &bank.movies[&movie])
    }

    /// Tick 1 of a flash crowd: demand jumps over the threshold, the
    /// machine goes hot and the predictive policy fires on the SAME tick,
    /// where the reactive policy is still building its streak.
    #[test]
    fn predictive_fires_without_a_streak_once_the_machine_says_hot() {
        let fired = PlacementAction::BringUp(BringUpTrigger::Forecast);
        assert_eq!(verdict_after_quiet(PolicyKind::Predictive, 4, 8), fired);
        assert_eq!(verdict_after_quiet(PolicyKind::Predictive, 12, 0), fired);
        assert_eq!(
            verdict_after_quiet(PolicyKind::Reactive, 12, 0),
            PlacementAction::Hold
        );
    }

    /// The two retire rules: a movie whose three replicas sit idle while
    /// its forecast is still cooling retires on the plain cold streak
    /// under `Reactive`, and waits for the machine to say *cold* under
    /// `Predictive`.
    #[test]
    fn predictive_retires_only_on_a_cold_forecast() {
        let movie = MovieId(1);
        let mut f = MovieForecast::seeded(FORECAST_STREAM, movie);
        f.observe(40, 3);
        f.observe(1, 3);
        assert_eq!(f.state(), PopState::Cooling);
        let verdict = |kind| {
            let mut p = PlacementPolicy::new(kind);
            let mut last = PlacementAction::Hold;
            for _ in 0..COOLDOWN_TICKS + HYSTERESIS_TICKS {
                p.begin_tick();
                last = p.decide(&obs(1, 1, 0, 3, 4), &f);
            }
            last
        };
        assert_eq!(verdict(PolicyKind::Reactive), PlacementAction::Retire);
        assert_eq!(verdict(PolicyKind::Predictive), PlacementAction::Hold);
    }

    #[test]
    fn policy_kind_round_trips() {
        for kind in [PolicyKind::Reactive, PolicyKind::Predictive] {
            assert_eq!(PolicyKind::parse(kind.as_str()), Ok(kind));
            assert_eq!(PlacementPolicy::new(kind).kind(), kind);
        }
        assert!(PolicyKind::parse("oracle").is_err());
        assert!(PolicyKind::parse("hybrid").is_err());
    }

    #[test]
    fn heat_orders_by_state_then_demand() {
        let mut hot = MovieForecast::seeded(1, MovieId(1));
        hot.observe(20, 1);
        let mut warm = MovieForecast::seeded(1, MovieId(2));
        warm.observe(0, 1);
        warm.observe(3, 1);
        let cold = MovieForecast::seeded(1, MovieId(3));
        assert!(hot.heat() > warm.heat());
        assert!(warm.heat() > cold.heat());
    }
}
