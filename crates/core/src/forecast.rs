//! Popularity forecasting for replica placement (DESIGN.md §5h).
//!
//! The PR 2 replica manager is purely *reactive*: it counts demand
//! streaks after the clients have already arrived. This module adds the
//! predictive half, following the Markov-chain replication strategy of
//! the related work: every movie gets a small popularity state machine
//! ([`MovieForecast`]: cold → warming → hot → cooling) fed by the demand
//! shares that already flow over the half-second sync, plus an online
//! estimate of its own transition frequencies seeded deterministically
//! per movie. The placement table ([`Placement`]) keeps one machine per
//! movie and decides by one of two [`PolicyKind`]s:
//!
//! * `Reactive` — the original hot/cold hysteresis, bit-for-bit;
//! * `Predictive` — forecast-driven: bring a replica up as soon as the
//!   machine says *hot* (or *warming* with an overload projection and a
//!   warming→hot transition estimate above ½), retire on *cold*.
//!
//! Everything here is integer arithmetic over the shared demand reports,
//! so every server's forecasts and placement state stay in lockstep —
//! the property the replica manager's deterministic elections rely on.
//!
//! [`Placement`]: crate::server::Placement

use media::MovieId;
use simnet::SimRng;

use crate::config::{COLD_SESSIONS_PER_REPLICA, HOT_SESSIONS_PER_REPLICA};

/// Domain-separated seed stream for the forecast transition priors
/// ("FORECAST" in ASCII-ish hex). Every server seeds its machines with
/// the same constant, so the per-movie priors agree fleet-wide.
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
    /// observed in (every server converges to the same machines
    /// regardless of which movie it hears about first).
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

    /// Whether the machine justifies an immediate bring-up at `replicas`:
    /// it says *hot*, or *warming* with an overload projection and a
    /// warming→hot estimate of at least ½.
    pub(crate) fn surges(&self, replicas: u32) -> bool {
        match self.state {
            PopState::Hot => true,
            PopState::Warming => self.predicts_overload(replicas) && self.hot_affinity(),
            PopState::Cold | PopState::Cooling => false,
        }
    }

    /// Eviction key of the prefix cache: hotter state first, then the
    /// demand EWMA. Strictly increasing in attractiveness.
    pub fn heat(&self) -> u64 {
        (self.state.rank() << 32) | (self.ewma.max(0) as u64).min(u64::from(u32::MAX))
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn policy_kind_round_trips() {
        for kind in [PolicyKind::Reactive, PolicyKind::Predictive] {
            assert_eq!(PolicyKind::parse(kind.as_str()), Ok(kind));
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
