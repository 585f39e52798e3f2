//! Fleet workload engine: a deterministic open-loop population model
//! driving hundreds of clients through [`ScenarioBuilder`] from one seed.
//!
//! The model composes four classic VoD workload ingredients:
//!
//! * **Zipf movie popularity** ([`ZipfSampler`]) — rank `k` of an
//!   `n`-movie catalog is requested with probability ∝ `1/k^s`;
//! * **Poisson session arrivals** — exponential inter-arrival times at a
//!   configurable rate over an arrival window;
//! * **bounded session durations** — uniform in `[min_session,
//!   max_session]`, optionally cut short by churn (viewers abandoning a
//!   movie early);
//! * **a VCR behaviour mix** — a fraction of sessions pause/resume once
//!   mid-movie, another fraction performs one random seek.
//!
//! Every quantity is drawn from a single [`SimRng`] stream with a fixed
//! number of draws per session, so one `(profile, seed)` pair always
//! yields the same [`FleetPlan`] — byte-identical reports across repeats
//! are part of the determinism contract (DESIGN.md §5d).

use std::collections::BTreeMap;
use std::time::Duration;

use media::{FrameNo, Movie, MovieId, MovieSpec};
use simnet::{NodeId, SimRng, SimTime};

use crate::config::{FailoverMode, MultiDcConfig, ReplicationConfig, SiteMap, VodConfig};
use crate::metrics::Histogram;
use crate::protocol::{ClientId, VcrCmd};
use crate::scenario::{ScenarioBuilder, VodSim};

/// Domain-separation constant mixed into the seed so the workload stream
/// is independent of the network simulator's draws for the same seed.
const WORKLOAD_STREAM: u64 = 0x57_4f_52_4b_4c_4f_41_44; // "WORKLOAD"

/// Samples ranks `0..n` with probability proportional to `1/(rank+1)^s`
/// via an inverse-CDF lookup (binary search over the precomputed CDF).
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for a catalog of `n` items with exponent `s`.
    /// `s = 0` is uniform; larger exponents concentrate the mass on the
    /// low ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "catalog must not be empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Catalog size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the catalog is empty (never true: `new` rejects `n = 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of rank `k` (0-based).
    pub fn probability(&self, rank: usize) -> f64 {
        let prev = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - prev
    }

    /// Draws one rank (0-based) from `rng`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }

    /// A flash-crowd variant of [`new`](ZipfSampler::new): the Zipf
    /// weights, except the *last* rank's weight is replaced by `factor`
    /// times the rank-1 weight (then renormalized). The coldest movie of
    /// the catalog abruptly out-draws the hit — the shape of a breakout
    /// flash crowd landing on a single-replica title.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn shocked(n: usize, s: f64, factor: u32) -> Self {
        assert!(n > 0, "catalog must not be empty");
        let mut weights: Vec<f64> = (0..n)
            .map(|rank| 1.0 / ((rank + 1) as f64).powf(s))
            .collect();
        weights[n - 1] = f64::from(factor) * weights[0];
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }
}

/// A flash crowd: sessions arriving at or after `at` draw their movie
/// from the shocked popularity distribution
/// ([`ZipfSampler::shocked`]) instead of the baseline Zipf. The draw
/// schedule is unchanged — only which CDF the single movie draw is
/// looked up in — so the same seed still yields the same gaps,
/// durations and VCR behaviour on both sides of the shock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PopularityShock {
    /// When the crowd hits (scenario time, measured like `warmup`).
    pub at: Duration,
    /// Popularity multiplier: the tail movie's weight becomes `factor`
    /// times the rank-1 weight.
    pub factor: u32,
}

/// Shape of a generated fleet workload. All times are scenario times.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetProfile {
    /// Number of VoD servers, at nodes `1..=servers`.
    pub servers: u32,
    /// Number of client sessions to generate.
    pub clients: u32,
    /// Catalog size (movies `1..=catalog_size`).
    pub catalog_size: u32,
    /// Zipf popularity exponent (`1.0`–`1.3` is the classic VoD range).
    pub zipf_exponent: f64,
    /// Replicas per movie at time zero, placed round-robin over the
    /// servers (static placement; the replica manager may add more).
    pub initial_replicas: u32,
    /// Admission-control cap per server (`None` = unlimited).
    pub sessions_per_server: Option<u32>,
    /// Time before the first arrival (the service forms its groups).
    pub warmup: Duration,
    /// Poisson arrivals are spread over this window after warm-up.
    pub arrival_window: Duration,
    /// Shortest planned session.
    pub min_session: Duration,
    /// Longest planned session.
    pub max_session: Duration,
    /// Probability a session pauses once mid-movie (and resumes).
    pub vcr_pause_prob: f64,
    /// Probability a session performs one random seek.
    pub vcr_seek_prob: f64,
    /// Probability a viewer churns: the session is cut to a uniform
    /// fraction of its planned duration.
    pub churn_prob: f64,
    /// Duration of every generated movie.
    pub movie_len: Duration,
    /// Optional mid-run flash crowd (see [`PopularityShock`]).
    pub shock: Option<PopularityShock>,
    /// How long a replica bring-up (content copy) takes on this fleet —
    /// applied to the run's [`ReplicationConfig`] by
    /// [`fleet_config`]. Zero = instantaneous (the historical modeling);
    /// the flash-crowd profile uses a realistic multi-second copy, which
    /// is the window the prefix-cache tier bridges.
    pub bringup_delay: Duration,
}

impl FleetProfile {
    /// A small-fleet default: 4 servers, 6 movies, 96 sessions with the
    /// classic Zipf(1.1) skew, single-copy initial placement and a
    /// per-server admission cap.
    pub fn small_fleet() -> Self {
        FleetProfile {
            servers: 4,
            clients: 96,
            catalog_size: 6,
            zipf_exponent: 1.1,
            initial_replicas: 1,
            sessions_per_server: Some(12),
            warmup: Duration::from_secs(2),
            arrival_window: Duration::from_secs(30),
            min_session: Duration::from_secs(15),
            max_session: Duration::from_secs(35),
            vcr_pause_prob: 0.15,
            vcr_seek_prob: 0.15,
            churn_prob: 0.20,
            movie_len: Duration::from_secs(120),
            shock: None,
            bringup_delay: Duration::ZERO,
        }
    }

    /// A flash-crowd stress profile: 4 servers, 120 sessions over a 45 s
    /// arrival window, an 8-movie catalog with single-copy initial
    /// placement and a 12-session admission cap — and at 12 s the
    /// catalog's coldest movie is shocked to 10× the popularity of the
    /// hit. The fleet as a whole has slack (~35 concurrent sessions vs.
    /// a 48-session fleet cap), but from the shock on, the bulk of the
    /// arrivals pile onto a title with one replica, far past that single
    /// server's cap until more replicas come up — exactly the situation
    /// the predictive placement policies and the prefix-cache tier exist
    /// for.
    pub fn flash_crowd() -> Self {
        FleetProfile {
            servers: 4,
            clients: 120,
            catalog_size: 8,
            zipf_exponent: 1.1,
            initial_replicas: 1,
            sessions_per_server: Some(12),
            warmup: Duration::from_secs(2),
            arrival_window: Duration::from_secs(45),
            min_session: Duration::from_secs(10),
            max_session: Duration::from_secs(16),
            vcr_pause_prob: 0.10,
            vcr_seek_prob: 0.10,
            churn_prob: 0.10,
            movie_len: Duration::from_secs(120),
            shock: Some(PopularityShock {
                at: Duration::from_secs(12),
                factor: 10,
            }),
            bringup_delay: Duration::from_secs(6),
        }
    }

    /// Mean Poisson arrival rate implied by the profile (sessions/s).
    pub fn arrival_rate(&self) -> f64 {
        f64::from(self.clients) / self.arrival_window.as_secs_f64().max(1e-9)
    }

    /// When every planned session is over: warm-up + arrival window +
    /// longest session + a settling margin for the final handoffs.
    pub fn run_until(&self) -> SimTime {
        SimTime::from_secs_f64(
            self.warmup.as_secs_f64()
                + self.arrival_window.as_secs_f64()
                + self.max_session.as_secs_f64()
                + 10.0,
        )
    }

    /// The server nodes of this profile, `1..=servers`.
    pub fn server_nodes(&self) -> Vec<NodeId> {
        (1..=self.servers).map(NodeId).collect()
    }
}

/// One VCR operation scheduled within a planned session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedVcr {
    /// When to issue the operation.
    pub at: SimTime,
    /// The operation.
    pub op: VcrCmd,
}

/// One client session of the generated population.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedSession {
    /// The client (ids `1..=clients`).
    pub client: ClientId,
    /// The client's host node (`1000 + index`).
    pub node: NodeId,
    /// The movie requested (Zipf-ranked).
    pub movie: MovieId,
    /// Arrival time.
    pub start: SimTime,
    /// When the viewer stops (churn already applied).
    pub stop: SimTime,
    /// Mid-session VCR operations, in time order (final `Stop` included).
    pub vcr: Vec<PlannedVcr>,
}

/// A fully materialized workload: every session, arrival and VCR action
/// derived from one `(profile, seed)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetPlan {
    /// The profile the plan was generated from.
    pub profile: FleetProfile,
    /// The generated sessions, in arrival order.
    pub sessions: Vec<PlannedSession>,
}

impl FleetPlan {
    /// Generates the plan. A fixed number of draws is consumed per
    /// session regardless of the probabilistic branches taken, so two
    /// plans from the same seed are identical element for element.
    pub fn generate(profile: &FleetProfile, seed: u64) -> Self {
        let zipf = ZipfSampler::new(profile.catalog_size as usize, profile.zipf_exponent);
        let shocked = profile.shock.map(|s| {
            (
                s.at.as_secs_f64(),
                ZipfSampler::shocked(
                    profile.catalog_size as usize,
                    profile.zipf_exponent,
                    s.factor,
                ),
            )
        });
        let mut rng = SimRng::seed_from_u64(seed ^ WORKLOAD_STREAM);
        let rate = profile.arrival_rate();
        let mut at = profile.warmup.as_secs_f64();
        let mut sessions = Vec::with_capacity(profile.clients as usize);
        for i in 0..profile.clients {
            // Draw schedule (always 9 draws, branches notwithstanding):
            // gap, movie, duration, churn, pause?, pause-at, pause-len,
            // seek?, seek-to.
            let gap = -(1.0 - rng.gen_f64()).ln() / rate;
            // The flash crowd changes which CDF the movie draw is looked
            // up in, never the number or order of draws.
            let sampler = match &shocked {
                Some((shock_at, crowd)) if at + gap >= *shock_at => crowd,
                _ => &zipf,
            };
            let rank = sampler.sample(&mut rng);
            let span = (profile.max_session - profile.min_session).as_secs_f64();
            let mut duration = profile.min_session.as_secs_f64() + rng.gen_f64() * span;
            let churn_u = rng.gen_f64();
            if churn_u < profile.churn_prob {
                // An abandoning viewer leaves somewhere in the first half.
                duration *= 0.1 + 0.4 * (churn_u / profile.churn_prob.max(1e-9));
            }
            at += gap;
            let start = SimTime::from_secs_f64(at);
            let stop = SimTime::from_secs_f64(at + duration);
            let mut vcr = Vec::new();
            let pause_u = rng.gen_f64();
            let pause_at_u = rng.gen_f64();
            let pause_len_u = rng.gen_f64();
            if pause_u < profile.vcr_pause_prob {
                let pause_at = at + duration * (0.2 + 0.5 * pause_at_u);
                let pause_len = 1.0 + 2.0 * pause_len_u;
                vcr.push(PlannedVcr {
                    at: SimTime::from_secs_f64(pause_at),
                    op: VcrCmd::Pause,
                });
                vcr.push(PlannedVcr {
                    at: SimTime::from_secs_f64(pause_at + pause_len),
                    op: VcrCmd::Resume,
                });
            }
            let seek_u = rng.gen_f64();
            let seek_to_u = rng.gen_f64();
            if seek_u < profile.vcr_seek_prob {
                let movie_frames = profile.movie_len.as_secs_f64() * 30.0;
                let target = FrameNo((movie_frames * 0.8 * seek_to_u) as u64);
                vcr.push(PlannedVcr {
                    at: SimTime::from_secs_f64(at + duration * 0.6),
                    op: VcrCmd::Seek(target),
                });
            }
            vcr.push(PlannedVcr {
                at: stop,
                op: VcrCmd::Stop,
            });
            sessions.push(PlannedSession {
                client: ClientId(i + 1),
                node: NodeId(1000 + i),
                movie: MovieId(1 + rank as u32),
                start,
                stop,
                vcr,
            });
        }
        FleetPlan {
            profile: profile.clone(),
            sessions,
        }
    }

    /// Sessions per movie over the whole plan (the offered demand).
    pub fn movie_demand(&self) -> BTreeMap<MovieId, u32> {
        let mut demand = BTreeMap::new();
        for s in &self.sessions {
            *demand.entry(s.movie).or_insert(0) += 1;
        }
        demand
    }

    /// Adds every planned client and VCR action to `builder`.
    pub fn apply(&self, builder: &mut ScenarioBuilder) {
        for session in &self.sessions {
            builder.client(session.client, session.node, session.movie, session.start);
            for vcr in &session.vcr {
                builder.vcr_at(vcr.at, session.client, vcr.op);
            }
        }
    }
}

/// Builds a ready-to-run fleet scenario: generated catalog, round-robin
/// initial placement, the admission cap from the profile, the replica
/// manager enabled iff `replication` is given, and the full workload
/// applied. Returns the builder plus the plan (for reporting).
pub fn fleet_builder(
    profile: &FleetProfile,
    seed: u64,
    replication: Option<ReplicationConfig>,
) -> (ScenarioBuilder, FleetPlan) {
    fleet_builder_with_config(profile, seed, fleet_config(profile, replication))
}

/// The [`VodConfig`] a plain fleet run uses: the paper's operating point
/// plus the profile's admission cap and, when given, dynamic replication.
pub fn fleet_config(profile: &FleetProfile, replication: Option<ReplicationConfig>) -> VodConfig {
    let mut cfg = VodConfig::paper_default();
    if let Some(cap) = profile.sessions_per_server {
        cfg = cfg.with_session_cap(cap);
    }
    if let Some(replication) = replication {
        cfg = cfg.with_dynamic_replication(replication.with_bringup_delay(profile.bringup_delay));
    }
    cfg
}

/// Like [`fleet_builder`], but with a caller-supplied [`VodConfig`] —
/// the hook for placement policies, the prefix-cache tier and ablation
/// knobs (start from [`fleet_config`] to keep the profile's cap).
pub fn fleet_builder_with_config(
    profile: &FleetProfile,
    seed: u64,
    cfg: VodConfig,
) -> (ScenarioBuilder, FleetPlan) {
    let plan = FleetPlan::generate(profile, seed);
    let mut builder = ScenarioBuilder::new(seed);
    builder.config(cfg);
    let servers = profile.server_nodes();
    let spec = MovieSpec::paper_default().with_duration(profile.movie_len);
    let replicas = (profile.initial_replicas.max(1) as usize).min(servers.len());
    for m in 0..profile.catalog_size {
        let movie = Movie::generate(MovieId(1 + m), &spec);
        // Round-robin placement: movie m's copies start at server m mod n.
        let holders: Vec<NodeId> = (0..replicas)
            .map(|r| servers[(m as usize + r) % servers.len()])
            .collect();
        builder.movie(movie, &holders);
    }
    for &s in &servers {
        builder.server(s);
    }
    plan.apply(&mut builder);
    (builder, plan)
}

/// The fixed two-datacenter fleet of the `multidc` scenario: east =
/// servers 1–2, west = servers 3–4, 20 geo-homed clients (even client
/// indices east, odd west), every movie replicated on all four servers,
/// and a 6-session admission cap per server. Sessions are long enough to
/// span the mid-run site fault, and VCR/churn noise is disabled so the
/// three-way failover comparison isolates the rescue behaviour.
pub fn multidc_profile() -> FleetProfile {
    FleetProfile {
        servers: 4,
        clients: 20,
        catalog_size: 4,
        zipf_exponent: 1.1,
        initial_replicas: 4,
        sessions_per_server: Some(6),
        warmup: Duration::from_secs(2),
        arrival_window: Duration::from_secs(10),
        min_session: Duration::from_secs(50),
        max_session: Duration::from_secs(60),
        vcr_pause_prob: 0.0,
        vcr_seek_prob: 0.0,
        churn_prob: 0.0,
        movie_len: Duration::from_secs(120),
        shock: None,
        bringup_delay: Duration::ZERO,
    }
}

/// When the east site's correlated crash hits in the `multidc` scenario.
pub const MULTIDC_FAULT_AT: Duration = Duration::from_secs(18);

/// When the east site's servers come back.
pub const MULTIDC_HEAL_AT: Duration = Duration::from_secs(40);

/// Builds the fixed multi-datacenter failover scenario (DESIGN.md §5i):
/// two 2-server sites bridged by WAN links, geo-homed clients, and a
/// correlated crash of the whole east site at [`MULTIDC_FAULT_AT`]
/// (restart at [`MULTIDC_HEAL_AT`]). `mode` selects the failover
/// behaviour under comparison — the workload plan is identical across
/// modes for a given seed, so unserved-time differences are attributable
/// to the failover policy alone.
pub fn multidc_builder(seed: u64, mode: FailoverMode) -> (ScenarioBuilder, FleetPlan) {
    let profile = multidc_profile();
    let east_servers = [NodeId(1), NodeId(2)];
    let west_servers = [NodeId(3), NodeId(4)];
    let (east_clients, west_clients): (Vec<NodeId>, Vec<NodeId>) = (0..profile.clients)
        .map(|i| NodeId(1000 + i))
        .partition(|n| n.0 % 2 == 0);

    let mut map = SiteMap::new();
    let east = map.add_site("east", &east_servers);
    let west = map.add_site("west", &west_servers);
    map.home_clients(east, &east_clients);
    map.home_clients(west, &west_clients);
    let cfg = fleet_config(&profile, None).with_multidc(MultiDcConfig::new(map).with_mode(mode));

    let (mut builder, plan) = fleet_builder_with_config(&profile, seed, cfg);
    let fault = SimTime::ZERO + MULTIDC_FAULT_AT;
    let heal = SimTime::ZERO + MULTIDC_HEAL_AT;
    for server in east_servers {
        builder.crash_at(fault, server);
        builder.restart_at(heal, server);
    }
    (builder, plan)
}

/// Outcome of one fleet run, derived from per-client and per-server
/// statistics, so it needs no event recording.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// Sessions that received at least one frame.
    pub served: u32,
    /// Sessions that never received a frame before the run ended.
    pub never_served: u32,
    /// Time-to-first-frame of the served sessions (seconds).
    pub ttff: Histogram,
    /// Total client-seconds spent waiting for the first frame (sessions
    /// never served accrue until the end of the run).
    pub unserved_seconds: f64,
    /// Total client-seconds of mid-session interruptions longer than
    /// 200 ms that were later bridged by a resume: takeovers, migrations
    /// and site faults (§4.2's irregularity periods), but also planned
    /// VCR pauses, which the client records as interruptions too (24.2
    /// of the 24.5 s on the `steady_fleet` benchmark workload).
    pub stalled_seconds: f64,
    /// Per-server `(peak sessions, admission rejections, replicas brought
    /// up, replicas retired, frames sent)`, keyed by node.
    pub per_server: BTreeMap<NodeId, (u32, u64, u64, u64, u64)>,
}

impl FleetReport {
    /// Derives the report from a finished run of `plan`.
    pub fn from_sim(plan: &FleetPlan, sim: &VodSim, run_end: SimTime) -> Self {
        let mut report = FleetReport::default();
        for session in &plan.sessions {
            let Some(stats) = sim.client_stats(session.client) else {
                continue;
            };
            match stats.first_frame_at {
                Some(first) => {
                    report.served += 1;
                    let wait = first.saturating_since(session.start).as_secs_f64();
                    report.ttff.record(wait);
                    report.unserved_seconds += wait;
                }
                None => {
                    report.never_served += 1;
                    report.unserved_seconds +=
                        run_end.saturating_since(session.start).as_secs_f64();
                }
            }
            report.stalled_seconds += stats.interruptions.iter().map(|&(_, gap)| gap).sum::<f64>();
        }
        for node in plan.profile.server_nodes() {
            let Some(stats) = sim.server_stats(node) else {
                continue;
            };
            report.per_server.insert(
                node,
                (
                    stats.owned_over_time.max().unwrap_or(0.0) as u32,
                    stats.admission_rejections.total(),
                    stats.replica_bringups.total(),
                    stats.replica_retires.total(),
                    stats.frames_sent,
                ),
            );
        }
        report
    }

    /// p99 time-to-first-frame over served sessions (seconds).
    pub fn p99_ttff(&self) -> Option<f64> {
        self.ttff.quantile(0.99)
    }

    /// Total client-seconds without video while wanting it: first-frame
    /// waits plus mid-session stalls — the headline metric of the
    /// multi-datacenter failover comparison.
    pub fn total_unserved(&self) -> f64 {
        self.unserved_seconds + self.stalled_seconds
    }

    /// Renders the report deterministically (integer and fixed-precision
    /// fields only): equal runs produce byte-identical text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} served, {} never served, unserved time {:.3}s, stalled {:.3}s",
            self.served, self.never_served, self.unserved_seconds, self.stalled_seconds
        );
        let fmt_q = |q: Option<f64>| q.map_or_else(|| "-".to_owned(), |v| format!("{v:.3}s"));
        let _ = writeln!(
            out,
            "ttff: p50={} p90={} p99={} max={}",
            fmt_q(self.ttff.quantile(0.5)),
            fmt_q(self.ttff.quantile(0.9)),
            fmt_q(self.ttff.quantile(0.99)),
            fmt_q(self.ttff.max()),
        );
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>8} {:>9} {:>8} {:>12}",
            "server", "peak", "rejects", "bringups", "retires", "frames_sent"
        );
        for (node, (peak, rejects, ups, downs, frames)) in &self.per_server {
            let _ = writeln!(
                out,
                "{:<8} {:>6} {:>8} {:>9} {:>8} {:>12}",
                node.to_string(),
                peak,
                rejects,
                ups,
                downs,
                frames
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(10, 1.1);
        assert_eq!(z.len(), 10);
        let total: f64 = (0..10).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..10 {
            assert!(
                z.probability(k) < z.probability(k - 1),
                "popularity must decrease with rank"
            );
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(4, 0.0);
        for k in 0..4 {
            assert!((z.probability(k) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_sampling_is_deterministic_and_in_range() {
        let z = ZipfSampler::new(7, 1.3);
        let draw = |seed| -> Vec<usize> {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..200).map(|_| z.sample(&mut rng)).collect()
        };
        let a = draw(9);
        assert_eq!(a, draw(9), "same seed, same sequence");
        assert_ne!(a, draw(10), "different seeds diverge");
        assert!(a.iter().all(|&r| r < 7));
    }

    #[test]
    #[should_panic(expected = "catalog must not be empty")]
    fn zipf_rejects_empty_catalog() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn plans_are_reproducible() {
        let profile = FleetProfile::small_fleet();
        let a = FleetPlan::generate(&profile, 77);
        let b = FleetPlan::generate(&profile, 77);
        assert_eq!(a, b);
        let c = FleetPlan::generate(&profile, 78);
        assert_ne!(a, c);
    }

    #[test]
    fn plan_respects_the_profile_bounds() {
        let profile = FleetProfile::small_fleet();
        let plan = FleetPlan::generate(&profile, 3);
        assert_eq!(plan.sessions.len(), 96);
        let warmup = profile.warmup.as_secs_f64();
        for (i, s) in plan.sessions.iter().enumerate() {
            assert_eq!(s.client, ClientId(i as u32 + 1));
            assert_eq!(s.node, NodeId(1000 + i as u32));
            assert!(s.movie.0 >= 1 && s.movie.0 <= profile.catalog_size);
            assert!(s.start.as_secs_f64() >= warmup);
            assert!(s.stop > s.start);
            let len = s.stop.saturating_since(s.start).as_secs_f64();
            assert!(len <= profile.max_session.as_secs_f64() + 1e-6);
            assert_eq!(s.vcr.last().map(|v| v.op), Some(VcrCmd::Stop));
            assert_eq!(s.vcr.last().map(|v| v.at), Some(s.stop));
        }
        // Arrivals are ordered (a cumulative sum of positive gaps).
        for pair in plan.sessions.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    }

    #[test]
    fn demand_follows_popularity() {
        let mut profile = FleetProfile::small_fleet();
        profile.clients = 400;
        profile.zipf_exponent = 1.4;
        let plan = FleetPlan::generate(&profile, 5);
        let demand = plan.movie_demand();
        let top = demand.get(&MovieId(1)).copied().unwrap_or(0);
        let tail = demand
            .get(&MovieId(profile.catalog_size))
            .copied()
            .unwrap_or(0);
        assert!(
            top > tail,
            "rank 1 ({top} sessions) must out-draw rank {} ({tail})",
            profile.catalog_size
        );
        let total: u32 = demand.values().sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn shocked_zipf_flips_the_tail_over_the_hit() {
        let z = ZipfSampler::shocked(8, 1.1, 10);
        let total: f64 = (0..8).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(
            z.probability(7) > 9.0 * z.probability(0),
            "the shocked tail must dwarf rank 1"
        );
        // Every other rank keeps the Zipf ordering.
        for k in 2..7 {
            assert!(z.probability(k) < z.probability(k - 1));
        }
    }

    #[test]
    fn shock_redirects_late_arrivals_deterministically() {
        let profile = FleetProfile::flash_crowd();
        let plan = FleetPlan::generate(&profile, 42);
        assert_eq!(plan, FleetPlan::generate(&profile, 42));
        let shock_at = profile.shock.expect("flash_crowd has a shock").at;
        let tail = MovieId(profile.catalog_size);
        let shock_s = shock_at.as_secs_f64();
        let late: Vec<&PlannedSession> = plan
            .sessions
            .iter()
            .filter(|s| s.start.as_secs_f64() >= shock_s)
            .collect();
        let late_tail = late.iter().filter(|s| s.movie == tail).count();
        assert!(
            late_tail * 2 > late.len(),
            "most post-shock arrivals ({late_tail}/{}) must pile onto the tail movie",
            late.len()
        );
        // Before the shock the tail stays cold.
        let early_tail = plan
            .sessions
            .iter()
            .filter(|s| s.start.as_secs_f64() < shock_s && s.movie == tail)
            .count();
        assert!(
            early_tail <= 2,
            "pre-shock tail demand stays cold ({early_tail})"
        );
        // The unshocked plan from the same seed shares gaps and durations
        // for every session: only movie choices may differ.
        let mut quiet = profile.clone();
        quiet.shock = None;
        let unshocked = FleetPlan::generate(&quiet, 42);
        for (a, b) in plan.sessions.iter().zip(&unshocked.sessions) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.stop, b.stop);
        }
    }

    #[test]
    fn fleet_builder_wires_the_whole_population() {
        let mut profile = FleetProfile::small_fleet();
        profile.clients = 10;
        let (builder, plan) = fleet_builder(&profile, 11, None);
        assert_eq!(plan.sessions.len(), 10);
        // The builder must accept the plan (unknown movies would panic).
        let _sim = builder.build();
    }
}
