//! The simulations the workloads are made of: how one seeded run is set
//! up, stepped and checked, and what is folded out of it.
//!
//! Every run goes through the same three stages so that host time can be
//! charged the same way everywhere: [`prepare`] (plan + movie generation +
//! `ScenarioBuilder::build`, charged to `setup_s`), `VodSim::run_until`
//! (in one call or in slices, charged to `wall_s`), and [`check`] (the
//! program's own post-run work — `OracleReport::check`, `VodSim::report`,
//! `FleetReport::from_sim` — also charged to `wall_s`). [`fold`] then
//! reads the per-session statistics; it is the benchmark's own
//! bookkeeping and is never timed.

use std::time::{Duration, Instant};

use ftvod_core::chaos::{ChaosPlan, ChaosProfile};
use ftvod_core::config::{FailoverMode, PrefixCacheConfig, ReplicationConfig, VodConfig};
use ftvod_core::forecast::PolicyKind;
use ftvod_core::metrics::Histogram;
use ftvod_core::oracle::{summary_token, OracleConfig, OracleReport, Verdict};
use ftvod_core::protocol::ClientId;
use ftvod_core::scenario::{presets, ScenarioBuilder, VodSim};
use ftvod_core::trace::RunReport;
use ftvod_core::workload::{
    fleet_builder, fleet_builder_with_config, fleet_config, multidc_builder, multidc_profile,
    FleetPlan, FleetProfile, FleetReport,
};
use simnet::{LinkProfile, NodeId, SimTime};

use crate::stats::Fnv;

/// Which simulation a run is. One workload is a list of `(RunKind, seed)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// `steady_fleet`: 8 servers, 640 failure-free sessions, no recording.
    SteadyFleet,
    /// `steady_fleet` at half size (4 servers, 320 sessions); only the
    /// traced run uses it, for `simnet.scale_exponent`.
    SteadyFleetHalf,
    /// The paper's Figure 4 LAN run.
    Fig4Lan,
    /// The paper's Figure 5 WAN run.
    Fig5Wan,
    /// One `ftvod-cli chaos` default campaign.
    Chaos,
    /// `FleetProfile::flash_crowd()` under the predictive policy with the
    /// prefix tier.
    Flash,
    /// The two-site failover run in `FailoverMode::RemoteDegraded`.
    MultiDc,
}

/// Capacity of the event ring in the runs that record.
const FLEET_RING: usize = 1 << 20;
const FIG_RING: usize = 1 << 16;

/// The `steady_fleet` profile: `FleetProfile::small_fleet()` scaled to
/// 9× E3's events. `scale` = 2 is the full workload, 1 the half-size
/// probe: servers and sessions scale, per-server load stays the same.
pub fn steady_profile(scale: u32) -> FleetProfile {
    let mut p = FleetProfile::small_fleet();
    p.servers = 4 * scale;
    p.clients = 320 * scale;
    p.catalog_size = 8;
    p.initial_replicas = 4;
    p.sessions_per_server = Some(60);
    p.arrival_window = Duration::from_secs(80);
    p.min_session = Duration::from_secs(20);
    p.max_session = Duration::from_secs(40);
    p
}

/// The `ftvod-cli chaos` default fleet (24 sessions, 4 movies × 2
/// replicas on 4 servers, 15 s arrival window).
pub fn chaos_profile() -> FleetProfile {
    let mut p = FleetProfile::small_fleet();
    p.clients = 24;
    p.catalog_size = 4;
    p.initial_replicas = 2;
    p.arrival_window = Duration::from_secs(15);
    p
}

/// What the benchmark switches on in a run besides what the workload
/// itself uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Instrument {
    /// `ScenarioBuilder::profile_costs()` — the traced pass.
    pub profile_costs: bool,
    /// Leave event recording off even where the workload records — the
    /// pass that measures `trace.record_overhead_share`.
    pub no_recording: bool,
}

/// A run that is set up but not started.
pub struct Prepared {
    /// The built simulation.
    pub sim: VodSim,
    /// The fleet plan, for the runs that have one.
    pub plan: Option<FleetPlan>,
    /// When the run ends.
    pub end: SimTime,
    /// The nodes that may run a server.
    pub servers: Vec<NodeId>,
    /// Server and client processes in the run.
    pub nodes: u32,
    /// Whether the run records events.
    pub recording: bool,
    /// When the figure runs crash the serving server.
    pub crash_at: Option<SimTime>,
}

/// A scenario that is declared but not built: [`prepare`] is `declare` +
/// `ScenarioBuilder::build`, split so the traced run can time the two.
pub struct Declared {
    builder: ScenarioBuilder,
    plan: Option<FleetPlan>,
    end: SimTime,
    ring: Option<usize>,
    crash_at: Option<SimTime>,
}

/// Declares the scenario of `kind` for `seed`: plan and movie generation.
pub fn declare(kind: RunKind, seed: u64) -> Declared {
    match kind {
        RunKind::SteadyFleet | RunKind::SteadyFleetHalf => {
            let profile = steady_profile(if kind == RunKind::SteadyFleet { 2 } else { 1 });
            let (builder, plan) = fleet_builder(&profile, seed, None);
            Declared {
                builder,
                end: SimTime::from_secs(132),
                plan: Some(plan),
                ring: None,
                crash_at: None,
            }
        }
        RunKind::Fig4Lan | RunKind::Fig5Wan => {
            let (builder, crash_at) = if kind == RunKind::Fig4Lan {
                let (builder, crash_at, _) = presets::fig4_lan(seed);
                (builder, crash_at)
            } else {
                let (builder, _, crash_at) = presets::fig5_wan(seed);
                (builder, crash_at)
            };
            Declared {
                builder,
                end: SimTime::from_secs(92),
                plan: None,
                ring: Some(FIG_RING),
                crash_at: Some(crash_at),
            }
        }
        RunKind::Chaos => {
            let profile = chaos_profile();
            let replication = ReplicationConfig::paper_default();
            let (mut builder, plan) = fleet_builder(&profile, seed, Some(replication));
            let mut cfg = VodConfig::paper_default()
                .with_sync_interval(Duration::from_millis(500))
                .with_dynamic_replication(replication);
            if let Some(cap) = profile.sessions_per_server {
                cfg = cfg.with_session_cap(cap);
            }
            builder.config(cfg);
            let mut chaos = ChaosProfile::default_campaign();
            chaos.faults = 6;
            ChaosPlan::generate(&chaos, &profile.server_nodes(), seed)
                .apply(&mut builder, &LinkProfile::lan());
            Declared {
                builder,
                // Past the fault window, the longest restart and the
                // repair bound, as in `ftvod-cli chaos`.
                end: SimTime::from_secs_f64(profile.run_until().as_secs_f64().max(75.0)),
                plan: Some(plan),
                ring: Some(FLEET_RING),
                crash_at: None,
            }
        }
        RunKind::Flash => {
            let profile = FleetProfile::flash_crowd();
            let cfg = fleet_config(&profile, Some(ReplicationConfig::paper_default()))
                .with_placement(PolicyKind::Predictive)
                .with_prefix_cache(PrefixCacheConfig::paper_default());
            let (builder, plan) = fleet_builder_with_config(&profile, seed, cfg);
            Declared {
                builder,
                end: profile.run_until(),
                plan: Some(plan),
                ring: Some(FLEET_RING),
                crash_at: None,
            }
        }
        RunKind::MultiDc => {
            let (builder, plan) = multidc_builder(seed, FailoverMode::RemoteDegraded);
            Declared {
                builder,
                end: multidc_profile().run_until(),
                plan: Some(plan),
                ring: Some(FLEET_RING),
                crash_at: None,
            }
        }
    }
}

impl Declared {
    /// Applies the instrumentation and builds the simulation.
    pub fn build(mut self, instrument: Instrument) -> Prepared {
        let recording = self.ring.is_some() && !instrument.no_recording;
        if let (Some(ring), true) = (self.ring, recording) {
            self.builder.record_events(ring);
        }
        if instrument.profile_costs {
            self.builder.profile_costs();
        }
        let (servers, clients) = match &self.plan {
            Some(plan) => (plan.profile.server_nodes(), plan.sessions.len()),
            None => (
                vec![presets::nodes::S1, presets::nodes::S2, presets::nodes::S3],
                1,
            ),
        };
        Prepared {
            sim: self.builder.build(),
            plan: self.plan,
            end: self.end,
            nodes: (servers.len() + clients) as u32,
            servers,
            recording,
            crash_at: self.crash_at,
        }
    }
}

/// Sets up one run: everything before its first `run_until`.
pub fn prepare(kind: RunKind, seed: u64, instrument: Instrument) -> Prepared {
    declare(kind, seed).build(instrument)
}

/// What the program's own post-run checks return.
pub struct Checked {
    /// Oracle verdicts; `None` where the run does not record.
    pub oracle: Option<OracleReport>,
    /// The trace-derived report; `None` where the run does not record.
    pub report: Option<RunReport>,
    /// The fleet report; `None` for the single-session figure runs.
    pub fleet: Option<FleetReport>,
    /// When `OracleReport::check`, `VodSim::report` and
    /// `FleetReport::from_sim` started, and when the last one ended.
    pub marks: [Instant; 4],
}

impl Checked {
    /// Host nanoseconds between two marks.
    fn between(&self, from: usize, to: usize) -> u64 {
        self.marks[to].duration_since(self.marks[from]).as_nanos() as u64
    }

    /// Host nanoseconds spent in `OracleReport::check`.
    pub fn oracle_ns(&self) -> u64 {
        self.between(0, 1)
    }

    /// Host nanoseconds spent in `VodSim::report`.
    pub fn report_ns(&self) -> u64 {
        self.between(1, 2)
    }

    /// Host nanoseconds spent in all three checks.
    pub fn total_ns(&self) -> u64 {
        self.between(0, 3)
    }
}

/// The program's post-run work on a finished run, timed call by call.
pub fn check(run: &Prepared) -> Checked {
    let started = Instant::now();
    let oracle = run
        .sim
        .trace()
        .with_recorder(|rec| OracleReport::check(rec, &OracleConfig::paper_default()));
    let oracle_done = Instant::now();
    let report = run.sim.report();
    let report_done = Instant::now();
    let fleet = run
        .plan
        .as_ref()
        .map(|plan| FleetReport::from_sim(plan, &run.sim, run.end));
    Checked {
        oracle,
        report,
        fleet,
        marks: [started, oracle_done, report_done, Instant::now()],
    }
}

/// Counts the layers keep themselves, summed over a run's processes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// `ServerStats::frames_sent`.
    pub frames_sent: u64,
    /// `ServerStats::replica_bringups`.
    pub bringups: u64,
    /// `ServerStats::replica_retires`.
    pub retires: u64,
    /// `ServerStats::prefix_serves`.
    pub prefix_serves: u64,
    /// `ServerStats::admission_rejections`.
    pub admission_rejections: u64,
    /// `ClientStats::frames_received`.
    pub frames_received: u64,
    /// `ClientStats::late`.
    pub late_frames: u64,
    /// `ClientStats::overflow`.
    pub overflow_frames: u64,
    /// `ClientStats::emergencies`.
    pub emergencies: u64,
}

impl LayerCounts {
    /// Adds `other` field by field.
    pub fn add(&mut self, other: &LayerCounts) {
        self.frames_sent += other.frames_sent;
        self.bringups += other.bringups;
        self.retires += other.retires;
        self.prefix_serves += other.prefix_serves;
        self.admission_rejections += other.admission_rejections;
        self.frames_received += other.frames_received;
        self.late_frames += other.late_frames;
        self.overflow_frames += other.overflow_frames;
        self.emergencies += other.emergencies;
    }
}

/// What `RunReport` adds where the run records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reported {
    /// Fault trigger → resumed stream, one sample per takeover.
    pub takeover: Vec<f64>,
    /// The view-change part of each takeover.
    pub takeover_view_change: Vec<f64>,
    /// The resume part of each takeover.
    pub takeover_resume: Vec<f64>,
    /// Session moves with no preceding failure.
    pub migrations: u64,
    /// Views installed, over all nodes and groups.
    pub views_installed: u64,
    /// Failure-detector suspicions raised.
    pub suspicions: u64,
    /// Degraded rescue serves.
    pub degraded_serves: u64,
    /// Client re-open back-offs.
    pub retry_backoffs: u64,
    /// Buffer refill times.
    pub refill: Histogram,
    /// Bring-up decision → first session, all triggers.
    pub bringup_latency: Histogram,
    /// Events the ring holds.
    pub events_recorded: u64,
    /// Events the ring evicted.
    pub events_dropped: u64,
    /// Oracle summary token (`PASS`, `FAIL[..]`).
    pub oracle: String,
    /// Whether any oracle verdict is inconclusive.
    pub oracle_inconclusive: bool,
}

/// What one run contributes to the service metrics, the layer counts and
/// the digest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOutcome {
    /// Sessions the run attempted.
    pub sessions: u64,
    /// Sessions that never received a frame.
    pub never_served: u64,
    /// Session start → first frame, one sample per served session.
    pub ttff: Vec<f64>,
    /// Σ `ClientStats::stalls`.
    pub stalls: u64,
    /// Σ `ClientStats::skipped`.
    pub skipped: u64,
    /// Σ frames displayed.
    pub displayed: u64,
    /// `FleetReport::unserved_seconds` (first-frame waits; never-served
    /// sessions accrue to the end of the run).
    pub unserved_seconds: f64,
    /// Longest stream interruption that starts around the scripted crash
    /// and late frames in the 6 s after it (figure runs only; T4).
    pub crash_gap_and_dups: Option<(f64, u64)>,
    /// The layers' own counts.
    pub counts: LayerCounts,
    /// What the trace adds; `None` where the run does not record.
    pub reported: Option<Reported>,
    /// Hash of the network counters, every client's counters and the
    /// rendered reports.
    pub digest: u64,
}

/// Folds a finished, checked run into its [`RunOutcome`].
pub fn fold(run: &Prepared, checked: &Checked) -> RunOutcome {
    let mut out = RunOutcome::default();
    let mut hash = Fnv::new();
    hash.text(&run.sim.net_stats().to_csv());

    let sessions: Vec<(ClientId, SimTime)> = match &run.plan {
        Some(plan) => plan.sessions.iter().map(|s| (s.client, s.start)).collect(),
        None => vec![(presets::CLIENT_ID, presets::CLIENT_START)],
    };
    for &(client, start) in &sessions {
        // A run that `--quick` cut short never attempted the sessions
        // that were to start after its end.
        if start >= run.end {
            continue;
        }
        out.sessions += 1;
        let Some(stats) = run.sim.client_stats(client) else {
            out.never_served += 1;
            continue;
        };
        let displayed = run.sim.client_displayed(client).unwrap_or(0);
        match stats.first_frame_at {
            Some(first) => out.ttff.push(first.saturating_since(start).as_secs_f64()),
            None => out.never_served += 1,
        }
        out.stalls += stats.stalls.total();
        out.skipped += stats.skipped.total();
        out.displayed += displayed;
        out.counts.frames_received += stats.frames_received;
        out.counts.late_frames += stats.late.total();
        out.counts.overflow_frames += stats.overflow.total();
        out.counts.emergencies += stats.emergencies.total();
        for n in [
            u64::from(client.0),
            stats.frames_received,
            displayed,
            stats.stalls.total(),
            stats.skipped.total(),
            stats.late.total(),
            stats.overflow.total(),
            stats.emergencies.total(),
            stats.first_frame_at.map_or(u64::MAX, |t| t.as_micros()),
            stats.last_frame_at.map_or(u64::MAX, |t| t.as_micros()),
        ] {
            hash.number(n);
        }
        if let Some(crash_at) = run.crash_at {
            let crash_s = crash_at.as_secs_f64();
            let gap = stats
                .interruptions
                .iter()
                .filter(|&&(at, _)| (crash_s - 1.0..crash_s + 2.0).contains(&at))
                .map(|&(_, d)| d)
                .fold(0.0_f64, f64::max);
            out.crash_gap_and_dups = Some((gap, stats.late.in_window(crash_s, crash_s + 6.0)));
        }
    }
    for &node in &run.servers {
        let Some(stats) = run.sim.server_stats(node) else {
            continue;
        };
        out.counts.frames_sent += stats.frames_sent;
        out.counts.bringups += stats.replica_bringups.total();
        out.counts.retires += stats.replica_retires.total();
        out.counts.prefix_serves += stats.prefix_serves.total();
        out.counts.admission_rejections += stats.admission_rejections.total();
        hash.number(stats.frames_sent);
        hash.number(stats.syncs_sent);
    }

    match &checked.fleet {
        Some(fleet) => {
            out.unserved_seconds = fleet.unserved_seconds;
            hash.text(&fleet.render());
        }
        // A figure run has one session and no fleet report: its unserved
        // time is its first-frame wait, or the whole run if never served.
        None => {
            out.unserved_seconds = out.ttff.first().copied().unwrap_or_else(|| {
                run.end
                    .saturating_since(presets::CLIENT_START)
                    .as_secs_f64()
            });
        }
    }
    if let (Some(report), Some(oracle)) = (&checked.report, &checked.oracle) {
        let mut bringup_latency = Histogram::new();
        for h in report.bringup_latency.values() {
            bringup_latency.merge(h);
        }
        out.reported = Some(Reported {
            takeover: report.takeovers.iter().map(|t| t.total_s).collect(),
            takeover_view_change: report.takeovers.iter().map(|t| t.view_change_s).collect(),
            takeover_resume: report.takeovers.iter().map(|t| t.resume_s).collect(),
            migrations: report.migrations,
            views_installed: report.views_installed,
            suspicions: report.suspicions,
            degraded_serves: report.degraded_serves,
            retry_backoffs: report.retry_backoffs,
            refill: report.refill_time.clone(),
            bringup_latency,
            events_recorded: report.events_seen - report.events_dropped,
            events_dropped: report.events_dropped,
            oracle: summary_token(oracle),
            oracle_inconclusive: oracle
                .verdicts()
                .iter()
                .any(|(_, v)| matches!(v, Verdict::Inconclusive(_))),
        });
        hash.text(&report.to_json());
        hash.text(&oracle.to_string());
    }
    out.digest = hash.finish();
    out
}
