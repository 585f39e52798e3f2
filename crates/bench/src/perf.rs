//! The fixed perf-suite behind `ftvod-cli perf` and the CI regression
//! gate.
//!
//! Five scenarios cover the simulator's distinct hot paths:
//!
//! * `fig4_lan` — the paper's LAN failover (crash + load balance);
//! * `fig5_wan` — the paper's WAN migration over a lossy 7-hop path;
//! * `fleet_e3` — the 4-server / 96-session fleet workload with dynamic
//!   replica management (EXPERIMENTS.md E3);
//! * `chaos_5seeds` — five seeded fault campaigns including the oracle
//!   replay (counters summed across seeds, peaks taken as maxima);
//! * `flash_crowd` — the 10× popularity-shock duel (EXPERIMENTS.md E7):
//!   the same plan run under reactive hysteresis and under the
//!   predictive policy with the prefix-cache tier, with headline
//!   counters namespaced `reactive.*` / `predictive.*` and the
//!   `predictive_dominates` bit the gate pins.
//!
//! Every scenario runs with cost profiling on and produces a
//! [`ScenarioBench`]: a table of **deterministic counters** (scheduler
//! event counts, span counts, network totals, peak concurrent sessions)
//! plus **wall-clock** fields (total run time, per-subsystem span time,
//! events/second). The counters are byte-identical across runs of the
//! same build — [`BenchReport::to_json`] with `include_wall = false`
//! renders only them, which is what the CI gate compares exactly.
//! Wall-clock is compared against the checked-in baseline within a
//! ratio threshold instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ftvod_core::campaign::{self, Campaign, Outcome, CHAOS_CLIENTS, CHAOS_FAULTS, CHAOS_SYNC};
use ftvod_core::config::ReplicationConfig;
use ftvod_core::forecast::PolicyKind;
use ftvod_core::json::{escape, Json};
use ftvod_core::profile::Subsystem;
use ftvod_core::scenario::{presets, ScenarioBuilder, VodSim};
use ftvod_core::workload::{fleet_builder, FleetPlan, FleetProfile};
use simnet::SimTime;

/// Schema tag of `BENCH_ftvod.json`; bump on any layout change.
pub const BENCH_SCHEMA: &str = "ftvod-bench/v1";

/// Default wall-clock regression threshold: fail when a scenario takes
/// more than this multiple of the baseline's wall-clock.
pub const DEFAULT_MAX_WALL_RATIO: f64 = 5.0;

/// Measured costs of one suite scenario.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioBench {
    /// Stable scenario name.
    pub name: String,
    /// Simulated seconds covered (summed across seeds for multi-seed
    /// scenarios).
    pub sim_seconds: u64,
    /// Deterministic counters: byte-identical across runs of one build.
    pub counters: BTreeMap<String, u64>,
    /// Host wall-clock for the whole scenario, nanoseconds.
    pub wall_ns: u64,
    /// Host wall-clock attributed per subsystem, nanoseconds.
    pub span_wall_ns: BTreeMap<String, u64>,
}

impl ScenarioBench {
    /// Scheduler events dispatched, from the counter table.
    pub fn events_total(&self) -> u64 {
        self.counters
            .get("sched.events_total")
            .copied()
            .unwrap_or(0)
    }

    /// Events dispatched per wall-clock second (0 when not measured).
    pub fn events_per_sec(&self) -> u64 {
        if self.wall_ns == 0 {
            return 0;
        }
        (self.events_total() as f64 / (self.wall_ns as f64 / 1e9)).round() as u64
    }
}

/// The whole suite's results plus provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Git revision the suite ran against — passed in by the caller,
    /// never read from the environment here.
    pub rev: String,
    /// Date of the run — likewise passed in, never read from the clock,
    /// so the determinism contract covers the full document.
    pub date: String,
    /// Per-scenario results, in fixed suite order.
    pub scenarios: Vec<ScenarioBench>,
}

/// Runs the fixed scenario suite. `rev`/`date` are recorded verbatim.
/// With `flamechart_capacity > 0`, the `fig4_lan` scenario additionally
/// retains up to that many spans and the Chrome-trace JSON is returned
/// alongside the report.
pub fn run_suite(
    rev: &str,
    date: &str,
    flamechart_capacity: usize,
) -> (BenchReport, Option<String>) {
    let mut scenarios = Vec::new();
    let mut flamechart = None;

    scenarios.push(run_preset_bench(
        "fig4_lan",
        42,
        flamechart_capacity,
        &mut flamechart,
    ));
    scenarios.push(run_preset_bench("fig5_wan", 42, 0, &mut None));
    scenarios.push(run_fleet_bench(42));
    scenarios.push(run_chaos_bench(1, 5));
    scenarios.push(run_flash_bench(42));

    (
        BenchReport {
            schema: BENCH_SCHEMA.to_owned(),
            rev: rev.to_owned(),
            date: date.to_owned(),
            scenarios,
        },
        flamechart,
    )
}

/// Folds a finished profiled run into `(counters, span_wall_ns)`.
/// `span.flamechart_dropped` is excluded: it depends on the flamechart
/// capacity flag, which must not change the gated counter table.
fn harvest(sim: &VodSim) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let report = sim.profile_report().expect("profiling was enabled");
    let counters = report
        .counters
        .into_iter()
        .filter(|(k, _)| k != "span.flamechart_dropped")
        .collect();
    (counters, report.wall_ns)
}

/// Highest number of concurrently live sessions in a fleet plan.
fn peak_sessions(plan: &FleetPlan) -> u64 {
    let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(plan.sessions.len() * 2);
    for s in &plan.sessions {
        deltas.push((s.start.as_micros(), 1));
        deltas.push((s.stop.as_micros(), -1));
    }
    // Stops sort before starts at the same instant, so a back-to-back
    // handover does not double-count.
    deltas.sort();
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, d) in deltas {
        live += d;
        peak = peak.max(live);
    }
    peak.max(0) as u64
}

/// Builds and runs one profiled scenario to `end`, timing build + run.
/// `peak` is its (known) peak of concurrently live sessions.
fn run_single(
    name: &str,
    builder: &ScenarioBuilder,
    end: SimTime,
    peak: u64,
) -> (ScenarioBench, VodSim) {
    let started = Instant::now();
    let mut sim = builder.build();
    sim.run_until(end);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let (mut counters, span_wall_ns) = harvest(&sim);
    counters.insert("peak_sessions".to_owned(), peak);
    let bench = ScenarioBench {
        name: name.to_owned(),
        sim_seconds: end.as_secs_f64() as u64,
        counters,
        wall_ns,
        span_wall_ns,
    };
    (bench, sim)
}

fn run_preset_bench(
    name: &str,
    seed: u64,
    flamechart_capacity: usize,
    flamechart: &mut Option<String>,
) -> ScenarioBench {
    let (mut builder, _, _) = match name {
        "fig4_lan" => presets::fig4_lan(seed),
        _ => presets::fig5_wan(seed),
    };
    if flamechart_capacity > 0 {
        builder.profile_flamechart(flamechart_capacity);
    } else {
        builder.profile_costs();
    }
    let (bench, sim) = run_single(name, &builder, SimTime::from_secs(92), 1);
    if flamechart_capacity > 0 {
        *flamechart = sim.profile().chrome_trace_json();
    }
    bench
}

fn run_fleet_bench(seed: u64) -> ScenarioBench {
    let profile = FleetProfile::small_fleet();
    let (mut builder, plan) =
        fleet_builder(&profile, seed, Some(ReplicationConfig::paper_default()));
    builder.profile_costs();
    let peak = peak_sessions(&plan);
    let (bench, _sim) = run_single("fleet_e3", &builder, profile.run_until(), peak);
    bench
}

/// Builds, runs and judges one campaign with cost profiling on and the
/// oracle replay charged to its own subsystem span, folding the run into
/// the multi-run scenario `bench`: wall-clock (build through oracle
/// replay), simulated seconds and plain counters sum, depth high-water
/// marks and the session peak take the max across runs.
fn run_profiled(campaign: &mut Campaign, bench: &mut ScenarioBench) -> Outcome {
    campaign.builder.profile_costs();
    let started = Instant::now();
    let mut sim = campaign.builder.build();
    sim.run_until(campaign.end);
    let handle = sim.profile().clone();
    let oracle = handle.time(Subsystem::OracleReplay, || campaign::oracle(&sim));
    bench.wall_ns += started.elapsed().as_nanos() as u64;
    bench.sim_seconds += campaign.end.as_secs_f64() as u64;
    let (mut run_counters, run_spans) = harvest(&sim);
    run_counters.insert("peak_sessions".to_owned(), peak_sessions(&campaign.plan));
    for (k, v) in run_counters {
        let is_peak = k.contains("peak");
        let slot = bench.counters.entry(k).or_insert(0);
        *slot = if is_peak { (*slot).max(v) } else { *slot + v };
    }
    for (k, v) in run_spans {
        *bench.span_wall_ns.entry(k).or_insert(0) += v;
    }
    campaign.judge_with(&sim, oracle)
}

/// Chaos campaigns at the `ftvod-cli chaos` defaults, one per seed.
fn run_chaos_bench(first_seed: u64, seeds: u64) -> ScenarioBench {
    let mut bench = ScenarioBench {
        name: "chaos_5seeds".to_owned(),
        ..ScenarioBench::default()
    };
    for seed in first_seed..first_seed + seeds {
        let (mut campaign, _faults) =
            campaign::chaos(CHAOS_CLIENTS, CHAOS_FAULTS, CHAOS_SYNC, seed);
        let outcome = run_profiled(&mut campaign, &mut bench);
        *bench
            .counters
            .entry("oracle_passes".to_owned())
            .or_insert(0) += u64::from(outcome.oracle.pass());
    }
    bench
}

/// The flash-crowd duel (EXPERIMENTS.md E7): the same seeded plan —
/// [`campaign::flash`], a 10× popularity shock on the coldest movie at
/// 12 s — run once under reactive hysteresis and once under
/// the predictive placement policy with the prefix-cache tier. Profiled
/// counters sum across the two runs (peaks take the max, like the chaos
/// scenario); on top sit per-policy headline counters namespaced
/// `reactive.*` / `predictive.*` and `predictive_dominates`, which is 1
/// exactly when predictive + prefix beats reactive on both total
/// unserved time and post-shock bring-up latency. The CI gate compares
/// all of them exactly, so a regression that costs predictive its win
/// flips a pinned bit.
fn run_flash_bench(seed: u64) -> ScenarioBench {
    let mut bench = ScenarioBench {
        name: "flash_crowd".to_owned(),
        ..ScenarioBench::default()
    };
    let mut unserved = BTreeMap::new();
    let mut first_bringup = BTreeMap::new();
    for (ns, policy, prefix) in [
        ("reactive", PolicyKind::Reactive, false),
        ("predictive", PolicyKind::Predictive, true),
    ] {
        let mut campaign = campaign::flash(policy, prefix, seed);
        let (shock_at, _) = campaign.shock.expect("the flash campaign has a shock");
        let outcome = run_profiled(&mut campaign, &mut bench);
        // How long after the shock the first extra replica of the shocked
        // movie came up; a run that never reacts scores the full run.
        let bringup_ms = outcome
            .first_tail_bringup
            .map_or((campaign.end.as_secs_f64() * 1e3).round() as u64, |at| {
                (at.as_micros() - shock_at.as_micros()) / 1000
            });
        let (fleet, run) = (&outcome.fleet, &outcome.run);
        let unserved_ms = (fleet.unserved_seconds * 1e3).round() as u64;
        let mut headline = |key: &str, v: u64| bench.counters.insert(format!("{ns}.{key}"), v);
        headline("unserved_ms", unserved_ms);
        headline("never_served", u64::from(fleet.never_served));
        headline("first_bringup_after_shock_ms", bringup_ms);
        headline("oracle_pass", u64::from(outcome.oracle.pass()));
        headline("bringups", run.replica_bringups);
        headline("prefix_serves", run.prefix_serves);
        headline("prefix_handoffs", run.prefix_handoffs);
        unserved.insert(ns, unserved_ms);
        first_bringup.insert(ns, bringup_ms);
    }
    let dominates = unserved["predictive"] < unserved["reactive"]
        && first_bringup["predictive"] < first_bringup["reactive"];
    bench
        .counters
        .insert("predictive_dominates".to_owned(), u64::from(dominates));
    bench
}

impl BenchReport {
    /// Renders the report as JSON. With `include_wall = false` every
    /// wall-clock-derived field (`wall_ns`, `events_per_sec`,
    /// `span_wall_ns`) is omitted, leaving a document that is
    /// byte-identical across runs of the same build and seed set.
    pub fn to_json(&self, include_wall: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{}\",\n  \"rev\": \"{}\",\n  \"date\": \"{}\",\n  \"scenarios\": [",
            escape(&self.schema),
            escape(&self.rev),
            escape(&self.date)
        );
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\n      \"name\": \"{}\",\n      \"sim_seconds\": {}",
                escape(&s.name),
                s.sim_seconds
            );
            if include_wall {
                let _ = write!(
                    out,
                    ",\n      \"wall_ns\": {},\n      \"events_per_sec\": {}",
                    s.wall_ns,
                    s.events_per_sec()
                );
                out.push_str(",\n      \"span_wall_ns\": {");
                for (j, (k, v)) in s.span_wall_ns.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n        \"{}\": {v}", escape(k));
                }
                out.push_str("\n      }");
            }
            out.push_str(",\n      \"counters\": {");
            for (j, (k, v)) in s.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n        \"{}\": {v}", escape(k));
            }
            out.push_str("\n      }\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a `BENCH_ftvod.json` document (with or without wall-clock
    /// fields).
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\"")?
            .to_owned();
        let rev = doc
            .get("rev")
            .and_then(Json::as_str)
            .ok_or("missing \"rev\"")?
            .to_owned();
        let date = doc
            .get("date")
            .and_then(Json::as_str)
            .ok_or("missing \"date\"")?
            .to_owned();
        let mut scenarios = Vec::new();
        for s in doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or("missing \"scenarios\"")?
        {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or("scenario missing \"name\"")?
                .to_owned();
            let sim_seconds = s
                .get("sim_seconds")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing \"sim_seconds\""))?;
            let wall_ns = s.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
            let mut counters = BTreeMap::new();
            for (k, v) in s
                .get("counters")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{name}: missing \"counters\""))?
            {
                counters.insert(
                    k.clone(),
                    v.as_u64()
                        .ok_or_else(|| format!("{name}: counter {k} is not a u64"))?,
                );
            }
            let mut span_wall_ns = BTreeMap::new();
            if let Some(spans) = s.get("span_wall_ns").and_then(Json::as_obj) {
                for (k, v) in spans {
                    span_wall_ns.insert(
                        k.clone(),
                        v.as_u64()
                            .ok_or_else(|| format!("{name}: span {k} is not a u64"))?,
                    );
                }
            }
            scenarios.push(ScenarioBench {
                name,
                sim_seconds,
                counters,
                wall_ns,
                span_wall_ns,
            });
        }
        Ok(BenchReport {
            schema,
            rev,
            date,
            scenarios,
        })
    }

    /// Compares `current` against `baseline`: counters must match
    /// exactly; per-scenario wall-clock must stay within
    /// `max_wall_ratio` × baseline (skipped when either side lacks a
    /// measurement). Returns one message per regression; empty means the
    /// gate passes.
    pub fn compare(
        baseline: &BenchReport,
        current: &BenchReport,
        max_wall_ratio: f64,
    ) -> Vec<String> {
        let mut regressions = Vec::new();
        if baseline.schema != current.schema {
            regressions.push(format!(
                "schema changed: baseline {:?} vs current {:?} (regenerate the baseline)",
                baseline.schema, current.schema
            ));
            return regressions;
        }
        for base in &baseline.scenarios {
            let Some(cur) = current.scenarios.iter().find(|s| s.name == base.name) else {
                regressions.push(format!("scenario {} missing from current run", base.name));
                continue;
            };
            if base.sim_seconds != cur.sim_seconds {
                regressions.push(format!(
                    "{}: sim_seconds {} -> {}",
                    base.name, base.sim_seconds, cur.sim_seconds
                ));
            }
            for (k, bv) in &base.counters {
                match cur.counters.get(k) {
                    None => regressions.push(format!("{}: counter {k} disappeared", base.name)),
                    Some(cv) if cv != bv => regressions.push(format!(
                        "{}: counter {k} diverged: baseline {bv}, current {cv}",
                        base.name
                    )),
                    Some(_) => {}
                }
            }
            for k in cur.counters.keys() {
                if !base.counters.contains_key(k) {
                    regressions.push(format!(
                        "{}: new counter {k} not in baseline (regenerate the baseline)",
                        base.name
                    ));
                }
            }
            if base.wall_ns > 0 && cur.wall_ns > 0 {
                let ratio = cur.wall_ns as f64 / base.wall_ns as f64;
                if ratio > max_wall_ratio {
                    regressions.push(format!(
                        "{}: wall-clock regressed {ratio:.2}x over baseline ({} ms -> {} ms, threshold {max_wall_ratio:.2}x)",
                        base.name,
                        base.wall_ns / 1_000_000,
                        cur.wall_ns / 1_000_000,
                    ));
                }
            }
        }
        for cur in &current.scenarios {
            if !baseline.scenarios.iter().any(|s| s.name == cur.name) {
                regressions.push(format!(
                    "new scenario {} not in baseline (regenerate the baseline)",
                    cur.name
                ));
            }
        }
        regressions
    }

    /// Renders a compact human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>10} {:>12} {:>10} {:>8}",
            "scenario", "sim_s", "wall_ms", "events", "ev/s", "peak"
        );
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>10} {:>12} {:>10} {:>8}",
                s.name,
                s.sim_seconds,
                s.wall_ns / 1_000_000,
                s.events_total(),
                s.events_per_sec(),
                s.counters.get("peak_sessions").copied().unwrap_or(0),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(counter: u64, wall: u64) -> BenchReport {
        let mut counters = BTreeMap::new();
        counters.insert("sched.events_total".to_owned(), counter);
        BenchReport {
            schema: BENCH_SCHEMA.to_owned(),
            rev: "deadbeef".to_owned(),
            date: "2026-01-01".to_owned(),
            scenarios: vec![ScenarioBench {
                name: "tiny".to_owned(),
                sim_seconds: 10,
                counters,
                wall_ns: wall,
                span_wall_ns: BTreeMap::new(),
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut report = tiny_report(123, 456_789);
        let parsed = BenchReport::parse(&report.to_json(true)).unwrap();
        assert_eq!(parsed, report);
        // Whatever `--rev` was handed survives, JSON metacharacters included.
        report.rev = "a\"b\\c\nd".to_owned();
        let parsed = BenchReport::parse(&report.to_json(true)).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn counters_only_json_omits_wall_clock() {
        let report = tiny_report(123, 456_789);
        let json = report.to_json(false);
        assert!(!json.contains("wall_ns"));
        assert!(!json.contains("events_per_sec"));
        let parsed = BenchReport::parse(&json).unwrap();
        assert_eq!(parsed.scenarios[0].wall_ns, 0);
        assert_eq!(parsed.scenarios[0].counters["sched.events_total"], 123);
    }

    #[test]
    fn compare_flags_counter_divergence() {
        let base = tiny_report(123, 0);
        let same = tiny_report(123, 0);
        assert!(BenchReport::compare(&base, &same, 2.0).is_empty());
        let diverged = tiny_report(124, 0);
        let messages = BenchReport::compare(&base, &diverged, 2.0);
        assert_eq!(messages.len(), 1);
        assert!(messages[0].contains("sched.events_total"));
    }

    #[test]
    fn compare_flags_wall_regression_only_past_threshold() {
        let base = tiny_report(123, 1_000_000);
        let slower = tiny_report(123, 2_500_000);
        assert!(BenchReport::compare(&base, &slower, 3.0).is_empty());
        let messages = BenchReport::compare(&base, &slower, 2.0);
        assert_eq!(messages.len(), 1);
        assert!(messages[0].contains("wall-clock"));
        // A baseline without wall measurements never gates wall-clock.
        let no_wall = tiny_report(123, 0);
        assert!(BenchReport::compare(&no_wall, &slower, 0.001).is_empty());
    }

    #[test]
    fn peak_session_sweep_counts_overlap() {
        use ftvod_core::workload::FleetProfile;
        let profile = FleetProfile::small_fleet();
        let plan = FleetPlan::generate(&profile, 42);
        let peak = peak_sessions(&plan);
        assert!(peak >= 1);
        assert!(peak <= plan.sessions.len() as u64);
    }
}
