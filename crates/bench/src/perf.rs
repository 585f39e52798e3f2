//! The fixed perf-suite behind `ftvod-cli perf` and the counters document
//! of the golden gate.
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
//! event counts, span counts, network totals, peak concurrent sessions),
//! byte-identical across runs of the same build. [`to_json`] renders
//! them as the document pinned as `tests/golden/perf_counters.json`, so
//! any counter a change moves fails `scripts/golden.sh`. Nothing here
//! reads the clock: timing is the repo benchmark's job (`benchmark/`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ftvod_core::campaign::{self, Campaign, Outcome, CHAOS_CLIENTS, CHAOS_FAULTS, CHAOS_SYNC};
use ftvod_core::config::ReplicationConfig;
use ftvod_core::experiments::Report;
use ftvod_core::forecast::PolicyKind;
use ftvod_core::json::escape;
use ftvod_core::profile::Subsystem;
use ftvod_core::scenario::{presets, ScenarioBuilder, VodSim};
use ftvod_core::workload::{fleet_builder, FleetPlan, FleetProfile};
use simnet::SimTime;

/// Schema tag of the counters document; bump on any layout change.
pub const BENCH_SCHEMA: &str = "ftvod-bench/v1";

/// The deterministic costs of one suite scenario.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioBench {
    /// Stable scenario name.
    pub name: String,
    /// Simulated seconds covered (summed across seeds for multi-seed
    /// scenarios).
    pub sim_seconds: u64,
    /// Deterministic counters: byte-identical across runs of one build.
    pub counters: BTreeMap<String, u64>,
}

/// Runs the fixed scenario suite, in fixed order. With
/// `flamechart_capacity > 0`, the `fig4_lan` scenario additionally
/// retains up to that many spans and the Chrome-trace JSON is returned
/// alongside the results.
pub fn run_suite(flamechart_capacity: usize) -> (Vec<ScenarioBench>, Option<String>) {
    let mut flamechart = None;
    let scenarios = vec![
        run_preset_bench("fig4_lan", 42, flamechart_capacity, &mut flamechart),
        run_preset_bench("fig5_wan", 42, 0, &mut None),
        run_fleet_bench(42),
        run_chaos_bench(1, 5),
        run_flash_bench(42),
    ];
    (scenarios, flamechart)
}

/// The deterministic counters of a finished profiled run.
/// `span.flamechart_dropped` is excluded: it depends on the flamechart
/// capacity flag, which must not change the gated counter table.
fn harvest(sim: &VodSim) -> BTreeMap<String, u64> {
    let report = sim.profile_report().expect("profiling was enabled");
    report
        .counters
        .into_iter()
        .filter(|(k, _)| k != "span.flamechart_dropped")
        .collect()
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

/// Builds and runs one profiled scenario to `end`. `peak` is its (known)
/// peak of concurrently live sessions.
fn run_single(
    name: &str,
    builder: &ScenarioBuilder,
    end: SimTime,
    peak: u64,
) -> (ScenarioBench, VodSim) {
    let mut sim = builder.build();
    sim.run_until(end);
    let mut counters = harvest(&sim);
    counters.insert("peak_sessions".to_owned(), peak);
    let bench = ScenarioBench {
        name: name.to_owned(),
        sim_seconds: end.as_secs_f64() as u64,
        counters,
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
/// the multi-run scenario `bench`: simulated seconds and plain counters
/// sum, depth high-water marks and the session peak take the max across
/// runs.
fn run_profiled(campaign: &mut Campaign, bench: &mut ScenarioBench) -> Outcome {
    campaign.builder.profile_costs();
    let mut sim = campaign.builder.build();
    sim.run_until(campaign.end);
    let handle = sim.profile().clone();
    let oracle = handle.time(Subsystem::OracleReplay, || campaign::oracle(&sim));
    bench.sim_seconds += campaign.end.as_secs_f64() as u64;
    let mut run_counters = harvest(&sim);
    run_counters.insert("peak_sessions".to_owned(), peak_sessions(&campaign.plan));
    for (k, v) in run_counters {
        let is_peak = k.contains("peak");
        let slot = bench.counters.entry(k).or_insert(0);
        *slot = if is_peak { (*slot).max(v) } else { *slot + v };
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

/// Renders the counters document. Schema v1 carries a `rev` and a
/// `date`; this document never recorded either.
pub fn to_json(scenarios: &[ScenarioBench]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"rev\": \"unknown\",\n  \"date\": \"unknown\",\n  \"scenarios\": ["
    );
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\n      \"name\": \"{}\",\n      \"sim_seconds\": {}",
            escape(&s.name),
            s.sim_seconds
        );
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

/// Renders a compact human-readable summary table.
pub fn render_table(scenarios: &[ScenarioBench]) -> String {
    let mut report = Report::default();
    report.table(
        "scenario\tsim_s\tevents\tpeak sessions",
        scenarios.iter().map(|s| {
            let counter = |key| s.counters.get(key).copied().unwrap_or(0);
            let (events, peak) = (counter("sched.events_total"), counter("peak_sessions"));
            format!("{}\t{}\t{events}\t{peak}", s.name, s.sim_seconds)
        }),
    );
    report.text().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_document_holds_the_counters_with_strings_escaped() {
        let mut counters = BTreeMap::new();
        counters.insert("sched.events_total".to_owned(), 123);
        let scenarios = [ScenarioBench {
            name: "tiny \"quoted\"".to_owned(),
            sim_seconds: 10,
            counters,
        }];
        let json = to_json(&scenarios);
        assert!(json.starts_with("{\n  \"schema\": \"ftvod-bench/v1\",\n"));
        assert!(json.contains("\"name\": \"tiny \\\"quoted\\\"\""));
        assert!(json.contains("\"sched.events_total\": 123"));
        assert_eq!(
            render_table(&scenarios),
            "  scenario       sim_s  events  peak sessions\n  tiny \"quoted\"     10     123              0\n\n"
        );
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
