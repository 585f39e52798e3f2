//! The traced pass: the same runs with the program's own opt-in cost
//! counters on (`ScenarioBuilder::profile_costs()`), stepped one
//! simulated second at a time, with a benchmark-side span around every
//! call into a layer.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::harness::{run_sliced, Pass};
use crate::runs::{check, declare, fold, Instrument, RunKind};
use crate::spans::Spans;
use crate::workloads::Workload;

/// `events_jsonl` renders the whole ring into one string; only the first
/// few runs of a pass are rendered, which is enough for a per-event cost.
const JSONL_RUNS: usize = 3;

/// What the traced pass adds to a [`Pass`].
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Times and outcomes, unit by unit as in an untraced pass.
    pub pass: Pass,
    /// The program's deterministic profile counters, summed over the
    /// runs (`*peak*` counters take the maximum).
    pub counters: BTreeMap<String, u64>,
    /// Host nanoseconds inside the program's named spans, summed.
    pub named_ns: BTreeMap<String, u64>,
    /// Host milliseconds per simulated second, one per slice.
    pub slice_ms: Vec<f64>,
    /// Host nanoseconds inside `ScenarioBuilder::build`.
    pub build_ns: u64,
    /// Processes those builds created.
    pub nodes: u64,
    /// `events_jsonl`: host nanoseconds, bytes and events rendered.
    pub jsonl: (u64, u64, u64),
}

impl Traced {
    /// A summed counter, 0 when the program never reported it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Makes one traced pass over `runs`, recording spans into `spans`.
pub fn traced_pass(
    workload: Workload,
    runs: &[(RunKind, u64)],
    quick: bool,
    spans: &mut Spans,
) -> Traced {
    let instrument = Instrument {
        profile_costs: true,
        no_recording: false,
    };
    let mut out = Traced::default();
    for (unit, &(kind, seed)) in runs.iter().enumerate() {
        let unit = unit as u32;
        out.pass.begin_run();
        let unit_span = spans.open("unit", unit);

        let (declared, declare_ns) = spans.time("declare", unit, || declare(kind, seed));
        let (mut run, build_ns) = spans.time("ScenarioBuilder::build", unit, || {
            declared.build(instrument)
        });
        out.pass.setup_ns.push(declare_ns + build_ns);
        out.build_ns += build_ns;
        out.nodes += u64::from(run.nodes);
        run.end = workload.end(run.end, quick);

        // One-second slices, summed back into the units the untraced
        // pass times, so the two compare unit by unit.
        let per_unit = workload.unit_slice().map_or(u64::MAX, |d| d.as_secs());
        let mut slices_in_unit = 0;
        let mut unit_ns = 0;
        let mut events_before = 0;
        run_sliced(
            &mut run,
            Some(Duration::from_secs(1)),
            |run, started, ns| {
                unit_ns += ns;
                slices_in_unit += 1;
                if slices_in_unit == per_unit {
                    out.pass.end_unit(unit_ns);
                    (slices_in_unit, unit_ns) = (0, 0);
                }
                out.slice_ms.push(ns as f64 / 1e6);
                let events = run
                    .sim
                    .sim_mut()
                    .profile()
                    .map_or(0, simnet::SimProfile::events_total);
                let ended = started + Duration::from_nanos(ns);
                let span = spans.add("VodSim::run_until", unit, started, ended);
                spans.set_events(span, events - events_before);
                events_before = events;
            },
        );
        if slices_in_unit > 0 {
            out.pass.end_unit(unit_ns);
        }

        let checked = check(&run);
        let [a, b, c, d] = checked.marks;
        if checked.oracle.is_some() {
            spans.add("OracleReport::check", unit, a, b);
            spans.add("VodSim::report", unit, b, c);
        }
        if checked.fleet.is_some() {
            spans.add("FleetReport::from_sim", unit, c, d);
        }
        out.pass.charge_checks(&checked);

        if run.recording && (unit as usize) < JSONL_RUNS {
            let (jsonl, ns) = spans.time("VodSim::events_jsonl", unit, || run.sim.events_jsonl());
            let jsonl = jsonl.unwrap_or_default();
            out.jsonl.0 += ns;
            out.jsonl.1 += jsonl.len() as u64;
            out.jsonl.2 += jsonl.lines().count() as u64;
        }

        let profile = run
            .sim
            .profile_report()
            .expect("the traced pass turns profiling on");
        for (name, value) in profile.counters {
            let peak = name.contains("peak");
            let slot = out.counters.entry(name).or_insert(0);
            *slot = if peak {
                (*slot).max(value)
            } else {
                *slot + value
            };
        }
        for (name, ns) in profile.wall_ns {
            *out.named_ns.entry(name).or_insert(0) += ns;
        }

        out.pass.outcomes.push(fold(&run, &checked));
        spans.close(unit_span);
    }
    out
}
