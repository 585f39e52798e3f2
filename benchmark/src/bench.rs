//! The two invocations: the untraced one that yields the end-to-end
//! metrics, and the traced one that yields the per-layer metrics.

use std::time::Instant;

use crate::harness::{host_times, pass, peak_rss_mb, Pass};
use crate::kernels::{self, EventMix};
use crate::layers;
use crate::metrics::Values;
use crate::report::RunResult;
use crate::runs::{Instrument, RunKind};
use crate::service::Service;
use crate::spans::Spans;
use crate::traced::{traced_pass, Traced};
use crate::workloads::Workload;

/// What the command line selects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Shifts every default seed by `seed × SEED_STRIDE`.
    pub seed: u64,
    /// Measuring budget in seconds: passes are repeated until it is used.
    pub seconds: f64,
    /// One pass over a tenth of the runs; for the self-tests only.
    pub quick: bool,
}

/// Fewest and most timed passes of an invocation. Two are the fewest
/// that let the digests of one run be compared with another's; more than
/// four would let a faster program buy itself a lower minimum.
const PASSES: (usize, usize) = (2, 4);

/// Whether one more round, as long as the mean of the `rounds` made since
/// `started`, still fits the budget: it may overrun by at most half of
/// itself.
fn fits(started: Instant, budget_s: f64, rounds: usize) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    elapsed + 0.5 * elapsed / rounds.max(1) as f64 <= budget_s
}

/// What the correctness checks of an invocation found.
struct Checks {
    /// Sessions whose unit failed a harness check.
    failed: u64,
    /// Whether every check held.
    correct: bool,
    /// Failing units, oracle verdicts that are not pass, never-served
    /// sessions and violated bands, for the reader.
    notes: Vec<String>,
}

/// The checks on a set of passes over the same runs: sessions of every
/// unit whose digest differs between passes or whose trace ring evicted
/// events count as failed; a violated T4 band makes the result incorrect.
fn judge(runs: &[(RunKind, u64)], passes: &[&Pass], service: &Service) -> Checks {
    let first = passes[0];
    let mut failed = 0;
    let mut notes = Vec::new();
    for (i, (&(kind, seed), outcome)) in runs.iter().zip(&first.outcomes).enumerate() {
        let differs = passes
            .iter()
            .any(|p| p.outcomes[i].digest != outcome.digest);
        let evicted = outcome
            .reported
            .as_ref()
            .is_some_and(|r| r.events_dropped > 0);
        if differs || evicted {
            failed += outcome.sessions;
            notes.push(format!(
                "unit {i} ({kind:?} seed {seed}) failed: {}",
                if differs {
                    "its digest differs between passes"
                } else {
                    "its trace ring evicted events"
                }
            ));
        }
    }
    if !service.oracle_fails.is_empty() {
        let list: Vec<String> = service
            .oracle_fails
            .iter()
            .map(|(seed, token)| format!("seed {seed} {token}"))
            .collect();
        notes.push(format!(
            "oracle: {} of {} unit(s) not pass: {}",
            list.len(),
            service.oracle_runs,
            list.join("; ")
        ));
    }
    if service.never_served > 0 {
        notes.push(format!(
            "{} of {} session(s) never served",
            service.never_served, service.sessions
        ));
    }
    let violations = service.t4_violations();
    for violation in &violations {
        notes.push(format!("T4 band violated: {violation}"));
    }
    Checks {
        failed,
        correct: failed == 0 && violations.is_empty(),
        notes,
    }
}

/// The untraced invocation: timed passes until the budget is used, host
/// metrics by the timing rule, service metrics from pass 1.
pub fn run_untraced(opts: Options) -> RunResult {
    let runs = opts.workload.runs(opts.seed, opts.quick);
    let started = Instant::now();
    let (fewest, most) = if opts.quick { (1, 1) } else { PASSES };
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass(
            opts.workload,
            &runs,
            opts.quick,
            Instrument::default(),
        ));
        let n = passes.len();
        if n >= most || (n >= fewest && !fits(started, opts.seconds, n)) {
            break;
        }
    }

    let passes: Vec<&Pass> = passes.iter().collect();
    let host = host_times(&passes);
    let service = Service::fold(&runs, &passes[0].outcomes);
    let mut checks = judge(&runs, &passes, &service);

    let mut values = Values::default();
    values.put("setup_s", host.setup_s);
    values.put("wall_s", host.wall_s);
    service.metrics(&mut values);
    values.put_n("peak_rss_mb", peak_rss_mb(), None);
    values.put("wall_raw_s", host.wall_raw_s);
    values.put("setup_raw_s", host.setup_raw_s);
    values.put("slowdown", host.slowdown);
    checks.notes.push(format!(
        "whole passes as measured: median {:.4} s, range {:.4} s; wall_s without the post-run \
         checks {:.4} s",
        host.pass_median_s, host.pass_range_s, host.run_s
    ));

    RunResult {
        workload: opts.workload,
        traced: false,
        seed: opts.seed,
        quick: opts.quick,
        passes: passes.len(),
        shape: (runs.len(), passes[0].unit_ns.len()),
        attempted: service.sessions,
        failed: checks.failed,
        correct: checks.correct,
        digest: passes[0].digest(),
        values,
        notes: checks.notes,
    }
}

/// The traced invocation: untraced and traced passes in turn until the
/// budget is used, then the recording-off passes, the half-size fleet
/// and the kernels. Returns the result and the spans to write out.
pub fn run_traced(opts: Options) -> (RunResult, Spans) {
    let runs = opts.workload.runs(opts.seed, opts.quick);
    let mut spans = Spans::new();
    let started = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    loop {
        untraced.push(pass(
            opts.workload,
            &runs,
            opts.quick,
            Instrument::default(),
        ));
        traced.push(traced_pass(opts.workload, &runs, opts.quick, &mut spans));
        let n = traced.len();
        if opts.quick || n >= PASSES.1 - 1 || !fits(started, opts.seconds, n) {
            break;
        }
    }
    let untraced: Vec<&Pass> = untraced.iter().collect();
    let traced_passes: Vec<&Pass> = traced.iter().map(|t| &t.pass).collect();
    let host = host_times(&untraced);
    let traced_times = host_times(&traced_passes);
    let calmest = traced
        .iter()
        .min_by_key(|t| t.pass.run_ns.iter().sum::<u64>())
        .expect("at least one traced pass");

    let records = untraced[0].outcomes.iter().any(|o| o.reported.is_some());
    let norecord_run_s = records.then(|| {
        let off = Instrument {
            profile_costs: false,
            no_recording: true,
        };
        let passes: Vec<Pass> = (0..untraced.len().min(2))
            .map(|_| pass(opts.workload, &runs, opts.quick, off))
            .collect();
        host_times(&passes.iter().collect::<Vec<_>>()).run_s
    });
    let half_run_s = (opts.workload == Workload::SteadyFleet).then(|| {
        let half = [(RunKind::SteadyFleetHalf, runs[0].1)];
        let passes: Vec<Pass> = (0..2)
            .map(|_| pass(opts.workload, &half, opts.quick, Instrument::default()))
            .collect();
        host_times(&passes.iter().collect::<Vec<_>>()).run_s
    });

    let mix = EventMix {
        timer_events: calmest.counter("sched.timer_fired")
            + calmest.counter("sched.timer_squashed")
            + calmest.counter("sched.timer_dead"),
        deliver_events: calmest.counter("sched.deliver_events"),
        peak_queue_depth: calmest.counter("sched.peak_queue_depth"),
    };
    let clients = untraced[0]
        .outcomes
        .iter()
        .map(|o| o.sessions)
        .max()
        .unwrap_or(1) as u32;
    let simnet = kernels::simnet(&mut spans, mix);
    let gcs = kernels::gcs(&mut spans);
    let calls = kernels::calls(&mut spans, clients, opts.workload.servers(), runs[0].1);

    let service = Service::fold(&runs, &untraced[0].outcomes);
    let all: Vec<&Pass> = untraced.iter().chain(&traced_passes).copied().collect();
    let checks = judge(&runs, &all, &service);

    let mut values = Values::default();
    layers::metrics(
        &layers::Inputs {
            untraced: host,
            traced_times,
            traced: calmest,
            traced_slowdown: host_times(&[&calmest.pass]).slowdown,
            norecord_run_s,
            half_run_s,
            outcomes: &untraced[0].outcomes,
            service: &service,
            simnet,
            gcs,
            calls,
        },
        &mut values,
    );

    let result = RunResult {
        workload: opts.workload,
        traced: true,
        seed: opts.seed,
        quick: opts.quick,
        passes: untraced.len(),
        shape: (runs.len(), untraced[0].unit_ns.len()),
        attempted: service.sessions,
        failed: checks.failed,
        correct: checks.correct,
        digest: untraced[0].digest(),
        values,
        notes: checks.notes,
    };
    (result, spans)
}
