//! Passes over a workload and the timing rule that turns them into host
//! metrics.

use std::time::{Duration, Instant};

use simnet::SimTime;

use crate::reference;
use crate::runs::{check, fold, prepare, Checked, Instrument, Prepared, RunKind, RunOutcome};
use crate::stats::{median, timed, unit_min_sum, Fnv};
use crate::workloads::Workload;

/// Host times and outcomes of one pass over every run of a workload.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Set-up time of each run (everything before its first `run_until`).
    pub setup_ns: Vec<u64>,
    /// Time of each unit: a slice of `run_until`, or a whole run with its
    /// post-run checks.
    pub unit_ns: Vec<u64>,
    /// The `run_until` part of each unit, without the checks.
    pub run_ns: Vec<u64>,
    /// Time each run spent inside `OracleReport::check`.
    pub oracle_ns: Vec<u64>,
    /// Time each run spent inside `VodSim::report`.
    pub report_ns: Vec<u64>,
    /// What each run folded to.
    pub outcomes: Vec<RunOutcome>,
    /// Index of each run's first unit.
    pub first_unit: Vec<usize>,
    /// Reference bursts: `(units finished before the burst, its time)`.
    pub bursts: Vec<(usize, u64)>,
    /// Unit time since the last burst.
    since_burst_ns: u64,
}

/// A reference burst follows every unit once this much unit time has
/// passed since the last one: about 5 % on top of the work.
const BURST_EVERY_NS: u64 = 30_000_000;

impl Pass {
    /// Hash of every run's digest, in run order.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv::new();
        for outcome in &self.outcomes {
            hash.number(outcome.digest);
        }
        hash.finish()
    }

    /// Whole-pass host time as measured, set-up excluded.
    pub fn wall_ns(&self) -> u64 {
        self.unit_ns.iter().sum()
    }

    /// Opens a run: notes its first unit and, at the start of the pass,
    /// times the first reference burst.
    pub fn begin_run(&mut self) {
        self.first_unit.push(self.unit_ns.len());
        if self.bursts.is_empty() {
            self.bursts.push((0, reference::burst()));
        }
    }

    /// Records a finished unit (its time and the `run_until` part of it)
    /// and times a reference burst when one is due.
    pub fn end_unit(&mut self, ns: u64) {
        self.unit_ns.push(ns);
        self.run_ns.push(ns);
        self.since_burst_ns += ns;
        if self.since_burst_ns >= BURST_EVERY_NS {
            self.since_burst_ns = 0;
            self.bursts.push((self.unit_ns.len(), reference::burst()));
        }
    }

    /// Charges a run's post-run checks to the run's last unit: a run
    /// that is a single unit is then timed as run + checks.
    pub fn charge_checks(&mut self, checked: &Checked) {
        *self.unit_ns.last_mut().expect("the run has a unit") += checked.total_ns();
        self.oracle_ns.push(checked.oracle_ns());
        self.report_ns.push(checked.report_ns());
    }
}

/// Steps `run` to its end in slices of `slice` (one call when `None`),
/// handing each slice's start and host time to `on_slice`.
pub fn run_sliced(
    run: &mut Prepared,
    slice: Option<Duration>,
    mut on_slice: impl FnMut(&mut Prepared, Instant, u64),
) {
    let mut now = SimTime::ZERO;
    while now < run.end {
        let next = slice.map_or(run.end, |s| (now + s).min(run.end));
        let clock = Instant::now();
        run.sim.run_until(next);
        let ns = clock.elapsed().as_nanos() as u64;
        on_slice(run, clock, ns);
        now = next;
    }
}

/// One untraced pass: every run set up, run to its end and checked, each
/// stage timed from outside.
pub fn pass(
    workload: Workload,
    runs: &[(RunKind, u64)],
    quick: bool,
    instrument: Instrument,
) -> Pass {
    let mut out = Pass::default();
    // A workload of few runs has few set-ups to time, and a set-up is
    // short: repeat it until a pass holds at least this many.
    const SETUPS_PER_PASS: usize = 8;
    let repeats = SETUPS_PER_PASS.div_ceil(runs.len().max(1));
    for &(kind, seed) in runs {
        out.begin_run();
        let (mut setup_ns, mut run) = timed(|| prepare(kind, seed, instrument));
        for _ in 1..repeats {
            let (ns, again) = timed(|| prepare(kind, seed, instrument));
            (setup_ns, run) = (setup_ns.min(ns), again);
        }
        out.setup_ns.push(setup_ns);
        run.end = workload.end(run.end, quick);

        run_sliced(&mut run, workload.unit_slice(), |_, _, ns| out.end_unit(ns));

        let checked = check(&run);
        out.charge_checks(&checked);
        out.outcomes.push(fold(&run, &checked));
    }
    out
}

/// Host metrics of a set of passes, by the timing rule. Every time is
/// first divided by the machine's slowdown around it (see
/// [`reference`]), so they are seconds of a machine in the calm mode of
/// the sizing box; the `raw` fields are the same sums as measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTimes {
    /// Σ over units of the unit's fastest pass, seconds.
    pub wall_s: f64,
    /// Σ over runs of the run's fastest set-up, seconds.
    pub setup_s: f64,
    /// Σ over units of the fastest `run_until` part, seconds.
    pub run_s: f64,
    /// Σ over runs of the run's fastest `OracleReport::check`, seconds.
    pub oracle_s: f64,
    /// Σ over runs of the run's fastest `VodSim::report`, seconds.
    pub report_s: f64,
    /// `wall_s` without the division: as the clock read it.
    pub wall_raw_s: f64,
    /// `setup_s` without the division.
    pub setup_raw_s: f64,
    /// Median slowdown over all units of all passes (1 = calm).
    pub slowdown: f64,
    /// Median whole-pass time as measured, seconds (diagnostic).
    pub pass_median_s: f64,
    /// Longest minus shortest whole pass as measured, seconds
    /// (diagnostic).
    pub pass_range_s: f64,
}

/// Applies the timing rule to `passes`.
pub fn host_times(passes: &[&Pass]) -> HostTimes {
    // One slowdown per unit and pass; a per-run time takes the slowdown
    // at its run's first unit.
    let slow: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| {
            (0..p.unit_ns.len())
                .map(|u| reference::slowdown(&p.bursts, u))
                .collect()
        })
        .collect();
    // `per_run` columns hold one time per run, the others one per unit;
    // `calm` divides each time by the slowdown around it.
    let column = |times: fn(&Pass) -> &Vec<u64>, per_run: bool, calm: bool| -> f64 {
        let table: Vec<Vec<u64>> = passes
            .iter()
            .zip(&slow)
            .map(|(p, slow)| {
                times(p)
                    .iter()
                    .enumerate()
                    .map(|(i, &ns)| {
                        let unit = if per_run { p.first_unit[i] } else { i };
                        if calm {
                            (ns as f64 / slow[unit]) as u64
                        } else {
                            ns
                        }
                    })
                    .collect()
            })
            .collect();
        unit_min_sum(&table) as f64 / 1e9
    };
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns() as f64 / 1e9).collect();
    let all_slow: Vec<f64> = slow.iter().flatten().copied().collect();
    HostTimes {
        wall_s: column(|p| &p.unit_ns, false, true),
        setup_s: column(|p| &p.setup_ns, true, true),
        run_s: column(|p| &p.run_ns, false, true),
        oracle_s: column(|p| &p.oracle_ns, true, true),
        report_s: column(|p| &p.report_ns, true, true),
        wall_raw_s: column(|p| &p.unit_ns, false, false),
        setup_raw_s: column(|p| &p.setup_ns, true, false),
        slowdown: median(&all_slow).unwrap_or(1.0),
        pass_median_s: median(&walls).unwrap_or(0.0),
        pass_range_s: walls.iter().copied().fold(0.0, f64::max)
            - walls.iter().copied().fold(f64::INFINITY, f64::min),
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
