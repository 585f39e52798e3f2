//! `ftvod-benchmark compare A B`: one row per metric × workload with
//! both values, the ratio with its base, and a verdict under the
//! metric's bound. This is what checks "two sets of runs agree".
//!
//! A and B are files of result lines (`--out` appends one per
//! invocation). Several lines for one workload are repeated runs: the
//! row shows their medians, and a host metric whose run-to-run spread
//! (distance between the quartiles) exceeds the allowed change is
//! reported as unresolved rather than as same.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{def, Better, Def, Tier};
use crate::report::format_value;
use crate::stats::median;

/// How B stands to A on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Host metric within its bound; simulated metric exactly equal.
    Same,
    /// Differs for the better.
    Better,
    /// Differs for the worse: a host metric by more than its bound, a
    /// simulated metric by any amount (it repeats exactly, so any
    /// difference is a real change).
    Worse,
    /// The run-to-run spread hides the difference.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile of `values` (inclusive
/// method), or `None` below four values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    Some(at(0.75) - at(0.25))
}

/// One judged row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Median of A's runs.
    pub a: f64,
    /// Median of B's runs.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Whether B is worse than A by more than the bound allows, on an
    /// end-to-end metric. Per-layer metrics say where a change happened;
    /// they have no bound to break.
    pub regression: bool,
}

/// Judges B's runs against A's on the metric `d`.
pub fn judge(d: &Def, a_runs: &[f64], b_runs: &[f64]) -> Option<Row> {
    let (a, b) = (median(a_runs)?, median(b_runs)?);
    let allowed = (d.bound * a.abs()).max(d.floor);
    let worse_by = match d.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let verdict = if d.exact {
        let all_equal = a_runs.iter().chain(b_runs).all(|&v| v == a);
        if all_equal {
            Verdict::Same
        } else if worse_by > 0.0 {
            Verdict::Worse
        } else if worse_by < 0.0 {
            Verdict::Better
        } else {
            // Equal medians over runs that differ among themselves:
            // the files hold different seeds.
            Verdict::Unresolved
        }
    } else {
        let spread = quartile_spread(a_runs)
            .into_iter()
            .chain(quartile_spread(b_runs))
            .fold(0.0, f64::max);
        if spread > allowed.max(worse_by.abs()) {
            Verdict::Unresolved
        } else if worse_by.abs() <= allowed {
            Verdict::Same
        } else if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    };
    Some(Row {
        a,
        b,
        verdict,
        regression: verdict == Verdict::Worse
            && worse_by > allowed
            && matches!(d.tier, Tier::EndToEnd | Tier::EndToEndExtra),
    })
}

/// The runs of one `(workload, traced)` group in one file.
#[derive(Clone, Debug, Default)]
struct Group {
    seeds: Vec<u64>,
    digests: Vec<String>,
    failed: Vec<f64>,
    incorrect: usize,
    metrics: BTreeMap<String, Vec<f64>>,
}

type Groups = BTreeMap<(String, bool), Group>;

fn load(text: &str) -> Result<Groups, String> {
    let mut groups = Groups::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |key: &str| doc.get(key).ok_or(format!("line {}: no \"{key}\"", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_owned();
        let traced = field("traced")? == &Json::Bool(true);
        let group = groups.entry((workload, traced)).or_default();
        group
            .seeds
            .push(field("seed")?.as_f64().unwrap_or(0.0) as u64);
        group.digests.push(
            field("counters_digest")?
                .as_str()
                .unwrap_or_default()
                .to_owned(),
        );
        group.failed.push(field("failed")?.as_f64().unwrap_or(0.0));
        group.incorrect += usize::from(field("correct")? != &Json::Bool(true));
        let metrics = field("metrics")?
            .as_object()
            .ok_or(format!("line {}: \"metrics\" is not an object", n + 1))?;
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                group.metrics.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(groups)
}

/// Compares two files of result lines. Returns the table and whether
/// any row is a regression.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(a_text)?, load(b_text)?);
    let mut out = String::new();
    let mut any_regression = false;
    let _ = writeln!(
        out,
        "{:<15} {:<40} {:>14} {:>14} {:>12}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)"
    );
    for (key, ga) in &a {
        let label = format!("{}{}", key.0, if key.1 { "+trace" } else { "" });
        let Some(gb) = b.get(key) else {
            let _ = writeln!(out, "{label:<15} only in A");
            continue;
        };
        let mut note = |what: &str, same: bool, detail: String| {
            let _ = writeln!(
                out,
                "{label:<15} {what:<40} {detail:>56}  {}",
                if same { "same" } else { "differs" }
            );
        };
        note(
            "seeds",
            ga.seeds == gb.seeds,
            format!("{:?} | {:?}", ga.seeds, gb.seeds),
        );
        note(
            "counters_digest",
            ga.digests == gb.digests,
            format!(
                "{} | {}",
                ga.digests.first().map_or("-", String::as_str),
                gb.digests.first().map_or("-", String::as_str)
            ),
        );
        note(
            "sessions_failed",
            ga.failed == gb.failed,
            format!("{:?} | {:?}", ga.failed, gb.failed),
        );
        note(
            "correct",
            ga.incorrect == gb.incorrect,
            format!("{} | {} run(s) not correct", ga.incorrect, gb.incorrect),
        );
        for (name, a_runs) in &ga.metrics {
            let Some(d) = def(name) else {
                let _ = writeln!(out, "{label:<15} {name:<40} not a metric of this build");
                continue;
            };
            let Some(row) = gb
                .metrics
                .get(name)
                .and_then(|b_runs| judge(d, a_runs, b_runs))
            else {
                let _ = writeln!(out, "{label:<15} {name:<40} only in A");
                continue;
            };
            any_regression |= row.regression;
            let ratio = if row.a != 0.0 {
                format!("{:.4}", row.b / row.a)
            } else {
                "-".to_owned()
            };
            let _ = writeln!(
                out,
                "{label:<15} {name:<40} {:>14} {:>14} {ratio:>12}  {}{}",
                format_value(row.a),
                format_value(row.b),
                row.verdict.word(),
                if row.regression {
                    " (beyond bound)"
                } else {
                    ""
                },
            );
        }
        for name in gb.metrics.keys().filter(|n| !ga.metrics.contains_key(*n)) {
            let _ = writeln!(out, "{label:<15} {name:<40} only in B");
        }
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        let _ = writeln!(
            out,
            "{}{} only in B",
            key.0,
            if key.1 { "+trace" } else { "" }
        );
    }
    Ok((out, any_regression))
}
