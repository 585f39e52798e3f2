//! Shared utilities of the experiment harness: result directories, CSV
//! output, terminal tables and compact plots.
//!
//! Every `src/bin/*` binary in this crate regenerates one figure or table
//! of the paper's evaluation; see EXPERIMENTS.md at the repository root for
//! the index and the recorded paper-vs-measured comparison.

pub mod perf;

/// The workspace JSON module lives in `ftvod_core`; re-exported so
/// `ftvod_bench::json::Json` keeps resolving.
pub use ftvod_core::json;

use std::fs;
use std::path::{Path, PathBuf};

use ftvod_core::metrics::{downsample, Cumulative, TimeSeries};

/// Directory experiment CSVs are written into.
pub fn output_dir() -> PathBuf {
    let dir = Path::new("target").join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes `contents` under `target/experiments/` and reports the location.
pub fn write_artifact(name: &str, contents: &str) {
    let path = output_dir().join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("  [wrote {}]", path.display()),
        Err(err) => println!("  [could not write {}: {err}]", path.display()),
    }
}

/// Renders a cumulative counter as a compact step table (the paper's
/// "cumulative number of ..." plots) with at most `max_rows` rows.
pub fn print_steps(title: &str, counter: &Cumulative, max_rows: usize) {
    println!("{title}");
    let steps = counter.steps();
    if steps.is_empty() {
        println!("    (no events)");
        return;
    }
    let stride = (steps.len() / max_rows.max(1)).max(1);
    for (i, &(t, total)) in steps.iter().enumerate() {
        if i % stride == 0 || i + 1 == steps.len() {
            println!("    t={t:>7.2}s  total={total}");
        }
    }
}

/// Renders a time series as an ASCII profile: sparkline plus a row of
/// sampled values.
pub fn print_series(title: &str, series: &TimeSeries, width: usize) {
    println!("{title}");
    if series.is_empty() {
        println!("    (empty)");
        return;
    }
    println!("    {}", ftvod_core::metrics::sparkline(series, width));
    let samples = downsample(series, 8);
    let row: Vec<String> = samples
        .iter()
        .map(|&(t, v)| format!("{v:.0}@{t:.0}s"))
        .collect();
    println!("    samples: {}", row.join("  "));
}

/// A two-column paper-vs-measured comparison row.
pub fn compare(label: &str, paper: &str, measured: &str, holds: bool) {
    let verdict = if holds { "✓" } else { "✗" };
    println!("  {verdict} {label:<52} paper: {paper:<22} measured: {measured}");
}

/// Formats a float with limited precision, trimming noise.
pub fn fmt_f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    #[test]
    fn artifacts_land_in_target() {
        write_artifact("selftest.csv", "a,b\n1,2\n");
        let path = output_dir().join("selftest.csv");
        assert!(path.exists());
        let _ = fs::remove_file(path);
    }

    #[test]
    fn printing_empty_series_is_safe() {
        print_series("empty", &TimeSeries::new(), 40);
        print_steps("empty", &Cumulative::new(), 10);
    }

    #[test]
    fn printing_filled_series_is_safe() {
        let mut s = TimeSeries::new();
        let mut c = Cumulative::new();
        for i in 0..100u64 {
            s.push(SimTime::from_secs(i), i as f64);
            if i % 7 == 0 {
                c.add(SimTime::from_secs(i), 1);
            }
        }
        print_series("series", &s, 40);
        print_steps("steps", &c, 5);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1234.7), "1235");
        assert_eq!(fmt_f(12.34), "12.3");
        assert_eq!(fmt_f(0.1234), "0.123");
    }
}
