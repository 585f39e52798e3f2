//! What an experiment row writes into: the printed text, the CSV
//! artifacts and the paper-vs-measured checks, each with the verdict it
//! is expected to have.

use std::fmt::{Display, Write as _};
use std::path::Path;

use crate::metrics::{downsample, sparkline, Cumulative, TimeSeries};

/// One paper-vs-measured comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Id of the experiment row that made the check.
    pub experiment: &'static str,
    /// What is being compared.
    pub label: String,
    /// What the paper says.
    pub paper: String,
    /// What this run measured.
    pub measured: String,
    /// Whether the measurement satisfies the row's predicate.
    pub holds: bool,
    /// The verdict recorded for this commit: `None` expects the check to
    /// hold; `Some(since)` records a known deviation — the claim is *not*
    /// reproduced, and has not been since the PR (and commit) named. The
    /// gate fails the day such a check starts holding, so the record
    /// cannot go stale.
    pub deviates_since: Option<&'static str>,
}

/// Collects everything the experiment rows produce. Rendering never
/// touches the file system or the clock, so the same rows always yield
/// the same [`Report::text`], byte for byte.
#[derive(Debug, Default)]
pub struct Report {
    text: String,
    artifacts: Vec<(&'static str, String)>,
    checks: Vec<Check>,
    /// Id of the row currently running, stamped onto its checks.
    pub(super) experiment: &'static str,
}

/// `say!(report, "fmt", args…)`: one formatted line of report text.
macro_rules! say {
    ($report:expr) => { $report.line("") };
    ($report:expr, $($fmt:tt)+) => { $report.line(format!($($fmt)+)) };
}
pub(super) use say;

impl Report {
    /// Appends one line of text.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Appends a table given as tab-separated lines, `head` first: every
    /// column as wide as its widest cell; a column of numbers (every cell
    /// one word starting with a digit or a minus, so `7`, `0.5s` and
    /// `40%` but not `6, 4, 3`) is right-aligned under its header,
    /// everything else left-aligned. A blank line closes the table.
    pub fn table(&mut self, head: &str, rows: impl IntoIterator<Item = String>) {
        let cells = |line: &str| -> Vec<String> { line.split('\t').map(str::to_owned).collect() };
        let (head, body) = (cells(head), rows.into_iter().map(|row| cells(&row)));
        let body: Vec<Vec<String>> = body.collect();
        let numeric = |s: &String| {
            s.starts_with(|ch: char| ch.is_ascii_digit() || ch == '-') && !s.contains(' ')
        };
        let columns: Vec<(usize, bool)> = (0..head.len())
            .map(|c| {
                let column = || body.iter().filter_map(|row| row.get(c));
                let widths = column().chain(head.get(c)).map(|s| s.chars().count());
                (widths.max().unwrap_or(0), column().all(numeric))
            })
            .collect();
        for line in std::iter::once(&head).chain(&body) {
            let mut out = String::new();
            for (cell, &(width, numeric)) in line.iter().zip(&columns) {
                let _ = if numeric {
                    write!(out, "  {cell:>width$}")
                } else {
                    write!(out, "  {cell:<width$}")
                };
            }
            self.line(out.trim_end());
        }
        self.line("");
    }

    /// Renders a cumulative counter as a compact step table (the paper's
    /// "cumulative number of ..." plots) with at most `max_rows` rows.
    pub fn steps(&mut self, title: &str, counter: &Cumulative, max_rows: usize) {
        self.line(title);
        let steps = counter.steps();
        let stride = (steps.len() / max_rows.max(1)).max(1);
        for (i, &(t, total)) in steps.iter().enumerate() {
            if i % stride == 0 || i + 1 == steps.len() {
                say!(self, "    t={t:>7.2}s  total={total}");
            }
        }
        if steps.is_empty() {
            self.line("    (no events)");
        }
    }

    /// Renders a time series as an ASCII profile: sparkline plus a row of
    /// sampled values.
    pub fn series(&mut self, title: &str, series: &TimeSeries, width: usize) {
        self.line(title);
        if series.is_empty() {
            return self.line("    (empty)");
        }
        say!(self, "    {}", sparkline(series, width));
        let samples: Vec<String> = downsample(series, 8)
            .iter()
            .map(|&(t, v)| format!("{v:.0}@{t:.0}s"))
            .collect();
        say!(self, "    samples: {}", samples.join("  "));
    }

    /// Records a CSV artifact; [`Report::write_artifacts`] puts it on disk.
    pub fn artifact(&mut self, name: &'static str, contents: String) {
        say!(self, "  [artifact {name}]");
        self.artifacts.push((name, contents));
    }

    /// Records and prints a check, expected to hold unless
    /// [`Report::known_deviation`] follows.
    pub fn check(&mut self, label: &str, paper: &str, measured: impl Display, holds: bool) {
        let verdict = if holds { "✓" } else { "✗" };
        say!(
            self,
            "  {verdict} {label:<52} paper: {paper:<22} measured: {measured}"
        );
        self.checks.push(Check {
            experiment: self.experiment,
            label: label.to_owned(),
            paper: paper.to_owned(),
            measured: measured.to_string(),
            holds,
            deviates_since: None,
        });
    }

    /// Marks the check just made as a known deviation: it has not held
    /// since `since` and is expected not to.
    pub fn known_deviation(&mut self, since: &'static str) {
        let check = self.checks.last_mut().expect("a check was just made");
        check.deviates_since = Some(since);
        say!(self, "      known deviation since {since}");
    }

    /// Everything printed so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Every check made so far, in order.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// Writes every recorded artifact into `dir`, creating it if needed.
    pub fn write_artifacts(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, contents) in &self.artifacts {
            std::fs::write(dir.join(name), contents)?;
        }
        Ok(())
    }

    /// The tally of verdicts against expectations: one line per known
    /// deviation and per surprise, then the gate's verdict.
    pub fn summary(&self) -> String {
        let holding = self.checks.iter().filter(|c| c.holds).count();
        let failing = self.checks.len() - holding;
        let mut out = format!(
            "{} checks: {holding} hold, {failing} do not\n",
            self.checks.len()
        );
        for c in &self.checks {
            let note = match (c.holds, c.deviates_since) {
                (true, None) => continue,
                (false, Some(since)) => format!("known deviation since {since}"),
                (false, None) => "UNEXPECTED: no longer holds".to_owned(),
                (true, Some(_)) => "UNEXPECTED: holds again; drop its deviation record".to_owned(),
            };
            let _ = writeln!(out, "  {} \"{}\": {note}", c.experiment, c.label);
        }
        match self.gate() {
            Ok(()) => out + "gate: every verdict is the recorded one\n",
            Err(err) => format!("{out}gate: {err}\n"),
        }
    }

    /// The gate: an error counting the verdicts that differ from their
    /// recorded expectation, in either direction.
    pub fn gate(&self) -> Result<(), String> {
        let as_recorded = |c: &&Check| c.holds == c.deviates_since.is_none();
        match self.checks.len() - self.checks.iter().filter(as_recorded).count() {
            0 => Ok(()),
            n => Err(format!(
                "{n} experiment verdict(s) differ from the recorded expectation"
            )),
        }
    }
}

/// Formats a float with limited precision, trimming noise.
pub(super) fn fmt_f(v: f64) -> String {
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
    fn artifacts_are_written_where_asked_and_nowhere_else() {
        let mut report = Report::default();
        report.artifact("selftest.csv", "a,b\n1,2\n".to_owned());
        let dir = std::env::temp_dir().join(format!("ftvod-artifacts-{}", std::process::id()));
        report.write_artifacts(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join("selftest.csv")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(written, "a,b\n1,2\n");
        assert_eq!(report.text(), "  [artifact selftest.csv]\n");
    }

    #[test]
    fn printing_empty_series_is_safe() {
        let mut report = Report::default();
        report.series("empty", &TimeSeries::new(), 40);
        report.steps("empty", &Cumulative::new(), 10);
        assert_eq!(
            report.text(),
            "empty\n    (empty)\nempty\n    (no events)\n"
        );
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
        let mut report = Report::default();
        report.series("series", &s, 40);
        report.steps("steps", &c, 5);
        assert!(report.text().contains("samples: 0@0s"));
        assert!(report.text().ends_with("total=15\n"));
    }

    #[test]
    fn tables_align_numbers_right_and_words_left() {
        let mut report = Report::default();
        let rows = ["lan\t7\tok\t6, 4", "wan-reserved\t12.5%\t—\t3"];
        report.table("path\tloss\tnote\tburst", rows.map(str::to_owned));
        assert_eq!(
            report.text(),
            "  path           loss  note  burst\n  \
               lan               7  ok    6, 4\n  \
               wan-reserved  12.5%  —     3\n\n"
        );
        report.table("no\trows", []);
        assert!(report.text().ends_with("  no  rows\n\n"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1234.7), "1235");
        assert_eq!(fmt_f(12.34), "12.3");
        assert_eq!(fmt_f(0.1234), "0.123");
    }
}
