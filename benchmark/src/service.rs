//! Service metrics: what a viewer of the simulated service would see,
//! folded over every session of every run of a pass. All of it is
//! simulated time or counts, so it repeats exactly for one seed.

use crate::metrics::Values;
use crate::runs::{RunKind, RunOutcome};
use crate::stats::{quantile, tail_quantile};

/// A session starts well if its first frame arrives within this many
/// simulated seconds of the request (the paper's takeover bound of sync
/// skew + takeover ≈ 1 s, applied to start-up). A session that is never
/// served misses the limit.
pub const STARTUP_LIMIT_S: f64 = 1.0;

/// The T4 bands of EXPERIMENTS.md, checked on the LAN figure runs.
pub const T4_MEAN_BAND_S: (f64, f64) = (0.2, 1.0);
/// Worst LAN takeover the T4 table accepts.
pub const T4_WORST_S: f64 = 1.5;

/// Everything folded out of one pass.
#[derive(Clone, Debug, Default)]
pub struct Service {
    /// Sessions attempted.
    pub sessions: u64,
    /// Sessions that never received a frame.
    pub never_served: u64,
    /// First-frame waits of the served sessions.
    pub ttff: Vec<f64>,
    /// Takeover latencies, fault trigger → resumed stream.
    pub takeover: Vec<f64>,
    /// Display ticks with an empty decoder.
    pub stalls: u64,
    /// Frames never displayed.
    pub skipped: u64,
    /// Frames displayed.
    pub displayed: u64,
    /// First-frame waits, never-served sessions accruing to the run end.
    pub unserved_seconds: f64,
    /// `(seed, oracle token)` of every run whose oracle verdict is not
    /// pass.
    pub oracle_fails: Vec<(u64, String)>,
    /// Runs that recorded (and so were judged by the oracle).
    pub oracle_runs: u64,
    /// Crash-window interruption of each LAN figure run.
    pub lan_gaps: Vec<f64>,
    /// Late frames after the crash in each LAN figure run.
    pub lan_dups: Vec<u64>,
    /// LAN figure runs without a single frozen display tick.
    pub lan_smooth: u64,
}

impl Service {
    /// Folds the outcomes of one pass; `runs` names each outcome's run.
    pub fn fold(runs: &[(RunKind, u64)], outcomes: &[RunOutcome]) -> Service {
        let mut s = Service::default();
        for (&(kind, seed), o) in runs.iter().zip(outcomes) {
            s.sessions += o.sessions;
            s.never_served += o.never_served;
            s.ttff.extend(&o.ttff);
            s.stalls += o.stalls;
            s.skipped += o.skipped;
            s.displayed += o.displayed;
            s.unserved_seconds += o.unserved_seconds;
            if let Some(r) = &o.reported {
                s.takeover.extend(&r.takeover);
                s.oracle_runs += 1;
                if r.oracle != "PASS" {
                    s.oracle_fails.push((seed, r.oracle.clone()));
                }
            }
            if let (RunKind::Fig4Lan, Some((gap, dups))) = (kind, o.crash_gap_and_dups) {
                s.lan_gaps.push(gap);
                s.lan_dups.push(dups);
                s.lan_smooth += u64::from(o.stalls == 0);
            }
        }
        s
    }

    /// Mean crash-window interruption over the LAN figure runs.
    pub fn lan_takeover_mean(&self) -> Option<f64> {
        if self.lan_gaps.is_empty() {
            return None;
        }
        Some(self.lan_gaps.iter().sum::<f64>() / self.lan_gaps.len() as f64)
    }

    /// The T4 bands that do not hold, as messages; empty when they hold
    /// or the pass has no LAN figure runs.
    pub fn t4_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(mean) = self.lan_takeover_mean() else {
            return out;
        };
        if !(T4_MEAN_BAND_S.0..T4_MEAN_BAND_S.1).contains(&mean) {
            out.push(format!("LAN takeover mean {mean:.3} s outside 0.2–1.0 s"));
        }
        let worst = self.lan_gaps.iter().copied().fold(0.0, f64::max);
        if worst > T4_WORST_S {
            out.push(format!("LAN takeover worst {worst:.3} s above 1.5 s"));
        }
        let runs = self.lan_gaps.len() as u64;
        if self.lan_smooth != runs {
            out.push(format!(
                "{} of {runs} LAN runs froze",
                runs - self.lan_smooth
            ));
        }
        out
    }

    /// The end-to-end service metrics. A metric without samples is
    /// omitted, not zero.
    pub fn metrics(&self, out: &mut Values) {
        let n = |v: &[f64]| Some(v.len() as u64);
        let share = |part: u64, rest: u64| {
            let total = part + rest;
            (total > 0).then(|| part as f64 / total as f64)
        };
        let ok = self.ttff.iter().filter(|&&t| t <= STARTUP_LIMIT_S).count() as u64;
        out.put_n("ttff_p50_s", quantile(&self.ttff, 0.5), n(&self.ttff));
        out.put_n(
            "startup_ok_share",
            share(ok, self.sessions - ok),
            Some(self.sessions),
        );
        out.put_n(
            "displayed_share",
            share(self.displayed, self.stalls + self.skipped),
            Some(self.sessions),
        );
        out.put_n("ttff_p95_s", tail_quantile(&self.ttff, 0.95), n(&self.ttff));
        out.put_n(
            "takeover_p50_s",
            quantile(&self.takeover, 0.5),
            n(&self.takeover),
        );
        out.put_n(
            "takeover_p95_s",
            tail_quantile(&self.takeover, 0.95),
            n(&self.takeover),
        );
        out.put_n(
            "frozen_share",
            share(self.stalls, self.displayed),
            Some(self.sessions),
        );
        out.put_n(
            "skipped_share",
            share(self.skipped, self.displayed),
            Some(self.sessions),
        );
        out.put_n(
            "unserved_s_per_session",
            (self.sessions > 0).then(|| self.unserved_seconds / self.sessions as f64),
            Some(self.sessions),
        );
        out.put_n(
            "never_served_sessions",
            Some(self.never_served as f64),
            Some(self.sessions),
        );
        out.put_n(
            "oracle_fail_units",
            (self.oracle_runs > 0).then_some(self.oracle_fails.len() as f64),
            Some(self.oracle_runs),
        );
    }
}
