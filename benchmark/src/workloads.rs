//! The four workloads: which runs each is made of, and why.

use std::time::Duration;

use simnet::SimTime;

use crate::runs::RunKind;

/// Seeds of consecutive `--seed` values are this far apart, so that no
/// two of them share a run: the longest seed range (150) fits inside.
pub const SEED_STRIDE: u64 = 1000;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Failure-free streaming on a fleet large enough that per-frame and
    /// housekeeping costs, and anything super-linear, show.
    SteadyFleet,
    /// The paper's own Figure 4 / Figure 5 runs: the accuracy anchor and
    /// the case GCS liveness traffic dominates.
    PaperFigs,
    /// Seeded fault campaigns with oracle replay: membership churn,
    /// takeover, trace emission.
    ChaosOracle,
    /// Flash crowd under predictive placement with the prefix tier, then
    /// two-site failover in degraded mode.
    SurgeFailover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SteadyFleet,
        Workload::PaperFigs,
        Workload::ChaosOracle,
        Workload::SurgeFailover,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyFleet => "steady_fleet",
            Workload::PaperFigs => "paper_figs",
            Workload::ChaosOracle => "chaos_oracle",
            Workload::SurgeFailover => "surge_failover",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SteadyFleet => {
                "failure-free 8-server 640-session fleet, recording off: per-frame, \
                 heartbeat and sync cost and anything super-linear; bypasses takeover, \
                 trace and oracle"
            }
            Workload::PaperFigs => {
                "the paper's Fig 4 LAN and Fig 5 WAN runs over 150 seeds each: accuracy \
                 anchor (0.5 s takeover), one session, GCS liveness is 65% of messages, \
                 lossy WAN"
            }
            Workload::ChaosOracle => {
                "45 seeded fault campaigns with oracle replay: view changes, takeover, \
                 trace emission and replay do the work here and none in steady_fleet"
            }
            Workload::SurgeFailover => {
                "flash crowd under predictive placement + prefix tier, then two-site \
                 failover: replica manager, forecast, geo-assignment, site topology, \
                 WAN overrides"
            }
        }
    }

    /// The runs of this workload. `seed` shifts every default seed by
    /// `seed × SEED_STRIDE`; `quick` keeps one tenth of the runs (the
    /// self-tests use it, nothing else should).
    pub fn runs(self, seed: u64, quick: bool) -> Vec<(RunKind, u64)> {
        let shift = seed.wrapping_mul(SEED_STRIDE);
        let span = |kind: RunKind, count: u64| {
            let count = if quick { count.div_ceil(10) } else { count };
            (1..=count).map(move |s| (kind, s.wrapping_add(shift)))
        };
        match self {
            Workload::SteadyFleet => vec![(RunKind::SteadyFleet, 101u64.wrapping_add(shift))],
            Workload::PaperFigs => span(RunKind::Fig4Lan, 150)
                .chain(span(RunKind::Fig5Wan, 150))
                .collect(),
            Workload::ChaosOracle => span(RunKind::Chaos, 45).collect(),
            Workload::SurgeFailover => span(RunKind::Flash, 6)
                .chain(span(RunKind::MultiDc, 20))
                .collect(),
        }
    }

    /// Servers in the largest run of the workload; sizes the assignment
    /// kernels.
    pub fn servers(self) -> u32 {
        match self {
            Workload::SteadyFleet => 8,
            Workload::PaperFigs => 3,
            Workload::ChaosOracle | Workload::SurgeFailover => 4,
        }
    }

    /// Length of a timed unit in simulated time. `steady_fleet` is one
    /// long run, so it is cut into slices that are timed one by one;
    /// everywhere else a unit is one whole seeded run.
    pub fn unit_slice(self) -> Option<Duration> {
        match self {
            Workload::SteadyFleet => Some(Duration::from_secs(4)),
            _ => None,
        }
    }

    /// When a run planned to end at `planned` ends: `quick` cuts the
    /// single `steady_fleet` run to a tenth of its 33 slices, rounded up.
    pub fn end(self, planned: SimTime, quick: bool) -> SimTime {
        match self {
            Workload::SteadyFleet if quick => SimTime::from_secs(16),
            _ => planned,
        }
    }
}
