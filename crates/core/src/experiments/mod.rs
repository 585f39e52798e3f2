//! The paper's evaluation as **one table of experiments**: every figure,
//! table and quantitative sentence this reproduction is checked against
//! is a row of [`TABLE`] — an id, a title, the paper sentence it encodes
//! and a plain function that runs the scenario, prints the measured table
//! into a [`Report`] and records each paper-vs-measured [`Check`] with the
//! verdict it is expected to have at this commit.
//!
//! `ftvod-cli experiment <id>|all` runs rows and always judges them:
//! [`Report::gate`] fails when any verdict differs from its recorded
//! expectation ([`Check::deviates_since`]), in either direction — a check that stops holding and
//! a known deviation that starts holding both need a human to look. The
//! rendering of `experiment all` is pinned as
//! `tests/golden/experiments.txt`; EXPERIMENTS.md interprets it.
//!
//! Rows share what they used to re-declare: `deployment` builds the
//! "replicas of one movie plus viewers" scenario, `crash_runs` the
//! ablations' seeded crashes at 30 s, `mean`/`total`/`outage` fold the
//! runs, and [`Report`] owns the one table printer and check-line format.
//!
//! ```
//! use ftvod_core::experiments::{run, select};
//!
//! let report = run(select("fig2").unwrap());
//! assert_eq!(report.checks().len(), 7);
//! assert!(report.gate().is_ok(), "{}", report.summary());
//! ```

mod ablations;
mod paper;
mod report;

use std::ops::Range;
use std::time::Duration;

use media::{Movie, MovieSpec};
use simnet::{LinkProfile, NodeId, SimTime};

use crate::client::ClientStats;
use crate::config::VodConfig;
use crate::protocol::ClientId;
use crate::scenario::{presets, ScenarioBuilder, VodSim};

use report::{fmt_f, say};
pub use report::{Check, Report};

/// One row of the evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// What `ftvod-cli experiment` calls it.
    pub id: &'static str,
    /// What it measures.
    pub title: &'static str,
    /// The paper sentence (or figure) the row's checks encode.
    pub claim: &'static str,
    /// Runs the scenario, printing and checking into the report.
    pub run: fn(&mut Report),
}

/// Every experiment, in EXPERIMENTS.md order.
pub const TABLE: &[Experiment] = &[
    Experiment {
        id: "fig2",
        title: "the client's flow-control policy table",
        claim: "Figure 2: occupancy band and trend decide emergency, increase, decrease or silence",
        run: paper::fig2,
    },
    Experiment {
        id: "fig4",
        title: "overcoming the irregularity of video transmission in a LAN (§6.1)",
        claim: "Figure 4; \"transitions are not noticeable to a human observer\"",
        run: paper::fig4,
    },
    Experiment {
        id: "fig5",
        title: "skipped frames in a small-scale WAN (§6.2)",
        claim: "Figure 5: 7 hops, no QoS reservation, \"a certain percentage of messages are \
                lost\"; otherwise \"similar behavior to that observed on a LAN\"",
        run: paper::fig5,
    },
    Experiment {
        id: "T1",
        title: "state-synchronization overhead vs video bandwidth (§1, §5.2)",
        claim: "\"the overhead for synchronization consumes less than one thousandth of the \
                total communication bandwidth used by the VoD service\"",
        run: paper::t1_overhead,
    },
    Experiment {
        id: "T2",
        title: "the emergency transmission mechanism (§4.1)",
        claim: "q=12, f=0.8 sends 43 extra frames (15 for q=6), never above 40 % of the mean rate",
        run: paper::t2_emergency,
    },
    Experiment {
        id: "T3",
        title: "failures tolerated per replication degree and policy (§7)",
        claim: "\"if a movie is replicated k times, then up to k−1 failures are tolerated\"; \
                Tiger \"smoothly tolerates the failure of one server, but not necessarily two\"",
        run: paper::t3_fault_tolerance,
    },
    Experiment {
        id: "T4",
        title: "takeover time over 40 seeded crash runs (§4.2)",
        claim: "\"In our tests on a local area network, the take over time was half a second \
                on the average\"; irregularity lasts at most sync skew + takeover",
        run: paper::t4_takeover,
    },
    Experiment {
        id: "T5",
        title: "buffer sizing vs smoothness across a crash (§4.2)",
        claim: "\"If there is not enough video material in the buffers to account for the \
                duration of the irregularity period, the situation cannot be handled smoothly\"",
        run: paper::t5_buffer_sweep,
    },
    Experiment {
        id: "T7",
        title: "partition of the serving replica, then heal, 20 seeded runs (§2)",
        claim: "\"Our VoD service tolerates failures and network partitions\"",
        run: paper::t7_partition,
    },
    Experiment {
        id: "A1",
        title: "sync interval vs takeover duplicates and overhead (§5.2)",
        claim: "after a takeover \"certain frames may be transmitted by both servers\"",
        run: ablations::a1_sync_interval,
    },
    Experiment {
        id: "A2",
        title: "emergency (q, f) sweep across the crash scenario (§4.1)",
        claim: "\"when starting with a high base quantity q, the buffers fill up faster ... \
                however, the risk of overflow is greater\"",
        run: ablations::a2_emergency,
    },
    Experiment {
        id: "A3",
        title: "the two conservative policy choices, 8 WAN crash runs each (§3, §6.1.1)",
        claim: "discard incremental frames before I frames on overflow; resume \"preferring \
                duplicate transmission of frames over missed frames\"",
        run: ablations::a3_policies,
    },
    Experiment {
        id: "A4",
        title: "QoS reservation vs best effort on the 7-hop WAN, crash at 30 s (§2, §8)",
        claim: "the service \"is best provided if a QoS reservation mechanism is available, \
                e.g., when using an ATM network. However, this is not mandatory\"",
        run: ablations::a4_qos,
    },
    Experiment {
        id: "FD",
        title: "failure-detection timeout: takeover latency vs stability, jittery WAN (§4.2)",
        claim: "\"The take over time is affected by the failure detection time-out and by the \
                time required for information exchange among the servers\"",
        run: ablations::fd_timeout,
    },
    Experiment {
        id: "E1",
        title: "delivered rate through playback-speed steps, 30 fps nominal (extends §3)",
        claim: "speed control is a client control message; the paper does not measure it",
        run: ablations::e1_speed_control,
    },
    Experiment {
        id: "E2",
        title: "clients per server on a 100 Mbps NIC, theory ≈ 70 (extends §1)",
        claim: "\"the number of servers providing a certain service may change dynamically in \
                order to account for changes in the load\"",
        run: ablations::e2_server_capacity,
    },
    Experiment {
        id: "E3",
        title: "static vs dynamic replica management under a Zipf(1.2) fleet (extension)",
        claim: "the paper brings servers up by hand; the replica manager closes that loop",
        run: ablations::e3_fleet_scale,
    },
];

/// The rows `which` names: one id, or `all`.
pub fn select(which: &str) -> Result<&'static [Experiment], String> {
    if which == "all" {
        return Ok(TABLE);
    }
    TABLE
        .iter()
        .find(|row| row.id == which)
        .map(std::slice::from_ref)
        .ok_or_else(|| {
            let ids: Vec<&str> = TABLE.iter().map(|row| row.id).collect();
            format!("unknown experiment \"{which}\" (all | {})", ids.join(" | "))
        })
}

/// Runs `rows` in order into one report, each under a header naming the
/// row and its claim, and closes with [`Report::summary`].
pub fn run(rows: &[Experiment]) -> Report {
    let mut report = Report::default();
    for row in rows {
        report.experiment = row.id;
        say!(report, "=== {}: {} ===", row.id, row.title);
        say!(report, "paper: {}", row.claim);
        say!(report);
        (row.run)(&mut report);
        say!(report);
    }
    let summary = report.summary();
    report.line(summary.trim_end());
    report
}

/// The one viewer of every single-client row.
const CLIENT: ClientId = presets::CLIENT_ID;

/// When the ablations' crash scenario kills the serving replica, and how
/// long it then runs.
const CRASH_AT: SimTime = SimTime::from_secs(30);
const CRASH_RUN_END: SimTime = SimTime::from_secs(60);

/// The deployment every row but the presets' and the fleet's starts
/// from: one `movie_secs`-long movie replicated on servers `1..=servers`,
/// all up at time zero, and viewers `1..=clients` (on nodes 100, 101, …)
/// who start watching at [`presets::CLIENT_START`]. Faults are the
/// caller's to add.
fn deployment(
    seed: u64,
    link: LinkProfile,
    cfg: VodConfig,
    servers: u32,
    clients: u32,
    movie_secs: u64,
) -> ScenarioBuilder {
    let holders: Vec<NodeId> = (1..=servers).map(NodeId).collect();
    let spec = MovieSpec::paper_default().with_duration(Duration::from_secs(movie_secs));
    let mut builder = ScenarioBuilder::new(seed);
    builder
        .network(link)
        .config(cfg)
        .movie(Movie::generate(presets::MOVIE, &spec), &holders);
    for &server in &holders {
        builder.server(server);
    }
    for c in 1..=clients {
        let node = NodeId(presets::nodes::CLIENT.0 + c - 1);
        builder.client(ClientId(c), node, presets::MOVIE, presets::CLIENT_START);
    }
    builder
}

/// The ablations' crash scenario: `servers` replicas of a 90 s movie and
/// one viewer; the serving replica (the assignment rule prefers the
/// highest id) crashes at [`CRASH_AT`].
fn crash_scenario(seed: u64, link: LinkProfile, cfg: VodConfig, servers: u32) -> ScenarioBuilder {
    let mut builder = deployment(seed, link, cfg, servers, 1, 90);
    builder.crash_at(CRASH_AT, NodeId(servers));
    builder
}

/// A finished run and its viewer's statistics.
type Run = (VodSim, ClientStats);

/// Builds `scenario` and runs it to `end`.
fn run_to(scenario: &ScenarioBuilder, end: SimTime) -> Run {
    let mut sim = scenario.build();
    sim.run_until(end);
    let stats = viewer(&sim);
    (sim, stats)
}

/// One [`crash_scenario`] per seed, each run to [`CRASH_RUN_END`].
fn crash_runs(seeds: Range<u64>, link: &LinkProfile, cfg: &VodConfig, servers: u32) -> Vec<Run> {
    let run = |seed| crash_scenario(seed, link.clone(), cfg.clone(), servers);
    seeds
        .map(|seed| run_to(&run(seed), CRASH_RUN_END))
        .collect()
}

/// The statistics of [`CLIENT`].
fn viewer(sim: &VodSim) -> ClientStats {
    sim.client_stats(CLIENT).expect("the viewer exists")
}

/// The longest stream interruption that began in `[from, to)` seconds.
fn outage(stats: &ClientStats, from: f64, to: f64) -> f64 {
    stats
        .interruptions
        .iter()
        .filter(|&&(at, _)| (from..to).contains(&at))
        .map(|&(_, duration)| duration)
        .fold(0.0, f64::max)
}

/// The mean of `f` over `runs` (NaN for no runs; every row's run count is
/// a non-zero constant).
fn mean<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

/// The sum of `f` over `runs`.
fn total<T>(runs: &[T], f: impl Fn(&T) -> u64) -> u64 {
    runs.iter().map(f).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_selectable() {
        for (i, row) in TABLE.iter().enumerate() {
            assert!(
                TABLE[..i].iter().all(|earlier| earlier.id != row.id),
                "duplicate id {}",
                row.id
            );
            let selected = select(row.id).unwrap();
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].id, row.id);
        }
        assert_eq!(select("all").unwrap().len(), TABLE.len());
    }

    #[test]
    fn an_unknown_id_is_an_error_that_lists_the_known_ones() {
        let err = select("T6").unwrap_err();
        assert!(err.contains("\"T6\""), "{err}");
        for row in TABLE {
            assert!(err.contains(row.id), "{err} does not list {}", row.id);
        }
    }

    fn two_checks<const A: bool, const B: bool>(report: &mut Report) {
        report.check("expected to hold", "x", "y", A);
        report.check("recorded as deviating", "x", "y", B);
        report.known_deviation("PR 0");
    }

    fn fake(row: fn(&mut Report)) -> Report {
        run(&[Experiment {
            id: "fake",
            title: "two checks",
            claim: "none",
            run: row,
        }])
    }

    #[test]
    fn the_gate_fails_on_any_verdict_that_differs_from_its_expectation() {
        let as_recorded = fake(two_checks::<true, false>);
        assert!(as_recorded.gate().is_ok());
        assert!(as_recorded.summary().contains("known deviation"));
        assert!(!as_recorded.summary().contains("UNEXPECTED"));

        let regressed = fake(two_checks::<false, false>);
        assert!(regressed.gate().is_err());
        assert!(regressed.summary().contains("no longer holds"));

        let healed = fake(two_checks::<true, true>);
        assert!(healed.gate().is_err());
        assert!(healed.summary().contains("holds again"));

        assert!(fake(two_checks::<false, true>)
            .gate()
            .unwrap_err()
            .starts_with("2 "));
    }
}
