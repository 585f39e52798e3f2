//! The one definition of every seeded campaign: how a chaos, flash-crowd
//! or multi-datacenter run is **wired** (fleet shape,
//! [`VodConfig`](crate::config::VodConfig), fault plan, event-ring size,
//! end time) and how a finished run is
//! **judged** (oracle verdicts, [`FleetReport`], [`RunReport`], first
//! bring-up of the shocked movie).
//!
//! `ftvod-cli chaos | flash | multidc` and the integration tests all come
//! here, so a change to a campaign changes every one of them at once. The
//! two halves are separate on purpose: [`chaos`], [`flash`] and
//! [`multidc`] return a [`Campaign`] whose builder a caller may still
//! extend (a test turns on cost profiling) before building and running
//! it; [`Campaign::judge`] then reads the verdicts out of the finished
//! [`VodSim`], which the caller keeps for questions of its own.
//! [`Campaign::run`] is the whole pipeline for callers with nothing to
//! add in between.
//!
//! ```
//! use ftvod_core::campaign::{self, CHAOS_CLIENTS, CHAOS_FAULTS, CHAOS_SYNC};
//!
//! let (campaign, faults) = campaign::chaos(CHAOS_CLIENTS, CHAOS_FAULTS, CHAOS_SYNC, 1);
//! let outcome = campaign.run();
//! assert!(outcome.oracle.pass(), "{}", outcome.oracle);
//! assert_eq!(faults.faults.len(), 6);
//! ```

use std::time::Duration;

use media::MovieId;
use simnet::{LinkProfile, SimTime};

use crate::chaos::{ChaosPlan, ChaosProfile};
use crate::config::{FailoverMode, PrefixCacheConfig, ReplicationConfig};
use crate::forecast::PolicyKind;
use crate::oracle::{summary_token, OracleConfig, OracleReport};
use crate::scenario::{ScenarioBuilder, VodSim};
use crate::trace::RunReport;
use crate::workload::{
    fleet_builder_with_config, fleet_config, multidc_builder, multidc_profile, FleetPlan,
    FleetProfile, FleetReport,
};

/// Sessions per chaos campaign (`ftvod-cli chaos --clients`).
pub const CHAOS_CLIENTS: u32 = 24;
/// Fault slots per chaos campaign (`ftvod-cli chaos --faults`).
pub const CHAOS_FAULTS: u32 = 6;
/// Server sync interval of a chaos campaign (`ftvod-cli chaos --sync-ms`).
pub const CHAOS_SYNC: Duration = Duration::from_millis(500);

/// Event-ring capacity of every campaign: room for every event of the
/// run. The oracle and the run report read the recorder's fold and need
/// none of it; the size is for the tests that walk a campaign's events.
const EVENT_RING: usize = 1 << 20;

/// A wired campaign: build `builder`, run it to `end`, then judge it.
#[derive(Debug)]
pub struct Campaign {
    /// The scenario, with event recording already on.
    pub builder: ScenarioBuilder,
    /// The workload the builder was fed.
    pub plan: FleetPlan,
    /// How long to run.
    pub end: SimTime,
    /// When the popularity shock hits and which (tail) movie it lifts;
    /// `None` for campaigns without one.
    pub shock: Option<(SimTime, MovieId)>,
}

/// What a finished campaign run is judged by.
#[derive(Debug)]
pub struct Outcome {
    /// The safety oracle's verdicts over the recorded trace.
    pub oracle: OracleReport,
    /// Per-session service quality against the workload plan.
    pub fleet: FleetReport,
    /// The trace-derived run report.
    pub run: RunReport,
    /// First bring-up of the shocked movie at or after the shock; `None`
    /// if it never came (or the campaign has no shock).
    pub first_tail_bringup: Option<SimTime>,
}

/// One seeded chaos campaign: a four-server fleet with two initial copies
/// of each of four movies, sized down so a multi-seed sweep stays fast,
/// under `faults` slots of crash/restart, partition and loss-burst
/// faults. Returns the fault schedule alongside, for rendering.
pub fn chaos(clients: u32, faults: u32, sync: Duration, seed: u64) -> (Campaign, ChaosPlan) {
    let mut profile = FleetProfile::small_fleet();
    profile.clients = clients;
    profile.catalog_size = 4;
    profile.initial_replicas = 2;
    profile.arrival_window = Duration::from_secs(15);
    let cfg =
        fleet_config(&profile, Some(ReplicationConfig::paper_default())).with_sync_interval(sync);
    let (mut builder, plan) = fleet_builder_with_config(&profile, seed, cfg);
    let mut chaos_profile = ChaosProfile::default_campaign();
    chaos_profile.faults = faults;
    let chaos = ChaosPlan::generate(&chaos_profile, &profile.server_nodes(), seed);
    chaos.apply(&mut builder, &LinkProfile::lan());
    builder.record_events(EVENT_RING);
    // Past the fault window, the longest restart and the repair bound.
    let end = SimTime::from_secs_f64(profile.run_until().as_secs_f64().max(75.0));
    let campaign = Campaign {
        builder,
        plan,
        end,
        shock: None,
    };
    (campaign, chaos)
}

/// The fixed flash-crowd run ([`FleetProfile::flash_crowd`]: a 10×
/// popularity shock on the coldest movie) under one placement policy,
/// with or without the prefix-cache tier.
pub fn flash(policy: PolicyKind, prefix: bool, seed: u64) -> Campaign {
    let profile = FleetProfile::flash_crowd();
    let shock = profile.shock.expect("flash_crowd has a shock");
    let mut cfg =
        fleet_config(&profile, Some(ReplicationConfig::paper_default())).with_placement(policy);
    if prefix {
        cfg = cfg.with_prefix_cache(PrefixCacheConfig::paper_default());
    }
    let (mut builder, plan) = fleet_builder_with_config(&profile, seed, cfg);
    builder.record_events(EVENT_RING);
    Campaign {
        builder,
        plan,
        end: profile.run_until(),
        shock: Some((SimTime::ZERO + shock.at, MovieId(profile.catalog_size))),
    }
}

/// The fixed two-site run ([`multidc_builder`]: correlated east-site
/// crash, later repair) under one failover mode.
pub fn multidc(mode: FailoverMode, seed: u64) -> Campaign {
    let (mut builder, plan) = multidc_builder(seed, mode);
    builder.record_events(EVENT_RING);
    Campaign {
        builder,
        plan,
        end: multidc_profile().run_until(),
        shock: None,
    }
}

/// Judges a finished run's recorded trace with the safety oracle at the
/// paper's bounds — the judge step for any recorded [`VodSim`], campaign
/// or bespoke scenario.
///
/// # Panics
///
/// Panics if the run was built without event recording.
pub fn oracle(sim: &VodSim) -> OracleReport {
    sim.trace()
        .with_recorder(|rec| OracleReport::check(rec, &OracleConfig::paper_default()))
        .expect("recording was enabled")
}

impl Campaign {
    /// Builds the scenario, runs it to the end and judges it.
    pub fn run(&self) -> Outcome {
        let mut sim = self.builder.build();
        sim.run_until(self.end);
        self.judge(&sim)
    }

    /// Judges a finished run of this campaign.
    pub fn judge(&self, sim: &VodSim) -> Outcome {
        let first_tail_bringup = self.shock.and_then(|(shock_at, tail)| {
            sim.trace()
                .with_recorder(|rec| {
                    rec.fold()
                        .bringups
                        .iter()
                        .filter(|&&(at, _, movie, _)| movie == tail && at >= shock_at)
                        .map(|&(at, ..)| at)
                        .min()
                })
                .expect("recording was enabled")
        });
        Outcome {
            oracle: oracle(sim),
            fleet: FleetReport::from_sim(&self.plan, sim, self.end),
            run: sim.report().expect("recording was enabled"),
            first_tail_bringup,
        }
    }
}

impl Outcome {
    /// The chaos sweep's row: verdict token plus the fault mix.
    pub fn chaos_line(&self, faults: &ChaosPlan) -> String {
        let (crashes, partitions, bursts) = faults.kind_counts();
        format!(
            "{}  [{crashes} crash/restart, {partitions} partition, {bursts} burst]",
            summary_token(&self.oracle)
        )
    }

    /// The flash-crowd sweep's row.
    pub fn flash_line(&self) -> String {
        format!(
            "{}  unserved {:.1}s, never served {}, {} bring-up(s), first tail bring-up {}, prefix {}/{}",
            summary_token(&self.oracle),
            self.fleet.unserved_seconds,
            self.fleet.never_served,
            self.run.replica_bringups,
            self.first_tail_bringup
                .map_or("never".to_owned(), |t| format!("{:.1}s", t.as_secs_f64())),
            self.run.prefix_serves,
            self.run.prefix_handoffs,
        )
    }

    /// The multi-datacenter sweep's row.
    pub fn multidc_line(&self) -> String {
        format!(
            "{}  served {}, never served {}, waited {:.3}s, stalled {:.3}s, unserved total {:.3}s, {} degraded serve(s)",
            summary_token(&self.oracle),
            self.fleet.served,
            self.fleet.never_served,
            self.fleet.unserved_seconds,
            self.fleet.stalled_seconds,
            self.fleet.total_unserved(),
            self.run.degraded_serves,
        )
    }
}
