//! # ftvod-core — the fault-tolerant video-on-demand service
//!
//! This crate implements the paper's primary contribution: a highly
//! available distributed VoD service built on group communication
//! (Anker, Dolev, Keidar — ICDCS 1999). See the repository's DESIGN.md for
//! the full system inventory.
//!
//! * [`protocol`] — wire messages of the data and control planes;
//! * [`server`] — replica servers: sessions, rate control, emergency
//!   bursts, half-second state sync, takeover and load balancing
//!   ([`server::TakeoverTable`]: who serves whom) and dynamic replica
//!   management with its prefix tier ([`server::Placement`]: who holds
//!   what);
//! * [`client`] — clients: software/hardware buffering, the Figure 2 flow
//!   control policy, VCR operations, statistics ([`client::ClientSession`]:
//!   every client decision, as a plain value);
//! * [`config`] — the paper's §6 operating point and ablation knobs;
//! * [`metrics`] — time series/counters behind every reproduced figure;
//! * [`json`] — the one JSON string escape every writer shares;
//! * [`trace`] — the cross-layer event stream, JSONL export and derived
//!   run reports (takeover-latency breakdowns, latency percentiles), read
//!   from one fold the recorder advances as each event is recorded;
//! * [`profile`] — per-subsystem cost accounting (span wall-clock plus
//!   simnet scheduler counters), zero-overhead when disabled;
//! * [`workload`] — the fleet workload engine: Zipf popularity, Poisson
//!   arrivals, VCR mixes and churn, all from one seed;
//! * [`forecast`] — per-movie popularity state machines (Markov
//!   cold/warming/hot/cooling with seeded transition estimation) that
//!   [`server::Placement`] feeds and reads when it decides by the
//!   reactive or predictive replica-placement rule ([`PolicyKind`]);
//! * [`chaos`] — seeded fault campaigns: crash/restart cycles, pairwise
//!   partitions with heals and correlated loss bursts, all from one seed;
//! * [`campaign`] — the one definition of the chaos, flash-crowd and
//!   multi-datacenter campaigns: how each is wired and how a finished
//!   run is judged, shared by the CLI and the tests;
//! * [`experiments`] — the paper's evaluation as one table: every
//!   figure, table and quantitative sentence is a row that runs its
//!   scenario and records each paper-vs-measured check with the verdict
//!   it is expected to have (`ftvod-cli experiment <id>|all`);
//! * [`oracle`] — the trace-driven safety oracle checking the paper's
//!   invariants (exclusive service, bounded frame gaps, replica coverage,
//!   repair within a bound, and the site-aware failover invariants)
//!   over any recorded run, read from the same fold.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod chaos;
pub mod client;
pub mod config;
pub mod experiments;
mod fold;
pub mod forecast;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod profile;
pub mod protocol;
pub mod scenario;
pub mod server;
pub mod trace;
pub mod workload;

pub use chaos::{ChaosFault, ChaosPlan, ChaosProfile};
pub use client::{ClientStats, VodClient, WatchRequest};
pub use config::{
    FailoverMode, MultiDcConfig, PrefixCacheConfig, ReplicationConfig, ResumePolicy, SiteMap,
    TakeoverPolicy, VodConfig,
};
pub use forecast::{BringUpTrigger, MovieForecast, PolicyKind, PopState};
pub use metrics::Histogram;
pub use oracle::{OracleConfig, OracleReport, Verdict};
pub use profile::{ProfileHandle, ProfileReport, SpanStats, Subsystem};
pub use protocol::{ClientId, ControlPayload, DemandEntry, VideoPacket, VodWire};
pub use scenario::{ScenarioBuilder, VodSim};
pub use server::{ServerStats, VodServer};
pub use trace::{RunReport, TakeoverBreakdown, TraceHandle, TraceRecorder, VodEvent};
pub use workload::{
    fleet_builder, fleet_builder_with_config, fleet_config, multidc_builder, multidc_profile,
    FleetPlan, FleetProfile, FleetReport, PopularityShock, ZipfSampler, MULTIDC_FAULT_AT,
    MULTIDC_HEAL_AT,
};
