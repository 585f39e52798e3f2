//! # ftvod — Fault Tolerant Video on Demand Services
//!
//! A from-scratch Rust reproduction of *"Fault Tolerant Video on Demand
//! Services"* (Tal Anker, Danny Dolev, Idit Keidar — ICDCS 1999): a highly
//! available distributed VoD service in which movies are replicated across
//! servers coordinated by a group communication system; when a server
//! crashes or a new one is brought up, clients migrate transparently —
//! the transition is not noticeable to a human observer.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sim`] ([`simnet`]) — the deterministic discrete-event network
//!   simulator that replaces the paper's physical LAN/WAN testbeds;
//! * [`group`] ([`gcs`]) — the Transis-style group communication
//!   substrate: failure detection, view-synchronous membership, reliable
//!   FIFO multicast;
//! * [`video`] ([`media`]) — the MPEG-like media model: GOP structure,
//!   synthetic movies, the hardware-decoder model, quality adaptation;
//! * [`vod`] ([`ftvod_core`]) — the paper's contribution: servers,
//!   clients, flow control, emergency refill, state synchronization,
//!   takeover and load balancing, plus the scenario harness regenerating
//!   the paper's measurements.
//!
//! # Quickstart
//!
//! Run a two-replica deployment, kill the serving server mid-movie, and
//! verify the viewer never notices:
//!
//! ```
//! use ftvod::prelude::*;
//! use std::time::Duration;
//!
//! let movie = Movie::generate(
//!     MovieId(1),
//!     &MovieSpec::paper_default().with_duration(Duration::from_secs(60)),
//! );
//! let mut builder = ScenarioBuilder::new(42);
//! builder
//!     .network(LinkProfile::lan())
//!     .movie(movie, &[NodeId(1), NodeId(2)])
//!     .server(NodeId(1))
//!     .server(NodeId(2))
//!     .client(ClientId(1), NodeId(100), MovieId(1), SimTime::from_secs(2))
//!     .crash_at(SimTime::from_secs(20), NodeId(2));
//! let mut sim = builder.build();
//! sim.run_until(SimTime::from_secs(40));
//!
//! let stats = sim.client_stats(ClientId(1)).unwrap();
//! assert_eq!(stats.stalls.total(), 0, "failover was invisible");
//! assert_eq!(sim.owner_of(ClientId(1)), Some(NodeId(1)));
//! ```
//!
//! See `examples/` for complete scenarios and [`vod::experiments`] (run by
//! `ftvod-cli experiment <id>|all`) for the table regenerating and judging
//! every figure and table of the paper's evaluation (interpreted in
//! EXPERIMENTS.md).

#![warn(missing_docs)]

/// The discrete-event network simulator (re-export of [`simnet`]).
pub mod sim {
    pub use simnet::*;
}

/// The group communication substrate (re-export of [`gcs`]).
pub mod group {
    pub use gcs::*;
}

/// The MPEG-like media model (re-export of [`media`]).
pub mod video {
    pub use media::*;
}

/// The VoD service itself (re-export of [`ftvod_core`]).
pub mod vod {
    pub use ftvod_core::*;
}

/// The most commonly needed names in one import.
pub mod prelude {
    pub use ftvod_core::chaos::{ChaosFault, ChaosPlan, ChaosProfile};
    pub use ftvod_core::client::{ClientStats, VodClient, WatchRequest};
    pub use ftvod_core::config::{
        FailoverMode, MultiDcConfig, PrefixCacheConfig, ReplicationConfig, ResumePolicy, SiteMap,
        TakeoverPolicy, VodConfig,
    };
    pub use ftvod_core::forecast::PolicyKind;
    pub use ftvod_core::oracle::{OracleConfig, OracleReport, Verdict};
    pub use ftvod_core::profile::{ProfileHandle, ProfileReport, Subsystem};
    pub use ftvod_core::protocol::{ClientId, VcrCmd, VodWire};
    pub use ftvod_core::scenario::{presets, ScenarioBuilder, VodSim};
    pub use ftvod_core::server::VodServer;
    pub use ftvod_core::trace::{RunReport, TraceHandle, VodEvent, DEFAULT_EVENT_CAPACITY};
    pub use ftvod_core::workload::{
        fleet_builder, fleet_builder_with_config, fleet_config, multidc_builder, multidc_profile,
        FleetPlan, FleetProfile, FleetReport, ZipfSampler, MULTIDC_FAULT_AT, MULTIDC_HEAL_AT,
    };
    pub use media::{FrameNo, Movie, MovieId, MovieSpec};
    pub use simnet::{LinkProfile, NodeId, SimTime};
}
