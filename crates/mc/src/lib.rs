//! # ftvod-mc — a small-scope model checker for the GCS membership protocol
//!
//! The membership, view-change, merge and expulsion logic that keeps the
//! VoD fleet consistent lives in [`gcs::proto`] as a pure state machine:
//! no clocks, no sockets, every input an explicit event. That purity is
//! what this crate exploits — it exhaustively explores *all*
//! interleavings of message delivery, message loss, crashes, restarts,
//! partitions and heals over a small node count (3–4), instead of the
//! handful of schedules a seeded simulation happens to produce.
//!
//! ## What is checked
//!
//! Safety, at every distinct state:
//!
//! * **view-agreement** — two nodes that installed the same [`gcs::ViewId`]
//!   installed the same member list (the takeover redistribution is
//!   deterministic *given the view*, so disagreeing incarnations of one
//!   view id would silently split clients between two primaries);
//! * **member-in-own-view** — a node never believes it is a member of a
//!   view that excludes it.
//!
//! Liveness, via a deterministic *fair closure* from every state (see
//! [`closure`]): once faults stop, all engaged survivors must converge
//! on one common view (**eventual-merge**), and the survivors' takeover
//! tables — the server's own `TakeoverTable::step`, driven through the
//! state exchange on that view — must agree on one surviving owner per
//! client, which alone runs it (**takeover-coverage**).
//!
//! ## Small-scope rationale
//!
//! Protocol bugs of the kind that bit this codebase — the expulsion
//! deadlock fixed in PR 4, the flush-abandonment request loss, the
//! just-expelled-coordinator-candidate confusion — all manifest with 3
//! nodes, one partition and a few messages in flight. Exhausting that
//! scope is cheap (seconds) and finds them mechanically; scaling the
//! node count buys little coverage for exponential cost. The PR 4
//! deadlock is kept reachable for regression purposes: run with
//! [`gcs::proto::ProtoConfig::reform_on_expulsion`] disabled and the
//! checker reproduces it as a minimal eventual-merge counterexample
//! (`ftvod-cli check --revert-pr4-fix`).
//!
//! ```
//! use ftvod_mc::{explore, CheckConfig, Scenario};
//!
//! let scenario = Scenario::formed(3);
//! let report = explore(&scenario, &CheckConfig { depth: 4, ..CheckConfig::default() });
//! assert!(report.pass(), "{report}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod closure;
mod explore;
mod world;

pub use explore::{explore, CheckConfig, Counterexample, Report};
pub use gcs::proto::ProtoConfig;
pub use world::{Scenario, Step, World};
