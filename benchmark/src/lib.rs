//! The repo benchmark: see `README.md` in this directory.

pub mod bench;
pub mod compare;
pub mod harness;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod metrics;
pub mod reference;
pub mod report;
pub mod runs;
pub mod service;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
