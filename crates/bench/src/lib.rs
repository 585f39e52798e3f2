//! The measuring harness that is not the repo benchmark: the fixed perf
//! suite behind `ftvod-cli perf` ([`perf`]) and the `table_code_size`
//! binary (EXPERIMENTS.md T6).
//!
//! The paper's figures and tables are rows of
//! [`ftvod_core::experiments`], run by `ftvod-cli experiment <id>|all`.

pub mod perf;
