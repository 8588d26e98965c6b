//! Shared utilities for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). This library holds the pieces they
//! share: CLI parsing, timing, table formatting, and the configuration
//! they measure ([`paper_config`]).

#![warn(missing_docs)]

pub mod alloc_track;
pub mod cli;
pub mod fmt;
pub mod timing;
pub mod trajectory;

pub use cli::Args;
pub use fmt::Table;
pub use timing::{time, time_best_of};

use semisort::{ScatterConfig, ScatterStrategy, SemisortConfig};

/// The configuration every `results/` bin measures: the paper's constants
/// with its own Phase 3, [`ScatterStrategy::RandomCas`] (Algorithm 1). The
/// library default backend is InPlace; naming the strategy here keeps the
/// committed tables describing the algorithm they were measured on.
pub fn paper_config() -> SemisortConfig {
    SemisortConfig {
        scatter: ScatterConfig {
            strategy: ScatterStrategy::RandomCas,
            ..ScatterConfig::default()
        },
        ..SemisortConfig::default()
    }
}
