//! Experiment harnesses reproducing the paper's figures and claims.
//!
//! This crate hosts no library logic of its own — see the `src/bin/`
//! binaries (one per experiment, mapped onto the paper's figures and tables
//! in `docs/ARCHITECTURE.md`), each of which asserts the numbers it prints.
//!
//! Shared helpers for the binaries live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fastbft_sim::SimDuration;

/// The Δ used across the experiment binaries.
pub const DELTA: SimDuration = SimDuration::DELTA;

/// Renders a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Renders a markdown-style header + separator.
pub fn header(cells: &[&str]) -> String {
    let head = format!("| {} |", cells.join(" | "));
    let sep = format!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    format!("{head}\n{sep}")
}
