//! The observability plane for `fastbft`: per-replica metrics and a
//! flight recorder, cheap enough for the consensus hot path.
//!
//! The paper's whole claim is a *latency shape* — 2-delay commits when the
//! fast quorum cooperates, 3-delay slow-path commits and view changes when
//! it does not. This crate is how the rest of the workspace makes that
//! shape observable instead of inferred:
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomic cells. One increment is a
//!   single uncontended `fetch_add`; safe to leave enabled on the frame
//!   receive path (the PR-5 rule: release readers must not bounce shared
//!   cache lines per frame — so every cell is per-replica, not global).
//! * [`Histogram`] — log-scale buckets (16 linear sub-buckets per
//!   power-of-two octave, HdrHistogram-style) with
//!   [`quantile`](Histogram::quantile) estimates for p50/p99/p999 that are
//!   guaranteed to **bound the true quantile from above** within 1/16
//!   relative error. Recording is three relaxed atomic ops.
//! * [`FlightRecorder`] — a bounded ring buffer of structured protocol
//!   events (view changes, path decisions, snapshot installs, MAC
//!   rejections). Rare-path only: recording takes a mutex.
//! * [`Metrics`] — one block per replica seat holding every layer's
//!   instruments, shared as an `Arc<Metrics>` by everything the seat runs.
//!   Every seat records: one built without a registry gets a block of its
//!   own (`Arc::default()`), so a record site is a plain call.
//! * [`MetricsRegistry`] — the cluster-wide view: `n` replica metrics plus
//!   the two exporters, Prometheus-style text exposition
//!   ([`render_text`](MetricsRegistry::render_text)) and a JSON dump
//!   ([`render_json`](MetricsRegistry::render_json)).
//!
//! ```
//! use fastbft_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new(4);
//! let m = registry.replica(0); // give this to replica p1
//! m.commit_fast_total.inc();
//! m.commit_latency_fast_us.record(180);
//! let text = registry.render_text();
//! assert!(text.contains("fastbft_commit_fast_total{replica=\"p1\"} 1"));
//! ```
//!
//! The crate has **zero dependencies** (not even workspace ones): it sits
//! below every other crate so any layer can record into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod instruments;
mod recorder;
mod registry;

pub use histogram::Histogram;
pub use instruments::{Counter, Gauge};
pub use recorder::{Event, FlightRecorder};
pub use registry::{Metrics, MetricsRegistry};
