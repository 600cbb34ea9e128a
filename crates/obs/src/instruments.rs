//! The scalar instruments: monotonic counters and last-value gauges.
//!
//! Both are single relaxed `AtomicU64`s. Relaxed ordering is deliberate:
//! metric reads are statistical (a scrape racing an increment may miss it
//! by one), and nothing synchronizes *through* a metric — so the hot path
//! pays one uncontended RMW and no fences. Each instrument lives inside a
//! per-replica [`Metrics`](crate::Metrics) block, never shared across
//! replica threads, so the cache line stays home.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter (events since process start).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous value that can move both ways (suspected
/// seats, links down), or — via [`set_max`](Gauge::set_max) — a high-water
/// mark.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set_max(3);
        assert_eq!(g.get(), 7, "set_max never lowers");
        g.set_max(19);
        assert_eq!(g.get(), 19);
        g.set(2);
        assert_eq!(g.get(), 2, "set overwrites unconditionally");
    }
}
