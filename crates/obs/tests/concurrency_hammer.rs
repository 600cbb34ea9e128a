//! Multi-thread hammer: no increment is ever lost.
//!
//! Counters and histograms use relaxed atomics — relaxed ordering can
//! reorder *unrelated* observations but a `fetch_add` is still a single
//! atomic RMW, so concurrent increments must all land. This test hammers
//! one shared block from many threads and asserts exact totals.

use std::sync::Arc;
use std::thread;

use fastbft_obs::{Histogram, Metrics, MetricsRegistry};

const THREADS: usize = 8;
const PER_THREAD: u64 = 50_000;

#[test]
fn counters_never_lose_increments() {
    let m = Arc::new(Metrics::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                for j in 0..PER_THREAD {
                    m.commit_fast_total.inc();
                    m.bytes_out_total.add(3);
                    m.writer_queue_depth_peak.set_max(i as u64 * PER_THREAD + j);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hammer thread panicked");
    }
    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(m.commit_fast_total.get(), expected);
    assert_eq!(m.bytes_out_total.get(), expected * 3);
    assert_eq!(
        m.writer_queue_depth_peak.get(),
        expected - 1,
        "high-water is the max"
    );
}

#[test]
fn histogram_never_loses_samples() {
    let h = Arc::new(Histogram::new());
    let workers: Vec<_> = (0..THREADS)
        .map(|i| {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for j in 0..PER_THREAD {
                    // Spread across many buckets so threads collide on
                    // the same cells some of the time but not always.
                    h.record((i as u64 * 31 + j * 7) % 100_000);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("hammer thread panicked");
    }
    assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
    assert!(h.quantile(1.0) >= h.quantile(0.5));
}

#[test]
fn registry_scrape_races_with_writers() {
    // A scrape concurrent with recording must see internally consistent
    // output (no panics, parseable lines) — exact values are racy.
    let reg = MetricsRegistry::new(2);
    let writer = {
        let reg = reg.clone();
        thread::spawn(move || {
            for i in 0..20_000u64 {
                reg.metrics(0).commit_fast_total.inc();
                reg.metrics(1).commit_latency_fast_us.record(i % 5_000);
            }
        })
    };
    for _ in 0..20 {
        let text = reg.render_text();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("malformed line");
            value.parse::<f64>().expect("non-numeric sample");
        }
        let _ = reg.render_json();
    }
    writer.join().expect("writer panicked");
    assert_eq!(reg.total(|m| &m.commit_fast_total), 20_000);
}
