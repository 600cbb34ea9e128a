//! E10 — view synchronization: recovery after GST and leader cascades.
//!
//! The paper assumes partial synchrony (§2.1): a known bound Δ that holds
//! only from an unknown Global Stabilization Time (GST) on, and a view
//! synchronizer with three properties (§3). This experiment shows ours
//! delivers them operationally:
//!
//! 1. before GST the network is chaotic and a decision may land early or
//!    not at all, but never unsafely; after GST it lands within a bounded
//!    time, for several GST offsets;
//! 2. runs of consecutive Byzantine leaders delay decisions by roughly one
//!    doubling timeout each — then the first correct leader finishes the job.
//!
//! Run with: `cargo run --release --example view_sync`

use std::ops::Range;

use fastbft::core::cluster::{Behavior, Report, SimCluster};
use fastbft::sim::{SimDuration, SimTime};
use fastbft::types::{Config, ProcessId, View};

/// `(n, f, t)`, a process crashing at 1.5Δ, the pre-GST delay bound in Δ,
/// the seeds, and the GSTs in Δ.
type Sweep = (
    (usize, usize, usize),
    Option<ProcessId>,
    u64,
    Range<u64>,
    [u64; 4],
);

/// The latest decision of a run, in ticks.
fn decided_at(report: &Report) -> u64 {
    assert!(
        report.all_decided && report.violations.is_empty(),
        "{:?}",
        report.violations
    );
    report.decisions.iter().map(|(_, t, _)| t.0).max().unwrap()
}

fn main() {
    let delta = SimDuration::DELTA.0;

    println!("# E10 — view synchronization\n");
    println!("## decision time vs GST (max over seeds)\n");
    println!(
        "| n | f | t | faulty | pre-GST delays ≤ (Δ) | seeds | GST (Δ) | decided at (Δ) | Δ after GST |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let sweeps: [Sweep; 2] = [
        ((9, 2, 2), None, 10, 0..5, [0, 5, 20, 50]),
        ((4, 1, 1), Some(ProcessId(4)), 20, 3..4, [0, 10, 30, 60]),
    ];
    for ((n, f, t), crashed, pre_gst, seeds, gsts) in sweeps {
        let cfg = Config::new(n, f, t).unwrap();
        let faulty = crashed.map_or("none".to_string(), |p| format!("{p} crashes at 1.5Δ"));
        let seed_label = if seeds.end - seeds.start == 1 {
            seeds.start.to_string()
        } else {
            format!("{}–{}", seeds.start, seeds.end - 1)
        };
        for gst_delta in gsts {
            let gst = gst_delta * delta;
            let latest = seeds
                .clone()
                .map(|seed| {
                    let mut builder = SimCluster::builder(cfg)
                        .inputs_u64(vec![7; cfg.n()])
                        .gst(SimTime(gst), SimDuration(pre_gst * delta))
                        .seed(seed);
                    if let Some(p) = crashed {
                        builder = builder.behavior(p, Behavior::CrashAt(SimTime(150)));
                    }
                    decided_at(&builder.build().run_until_all_decide())
                })
                .max()
                .unwrap();
            // In every run here a decision after GST takes at most the fast
            // path's two delays.
            let after = if latest < gst {
                "before GST".to_string()
            } else {
                let after = (latest - gst).div_ceil(delta);
                assert!(after <= 2, "{cfg} GST {gst_delta}Δ: {after}Δ after GST");
                after.to_string()
            };
            let at = latest.div_ceil(delta);
            println!("| {n} | {f} | {t} | {faulty} | {pre_gst} | {seed_label} | {gst_delta} | {at} | {after} |");
        }
    }

    println!("\n## Byzantine leader cascades (n = 9, f = t = 2, synchronous network)\n");
    println!("| silent leaders | views crossed | decided at (Δ) |");
    println!("|---|---|---|");
    let cfg = Config::vanilla(9, 2).unwrap();
    let mut previous = 0;
    for k in 0..=2u64 {
        // Make the leaders of views 1..=k silent (round-robin map).
        let mut builder = SimCluster::builder(cfg).inputs_u64(vec![4; 9]);
        for v in 1..=k {
            builder = builder.behavior(cfg.leader(View(v)), Behavior::Silent);
        }
        let at = decided_at(&builder.build().run_until_all_decide()).div_ceil(delta);
        println!("| {k} | {} | {at} |", k + 1);
        assert!(at > previous, "each silent leader costs a timeout");
        assert!(k > 0 || at == 2, "no silent leader: the fast path");
        previous = at;
    }

    println!("\nshape: post-GST recovery is bounded; each faulty leader costs one");
    println!("(doubling) timeout before the next correct leader decides. ✓");
}
