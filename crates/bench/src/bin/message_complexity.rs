//! E12 — message complexity of a common-case decision.
//!
//! The fast path is one `propose` broadcast plus an all-to-all `ack` round:
//! `O(n²)` messages (the price of two-step latency — every process must
//! observe the quorum itself rather than hearing a digest from the leader).
//! Counted per protocol at its minimal size across `f`, plus per-kind
//! breakdowns.

use fastbft_baselines::{fab_config, FabReplica, PbftReplica};
use fastbft_bench::{header, row};
use fastbft_core::cluster::{Report, SimCluster};
use fastbft_sim::{MessageStats, Network, SimDuration};
use fastbft_types::{Config, ProtocolKind, Value};

fn stats(n: usize, report: Report) -> (usize, MessageStats) {
    assert!(report.violations.is_empty() && report.all_decided);
    (n, report.stats)
}

fn ktz_stats(f: usize, t: usize) -> (usize, MessageStats) {
    let n = ProtocolKind::Ktz.min_n(f, t);
    let cfg = Config::new(n, f, t).unwrap();
    let mut cluster = SimCluster::builder(cfg).inputs_u64(vec![7; n]).build();
    stats(n, cluster.run_until_all_decide())
}

fn fab_stats(f: usize, t: usize) -> (usize, MessageStats) {
    let n = ProtocolKind::FabPaxos.min_n(f, t);
    let cfg = fab_config(n, f, t).unwrap();
    let network = Network::synchronous(SimDuration::DELTA);
    let inputs = vec![Value::from_u64(7); n];
    let mut cluster = SimCluster::new(n, 3, network, inputs, [], |_, keys, dir, input| {
        Box::new(FabReplica::new(cfg, keys, dir.clone(), input))
    });
    stats(n, cluster.run_until_all_decide())
}

fn pbft_stats(f: usize) -> (usize, MessageStats) {
    let n = ProtocolKind::Pbft.min_n(f, 0);
    let cfg = Config::new_unchecked(n, f, 1.min(f));
    let network = Network::synchronous(SimDuration::DELTA);
    let inputs = vec![Value::from_u64(7); n];
    let mut cluster = SimCluster::new(n, 4, network, inputs, [], |_, keys, dir, input| {
        Box::new(PbftReplica::new(cfg, keys, dir.clone(), input))
    });
    stats(n, cluster.run_until_all_decide())
}

fn main() {
    println!("# E12 — messages and bytes per common-case decision\n");
    println!(
        "{}",
        header(&["f", "protocol", "n", "messages", "bytes", "msgs/n²"])
    );
    for f in 1..=3usize {
        let (n, stats) = ktz_stats(f, f);
        println!(
            "{}",
            row(&[
                f.to_string(),
                "KTZ21 (vanilla t=f)".into(),
                n.to_string(),
                stats.messages.to_string(),
                stats.bytes.to_string(),
                format!("{:.2}", stats.messages as f64 / (n * n) as f64),
            ])
        );
        let (n, stats) = fab_stats(f, f);
        println!(
            "{}",
            row(&[
                f.to_string(),
                "FaB Paxos".into(),
                n.to_string(),
                stats.messages.to_string(),
                stats.bytes.to_string(),
                format!("{:.2}", stats.messages as f64 / (n * n) as f64),
            ])
        );
        let (n, stats) = pbft_stats(f);
        println!(
            "{}",
            row(&[
                f.to_string(),
                "PBFT".into(),
                n.to_string(),
                stats.messages.to_string(),
                stats.bytes.to_string(),
                format!("{:.2}", stats.messages as f64 / (n * n) as f64),
            ])
        );
    }

    println!("\nper-kind breakdown for KTZ21's generalized mode (n = 8, f = 2, t = 1):");
    let cfg = Config::new(8, 2, 1).unwrap();
    let mut cluster = SimCluster::builder(cfg).inputs_u64(vec![7; 8]).build();
    let report = cluster.run_until_all_decide();
    for (kind, (count, bytes)) in &report.stats.by_kind {
        println!("  {kind:<10} {count:>5} msgs {bytes:>8} B");
    }
    println!("\nshape: all three protocols are Θ(n²) messages in the common case; the");
    println!("fast protocols trade the third latency round for the all-to-all ack. ✓");
}
