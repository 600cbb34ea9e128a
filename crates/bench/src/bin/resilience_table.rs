//! E5 — the resilience table (§1.2, §5): minimum process counts.
//!
//! Prints `min n` per `(f, t)` for this paper's protocol, FaB Paxos and
//! PBFT, then validates the headline entries by actually running each
//! protocol at its minimum size.

use fastbft_baselines::{fab_config, FabReplica, PbftReplica};
use fastbft_bench::{header, row};
use fastbft_core::cluster::SimCluster;
use fastbft_sim::{Network, SimDuration};
use fastbft_types::{Config, ProtocolKind, Value};

fn main() {
    println!("# E5 — minimum processes for f-resilient, t-fast Byzantine consensus\n");
    println!(
        "{}",
        header(&["f", "t", "KTZ21 (this paper)", "FaB Paxos", "PBFT (3-step)"])
    );
    for f in 1..=4usize {
        for t in 1..=f {
            println!(
                "{}",
                row(&[
                    f.to_string(),
                    t.to_string(),
                    ProtocolKind::Ktz.min_n(f, t).to_string(),
                    ProtocolKind::FabPaxos.min_n(f, t).to_string(),
                    ProtocolKind::Pbft.min_n(f, t).to_string(),
                ])
            );
        }
    }

    println!("\nheadline (f = t = 1): this paper 4 processes, FaB 6, PBFT 4-but-3-step.");
    println!("vanilla (t = f): 5f − 1 vs FaB's 5f + 1 — two fewer at every f.\n");

    // Validate by execution: each protocol decides at its own minimum n.
    print!("validating KTZ21 at n = 4 … ");
    let cfg = Config::new(4, 1, 1).unwrap();
    let mut cluster = SimCluster::builder(cfg).inputs_u64([7; 4]).build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided && report.violations.is_empty());
    assert_eq!(report.decision_delays_max(), 2);
    println!("decides in {} delays ✓", report.decision_delays_max());

    print!("validating FaB at n = 6 … ");
    let fab_cfg = fab_config(6, 1, 1).unwrap();
    let network = Network::synchronous(SimDuration::DELTA);
    let inputs = vec![Value::from_u64(7); 6];
    let mut cluster = SimCluster::new(6, 1, network, inputs, [], |_, keys, dir, input| {
        Box::new(FabReplica::new(fab_cfg, keys, dir.clone(), input))
    });
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided && report.violations.is_empty());
    println!("decides ✓");

    print!("validating PBFT at n = 4 … ");
    let pbft_cfg = Config::new(4, 1, 1).unwrap();
    let network = Network::synchronous(SimDuration::DELTA);
    let inputs = vec![Value::from_u64(7); 4];
    let mut cluster = SimCluster::new(4, 2, network, inputs, [], |_, keys, dir, input| {
        Box::new(PbftReplica::new(pbft_cfg, keys, dir.clone(), input))
    });
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided && report.violations.is_empty());
    println!("decides ✓");

    // And the impossibility side: KTZ21's constructor rejects n below the
    // bound, and the executable lower bound (E4) shows why it must.
    assert!(Config::new(3, 1, 1).is_err());
    assert!(Config::vanilla(8, 2).is_err());
    println!("\nn below 3f + 2t − 1 rejected by construction (see also E4) ✓");
}
