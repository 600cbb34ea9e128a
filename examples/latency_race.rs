//! Latency race: this paper's protocol vs FaB Paxos vs PBFT, on identical
//! networks.
//!
//! Reproduces the §1 comparison: two-step protocols (ours, FaB) decide in
//! 2Δ; PBFT needs 3Δ — and ours does it with the fewest processes.
//!
//! Run with: `cargo run --example latency_race`

use fastbft::baselines::{fab_config, FabReplica, PbftReplica};
use fastbft::core::cluster::SimCluster;
use fastbft::sim::{Network, SimDuration};
use fastbft::types::{Config, ProtocolKind, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let delta = SimDuration::DELTA;
    println!("one Byzantine fault tolerated (f = t = 1), synchronous network, Δ = {delta}\n");
    println!(
        "{:<22} {:>4} {:>16} {:>12}",
        "protocol", "n", "delays to decide", "messages"
    );

    // KTZ21 (this paper): n = 4.
    let cfg = Config::new(ProtocolKind::Ktz.min_n(1, 1), 1, 1)?;
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64(vec![7; cfg.n()])
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.violations.is_empty());
    println!(
        "{:<22} {:>4} {:>16} {:>12}",
        "KTZ21 (this paper)",
        cfg.n(),
        report.decision_delays_max(),
        report.stats.messages
    );

    // FaB Paxos: n = 6 for the same guarantee.
    let fab_n = ProtocolKind::FabPaxos.min_n(1, 1);
    let fab_cfg = fab_config(fab_n, 1, 1).map_err(std::io::Error::other)?;
    let inputs = vec![Value::from_u64(7); fab_n];
    let mut fab = SimCluster::new(
        fab_n,
        42,
        Network::synchronous(delta),
        inputs,
        [],
        |_, keys, dir, input| Box::new(FabReplica::new(fab_cfg, keys, dir.clone(), input)),
    );
    let fab_report = fab.run_until_all_decide();
    assert!(fab_report.all_decided && fab_report.violations.is_empty());
    println!(
        "{:<22} {:>4} {:>16} {:>12}",
        "FaB Paxos",
        fab_n,
        fab_report.decision_delays_max(),
        fab_report.stats.messages
    );

    // PBFT: n = 4, but three message delays.
    let pbft_n = ProtocolKind::Pbft.min_n(1, 0);
    let pbft_cfg = Config::new(pbft_n, 1, 1)?;
    let inputs = vec![Value::from_u64(7); pbft_n];
    let mut pbft = SimCluster::new(
        pbft_n,
        43,
        Network::synchronous(delta),
        inputs,
        [],
        |_, keys, dir, input| Box::new(PbftReplica::new(pbft_cfg, keys, dir.clone(), input)),
    );
    let pbft_report = pbft.run_until_all_decide();
    assert!(pbft_report.all_decided && pbft_report.violations.is_empty());
    println!(
        "{:<22} {:>4} {:>16} {:>12}",
        "PBFT",
        pbft_n,
        pbft_report.decision_delays_max(),
        pbft_report.stats.messages
    );

    println!(
        "\nKTZ21 matches FaB's two-step latency with {} fewer processes, and beats \
         PBFT by one message delay at equal n.",
        fab_n - cfg.n()
    );
    assert_eq!(report.decision_delays_max(), 2);
    assert_eq!(fab_report.decision_delays_max(), 2);
    assert_eq!(pbft_report.decision_delays_max(), 3);
    Ok(())
}
