//! The chaos suite over the in-process channel transport: every catalog
//! scenario drives a live SMR cluster through [`fastbft_smr::chaos::run_chaos`],
//! which asserts the three graceful-degradation properties (safety,
//! liveness after heal, commit-path attribution) under its one fixed fault
//! seed, so every run shapes the same deliveries; the TCP twin of this
//! suite lives in `crates/net/tests/chaos_suite.rs`.

use std::path::Path;

use fastbft_runtime::channel_seats;
use fastbft_runtime::chaos::Scenario;
use fastbft_smr::chaos::{run_chaos, ChaosReport};
use fastbft_types::Config;

/// Runs the catalog scenario `name` on a cluster over the channel mesh.
fn run(cfg: Config, name: &str) -> ChaosReport {
    let scenario = Scenario::catalog(&cfg)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the catalog"));
    let postmortem = Path::new(env!("CARGO_TARGET_TMPDIR")).join("postmortem/chaos_channel");
    run_chaos(
        cfg,
        &scenario,
        |actors, _, _, _| channel_seats(actors),
        &postmortem,
    )
}

fn generalized_seven() -> Config {
    Config::new(7, 2, 1).unwrap()
}

#[test]
fn delay_the_leader_recovers_the_fast_path() {
    let report = run(generalized_seven(), "delay-the-leader");
    assert!(report.injected[0] > 0, "delays must have been injected");
}

#[test]
fn partition_the_fast_quorum_degrades_to_the_slow_path() {
    let report = run(generalized_seven(), "partition-the-fast-quorum");
    // The harness already asserts slow > fast during the window; the
    // report additionally shows the partition actually ate deliveries.
    assert!(
        report.injected[3] > 0,
        "partition must have dropped traffic"
    );
    assert!(report.slow[1] > 0, "slow path must carry the fault window");
}

#[test]
fn flapping_link_stays_safe_and_recovers() {
    let report = run(generalized_seven(), "flapping-link");
    assert!(report.injected[3] > 0, "flaps must have dropped traffic");
}

#[test]
fn slow_follower_does_not_sink_the_fast_path() {
    let report = run(generalized_seven(), "slow-follower");
    assert!(report.injected[0] > 0, "delays must have been injected");
}

#[test]
fn asymmetric_wan_commits_across_regions() {
    let report = run(generalized_seven(), "asymmetric-wan");
    assert!(report.injected[0] > 0, "cross-region delays must fire");
    assert!(
        report.fast[2] > 0,
        "a WAN delay profile must not kill the fast path"
    );
}

/// On the vanilla 4-node cluster (`t = f`), isolating `t + 1 = 2` nodes
/// leaves only 2 survivors — below every quorum, so the cluster is
/// *allowed* to stall during the window; the gate is that it resumes
/// (fast) once healed, with no divergence.
#[test]
fn vanilla_partition_stalls_then_recovers() {
    let report = run(Config::new(4, 1, 1).unwrap(), "partition-the-fast-quorum");
    assert!(
        report.injected[3] > 0,
        "partition must have dropped traffic"
    );
    assert!(report.fast[2] > 0, "fast commits must resume after heal");
}
