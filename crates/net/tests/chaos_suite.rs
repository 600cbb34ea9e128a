//! The chaos suite over real loopback TCP: the same catalog scenarios as
//! `crates/runtime/tests/chaos_channel.rs`, with every authenticated
//! socket transport (`tcp_seats_metered`) wrapped by the harness in a
//! `FaultTransport` on a shared plan. The graceful-degradation harness
//! asserts the same three properties on both transports — that matrix,
//! under the harness' fixed fault seed, is the CI chaos gate.

use std::path::Path;

use fastbft_net::tcp_seats_metered;
use fastbft_runtime::chaos::Scenario;
use fastbft_smr::chaos::{run_chaos, ChaosReport};
use fastbft_types::Config;

/// Runs the catalog scenario `name` on a cluster over loopback TCP.
fn run(cfg: Config, name: &str) -> ChaosReport {
    let scenario = Scenario::catalog(&cfg)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the catalog"));
    let on_tcp = |actors, pairs, dir, registry: &_| {
        let (seats, _addrs) = tcp_seats_metered(actors, pairs, dir, Default::default(), registry)
            .expect("loopback bind");
        seats
    };
    let postmortem = Path::new(env!("CARGO_TARGET_TMPDIR")).join("postmortem/chaos_suite");
    run_chaos(cfg, &scenario, on_tcp, &postmortem)
}

fn generalized_seven() -> Config {
    Config::new(7, 2, 1).unwrap()
}

#[test]
fn delay_the_leader_recovers_the_fast_path_over_tcp() {
    let report = run(generalized_seven(), "delay-the-leader");
    assert!(report.injected[0] > 0, "delays must have been injected");
}

#[test]
fn partition_the_fast_quorum_degrades_to_the_slow_path_over_tcp() {
    let report = run(generalized_seven(), "partition-the-fast-quorum");
    assert!(
        report.injected[3] > 0,
        "partition must have dropped traffic"
    );
    assert!(report.slow[1] > 0, "slow path must carry the fault window");
}

#[test]
fn flapping_link_stays_safe_and_recovers_over_tcp() {
    let report = run(generalized_seven(), "flapping-link");
    assert!(report.injected[3] > 0, "flaps must have dropped traffic");
}

#[test]
fn slow_follower_does_not_sink_the_fast_path_over_tcp() {
    let report = run(generalized_seven(), "slow-follower");
    assert!(report.injected[0] > 0, "delays must have been injected");
}

#[test]
fn asymmetric_wan_commits_across_regions_over_tcp() {
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
fn vanilla_partition_stalls_then_recovers_over_tcp() {
    let report = run(Config::new(4, 1, 1).unwrap(), "partition-the-fast-quorum");
    assert!(
        report.injected[3] > 0,
        "partition must have dropped traffic"
    );
    assert!(report.fast[2] > 0, "fast commits must resume after heal");
}
