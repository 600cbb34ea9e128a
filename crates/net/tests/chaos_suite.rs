//! The chaos catalog over real loopback TCP: every catalog scenario drives
//! a live SMR cluster through [`fastbft_smr::chaos::run_chaos`], with every
//! authenticated socket transport (`tcp_seats_metered`) wrapped by the
//! harness in a `FaultTransport` on a shared plan, under the harness' one
//! fixed fault seed. The harness asserts every gate — logs agree, liveness
//! returns within the recovery window, the commit path matches the
//! scenario, every promised fault fired — so each test is one scenario. The
//! same catalog runs over many seeds in virtual time in
//! `crates/smr/tests/chaos_virtual.rs`; this suite is its real-transport
//! check.

use std::path::Path;

use fastbft_net::tcp_seats_metered;
use fastbft_runtime::chaos::Scenario;
use fastbft_smr::chaos::run_chaos;
use fastbft_types::Config;

/// Runs the catalog scenario `name` on a cluster over loopback TCP.
fn run(cfg: Config, name: &str) {
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
    run_chaos(cfg, &scenario, on_tcp, &postmortem);
}

fn generalized_seven() -> Config {
    Config::new(7, 2, 1).unwrap()
}

#[test]
fn delay_the_leader_recovers_the_fast_path_over_tcp() {
    run(generalized_seven(), "delay-the-leader");
}

#[test]
fn partition_the_fast_quorum_degrades_to_the_slow_path_over_tcp() {
    run(generalized_seven(), "partition-the-fast-quorum");
}

#[test]
fn flapping_link_stays_safe_and_recovers_over_tcp() {
    run(generalized_seven(), "flapping-link");
}

#[test]
fn slow_follower_does_not_sink_the_fast_path_over_tcp() {
    run(generalized_seven(), "slow-follower");
}

#[test]
fn asymmetric_wan_commits_across_regions_over_tcp() {
    run(generalized_seven(), "asymmetric-wan");
}

/// On the vanilla 4-node cluster (`t = f`), isolating `t + 1 = 2` nodes
/// leaves only 2 survivors — below every quorum, so the cluster is
/// *allowed* to stall during the window; the gate is that it resumes
/// (fast) once healed, with no divergence.
#[test]
fn vanilla_partition_stalls_then_recovers_over_tcp() {
    run(Config::new(4, 1, 1).unwrap(), "partition-the-fast-quorum");
}
