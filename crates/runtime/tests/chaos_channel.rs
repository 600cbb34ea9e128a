//! The chaos suite over the in-process channel transport: every catalog
//! scenario drives a live SMR cluster through [`fastbft_smr::chaos::run_chaos`],
//! which asserts the three graceful-degradation properties (safety,
//! liveness after heal, commit-path attribution). The fault seed is fixed
//! (`FASTBFT_CHAOS_SEED`, default 42) so every run shapes the same
//! deliveries; the TCP twin of this suite lives in
//! `crates/net/tests/chaos_suite.rs`.

use std::path::Path;
use std::time::Duration;

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::chaos::{chaos_seed_from_env, Scenario};
use fastbft_runtime::transport::ChannelTransport;
use fastbft_runtime::{wrap_seats_metered, FaultPlan, NodeSeat};
use fastbft_sim::SimDuration;
use fastbft_smr::chaos::{run_chaos, ChaosLoad, ChaosReport};
use fastbft_smr::{smr_actors_configured, AdaptiveBatch, Batching, CountingMachine};
use fastbft_types::{Config, Value};

const TICK: Duration = Duration::from_micros(50);
/// The repo-wide default view-1 timeout, in ticks (8·Δ). Scenarios only
/// ever *raise* this, by their injected delay profile.
const FLOOR_TICKS: u64 = 800;
/// Commit cadence hint the catalog scales its fault windows from.
const COMMIT_MS: u64 = 25;

fn idle() -> Value {
    Value::from_u64(u64::MAX)
}

/// Builds a metered SMR cluster over the channel mesh, wraps every seat
/// in a `FaultTransport` on a shared plan, and runs the scenario through
/// the graceful-degradation harness. The view-1 timeout is *derived* from
/// the scenario's injected delay profile — never hand-tuned per test.
fn run(cfg: Config, key_seed: u64, scenario: Scenario) -> ChaosReport {
    let n = cfg.n();
    let (pairs, dir) = KeyDirectory::generate(n, key_seed);
    let registry = MetricsRegistry::new(n);
    let base_ticks = scenario.base_timeout_ticks(TICK, FLOOR_TICKS);
    let opts = ReplicaOptions {
        base_timeout: SimDuration(base_ticks),
        ..ReplicaOptions::default()
    };
    let actors = smr_actors_configured(
        cfg,
        &pairs,
        &dir,
        CountingMachine::new(),
        vec![Vec::new(); n],
        idle(),
        opts,
        // One command per slot.
        Batching::Adaptive(AdaptiveBatch {
            max_batch_cmds: 1,
            ..AdaptiveBatch::default()
        }),
        None,
        Some(&registry),
    );
    let seats: Vec<NodeSeat<_, ChannelTransport<_>>> = actors
        .into_iter()
        .zip(ChannelTransport::mesh(n))
        .map(|(actor, (transport, control))| NodeSeat {
            actor,
            transport,
            control,
            verify: None,
        })
        .collect();
    let plan = FaultPlan::default();
    let seats = wrap_seats_metered(seats, &plan, chaos_seed_from_env(42), &registry);
    let base_timeout = Duration::from_nanos(TICK.as_nanos() as u64 * base_ticks);
    run_chaos(
        seats,
        cfg,
        idle(),
        registry,
        plan,
        scenario,
        TICK,
        base_timeout,
        ChaosLoad::default(),
        &Path::new(env!("CARGO_TARGET_TMPDIR")).join("postmortem/chaos_channel"),
    )
}

fn catalog_scenario(cfg: &Config, name: &str) -> Scenario {
    Scenario::catalog(cfg, COMMIT_MS)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the catalog"))
}

fn generalized_seven() -> Config {
    Config::new(7, 2, 1).unwrap()
}

#[test]
fn delay_the_leader_recovers_the_fast_path() {
    let cfg = generalized_seven();
    let report = run(cfg, 71, catalog_scenario(&cfg, "delay-the-leader"));
    assert!(report.injected[0] > 0, "delays must have been injected");
}

#[test]
fn partition_the_fast_quorum_degrades_to_the_slow_path() {
    let cfg = generalized_seven();
    let report = run(cfg, 72, catalog_scenario(&cfg, "partition-the-fast-quorum"));
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
    let cfg = generalized_seven();
    let report = run(cfg, 73, catalog_scenario(&cfg, "flapping-link"));
    assert!(report.injected[3] > 0, "flaps must have dropped traffic");
}

#[test]
fn slow_follower_does_not_sink_the_fast_path() {
    let cfg = generalized_seven();
    let report = run(cfg, 74, catalog_scenario(&cfg, "slow-follower"));
    assert!(report.injected[0] > 0, "delays must have been injected");
}

#[test]
fn asymmetric_wan_commits_across_regions() {
    let cfg = generalized_seven();
    let report = run(cfg, 75, catalog_scenario(&cfg, "asymmetric-wan"));
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
    let cfg = Config::new(4, 1, 1).unwrap();
    let scenario = Scenario::partition_the_fast_quorum(&cfg, Duration::from_millis(COMMIT_MS * 40));
    let report = run(cfg, 76, scenario);
    assert!(
        report.injected[3] > 0,
        "partition must have dropped traffic"
    );
    assert!(report.fast[2] > 0, "fast commits must resume after heal");
}
