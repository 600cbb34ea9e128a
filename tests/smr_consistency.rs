//! SMR integration: replicated logs stay identical across replicas, with
//! randomized command workloads.

use fastbft::sim::{Network, SimDuration, SimTime};
use fastbft::smr::{CountingMachine, KvCommand, KvStore, SmrSimCluster};
use fastbft::types::{Config, ProcessId, Value};
use proptest::prelude::*;

#[test]
fn logs_identical_across_replicas() {
    let cfg = Config::new(4, 1, 1).unwrap();
    // Clients broadcast each command to every replica (the rotating slot
    // leader proposes the common queue front).
    let workload: Vec<Value> = (0..20).map(Value::from_u64).collect();
    let commands = vec![workload; 4];
    let mut cluster = SmrSimCluster::new(
        cfg,
        1,
        CountingMachine::new(),
        commands,
        Value::from_u64(u64::MAX),
        Network::synchronous(SimDuration::DELTA),
        |node| node.with_batch_size(1),
    );
    let report = cluster.run_until_applied(20, SimTime(10_000_000));
    assert!(report.applied_everywhere >= 20, "{report:?}");
    assert!(report.logs_consistent);
    let reference = cluster.log(ProcessId(1));
    for p in cfg.processes() {
        let log = cluster.log(p);
        let common = log.len().min(reference.len());
        assert_eq!(log[..common], reference[..common], "log divergence at {p}");
    }
    // The leader's 20 commands all committed, in submission order.
    let committed: Vec<&Value> = reference
        .iter()
        .filter(|v| v.as_u64().is_some_and(|x| x < 20))
        .collect();
    assert_eq!(committed.len(), 20);
    for (i, v) in committed.iter().enumerate() {
        assert_eq!(v.as_u64(), Some(i as u64), "commit order broken");
    }
}

#[test]
fn generalized_config_smr() {
    let cfg = Config::new(8, 2, 1).unwrap();
    let workload: Vec<Value> = (0..8).map(Value::from_u64).collect();
    let mut cluster = SmrSimCluster::new(
        cfg,
        3,
        CountingMachine::new(),
        vec![workload; 8],
        Value::from_u64(u64::MAX),
        Network::synchronous(SimDuration::DELTA),
        |node| node,
    );
    let report = cluster.run_until_commands(8, SimTime(10_000_000));
    assert!(report.commands_everywhere >= 8, "{report:?}");
    assert!(report.logs_consistent);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Random KV workloads replicate identically on every node.
    #[test]
    fn random_kv_workloads_replicate(
        seed in 0u64..100,
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u64..100), 1..12),
    ) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let workload: Vec<Value> = ops
            .iter()
            .map(|(op, key, val)| {
                let key = format!("k{key}");
                match op {
                    0 => KvCommand::Put { key, value: val.to_string() },
                    1 => KvCommand::Get { key },
                    _ => KvCommand::Delete { key },
                }
                .to_value()
            })
            .collect();
        let commands = vec![workload.clone(); 4];
        // Commands are identified by their bytes and execute at most once,
        // so a workload with byte-identical repeats commits each distinct
        // command exactly once.
        // `Value`'s interior mutability is only its digest memo, which is
        // excluded from Eq/Ord/Hash — the key ordering cannot shift.
        #[allow(clippy::mutable_key_type)]
        let distinct: std::collections::BTreeSet<&Value> = workload.iter().collect();
        let mut cluster = SmrSimCluster::new(
            cfg,
            seed,
            KvStore::new(),
            commands,
            KvCommand::Noop.to_value(),
            Network::synchronous(SimDuration::DELTA),
            |node| node,
        );
        let report = cluster.run_until_commands(distinct.len() as u64, SimTime(10_000_000));
        prop_assert!(
            report.commands_everywhere >= distinct.len() as u64,
            "{report:?}"
        );
        prop_assert!(report.logs_consistent);
        let reference = cluster.machine(ProcessId(1)).state_digest();
        for p in cfg.processes() {
            prop_assert_eq!(cluster.machine(p).state_digest(), reference);
            let log = cluster.log(p);
            for cmd in &distinct {
                prop_assert_eq!(
                    log.iter().filter(|v| v == cmd).count(),
                    1,
                    "{} must apply {:?} exactly once",
                    p,
                    cmd
                );
            }
        }
    }
}
