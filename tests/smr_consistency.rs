//! SMR integration: replicated logs stay identical across replicas, with
//! randomized command workloads.

use std::collections::BTreeSet;

use fastbft::sim::{check, Network, SimDuration, SimTime};
use fastbft::smr::{CountingMachine, KvCommand, KvStore, SmrSimCluster};
use fastbft::types::{Config, Value};

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
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node.with_batch_size(1)),
    );
    cluster.run_until(SimTime(10_000_000), |c| c.report().applied_everywhere >= 20);
    // The leader's 20 commands all committed, in submission order.
    let committed: Vec<&Value> = cluster.logs()[0].values().collect();
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
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node),
    );
    cluster.run_until(SimTime(10_000_000), |c| c.report().commands_everywhere >= 8);
}

/// Random KV workloads replicate identically on every node.
#[test]
fn random_kv_workloads_replicate() {
    check("random_kv_workloads_replicate", 8, |c| {
        let seed = c.int(0..100u64);
        let ops = c.vec(1..12, |c| (c.int(0..3u8), c.int(0..4u8), c.int(0..100u64)));
        let cfg = Config::new(4, 1, 1).unwrap();
        let workload: Vec<Value> = ops
            .iter()
            .map(|(op, key, val)| {
                let key = format!("k{key}");
                match op {
                    0 => KvCommand::Put {
                        key,
                        value: val.to_string(),
                    },
                    1 => KvCommand::Get { key },
                    _ => KvCommand::Delete { key },
                }
                .to_value()
            })
            .collect();
        // Commands are identified by their bytes and execute at most once,
        // so a workload with byte-identical repeats commits each distinct
        // command exactly once.
        let distinct: BTreeSet<&[u8]> = workload.iter().map(Value::as_bytes).collect();
        let distinct = distinct.len() as u64;
        let mut cluster = SmrSimCluster::new(
            cfg,
            seed,
            KvStore::new(),
            vec![workload; 4],
            Network::synchronous(SimDuration::DELTA),
            |_, node| Box::new(node),
        );
        cluster.run_until(SimTime(10_000_000), |c| {
            c.report().commands_everywhere >= distinct
        });
    });
}
