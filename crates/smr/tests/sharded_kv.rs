//! The sharded KV store end to end: routing discipline, per-group log
//! agreement, and the cross-shard consistency property test.

use std::collections::BTreeMap;
use std::time::Duration;

use fastbft_core::replica::ReplicaOptions;
use fastbft_smr::runtime::as_smr_node;
use fastbft_smr::{kv_shard_of, KvCommand, KvStore, ShardedKvHandle};
use fastbft_types::{Config, ShardMap, Value};
use proptest::prelude::*;

const TICK: Duration = Duration::from_micros(50);
const WAIT: Duration = Duration::from_secs(20);

fn put(key: &str, value: &str) -> Value {
    KvCommand::Put {
        key: key.into(),
        value: value.into(),
    }
    .to_value()
}

/// Deterministic keys guaranteeing at least `per_shard` keys land in
/// every shard of an `shards`-way partition (routing is by key digest, so
/// coverage is found by scanning candidates).
fn keys_covering_shards(shards: usize, per_shard: usize) -> Vec<String> {
    let map = ShardMap::new(shards);
    let mut buckets = vec![0usize; shards];
    let mut keys = Vec::new();
    let mut i = 0u32;
    while buckets.iter().any(|count| *count < per_shard) {
        let key = format!("key-{i}");
        let g = kv_shard_of(map, &key);
        if buckets[g] < per_shard {
            buckets[g] += 1;
            keys.push(key);
        }
        i += 1;
    }
    keys
}

/// Four shards over one channel mesh: every command commits in the group
/// owning its key, group logs agree, and each group's replicated store
/// ends up with exactly its own keys.
#[test]
fn sharded_kv_commits_and_routes() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let mut cluster =
        ShardedKvHandle::spawn_channel(cfg, 11, 4, ReplicaOptions::default(), 1, TICK);
    let keys = keys_covering_shards(4, 4);
    let mut routed: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, key) in keys.iter().enumerate() {
        let g = cluster.submit(put(key, &format!("v{i}")));
        assert_eq!(g, cluster.shard_of(key), "submit routes by key");
        routed.entry(g).or_default().push(key.clone());
    }
    // With 16 keys spread over the keyspace, all 4 groups saw traffic.
    assert_eq!(routed.len(), 4, "spread keys hit every shard");
    assert!(cluster.await_submitted(WAIT), "all groups commit");
    assert!(cluster.logs_agree(), "per-group agreement + routing");

    let groups = cluster.shutdown();
    for (g, actors) in groups.iter().enumerate() {
        let expected = routed.get(&g).map_or(0, Vec::len);
        for actor in actors {
            let node = as_smr_node::<KvStore>(actor.as_ref()).expect("KV node");
            assert_eq!(
                node.machine().len(),
                expected,
                "group {g} store holds exactly its own keys"
            );
            for key in routed.get(&g).into_iter().flatten() {
                assert!(node.machine().get(key).is_some());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// Cross-shard consistency under random workloads: for any key set,
    /// a 2-shard cluster routes every key to the `ShardMap`-owning group,
    /// group logs agree, and replaying the groups' stores reconstructs
    /// exactly the submitted state — no key lost, duplicated, or ordered
    /// in two groups.
    #[test]
    fn cross_shard_consistency(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..8usize),
    ) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let map = ShardMap::new(2);
        let mut cluster = ShardedKvHandle::spawn_channel(
            cfg, 17, 2, ReplicaOptions::default(), 1, TICK,
        );
        // Random lead bytes drive keys into both shards unpredictably;
        // later writes to the same key overwrite earlier ones.
        let puts: Vec<(String, String)> = ops
            .iter()
            .map(|(lead, k, v)| (format!("{}k{k}", *lead as char), format!("v{v}")))
            .collect();
        for (key, value) in &puts {
            let g = cluster.submit(put(key, value));
            prop_assert_eq!(g, kv_shard_of(map, key));
        }
        prop_assert!(cluster.await_submitted(WAIT));
        prop_assert!(cluster.logs_agree());

        let mut want: BTreeMap<String, String> = BTreeMap::new();
        for (key, value) in puts {
            want.insert(key, value);
        }
        let groups = cluster.shutdown();
        let mut got: BTreeMap<String, String> = BTreeMap::new();
        for (g, actors) in groups.iter().enumerate() {
            let node = as_smr_node::<KvStore>(actors[0].as_ref()).expect("KV node");
            for (key, value) in want.iter() {
                if kv_shard_of(map, key) == g {
                    prop_assert_eq!(node.machine().get(key), Some(value));
                    got.insert(key.clone(), value.clone());
                } else {
                    prop_assert!(node.machine().get(key).is_none());
                }
            }
        }
        prop_assert_eq!(got, want);
    }
}
