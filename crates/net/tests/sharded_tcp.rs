//! Sharded SMR over real sockets: two consensus groups multiplexed over
//! one authenticated loopback-TCP mesh, end to end.

use std::time::Duration;

use fastbft_crypto::KeyDirectory;
use fastbft_net::{tcp_shard_mesh, TcpOptions};
use fastbft_runtime::{spawn_with, NodeSeat};
use fastbft_sim::Actor;
use fastbft_smr::runtime::as_smr_node;
use fastbft_smr::{
    kv_shard_of, kv_shard_router, KvCommand, KvStore, ShardedKvHandle, SlotMessage,
    SmrClusterHandle, SmrNode,
};
use fastbft_types::{Config, ShardMap, Value};

fn put(key: &str, value: &str) -> Value {
    KvCommand::Put {
        key: key.into(),
        value: value.into(),
    }
    .to_value()
}

#[test]
fn sharded_smr_over_tcp() {
    let n = 4;
    let shards = 2;
    let cfg = Config::new(n, 1, 1).unwrap();
    let map = ShardMap::new(shards);
    let (pairs, dir) = KeyDirectory::generate(n, 23);
    let idle = KvCommand::Noop.to_value();

    let (per_node, _addrs, pumps) = tcp_shard_mesh::<SlotMessage, _>(
        pairs.clone(),
        dir.clone(),
        TcpOptions::default(),
        shards,
        kv_shard_router(map),
    )
    .expect("loopback mesh binds");

    // Group `g`'s cluster takes element `g` of every node's split.
    let mut per_node: Vec<_> = per_node.into_iter().map(Vec::into_iter).collect();
    let mut groups = Vec::with_capacity(shards);
    for g in 0..shards {
        let mut seats = Vec::with_capacity(n);
        for (i, node) in per_node.iter_mut().enumerate() {
            let (transport, control) = node.next().expect("one transport per group");
            let actor: Box<dyn Actor<SlotMessage> + Send> = Box::new(
                SmrNode::new(
                    cfg,
                    pairs[i].clone(),
                    dir.clone(),
                    KvStore::new(),
                    Vec::new(),
                    idle.clone(),
                )
                .with_leader_stagger(g as u64),
            );
            seats.push(NodeSeat {
                actor,
                transport,
                control,
                verify: None,
            });
        }
        groups.push(SmrClusterHandle::new(
            spawn_with(seats, Duration::from_micros(50)),
            n,
            idle.clone(),
        ));
    }
    let mut cluster = ShardedKvHandle::assemble(groups, map, pumps, idle, n);

    // Enough keys that both shards order commands.
    let keys: Vec<String> = (0..8).map(|i| format!("key-{i}")).collect();
    let mut hit = vec![false; shards];
    for (i, key) in keys.iter().enumerate() {
        let g = cluster.submit(put(key, &format!("v{i}")));
        assert_eq!(g, kv_shard_of(map, key));
        hit[g] = true;
    }
    assert!(hit.iter().all(|h| *h), "both shards saw traffic");
    assert!(
        cluster.await_submitted(Duration::from_secs(30)),
        "all groups commit over TCP"
    );
    assert!(cluster.logs_agree());

    let group_actors = cluster.shutdown();
    for (g, actors) in group_actors.iter().enumerate() {
        for actor in actors {
            let node = as_smr_node::<KvStore>(actor.as_ref()).expect("KV node");
            for key in &keys {
                assert_eq!(
                    node.machine().get(key).is_some(),
                    kv_shard_of(map, key) == g,
                    "key {key} lives exactly in its owning group"
                );
            }
        }
    }
}
