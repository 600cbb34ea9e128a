//! The sharded replicated KV store: M consensus groups over one mesh.
//!
//! A single totally-ordered log serializes every command through one
//! leader at a time. When the store's keyspace partitions cleanly — KV
//! operations touch exactly one key — that total order is stronger than
//! the semantics require: commands on different keys never need to be
//! ordered against each other. This module exploits that: a
//! [`ShardMap`] splits the keyspace into `m`
//! ranges, each range gets its **own** independent consensus group (all
//! `n` processes participate in every group), and client commands are
//! routed to the group owning their key. The groups run concurrently over
//! the *same* process mesh via group-tagged frames
//! ([`fastbft_runtime::shard`]), and [`SmrNode::with_leader_stagger`]
//! spreads the groups' current leaders over distinct processes, so `m`
//! proposals make progress at once.
//!
//! Consistency across shards is by construction: every command is
//! deterministically routed by its key, each group's log satisfies the
//! single-group SMR safety condition, and no key ever appears in two
//! groups — [`ShardedKvHandle::logs_agree`] checks all three.

use std::time::Duration;

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_runtime::{
    spawn_with, split_groups, ChannelTransport, GroupMessage, NodeSeat, ShardPump,
};
use fastbft_sim::Actor;
use fastbft_types::{Config, ProcessId, ShardMap, Value};

use crate::kv::{KvCommand, KvStore};
use crate::multiplex::{SlotMessage, SmrNode};
use crate::runtime::SmrClusterHandle;

/// The group owning `key`: the [`ShardMap`] range its digest's lead byte
/// falls in. Routing on the digest rather than the raw lead byte matters
/// for `String` keys — UTF-8 never produces lead bytes in `128..192`, so
/// raw-byte ranges would leave shards structurally empty; the digest
/// spreads any key distribution uniformly over the full byte space while
/// staying deterministic per key.
pub fn kv_shard_of(map: ShardMap, key: &str) -> usize {
    map.shard_of(&fastbft_crypto::digest(key.as_bytes()))
}

/// The client-command router for a KV keyspace: a command goes to the
/// group owning its key ([`kv_shard_of`]); keyless commands (`Noop`,
/// garbage) go to group 0.
pub fn kv_shard_router(map: ShardMap) -> impl Fn(&Value) -> usize + Send + Sync + Clone + 'static {
    move |v: &Value| match KvCommand::from_value(v) {
        Some(KvCommand::Put { key, .. } | KvCommand::Get { key } | KvCommand::Delete { key }) => {
            kv_shard_of(map, &key)
        }
        _ => 0,
    }
}

/// Handle to a sharded replicated KV store: one [`SmrClusterHandle`] per
/// key-range group, a router that sends each submitted command to the
/// group owning its key, and the per-node [`ShardPump`]s that multiplex
/// all groups over the shared mesh.
pub struct ShardedKvHandle {
    groups: Vec<SmrClusterHandle>,
    map: ShardMap,
    pumps: Vec<ShardPump>,
    /// Commands routed to each group so far (drives
    /// [`await_submitted`](ShardedKvHandle::await_submitted)).
    submitted: Vec<u64>,
    idle: Value,
    n: usize,
}

impl std::fmt::Debug for ShardedKvHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKvHandle")
            .field("shards", &self.map.shards())
            .field("n", &self.n)
            .field("submitted", &self.submitted)
            .finish()
    }
}

impl ShardedKvHandle {
    /// Wraps already-spawned group clusters (e.g. built over a TCP mesh
    /// with `fastbft_net::tcp_shard_mesh`): `groups[g]` must be the
    /// cluster of the `g`-th key range of `map`, `idle` the nodes' idle
    /// filler, and `pumps` the per-node routers — kept here so they are
    /// stopped *after* the group clusters shut down (their teardown-order
    /// contract).
    ///
    /// # Panics
    ///
    /// Panics if the group count does not match the map.
    pub fn assemble(
        groups: Vec<SmrClusterHandle>,
        map: ShardMap,
        pumps: Vec<ShardPump>,
        idle: Value,
        n: usize,
    ) -> Self {
        assert_eq!(groups.len(), map.shards(), "one cluster per shard");
        let submitted = vec![0; groups.len()];
        ShardedKvHandle {
            groups,
            map,
            pumps,
            submitted,
            idle,
            n,
        }
    }

    /// Spawns a sharded KV cluster over the in-process channel transport:
    /// `shards` independent groups of `n` [`SmrNode`]s (group `g` staggered
    /// to lead from process `(g mod n) + 1` first), all multiplexed over
    /// one `n`-process mesh.
    pub fn spawn_channel(
        cfg: Config,
        seed: u64,
        shards: usize,
        opts: ReplicaOptions,
        batch_size: usize,
        tick: Duration,
    ) -> Self {
        let n = cfg.n();
        let map = ShardMap::new(shards);
        let (pairs, dir) = KeyDirectory::generate(n, seed);
        let idle = KvCommand::Noop.to_value();

        let mesh = ChannelTransport::<GroupMessage<SlotMessage>>::mesh(n);
        let mut per_node = Vec::with_capacity(n);
        let mut pumps = Vec::with_capacity(n);
        for (transport, _control) in mesh {
            let sender = transport.sender();
            let (node_groups, pump) = split_groups(transport, sender, shards, kv_shard_router(map));
            per_node.push(node_groups.into_iter());
            pumps.push(pump);
        }

        // Transpose: group `g` is element `g` of every node's split.
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
                    .with_options(opts.clone())
                    .with_batch_size(batch_size)
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
                spawn_with(seats, tick),
                n,
                idle.clone(),
            ));
        }
        ShardedKvHandle::assemble(groups, map, pumps, idle, n)
    }

    /// The keyspace partition this cluster serves.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// The group that orders commands on `key` (see [`kv_shard_of`]).
    pub fn shard_of(&self, key: &str) -> usize {
        kv_shard_of(self.map, key)
    }

    /// Routes `command` to the group owning its key and submits it there
    /// (every replica of that group receives it). Returns the group index.
    pub fn submit(&mut self, command: Value) -> usize {
        let g = kv_shard_router(self.map)(&command);
        self.groups[g].submit(command);
        self.submitted[g] += 1;
        g
    }

    /// Waits until, in every group, every replica has applied all commands
    /// submitted to that group so far. `false` on timeout (`timeout` is
    /// per group, so the worst case is `shards × timeout` — groups that
    /// are already done return immediately).
    pub fn await_submitted(&mut self, timeout: Duration) -> bool {
        let n = self.n;
        self.submitted
            .iter()
            .zip(self.groups.iter_mut())
            .all(|(&k, group)| k == 0 || group.await_commands(ProcessId::all(n), k, timeout))
    }

    /// The per-group cluster handles, in shard order.
    pub fn groups(&self) -> &[SmrClusterHandle] {
        &self.groups
    }

    /// Mutable access to one group's cluster handle (chaos hooks,
    /// fine-grained waits).
    pub fn group_mut(&mut self, g: usize) -> &mut SmrClusterHandle {
        &mut self.groups[g]
    }

    /// The sharded safety condition, all three legs:
    /// per-group log agreement (wherever two replicas both applied an
    /// index, the same command), routing discipline (every non-idle
    /// command in group `g`'s logs belongs to `g`'s key range), and — by
    /// the two together — no key ordered in two groups.
    pub fn logs_agree(&self) -> bool {
        let router = kv_shard_router(self.map);
        self.groups.iter().enumerate().all(|(g, group)| {
            group.logs_agree()
                && group
                    .logs()
                    .iter()
                    .flat_map(|log| log.values())
                    .all(|cmd| *cmd == self.idle || router(cmd) == g)
        })
    }

    /// Stops every group cluster, then the pumps (in that order — the
    /// pumps own the underlying mesh transports), handing back each
    /// group's actors in seat order.
    #[allow(clippy::type_complexity)]
    pub fn shutdown(self) -> Vec<Vec<Box<dyn Actor<SlotMessage> + Send>>> {
        let ShardedKvHandle { groups, pumps, .. } = self;
        let actors = groups.into_iter().map(SmrClusterHandle::shutdown).collect();
        for pump in pumps {
            pump.stop();
        }
        actors
    }
}
