//! The replicated state machine on the wall-clock runtime.
//!
//! [`SmrSimCluster`](crate::harness::SmrSimCluster) runs SMR under the
//! discrete-event simulator; this module runs the *same* [`SmrNode`]
//! actors on `fastbft_runtime`'s thread-per-replica engine, over any
//! [`Transport`] — in-process channels or
//! `fastbft-net`'s authenticated TCP. Three things make that a real system
//! rather than a simulation:
//!
//! * commands are submitted to the **running** cluster
//!   ([`SmrClusterHandle::submit`] → every node's
//!   [`on_client`](fastbft_sim::Actor::on_client));
//! * every applied command streams back out as an
//!   [`Applied`](fastbft_runtime::Applied) event (per-slot event stream,
//!   not a one-shot decision), which the handle feeds, event by event, to
//!   an [`SmrChecker`] keeping each replica's log: sparse, since a replica
//!   that restarts or installs a snapshot resumes at a higher index.
//!
//! [`SmrClusterHandle::spawn`] is the one way to build such a cluster, the
//! wall-clock twin of `SmrSimCluster::new`: keys from the seed, one
//! [`MetricsRegistry`] every node records into, `seats` to put the nodes
//! on a transport and `configure` to say what each seat holds.
//!
//! ```
//! use std::time::Duration;
//! use fastbft_runtime::channel_seats;
//! use fastbft_smr::runtime::SmrClusterHandle;
//! use fastbft_smr::{KvCommand, KvStore};
//! use fastbft_types::Config;
//!
//! let cfg = Config::new(4, 1, 1)?;
//! let mut cluster = SmrClusterHandle::spawn(
//!     cfg,
//!     7,
//!     KvStore::new(),
//!     vec![Vec::new(); cfg.n()],
//!     KvCommand::Noop.to_value(),
//!     |actors, _pairs, _dir, _registry| channel_seats(actors),
//!     |_, node| Box::new(node),
//! );
//! cluster.submit(KvCommand::Put { key: "x".into(), value: "1".into() }.to_value());
//! assert!(cluster.await_commands(cfg.processes(), 1, Duration::from_secs(10)));
//! assert_eq!(cluster.violations(), []);
//! assert!(cluster.registry().render_text().contains("fastbft_commit_fast_total"));
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::{spawn_with, ClusterHandle, NodeSeat, Transport};
use fastbft_sim::{Actor, SmrChecker, SmrViolation};
use fastbft_types::{Config, ProcessId, Value};

use crate::batcher::Batching;
use crate::machine::StateMachine;
use crate::multiplex::{SlotMessage, SmrNode};

pub use fastbft_runtime::TICK;

/// Vestige: named only by the frozen `benchmark/`; build clusters with [`SmrClusterHandle::spawn`].
#[allow(clippy::too_many_arguments)]
pub fn smr_actors_configured<S: StateMachine + Clone + Send + 'static>(
    cfg: Config,
    pairs: &[KeyPair],
    dir: &KeyDirectory,
    machine: S,
    commands: Vec<Vec<Value>>,
    idle_input: Value,
    opts: ReplicaOptions,
    batching: Batching,
    snapshot_interval: Option<u64>,
    registry: Option<&MetricsRegistry>,
) -> Vec<Box<dyn Actor<SlotMessage> + Send>> {
    if let Some(registry) = registry {
        assert!(
            registry.len() >= cfg.n(),
            "metrics registry must cover all {} processes",
            cfg.n()
        );
    }
    assert_eq!(pairs.len(), cfg.n(), "one key pair per process");
    assert_eq!(commands.len(), cfg.n(), "one command queue per process");
    pairs
        .iter()
        .zip(commands)
        .enumerate()
        .map(|(i, (pair, cmds))| -> Box<dyn Actor<SlotMessage> + Send> {
            // Each node records into a block of its own: the caller's
            // options would share one block across every node's thread.
            let opts = ReplicaOptions {
                metrics: registry.map_or_else(Arc::default, |r| r.replica(i)),
                ..opts.clone()
            };
            let mut node = SmrNode::new(
                cfg,
                pair.clone(),
                dir.clone(),
                machine.clone(),
                cmds,
                idle_input.clone(),
            )
            .with_batching(batching.clone())
            .with_options(opts);
            if let Some(interval) = snapshot_interval {
                node = node.with_snapshot_interval(interval);
            }
            Box::new(node)
        })
        .collect()
}

/// Downcasts a shut-down cluster actor back to its [`SmrNode`] for final
/// state inspection (applied slots, state machine). `None` if the seat held
/// something else — e.g. a scripted Byzantine actor.
pub fn as_smr_node<S: StateMachine + 'static>(
    actor: &dyn Actor<SlotMessage>,
) -> Option<&SmrNode<S>> {
    actor.as_any()?.downcast_ref()
}

/// Handle to a replicated state machine running on the thread runtime,
/// over any transport. Wraps the generic [`ClusterHandle`], consuming its
/// applied-event stream into an [`SmrChecker`], and owns the cluster's one
/// [`MetricsRegistry`].
pub struct SmrClusterHandle {
    inner: ClusterHandle<SlotMessage>,
    registry: MetricsRegistry,
    /// The per-replica logs, keyed by global log index, and what they
    /// violate.
    checker: SmrChecker,
}

impl SmrClusterHandle {
    /// Builds and spawns a cluster of `cfg.n()` seats at [`TICK`]. Keys come
    /// from `KeyDirectory::generate(n, seed)`; `commands[i]` preloads
    /// process `i+1`'s client queue. Every seat is offered an [`SmrNode`]
    /// with its own copy of `machine`, recording into
    /// [`registry`](Self::registry)`.replica(i)`; `configure(p, node)`
    /// returns what seat `p` holds — the node as is (`|_, node|
    /// Box::new(node)`), with its `with_*` options chained, or another
    /// actor entirely (a silent or Byzantine seat). `seats(actors, pairs,
    /// dir, registry)` puts the actors on a transport:
    /// `fastbft_runtime::channel_seats`, `fastbft_net::tcp_seats_metered`,
    /// or anything that returns one seat per process in order.
    pub fn spawn<S: StateMachine + Clone + Send + 'static, T: Transport<SlotMessage>>(
        cfg: Config,
        seed: u64,
        machine: S,
        commands: Vec<Vec<Value>>,
        idle_input: Value,
        seats: impl FnOnce(
            Vec<Box<dyn Actor<SlotMessage> + Send>>,
            Vec<KeyPair>,
            KeyDirectory,
            &MetricsRegistry,
        ) -> Vec<NodeSeat<SlotMessage, T>>,
        mut configure: impl FnMut(ProcessId, SmrNode<S>) -> Box<dyn Actor<SlotMessage> + Send>,
    ) -> Self {
        assert_eq!(commands.len(), cfg.n(), "one command queue per process");
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
        let registry = MetricsRegistry::new(cfg.n());
        let actors = cfg
            .processes()
            .zip(&pairs)
            .zip(commands)
            .map(|((p, pair), cmds)| {
                let node = SmrNode::new(
                    cfg,
                    pair.clone(),
                    dir.clone(),
                    machine.clone(),
                    cmds,
                    idle_input.clone(),
                )
                .with_options(ReplicaOptions {
                    metrics: registry.replica(p.index()),
                    ..ReplicaOptions::default()
                });
                configure(p, node)
            })
            .collect();
        let seats = seats(actors, pairs, dir, &registry);
        let mut cluster = Self::new(spawn_with(seats, TICK), cfg.n(), idle_input);
        cluster.registry = registry;
        cluster
    }

    /// Vestige: wraps a cluster spawned by hand; named only by the frozen `benchmark/`.
    pub fn new(inner: ClusterHandle<SlotMessage>, n: usize, idle: Value) -> Self {
        SmrClusterHandle {
            inner,
            registry: MetricsRegistry::new(n),
            checker: SmrChecker::new(n, idle),
        }
    }

    /// Submits a client command to every replica of the running cluster —
    /// the paper's §1.1 client model. Whichever node leads the next slot
    /// proposes it; identity dedup keeps execution at-most-once. Commands
    /// are identified by their bytes: a client that wants the same logical
    /// operation executed twice must make the encodings distinct (e.g. tag
    /// a client id and sequence number).
    pub fn submit(&self, command: Value) {
        self.inner.submit_all(command);
    }

    /// The wrapped transport-generic handle (injection hooks, decision
    /// stream, applied-event stream).
    pub fn inner(&self) -> &ClusterHandle<SlotMessage> {
        &self.inner
    }

    /// The wrapped handle, to stop and restart seats mid-run (a revived
    /// SMR node rejoins by snapshot recovery).
    pub fn inner_mut(&mut self) -> &mut ClusterHandle<SlotMessage> {
        &mut self.inner
    }

    /// The metrics every node seat records into (seat `i` is block `i`);
    /// scrape it while the cluster runs with `render_text` / `render_json`.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Vestige: replaces the handle's registry; named only by the frozen `benchmark/`.
    pub fn attach_metrics(&mut self, registry: MetricsRegistry) {
        self.registry = registry;
    }

    /// Waits until each process in `processes` has applied at least `k`
    /// distinct client commands (idle filler excluded), feeding every
    /// applied event to the checker. Returns `false` on timeout. Restrict
    /// `processes` to the correct replicas when some seats are Byzantine.
    pub fn await_commands(
        &mut self,
        processes: impl IntoIterator<Item = ProcessId>,
        k: u64,
        timeout: Duration,
    ) -> bool {
        let watched: Vec<ProcessId> = processes.into_iter().collect();
        let deadline = Instant::now() + timeout;
        loop {
            if watched.iter().all(|p| self.checker.commands(*p) >= k) {
                return true;
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return false;
            }
            match self.inner.applied_events().recv_timeout(wait) {
                Ok(event) => self
                    .checker
                    .observe(event.process, event.index, event.command),
                Err(_) => return false,
            }
        }
    }

    /// The per-replica logs reconstructed from the applied-event stream so
    /// far (grows as [`await_commands`](SmrClusterHandle::await_commands)
    /// consumes events), keyed by global log index.
    pub fn logs(&self) -> &[BTreeMap<u64, Value>] {
        self.checker.logs()
    }

    /// What the [`SmrChecker`] found in the applied events consumed so far
    /// (agreement and at most once: no state digest rides the events).
    pub fn violations(&self) -> &[SmrViolation] {
        self.checker.violations()
    }

    /// Stops the cluster and hands back the actors in seat order; downcast
    /// with [`as_smr_node`] to inspect final machine state.
    pub fn shutdown(self) -> Vec<Box<dyn Actor<SlotMessage> + Send>> {
        self.inner.shutdown()
    }
}
