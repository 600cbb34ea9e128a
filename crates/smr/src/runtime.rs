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
//!   not a one-shot decision), from which the handle reconstructs each
//!   replica's log;
//! * the cross-replica consistency check
//!   ([`SmrClusterHandle::logs_agree`]) applies the harness's consistency
//!   condition to the sparse per-index logs (sparse because a replica that
//!   restarts or installs a snapshot resumes at a higher log index).
//!
//! ```
//! use std::time::Duration;
//! use fastbft_core::replica::ReplicaOptions;
//! use fastbft_crypto::KeyDirectory;
//! use fastbft_smr::runtime::{smr_actors_configured, SmrClusterHandle};
//! use fastbft_smr::{Batching, KvCommand, KvStore};
//! use fastbft_types::Config;
//!
//! let cfg = Config::new(4, 1, 1)?;
//! let (pairs, dir) = KeyDirectory::generate(cfg.n(), 7);
//! let idle = KvCommand::Noop.to_value();
//! let actors = smr_actors_configured(
//!     cfg, &pairs, &dir, KvStore::new(), vec![Vec::new(); cfg.n()],
//!     idle.clone(), ReplicaOptions::default(), Batching::default(), None, None,
//! );
//! let running = fastbft_runtime::spawn(actors, Duration::from_micros(50));
//! let mut cluster = SmrClusterHandle::new(running, cfg.n(), idle);
//! cluster.submit(KvCommand::Put { key: "x".into(), value: "1".into() }.to_value());
//! assert!(cluster.await_commands(cfg.processes(), 1, Duration::from_secs(10)));
//! assert!(cluster.logs_agree());
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_runtime::{ClusterHandle, NodeSeat, Transport};
use fastbft_sim::Actor;
use fastbft_types::{Config, ProcessId, Value};

use crate::batcher::Batching;
use crate::machine::StateMachine;
use crate::multiplex::{SlotMessage, SmrNode};

/// Builds one boxed [`SmrNode`] actor per process, ready for
/// [`fastbft_runtime::spawn`] / `spawn_with` (or `fastbft-net`'s TCP
/// seats). `commands[i]` preloads process `i+1`'s client queue; submit to a
/// running cluster via [`SmrClusterHandle::submit`]. `batching` bounds the
/// proposal batcher, `snapshot_interval` is optional (`None` keeps the
/// default cadence; restart/chaos tests use a short one so a rejoining
/// node finds an attested snapshot to install), and so is the metrics
/// plane. With a registry, node `i` (and every per-slot replica it opens)
/// records into `registry.replica(i)`, the same sink a metered transport
/// for seat `i` should use (`fastbft_net::tcp_seats_metered`); attach the
/// registry to the spawned cluster's handle
/// ([`SmrClusterHandle::attach_metrics`]) to scrape it.
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
    registry: Option<&fastbft_obs::MetricsRegistry>,
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
            let opts = match registry {
                Some(registry) => ReplicaOptions {
                    metrics: registry.replica(i),
                    ..opts.clone()
                },
                None => opts.clone(),
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
/// state inspection (log, state machine). `None` if the seat held
/// something else — e.g. a scripted Byzantine actor.
pub fn as_smr_node<S: StateMachine + 'static>(
    actor: &dyn Actor<SlotMessage>,
) -> Option<&SmrNode<S>> {
    actor.as_any()?.downcast_ref()
}

/// Handle to a replicated state machine running on the thread runtime,
/// over any transport. Wraps the generic [`ClusterHandle`], consuming its
/// applied-event stream into per-replica logs.
pub struct SmrClusterHandle {
    inner: ClusterHandle<SlotMessage>,
    idle: Value,
    /// Per-replica logs keyed by global log index. Sparse: a replica that
    /// installed a snapshot (or restarted) resumes emitting events at a
    /// higher index, with the truncated prefix absent.
    logs: Vec<BTreeMap<u64, Value>>,
    /// Per-replica count of non-idle log entries, maintained incrementally
    /// so `await_commands` never rescans the logs on the hot path.
    commands: Vec<u64>,
}

impl SmrClusterHandle {
    /// Wraps an already-spawned cluster of `n` [`SmrNode`] actors.
    /// `idle` must be the nodes' idle filler (it is exempt from command
    /// counting). Spawn the actors (`fastbft_runtime::spawn` for channels;
    /// for other transports build seats, e.g. `fastbft_net::tcp_seats`, and
    /// `spawn_with` them) and hand the result here.
    pub fn new(inner: ClusterHandle<SlotMessage>, n: usize, idle: Value) -> Self {
        SmrClusterHandle {
            inner,
            idle,
            logs: vec![BTreeMap::new(); n],
            commands: vec![0; n],
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
    /// stream, per-node submission).
    pub fn inner(&self) -> &ClusterHandle<SlotMessage> {
        &self.inner
    }

    /// Attaches the metrics plane the nodes were built with (see
    /// [`fastbft_obs::MetricsRegistry`]): `registry.replica(i)` handles
    /// must have gone into each node's `ReplicaOptions.metrics` before
    /// spawning; attaching here wires the scrape side.
    pub fn attach_metrics(&mut self, registry: fastbft_obs::MetricsRegistry) {
        self.inner.attach_metrics(registry);
    }

    /// The attached metrics plane, if any.
    pub fn metrics(&self) -> Option<&fastbft_obs::MetricsRegistry> {
        self.inner.metrics()
    }

    /// Scrapes cluster metrics in Prometheus text exposition format
    /// (`None` if no registry was attached).
    pub fn metrics_text(&self) -> Option<String> {
        self.inner.metrics_text()
    }

    /// Scrapes cluster metrics as a JSON document (`None` if no registry
    /// was attached).
    pub fn metrics_json(&self) -> Option<String> {
        self.inner.metrics_json()
    }

    /// Waits until each process in `processes` has applied at least `k`
    /// client commands (idle filler excluded), consuming applied events
    /// into the per-replica logs. Returns `false` on timeout. Restrict
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
            if watched.iter().all(|p| self.commands[p.index()] >= k) {
                return true;
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return false;
            }
            match self.inner.applied_events().recv_timeout(wait) {
                Ok(event) => {
                    // Keyed by global index: duplicates (a restarted seat
                    // re-emitting) overwrite idempotently, and a replica
                    // resuming from a snapshot just starts at a higher key.
                    let i = event.process.index();
                    let fresh = event.command != self.idle;
                    if self.logs[i].insert(event.index, event.command).is_none() && fresh {
                        self.commands[i] += 1;
                    }
                }
                Err(_) => return false,
            }
        }
    }

    /// The per-replica logs reconstructed from the applied-event stream so
    /// far (grows as [`await_commands`](SmrClusterHandle::await_commands)
    /// consumes events), keyed by global log index.
    pub fn logs(&self) -> &[BTreeMap<u64, Value>] {
        &self.logs
    }

    /// Whether the reconstructed logs satisfy the SMR safety condition:
    /// wherever two replicas have both applied an index, they applied the
    /// same command — the sparse-log analogue of the harness's
    /// [`logs_consistent`](crate::harness::logs_consistent) check (indexes
    /// one side truncated into a snapshot are vacuously consistent; the
    /// install verified them by digest).
    pub fn logs_agree(&self) -> bool {
        for i in 0..self.logs.len() {
            for j in i + 1..self.logs.len() {
                for (index, cmd) in &self.logs[i] {
                    if self.logs[j].get(index).is_some_and(|other| other != cmd) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Kills one replica mid-run (chaos hook): stops its event loop and
    /// returns the dead actor. The remaining replicas keep committing as
    /// long as ≥ n − f stay live; revive the seat with
    /// [`restart_node`](SmrClusterHandle::restart_node).
    ///
    /// # Panics
    ///
    /// Panics if the seat is already stopped.
    pub fn stop_node(&mut self, index: usize) -> Box<dyn Actor<SlotMessage> + Send> {
        self.inner.stop_node(index)
    }

    /// Revives a stopped seat with a fresh node and transport (for TCP,
    /// build the seat with `fastbft_net::tcp_reseat` on the retained
    /// listener). The revived node starts empty and rejoins by snapshot
    /// recovery: once live peers demonstrate f+1 matching tips ahead of it,
    /// it installs their attested snapshot, absorbs the committed suffix,
    /// and resumes voting — its applied events resume at the post-snapshot
    /// log indexes.
    ///
    /// # Panics
    ///
    /// Panics if the seat is still running.
    pub fn restart_node<T: Transport<SlotMessage>>(
        &mut self,
        index: usize,
        seat: NodeSeat<SlotMessage, T>,
    ) {
        self.inner.restart_node(index, seat);
    }

    /// Stops the cluster and hands back the actors in seat order; downcast
    /// with [`as_smr_node`] to inspect final logs and machine state.
    pub fn shutdown(self) -> Vec<Box<dyn Actor<SlotMessage> + Send>> {
        self.inner.shutdown()
    }
}
