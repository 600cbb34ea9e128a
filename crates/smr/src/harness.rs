//! Simulated SMR clusters: wiring, execution and consistency checking.

use fastbft_crypto::KeyDirectory;
use fastbft_sim::{Network, SimDuration, SimTime, Simulation};
use fastbft_types::{Config, ProcessId, Value};

use crate::machine::StateMachine;
use crate::multiplex::{SlotMessage, SmrNode};

/// Outcome of an SMR run.
#[derive(Clone, Debug)]
pub struct SmrReport {
    /// Slots applied by every node (the minimum across nodes).
    pub applied_everywhere: u64,
    /// Commands applied by every node (≥ slots when batching).
    pub commands_everywhere: u64,
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
    /// Whether all per-node logs agree on their common prefix.
    pub logs_consistent: bool,
    /// Applied slots per Δ of the slowest node (throughput).
    pub slots_per_delta: f64,
    /// Applied commands per Δ of the slowest node.
    pub commands_per_delta: f64,
}

/// Whether a set of per-replica logs agree on every pairwise common prefix
/// — the SMR safety condition (two replicas may be at different positions,
/// but where both have applied, they must have applied the same commands).
/// Shared by the simulated harness and the wall-clock
/// [`SmrClusterHandle`](crate::runtime::SmrClusterHandle).
pub fn logs_consistent(logs: &[Vec<Value>]) -> bool {
    let offset_logs: Vec<(u64, &[Value])> = logs.iter().map(|l| (0, l.as_slice())).collect();
    offset_logs_consistent(&offset_logs)
}

/// [`logs_consistent`] for logs that start at different global indexes —
/// the shape snapshot truncation produces, where each node retains only the
/// suffix since its last snapshot. Two logs must agree wherever their
/// retained index ranges overlap (non-overlapping logs are vacuously
/// consistent: the truncated prefix was digest-attested at install time).
pub fn offset_logs_consistent(logs: &[(u64, &[Value])]) -> bool {
    for i in 0..logs.len() {
        for j in i + 1..logs.len() {
            let (off_i, log_i) = logs[i];
            let (off_j, log_j) = logs[j];
            let start = off_i.max(off_j);
            let end = (off_i + log_i.len() as u64).min(off_j + log_j.len() as u64);
            if start >= end {
                continue;
            }
            let slice_i = &log_i[(start - off_i) as usize..(end - off_i) as usize];
            let slice_j = &log_j[(start - off_j) as usize..(end - off_j) as usize];
            if slice_i != slice_j {
                return false;
            }
        }
    }
    true
}

/// A simulated replicated-state-machine cluster over the core protocol.
///
/// Every process runs an [`SmrNode`] with its own copy of the state machine
/// (built by a factory closure so machines start identical).
pub struct SmrSimCluster<S: StateMachine + 'static> {
    sim: Simulation<SlotMessage>,
    cfg: Config,
    delta: SimDuration,
    _marker: std::marker::PhantomData<S>,
}

impl<S: StateMachine + Clone + 'static> SmrSimCluster<S> {
    /// Builds a cluster over `network`. `commands[i]` is process `i+1`'s
    /// client queue (slot leaders drain their own queues; followers' queues
    /// commit when they lead a view). Every seat's node is passed through
    /// `configure` — chain the `with_*` options of [`SmrNode`] there, or
    /// pass `|node| node` for a node as shipped.
    pub fn new(
        cfg: Config,
        seed: u64,
        machine: S,
        commands: Vec<Vec<Value>>,
        idle_input: Value,
        network: Network,
        configure: impl Fn(SmrNode<S>) -> SmrNode<S>,
    ) -> Self {
        assert_eq!(commands.len(), cfg.n(), "one command queue per process");
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
        let mut sim = Simulation::new(network, seed.wrapping_add(7));
        for (pair, cmds) in pairs.into_iter().zip(commands) {
            let node = SmrNode::new(
                cfg,
                pair,
                dir.clone(),
                machine.clone(),
                cmds,
                idle_input.clone(),
            );
            sim.add_actor(Box::new(configure(node)));
        }
        sim.start();
        SmrSimCluster {
            sim,
            cfg,
            delta: SimDuration::DELTA,
            _marker: std::marker::PhantomData,
        }
    }

    /// Injects a [`SlotMessage`] into the cluster at virtual time `at`, as
    /// if sent by `from` — the simulated analogue of the runtime's
    /// Byzantine-driver injection hook. Delivery time follows the cluster's
    /// network policy.
    pub fn inject_message(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: SlotMessage,
        at: SimTime,
    ) {
        self.sim.inject_message(from, to, msg, at);
    }

    fn node(&self, p: ProcessId) -> &SmrNode<S> {
        self.sim
            .actor(p)
            .as_any()
            .expect("SmrNode opts into as_any")
            .downcast_ref::<SmrNode<S>>()
            .expect("actor is an SmrNode")
    }

    /// The cluster's protocol configuration.
    pub fn config(&self) -> Config {
        self.cfg
    }

    /// Reference to one node's state machine.
    pub fn machine(&self, p: ProcessId) -> &S {
        self.node(p).machine()
    }

    /// One node's applied log.
    pub fn log(&self, p: ProcessId) -> Vec<Value> {
        self.node(p).log().to_vec()
    }

    /// One node's at-most-once dedup state size (see
    /// [`SmrNode::dedup_entries`]) — for boundedness assertions.
    pub fn dedup_entries(&self, p: ProcessId) -> usize {
        self.node(p).dedup_entries()
    }

    /// Slots one node has applied.
    pub fn applied(&self, p: ProcessId) -> u64 {
        self.node(p).applied()
    }

    /// One node's log offset (entries truncated into snapshots; see
    /// [`SmrNode::log_offset`]).
    pub fn log_offset(&self, p: ProcessId) -> u64 {
        self.node(p).log_offset()
    }

    /// One node's latest snapshot boundary, if it has one.
    pub fn snapshot_upto(&self, p: ProcessId) -> Option<u64> {
        self.node(p).snapshot_upto()
    }

    /// One node's retained committed-suffix length (boundedness asserts).
    pub fn tail_len(&self, p: ProcessId) -> usize {
        self.node(p).tail_len()
    }

    /// Runs until every node applied at least `k` slots (or `horizon`).
    pub fn run_until_applied(&mut self, k: u64, horizon: SimTime) -> SmrReport {
        let procs: Vec<ProcessId> = self.cfg.processes().collect();
        self.run_until_metric(&procs, k, horizon, |node| node.applied())
    }

    /// Runs until every node applied at least `k` *commands* (or `horizon`)
    /// — the right metric when batching.
    pub fn run_until_commands(&mut self, k: u64, horizon: SimTime) -> SmrReport {
        let procs: Vec<ProcessId> = self.cfg.processes().collect();
        self.run_until_metric(&procs, k, horizon, |node| node.commands_applied())
    }

    /// [`SmrSimCluster::run_until_applied`] over a subset of nodes —
    /// partition tests drive the live side forward while a victim is cut
    /// off (whose stalled metric would otherwise never let the run stop).
    pub fn run_until_applied_by(
        &mut self,
        procs: &[ProcessId],
        k: u64,
        horizon: SimTime,
    ) -> SmrReport {
        self.run_until_metric(procs, k, horizon, |node| node.applied())
    }

    fn run_until_metric(
        &mut self,
        procs: &[ProcessId],
        k: u64,
        horizon: SimTime,
        metric: impl Fn(&SmrNode<S>) -> u64,
    ) -> SmrReport {
        loop {
            let min_applied = procs
                .iter()
                .map(|p| metric(self.node(*p)))
                .min()
                .unwrap_or(0);
            if min_applied >= k || self.sim.now() > horizon {
                break;
            }
            // Step in chunks for speed.
            let before = self.sim.now();
            let target = before + self.delta;
            self.sim.run_until(target.min(horizon));
            if self.sim.pending_events() == 0 {
                break;
            }
            if self.sim.now() == before {
                // The next event lies beyond the chunk (e.g. a view-change
                // timeout during an idle stretch): jump straight to it, or
                // the loop would spin forever without advancing time. The
                // horizon check at the top still bounds the run.
                self.sim.step();
            }
        }
        self.report()
    }

    /// Builds the report for the current state.
    pub fn report(&self) -> SmrReport {
        let applied: Vec<u64> = self
            .cfg
            .processes()
            .map(|p| self.node(p).applied())
            .collect();
        let min_applied = applied.iter().copied().min().unwrap_or(0);
        let min_commands = self
            .cfg
            .processes()
            .map(|p| self.node(p).commands_applied())
            .min()
            .unwrap_or(0);

        // Log consistency: every pair agrees wherever their retained
        // (post-truncation) index ranges overlap.
        let logs: Vec<(u64, Vec<Value>)> = self
            .cfg
            .processes()
            .map(|p| (self.node(p).log_offset(), self.log(p)))
            .collect();
        let offset_logs: Vec<(u64, &[Value])> =
            logs.iter().map(|(o, l)| (*o, l.as_slice())).collect();
        let consistent = offset_logs_consistent(&offset_logs);

        let now = self.sim.now();
        let per_delta = |count: u64| {
            if now.0 == 0 {
                0.0
            } else {
                count as f64 * self.delta.0 as f64 / now.0 as f64
            }
        };
        SmrReport {
            applied_everywhere: min_applied,
            commands_everywhere: min_commands,
            final_time: now,
            logs_consistent: consistent,
            slots_per_delta: per_delta(min_applied),
            commands_per_delta: per_delta(min_commands),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvCommand, KvStore};
    use crate::machine::CountingMachine;
    use fastbft_types::View;

    #[test]
    fn counting_smr_applies_in_lockstep() {
        let cfg = Config::new(4, 1, 1).unwrap();
        // Broadcast client model: every node queues the same ten commands.
        let queue: Vec<Value> = (1..=10).map(Value::from_u64).collect();
        let mut cluster = SmrSimCluster::new(
            cfg,
            3,
            CountingMachine::new(),
            vec![queue; 4],
            Value::from_u64(0),
            Network::synchronous(SimDuration::DELTA),
            |node| node.with_batch_size(1),
        );
        let report = cluster.run_until_commands(10, SimTime(1_000_000));
        assert!(report.commands_everywhere >= 10);
        assert!(report.logs_consistent);
        // Sequential slots at 2Δ each plus pipeline restarts: ≥ 0.3 slots/Δ
        // would be suspiciously fast for a strictly sequential pipeline; we
        // just require steady progress.
        assert!(report.slots_per_delta > 0.05, "{report:?}");
    }

    #[test]
    fn kv_smr_commits_broadcast_commands() {
        let cfg = Config::new(4, 1, 1).unwrap();
        // Standard SMR client model: commands are broadcast to every
        // replica; slot leadership rotates, so whoever leads a slot proposes
        // the common queue front.
        let workload: Vec<Value> = (0..5)
            .map(|i| {
                KvCommand::Put {
                    key: format!("k{i}"),
                    value: format!("v{i}"),
                }
                .to_value()
            })
            .collect();
        let commands = vec![workload; 4];
        let mut cluster = SmrSimCluster::new(
            cfg,
            5,
            KvStore::new(),
            commands,
            KvCommand::Noop.to_value(),
            Network::synchronous(SimDuration::DELTA),
            |node| node.with_batch_size(1),
        );
        let report = cluster.run_until_applied(5, SimTime(1_000_000));
        assert!(report.applied_everywhere >= 5, "{report:?}");
        assert!(report.logs_consistent);
        // Every replica's store holds all five keys with identical digests.
        let d1 = cluster.machine(ProcessId(1)).state_digest();
        for p in cfg.processes() {
            let store = cluster.machine(p);
            assert_eq!(store.len(), 5, "store at {p}");
            assert_eq!(store.get("k3"), Some(&"v3".to_string()));
            assert_eq!(store.state_digest(), d1);
        }
    }

    #[test]
    fn slot_leadership_rotates() {
        // With the per-slot offset, each process leads the first view of a
        // different slot: slot s has leader p_{((1+s) mod n)+1}.
        let cfg = Config::new(4, 1, 1).unwrap();
        let leaders: Vec<u32> = (0..4u64)
            .map(|slot| cfg.with_leader_offset(slot).leader(View::FIRST).0)
            .collect();
        assert_eq!(leaders, vec![2, 3, 4, 1]);
    }
}
