//! Simulated SMR clusters: wiring, execution, and one [`SmrChecker`] fed
//! every applied event of the run, checked at every return of
//! [`SmrSimCluster::run_until`] — and for liveness only where a test says
//! the run has settled ([`SmrSimCluster::settle`]).
//!
//! The logs it keeps hold commands only, one per index: a slot with nothing
//! to commit decides the empty batch and adds nothing, so a log index is a
//! command index, not a slot. What a slot decided is the node's to say
//! (`SmrNode::decided_batch`).

use std::collections::BTreeMap;

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_obs::MetricsRegistry;
use fastbft_sim::{Actor, Network, SimTime, Simulation, SmrChecker, SmrViolation};
use fastbft_types::{Config, ProcessId, Value};

use crate::machine::StateMachine;
use crate::multiplex::{SlotMessage, SmrNode};
use crate::runtime::as_smr_node;

/// Outcome of an SMR run, over the seats that hold an [`SmrNode`].
#[derive(Clone, Debug)]
pub struct SmrReport {
    /// Slots applied by every node (the minimum across nodes).
    pub applied_everywhere: u64,
    /// Commands applied by every node (≥ slots when batching).
    pub commands_everywhere: u64,
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
    /// Applied slots per Δ of the slowest node (throughput).
    pub slots_per_delta: f64,
    /// Applied commands per Δ of the slowest node.
    pub commands_per_delta: f64,
}

/// `violations` one after another, as they read.
pub(crate) fn listed(violations: &[SmrViolation]) -> String {
    let texts: Vec<String> = violations.iter().map(ToString::to_string).collect();
    texts.join("; ")
}

/// A simulated replicated-state-machine cluster over the core protocol —
/// the one way to run [`SmrNode`]s in virtual time.
///
/// Every seat is offered an [`SmrNode`] with its own copy of the state
/// machine, recording into the cluster's [`registry`](Self::registry); the
/// seat holds whatever actor the constructor's `configure` makes of it.
/// Tests read nodes through [`node`](Self::node), the replicated logs
/// through [`logs`](Self::logs), and drive or inspect the simulator
/// through [`sim`](Self::sim) / [`sim_mut`](Self::sim_mut).
pub struct SmrSimCluster<S: StateMachine + 'static> {
    sim: Simulation<SlotMessage>,
    registry: MetricsRegistry,
    /// Every seat's log, from every applied event the kernel drained, and
    /// what it violates.
    checker: SmrChecker,
    _marker: std::marker::PhantomData<S>,
}

impl<S: StateMachine + Clone + 'static> SmrSimCluster<S> {
    /// Builds a cluster over `network`. `commands[i]` is process `i+1`'s
    /// client queue (slot leaders drain their own queues; followers' queues
    /// commit when they lead a view). Every seat's node is passed to
    /// `configure` with its seat, which returns the actor to seat there:
    /// the node with [`SmrNode`]'s `with_*` options chained
    /// (`|_, node| Box::new(node)` for a node as shipped), a wrapper around
    /// it, or another actor entirely (a silent or Byzantine seat).
    pub fn new(
        cfg: Config,
        seed: u64,
        machine: S,
        commands: Vec<Vec<Value>>,
        network: Network,
        mut configure: impl FnMut(ProcessId, SmrNode<S>) -> Box<dyn Actor<SlotMessage>>,
    ) -> Self {
        assert_eq!(commands.len(), cfg.n(), "one command queue per process");
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
        let registry = MetricsRegistry::new(cfg.n());
        let checker = SmrChecker::new(cfg.n());
        let mut sim = Simulation::new(network, seed.wrapping_add(7));
        for ((p, pair), cmds) in cfg.processes().zip(pairs).zip(commands) {
            let node = SmrNode::new(
                cfg,
                pair,
                dir.clone(),
                machine.clone(),
                cmds,
                Value::default(),
            )
            .with_options(ReplicaOptions {
                metrics: registry.replica(p.index()),
                ..ReplicaOptions::default()
            });
            sim.add_actor(configure(p, node));
        }
        sim.start();
        SmrSimCluster {
            sim,
            registry,
            checker,
            _marker: std::marker::PhantomData,
        }
    }

    /// The node at seat `p`.
    ///
    /// # Panics
    ///
    /// Panics if `configure` seated another actor there.
    pub fn node(&self, p: ProcessId) -> &SmrNode<S> {
        as_smr_node(self.sim.actor(p)).unwrap_or_else(|| panic!("{p} does not hold an SmrNode"))
    }

    /// Every seat that holds a node, in seat order.
    fn nodes(&self) -> impl Iterator<Item = (ProcessId, &SmrNode<S>)> {
        ProcessId::all(self.sim.n()).filter_map(|p| Some((p, as_smr_node(self.sim.actor(p))?)))
    }

    /// The simulator: clock, trace, seats.
    pub fn sim(&self) -> &Simulation<SlotMessage> {
        &self.sim
    }

    /// The simulator, to inject messages, submit client commands, schedule
    /// crashes or step it by hand.
    pub fn sim_mut(&mut self) -> &mut Simulation<SlotMessage> {
        &mut self.sim
    }

    /// The metrics every node seat records into (seat `p` is block
    /// `p.index()`).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Steps the simulator one event at a time until `done` holds, then
    /// reports. `done` may read the run so far, [`logs`](Self::logs)
    /// included.
    ///
    /// # Panics
    ///
    /// Panics, naming every node's applied slots, if the event queue
    /// empties or virtual time passes `horizon` before `done` holds; then
    /// if there are any [`violations`](Self::violations), listing them.
    pub fn run_until(
        &mut self,
        horizon: SimTime,
        mut done: impl FnMut(&mut Self) -> bool,
    ) -> SmrReport {
        while !done(self) {
            let stepped = self.sim.step();
            if !stepped || self.sim.now() > horizon {
                let applied: Vec<String> = self
                    .nodes()
                    .map(|(p, node)| format!("{p} {}", node.applied()))
                    .collect();
                panic!(
                    "not done by {horizon} ({} at {}); applied: {}",
                    if stepped {
                        "past the horizon"
                    } else {
                        "no events left"
                    },
                    self.sim.now(),
                    applied.join(", ")
                );
            }
        }
        let now = self.sim.now();
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "the SMR checker found at {now}: {}",
            listed(violations)
        );
        self.report()
    }

    /// Feeds the checker every applied event the kernel holds.
    fn feed(&mut self) {
        for (p, index, command) in self.sim.drain_applied() {
            self.checker.observe(p, index, command);
        }
    }

    /// Every seat's log over the whole run so far, by seat index, keyed by
    /// log index: sparse below a snapshot the seat installed.
    pub fn logs(&mut self) -> &[BTreeMap<u64, Value>] {
        self.feed();
        self.checker.logs()
    }

    /// What the [`SmrChecker`] found in every applied event of the run so
    /// far, and in the node seats' `(applied, state digest)` now — for runs
    /// stepped by hand through [`sim_mut`](Self::sim_mut);
    /// [`run_until`](Self::run_until) asserts it.
    pub fn violations(&mut self) -> &[SmrViolation] {
        self.feed();
        for p in ProcessId::all(self.sim.n()) {
            if let Some(node) = as_smr_node::<S>(self.sim.actor(p)) {
                let digest = node.state_digest();
                self.checker.observe_state(p, node.applied(), digest);
            }
        }
        self.checker.violations()
    }

    /// Says the run has settled — the one way to check the checker's
    /// liveness row ([`SmrChecker::settled`]): runs `bound` Δ further with
    /// no client command handed to any seat, then returns the lowest log
    /// index some node seat applied and another did not, if there is one.
    /// A seat that holds no node (silent, Byzantine) is left out, as it is
    /// from [`logs`](Self::logs). Neither [`run_until`](Self::run_until)
    /// nor [`violations`](Self::violations) checks the row.
    ///
    /// # Panics
    ///
    /// Panics if a client submission is still scheduled.
    pub fn settle(&mut self, bound: u64) -> Option<SmrViolation> {
        let scheduled = self.sim.submissions_pending();
        assert_eq!(
            scheduled, 0,
            "a run with client commands ahead has not settled"
        );
        let until = SimTime(self.sim.now().0 + bound * self.sim.delta().0);
        self.sim.run_until(until);
        self.feed();
        let correct: Vec<ProcessId> = self.nodes().map(|(p, _)| p).collect();
        self.checker.settled(&correct)
    }

    /// The counters for the current state, over the node seats.
    pub fn report(&self) -> SmrReport {
        let min = |metric: fn(&SmrNode<S>) -> u64| {
            self.nodes()
                .map(|(_, node)| metric(node))
                .min()
                .unwrap_or(0)
        };
        let (applied, commands) = (min(SmrNode::applied), min(SmrNode::commands_applied));
        let now = self.sim.now();
        let per_delta = |count: u64| {
            if now.0 == 0 {
                0.0
            } else {
                count as f64 * self.sim.delta().0 as f64 / now.0 as f64
            }
        };
        SmrReport {
            applied_everywhere: applied,
            commands_everywhere: commands,
            final_time: now,
            slots_per_delta: per_delta(applied),
            commands_per_delta: per_delta(commands),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{KvCommand, KvStore};
    use crate::machine::CountingMachine;
    use fastbft_sim::SimDuration;
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
            Network::synchronous(SimDuration::DELTA),
            |_, node| Box::new(node.with_batch_size(1)),
        );
        let report =
            cluster.run_until(SimTime(1_000_000), |c| c.report().commands_everywhere >= 10);
        // Sequential slots at 2Δ each plus pipeline restarts: ≥ 0.3 slots/Δ
        // would be suspiciously fast for a strictly sequential pipeline; we
        // just require steady progress.
        assert!(report.slots_per_delta > 0.05, "{report:?}");
    }

    /// Throughput is per Δ of the cluster's own network: the same lockstep
    /// run on a network with half the default Δ reports the same slots per
    /// Δ, not half as many.
    #[test]
    fn throughput_is_counted_in_the_networks_delta() {
        let run = |delta: SimDuration| {
            let cfg = Config::new(4, 1, 1).unwrap();
            let queue: Vec<Value> = (1..=10).map(Value::from_u64).collect();
            let mut cluster = SmrSimCluster::new(
                cfg,
                3,
                CountingMachine::new(),
                vec![queue; 4],
                Network::synchronous(delta),
                |_, node| Box::new(node.with_batch_size(1).with_pipeline_depth(1)),
            );
            cluster.run_until(SimTime::NEVER, |c| c.report().applied_everywhere >= 10)
        };
        let (default, half) = (run(SimDuration::DELTA), run(SimDuration(50)));
        assert_eq!(half.final_time.0 * 2, default.final_time.0);
        assert_eq!(half.slots_per_delta, default.slots_per_delta, "{half:?}");
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
            Network::synchronous(SimDuration::DELTA),
            |_, node| Box::new(node.with_batch_size(1)),
        );
        cluster.run_until(SimTime(1_000_000), |c| c.report().applied_everywhere >= 5);
        // Every replica's store holds all five keys.
        for p in cfg.processes() {
            let store = cluster.node(p).machine();
            assert_eq!(store.len(), 5, "store at {p}");
            assert_eq!(store.get("k3"), Some(&"v3".to_string()));
        }
    }

    #[test]
    fn slot_leadership_rotates() {
        // With the per-slot offset, each process leads the first view of a
        // different slot: slot s has leader p_{((1+s) mod n)+1}.
        let cfg = Config::new(4, 1, 1).unwrap();
        let leaders: Vec<u32> = (0..4u64)
            .map(|slot| cfg.with_instance(slot).leader(View::FIRST).0)
            .collect();
        assert_eq!(leaders, vec![2, 3, 4, 1]);
    }
}
