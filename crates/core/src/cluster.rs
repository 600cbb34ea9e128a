//! High-level harness: a simulated cluster of single-shot consensus
//! replicas.
//!
//! [`SimCluster`] wires seats, keys, the network model and the invariant
//! checker together, for any protocol whose actors speak a [`SimMessage`]:
//! this paper's [`Replica`], and the baselines' PBFT and FaB replicas. Every
//! run ends in the same [`Report`], checked by [`ConsensusChecker`] for
//! agreement, validity and liveness. [`SimCluster::new`] is the one
//! constructor; [`SimCluster::builder`] seats this paper's protocol by
//! [`Behavior`] through it, so scenarios read in a few lines:
//!
//! ```
//! use fastbft_core::cluster::SimCluster;
//! use fastbft_types::{Config, Value};
//!
//! let cfg = Config::new(4, 1, 1)?;
//! let mut cluster = SimCluster::builder(cfg).inputs_u64([7, 7, 7, 7]).build();
//! let report = cluster.run_until_all_decide();
//! assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
//! assert_eq!(report.decision_delays_max(), 2); // the fast path: 2Δ
//! assert!(report.violations.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;

use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_obs::MetricsRegistry;
use fastbft_sim::{
    Actor, ConsensusChecker, MessageStats, Network, ScriptedActor, SimDuration, SimMessage,
    SimTime, Simulation, Trace, Violation,
};
use fastbft_types::{Config, ProcessId, Value};

use crate::byzantine::{EquivocatingLeader, RandomByzantine};
use crate::message::Message;
use crate::replica::{Replica, ReplicaOptions};

/// How a given process behaves in the scenario.
#[derive(Clone, Debug, Default)]
pub enum Behavior {
    /// A correct replica.
    #[default]
    Honest,
    /// Runs the protocol honestly, then crashes (stops) at the given time.
    /// Crashing *is* a Byzantine behavior in the paper's model.
    CrashAt(SimTime),
    /// Sends nothing, ever.
    Silent,
    /// `leader(1)` equivocation: proposes `a` to `recipients_a`, `b` to the
    /// rest (only meaningful for the process that leads view 1).
    EquivocateView1 {
        /// First value.
        a: Value,
        /// Second value.
        b: Value,
        /// Who receives the first value.
        recipients_a: Vec<ProcessId>,
    },
    /// The message fuzzer ([`RandomByzantine`]).
    Random {
        /// Fuzzer seed.
        seed: u64,
    },
}

impl Behavior {
    /// Whether the behavior counts as Byzantine for the checker.
    pub fn is_byzantine(&self) -> bool {
        !matches!(self, Behavior::Honest)
    }
}

/// Builder for a [`SimCluster`] of this paper's replicas: a seat function
/// over [`SimCluster::new`] that seats each process by its [`Behavior`].
#[derive(Debug)]
pub struct SimClusterBuilder {
    cfg: Config,
    seed: u64,
    gst: SimTime,
    pre_gst_max: SimDuration,
    inputs: Vec<Value>,
    behaviors: BTreeMap<ProcessId, Behavior>,
    metrics: Option<MetricsRegistry>,
}

impl SimClusterBuilder {
    fn new(cfg: Config) -> Self {
        SimClusterBuilder {
            cfg,
            seed: 0,
            gst: SimTime::ZERO,
            pre_gst_max: SimDuration(SimDuration::DELTA.0 * 10),
            inputs: (1..=cfg.n() as u64).map(Value::from_u64).collect(),
            behaviors: BTreeMap::new(),
            metrics: None,
        }
    }

    /// Sets all inputs from `u64` labels (length must equal `n`).
    ///
    /// # Panics
    ///
    /// Panics if the iterator length differs from `n`.
    #[must_use]
    pub fn inputs_u64(mut self, inputs: impl IntoIterator<Item = u64>) -> Self {
        self.inputs = inputs.into_iter().map(Value::from_u64).collect();
        assert_eq!(self.inputs.len(), self.cfg.n(), "one input per process");
        self
    }

    /// Sets a process's behavior (default: honest).
    #[must_use]
    pub fn behavior(mut self, p: ProcessId, behavior: Behavior) -> Self {
        self.behaviors.insert(p, behavior);
        self
    }

    /// Sets the RNG seed (keys, network jitter, fuzzers).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the global stabilization time; before it, delays are uniformly
    /// random up to `pre_gst_max`.
    #[must_use]
    pub fn gst(mut self, gst: SimTime, pre_gst_max: SimDuration) -> Self {
        self.gst = gst;
        self.pre_gst_max = pre_gst_max;
        self
    }

    /// Attaches a metrics plane: honest replica `p_{i+1}` records into
    /// `registry.replica(i)`, so a test can attribute each decision to the
    /// fast or slow path and count view changes per process. The registry
    /// (or a clone — the sinks are shared) stays with the caller for
    /// scraping after the run.
    ///
    /// # Panics
    ///
    /// `build` panics if the registry has fewer replicas than `n`.
    #[must_use]
    pub fn metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// Assembles the cluster.
    pub fn build(self) -> SimCluster {
        let SimClusterBuilder {
            cfg,
            seed,
            gst,
            pre_gst_max,
            inputs,
            behaviors,
            metrics,
        } = self;
        if let Some(registry) = &metrics {
            assert!(
                registry.len() >= cfg.n(),
                "metrics registry must cover all {} processes",
                cfg.n()
            );
        }
        let network = if gst == SimTime::ZERO {
            Network::synchronous(SimDuration::DELTA)
        } else {
            Network::partially_synchronous(SimDuration::DELTA, gst, pre_gst_max)
        };
        let faulty = behaviors
            .iter()
            .filter(|(_, b)| b.is_byzantine())
            .map(|(p, _)| *p);
        let mut cluster = SimCluster::new(
            cfg.n(),
            seed,
            network,
            inputs,
            faulty,
            |p, keys, dir, input| match behaviors.get(&p).cloned().unwrap_or_default() {
                Behavior::Honest | Behavior::CrashAt(_) => {
                    let mut options = ReplicaOptions::default();
                    if let Some(registry) = &metrics {
                        options.metrics = registry.replica(p.index());
                    }
                    Box::new(Replica::with_options(
                        cfg,
                        keys,
                        dir.clone(),
                        input,
                        options,
                    ))
                }
                Behavior::Silent => Box::new(ScriptedActor::silent()),
                Behavior::EquivocateView1 { a, b, recipients_a } => {
                    Box::new(EquivocatingLeader::new(keys, a, b, recipients_a))
                }
                Behavior::Random { seed } => Box::new(RandomByzantine::new(cfg, keys, seed)),
            },
        );
        for (p, behavior) in &behaviors {
            if let Behavior::CrashAt(at) = behavior {
                cluster.sim.schedule_crash(*p, *at);
            }
        }
        cluster
    }
}

/// A ready-to-run simulated cluster of any single-shot protocol. See the
/// module docs for an example.
pub struct SimCluster<M: SimMessage = Message> {
    sim: Simulation<M>,
    inputs: Vec<Value>,
    faulty: Vec<ProcessId>,
    horizon: SimTime,
    started: bool,
}

impl SimCluster {
    /// Starts building a cluster of this paper's replicas for `cfg`.
    pub fn builder(cfg: Config) -> SimClusterBuilder {
        SimClusterBuilder::new(cfg)
    }
}

impl<M: SimMessage> SimCluster<M> {
    /// Seats `n` processes on `network`: `seat(p, keys, &dir, input)` is
    /// called once per process, in id order, and returns what `p` runs — a
    /// replica of any protocol, or a silent or Byzantine stand-in.
    ///
    /// Keys come from `KeyDirectory::generate(n, seed)` and the simulator's
    /// RNG (read only by a partially synchronous network) from `seed + 1`.
    /// `faulty` is the set the checker treats as Byzantine: their decisions
    /// are ignored, and every other process owes agreement, validity and a
    /// decision within the horizon: `20 000 Δ` past the network's GST, or
    /// past 0 on a scripted network, which has none.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one input per process.
    pub fn new(
        n: usize,
        seed: u64,
        network: Network,
        inputs: impl IntoIterator<Item = Value>,
        faulty: impl IntoIterator<Item = ProcessId>,
        mut seat: impl FnMut(ProcessId, KeyPair, &KeyDirectory, Value) -> Box<dyn Actor<M>>,
    ) -> Self {
        let inputs: Vec<Value> = inputs.into_iter().collect();
        assert_eq!(inputs.len(), n, "one input per process");
        let (pairs, dir) = KeyDirectory::generate(n, seed);
        let stable_from = if network.gst == SimTime::NEVER {
            SimTime::ZERO
        } else {
            network.gst
        };
        let horizon = stable_from + SimDuration(network.delta.0.saturating_mul(20_000));
        let mut sim = Simulation::new(network, seed.wrapping_add(1));
        for (p, keys) in ProcessId::all(n).zip(pairs) {
            sim.add_actor(seat(p, keys, &dir, inputs[p.index()].clone()));
        }
        SimCluster {
            sim,
            inputs,
            faulty: faulty.into_iter().collect(),
            horizon,
            started: false,
        }
    }

    /// Ids of the correct (non-Byzantine) processes.
    pub fn correct_processes(&self) -> Vec<ProcessId> {
        ProcessId::all(self.inputs.len())
            .filter(|p| !self.faulty.contains(p))
            .collect()
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            self.sim.start();
        }
    }

    /// Runs until every correct process decides (or the horizon passes) and
    /// returns the report.
    pub fn run_until_all_decide(&mut self) -> Report {
        self.ensure_started();
        let correct = self.correct_processes();
        let all = self.sim.run_until_all_decide(&correct, self.horizon);
        self.report(all)
    }

    /// Runs until virtual time `t`, then reports.
    pub fn run_until(&mut self, t: SimTime) -> Report {
        self.ensure_started();
        self.sim.run_until(t);
        let correct = self.correct_processes();
        let all = correct.iter().all(|p| self.sim.decision(*p).is_some());
        self.report(all)
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    fn report(&self, all_decided: bool) -> Report {
        let checker =
            ConsensusChecker::new(ProcessId::all(self.inputs.len()).zip(self.inputs.clone()))
                .with_byzantine_set(self.faulty.iter().copied());
        let mut violations = checker.check_safety(self.sim.trace());
        if !all_decided {
            violations.extend(checker.check_liveness(self.sim.trace(), self.horizon));
        }
        Report {
            decisions: self
                .sim
                .decisions()
                .into_iter()
                .filter(|(p, _, _)| !self.faulty.contains(p))
                .collect(),
            violations,
            delta: self.sim.delta(),
            all_decided,
            stats: self.sim.trace().message_stats(SimTime::NEVER),
            final_time: self.sim.now(),
        }
    }
}

/// Outcome of a cluster run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Decisions of correct processes: `(process, time, value)`.
    pub decisions: Vec<(ProcessId, SimTime, Value)>,
    /// Detected violations (empty in every valid-configuration run).
    pub violations: Vec<Violation>,
    /// The Δ used, for latency conversion.
    pub delta: SimDuration,
    /// Whether every correct process decided within the horizon.
    pub all_decided: bool,
    /// Message statistics for the whole run.
    pub stats: MessageStats,
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
}

impl Report {
    /// The common decided value, if all correct deciders agree.
    pub fn unanimous_decision(&self) -> Option<Value> {
        let first = self.decisions.first()?.2.clone();
        self.decisions
            .iter()
            .all(|(_, _, v)| *v == first)
            .then_some(first)
    }

    /// Decision latency of the slowest correct process, in message delays
    /// (ceiling of time/Δ).
    pub fn decision_delays_max(&self) -> u64 {
        self.decisions
            .iter()
            .map(|(_, t, _)| t.0.div_ceil(self.delta.0.max(1)))
            .max()
            .unwrap_or(0)
    }

    /// Decision time of a specific process, in ticks.
    pub fn decision_time(&self, p: ProcessId) -> Option<SimTime> {
        self.decisions
            .iter()
            .find(|(q, _, _)| *q == p)
            .map(|(_, t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::View;

    #[test]
    fn crashed_leader_triggers_view_change_and_decision() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let leader = cfg.leader(View::FIRST);
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([5, 5, 5, 5])
            .behavior(leader, Behavior::Silent)
            .build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided, "violations: {:?}", report.violations);
        assert!(report.violations.is_empty());
        // Decided later than the fast path, via view change.
        assert!(report.decision_delays_max() > 2);
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(5)));
    }

    #[test]
    fn equivocating_leader_cannot_break_agreement() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let leader = cfg.leader(View::FIRST);
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([9, 9, 9, 9])
            .behavior(
                leader,
                Behavior::EquivocateView1 {
                    a: Value::from_u64(100),
                    b: Value::from_u64(200),
                    recipients_a: vec![ProcessId(1)],
                },
            )
            .build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided, "violations: {:?}", report.violations);
        assert!(report.violations.is_empty());
        assert!(report.unanimous_decision().is_some());
    }

    #[test]
    fn crash_behavior_counts_as_byzantine_for_checker() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let cluster = SimCluster::builder(cfg)
            .behavior(ProcessId(3), Behavior::CrashAt(SimTime(150)))
            .build();
        assert_eq!(cluster.correct_processes().len(), 3);
    }
}
