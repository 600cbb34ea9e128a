//! High-level harness: a simulated cluster of replicas.
//!
//! [`SimCluster`] wires replicas, keys, the network model and the invariant
//! checker together so examples, tests and benchmarks can express scenarios
//! in a few lines:
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

use fastbft_crypto::KeyDirectory;
use fastbft_obs::MetricsRegistry;
use fastbft_sim::{
    ConsensusChecker, MessageStats, Network, ScriptedActor, SimDuration, SimTime, Simulation,
    Trace, Violation,
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

/// Builder for [`SimCluster`].
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
        let cfg = self.cfg;
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), self.seed);
        let delta = SimDuration::DELTA;
        let network = if self.gst == SimTime::ZERO {
            Network::synchronous(delta)
        } else {
            Network::partially_synchronous(delta, self.gst, self.pre_gst_max)
        };
        let mut sim = Simulation::new(network, self.seed.wrapping_add(1));
        let mut byzantine = Vec::new();
        let mut crashes = Vec::new();
        if let Some(registry) = &self.metrics {
            assert!(
                registry.len() >= cfg.n(),
                "metrics registry must cover all {} processes",
                cfg.n()
            );
        }
        for p in cfg.processes() {
            let behavior = self.behaviors.get(&p).cloned().unwrap_or_default();
            if behavior.is_byzantine() {
                byzantine.push(p);
            }
            let input = self.inputs[p.index()].clone();
            let keys = pairs[p.index()].clone();
            let mut options = ReplicaOptions::default();
            if let Some(registry) = &self.metrics {
                options.metrics = registry.replica(p.index());
            }
            match behavior {
                Behavior::Honest => {
                    sim.add_actor(Box::new(Replica::with_options(
                        cfg,
                        keys,
                        dir.clone(),
                        input,
                        options,
                    )));
                }
                Behavior::CrashAt(at) => {
                    sim.add_actor(Box::new(Replica::with_options(
                        cfg,
                        keys,
                        dir.clone(),
                        input,
                        options,
                    )));
                    crashes.push((p, at));
                }
                Behavior::Silent => {
                    sim.add_actor(Box::new(ScriptedActor::silent()));
                }
                Behavior::EquivocateView1 { a, b, recipients_a } => {
                    sim.add_actor(Box::new(EquivocatingLeader::new(keys, a, b, recipients_a)));
                }
                Behavior::Random { seed } => {
                    sim.add_actor(Box::new(RandomByzantine::new(cfg, keys, seed)));
                }
            }
        }
        for (p, at) in crashes {
            sim.schedule_crash(p, at);
        }
        let gst_part = if self.gst == SimTime::NEVER {
            SimTime::ZERO
        } else {
            self.gst
        };
        let horizon = gst_part + SimDuration(delta.0.saturating_mul(20_000));
        SimCluster {
            sim,
            cfg,
            delta,
            inputs: self.inputs,
            byzantine,
            horizon,
            started: false,
        }
    }
}

/// A ready-to-run simulated cluster. See module docs for an example.
pub struct SimCluster {
    sim: Simulation<Message>,
    cfg: Config,
    delta: SimDuration,
    inputs: Vec<Value>,
    byzantine: Vec<ProcessId>,
    horizon: SimTime,
    started: bool,
}

impl SimCluster {
    /// Starts building a cluster for `cfg`.
    pub fn builder(cfg: Config) -> SimClusterBuilder {
        SimClusterBuilder::new(cfg)
    }

    /// The system configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Ids of the correct (non-Byzantine) processes.
    pub fn correct_processes(&self) -> Vec<ProcessId> {
        self.cfg
            .processes()
            .filter(|p| !self.byzantine.contains(p))
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
        let checker = ConsensusChecker::new(
            self.cfg
                .processes()
                .map(|p| (p, self.inputs[p.index()].clone())),
        )
        .with_byzantine_set(self.byzantine.iter().copied());
        let mut violations = checker.check_safety(self.sim.trace());
        if all_decided {
            // Liveness holds; nothing to add.
        } else {
            violations.extend(checker.check_liveness(self.sim.trace(), self.horizon));
        }
        Report {
            decisions: self
                .sim
                .decisions()
                .into_iter()
                .filter(|(p, _, _)| !self.byzantine.contains(p))
                .collect(),
            violations,
            delta: self.delta,
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
    fn four_processes_decide_in_two_steps() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let mut cluster = SimCluster::builder(cfg).inputs_u64([7, 7, 7, 7]).build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided, "violations: {:?}", report.violations);
        assert!(report.violations.is_empty());
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
        assert_eq!(report.decision_delays_max(), 2);
    }

    #[test]
    fn vanilla_nine_processes_decide_fast() {
        let cfg = Config::vanilla(9, 2).unwrap();
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([3, 3, 3, 3, 3, 3, 3, 3, 3])
            .build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided);
        assert!(report.violations.is_empty());
        assert_eq!(report.decision_delays_max(), 2);
    }

    #[test]
    fn leader_input_wins_with_distinct_inputs() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let mut cluster = SimCluster::builder(cfg).inputs_u64([1, 2, 3, 4]).build();
        let report = cluster.run_until_all_decide();
        // leader(1) = p2, so its input 2 is decided.
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(2)));
        let leader = cfg.leader(View::FIRST);
        assert_eq!(leader, ProcessId(2));
    }

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
