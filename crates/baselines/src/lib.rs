//! Baseline BFT protocols for comparison against `fastbft-core`.
//!
//! The target paper positions its protocol against two reference points:
//!
//! * [`pbft`] — the classic three-step protocol with optimal resilience
//!   `n = 3f + 1` (Castro & Liskov). Decides in **three** message delays in
//!   the common case: the latency gap that motivates fast Byzantine
//!   consensus (§1.1).
//! * [`fab`] — FaB Paxos (Martin & Alvisi), the previous fast protocol:
//!   **two** message delays but `n = 3f + 2t + 1` processes (`5f + 1` when
//!   `t = f`), two more than the paper's tight bound `3f + 2t − 1`.
//!
//! Both are implemented as [`fastbft_sim::Actor`]s over the same substrate
//! as the paper's replica, with the same view timer and decide rule
//! ([`fastbft_core::sync`]; FaB also its wish/enter synchronizer, PBFT
//! keeps its own view-change counting), and [`run`] runs any of the three
//! by its [`ProtocolKind`] under identical network conditions, so the
//! latency, resilience and message-complexity experiments (E5, E6, E12)
//! compare protocols, not plumbing.
//!
//! Faithfulness notes and simplifications are at the top of each module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fab;
pub mod pbft;

pub use fab::{FabMessage, FabReplica};
pub use pbft::{PbftMessage, PbftReplica};

use fastbft_core::cluster::{Report, SimCluster};
use fastbft_core::Replica;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_sim::{Actor, Network, ScriptedActor, SimMessage};
use fastbft_types::{Config, ProcessId, ProtocolKind, Value};

/// Runs one single-shot instance of `kind` on `n = inputs.len()` processes
/// until every seat outside `silent` decides or the horizon passes.
///
/// The configuration is [`ProtocolKind::config`]`(n, f, t)`; seat `p` runs
/// `kind`'s replica with input `inputs[p]`, or sends nothing if `p` is in
/// `silent`, and the silent seats are the checker's Byzantine set. Keys,
/// simulator seed and horizon are [`SimCluster::new`]'s.
///
/// ```
/// use fastbft_baselines::run;
/// use fastbft_sim::{Network, SimDuration};
/// use fastbft_types::{ProtocolKind, Value};
///
/// let network = Network::synchronous(SimDuration::DELTA);
/// let report = run(ProtocolKind::Pbft, 1, 1, 1, network, vec![Value::from_u64(7); 4], &[]);
/// assert_eq!(report.decision_delays_max(), 3);
/// assert!(report.all_decided && report.violations.is_empty());
/// ```
///
/// # Panics
///
/// Panics if `kind` refuses `(n, f, t)`.
pub fn run(
    kind: ProtocolKind,
    f: usize,
    t: usize,
    seed: u64,
    network: Network,
    inputs: Vec<Value>,
    silent: &[ProcessId],
) -> Report {
    let n = inputs.len();
    let cfg = kind
        .config(n, f, t)
        .unwrap_or_else(|e| panic!("{kind} at n = {n}, f = {f}, t = {t}: {e}"));
    match kind {
        ProtocolKind::Ktz => run_seated(cfg, seed, network, inputs, silent, Replica::new),
        ProtocolKind::FabPaxos => run_seated(cfg, seed, network, inputs, silent, FabReplica::new),
        ProtocolKind::Pbft => run_seated(cfg, seed, network, inputs, silent, PbftReplica::new),
    }
}

fn run_seated<M: SimMessage, A: Actor<M> + 'static>(
    cfg: Config,
    seed: u64,
    network: Network,
    inputs: Vec<Value>,
    silent: &[ProcessId],
    replica: fn(Config, KeyPair, KeyDirectory, Value) -> A,
) -> Report {
    let mut cluster = SimCluster::new(
        cfg.n(),
        seed,
        network,
        inputs,
        silent.iter().copied(),
        |p, keys, dir, input| {
            if silent.contains(&p) {
                Box::new(ScriptedActor::silent())
            } else {
                Box::new(replica(cfg, keys, dir.clone(), input))
            }
        },
    );
    cluster.run_until_all_decide()
}
