//! The lower bound of Section 4, executable (Figures 2–4, Theorem 4.5).
//!
//! The paper proves that no `f`-resilient `t`-two-step consensus protocol
//! exists on `3f + 2t − 2` processes, by constructing five executions
//! `ρ1 … ρ5` around an *influential process* `p` and showing every adjacent
//! pair is indistinguishable to some correct process. This module turns that
//! proof into a runnable adversary:
//!
//! * with `f = t = 2`, it instantiates the protocol on `n = 8 = 3f + 2t − 2`
//!   processes (one below the bound, via `Config::new_unchecked`) and
//!   plays the execution `ρ2` of the proof — the influential leader
//!   equivocates, the group `P2` lies selectively, and the network delays
//!   exactly the messages the proof delays. Result: the lone process in
//!   `P3` decides one value after two message delays while the rest of the
//!   system later agrees on the other — **disagreement**, reproducing the
//!   theorem's contradiction as a concrete safety violation;
//! * on `n = 9 = 3f + 2t − 1` processes (the paper's tight bound), the *same
//!   adversary* is powerless: quorum intersection (QI2) forces the new
//!   leader's selection to return exactly the fast-decided value, and
//!   agreement survives.
//!
//! Process cast (paper's groups → process ids, with `p = leader(1) = p2`):
//!
//! | group | paper size | ids (n = 8) | ids (n = 9) | role in ρ2 |
//! |---|---|---|---|---|
//! | `{p}` | 1 | 2 | 2 | Byzantine influential leader: equivocates |
//! | `P1`  | t = 2 | 1, 3 | 1, 3 | correct; received value 0 |
//! | `P2`  | f−1 = 1 | 4 | 4 | Byzantine: mimics state `t2` to `P3`, `s2` to others |
//! | `P3`  | f−1 = 1 | 5 | 5 | correct; decides fast on value 1 |
//! | `P4`  | f−1 = 1 | 6 | 6 | correct; received value 1 |
//! | `P5`  | t = 2 | 7, 8 | 7, 8, 9 | correct; received value 1 |

use fastbft_sim::{Network, ScriptedActor, SimDuration, SimTime, Violation};
use fastbft_types::{Config, ProcessId, Value, View};

use crate::certs::{ProgressCert, SignedVote, VoteData};
use crate::cluster::SimCluster;
use crate::message::{AckMsg, Message, ProposeMsg, VoteMsg};
use crate::payload::propose_payload;
use crate::replica::{Replica, ReplicaOptions};

/// Message-delay bound used by the attack timeline.
pub const DELTA: SimDuration = SimDuration(100);
/// When the proof's "delayed until a finite time `T`" messages land.
pub const T_LATE: SimTime = SimTime(30_000); // 300 Δ
/// Simulation horizon (after `T_LATE`, with slack for the flood).
pub const HORIZON: SimTime = SimTime(200_000);

/// Result of one attack run.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// Number of processes.
    pub n: usize,
    /// `f = t` used (always 2 here).
    pub f: usize,
    /// First decision of the fast decider `P3` (process 5).
    pub fast_decision: Option<(SimTime, Value)>,
    /// First decision of every correct process.
    pub decisions: Vec<(ProcessId, SimTime, Value)>,
    /// Safety violations detected by the checker.
    pub violations: Vec<Violation>,
    /// Whether two correct processes decided different values.
    pub disagreement: bool,
}

/// The Byzantine processes of execution ρ2: `{p} ∪ P2`.
pub const BYZANTINE: [ProcessId; 2] = [ProcessId(2), ProcessId(4)];
/// The fast decider (the paper's group `P3`).
pub const FAST_DECIDER: ProcessId = ProcessId(5);

const F: usize = 2;
const T: usize = 2;

/// `3f + 2t − 2`: one process below the bound — the attack succeeds here.
pub fn below_bound_n() -> usize {
    3 * F + 2 * T - 2
}

/// `3f + 2t − 1`: the paper's tight bound — the attack fails here.
pub fn at_bound_n() -> usize {
    3 * F + 2 * T - 1
}

/// Runs execution ρ2 of the lower-bound construction against the protocol
/// on `n` processes (`n` must be [`below_bound_n`] or [`at_bound_n`]).
///
/// # Panics
///
/// Panics if `n` is not one of the two supported sizes.
pub fn run_attack(n: usize, seed: u64) -> AttackOutcome {
    assert!(
        n == below_bound_n() || n == at_bound_n(),
        "attack is parameterized for n = 8 or n = 9 (f = t = 2)"
    );
    let cfg = Config::new_unchecked(n, F, T);
    let delta = DELTA;

    let zero = Value::from_u64(0);
    let one = Value::from_u64(1);
    let v1 = View::FIRST;
    let v2 = View(2);

    // -- the scripted network: the proof's delivery schedule ---------------
    //
    // * everything takes exactly Δ (the T-faulty two-step timing), except
    // * P1 = {1, 3}'s round-2 messages to P3 = {5} arrive at T (Fig. 3a), and
    // * everything P3 = {5} sends from round 2 on arrives at T ("P3 is slow:
    //   it sends the same messages but they are not received until T").
    let network = Network::scripted(delta, move |info| {
        if info.from == info.to {
            // Self-delivery models local state, not a channel; a process
            // always "hears itself" on time.
            return info.sent_at + delta;
        }
        let round2 = info.sent_at >= SimTime(delta.0) && info.sent_at < SimTime(2 * delta.0);
        let from_p1 = info.from == ProcessId(1) || info.from == ProcessId(3);
        if from_p1 && info.to == FAST_DECIDER && round2 {
            return T_LATE;
        }
        if info.from == FAST_DECIDER && info.sent_at >= SimTime(delta.0) {
            return T_LATE;
        }
        info.sent_at + delta
    });

    // -- actors -------------------------------------------------------------
    let opts = ReplicaOptions {
        base_timeout: SimDuration(delta.0 * 8),
        ..ReplicaOptions::default()
    };

    let p1_group = [ProcessId(1), ProcessId(3)];
    let rest: Vec<ProcessId> = (5..=n as u32).map(ProcessId).collect();
    let all: Vec<ProcessId> = (1..=n as u32).map(ProcessId).collect();
    let others_not_5: Vec<ProcessId> = all
        .iter()
        .copied()
        .filter(|p| *p != FAST_DECIDER && !BYZANTINE.contains(p))
        .collect();
    let leader_v2 = cfg.leader(v2);

    // p = p2 acks 1 to P3 in round 2, and p and P2 both ack the view-2
    // proposal of 0.
    let ack_one_v1 = Message::Ack(AckMsg {
        value: one.clone(),
        view: v1,
        share: None,
    });
    let ack_zero_v2 = Message::Ack(AckMsg {
        value: zero.clone(),
        view: v2,
        share: None,
    });
    // p's τ signature over value 0 in view 1, which P2's vote quotes: seats
    // are built in id order, so p2's exists when p4's script is written.
    let mut tau_zero = None;

    // Correct processes run the real protocol, unmodified. Inputs: the new
    // leader (p3) has input 0, matching the proof's steering of ρ3 toward
    // consensus value 0; other inputs are irrelevant.
    let inputs = vec![zero.clone(); n];
    let mut cluster = SimCluster::new(
        n,
        seed,
        network,
        inputs,
        BYZANTINE,
        |p, keys, dir, input| {
            match p {
                // p = p2: equivocate in round 1 (m5 to P1, m1 to P3/P4/P5);
                // in round 2, send ack(1) to P3 only, exactly as the correct
                // p of ρ1 would have looked *to P3*; silence to everyone
                // else. In the ρ3 continuation it helps steer the decision
                // to 0 by acking the new proposal.
                ProcessId(2) => {
                    let tau = |value: &Value| keys.sign(&propose_payload(value, v1, 0));
                    let propose = |value: &Value| {
                        Message::Propose(ProposeMsg {
                            value: value.clone(),
                            view: v1,
                            cert: ProgressCert::Genesis,
                            sig: tau(value),
                        })
                    };
                    tau_zero = Some(tau(&zero));
                    Box::new(
                        ScriptedActor::silent()
                            .with_multicast_at(SimTime::ZERO, p1_group, propose(&zero))
                            .with_multicast_at(SimTime::ZERO, rest.iter().copied(), propose(&one))
                            .with_send_at(SimTime(delta.0), FAST_DECIDER, ack_one_v1.clone())
                            .with_multicast_at(
                                SimTime(13 * delta.0),
                                all.iter().copied(),
                                ack_zero_v2.clone(),
                            ),
                    )
                }
                // P2 = p4: pretend state t2 (acked 1) to P3, state s2 (acked
                // 0) to the others; vote for (0, view 1) in the view change
                // with p's genuine τ; ack the new proposal.
                ProcessId(4) => {
                    let vote = SignedVote::sign(
                        &keys,
                        Some(VoteData {
                            value: zero.clone(),
                            view: v1,
                            progress_cert: ProgressCert::Genesis,
                            leader_sig: tau_zero.clone().expect("p2 is seated before p4"),
                            commit_cert: None,
                        }),
                        v2,
                        0,
                    );
                    Box::new(
                        ScriptedActor::silent()
                            .with_send_at(SimTime(delta.0), FAST_DECIDER, ack_one_v1.clone())
                            .with_multicast_at(
                                SimTime(delta.0),
                                others_not_5.iter().copied(),
                                Message::Ack(AckMsg {
                                    value: zero.clone(),
                                    view: v1,
                                    share: None,
                                }),
                            )
                            .with_send_at(
                                SimTime(9 * delta.0),
                                leader_v2,
                                Message::Vote(VoteMsg { view: v2, vote }),
                            )
                            .with_multicast_at(
                                SimTime(13 * delta.0),
                                all.iter().copied(),
                                ack_zero_v2.clone(),
                            ),
                    )
                }
                _ => Box::new(Replica::with_options(
                    cfg,
                    keys,
                    dir.clone(),
                    input,
                    opts.clone(),
                )),
            }
        },
    );
    // Run past T_LATE and let the flood settle so duplicate decisions surface.
    let report = cluster.run_until(HORIZON);

    let fast_decision = report
        .decisions
        .iter()
        .find(|(p, _, _)| *p == FAST_DECIDER)
        .map(|(_, t, v)| (*t, v.clone()));
    let disagreement = report
        .decisions
        .iter()
        .any(|(_, _, v)| report.decisions.first().is_some_and(|(_, _, v0)| v != v0));

    AttackOutcome {
        n,
        f: F,
        fast_decision,
        decisions: report.decisions,
        violations: report
            .violations
            .into_iter()
            .filter(|v| !matches!(v, Violation::Undecided { .. }))
            .collect(),
        disagreement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Theorem 4.5, experimentally: one process below the bound, the
    /// five-execution adversary forces disagreement.
    #[test]
    fn attack_breaks_safety_below_the_bound() {
        let outcome = run_attack(below_bound_n(), 1);
        // P3 (process 5) decided value 1 after exactly two message delays…
        let (t, v) = outcome.fast_decision.clone().expect("P3 must decide fast");
        assert_eq!(v, Value::from_u64(1));
        assert_eq!(t, SimTime(2 * DELTA.0), "two-step decision at 2Δ");
        // …while the rest of the system agreed on 0.
        assert!(outcome.disagreement, "decisions: {:?}", outcome.decisions);
        assert!(
            outcome
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Disagreement { .. })),
            "checker must flag disagreement, got {:?}",
            outcome.violations
        );
        let zeros = outcome
            .decisions
            .iter()
            .filter(|(_, _, v)| *v == Value::from_u64(0))
            .count();
        assert!(
            zeros >= 5,
            "the ρ3 continuation decides 0: {:?}",
            outcome.decisions
        );
    }

    /// The same adversary at n = 3f + 2t − 1: the fast decision still
    /// happens, but quorum intersection forces every later view to stick to
    /// it — safety holds (the bound is tight).
    #[test]
    fn attack_fails_at_the_bound() {
        let outcome = run_attack(at_bound_n(), 1);
        let (t, v) = outcome
            .fast_decision
            .clone()
            .expect("P3 still decides fast");
        assert_eq!(v, Value::from_u64(1));
        assert_eq!(t, SimTime(2 * DELTA.0));
        assert!(!outcome.disagreement, "decisions: {:?}", outcome.decisions);
        assert!(
            outcome.violations.is_empty(),
            "no safety violation at the bound: {:?}",
            outcome.violations
        );
        // Everyone agreed on the fast-decided value 1.
        for (_, _, value) in &outcome.decisions {
            assert_eq!(*value, Value::from_u64(1));
        }
        // All 7 correct processes decided.
        assert_eq!(outcome.decisions.len(), 7);
    }

    #[test]
    #[should_panic(expected = "parameterized")]
    fn unsupported_n_panics() {
        let _ = run_attack(10, 1);
    }
}
