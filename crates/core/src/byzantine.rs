//! Byzantine behaviors for testing and experiments.
//!
//! The paper's adversary controls up to `f` processes completely, subject
//! only to cryptography: it cannot forge other processes' signatures. These
//! actors model the attack repertoire the protocol must survive:
//!
//! * [`EquivocatingLeader`] — `leader(1)` sends conflicting, individually
//!   valid proposals to different halves of the system (the equivocation
//!   the selection algorithm's evidence handling exists for);
//! * [`RandomByzantine`] — a fuzzer that emits structurally valid but
//!   semantically hostile messages of every kind, with real signatures
//!   (a Byzantine process *can* sign anything as itself);
//! * silence and crashes are modeled by [`fastbft_sim::ScriptedActor::silent`]
//!   and [`fastbft_sim::Simulation::schedule_crash`] respectively.

use fastbft_crypto::{KeyDirectory, KeyPair, Signature, SignatureSet};
use fastbft_sim::{Actor, Effects, SimDuration, TimerId};
use fastbft_types::{Config, ProcessId, Value, View};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::certs::{CommitCert, ProgressCert, SignedVote, VoteData};
use crate::message::{AckMsg, CertAckMsg, CommitMsg, Message, ProposeMsg, VoteMsg, WishMsg};
use crate::payload::{ack_payload, certack_payload, propose_payload};

/// A Byzantine `leader(1)` that equivocates: proposes `value_a` to the
/// processes in `recipients_a` and `value_b` to everyone else, both with
/// valid signatures and Genesis certificates, then goes silent.
#[derive(Debug)]
pub struct EquivocatingLeader {
    keys: KeyPair,
    value_a: Value,
    value_b: Value,
    recipients_a: Vec<ProcessId>,
}

impl EquivocatingLeader {
    /// Creates the equivocator. `keys` must belong to `leader(1)` for the
    /// proposals to pass verification.
    pub fn new(
        keys: KeyPair,
        value_a: Value,
        value_b: Value,
        recipients_a: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        EquivocatingLeader {
            keys,
            value_a,
            value_b,
            recipients_a: recipients_a.into_iter().collect(),
        }
    }

    fn propose(&self, value: &Value) -> Message {
        Message::Propose(ProposeMsg {
            value: value.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: self.keys.sign(&propose_payload(value, View::FIRST)),
        })
    }
}

impl Actor<Message> for EquivocatingLeader {
    fn on_start(&mut self, fx: &mut Effects<Message>) {
        let a = self.propose(&self.value_a);
        let b = self.propose(&self.value_b);
        for to in ProcessId::all(fx.n()) {
            if self.recipients_a.contains(&to) {
                fx.send(to, a.clone());
            } else {
                fx.send(to, b.clone());
            }
        }
    }

    fn on_message(&mut self, _from: ProcessId, _msg: Message, _fx: &mut Effects<Message>) {}

    fn label(&self) -> &'static str {
        "equivocating-leader"
    }
}

/// A fuzzing adversary: periodically emits randomized protocol messages of
/// every kind to random processes. All signatures it produces are its own
/// and genuine — like a real Byzantine process, it can sign any *statement*
/// but cannot forge anyone else's signature.
///
/// Used by the property tests: for any `n ≥ 3f + 2t − 1`, no combination of
/// up to `f` fuzzers and pre-GST chaos may break agreement.
#[derive(Debug)]
pub struct RandomByzantine {
    cfg: Config,
    keys: KeyPair,
    rng: StdRng,
    burst: usize,
    period: SimDuration,
    /// Values the fuzzer plays with.
    palette: Vec<Value>,
}

impl RandomByzantine {
    /// Creates a fuzzer for the process owning `keys`.
    pub fn new(cfg: Config, keys: KeyPair, seed: u64) -> Self {
        RandomByzantine {
            cfg,
            keys,
            rng: StdRng::seed_from_u64(seed),
            burst: 6,
            period: SimDuration(SimDuration::DELTA.0 / 2),
            palette: (0..4).map(Value::from_u64).collect(),
        }
    }

    fn random_value(&mut self) -> Value {
        let i = self.rng.gen_range(0..self.palette.len());
        self.palette[i].clone()
    }

    fn random_view(&mut self) -> View {
        View(self.rng.gen_range(1..=6))
    }

    fn random_target(&mut self, n: usize) -> ProcessId {
        ProcessId(self.rng.gen_range(1..=n as u32))
    }

    fn random_message(&mut self, n: usize) -> Message {
        let value = self.random_value();
        let view = self.random_view();
        match self.rng.gen_range(0..7) {
            0 => {
                // An ack with no share, a valid own share, or a share whose
                // claimed signer doesn't match the sender (receivers must
                // drop that one).
                let share = match self.rng.gen_range(0..3) {
                    0 => None,
                    1 => Some(self.keys.sign(&ack_payload(&value, view))),
                    _ => Some(Signature::from_parts(
                        self.random_target(n),
                        *self.keys.sign(&ack_payload(&value, view)).tag(),
                    )),
                };
                Message::Ack(AckMsg { value, view, share })
            }
            1 => Message::Wish(WishMsg { view }),
            2 => {
                // A commit certificate made only of our own signature: it
                // will fail quorum verification — receivers must reject it.
                let sigs: SignatureSet = [self.keys.sign(&ack_payload(&value, view))]
                    .into_iter()
                    .collect();
                Message::Commit(CommitMsg {
                    cert: CommitCert { value, view, sigs },
                })
            }
            3 => {
                // A propose: only valid if we actually lead `view` and the
                // certificate checks out (Genesis only works for view 1).
                let sig = self.keys.sign(&propose_payload(&value, view));
                Message::Propose(ProposeMsg {
                    value,
                    view,
                    cert: ProgressCert::Genesis,
                    sig,
                })
            }
            4 => {
                // A nil vote for a random view — validly signed.
                let vote = SignedVote::sign(&self.keys, None, view);
                Message::Vote(VoteMsg { view, vote })
            }
            5 => {
                // A fabricated non-nil vote. The leader signature inside is
                // our own, so it only verifies if we led that view.
                let vd = VoteData {
                    value: value.clone(),
                    view: View(view.0.saturating_sub(1).max(1)),
                    progress_cert: ProgressCert::Genesis,
                    leader_sig: self.keys.sign(&propose_payload(
                        &value,
                        View(view.0.saturating_sub(1).max(1)),
                    )),
                    commit_cert: None,
                };
                let dest = View(vd.view.0 + 1);
                let vote = SignedVote::sign(&self.keys, Some(vd), dest);
                Message::Vote(VoteMsg { view: dest, vote })
            }
            _ => {
                let sig = self.keys.sign(&certack_payload(&value, view));
                Message::CertAck(CertAckMsg { view, value, sig })
            }
        }
    }

    fn burst(&mut self, fx: &mut Effects<Message>) {
        let n = fx.n();
        for _ in 0..self.burst {
            let to = self.random_target(n);
            let msg = self.random_message(n);
            fx.send(to, msg);
        }
    }
}

impl Actor<Message> for RandomByzantine {
    fn on_start(&mut self, fx: &mut Effects<Message>) {
        // If we happen to lead view 1, equivocate right away.
        if self.cfg.leader(View::FIRST) == self.keys.id() {
            let a = self.random_value();
            let b = self.random_value();
            for to in ProcessId::all(fx.n()) {
                let v = if to.0 % 2 == 0 { &a } else { &b };
                fx.send(
                    to,
                    Message::Propose(ProposeMsg {
                        value: v.clone(),
                        view: View::FIRST,
                        cert: ProgressCert::Genesis,
                        sig: self.keys.sign(&propose_payload(v, View::FIRST)),
                    }),
                );
            }
        }
        self.burst(fx);
        fx.set_timer(self.period, TimerId(0));
    }

    fn on_message(&mut self, _from: ProcessId, _msg: Message, fx: &mut Effects<Message>) {
        // React to roughly one message in four with hostile noise.
        if self.rng.gen_bool(0.25) {
            let to = self.random_target(fx.n());
            let msg = self.random_message(fx.n());
            fx.send(to, msg);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, fx: &mut Effects<Message>) {
        self.burst(fx);
        fx.set_timer(self.period, TimerId(0));
    }

    fn label(&self) -> &'static str {
        "random-byzantine"
    }
}

/// Builds per-process keys plus a directory and wraps common setup used by
/// tests and experiments.
pub fn keyed_system(cfg: &Config, seed: u64) -> (Vec<KeyPair>, KeyDirectory) {
    KeyDirectory::generate(cfg.n(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_sim::{SimMessage, SimTime};

    #[test]
    fn equivocator_sends_conflicting_but_valid_proposals() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, dir) = keyed_system(&cfg, 3);
        let leader = cfg.leader(View::FIRST);
        let mut eq = EquivocatingLeader::new(
            pairs[leader.index()].clone(),
            Value::from_u64(0),
            Value::from_u64(1),
            [ProcessId(1), ProcessId(3)],
        );
        let mut fx = Effects::new(leader, 4, SimTime::ZERO);
        eq.on_start(&mut fx);
        assert_eq!(fx.sent().len(), 4);
        let mut zeros = 0;
        let mut ones = 0;
        for (to, m) in fx.sent() {
            let Message::Propose(p) = m else {
                panic!("non-propose")
            };
            // Each proposal individually verifies.
            assert!(dir.verify(&propose_payload(&p.value, p.view), &p.sig));
            match p.value.as_u64() {
                Some(0) => {
                    zeros += 1;
                    assert!(matches!(to.0, 1 | 3));
                }
                Some(1) => ones += 1,
                _ => panic!("unexpected value"),
            }
        }
        assert_eq!((zeros, ones), (2, 2));
    }

    #[test]
    fn fuzzer_is_deterministic_per_seed() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, _) = keyed_system(&cfg, 3);
        let run = |seed| {
            let mut fz = RandomByzantine::new(cfg, pairs[0].clone(), seed);
            let mut fx = Effects::new(ProcessId(1), 4, SimTime::ZERO);
            fz.on_start(&mut fx);
            fx.sent()
                .iter()
                .map(|(to, m)| format!("{to}:{}", m.kind()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn fuzzer_covers_many_message_kinds() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, _) = keyed_system(&cfg, 3);
        let mut fz = RandomByzantine::new(cfg, pairs[0].clone(), 5);
        let mut kinds = std::collections::BTreeSet::new();
        let mut fx = Effects::new(ProcessId(1), 4, SimTime::ZERO);
        for _ in 0..100 {
            fz.on_timer(TimerId(0), &mut fx);
        }
        for (_, m) in fx.sent() {
            kinds.insert(m.kind());
        }
        assert!(kinds.len() >= 6, "only saw kinds {kinds:?}");
    }
}
