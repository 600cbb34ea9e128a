//! FaB Paxos (Martin & Alvisi, 2006) — the fast baseline the paper improves
//! on: two-step decisions with `n = 3f + 2t + 1` processes (`5f + 1` when
//! `t = f`), versus this paper's `3f + 2t − 1`.
//!
//! Structure mirrors the parameterized FaB protocol:
//!
//! * **fast path**: the leader proposes; processes ack to everyone; `n − t`
//!   matching acks decide — two message delays;
//! * **recovery**: on a view change the new leader collects `n − f` signed
//!   votes and adopts any value with `≥ f + t + 1` votes (across views);
//!   otherwise its own input. The quorum arithmetic (an `n − t` ack quorum
//!   and an `n − f` vote quorum intersect in `≥ f + (f+t+1)` processes)
//!   makes this safe exactly when `n ≥ 3f + 2t + 1` — FaB's bound.
//!   Proposals in views `> 1` carry the justifying vote set as their
//!   progress certificate (FaB's certificates are unbounded, one of the
//!   costs the target paper's CertAck round removes — experiment E7, the
//!   facade's `cert_growth` example).
//!
//! Presentation is simplified from the original (no proposer/acceptor/
//! learner role split — though FaB's lower bound section is exactly about
//! that split; see §4.4 of the target paper), but the quorum structure, the
//! resilience and the message-delay profile are FaB's.
//!
//! The view synchronizer, the view timer and the decide rule are
//! `fastbft_core::sync`'s, the ones this paper's replica runs.

use std::collections::{BTreeMap, BTreeSet};

use fastbft_core::sync::{decide, SyncStep, Synchronizer, ViewTimer, BASE_TIMEOUT};
use fastbft_crypto::{KeyDirectory, KeyPair, Signature};
use fastbft_sim::{Actor, Effects, SimMessage, TimerId};
use fastbft_types::wire::Encode;
use fastbft_types::{Config, ProcessId, Value, View};

// ---------------------------------------------------------------------------
// Signed statements (domain-separated from the core protocol's).
// ---------------------------------------------------------------------------

fn fab_propose_payload(x: &Value, v: View) -> Vec<u8> {
    let mut buf = vec![0x20];
    x.encode(&mut buf);
    v.encode(&mut buf);
    buf
}

fn fab_vote_payload(vote_bytes: &[u8], v: View) -> Vec<u8> {
    let mut buf = vec![0x21];
    vote_bytes.encode(&mut buf);
    v.encode(&mut buf);
    buf
}

// ---------------------------------------------------------------------------
// Votes and certificates
// ---------------------------------------------------------------------------

/// The non-nil part of a FaB vote: the latest accepted proposal.
#[derive(Clone, Debug, PartialEq)]
pub struct FabVoteData {
    /// Accepted value.
    pub value: Value,
    /// View it was accepted in.
    pub view: View,
    /// The proposal's progress certificate (vote set; `None` in view 1).
    pub cert: Option<Vec<FabSignedVote>>,
    /// The proposing leader's signature.
    pub leader_sig: Signature,
}
fastbft_types::impl_wire_struct!(FabVoteData {
    value,
    view,
    cert,
    leader_sig
});

/// A signed FaB vote bound to a destination view.
#[derive(Clone, Debug, PartialEq)]
pub struct FabSignedVote {
    /// The voter.
    pub voter: ProcessId,
    /// `None` = nil.
    pub vote: Option<FabVoteData>,
    /// Signature over the vote and destination view.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(FabSignedVote { voter, vote, sig });

impl FabSignedVote {
    fn sign(keys: &KeyPair, vote: Option<FabVoteData>, dest_view: View) -> Self {
        let sig = keys.sign(&fab_vote_payload(&vote.to_wire_bytes(), dest_view));
        FabSignedVote {
            voter: keys.id(),
            vote,
            sig,
        }
    }

    /// Validity: correct signature for the destination view; for non-nil
    /// votes, a valid leader signature and a valid (recursive) certificate.
    pub fn is_valid(&self, cfg: &Config, dir: &KeyDirectory, dest_view: View) -> bool {
        if self.sig.signer != self.voter {
            return false;
        }
        if !dir.verify(
            &fab_vote_payload(&self.vote.to_wire_bytes(), dest_view),
            &self.sig,
        ) {
            return false;
        }
        let Some(vd) = &self.vote else { return true };
        if vd.view >= dest_view || vd.view.0 < 1 {
            return false;
        }
        if vd.leader_sig.signer != cfg.leader(vd.view)
            || !dir.verify(&fab_propose_payload(&vd.value, vd.view), &vd.leader_sig)
        {
            return false;
        }
        verify_fab_cert(cfg, dir, &vd.value, vd.view, &vd.cert)
    }
}

/// Verifies a FaB progress certificate for `(x, v)`.
pub fn verify_fab_cert(
    cfg: &Config,
    dir: &KeyDirectory,
    x: &Value,
    v: View,
    cert: &Option<Vec<FabSignedVote>>,
) -> bool {
    match cert {
        None => v.is_first(),
        Some(votes) => {
            let mut map = BTreeMap::new();
            for sv in votes {
                if !sv.is_valid(cfg, dir, v) {
                    return false;
                }
                if map.insert(sv.voter, sv.clone()).is_some() {
                    return false;
                }
            }
            match fab_select(cfg, &map) {
                FabSelection::NeedMore => false,
                FabSelection::Constrained(y) => y == *x,
                FabSelection::Free => true,
            }
        }
    }
}

/// Outcome of FaB's recovery rule.
#[derive(Clone, Debug, PartialEq)]
pub enum FabSelection {
    /// Fewer than `n − f` votes so far.
    NeedMore,
    /// This value must be proposed.
    Constrained(Value),
    /// Any value may be proposed.
    Free,
}

/// FaB recovery: with `≥ n − f` valid votes, adopt the (unique) value with
/// `≥ f + t + 1` votes, else any value is safe.
pub fn fab_select(cfg: &Config, votes: &BTreeMap<ProcessId, FabSignedVote>) -> FabSelection {
    if votes.len() < cfg.vote_quorum() {
        return FabSelection::NeedMore;
    }
    // `Value`'s interior mutability is only its digest memo, which is
    // excluded from Eq/Ord/Hash — the key ordering cannot shift.
    #[allow(clippy::mutable_key_type)]
    let mut counts: BTreeMap<&Value, usize> = BTreeMap::new();
    for sv in votes.values() {
        if let Some(vd) = &sv.vote {
            *counts.entry(&vd.value).or_insert(0) += 1;
        }
    }
    let threshold = cfg.f() + cfg.t() + 1;
    for (value, count) in counts {
        if count >= threshold {
            return FabSelection::Constrained(value.clone());
        }
    }
    FabSelection::Free
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// FaB protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum FabMessage {
    /// Leader proposal (certificate attached for views > 1).
    Propose {
        /// Proposed value.
        value: Value,
        /// View.
        view: View,
        /// Progress certificate (vote set), `None` in view 1.
        cert: Option<Vec<FabSignedVote>>,
        /// Leader signature.
        sig: Signature,
    },
    /// All-to-all acknowledgment.
    Ack {
        /// Value.
        value: Value,
        /// View.
        view: View,
    },
    /// Vote sent to the new leader on view change.
    Vote {
        /// Destination view.
        view: View,
        /// The signed vote.
        vote: FabSignedVote,
    },
    /// View synchronizer wish.
    Wish {
        /// Wished view.
        view: View,
    },
}

fastbft_types::impl_wire_enum!(FabMessage {
    1 => Propose { value, view, cert, sig },
    2 => Ack { value, view },
    3 => Vote { view, vote },
    4 => Wish { view },
});

impl SimMessage for FabMessage {
    fn kind(&self) -> &'static str {
        match self {
            FabMessage::Propose { .. } => "propose",
            FabMessage::Ack { .. } => "ack",
            FabMessage::Vote { .. } => "vote",
            FabMessage::Wish { .. } => "wish",
        }
    }

    fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// A FaB Paxos replica (single-shot consensus).
///
/// Construct the configuration with `ProtocolKind::FabPaxos.config` so the
/// FaB bound `n ≥ 3f + 2t + 1` is enforced rather than this paper's
/// `3f + 2t − 1`.
#[derive(Debug)]
pub struct FabReplica {
    cfg: Config,
    keys: KeyPair,
    dir: KeyDirectory,
    id: ProcessId,
    input: Value,

    view: View,
    vote: Option<FabVoteData>,
    acked_view: Option<View>,
    decided: Option<Value>,

    // Tallies keyed by `(view, value)` and by view, as `core::Replica`'s were
    // until its per-view records (one place per sender): kept, because this
    // baseline runs in the simulator only and no peer can spray it.
    ack_tally: BTreeMap<(View, Value), BTreeSet<ProcessId>>,
    pending_proposes: BTreeMap<View, (Value, Option<Vec<FabSignedVote>>, Signature)>,
    votes_in: BTreeMap<View, BTreeMap<ProcessId, FabSignedVote>>,
    proposed: BTreeSet<View>,

    sync: Synchronizer,
    timer: ViewTimer,
}

impl FabReplica {
    /// Creates a FaB replica. Use `ProtocolKind::FabPaxos.config` for `cfg`.
    pub fn new(cfg: Config, keys: KeyPair, dir: KeyDirectory, input: Value) -> Self {
        let id = keys.id();
        FabReplica {
            id,
            cfg,
            keys,
            dir,
            input,
            view: View::FIRST,
            vote: None,
            acked_view: None,
            decided: None,
            ack_tally: BTreeMap::new(),
            pending_proposes: BTreeMap::new(),
            votes_in: BTreeMap::new(),
            proposed: BTreeSet::new(),
            sync: Synchronizer::new(id, cfg.f()),
            timer: ViewTimer::new(BASE_TIMEOUT),
        }
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<&Value> {
        self.decided.as_ref()
    }

    fn accept_proposal(
        &mut self,
        value: Value,
        cert: Option<Vec<FabSignedVote>>,
        sig: Signature,
        fx: &mut Effects<FabMessage>,
    ) {
        if self.acked_view == Some(self.view) {
            return;
        }
        self.acked_view = Some(self.view);
        self.vote = Some(FabVoteData {
            value: value.clone(),
            view: self.view,
            cert,
            leader_sig: sig,
        });
        fx.broadcast(FabMessage::Ack {
            value,
            view: self.view,
        });
    }

    fn on_propose(
        &mut self,
        from: ProcessId,
        value: Value,
        view: View,
        cert: Option<Vec<FabSignedVote>>,
        sig: Signature,
        fx: &mut Effects<FabMessage>,
    ) {
        if from != self.cfg.leader(view) || sig.signer != from {
            return;
        }
        if !self.dir.verify(&fab_propose_payload(&value, view), &sig) {
            return;
        }
        if !verify_fab_cert(&self.cfg, &self.dir, &value, view, &cert) {
            return;
        }
        if view > self.view {
            self.pending_proposes
                .entry(view)
                .or_insert((value, cert, sig));
        } else if view == self.view {
            self.accept_proposal(value, cert, sig, fx);
        }
    }

    fn on_ack(&mut self, from: ProcessId, value: Value, view: View, fx: &mut Effects<FabMessage>) {
        let senders = self.ack_tally.entry((view, value.clone())).or_default();
        senders.insert(from);
        if senders.len() >= self.cfg.fast_quorum() {
            decide(&mut self.decided, &value, fx);
        }
    }

    fn on_vote(
        &mut self,
        from: ProcessId,
        view: View,
        vote: FabSignedVote,
        fx: &mut Effects<FabMessage>,
    ) {
        if vote.voter != from || self.cfg.leader(view) != self.id {
            return;
        }
        if !vote.is_valid(&self.cfg, &self.dir, view) {
            return;
        }
        self.votes_in.entry(view).or_default().insert(from, vote);
        self.try_lead(fx);
    }

    fn try_lead(&mut self, fx: &mut Effects<FabMessage>) {
        let view = self.view;
        if self.cfg.leader(view) != self.id || self.proposed.contains(&view) || view.is_first() {
            return;
        }
        let votes = self.votes_in.entry(view).or_default();
        let value = match fab_select(&self.cfg, votes) {
            FabSelection::NeedMore => return,
            FabSelection::Constrained(x) => x,
            FabSelection::Free => self.input.clone(),
        };
        self.proposed.insert(view);
        let cert: Vec<FabSignedVote> = votes.values().cloned().collect();
        let sig = self.keys.sign(&fab_propose_payload(&value, view));
        fx.broadcast(FabMessage::Propose {
            value,
            view,
            cert: Some(cert),
            sig,
        });
    }

    fn enter_view(&mut self, v: View, fx: &mut Effects<FabMessage>) {
        debug_assert!(v > self.view);
        self.view = v;
        self.timer.arm(v, fx);
        let leader = self.cfg.leader(v);
        let signed = FabSignedVote::sign(&self.keys, self.vote.clone(), v);
        if leader == self.id {
            self.votes_in.entry(v).or_default().insert(self.id, signed);
            self.try_lead(fx);
        } else {
            fx.send(
                leader,
                FabMessage::Vote {
                    view: v,
                    vote: signed,
                },
            );
        }
        if let Some((value, cert, sig)) = self.pending_proposes.remove(&v) {
            self.accept_proposal(value, cert, sig, fx);
        }
        self.pending_proposes = self.pending_proposes.split_off(&v);
    }

    /// Carries out what the synchronizer asked for, in its order.
    fn synchronize(&mut self, steps: Vec<SyncStep>, fx: &mut Effects<FabMessage>) {
        for step in steps {
            match step {
                SyncStep::Wish(view) => fx.broadcast_others(FabMessage::Wish { view }),
                SyncStep::Enter(view) => self.enter_view(view, fx),
            }
        }
    }
}

impl Actor<FabMessage> for FabReplica {
    fn on_start(&mut self, fx: &mut Effects<FabMessage>) {
        self.timer.arm(self.view, fx);
        if self.cfg.leader(View::FIRST) == self.id {
            let value = self.input.clone();
            let sig = self.keys.sign(&fab_propose_payload(&value, View::FIRST));
            self.proposed.insert(View::FIRST);
            fx.broadcast(FabMessage::Propose {
                value,
                view: View::FIRST,
                cert: None,
                sig,
            });
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: FabMessage, fx: &mut Effects<FabMessage>) {
        match msg {
            FabMessage::Propose {
                value,
                view,
                cert,
                sig,
            } => self.on_propose(from, value, view, cert, sig, fx),
            FabMessage::Ack { value, view } => self.on_ack(from, value, view, fx),
            FabMessage::Vote { view, vote } => self.on_vote(from, view, vote, fx),
            FabMessage::Wish { view } => {
                let steps = self.sync.on_wish(from, view, self.view);
                self.synchronize(steps, fx);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<FabMessage>) {
        if !self.timer.is_current(timer) || self.decided.is_some() {
            return;
        }
        let steps = self.sync.on_timeout(self.view);
        self.synchronize(steps, fx);
        self.timer.arm(self.view, fx);
    }

    fn label(&self) -> &'static str {
        "fab-replica"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::ProtocolKind;

    #[test]
    fn fab_select_thresholds() {
        let cfg = ProtocolKind::FabPaxos.config(6, 1, 1).unwrap();
        let (pairs, _) = KeyDirectory::generate(6, 8);
        let mut votes = BTreeMap::new();
        // 4 nil votes: need n − f = 5.
        for p in &pairs[..4] {
            votes.insert(p.id(), FabSignedVote::sign(p, None, View(2)));
        }
        assert_eq!(fab_select(&cfg, &votes), FabSelection::NeedMore);
        votes.insert(pairs[4].id(), FabSignedVote::sign(&pairs[4], None, View(2)));
        assert_eq!(fab_select(&cfg, &votes), FabSelection::Free);
        // f + t + 1 = 3 votes for one value pins it.
        let x = Value::from_u64(9);
        for p in &pairs[..3] {
            let vd = FabVoteData {
                value: x.clone(),
                view: View::FIRST,
                cert: None,
                leader_sig: pairs[1].sign(&fab_propose_payload(&x, View::FIRST)),
            };
            votes.insert(p.id(), FabSignedVote::sign(p, Some(vd), View(2)));
        }
        assert_eq!(fab_select(&cfg, &votes), FabSelection::Constrained(x));
    }

    #[test]
    fn vote_validity_checks() {
        let cfg = ProtocolKind::FabPaxos.config(6, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(6, 8);
        let x = Value::from_u64(9);
        let leader1 = cfg.leader(View::FIRST);
        let good = FabVoteData {
            value: x.clone(),
            view: View::FIRST,
            cert: None,
            leader_sig: pairs[leader1.index()].sign(&fab_propose_payload(&x, View::FIRST)),
        };
        let sv = FabSignedVote::sign(&pairs[0], Some(good.clone()), View(2));
        assert!(sv.is_valid(&cfg, &dir, View(2)));
        assert!(!sv.is_valid(&cfg, &dir, View(3)), "view replay rejected");
        // Wrong leader signature.
        let bad = FabVoteData {
            leader_sig: pairs[3].sign(&fab_propose_payload(&x, View::FIRST)),
            ..good
        };
        let sv = FabSignedVote::sign(&pairs[0], Some(bad), View(2));
        assert!(!sv.is_valid(&cfg, &dir, View(2)));
    }

    #[test]
    fn messages_roundtrip() {
        let (pairs, _) = KeyDirectory::generate(2, 1);
        let x = Value::from_u64(2);
        let sig = pairs[0].sign(b"m");
        let vote = FabSignedVote::sign(&pairs[1], None, View(2));
        for m in [
            FabMessage::Propose {
                value: x.clone(),
                view: View(2),
                cert: Some(vec![vote.clone()]),
                sig: sig.clone(),
            },
            FabMessage::Ack {
                value: x,
                view: View(1),
            },
            FabMessage::Vote {
                view: View(2),
                vote,
            },
            FabMessage::Wish { view: View(3) },
        ] {
            fastbft_types::wire::roundtrip(&m);
        }
    }

    #[test]
    fn cert_growth_is_unbounded_in_views() {
        // The E7 story: FaB certificates embed the previous vote set, so
        // their size grows with the chain of view changes. Simulate silent
        // leaders for a few views and measure the propose sizes.
        let cfg = ProtocolKind::FabPaxos.config(6, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(6, 8);
        let x = Value::from_u64(1);
        // View-1 propose: no cert.
        let v1 = FabVoteData {
            value: x.clone(),
            view: View::FIRST,
            cert: None,
            leader_sig: pairs[cfg.leader(View::FIRST).index()]
                .sign(&fab_propose_payload(&x, View::FIRST)),
        };
        let votes2: Vec<FabSignedVote> = pairs[..5]
            .iter()
            .map(|p| FabSignedVote::sign(p, Some(v1.clone()), View(2)))
            .collect();
        assert!(verify_fab_cert(
            &cfg,
            &dir,
            &x,
            View(2),
            &Some(votes2.clone())
        ));
        let v2 = FabVoteData {
            value: x.clone(),
            view: View(2),
            cert: Some(votes2.clone()),
            leader_sig: pairs[cfg.leader(View(2)).index()].sign(&fab_propose_payload(&x, View(2))),
        };
        let votes3: Vec<FabSignedVote> = pairs[..5]
            .iter()
            .map(|p| FabSignedVote::sign(p, Some(v2.clone()), View(3)))
            .collect();
        assert!(verify_fab_cert(
            &cfg,
            &dir,
            &x,
            View(3),
            &Some(votes3.clone())
        ));
        let size2 = votes2.to_wire_bytes().len();
        let size3 = votes3.to_wire_bytes().len();
        assert!(
            size3 > 4 * size2,
            "nested certificates must grow: view2 {size2}B, view3 {size3}B"
        );
    }
}
