//! Protocol messages.
//!
//! One message type per arrow in the paper's figures:
//!
//! * [`ProposeMsg`] / [`AckMsg`] — the fast path (Figure 1a);
//! * [`AckMsg`]'s share / [`CommitMsg`] — the slow path (Figure 5);
//! * [`VoteMsg`] / [`CertRequestMsg`] / [`CertAckMsg`] — the view change
//!   (Figure 1b);
//! * [`WishMsg`] — the view synchronizer (the paper assumes one from the
//!   literature; ours is a wish/enter round synchronizer).

use fastbft_crypto::Signature;
use fastbft_sim::SimMessage;
use fastbft_types::wire::Encode;
use fastbft_types::{Value, View};

use crate::certs::{CommitCert, ProgressCert, SignedVote};

/// `propose(x̂, v, σ̂, τ̂)`: the leader of `v` proposes `x̂` with progress
/// certificate `σ̂` and its signature `τ̂` over `(propose, x̂, v)`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProposeMsg {
    /// The proposed value `x̂`.
    pub value: Value,
    /// The view `v`.
    pub view: View,
    /// The progress certificate `σ̂` (Genesis in view 1).
    pub cert: ProgressCert,
    /// `τ̂ = sign_{leader(v)}((propose, x̂, v))`.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(ProposeMsg {
    value,
    view,
    cert,
    sig
});

/// `ack(x̂, v)` with the slow-path share riding along: sent to every
/// process after accepting a proposal; `n − t` acks decide the value.
///
/// Appendix A.1 has the signature share *accompany* each ack, and so it
/// does here: `φ_ack` signs 49 fixed bytes (digest-carried statements), so
/// signing never delays the fast path and the value's bytes cross the wire
/// once per ack. There is no share-only message (wire tag 3 is unassigned).
#[derive(Clone, Debug, PartialEq)]
pub struct AckMsg {
    /// The acknowledged value.
    pub value: Value,
    /// The view.
    pub view: View,
    /// `φ_ack = sign_q((ack, x, v))`, present when the sender runs the
    /// slow path.
    pub share: Option<Signature>,
}
fastbft_types::impl_wire_struct!(AckMsg { value, view, share });

/// `Commit(x, v, cc)`: broadcast once a commit certificate is assembled;
/// `⌈(n+f+1)/2⌉` of these decide the value (slow path).
#[derive(Clone, Debug, PartialEq)]
pub struct CommitMsg {
    /// The commit certificate (carries value and view).
    pub cert: CommitCert,
}
fastbft_types::impl_wire_struct!(CommitMsg { cert });

/// `vote(vote_q, φ_vote)`: sent to the leader of the new view on every view
/// change.
#[derive(Clone, Debug, PartialEq)]
pub struct VoteMsg {
    /// The destination view.
    pub view: View,
    /// The signed vote.
    pub vote: SignedVote,
}
fastbft_types::impl_wire_struct!(VoteMsg { view, vote });

/// `CertReq(x̂, votes)`: the leader asks processes to confirm its selection
/// of `x̂` by re-running the selection algorithm on `votes`.
#[derive(Clone, Debug, PartialEq)]
pub struct CertRequestMsg {
    /// The view being certified.
    pub view: View,
    /// The selected value `x̂`.
    pub value: Value,
    /// The votes the selection ran over.
    pub votes: Vec<SignedVote>,
}
fastbft_types::impl_wire_struct!(CertRequestMsg { view, value, votes });

/// `CertAck(φ_ca)`: a signed confirmation that the leader's selection was
/// correct; `f + 1` of these form the progress certificate.
#[derive(Clone, Debug, PartialEq)]
pub struct CertAckMsg {
    /// The view being certified.
    pub view: View,
    /// The certified value.
    pub value: Value,
    /// `φ_ca = sign_q((CertAck, x̂, v))`.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(CertAckMsg { view, value, sig });

/// View-synchronizer wish: "I want to enter view ≥ v".
#[derive(Clone, Debug, PartialEq)]
pub struct WishMsg {
    /// The wished-for view.
    pub view: View,
}
fastbft_types::impl_wire_struct!(WishMsg { view });

/// Every protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Fast path: leader proposal.
    Propose(ProposeMsg),
    /// Fast path: acknowledgment (carries the slow path's signature share).
    Ack(AckMsg),
    /// Slow path: commit certificate broadcast.
    Commit(CommitMsg),
    /// View change: vote.
    Vote(VoteMsg),
    /// View change: certification request.
    CertRequest(CertRequestMsg),
    /// View change: certification confirmation.
    CertAck(CertAckMsg),
    /// View synchronizer wish.
    Wish(WishMsg),
}

fastbft_types::impl_wire_enum!(Message {
    1 => Propose(ProposeMsg),
    2 => Ack(AckMsg),
    4 => Commit(CommitMsg),
    5 => Vote(VoteMsg),
    6 => CertRequest(CertRequestMsg),
    7 => CertAck(CertAckMsg),
    8 => Wish(WishMsg),
});

/// A message's kind: what the trace names ([`SimMessage::kind`]) and what a
/// Byzantine move acts on ([`crate::byzantine::Move`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// [`Message::Propose`].
    Propose,
    /// [`Message::Ack`].
    Ack,
    /// [`Message::Commit`].
    Commit,
    /// [`Message::Vote`].
    Vote,
    /// [`Message::CertRequest`].
    CertRequest,
    /// [`Message::CertAck`].
    CertAck,
    /// [`Message::Wish`].
    Wish,
}

impl Kind {
    /// Every kind, in wire-tag order.
    pub const ALL: [Kind; 7] = [
        Kind::Propose,
        Kind::Ack,
        Kind::Commit,
        Kind::Vote,
        Kind::CertRequest,
        Kind::CertAck,
        Kind::Wish,
    ];
}

impl Message {
    /// The message's kind, and the view it belongs to: the one
    /// classification of a message.
    pub fn kind_and_view(&self) -> (Kind, View) {
        match self {
            Message::Propose(p) => (Kind::Propose, p.view),
            Message::Ack(a) => (Kind::Ack, a.view),
            Message::Commit(c) => (Kind::Commit, c.cert.view),
            Message::Vote(v) => (Kind::Vote, v.view),
            Message::CertRequest(r) => (Kind::CertRequest, r.view),
            Message::CertAck(a) => (Kind::CertAck, a.view),
            Message::Wish(w) => (Kind::Wish, w.view),
        }
    }
}

impl SimMessage for Message {
    fn kind(&self) -> &'static str {
        match self.kind_and_view().0 {
            Kind::Propose => "propose",
            Kind::Ack => "ack",
            Kind::Commit => "Commit",
            Kind::Vote => "vote",
            Kind::CertRequest => "CertReq",
            Kind::CertAck => "CertAck",
            Kind::Wish => "wish",
        }
    }

    fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_crypto::KeyDirectory;
    use fastbft_types::wire::{roundtrip, WireError};

    #[test]
    fn all_messages_roundtrip() {
        let (pairs, _) = KeyDirectory::generate(4, 2);
        let x = Value::from_u64(7);
        let v = View(3);
        let sig = pairs[0].sign(b"any");
        let sv = SignedVote::sign(&pairs[1], None, v, 0);

        let msgs = vec![
            Message::Propose(ProposeMsg {
                value: x.clone(),
                view: v,
                cert: ProgressCert::Genesis,
                sig: sig.clone(),
            }),
            Message::Ack(AckMsg {
                value: x.clone(),
                view: v,
                share: None,
            }),
            Message::Ack(AckMsg {
                value: x.clone(),
                view: v,
                share: Some(sig.clone()),
            }),
            Message::Commit(CommitMsg {
                cert: CommitCert {
                    value: x.clone(),
                    view: v,
                    sigs: [sig.clone()].into_iter().collect(),
                },
            }),
            Message::Vote(VoteMsg {
                view: v,
                vote: sv.clone(),
            }),
            Message::CertRequest(CertRequestMsg {
                view: v,
                value: x.clone(),
                votes: vec![sv],
            }),
            Message::CertAck(CertAckMsg {
                view: v,
                value: x,
                sig,
            }),
            Message::Wish(WishMsg { view: v }),
        ];
        for m in &msgs {
            roundtrip(m);
            assert!(!m.kind().is_empty());
            assert!(m.wire_size() > 0);
            assert_eq!(m.wire_size(), m.to_wire_bytes().len());
        }
    }

    #[test]
    fn kinds_are_distinct() {
        let (pairs, _) = KeyDirectory::generate(2, 2);
        let x = Value::from_u64(1);
        let sig = pairs[0].sign(b"s");
        let kinds = [
            Message::Ack(AckMsg {
                value: x.clone(),
                view: View(1),
                share: None,
            })
            .kind(),
            Message::Wish(WishMsg { view: View(1) }).kind(),
            Message::CertAck(CertAckMsg {
                view: View(1),
                value: x,
                sig,
            })
            .kind(),
        ];
        assert_eq!(
            kinds.len(),
            kinds
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }

    #[test]
    fn decode_rejects_bad_tag() {
        // 3 was the standalone signature share's tag; it stays unassigned.
        for tag in [3, 99] {
            assert!(matches!(
                fastbft_types::wire::from_bytes::<Message>(&[tag]),
                Err(WireError::InvalidTag { tag: t, .. }) if t == tag
            ));
        }
    }
}
