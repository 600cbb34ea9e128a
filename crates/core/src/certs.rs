//! Votes, progress certificates and commit certificates.
//!
//! * [`VoteData`] / [`Vote`] — the paper's `vote_q = (x, u, σ, τ)` (§3.2),
//!   extended with the latest commit certificate (Appendix A.2);
//! * [`SignedVote`] — a vote plus `φ_vote = sign_q((vote, vote_q, v))`,
//!   bound to the destination view `v`;
//! * [`ProgressCert`] — the paper's `σ`: proof that a value is safe in a
//!   view, in the one form the paper contributes: `f + 1` CertAck
//!   signatures, whatever the view. The form §3.2 discusses and rejects —
//!   the whole vote set, every vote embedding an earlier certificate — is
//!   not a type here: it would make the wire types recursive (see
//!   ARCHITECTURE, "Wire types and decode depth");
//! * [`CommitCert`] — the paper's slow-path commit certificate:
//!   `⌈(n+f+1)/2⌉` signature shares over `(ack, x, v)`.

use fastbft_crypto::{KeyDirectory, KeyPair, Signature, SignatureSet};
use fastbft_obs::Metrics;
use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::{Config, ProcessId, Value, View};

use crate::payload::{ack_payload, certack_payload, propose_payload, vote_payload};

/// One signature checked through the directory and counted:
/// `sig_memo_miss_total` is every signature check that ran, inside a
/// certificate or outside one.
pub(crate) fn verify_counted(
    dir: &KeyDirectory,
    metrics: &Metrics,
    statement: &[u8],
    sig: &Signature,
) -> bool {
    metrics.sig_memo_miss_total.inc();
    dir.verify(statement, sig)
}

/// One signature certificate checked: the walk over `sigs`, with the
/// certificate and every signature check the walk ran counted.
fn verify_quorum(
    sigs: &SignatureSet,
    statement: &[u8],
    dir: &KeyDirectory,
    threshold: usize,
    metrics: &Metrics,
) -> bool {
    let mut checks = 0;
    let ok = sigs.verify(statement, dir, threshold, &mut checks);
    metrics.cert_cache_miss_total.inc();
    metrics.sig_memo_miss_total.add(checks);
    ok
}

/// A progress certificate: transferable proof that value `x` is safe in
/// view `v` (no other value was or will be decided in any view `< v`).
///
/// Wire tags 0 and 1. Tag 2 — the whole-vote-set form, which only an
/// ablation mode ever emitted — stays unassigned: a certificate holds
/// signatures, never votes, so decoding one cannot re-enter itself.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgressCert {
    /// The trivial certificate for view 1, where any value is safe (`⊥`).
    Genesis,
    /// `f + 1` signatures over `(CertAck, x, v)` — at least one is from a
    /// correct process that re-ran the selection algorithm (§3.2).
    Bounded(SignatureSet),
}

impl ProgressCert {
    /// Verifies that this certificate proves `x` safe in `v`. Every
    /// signature is checked, every time; the receiver's `metrics` count the
    /// certificate and the checks that ran.
    pub fn verify(
        &self,
        cfg: &Config,
        dir: &KeyDirectory,
        x: &Value,
        v: View,
        metrics: &Metrics,
    ) -> bool {
        match self {
            ProgressCert::Genesis => v.is_first(),
            ProgressCert::Bounded(sigs) => verify_quorum(
                sigs,
                &certack_payload(x, v),
                dir,
                cfg.cert_quorum(),
                metrics,
            ),
        }
    }

    /// Encoded size in bytes (the E7 metric).
    pub fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

impl Encode for ProgressCert {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ProgressCert::Genesis => buf.push(0),
            ProgressCert::Bounded(sigs) => {
                buf.push(1);
                sigs.encode(buf);
            }
        }
    }
}

impl Decode for ProgressCert {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(ProgressCert::Genesis),
            1 => Ok(ProgressCert::Bounded(SignatureSet::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                tag,
                context: "ProgressCert",
            }),
        }
    }
}

/// A commit certificate: `⌈(n+f+1)/2⌉` signature shares over `(ack, x, v)`
/// (Appendix A). Holding one proves no other value can be decided in `v`.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitCert {
    /// The committed value.
    pub value: Value,
    /// The view the shares were produced in.
    pub view: View,
    /// The signature shares.
    pub sigs: SignatureSet,
}

impl CommitCert {
    /// Verifies the certificate against the slow-path quorum; `metrics`
    /// as for [`ProgressCert::verify`].
    pub fn verify(&self, cfg: &Config, dir: &KeyDirectory, metrics: &Metrics) -> bool {
        verify_quorum(
            &self.sigs,
            &ack_payload(&self.value, self.view),
            dir,
            cfg.slow_quorum(),
            metrics,
        )
    }

    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

fastbft_types::impl_wire_struct!(CommitCert { value, view, sigs });

/// The paper's `vote_q = (x, u, σ, τ)`, plus the piggybacked latest commit
/// certificate of the generalized protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct VoteData {
    /// The value this process last acknowledged (`x`).
    pub value: Value,
    /// The view in which it acknowledged (`u`).
    pub view: View,
    /// The progress certificate from the propose it acknowledged (`σ`).
    pub progress_cert: ProgressCert,
    /// `τ = sign_{leader(u)}((propose, x, u))`.
    pub leader_sig: Signature,
    /// The most recent commit certificate this process has collected, if any
    /// (Appendix A.2: "each process will add to their vote the latest commit
    /// certificate that they have collected").
    pub commit_cert: Option<CommitCert>,
}

fastbft_types::impl_wire_struct!(VoteData {
    value,
    view,
    progress_cert,
    leader_sig,
    commit_cert
});

/// A vote: `nil` ([`None`]) until the process first acknowledges a proposal,
/// then the data of the latest acknowledged proposal.
pub type Vote = Option<VoteData>;

/// A vote signed for a specific destination view:
/// `(vote_q, φ_vote = sign_q((vote, vote_q, v)))`.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedVote {
    /// The voting process.
    pub voter: ProcessId,
    /// Its vote.
    pub vote: Vote,
    /// `φ_vote`, binding the vote to the destination view.
    pub sig: Signature,
}

fastbft_types::impl_wire_struct!(SignedVote { voter, vote, sig });

impl SignedVote {
    /// Creates and signs a vote destined for the leader of `dest_view`.
    pub fn sign(keypair: &KeyPair, vote: Vote, dest_view: View) -> Self {
        let payload = vote_payload(&vote.to_wire_bytes(), dest_view);
        SignedVote {
            voter: keypair.id(),
            vote,
            sig: keypair.sign(&payload),
        }
    }

    /// Full validity check (the paper's "valid vote", §3.2): the vote
    /// signature is valid for `dest_view`, and — for non-nil votes — the
    /// embedded view precedes `dest_view`, `τ` is a valid signature by
    /// `leader(u)` over `(propose, x, u)`, the progress certificate proves
    /// `x` safe in `u`, and any piggybacked commit certificate is valid and
    /// no newer than `u`. `metrics` as for [`ProgressCert::verify`].
    pub fn is_valid(
        &self,
        cfg: &Config,
        dir: &KeyDirectory,
        dest_view: View,
        metrics: &Metrics,
    ) -> bool {
        if self.sig.signer != self.voter {
            return false;
        }
        let payload = vote_payload(&self.vote.to_wire_bytes(), dest_view);
        if !verify_counted(dir, metrics, &payload, &self.sig) {
            return false;
        }
        let Some(vd) = &self.vote else {
            return true; // nil votes are valid by definition
        };
        if vd.view >= dest_view || vd.view.0 < 1 {
            return false;
        }
        if vd.leader_sig.signer != cfg.leader(vd.view) {
            return false;
        }
        let tau = propose_payload(&vd.value, vd.view);
        if !verify_counted(dir, metrics, &tau, &vd.leader_sig) {
            return false;
        }
        if !vd
            .progress_cert
            .verify(cfg, dir, &vd.value, vd.view, metrics)
        {
            return false;
        }
        if let Some(cc) = &vd.commit_cert {
            if cc.view > vd.view || !cc.verify(cfg, dir, metrics) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::wire::roundtrip;

    fn setup() -> (Config, Vec<KeyPair>, KeyDirectory) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(4, 1);
        (cfg, pairs, dir)
    }

    /// A valid propose signature for view 1 by its leader (p2 under the
    /// paper's leader map).
    fn tau(pairs: &[KeyPair], cfg: &Config, x: &Value, v: View) -> Signature {
        pairs[cfg.leader(v).index()].sign(&propose_payload(x, v))
    }

    #[test]
    fn genesis_cert_only_valid_in_view_one() {
        let (cfg, _pairs, dir) = setup();
        let x = Value::from_u64(1);
        assert!(ProgressCert::Genesis.verify(&cfg, &dir, &x, View(1), &Metrics::new()));
        assert!(!ProgressCert::Genesis.verify(&cfg, &dir, &x, View(2), &Metrics::new()));
    }

    #[test]
    fn bounded_cert_requires_f_plus_one_signers() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(1);
        let v = View(3);
        let payload = certack_payload(&x, v);
        let one: SignatureSet = [pairs[0].sign(&payload)].into_iter().collect();
        assert!(!ProgressCert::Bounded(one).verify(&cfg, &dir, &x, v, &Metrics::new()));
        let two: SignatureSet = pairs[..2].iter().map(|p| p.sign(&payload)).collect();
        assert!(ProgressCert::Bounded(two.clone()).verify(&cfg, &dir, &x, v, &Metrics::new()));
        // …nor does the same evidence certify x in another view: the walk
        // stops at, and counts, its first signature.
        let m = Metrics::new();
        assert!(!ProgressCert::Bounded(two).verify(&cfg, &dir, &x, View(4), &m));
        assert_eq!(m.sig_memo_miss_total.get(), 1);
        assert_eq!(m.cert_cache_miss_total.get(), 1);
        // Signatures over the wrong value do not certify x.
        let wrong: SignatureSet = pairs[..2]
            .iter()
            .map(|p| p.sign(&certack_payload(&Value::from_u64(2), v)))
            .collect();
        assert!(!ProgressCert::Bounded(wrong).verify(&cfg, &dir, &x, v, &Metrics::new()));
    }

    #[test]
    fn commit_cert_requires_slow_quorum() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(5);
        let v = View(1);
        let payload = ack_payload(&x, v);
        // slow quorum for (4,1,1) is ceil(6/2) = 3.
        let cc = CommitCert {
            value: x.clone(),
            view: v,
            sigs: pairs[..3].iter().map(|p| p.sign(&payload)).collect(),
        };
        assert!(cc.verify(&cfg, &dir, &Metrics::new()));
        let small = CommitCert {
            value: x.clone(),
            view: v,
            sigs: pairs[..2].iter().map(|p| p.sign(&payload)).collect(),
        };
        assert!(!small.verify(&cfg, &dir, &Metrics::new()));
    }

    #[test]
    fn nil_votes_validate_and_roundtrip() {
        let (cfg, pairs, dir) = setup();
        let sv = SignedVote::sign(&pairs[2], None, View(4));
        assert!(sv.is_valid(&cfg, &dir, View(4), &Metrics::new()));
        // …but not for a different destination view (replay defence).
        assert!(!sv.is_valid(&cfg, &dir, View(5), &Metrics::new()));
        roundtrip(&sv);
    }

    #[test]
    fn real_vote_validates() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        let vd = VoteData {
            value: x.clone(),
            view: View(1),
            progress_cert: ProgressCert::Genesis,
            leader_sig: tau(&pairs, &cfg, &x, View(1)),
            commit_cert: None,
        };
        let sv = SignedVote::sign(&pairs[0], Some(vd), View(2));
        assert!(sv.is_valid(&cfg, &dir, View(2), &Metrics::new()));
        roundtrip(&sv);
    }

    #[test]
    fn vote_with_forged_leader_sig_rejected() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        // p3 signs instead of leader(1) = p2.
        let vd = VoteData {
            value: x.clone(),
            view: View(1),
            progress_cert: ProgressCert::Genesis,
            leader_sig: pairs[2].sign(&propose_payload(&x, View(1))),
            commit_cert: None,
        };
        let sv = SignedVote::sign(&pairs[0], Some(vd), View(2));
        assert!(!sv.is_valid(&cfg, &dir, View(2), &Metrics::new()));
    }

    #[test]
    fn vote_view_must_precede_destination() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        let vd = VoteData {
            value: x.clone(),
            view: View(3),
            progress_cert: ProgressCert::Genesis, // also invalid for view 3
            leader_sig: tau(&pairs, &cfg, &x, View(3)),
            commit_cert: None,
        };
        // view 3 not < dest view 3
        let sv = SignedVote::sign(&pairs[0], Some(vd), View(3));
        assert!(!sv.is_valid(&cfg, &dir, View(3), &Metrics::new()));
    }

    #[test]
    fn vote_with_stale_commit_cert_ok_future_cc_rejected() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        let cc = CommitCert {
            value: x.clone(),
            view: View(1),
            sigs: pairs[..3]
                .iter()
                .map(|p| p.sign(&ack_payload(&x, View(1))))
                .collect(),
        };
        let make = |cc_view: View| {
            let mut cc = cc.clone();
            cc.view = cc_view;
            VoteData {
                value: x.clone(),
                view: View(1),
                progress_cert: ProgressCert::Genesis,
                leader_sig: tau(&pairs, &cfg, &x, View(1)),
                commit_cert: Some(cc),
            }
        };
        let good = SignedVote::sign(&pairs[0], Some(make(View(1))), View(2));
        assert!(good.is_valid(&cfg, &dir, View(2), &Metrics::new()));
        // What a receiver's counters see, again on every call: φ_vote, τ
        // and the nested certificate's three shares.
        let m = Metrics::new();
        for round in 1..=2 {
            assert!(good.is_valid(&cfg, &dir, View(2), &m));
            assert_eq!(m.sig_memo_miss_total.get(), round * 5);
            assert_eq!(m.cert_cache_miss_total.get(), round);
        }
        // cc.view > vote.view is malformed.
        let bad = SignedVote::sign(&pairs[0], Some(make(View(2))), View(3));
        assert!(!bad.is_valid(&cfg, &dir, View(3), &Metrics::new()));
    }

    #[test]
    fn tampered_vote_rejected() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        let vd = VoteData {
            value: x.clone(),
            view: View(1),
            progress_cert: ProgressCert::Genesis,
            leader_sig: tau(&pairs, &cfg, &x, View(1)),
            commit_cert: None,
        };
        let mut sv = SignedVote::sign(&pairs[0], Some(vd), View(2));
        // Tamper with the embedded value after signing.
        if let Some(vd) = &mut sv.vote {
            vd.value = Value::from_u64(10);
        }
        assert!(!sv.is_valid(&cfg, &dir, View(2), &Metrics::new()));
        // Claiming someone else's voter id also fails.
        let sv2 = SignedVote {
            voter: ProcessId(3),
            ..SignedVote::sign(&pairs[0], None, View(2))
        };
        assert!(!sv2.is_valid(&cfg, &dir, View(2), &Metrics::new()));
    }

    /// Same (view, value, signer set) as a certificate that verified, but
    /// one forged tag: rejected, on the instance and on a decoded copy.
    #[test]
    fn tampered_commit_cert_evidence_is_rejected() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(5);
        let payload = ack_payload(&x, View(1));
        let cc = CommitCert {
            value: x.clone(),
            view: View(1),
            sigs: pairs[..3].iter().map(|p| p.sign(&payload)).collect(),
        };
        assert!(cc.verify(&cfg, &dir, &Metrics::new()));
        let mut forged = cc.clone();
        forged.sigs = cc
            .sigs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    Signature::from_parts(s.signer, [0u8; 32])
                } else {
                    s.clone()
                }
            })
            .collect();
        assert!(!forged.verify(&cfg, &dir, &Metrics::new()));
        let fresh: CommitCert = fastbft_types::wire::from_bytes(&forged.to_wire_bytes()).unwrap();
        assert!(!fresh.verify(&cfg, &dir, &Metrics::new()));
        assert!(
            cc.verify(&cfg, &dir, &Metrics::new()),
            "the original still verifies"
        );
    }

    #[test]
    fn progress_cert_wire_roundtrips() {
        let (_, pairs, _) = setup();
        roundtrip(&ProgressCert::Genesis);
        let set: SignatureSet = pairs[..2].iter().map(|p| p.sign(b"s")).collect();
        roundtrip(&ProgressCert::Bounded(set));
    }

    #[test]
    fn decode_rejects_bad_tag() {
        // 2 was the whole-vote-set certificate's tag; it stays unassigned,
        // so no wire type can contain itself.
        for tag in [2, 3, 99] {
            assert_eq!(
                fastbft_types::wire::from_bytes::<ProgressCert>(&[tag]),
                Err(WireError::InvalidTag {
                    tag,
                    context: "ProgressCert"
                })
            );
        }
    }

    #[test]
    fn bounded_cert_size_is_constant_in_view() {
        let (_, pairs, _) = setup();
        let x = Value::from_u64(1);
        let size_at = |v: View| {
            let set: SignatureSet = pairs[..2]
                .iter()
                .map(|p| p.sign(&certack_payload(&x, v)))
                .collect();
            ProgressCert::Bounded(set).wire_size()
        };
        assert_eq!(size_at(View(2)), size_at(View(2_000_000)));
    }
}
