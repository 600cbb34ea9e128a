//! Speculative out-of-band verification of inbound protocol messages.
//!
//! The runtime's verify pool (see `fastbft_runtime`) runs worker threads
//! that check signatures *before* a message reaches the replica's event
//! loop. [`Preverifier`] is the protocol-aware piece: given a decoded
//! [`Message`], it performs exactly the signature and certificate checks
//! the replica will later perform itself — as **pure functions of the
//! message** — so that the replica's own checks become memo hits instead
//! of HMAC computations.
//!
//! Nothing here makes accept/reject decisions; the replica remains the
//! sole authority and re-runs every check through its normal paths. The
//! preverifier only *warms caches*, through two layers that PR 5 put in
//! place:
//!
//! * **instance memos** — `SignatureSet`'s per-signer memo and the value
//!   digest `OnceLock` live inside the delivered message instance, so
//!   verifying the very instance the replica will receive transfers the
//!   work directly;
//! * **the shared directory memo** — `KeyDirectory::enable_shared_memo`
//!   (turned on by [`Preverifier::new`]) memoizes successful
//!   `(signer, statement, tag)` triples across clones and threads, so
//!   bare-`Signature` checks (propose/ack/certack shares) transfer too.
//!
//! Consequently a preverified message that is *invalid* is simply not
//! memoized anywhere and the replica rejects it exactly as before; a
//! preverifier that never runs (a seat with no verify pool attached)
//! changes nothing at all.

use fastbft_crypto::KeyDirectory;
use fastbft_types::Config;

use crate::message::Message;
use crate::payload::{ack_payload, certack_payload, propose_payload};

/// Protocol-aware cache warmer for inbound [`Message`]s (see the module
/// docs). Cheap to clone; one per verify-pool worker.
#[derive(Clone, Debug)]
pub struct Preverifier {
    cfg: Config,
    dir: KeyDirectory,
}

impl Preverifier {
    /// A preverifier for a system `cfg` whose keys live in `dir`.
    ///
    /// Enables the directory's shared verification memo (on `dir` and all
    /// its clones — including those already inside replicas), which is
    /// what lets a worker thread's successful checks be reused by the
    /// replica's inline ones.
    pub fn new(cfg: Config, dir: KeyDirectory) -> Self {
        dir.enable_shared_memo();
        Preverifier { cfg, dir }
    }

    /// Runs every signature/certificate check `msg` will face in the
    /// replica, discarding the verdicts (successes land in the memo
    /// layers; failures leave no trace). Never panics: all checks are
    /// total functions returning `bool`.
    pub fn preverify(&self, msg: &Message) {
        match msg {
            Message::Propose(p) => {
                let _ = self.dir.verify(&propose_payload(&p.value, p.view), &p.sig);
                let _ = p.cert.verify(&self.cfg, &self.dir, &p.value, p.view);
            }
            Message::Ack(a) => {
                if let Some(share) = &a.share {
                    let _ = self.dir.verify(&ack_payload(&a.value, a.view), share);
                }
            }
            Message::SigShare(s) => {
                let _ = self.dir.verify(&ack_payload(&s.value, s.view), &s.sig);
            }
            Message::Commit(c) => {
                let _ = c.cert.verify(&self.cfg, &self.dir);
            }
            Message::Vote(v) => {
                let _ = v.vote.is_valid(&self.cfg, &self.dir, v.view);
            }
            Message::CertRequest(cr) => {
                for vote in &cr.votes {
                    let _ = vote.is_valid(&self.cfg, &self.dir, cr.view);
                }
            }
            Message::CertAck(ca) => {
                let _ = self
                    .dir
                    .verify(&certack_payload(&ca.value, ca.view), &ca.sig);
            }
            // Wishes carry no signatures (view synchronizer messages are
            // authenticated by the session MAC at the transport layer).
            Message::Wish(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{CommitCert, ProgressCert};
    use crate::message::{AckMsg, CommitMsg, ProposeMsg, SigShareMsg};
    use fastbft_crypto::KeyPair;
    use fastbft_types::{Value, View};

    fn setup() -> (Config, Vec<KeyPair>, KeyDirectory) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(4, 1);
        (cfg, pairs, dir)
    }

    #[test]
    fn preverified_checks_become_memo_hits() {
        let (cfg, pairs, dir) = setup();
        let pre = Preverifier::new(cfg, dir.clone());
        assert!(dir.shared_memo_enabled());

        let x = Value::from_u64(7);
        let v = View(1);
        let leader = &pairs[cfg.leader(v).index()];
        let msg = Message::Propose(ProposeMsg {
            value: x.clone(),
            view: v,
            cert: ProgressCert::Genesis,
            sig: leader.sign(&propose_payload(&x, v)),
        });
        pre.preverify(&msg);

        // The replica-side check of the same message now costs no MAC.
        let before = dir.verifications_performed();
        if let Message::Propose(p) = &msg {
            assert!(dir.verify(&propose_payload(&p.value, p.view), &p.sig));
        }
        assert_eq!(dir.verifications_performed(), before);
    }

    #[test]
    fn invalid_messages_leave_no_trace() {
        let (cfg, pairs, dir) = setup();
        let pre = Preverifier::new(cfg, dir.clone());

        let x = Value::from_u64(7);
        let v = View(1);
        // Signed by the wrong process for this view's proposal.
        let sig = pairs[3].sign(&propose_payload(&x, View(9)));
        let msg = Message::Propose(ProposeMsg {
            value: x.clone(),
            view: v,
            cert: ProgressCert::Genesis,
            sig: sig.clone(),
        });
        pre.preverify(&msg);
        // Still rejected afterwards: failures are never memoized.
        assert!(!dir.verify(&propose_payload(&x, v), &sig));
    }

    #[test]
    fn every_variant_is_handled_without_panicking() {
        let (cfg, pairs, dir) = setup();
        let pre = Preverifier::new(cfg, dir.clone());
        let x = Value::from_u64(3);
        let v = View(1);
        let payload = ack_payload(&x, v);
        let cert = CommitCert {
            value: x.clone(),
            view: v,
            sigs: pairs[..3].iter().map(|p| p.sign(&payload)).collect(),
        };
        let msgs = [
            Message::Ack(AckMsg {
                value: x.clone(),
                view: v,
                share: Some(pairs[0].sign(&payload)),
            }),
            Message::Ack(AckMsg {
                value: x.clone(),
                view: v,
                share: None,
            }),
            Message::SigShare(SigShareMsg {
                value: x.clone(),
                view: v,
                sig: pairs[1].sign(&payload),
            }),
            Message::Commit(CommitMsg { cert: cert.clone() }),
            Message::Wish(crate::message::WishMsg { view: View(2) }),
        ];
        for m in &msgs {
            pre.preverify(m);
        }
        // The commit cert's shares went through ack_payload checks; the
        // replica-side re-check of the same cert instance is free.
        let before = dir.verifications_performed();
        assert!(cert.verify(&cfg, &dir));
        assert_eq!(dir.verifications_performed(), before);
    }
}
