//! Canonical byte strings for every signed statement in the protocol.
//!
//! The paper signs tuples like `(propose, x, v)`; here each tuple becomes a
//! domain-separated canonical byte string. Domain separation bytes guarantee
//! that a signature over one statement kind can never be replayed as another
//! (e.g. an ack share can't pose as a CertAck), and including the view binds
//! every statement to its view, which is what makes vote replay across views
//! impossible (§3.2).
//!
//! # Bound to the instance
//!
//! The same argument one level up: the SMR layer runs one instance per log
//! slot under one key directory, so a statement also names its instance —
//! the log slot ([`Config::instance`](fastbft_types::Config::instance)), 0
//! for a single-shot run. Without it a certificate, a signed vote or a
//! share from slot `s` verifies in every other slot, and one Byzantine seat
//! that saw slot `s`'s view-2 certificate can lead slot `s + n`'s view 2 to
//! a value the fast path never decided there
//! (`crates/core/tests/cross_slot_replay.rs`). PBFT's messages carry their
//! sequence number for the same reason.
//!
//! # Digest-carried statements (hash-then-sign)
//!
//! Statements embed the SHA-256 **digest** of the value (or vote encoding),
//! not the bytes themselves: every statement is the fixed-size
//! `tag ‖ H(m) ‖ v ‖ instance` ([`Statement`], [`STATEMENT_LEN`] = 49 bytes
//! on the stack — no per-call allocation; with SHA-256's 9 bytes of padding
//! the HMAC still runs one inner block). This is the standard
//! hash-then-sign shape (PBFT signs request digests; HotStuff-family
//! certificates verify in O(sigs), not O(sigs × payload)): signing and
//! verifying cost the same for an 8-byte label and a 1 KiB command batch,
//! because the value is hashed once per process ([`Value::digest`]
//! memoizes it) while each signature only ever touches the 32-byte digest.
//! The paper's §3.2 replay and domain-separation arguments carry over by
//! collision resistance of SHA-256: two distinct values (or votes) would
//! need colliding digests to alias a statement.
//!
//! **Compatibility note:** every change of these bytes (`tag ‖ m ‖ v` →
//! `tag ‖ H(m) ‖ v` → `tag ‖ H(m) ‖ v ‖ instance`) changes every signature
//! and certificate **protocol-wide** — processes on two formats cannot
//! validate each other's signatures. All in-tree signers and verifiers go
//! through this module, so the workspace switches atomically; anything
//! persisting or replaying signed traffic across versions would need a
//! protocol version bump.

use fastbft_crypto::{sha256::Sha256, value_digest, Digest};
use fastbft_types::{Value, View};

/// Byte length of every signed statement: 1 domain tag + 32 digest + 8 view
/// + 8 instance.
pub const STATEMENT_LEN: usize = 49;

/// A fixed-size signed statement `tag ‖ H(m) ‖ v ‖ instance`, built on the
/// stack.
pub type Statement = [u8; STATEMENT_LEN];

/// Domain tags for signed statements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum Domain {
    /// `(propose, x, v)` — signed by `leader(v)`; the paper's `τ`.
    Propose = 1,
    /// `(vote, vote, v)` — signed by the voter; the paper's `φ_vote`.
    Vote = 2,
    /// `(CertAck, x, v)` — signed by certifiers; the paper's `φ_ca`.
    CertAck = 3,
    /// `(ack, x, v)` — the slow-path signature share; the paper's `φ_ack`.
    Ack = 4,
}

fn statement(domain: Domain, digest: &Digest, v: View, instance: u64) -> Statement {
    let mut s = [0u8; STATEMENT_LEN];
    s[0] = domain as u8;
    s[1..33].copy_from_slice(digest);
    s[33..41].copy_from_slice(&v.0.to_be_bytes());
    s[41..49].copy_from_slice(&instance.to_be_bytes());
    s
}

/// Bytes of the statement `(propose, H(x), v, instance)` (signed by
/// `leader(v)` → `τ`).
pub fn propose_payload(x: &Value, v: View, instance: u64) -> Statement {
    statement(Domain::Propose, value_digest(x), v, instance)
}

/// Bytes of the statement `(vote, H(vote_bytes), v, instance)` (signed by
/// the voter → `φ_vote`). `vote_bytes` is the canonical encoding of the
/// vote (`Option<VoteData>`), produced by the caller; this function is kept
/// byte-oriented to avoid a circular dependency with the vote types.
pub fn vote_payload(vote_bytes: &[u8], v: View, instance: u64) -> Statement {
    statement(Domain::Vote, &Sha256::digest_of(vote_bytes), v, instance)
}

/// Bytes of the statement `(CertAck, H(x), v, instance)` (signed by
/// certifiers → `φ_ca`; `f + 1` of these form a progress certificate).
pub fn certack_payload(x: &Value, v: View, instance: u64) -> Statement {
    statement(Domain::CertAck, value_digest(x), v, instance)
}

/// Bytes of the statement `(ack, H(x), v, instance)` (signed share sent
/// alongside each ack; `⌈(n+f+1)/2⌉` of these form a commit certificate,
/// Appendix A).
pub fn ack_payload(x: &Value, v: View, instance: u64) -> Statement {
    statement(Domain::Ack, value_digest(x), v, instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::wire::Encode;

    #[test]
    fn domains_never_collide() {
        let x = Value::from_u64(7);
        let v = View(3);
        let payloads = [
            propose_payload(&x, v, 0),
            certack_payload(&x, v, 0),
            ack_payload(&x, v, 0),
            vote_payload(&x.as_bytes().to_vec().to_wire_bytes(), v, 0),
        ];
        for i in 0..payloads.len() {
            for j in i + 1..payloads.len() {
                assert_ne!(payloads[i], payloads[j], "payloads {i} and {j} collide");
            }
        }
    }

    #[test]
    fn payloads_bind_value_and_view() {
        let x = Value::from_u64(7);
        let y = Value::from_u64(8);
        assert_ne!(
            propose_payload(&x, View(1), 0),
            propose_payload(&y, View(1), 0)
        );
        assert_ne!(
            propose_payload(&x, View(1), 0),
            propose_payload(&x, View(2), 0)
        );
        assert_ne!(ack_payload(&x, View(1), 0), ack_payload(&x, View(2), 0));
        assert_ne!(
            certack_payload(&x, View(1), 0),
            certack_payload(&y, View(1), 0)
        );
    }

    #[test]
    fn every_statement_binds_its_instance() {
        // Slot 4's statements are not slot 8's (one directory signs both).
        let x = Value::from_u64(7);
        let vote_bytes = vec![1u8, 2, 3];
        assert_ne!(
            propose_payload(&x, View(2), 4),
            propose_payload(&x, View(2), 8)
        );
        assert_ne!(
            certack_payload(&x, View(2), 4),
            certack_payload(&x, View(2), 8)
        );
        assert_ne!(ack_payload(&x, View(2), 4), ack_payload(&x, View(2), 8));
        assert_ne!(
            vote_payload(&vote_bytes, View(2), 4),
            vote_payload(&vote_bytes, View(2), 8)
        );
    }

    #[test]
    fn vote_payload_binds_destination_view() {
        // The same vote sent to leaders of different views signs different
        // bytes — the cross-view replay defence.
        let vote_bytes = vec![1u8, 2, 3];
        assert_ne!(
            vote_payload(&vote_bytes, View(5), 0),
            vote_payload(&vote_bytes, View(6), 0)
        );
    }

    #[test]
    fn statements_are_fixed_size_regardless_of_payload() {
        // The whole point of digest-carried statements: a 1 KiB value signs
        // the same 49 bytes as an 8-byte one.
        let small = Value::from_u64(1);
        let large = Value::new(vec![0xAB; 1024]);
        assert_eq!(propose_payload(&small, View(1), 0).len(), STATEMENT_LEN);
        assert_eq!(propose_payload(&large, View(1), 0).len(), STATEMENT_LEN);
        assert_ne!(
            propose_payload(&small, View(1), 0),
            propose_payload(&large, View(1), 0)
        );
    }
}
