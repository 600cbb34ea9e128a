//! What every signed kind binds, as a table: one row per kind a replica
//! signs, each checked by the verifier its receiver runs, at home and
//! moved one slot (or checkpoint boundary) and one view away.
//!
//! The consensus statements are `tag ‖ H(x) ‖ v ‖ instance`
//! (`fastbft_core::payload`): the domain tag keeps the kinds apart, the
//! view keeps a statement in its view (§3.2), and the instance — the log
//! slot — keeps it in its slot. A checkpoint attestation signs
//! `fbftSNAP ‖ upto ‖ H(snapshot)`: its boundary is the slot it speaks for,
//! and it names no view. A signature that verifies anywhere but at home
//! is evidence a Byzantine seat could carry there.

use fastbft::core::certs::{CommitCert, ProgressCert, SignedVote, VoteData};
use fastbft::core::payload::{ack_payload, certack_payload, propose_payload};
use fastbft::crypto::{KeyDirectory, SignatureSet};
use fastbft::obs::Metrics;
use fastbft::smr::{checkpoint_signature, snapshot_response_valid};
use fastbft::types::{Config, Value, View};

/// Where a row's signature is checked.
#[derive(Clone, Copy, Debug)]
enum Place {
    Home,
    OtherSlot,
    OtherView,
}

/// A kind, what it binds, and its receiver's check at a slot and a view.
type Row<'a> = (&'a str, &'a str, Box<dyn Fn(u64, View) -> bool + 'a>);

#[test]
fn every_signed_kind_is_refused_in_another_slot_or_view() {
    const SLOT: u64 = 128;
    const VIEW: View = View(3);
    let base = Config::new(4, 1, 1).unwrap();
    let cfg = base.with_instance(SLOT);
    let (pairs, dir) = KeyDirectory::generate(4, 11);
    let metrics = Metrics::new();
    let x = Value::from_u64(7);
    let at = |slot: u64| base.with_instance(slot);
    let signed_by = |n: usize, statement: &[u8]| -> SignatureSet {
        pairs[..n].iter().map(|p| p.sign(statement)).collect()
    };

    let leader = |v: View| &pairs[cfg.leader(v).index()];
    let tau = leader(VIEW).sign(&propose_payload(&x, VIEW, SLOT));
    let voted = VoteData {
        value: x.clone(),
        view: View(2),
        progress_cert: ProgressCert::Bounded(signed_by(2, &certack_payload(&x, View(2), SLOT))),
        leader_sig: leader(View(2)).sign(&propose_payload(&x, View(2), SLOT)),
        commit_cert: None,
    };
    let vote = SignedVote::sign(&pairs[0], Some(voted), VIEW, SLOT);
    let certacks = ProgressCert::Bounded(signed_by(2, &certack_payload(&x, VIEW, SLOT)));
    let shares = signed_by(3, &ack_payload(&x, VIEW, SLOT));
    let snapshot = b"a snapshot payload".to_vec();
    let digest = fastbft::crypto::digest(&snapshot);
    let attestations: Vec<_> = pairs[..2]
        .iter()
        .map(|p| checkpoint_signature(p, &Metrics::new(), SLOT, &digest))
        .collect();
    let attested =
        |upto, f, sigs: &[_]| snapshot_response_valid(&dir, &metrics, f, upto, &snapshot, sigs);

    let rows: [Row; 6] = [
        (
            "τ (propose)",
            "domain, value, view, slot",
            Box::new(|slot, v| dir.verify(&propose_payload(&x, v, slot), &tau)),
        ),
        (
            "φ_vote",
            "domain, vote, destination view, slot (and its τ and σ)",
            Box::new(|slot, v| vote.is_valid(&at(slot), &dir, v, &metrics)),
        ),
        (
            "φ_ca (f + 1 form σ)",
            "domain, value, view, slot",
            Box::new(|slot, v| certacks.verify(&at(slot), &dir, &x, v, &metrics)),
        ),
        (
            "φ_ack (a slow quorum forms a commit certificate)",
            "domain, value, view, slot",
            Box::new(|slot, v| {
                let cc = CommitCert {
                    value: x.clone(),
                    view: v,
                    sigs: shares.clone(),
                };
                cc.verify(&at(slot), &dir, &metrics)
            }),
        ),
        (
            "checkpoint attestation (one, as f = 0 counts it)",
            "domain fbftSNAP, boundary, snapshot digest",
            Box::new(|upto, _| attested(upto, 0, &attestations[..1])),
        ),
        (
            "snapshot quorum (f + 1 attestations)",
            "domain fbftSNAP, boundary, snapshot digest",
            Box::new(|upto, _| attested(upto, 1, &attestations)),
        ),
    ];
    for (kind, binds, check) in &rows {
        let views = !binds.contains("fbftSNAP");
        for place in [Place::Home, Place::OtherSlot, Place::OtherView] {
            let (slot, view, home) = match place {
                Place::Home => (SLOT, VIEW, true),
                Place::OtherSlot => (SLOT + 4, VIEW, false),
                // An attestation names no view: moved to another one it
                // stays what it was.
                Place::OtherView => (SLOT, View(VIEW.0 + 1), !views),
            };
            assert_eq!(check(slot, view), home, "{kind} [{binds}] at {place:?}");
        }
    }
}
