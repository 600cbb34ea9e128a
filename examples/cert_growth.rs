//! E7 — progress-certificate size: bounded vs naive (§3.2's discussion).
//!
//! The paper rejects the naive "certificate = the whole vote set" because
//! each vote embeds the certificate of an earlier view, so sizes grow with
//! the view number (geometrically when embedded verbatim; linear only with
//! careful structure sharing — which still leaves certificates unbounded).
//! The paper's CertAck round caps the certificate at `f + 1` signatures,
//! whatever the view.
//!
//! The replica speaks only the bounded form, so the naive column is
//! computed, not built: one real vote is encoded and measured, and the
//! whole-vote-set size follows from the recurrence a verbatim chain obeys
//! (`naive_cert_size`). `fastbft::baselines::fab` is the executable
//! whole-vote-set scheme (`cert_growth_is_unbounded_in_views`).
//!
//! Two measurements:
//! 1. structural: certificate sizes for views 2..=6;
//! 2. live: a real silent-leader run, reporting the sizes of the `propose`
//!    messages observed on the wire.
//!
//! Run with: `cargo run --release --example cert_growth`

use fastbft::core::certs::{ProgressCert, SignedVote, VoteData};
use fastbft::core::cluster::{Behavior, SimCluster};
use fastbft::core::payload::{certack_payload, propose_payload};
use fastbft::core::ReplicaOptions;
use fastbft::crypto::{KeyDirectory, SignatureSet};
use fastbft::types::wire::Encode;
use fastbft::types::{Config, Value, View};

/// Bytes of a signed non-nil vote around the certificate it embeds: one
/// real vote with a `Genesis` certificate, encoded, minus that certificate.
fn vote_overhead(cfg: &Config) -> usize {
    let (pairs, _) = KeyDirectory::generate(cfg.n(), 9);
    let x = Value::from_u64(1);
    let vote = SignedVote::sign(
        &pairs[0],
        Some(VoteData {
            value: x.clone(),
            view: View::FIRST,
            progress_cert: ProgressCert::Genesis,
            leader_sig: pairs[cfg.leader(View::FIRST).index()]
                .sign(&propose_payload(&x, View::FIRST)),
            commit_cert: None,
        }),
        View(2),
    );
    vote.to_wire_bytes().len() - ProgressCert::Genesis.wire_size()
}

/// Size of the whole-vote-set certificate for `view`: a tag and a `u32`
/// count, then `n − f` votes each embedding the certificate for `view − 1`
/// verbatim; view 1's is the one-byte `Genesis`.
fn naive_cert_size(cfg: &Config, vote_overhead: usize, view: u64) -> usize {
    (2..=view).fold(ProgressCert::Genesis.wire_size(), |prev, _| {
        1 + 4 + (cfg.n() - cfg.f()) * (vote_overhead + prev)
    })
}

fn main() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 9);
    let x = Value::from_u64(1);
    let overhead = vote_overhead(&cfg);
    assert_eq!(overhead, 98);
    // A receiver's block, which every certificate check counts into.
    let metrics = ReplicaOptions::default().metrics;

    println!("# E7 — progress certificate size vs view number (n = 4, f = t = 1)\n");
    println!("| view | naive cert (bytes) | bounded cert (bytes) |");
    println!("|---|---|---|");
    let mut naive = Vec::new();
    for v in 2..=6u64 {
        let view = View(v);
        let bounded_sigs: SignatureSet = pairs[..cfg.cert_quorum()]
            .iter()
            .map(|p| p.sign(&certack_payload(&x, view)))
            .collect();
        let bounded = ProgressCert::Bounded(bounded_sigs);
        assert!(bounded.verify(&cfg, &dir, &x, view, &metrics));
        assert_eq!(
            bounded.wire_size(),
            77,
            "f + 1 signatures, whatever the view"
        );

        let size = naive_cert_size(&cfg, overhead, v);
        naive.push(size);
        println!("| {v} | {size} | {} |", bounded.wire_size());
    }
    // The sizes the hand-built chain of whole-vote-set certificates read
    // while the replica still carried that form.
    assert_eq!(naive, [302, 1_205, 3_914, 12_041, 36_422]);

    // Live run: a silent first leader forces one view change; the view-2
    // proposes carry the bounded certificate.
    println!("\nlive silent-leader run, view-2 propose sizes on the wire:");
    let leader1 = cfg.leader(View::FIRST);
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64([5, 5, 5, 5])
        .behavior(leader1, Behavior::Silent)
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided && report.violations.is_empty());
    let (count, bytes) = report.stats.by_kind["propose"];
    println!(
        "  {count} propose messages totalling {bytes} bytes (avg {} B)",
        bytes / count.max(1)
    );

    println!("\nshape: naive certificates grow without bound in the view number;");
    println!("bounded certificates stay at f + 1 signatures — the paper's point. ✓");
}
