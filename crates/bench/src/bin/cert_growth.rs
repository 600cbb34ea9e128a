//! E7 — progress-certificate size: bounded vs naive (§3.2's discussion).
//!
//! The paper rejects the naive "certificate = the whole vote set" because
//! each vote embeds the certificate of an earlier view, so sizes grow with
//! the view number (geometrically when embedded verbatim, as here; linear
//! only with careful structure sharing — which still leaves certificates
//! unbounded). The paper's CertAck round caps the certificate at `f + 1`
//! signatures, whatever the view.
//!
//! Two measurements:
//! 1. structural: hand-built certificate chains for views 2..=6;
//! 2. live: a real silent-leader run in each mode, reporting the sizes of
//!    the `propose` messages observed on the wire.

use fastbft_bench::{header, row};
use fastbft_core::certs::{CertMode, ProgressCert, SignedVote, VoteData};
use fastbft_core::cluster::{Behavior, SimCluster};
use fastbft_core::payload::{certack_payload, propose_payload};
use fastbft_crypto::{KeyDirectory, SignatureSet};
use fastbft_types::{Config, Value, View};

fn main() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 9);
    let x = Value::from_u64(1);

    println!("# E7 — progress certificate size vs view number (n = 4, f = t = 1)\n");
    println!(
        "{}",
        header(&["view", "naive cert (bytes)", "bounded cert (bytes)"])
    );

    // Structural chain: the certificate for view v is built from n − f
    // votes, each of which embeds the certificate for view v − 1.
    let mut prev_cert = ProgressCert::Genesis;
    let mut prev_view = View::FIRST;
    for v in 2..=6u64 {
        let view = View(v);
        // Votes for `view` embedding the previous certificate.
        let votes: Vec<SignedVote> = pairs[..3]
            .iter()
            .map(|p| {
                SignedVote::sign(
                    p,
                    Some(VoteData {
                        value: x.clone(),
                        view: prev_view,
                        progress_cert: prev_cert.clone(),
                        leader_sig: pairs[cfg.leader(prev_view).index()]
                            .sign(&propose_payload(&x, prev_view)),
                        commit_cert: None,
                    }),
                    view,
                )
            })
            .collect();
        let naive = ProgressCert::Naive(votes);
        assert!(
            naive.verify(&cfg, &dir, &x, view, None),
            "naive cert must verify"
        );

        let bounded_sigs: SignatureSet = pairs[..cfg.cert_quorum()]
            .iter()
            .map(|p| p.sign(&certack_payload(&x, view)))
            .collect();
        let bounded = ProgressCert::Bounded(bounded_sigs);
        assert!(bounded.verify(&cfg, &dir, &x, view, None));

        println!(
            "{}",
            row(&[
                v.to_string(),
                naive.wire_size().to_string(),
                bounded.wire_size().to_string(),
            ])
        );

        prev_cert = naive;
        prev_view = view;
    }

    // Live runs: a silent first leader forces one view change; compare the
    // view-2 propose sizes under each certificate mode.
    println!("\nlive silent-leader run, view-2 propose sizes on the wire:");
    for (mode, label) in [(CertMode::Bounded, "bounded"), (CertMode::Naive, "naive")] {
        let leader1 = cfg.leader(View::FIRST);
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([5, 5, 5, 5])
            .behavior(leader1, Behavior::Silent)
            .cert_mode(mode)
            .build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided && report.violations.is_empty());
        let (count, bytes) = report.stats.by_kind["propose"];
        println!(
            "  {label:<8} mode: {count} propose messages totalling {bytes} bytes \
             (avg {} B)",
            bytes / count.max(1)
        );
    }

    println!("\nshape: naive certificates grow without bound in the view number;");
    println!("bounded certificates stay at f + 1 signatures — the paper's point. ✓");
}
