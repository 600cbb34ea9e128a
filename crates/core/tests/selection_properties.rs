//! Property tests for the selection algorithm: determinism, the safety
//! cases of Lemmas 3.1–3.5, and leader/verifier agreement.

use std::collections::BTreeMap;

use fastbft_core::certs::{ProgressCert, SignedVote, VoteData};
use fastbft_core::payload::propose_payload;
use fastbft_core::selection::{select, Outcome, Rationale};
use fastbft_crypto::{KeyDirectory, KeyPair, Signature};
use fastbft_obs::Metrics;
use fastbft_types::{Config, ProcessId, Value, View};
use proptest::prelude::*;

/// Builds an (unvalidated) vote — selection trusts its input, so dummy
/// signatures keep generation fast; validation is covered separately.
fn raw_vote(p: u32, vote: Option<(u64, u64)>) -> (ProcessId, SignedVote) {
    let pid = ProcessId(p);
    let sig = Signature::from_parts(pid, [0u8; 32]);
    (
        pid,
        SignedVote {
            voter: pid,
            vote: vote.map(|(value, view)| VoteData {
                value: Value::from_u64(value),
                view: View(view),
                progress_cert: ProgressCert::Genesis,
                leader_sig: sig.clone(),
                commit_cert: None,
            }),
            sig,
        },
    )
}

/// Strategy: a random vote set for `n = 9, f = t = 2`, destination view 4.
/// Values in 0..3, views in 1..=3.
fn vote_sets() -> impl Strategy<Value = BTreeMap<ProcessId, SignedVote>> {
    proptest::collection::vec(proptest::option::of((0u64..3, 1u64..=3)), 9).prop_map(|votes| {
        votes
            .into_iter()
            .enumerate()
            .map(|(i, v)| raw_vote(i as u32 + 1, v))
            .collect()
    })
}

fn cfg9() -> Config {
    Config::vanilla(9, 2).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Selection never panics and is deterministic on arbitrary vote sets.
    #[test]
    fn selection_total_and_deterministic(votes in vote_sets()) {
        let a = select(&cfg9(), View(4), &votes);
        let b = select(&cfg9(), View(4), &votes);
        prop_assert_eq!(a, b);
    }

    /// Lemma 3.1: with ≥ n − f votes all nil, selection is Free.
    #[test]
    fn all_nil_is_free(extra in 7usize..=9) {
        let votes: BTreeMap<_, _> =
            (1..=extra as u32).map(|p| raw_vote(p, None)).collect();
        let r = select(&cfg9(), View(2), &votes).unwrap();
        prop_assert_eq!(r.outcome, Outcome::Free);
        prop_assert_eq!(r.rationale, Rationale::AllNil);
    }

    /// The QI2-backed safety case: if some value has ≥ f + t votes at the
    /// maximum view among non-excluded voters, selection never returns Free
    /// and never returns a different value voted at that view.
    #[test]
    fn quorum_at_w_is_never_overridden(votes in vote_sets()) {
        let cfg = cfg9();
        if let Ok(result) = select(&cfg, View(4), &votes) {
            let Some(w) = result.w else { return Ok(()); };
            // Count votes per value at w among non-excluded voters.
            let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
            for (p, sv) in &votes {
                if result.excluded.contains(p) { continue; }
                if let Some(vd) = &sv.vote {
                    if vd.view == w {
                        *counts.entry(vd.value.as_u64().unwrap()).or_insert(0) += 1;
                    }
                }
            }
            for (value, count) in counts {
                if count >= cfg.selection_quorum() {
                    prop_assert_eq!(
                        &result.outcome,
                        &Outcome::Constrained(Value::from_u64(value)),
                        "value {} had {} >= f+t votes at {:?} but outcome was {:?}",
                        value, count, w, result.outcome
                    );
                }
            }
        }
    }

    /// The selected value (when constrained) was voted at w by someone, or
    /// was pinned by a commit certificate.
    #[test]
    fn constrained_values_come_from_votes(votes in vote_sets()) {
        if let Ok(result) = select(&cfg9(), View(4), &votes) {
            if let Outcome::Constrained(x) = &result.outcome {
                let supported = votes.values().any(|sv| {
                    sv.vote.as_ref().is_some_and(|vd| {
                        vd.value == *x
                            || vd.commit_cert.as_ref().is_some_and(|cc| cc.value == *x)
                    })
                });
                prop_assert!(supported, "selected {x} appears in no vote");
            }
        }
    }

    /// Excluded processes are always leaders of some view seen in the votes
    /// (only provable equivocators are excluded).
    #[test]
    fn only_view_leaders_get_excluded(votes in vote_sets()) {
        let cfg = cfg9();
        if let Ok(result) = select(&cfg, View(4), &votes) {
            for p in &result.excluded {
                let leads_some_view = (1u64..=3).any(|v| cfg.leader(View(v)) == *p);
                prop_assert!(leads_some_view, "{p} excluded but leads no voted view");
            }
        }
    }
}

/// Leader/verifier agreement: a CertRequest verifier re-running selection on
/// the same (now *validated*) votes reaches the same conclusion as the
/// leader. This is the property that makes `f + 1` CertAcks sufficient.
#[test]
fn leader_and_verifier_agree_on_real_votes() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 8);
    let x = Value::from_u64(3);
    let leader1 = cfg.leader(View::FIRST);

    let mk_vote = |p: &KeyPair, value: &Value| {
        SignedVote::sign(
            p,
            Some(VoteData {
                value: value.clone(),
                view: View::FIRST,
                progress_cert: ProgressCert::Genesis,
                leader_sig: pairs[leader1.index()].sign(&propose_payload(value, View::FIRST)),
                commit_cert: None,
            }),
            View(2),
        )
    };

    let votes: BTreeMap<ProcessId, SignedVote> = [
        (pairs[0].id(), mk_vote(&pairs[0], &x)),
        (pairs[2].id(), SignedVote::sign(&pairs[2], None, View(2))),
        (pairs[3].id(), SignedVote::sign(&pairs[3], None, View(2))),
    ]
    .into();

    // Leader side.
    for sv in votes.values() {
        assert!(sv.is_valid(&cfg, &dir, View(2), &Metrics::new()));
    }
    let leader_result = select(&cfg, View(2), &votes).unwrap();
    assert_eq!(leader_result.outcome, Outcome::Constrained(x.clone()));

    // Verifier side: identical set, identical conclusion.
    let verifier_result = select(&cfg, View(2), &votes).unwrap();
    assert_eq!(leader_result, verifier_result);
}
