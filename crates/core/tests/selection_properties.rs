//! Property tests for the selection algorithm: determinism, the safety
//! cases of Lemmas 3.1–3.5, and leader/verifier agreement.

use std::collections::BTreeMap;

use fastbft_core::certs::{ProgressCert, SignedVote, VoteData};
use fastbft_core::payload::propose_payload;
use fastbft_core::selection::{select, Outcome, Rationale};
use fastbft_crypto::{KeyDirectory, KeyPair, Signature};
use fastbft_obs::Metrics;
use fastbft_sim::{check, replay, Choices};
use fastbft_types::{Config, ProcessId, Value, View};

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

/// A random vote set for `n = 9, f = t = 2`, destination view 4. Values
/// in 0..3, views in 1..=3.
fn vote_set(c: &mut Choices) -> BTreeMap<ProcessId, SignedVote> {
    (1..=9)
        .map(|p| raw_vote(p, c.option(|c| (c.int(0..3u64), c.int(1..=3u64)))))
        .collect()
}

fn cfg9() -> Config {
    Config::vanilla(9, 2).unwrap()
}

/// Selection never panics and is deterministic on arbitrary vote sets.
#[test]
fn selection_total_and_deterministic() {
    check("selection_total_and_deterministic", 512, |c| {
        let votes = vote_set(c);
        let a = select(&cfg9(), View(4), &votes);
        let b = select(&cfg9(), View(4), &votes);
        assert_eq!(a, b);
    });
}

/// Lemma 3.1: with ≥ n − f votes all nil, selection is Free.
#[test]
fn all_nil_is_free() {
    check("all_nil_is_free", 512, |c| {
        let extra = c.int(7..=9u32);
        let votes: BTreeMap<_, _> = (1..=extra).map(|p| raw_vote(p, None)).collect();
        let r = select(&cfg9(), View(2), &votes).unwrap();
        assert_eq!(r.outcome, Outcome::Free);
        assert_eq!(r.rationale, Rationale::AllNil);
    });
}

/// The QI2-backed safety case: if some value has ≥ f + t votes at the
/// maximum view among non-excluded voters, selection never returns Free
/// and never returns a value with fewer votes at that view. Where one
/// value has them, that value is the outcome. Two can have them only in a
/// set of 2(f + t) = 8 non-excluded votes, which no leader assembles (it
/// selects over n − f = 7 of them) but a Byzantine leader's `CertRequest`
/// may carry; no value in such a set can have been decided at `w`, so
/// either is safe.
fn quorum_at_w(c: &mut Choices) {
    let votes = vote_set(c);
    let cfg = cfg9();
    let Ok(result) = select(&cfg, View(4), &votes) else {
        return;
    };
    let Some(w) = result.w else {
        return;
    };
    // Count votes per value at w among non-excluded voters.
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for (p, sv) in &votes {
        if result.excluded.contains(p) {
            continue;
        }
        if let Some(vd) = &sv.vote {
            if vd.view == w {
                *counts.entry(vd.value.as_u64().unwrap()).or_insert(0) += 1;
            }
        }
    }
    let pinned: Vec<Outcome> = counts
        .iter()
        .filter(|(_, count)| **count >= cfg.selection_quorum())
        .map(|(value, _)| Outcome::Constrained(Value::from_u64(*value)))
        .collect();
    assert!(
        pinned.is_empty() || pinned.contains(&result.outcome),
        "values {pinned:?} had >= f+t votes at {w:?} but outcome was {:?}",
        result.outcome
    );
}

#[test]
fn quorum_at_w_is_never_overridden() {
    check("quorum_at_w_is_never_overridden", 512, quorum_at_w);
}

/// What the property's first draw over this driver found: p1 and p6–p8
/// vote 2 and p3–p5 and p9 vote 1, all at view 1, and p2 (`leader(1)`,
/// excluded as the equivocator) votes nil. Both values have f + t = 4
/// votes; selection constrains to 1.
#[test]
fn two_values_with_f_plus_t_votes_at_w_constrain_to_one_of_them() {
    let literal = [
        1, 2, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 1, 0,
    ];
    replay(&literal, quorum_at_w);
    replay(&literal, |c| {
        let result = select(&cfg9(), View(4), &vote_set(c)).unwrap();
        assert_eq!(result.outcome, Outcome::Constrained(Value::from_u64(1)));
        assert_eq!(result.rationale, Rationale::QuorumAtW);
        assert_eq!(result.excluded, [ProcessId(2)].into());
    });
}

/// The selected value (when constrained) was voted at w by someone, or
/// was pinned by a commit certificate.
#[test]
fn constrained_values_come_from_votes() {
    check("constrained_values_come_from_votes", 512, |c| {
        let votes = vote_set(c);
        if let Ok(result) = select(&cfg9(), View(4), &votes) {
            if let Outcome::Constrained(x) = &result.outcome {
                let supported = votes.values().any(|sv| {
                    sv.vote.as_ref().is_some_and(|vd| {
                        vd.value == *x || vd.commit_cert.as_ref().is_some_and(|cc| cc.value == *x)
                    })
                });
                assert!(supported, "selected {x} appears in no vote");
            }
        }
    });
}

/// Excluded processes are always leaders of some view seen in the votes
/// (only provable equivocators are excluded).
#[test]
fn only_view_leaders_get_excluded() {
    check("only_view_leaders_get_excluded", 512, |c| {
        let votes = vote_set(c);
        let cfg = cfg9();
        if let Ok(result) = select(&cfg, View(4), &votes) {
            for p in &result.excluded {
                let leads_some_view = (1u64..=3).any(|v| cfg.leader(View(v)) == *p);
                assert!(leads_some_view, "{p} excluded but leads no voted view");
            }
        }
    });
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
                leader_sig: pairs[leader1.index()].sign(&propose_payload(value, View::FIRST, 0)),
                commit_cert: None,
            }),
            View(2),
            0,
        )
    };

    let votes: BTreeMap<ProcessId, SignedVote> = [
        (pairs[0].id(), mk_vote(&pairs[0], &x)),
        (pairs[2].id(), SignedVote::sign(&pairs[2], None, View(2), 0)),
        (pairs[3].id(), SignedVote::sign(&pairs[3], None, View(2), 0)),
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
