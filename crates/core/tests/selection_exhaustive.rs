//! The selection rule (§3.2, Appendix A.2) against every vote set a view-4
//! leader can be handed after a decision, with no simulator.
//!
//! At n = 4 (f = t = 1) and n = 7 (f = 2, t = 1), for every choice of at
//! most `f` Byzantine seats and every history in which `x` was decided in
//! view 1 or 2 — fast, on `n − t` acks, or (at n = 7) slow, on a commit
//! certificate — the test builds every vote set for view 4 the history
//! allows: any subset of the correct seats' votes, with any vote each
//! Byzantine seat can sign from its own key and the history's signatures.
//! Every vote goes through `SignedVote::is_valid`, as the leader's do, and
//! `select` must answer `Constrained(x)`, or `NeedMoreVotes` while some
//! correct seat's vote is missing: never another value, never `Free`.
//!
//! A history, as the view-4 votes see it:
//! - a minimal quorum of correct seats acked `x` in the deciding view `d`:
//!   `n − t` less the Byzantine seats, who ack too, or on the slow path
//!   `⌈(n+f+1)/2⌉` less them, each holding the commit certificate;
//! - every other correct seat ends nil, or acked `x` in `d`, or (when
//!   `d = 2`) acked a view-1 proposal, or acked `y` in `d` when `leader(d)`
//!   is Byzantine and correct seats certified `y` there;
//! - a correct leader proposes once per view: `x` in `d`, and when `d = 2`
//!   either value in view 1;
//! - correct seats CertAck `(v, 2)` only if `n − f` view-2 votes could let
//!   the rule pick `v`: at most `f` correct seats acked the other value in
//!   view 1;
//! - the views after `d` add nothing: correct seats certify only what the
//!   rule selects.
//!
//! A Byzantine vote is nil, or either value at views 1–3 under `Genesis` or
//! the `f + 1` CertAck signatures it can gather; its `τ` is `leader(u)`'s
//! where that proposal was signed, its own key's otherwise. Each distinct
//! vote set is checked once, and the counts are pinned.

use std::collections::{BTreeMap, HashMap, HashSet};

use fastbft_core::certs::{CommitCert, ProgressCert, SignedVote, VoteData};
use fastbft_core::payload::{ack_payload, certack_payload, propose_payload};
use fastbft_core::selection::{select, Outcome};
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_obs::Metrics;
use fastbft_types::wire::Encode;
use fastbft_types::{Config, ProcessId, Value, View};

/// The decided value and the other one.
const X: u64 = 1;
const Y: u64 = 2;
/// The view the votes are for.
const DEST: View = View(4);

/// A non-nil vote as selection reads it; `None` is a nil vote.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Ack {
    value: u64,
    view: u64,
    /// `f + 1` CertAck signatures rather than `Genesis`.
    bounded: bool,
    /// Carries the commit certificate for `(x, d)`.
    cc: bool,
}

fn ack(value: u64, view: u64, bounded: bool, cc: bool) -> Option<Ack> {
    Some(Ack {
        value,
        view,
        bounded,
        cc,
    })
}

/// A correct seat's ack: its proposal's certificate is `Genesis` only in
/// view 1.
fn acked(value: u64, view: u64, cc: bool) -> Option<Ack> {
    ack(value, view, view > 1, cc)
}

/// One seat's signed vote, and what selection reads of it.
type Cast = (ProcessId, Option<Ack>, SignedVote);

/// What each seat voted, as selection reads it: a vote set's identity.
type Votes = Vec<(ProcessId, Option<Ack>)>;

/// Each correct seat's ack, or `None` for a nil vote.
type Acks = BTreeMap<ProcessId, Option<Ack>>;

/// Who is Byzantine, where `x` was decided, and what correct seats signed.
struct History<'a> {
    cfg: Config,
    pairs: &'a [KeyPair],
    byzantine: Vec<ProcessId>,
    /// The deciding view.
    d: u64,
    slow: bool,
    /// The value a correct `leader(1)` proposed when `d = 2`.
    view1: Option<u64>,
    /// Correct seats CertAck'd `(y, 2)` for a Byzantine `leader(2)`.
    y_certified: bool,
}

impl History<'_> {
    /// Every history at `cfg`.
    fn all(cfg: Config, pairs: &[KeyPair]) -> Vec<History<'_>> {
        let seats: Vec<ProcessId> = cfg.processes().collect();
        let flags = product(&[vec![1, 2], vec![0, 1], vec![0, X, Y], vec![0, 1]]);
        let byzantine = subsets(&seats).filter(|(_, b)| b.len() <= cfg.f());
        let all = byzantine.flat_map(|(_, b)| {
            flags.iter().map(move |h| History {
                cfg,
                pairs,
                byzantine: b.iter().copied().copied().collect(),
                d: h[0],
                slow: h[1] == 1,
                view1: Some(h[2]).filter(|&v| v != 0),
                y_certified: h[3] == 1,
            })
        });
        // The slow path is a path of its own only where t < f; a correct
        // leader's view-1 proposal and a certified y matter only when d = 2.
        let wanted = |h: &History| {
            let leads = |v| h.faulty(cfg.leader(View(v)));
            (!h.slow || cfg.t() < cfg.f())
                && h.view1.is_some() == (h.d == 2 && !leads(1))
                && (!h.y_certified || (h.d == 2 && leads(2)))
        };
        all.filter(wanted).collect()
    }

    fn faulty(&self, p: ProcessId) -> bool {
        self.byzantine.contains(&p)
    }

    fn correct(&self) -> Vec<ProcessId> {
        self.cfg.processes().filter(|&p| !self.faulty(p)).collect()
    }

    /// Whether `leader(view)` signed a proposal of `value`.
    fn proposed(&self, value: u64, view: u64) -> bool {
        self.faulty(self.cfg.leader(View(view)))
            || (value, view) == (X, self.d)
            || (view == 1 && self.view1 == Some(value))
    }

    /// Builds `voter`'s signed vote; `ackers` sign the commit certificate.
    fn vote(&self, voter: ProcessId, ack: Option<Ack>, ackers: &[ProcessId]) -> SignedVote {
        let key = |p: ProcessId| &self.pairs[p.index()];
        let vote = ack.map(|a| {
            let (x, u) = (Value::from_u64(a.value), View(a.view));
            let certified = u == View(2) && self.d == 2 && (a.value == X || self.y_certified);
            let seats = self.cfg.processes();
            let signers = seats.filter(|&p| certified || self.faulty(p));
            let certacks = signers.take(self.cfg.cert_quorum());
            let certacks = certacks.map(|p| key(p).sign(&certack_payload(&x, u, 0)));
            let (decided, d) = (Value::from_u64(X), View(self.d));
            let shares = ackers.iter().take(self.cfg.slow_quorum());
            let shares = shares.map(|&p| key(p).sign(&ack_payload(&decided, d, 0)));
            let proposer = [voter, self.cfg.leader(u)][self.proposed(a.value, a.view) as usize];
            VoteData {
                leader_sig: key(proposer).sign(&propose_payload(&x, u, 0)),
                progress_cert: match a.bounded {
                    true => ProgressCert::Bounded(certacks.collect()),
                    false => ProgressCert::Genesis,
                },
                commit_cert: a.cc.then(|| CommitCert {
                    sigs: shares.collect(),
                    value: decided.clone(),
                    view: d,
                }),
                value: x,
                view: u,
            }
        });
        SignedVote::sign(key(voter), vote, DEST, 0)
    }

    /// What each Byzantine seat can send — nothing, or a vote that passes
    /// the leader's check — in every combination.
    fn byzantine_choices(
        &self,
        is_valid: &mut impl FnMut(&SignedVote) -> bool,
    ) -> Vec<Vec<Option<Cast>>> {
        let attempts = product(&[vec![X, Y], vec![1, 2, 3], vec![0, 1]]);
        let attempts = attempts.iter().map(|a| ack(a[0], a[1], a[2] == 1, false));
        let acks: Vec<Option<Ack>> = std::iter::once(None).chain(attempts).collect();
        let options = self.byzantine.iter().map(|&b| {
            let sent = acks.iter().map(|&ack| (b, ack, self.vote(b, ack, &[])));
            let valid = sent.filter(|(_, _, sv)| is_valid(sv)).map(Some);
            std::iter::once(None).chain(valid).collect()
        });
        product(&options.collect::<Vec<_>>())
    }

    /// Every assignment of acks to the correct seats this history allows,
    /// each with the seats whose shares make the commit certificate.
    fn correct_states(&self) -> Vec<(Vec<ProcessId>, Acks)> {
        let (d, f) = (self.d, self.cfg.f());
        let mut menu = vec![None, acked(X, d, false)];
        if d == 2 {
            let view1 = self.view1.map_or(vec![X, Y], |v| vec![v]);
            menu.extend(view1.into_iter().map(|v| acked(v, 1, false)));
            menu.extend(self.y_certified.then(|| acked(Y, 2, false)));
        } else if self.proposed(Y, 1) {
            menu.push(acked(Y, 1, false));
        }
        let quorum = [self.cfg.fast_quorum(), self.cfg.slow_quorum()][self.slow as usize];
        let minimal = quorum.saturating_sub(self.byzantine.len());
        let correct = self.correct();
        let mut all = Vec::new();
        for (_, chosen) in subsets(&correct).filter(|(_, a)| a.len() == minimal) {
            let rest: Vec<ProcessId> = correct
                .iter()
                .copied()
                .filter(|p| !chosen.contains(&p))
                .collect();
            let decided = chosen.iter().map(|&&p| (p, acked(X, d, self.slow)));
            let mut ackers = self.byzantine.clone();
            ackers.extend(chosen.iter().copied());
            ackers.sort();
            for others in product(&vec![menu.clone(); rest.len()]) {
                let view1 = |v| others.iter().filter(|&&a| a == acked(v, 1, false)).count();
                if d == 2 && (view1(Y) > f || (self.y_certified && view1(X) > f)) {
                    continue;
                }
                let states = rest.iter().copied().zip(others).chain(decided.clone());
                all.push((ackers.clone(), states.collect()));
            }
        }
        all
    }
}

/// Runs `select` over `votes`; with `everyone`, every correct seat's vote
/// is among them.
fn check(history: &History, votes: &[&Cast], everyone: bool) {
    let set: BTreeMap<ProcessId, SignedVote> =
        votes.iter().map(|(p, _, sv)| (*p, sv.clone())).collect();
    let result = select(&history.cfg, DEST, &set);
    let safe = match &result {
        Ok(r) => r.outcome == Outcome::Constrained(Value::from_u64(X)),
        Err(_) => !everyone,
    };
    let shown = votes.iter().map(|(p, ack, _)| {
        let side = ["correct", "Byzantine"][history.faulty(*p) as usize];
        format!("{p} ({side}) {ack:?}")
    });
    let path = ["fast", "slow"][history.slow as usize];
    let shown = shown.collect::<Vec<_>>().join(", ");
    assert!(
        safe,
        "{}: x decided in view {} ({path}), votes [{shown}] → {result:?}",
        history.cfg, history.d
    );
}

/// Every subset of `items`, as a bitmask and the members.
fn subsets<T>(items: &[T]) -> impl Iterator<Item = (u32, Vec<&T>)> {
    (0..1u32 << items.len()).map(move |mask| {
        let members = (0..items.len()).filter(|i| mask & (1 << i) != 0);
        (mask, members.map(|i| &items[i]).collect())
    })
}

/// Every way to pick one entry of each list.
fn product<T: Clone>(lists: &[Vec<T>]) -> Vec<Vec<T>> {
    lists.iter().fold(vec![Vec::new()], |acc, list| {
        let extend = |prefix| {
            list.iter()
                .map(move |item| [prefix, &[item.clone()][..]].concat())
        };
        acc.iter().map(Vec::as_slice).flat_map(extend).collect()
    })
}

/// Runs every vote set of every history at `cfg`; returns how many
/// distinct sets `select` saw.
fn check_every_vote_set(cfg: Config) -> usize {
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), 1);
    let metrics = Metrics::new();
    // The leader's check, memoized by wire bytes.
    let mut valid: HashMap<Vec<u8>, bool> = HashMap::new();
    let mut is_valid = |sv: &SignedVote| {
        let entry = valid.entry(sv.to_wire_bytes());
        *entry.or_insert_with(|| sv.is_valid(&cfg, &dir, DEST, &metrics))
    };
    let mut checked: HashSet<(Votes, bool)> = HashSet::new();
    for history in History::all(cfg, &pairs) {
        let byzantine = history.byzantine_choices(&mut is_valid);
        let correct = history.correct().len();
        // Correct parts already combined with every Byzantine choice.
        let mut seen: HashSet<Votes> = HashSet::new();
        // A vote depends on the certificate's signers only if it has one.
        let mut built: HashMap<_, SignedVote> = HashMap::new();
        for (ackers, states) in history.correct_states() {
            let mut votes: Vec<Cast> = Vec::new();
            for (p, ack) in states {
                let signers = ack.filter(|a| a.cc).map(|_| ackers.clone());
                let sv = built.entry((p, ack, signers)).or_insert_with(|| {
                    let sv = history.vote(p, ack, &ackers);
                    assert!(is_valid(&sv), "{p}'s correct vote {ack:?}");
                    sv
                });
                votes.push((p, ack, sv.clone()));
            }
            for (mask, present) in subsets(&votes) {
                if !seen.insert(present.iter().map(|(p, ack, _)| (*p, *ack)).collect()) {
                    continue;
                }
                let everyone = mask.count_ones() as usize == correct;
                for choice in &byzantine {
                    let mut set = present.clone();
                    set.extend(choice.iter().flatten());
                    let mut key: Vec<_> = set.iter().map(|(p, ack, _)| (*p, *ack)).collect();
                    key.sort_by_key(|(p, _)| *p);
                    if set.len() >= cfg.vote_quorum() && checked.insert((key, everyone)) {
                        check(&history, &set, everyone);
                    }
                }
            }
        }
    }
    checked.len()
}

#[test]
fn every_vote_set_after_a_decision_selects_the_decided_value_or_waits() {
    for (cfg, pinned) in [
        (Config::new(4, 1, 1).unwrap(), 414),
        (Config::new(7, 2, 1).unwrap(), 207_910),
    ] {
        let sets = check_every_vote_set(cfg);
        println!("{cfg}: {sets} vote sets checked");
        assert_eq!(sets, pinned, "{cfg}");
    }
}
