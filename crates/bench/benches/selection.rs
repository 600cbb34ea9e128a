//! Selection-algorithm benchmarks (§3.2): the view-change hot path.
//!
//! Measured per scenario because the equivocation branch does strictly more
//! work (exclusion loop + counting) than the common single-value branch.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbft_core::certs::{ProgressCert, SignedVote, VoteData};
use fastbft_core::payload::propose_payload;
use fastbft_core::selection::select;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_types::{Config, ProcessId, Value, View};

fn votes_single_value(cfg: &Config, pairs: &[KeyPair]) -> BTreeMap<ProcessId, SignedVote> {
    let x = Value::from_u64(7);
    let leader = cfg.leader(View::FIRST);
    pairs
        .iter()
        .take(cfg.vote_quorum())
        .map(|p| {
            let vd = VoteData {
                value: x.clone(),
                view: View::FIRST,
                progress_cert: ProgressCert::Genesis,
                leader_sig: pairs[leader.index()].sign(&propose_payload(&x, View::FIRST)),
                commit_cert: None,
            };
            (p.id(), SignedVote::sign(p, Some(vd), View(2)))
        })
        .collect()
}

fn votes_equivocation(cfg: &Config, pairs: &[KeyPair]) -> BTreeMap<ProcessId, SignedVote> {
    let leader = cfg.leader(View::FIRST);
    pairs
        .iter()
        .take(cfg.vote_quorum() + 1)
        .enumerate()
        .map(|(i, p)| {
            let x = Value::from_u64((i % 2) as u64);
            let vd = VoteData {
                value: x.clone(),
                view: View::FIRST,
                progress_cert: ProgressCert::Genesis,
                leader_sig: pairs[leader.index()].sign(&propose_payload(&x, View::FIRST)),
                commit_cert: None,
            };
            (p.id(), SignedVote::sign(p, Some(vd), View(2)))
        })
        .collect()
}

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    for f in [1usize, 2, 4, 8] {
        let cfg = Config::minimal(f, f);
        let (pairs, _dir) = KeyDirectory::generate(cfg.n(), 1);
        let single = votes_single_value(&cfg, &pairs);
        group.bench_with_input(
            BenchmarkId::new("single_value", cfg.n()),
            &single,
            |b, votes| b.iter(|| select(&cfg, View(2), std::hint::black_box(votes))),
        );
        let equiv = votes_equivocation(&cfg, &pairs);
        group.bench_with_input(
            BenchmarkId::new("equivocation", cfg.n()),
            &equiv,
            |b, votes| b.iter(|| select(&cfg, View(2), std::hint::black_box(votes))),
        );
    }
    group.finish();
}

fn bench_vote_validation(c: &mut Criterion) {
    let cfg = Config::minimal(2, 2);
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), 2);
    let votes = votes_single_value(&cfg, &pairs);
    let sv = votes.values().next().unwrap().clone();
    c.bench_function("signed_vote_is_valid", |b| {
        b.iter(|| std::hint::black_box(&sv).is_valid(&cfg, &dir, View(2), None));
    });
}

criterion_group!(benches, bench_select, bench_vote_validation);
criterion_main!(benches);
