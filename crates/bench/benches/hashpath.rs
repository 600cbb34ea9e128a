//! hashpath — sign/verify/cert-verify cost versus payload size.
//!
//! PR 5's digest-carried statements make every protocol signature operate
//! on a fixed 41-byte `tag ‖ H(x) ‖ v` buffer, with `H(x)` memoized on the
//! value. These benches pin the property the refactor claims: once a
//! value's digest is warm, signing, verifying and certificate verification
//! cost the **same** for an 8-byte label and a 1 KiB command batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbft_core::certs::CommitCert;
use fastbft_core::payload::{ack_payload, propose_payload};
use fastbft_crypto::KeyDirectory;
use fastbft_types::{Config, Value, View};

const PAYLOADS: [usize; 2] = [8, 1024];

/// A value of `size` bytes with its digest memo already warm — the steady
/// state of the hot path (the memo is filled the first time any statement
/// mentions the value).
fn warm_value(size: usize) -> Value {
    let x = Value::new(vec![0xAB; size]);
    let _ = propose_payload(&x, View(1));
    x
}

fn bench_sign(c: &mut Criterion) {
    let (pairs, _) = KeyDirectory::generate(7, 1);
    let mut group = c.benchmark_group("hashpath_sign");
    for size in PAYLOADS {
        let x = warm_value(size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &x, |b, x| {
            b.iter(|| pairs[0].sign(&propose_payload(std::hint::black_box(x), View(1))));
        });
    }
    group.finish();
}

fn bench_verify(c: &mut Criterion) {
    let (pairs, dir) = KeyDirectory::generate(7, 1);
    let mut group = c.benchmark_group("hashpath_verify");
    for size in PAYLOADS {
        let x = warm_value(size);
        let sig = pairs[0].sign(&propose_payload(&x, View(1)));
        group.bench_with_input(BenchmarkId::from_parameter(size), &x, |b, x| {
            b.iter(|| dir.verify(&propose_payload(std::hint::black_box(x), View(1)), &sig));
        });
    }
    group.finish();
}

fn bench_cert_verify(c: &mut Criterion) {
    let cfg = Config::new(7, 2, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(7, 2);
    let mut group = c.benchmark_group("hashpath_cert_verify");
    for size in PAYLOADS {
        let x = warm_value(size);
        let stmt = ack_payload(&x, View(1));
        let cert = CommitCert {
            value: x.clone(),
            view: View(1),
            sigs: pairs[..cfg.slow_quorum()]
                .iter()
                .map(|p| p.sign(&stmt))
                .collect(),
        };
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| std::hint::black_box(&cert).verify(&cfg, &dir, None));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sign, bench_verify, bench_cert_verify);
criterion_main!(benches);
