//! E11 — crypto microbenchmarks.
//!
//! Context for two protocol design points: (a) signing is expensive enough
//! that the slow path ships `φ_ack` in a separate message so the fast path
//! never waits for it (Appendix A.1); (b) certificate verification cost is
//! proportional to signature count, which is why bounding certificates at
//! `f + 1` signatures matters (§3.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fastbft_crypto::{hmac::hmac_sha256, sha256::Sha256, KeyDirectory, SignatureSet};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| Sha256::digest(std::hint::black_box(data)));
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let key = [7u8; 32];
    let msg = vec![1u8; 256];
    c.bench_function("hmac_sha256/256B", |b| {
        b.iter(|| hmac_sha256(std::hint::black_box(&key), std::hint::black_box(&msg)));
    });
}

fn bench_sign_verify(c: &mut Criterion) {
    let (pairs, dir) = KeyDirectory::generate(16, 1);
    let msg = b"(propose, x, 42)";
    c.bench_function("sign", |b| {
        b.iter(|| pairs[0].sign(std::hint::black_box(msg)));
    });
    let sig = pairs[0].sign(msg);
    c.bench_function("verify", |b| {
        b.iter(|| dir.verify(std::hint::black_box(msg), &sig));
    });
}

fn bench_certificates(c: &mut Criterion) {
    let (pairs, dir) = KeyDirectory::generate(32, 2);
    let msg = b"(CertAck, x, 7)";
    let mut group = c.benchmark_group("certificate_verify");
    // f + 1 for f = 1..=6 — progress certs; larger sets — commit certs.
    for signers in [2usize, 4, 8, 17] {
        let set: SignatureSet = pairs[..signers].iter().map(|p| p.sign(msg)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(signers), &set, |b, set| {
            b.iter(|| set.verify(std::hint::black_box(msg), &dir, signers, &mut 0));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hmac,
    bench_sign_verify,
    bench_certificates
);
criterion_main!(benches);
