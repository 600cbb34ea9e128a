//! Property tests for the crypto substrate: hashing, MACs, signatures and
//! certificate sets under randomized inputs.

use fastbft_crypto::{digest, hmac::hmac_sha256, sha256::Sha256, KeyDirectory, SignatureSet};
use fastbft_types::wire::{from_bytes, to_bytes};
use fastbft_types::ProcessId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Streaming over arbitrary chunkings equals the one-shot digest.
    #[test]
    fn sha256_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        cuts in proptest::collection::vec(1usize..64, 0..16),
    ) {
        let oneshot = Sha256::digest(&data);
        let mut hasher = Sha256::new();
        let mut rest: &[u8] = &data;
        for cut in cuts {
            if rest.is_empty() { break; }
            let k = cut.min(rest.len());
            let (head, tail) = rest.split_at(k);
            hasher.update(head);
            rest = tail;
        }
        hasher.update(rest);
        prop_assert_eq!(hasher.finalize(), oneshot);
    }

    /// Different inputs (by even one byte) give different digests; appending
    /// changes the digest. (Not a collision-resistance proof — a sanity
    /// property that would catch padding/length bugs.)
    #[test]
    fn sha256_length_extension_sanity(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        extra in 1u8..=255,
    ) {
        let base = Sha256::digest(&data);
        let mut longer = data.clone();
        longer.push(extra);
        prop_assert_ne!(Sha256::digest(&longer), base);
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= extra;
            prop_assert_ne!(Sha256::digest(&flipped), base);
        }
        prop_assert_eq!(digest(&data), base);
    }

    /// HMAC separates both by key and by message.
    #[test]
    fn hmac_separation(
        key_a in proptest::collection::vec(any::<u8>(), 1..64),
        key_b in proptest::collection::vec(any::<u8>(), 1..64),
        msg_a in proptest::collection::vec(any::<u8>(), 0..128),
        msg_b in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        if key_a != key_b {
            prop_assert_ne!(hmac_sha256(&key_a, &msg_a), hmac_sha256(&key_b, &msg_a));
        }
        if msg_a != msg_b {
            prop_assert_ne!(hmac_sha256(&key_a, &msg_a), hmac_sha256(&key_a, &msg_b));
        }
    }

    /// Signatures verify exactly for (their signer, their message).
    #[test]
    fn signature_binding(
        n in 2usize..8,
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
        other in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let (pairs, dir) = KeyDirectory::generate(n, seed);
        let sig = pairs[0].sign(&msg);
        prop_assert!(dir.verify(&msg, &sig));
        if other != msg {
            prop_assert!(!dir.verify(&other, &sig));
        }
        // Claiming the tag under a different identity fails.
        let forged = fastbft_crypto::Signature::from_parts(ProcessId(2), *sig.tag());
        prop_assert!(!dir.verify(&msg, &forged));
        // Wire round-trip preserves validity.
        let decoded: fastbft_crypto::Signature = from_bytes(&to_bytes(&sig)).unwrap();
        prop_assert!(dir.verify(&msg, &decoded));
    }

    /// SignatureSet thresholds: k distinct signers verify at threshold k and
    /// fail at k + 1; duplicate inserts never inflate the count.
    #[test]
    fn signature_set_threshold_exact(
        n in 2usize..10,
        seed in any::<u64>(),
        dup_rounds in 1usize..4,
    ) {
        let (pairs, dir) = KeyDirectory::generate(n, seed);
        let msg = b"statement";
        let mut set = SignatureSet::new();
        for _ in 0..dup_rounds {
            for p in &pairs {
                set.insert(p.sign(msg));
            }
        }
        prop_assert_eq!(set.len(), n);
        prop_assert!(set.verify(msg, &dir, n, &mut 0));
        prop_assert!(!set.verify(msg, &dir, n + 1, &mut 0));
        // Wire round-trip preserves the set.
        let decoded: SignatureSet = from_bytes(&to_bytes(&set)).unwrap();
        prop_assert_eq!(decoded, set);
    }
}

#[test]
fn distinct_directories_do_not_cross_verify() {
    let (pairs_a, _dir_a) = KeyDirectory::generate(4, 1);
    let (_pairs_b, dir_b) = KeyDirectory::generate(4, 2);
    let sig = pairs_a[0].sign(b"m");
    assert!(
        !dir_b.verify(b"m", &sig),
        "independent systems must not share keys"
    );
}
