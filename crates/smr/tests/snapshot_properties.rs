//! Property tests for state transfer: the snapshot/restore contract on the
//! KV machine (canonical, lossless, atomic) and the authenticated
//! snapshot-response validation under adversarial tampering.

use std::collections::BTreeMap;

use fastbft_crypto::KeyDirectory;
use fastbft_obs::Metrics;
use fastbft_smr::{
    checkpoint_signature, snapshot_response_valid, KvCommand, KvStore, StateMachine,
};
use fastbft_types::Value;
use proptest::prelude::*;

/// One entry of the reference snapshot encoding: the store's sorted pairs
/// collected into a list, then encoded as `Vec<Pair>` — what
/// `KvStore::snapshot` built before it wrote the same bytes from the map.
#[derive(Debug)]
struct Pair {
    key: String,
    value: String,
}

fastbft_types::impl_wire_struct!(Pair { key, value });

/// A small op alphabet so keys collide often — puts overwrite, deletes hit
/// live keys, and the ghost cases (delete of a missing key) all occur.
fn op(seed: (u8, u8, u16)) -> Value {
    let (kind, k, v) = seed;
    let cmd = if kind % 3 == 0 {
        KvCommand::Delete {
            key: format!("k{}", k % 16),
        }
    } else {
        KvCommand::Put {
            key: format!("k{}", k % 16),
            value: format!("v{v}"),
        }
    };
    cmd.to_value()
}

fn store_after(ops: &[(u8, u8, u16)]) -> KvStore {
    let mut store = KvStore::new();
    for o in ops {
        store.apply(&op(*o));
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `restore(snapshot())` reproduces the exact state: equal digests,
    /// byte-identical re-snapshot (canonicality), and identical behavior
    /// under further commands.
    #[test]
    fn kv_snapshot_restore_roundtrips(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 0..64),
        next in (any::<u8>(), any::<u8>(), any::<u16>()),
    ) {
        let original = store_after(&ops);
        let bytes = original.snapshot();

        // Restore over a *dirty* target: install must fully replace state.
        let mut restored = store_after(&[(1, 9, 999)]);
        prop_assert!(restored.restore(&bytes), "well-formed snapshot rejected");
        prop_assert_eq!(restored.state_digest(), original.state_digest());
        prop_assert_eq!(restored.snapshot(), bytes, "snapshot not canonical");

        // The restored machine behaves identically from here on.
        let mut a = original;
        let mut b = restored;
        a.apply(&op(next));
        b.apply(&op(next));
        prop_assert_eq!(a.state_digest(), b.state_digest());
    }

    /// `snapshot()` is byte for byte the reference pair-list encoding, on
    /// stores of empty to 1 KiB keys and values, ASCII and multi-byte,
    /// overwritten and deleted.
    #[test]
    fn kv_snapshot_is_the_pair_list_encoding(
        puts in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..24),
                proptest::collection::vec(any::<u8>(), 0..1100),
            ),
            0..48,
        ),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 0..64),
    ) {
        let puts = puts.iter().map(|(k, v)| KvCommand::Put {
            key: String::from_utf8_lossy(k).into_owned(),
            value: String::from_utf8_lossy(v).into_owned(),
        });
        let ops = ops.iter().map(|o| KvCommand::from_value(&op(*o)).unwrap());
        let mut store = KvStore::new();
        let mut model = BTreeMap::new();
        for cmd in puts.chain(ops) {
            store.apply(&cmd.to_value());
            match cmd {
                KvCommand::Put { key, value } => {
                    model.insert(key, value);
                }
                KvCommand::Delete { key } => {
                    model.remove(&key);
                }
                _ => unreachable!("only puts and deletes are generated"),
            }
        }
        let reference: Vec<Pair> = model
            .into_iter()
            .map(|(key, value)| Pair { key, value })
            .collect();
        prop_assert_eq!(store.snapshot(), fastbft_types::wire::to_bytes(&reference));
    }

    /// Truncated snapshot bytes are rejected atomically: `restore` returns
    /// `false` and the machine is untouched (digest and snapshot equal to
    /// before the attempt).
    #[test]
    fn kv_restore_rejects_truncation_atomically(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..64),
        cut_seed in any::<u16>(),
    ) {
        let donor = store_after(&ops);
        let bytes = donor.snapshot();
        prop_assert!(!bytes.is_empty());
        let cut = cut_seed as usize % bytes.len();

        let mut target = store_after(&ops[..ops.len() / 2]);
        let digest_before = target.state_digest();
        let snapshot_before = target.snapshot();
        prop_assert!(
            !target.restore(&bytes[..cut]),
            "truncated snapshot ({} of {} bytes) accepted",
            cut,
            bytes.len()
        );
        prop_assert_eq!(target.state_digest(), digest_before, "failed restore mutated state");
        prop_assert_eq!(target.snapshot(), snapshot_before);
    }

    /// A snapshot response carrying f+1 distinct valid attestations is
    /// accepted — and any single-byte tamper of the payload, any change of
    /// the claimed boundary, dropping below f+1 signers, or padding the
    /// count with duplicate signers is rejected.
    #[test]
    fn snapshot_response_validation_is_tamper_evident(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        upto_seed in any::<u16>(),
        seed in any::<u8>(),
        idx_seed in any::<u16>(),
        bit in 0u8..8,
        delta_seed in any::<u16>(),
    ) {
        let (pairs, dir) = KeyDirectory::generate(4, seed as u64);
        let f = 1usize;
        let upto = (upto_seed as u64 + 1) * 16;
        let digest = fastbft_crypto::digest(&payload);
        let metrics = Metrics::new();
        let valid = |upto, payload: &[u8], sigs: &[_]| {
            snapshot_response_valid(&dir, &metrics, f, upto, payload, sigs)
        };

        // Exactly f+1 = 2 distinct signers: the acceptance threshold.
        let sigs: Vec<_> = pairs[..2]
            .iter()
            .map(|kp| checkpoint_signature(kp, &Metrics::new(), upto, &digest))
            .collect();
        prop_assert!(valid(upto, &payload, &sigs));

        // Single-byte tamper of the payload: every attestation now covers
        // the wrong digest.
        let mut tampered = payload.clone();
        let idx = idx_seed as usize % tampered.len();
        tampered[idx] ^= 1 << bit;
        prop_assert!(
            !valid(upto, &tampered, &sigs),
            "flipping bit {} of byte {} went undetected",
            bit,
            idx
        );

        // Tampered boundary: the signed statement binds `upto`.
        let wrong_upto = upto + 1 + delta_seed as u64;
        prop_assert!(!valid(wrong_upto, &payload, &sigs));

        // f valid signers are not enough.
        prop_assert!(!valid(upto, &payload, &sigs[..1]));

        // Duplicates of one signer must not be counted as distinct peers.
        let padded = vec![sigs[0].clone(), sigs[0].clone(), sigs[0].clone()];
        prop_assert!(!valid(upto, &payload, &padded));
    }
}
