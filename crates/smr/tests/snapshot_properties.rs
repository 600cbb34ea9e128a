//! Property tests for state transfer: the snapshot/restore contract on the
//! KV machine (canonical, lossless, atomic) and the authenticated
//! snapshot-response validation under adversarial tampering.

use std::collections::BTreeMap;

use fastbft_crypto::KeyDirectory;
use fastbft_obs::Metrics;
use fastbft_sim::{check, Choices};
use fastbft_smr::{
    checkpoint_signature, snapshot_response_valid, KvCommand, KvStore, StateMachine,
};
use fastbft_types::Value;

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

/// The seed of one [`op`].
fn op_seed(c: &mut Choices) -> (u8, u8, u16) {
    (c.int(..), c.int(..), c.int(..))
}

fn store_after(ops: &[(u8, u8, u16)]) -> KvStore {
    let mut store = KvStore::new();
    for o in ops {
        store.apply(&op(*o));
    }
    store
}

/// `restore(snapshot())` reproduces the exact state: equal digests,
/// byte-identical re-snapshot (canonicality), and identical behavior
/// under further commands.
#[test]
fn kv_snapshot_restore_roundtrips() {
    check("kv_snapshot_restore_roundtrips", 64, |c| {
        let (ops, next) = (c.vec(0..64, op_seed), op_seed(c));
        let original = store_after(&ops);
        let bytes = original.snapshot();

        // Restore over a *dirty* target: install must fully replace state.
        let mut restored = store_after(&[(1, 9, 999)]);
        assert!(restored.restore(&bytes), "well-formed snapshot rejected");
        assert_eq!(restored.state_digest(), original.state_digest());
        assert_eq!(restored.snapshot(), bytes, "snapshot not canonical");

        // The restored machine behaves identically from here on.
        let mut a = original;
        let mut b = restored;
        a.apply(&op(next));
        b.apply(&op(next));
        assert_eq!(a.state_digest(), b.state_digest());
    });
}

/// `snapshot()` is byte for byte the reference pair-list encoding, on
/// stores of empty to 1 KiB keys and values, ASCII and multi-byte,
/// overwritten and deleted.
#[test]
fn kv_snapshot_is_the_pair_list_encoding() {
    check("kv_snapshot_is_the_pair_list_encoding", 64, |c| {
        let puts = c.vec(0..48, |c| (c.bytes(0..24), c.bytes(0..1100)));
        let ops = c.vec(0..64, op_seed);
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
        assert_eq!(store.snapshot(), fastbft_types::wire::to_bytes(&reference));
    });
}

/// Truncated snapshot bytes are rejected atomically: `restore` returns
/// `false` and the machine is untouched (digest and snapshot equal to
/// before the attempt).
#[test]
fn kv_restore_rejects_truncation_atomically() {
    check("kv_restore_rejects_truncation_atomically", 64, |c| {
        let (ops, cut_seed) = (c.vec(1..64, op_seed), c.int::<u16>(..));
        let donor = store_after(&ops);
        let bytes = donor.snapshot();
        assert!(!bytes.is_empty());
        let cut = cut_seed as usize % bytes.len();

        let mut target = store_after(&ops[..ops.len() / 2]);
        let digest_before = target.state_digest();
        let snapshot_before = target.snapshot();
        assert!(
            !target.restore(&bytes[..cut]),
            "truncated snapshot ({} of {} bytes) accepted",
            cut,
            bytes.len()
        );
        assert_eq!(
            target.state_digest(),
            digest_before,
            "failed restore mutated state"
        );
        assert_eq!(target.snapshot(), snapshot_before);
    });
}

/// A snapshot response carrying f+1 distinct valid attestations is
/// accepted — and any single-byte tamper of the payload, any change of
/// the claimed boundary, dropping below f+1 signers, or padding the
/// count with duplicate signers is rejected.
#[test]
fn snapshot_response_validation_is_tamper_evident() {
    check("snapshot_response_validation_is_tamper_evident", 64, |c| {
        let (payload, upto_seed) = (c.bytes(1..512), c.int::<u16>(..));
        let (seed, idx_seed) = (c.int::<u8>(..), c.int::<u16>(..));
        let (bit, delta_seed) = (c.int(0..8u8), c.int::<u16>(..));
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
        assert!(valid(upto, &payload, &sigs));

        // Single-byte tamper of the payload: every attestation now covers
        // the wrong digest.
        let mut tampered = payload.clone();
        let idx = idx_seed as usize % tampered.len();
        tampered[idx] ^= 1 << bit;
        assert!(
            !valid(upto, &tampered, &sigs),
            "flipping bit {bit} of byte {idx} went undetected"
        );

        // Tampered boundary: the signed statement binds `upto`.
        let wrong_upto = upto + 1 + delta_seed as u64;
        assert!(!valid(wrong_upto, &payload, &sigs));

        // f valid signers are not enough.
        assert!(!valid(upto, &payload, &sigs[..1]));

        // Duplicates of one signer must not be counted as distinct peers.
        let padded = vec![sigs[0].clone(), sigs[0].clone(), sigs[0].clone()];
        assert!(!valid(upto, &payload, &padded));
    });
}
