//! Per-process keys, signatures and the verification directory.

use std::collections::HashSet;
use std::fmt;
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::ProcessId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::hmac::{digest_eq, HmacEngine};
use crate::Digest;

/// A process's secret signing key (32 random bytes).
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey([u8; 32]);

impl SecretKey {
    /// Generates a fresh key from an RNG.
    pub fn generate(rng: &mut impl RngCore) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        SecretKey(bytes)
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(…)")
    }
}

/// A signature: a fixed-size tag over message bytes, attributable to the
/// signing process.
///
/// The signer identity travels with the tag; verification checks the tag
/// against the *claimed* signer's key, so a Byzantine process cannot make its
/// signature pass as another process's.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The process that produced the signature.
    pub signer: ProcessId,
    tag: Digest,
}

impl Signature {
    /// Constructs a signature from raw parts (used by tests that need to
    /// build *invalid* signatures).
    pub fn from_parts(signer: ProcessId, tag: Digest) -> Self {
        Signature { signer, tag }
    }

    /// The raw tag bytes.
    pub fn tag(&self) -> &Digest {
        &self.tag
    }

    /// Size of a signature on the wire, in bytes (tag + signer id).
    pub const WIRE_SIZE: usize = 32 + 4;
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({} · {:02x}{:02x}{:02x}{:02x}…)",
            self.signer, self.tag[0], self.tag[1], self.tag[2], self.tag[3]
        )
    }
}

impl Encode for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.signer.encode(buf);
        buf.extend_from_slice(&self.tag);
    }
}

impl Decode for Signature {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let signer = ProcessId::decode(r)?;
        let tag: Digest = r.take(32)?.try_into().expect("sized take");
        Ok(Signature { signer, tag })
    }
}

/// A process's signing identity: its id plus its secret key (with the
/// key's HMAC midstates precomputed — signing is on the per-frame hot
/// path).
#[derive(Clone, Debug)]
pub struct KeyPair {
    id: ProcessId,
    engine: HmacEngine,
}

impl KeyPair {
    /// The owning process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs `message`, producing a [`Signature`] attributable to this
    /// process.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            signer: self.id,
            tag: self.engine.mac(message),
        }
    }

    /// Signs the concatenation of `parts` without materializing it (the
    /// per-frame hot path — see [`HmacEngine::mac_parts`]).
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        Signature {
            signer: self.id,
            tag: self.engine.mac_parts(parts),
        }
    }
}

/// Longest statement the shared verification memo will key on. Protocol
/// statements are 41 bytes (`tag ‖ H(m) ‖ v`) and checkpoint attestations
/// 48; anything longer skips the memo rather than growing the key.
const MEMO_STATEMENT_MAX: usize = 64;

/// Bound on the shared verification memo. On overflow the memo is cleared
/// wholesale: correctness never depends on a hit, and a reset costs at
/// most one re-verification per live statement.
const MEMO_CAP: usize = 1 << 14;

/// Key of one memoized verification: the claimed signer, the *full*
/// statement bytes, and the signature tag. All three are bound, so a hit
/// can only reproduce a previously successful check of the identical
/// triple — a tag memoized for one statement can never vouch for another.
#[derive(PartialEq, Eq, Hash)]
struct MemoKey {
    signer: ProcessId,
    tag: Digest,
    len: u8,
    stmt: [u8; MEMO_STATEMENT_MAX],
}

impl MemoKey {
    /// Builds the key for `(parts, sig)`; `None` when the concatenated
    /// statement exceeds [`MEMO_STATEMENT_MAX`] (such checks skip the memo).
    fn build(parts: &[&[u8]], sig: &Signature) -> Option<MemoKey> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if total > MEMO_STATEMENT_MAX {
            return None;
        }
        let mut stmt = [0u8; MEMO_STATEMENT_MAX];
        let mut at = 0;
        for part in parts {
            stmt[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Some(MemoKey {
            signer: sig.signer,
            tag: *sig.tag(),
            len: total as u8,
            stmt,
        })
    }
}

impl fmt::Debug for MemoKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Statement bytes can embed digests of values; keep Debug terse.
        write!(f, "MemoKey({} · {} bytes)", self.signer, self.len)
    }
}

/// The shared cross-clone verification memo (see
/// [`KeyDirectory::enable_shared_memo`]). Only *successful* checks are
/// recorded, so garbage can never poison it.
#[derive(Debug, Default)]
struct VerifyMemo {
    seen: Mutex<HashSet<MemoKey>>,
}

impl VerifyMemo {
    fn contains(&self, key: &MemoKey) -> bool {
        self.seen.lock().expect("memo poisoned").contains(key)
    }

    fn insert(&self, key: MemoKey) {
        let mut seen = self.seen.lock().expect("memo poisoned");
        if seen.len() >= MEMO_CAP {
            seen.clear();
        }
        seen.insert(key);
    }
}

/// The verification directory: maps each process id to its verification key.
///
/// Plays the role of the paper's PKI ("every process knows the identifiers
/// and public keys of every other process", §2.1). With HMAC-backed
/// signatures the verification key *is* the MAC key; see the crate-level
/// substitution note for why this is sound inside the simulator.
///
/// The directory is cheaply cloneable (`Arc` inside) so every replica,
/// checker and test can hold one.
#[derive(Clone, Debug)]
pub struct KeyDirectory {
    engines: Arc<Vec<HmacEngine>>,
    /// MAC computations performed by [`KeyDirectory::verify`]; shared by
    /// clones. The shared memo below is specified as "the HMAC work
    /// happens once": its tests diff this count around a call to assert
    /// that, per directory. A replica counts its checks in its `Metrics`.
    #[cfg(test)]
    verifications: Arc<AtomicU64>,
    /// Cross-clone memo of *successful* verifications, disabled by default
    /// (`OnceLock` stays empty). A `OnceLock` rather than an
    /// `Option<Arc<…>>` so that [`enable_shared_memo`] on any clone turns
    /// the memo on for every clone already handed out.
    ///
    /// [`enable_shared_memo`]: KeyDirectory::enable_shared_memo
    memo: Arc<OnceLock<VerifyMemo>>,
}

impl KeyDirectory {
    /// Generates keys for processes `p1 ..= pn` deterministically from
    /// `seed`, returning each process's [`KeyPair`] and the shared directory.
    ///
    /// Determinism matters: the whole simulator is reproducible from seeds.
    pub fn generate(n: usize, seed: u64) -> (Vec<KeyPair>, KeyDirectory) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_4b45_59a5_a5a5);
        let keys: Vec<SecretKey> = (0..n).map(|_| SecretKey::generate(&mut rng)).collect();
        let engines: Vec<HmacEngine> = keys.iter().map(|k| HmacEngine::new(&k.0)).collect();
        let pairs = engines
            .iter()
            .enumerate()
            .map(|(i, engine)| KeyPair {
                id: ProcessId::from_index(i),
                engine: engine.clone(),
            })
            .collect();
        (
            pairs,
            KeyDirectory {
                engines: Arc::new(engines),
                #[cfg(test)]
                verifications: Arc::new(AtomicU64::new(0)),
                memo: Arc::new(OnceLock::new()),
            },
        )
    }

    /// Turns on the shared verification memo for this directory *and every
    /// clone of it*, existing or future.
    ///
    /// Vestige: nothing in the workspace calls it; the frozen `benchmark/src/probes.rs` times the memo.
    ///
    /// With the memo on, a successful [`verify`](KeyDirectory::verify) of a
    /// `(signer, statement, tag)` triple is recorded, and any later check of
    /// the identical triple — from any clone, any thread — returns `true`
    /// without redoing the MAC.
    ///
    /// Only successes are memoized, and the key binds the full statement
    /// bytes, so the memo can never accept anything the MAC would reject.
    /// Off by default.
    pub fn enable_shared_memo(&self) {
        self.memo.get_or_init(VerifyMemo::default);
    }

    /// Whether [`enable_shared_memo`](KeyDirectory::enable_shared_memo) has
    /// been called on this directory or any clone of it.
    pub fn shared_memo_enabled(&self) -> bool {
        self.memo.get().is_some()
    }

    /// Number of processes the directory knows about.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Verifies that `sig` is a valid signature by `sig.signer` over
    /// `message`. Unknown signers verify as `false`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_parts(&[message], sig)
    }

    /// [`KeyDirectory::verify`] over the concatenation of `parts` without
    /// materializing it (the per-frame hot path — see
    /// [`HmacEngine::mac_parts`]).
    pub fn verify_parts(&self, parts: &[&[u8]], sig: &Signature) -> bool {
        let Some(engine) = self
            .engines
            .get(sig.signer.0.wrapping_sub(1) as usize)
            .filter(|_| sig.signer.0 >= 1)
        else {
            return false;
        };
        let memo_key = match self.memo.get() {
            Some(memo) => {
                let key = MemoKey::build(parts, sig);
                if let Some(k) = &key {
                    if memo.contains(k) {
                        // A recorded success of this exact triple: the MAC
                        // already matched once, skip recomputing it. No
                        // `verifications` bump — the counter counts MACs.
                        return true;
                    }
                }
                key
            }
            None => None,
        };
        #[cfg(test)]
        self.verifications.fetch_add(1, Ordering::Relaxed);
        let ok = digest_eq(&engine.mac_parts(parts), &sig.tag);
        if ok {
            if let (Some(memo), Some(key)) = (self.memo.get(), memo_key) {
                memo.insert(key);
            }
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::wire::roundtrip;

    #[test]
    fn sign_verify_roundtrip() {
        let (pairs, dir) = KeyDirectory::generate(4, 7);
        for pair in &pairs {
            let sig = pair.sign(b"message");
            assert!(dir.verify(b"message", &sig));
            assert!(!dir.verify(b"other", &sig));
        }
    }

    #[test]
    fn signature_not_transferable_between_signers() {
        let (pairs, dir) = KeyDirectory::generate(4, 7);
        let sig = pairs[0].sign(b"m");
        // Claiming someone else's signature as your own must fail.
        let forged = Signature::from_parts(ProcessId(2), *sig.tag());
        assert!(!dir.verify(b"m", &forged));
    }

    #[test]
    fn unknown_signer_rejected() {
        let (_pairs, dir) = KeyDirectory::generate(4, 7);
        let bogus = Signature::from_parts(ProcessId(9), [0; 32]);
        assert!(!dir.verify(b"m", &bogus));
        let zero = Signature::from_parts(ProcessId(0), [0; 32]);
        assert!(!dir.verify(b"m", &zero));
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = KeyDirectory::generate(3, 99);
        let (b, _) = KeyDirectory::generate(3, 99);
        let (c, _) = KeyDirectory::generate(3, 100);
        assert_eq!(a[0].sign(b"x"), b[0].sign(b"x"));
        assert_ne!(a[0].sign(b"x"), c[0].sign(b"x"));
    }

    #[test]
    fn keys_are_distinct_across_processes() {
        let (pairs, _) = KeyDirectory::generate(8, 1);
        let tags: Vec<_> = pairs.iter().map(|p| p.sign(b"m")).collect();
        for i in 0..tags.len() {
            for j in i + 1..tags.len() {
                assert_ne!(tags[i].tag(), tags[j].tag());
            }
        }
    }

    #[test]
    fn signature_wire_roundtrip() {
        let (pairs, _) = KeyDirectory::generate(2, 5);
        let sig = pairs[1].sign(b"payload");
        roundtrip(&sig);
        let sigs = vec![pairs[0].sign(b"a"), pairs[1].sign(b"a")];
        roundtrip(&sigs);
        // Wire size matches the constant.
        assert_eq!(sig.to_wire_bytes().len(), Signature::WIRE_SIZE);
    }

    #[test]
    fn memo_disabled_by_default() {
        let (pairs, dir) = KeyDirectory::generate(2, 11);
        assert!(!dir.shared_memo_enabled());
        let sig = pairs[0].sign(b"m");
        assert!(dir.verify(b"m", &sig));
        assert!(dir.verify(b"m", &sig));
        // Without the memo every verify pays a MAC.
        assert_eq!(dir.verifications.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn memo_hit_skips_the_mac() {
        let (pairs, dir) = KeyDirectory::generate(2, 11);
        dir.enable_shared_memo();
        let sig = pairs[0].sign(b"statement");
        assert!(dir.verify(b"statement", &sig));
        let before = dir.verifications.load(Ordering::Relaxed);
        // Same triple again, and through a *clone* — both must hit.
        assert!(dir.verify(b"statement", &sig));
        assert!(dir.clone().verify(b"statement", &sig));
        assert_eq!(dir.verifications.load(Ordering::Relaxed), before);
    }

    #[test]
    fn memo_never_vouches_for_a_different_statement_or_signer() {
        let (pairs, dir) = KeyDirectory::generate(2, 11);
        dir.enable_shared_memo();
        let sig = pairs[0].sign(b"good");
        assert!(dir.verify(b"good", &sig));
        // The memoized tag must not transfer to another statement, another
        // claimed signer, or a split of the same bytes with different
        // lengths claimed.
        assert!(!dir.verify(b"evil", &sig));
        assert!(!dir.verify(b"good", &Signature::from_parts(ProcessId(2), *sig.tag())));
        assert!(!dir.verify_parts(&[b"go", b"od!"], &sig));
    }

    #[test]
    fn memo_enable_propagates_to_preexisting_clones() {
        let (pairs, dir) = KeyDirectory::generate(2, 11);
        let earlier_clone = dir.clone();
        dir.enable_shared_memo();
        assert!(earlier_clone.shared_memo_enabled());
        let sig = pairs[1].sign(b"warmed");
        // Warm through one clone, hit through the other.
        assert!(dir.verify(b"warmed", &sig));
        let before = earlier_clone.verifications.load(Ordering::Relaxed);
        assert!(earlier_clone.verify(b"warmed", &sig));
        assert_eq!(earlier_clone.verifications.load(Ordering::Relaxed), before);
    }

    #[test]
    fn oversized_statements_bypass_the_memo() {
        let (pairs, dir) = KeyDirectory::generate(2, 11);
        dir.enable_shared_memo();
        let long = vec![7u8; MEMO_STATEMENT_MAX + 1];
        let sig = pairs[0].sign(&long);
        assert!(dir.verify(&long, &sig));
        let before = dir.verifications.load(Ordering::Relaxed);
        // Verifies fine, but pays the MAC again: no memo entry was made.
        assert!(dir.verify(&long, &sig));
        assert_eq!(dir.verifications.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let (pairs, dir) = KeyDirectory::generate(1, 1);
        // The keyed HMAC midstates are key-equivalent: both the pair and
        // the directory must redact them.
        let dbg = format!("{:?}", pairs[0]);
        assert!(dbg.contains("HmacEngine(…)"), "{dbg}");
        let dbg = format!("{dir:?}");
        assert!(dbg.contains("HmacEngine(…)"), "{dbg}");
        let dbg = format!("{:?}", SecretKey::generate(&mut StdRng::seed_from_u64(1)));
        assert!(dbg.contains("SecretKey(…)"), "{dbg}");
    }
}
