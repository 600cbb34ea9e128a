//! Per-process keys, signatures and the verification directory.

use std::fmt;
use std::sync::Arc;

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
            },
        )
    }

    /// Does nothing: every [`verify`](KeyDirectory::verify) computes its MAC.
    ///
    /// Vestige: the shared verification memo it once switched on is gone; the frozen `benchmark/src/probes.rs` still calls it.
    pub fn enable_shared_memo(&self) {}

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
        digest_eq(&engine.mac_parts(parts), &sig.tag)
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
            assert!(dir.verify_parts(&[b"mess", b"age"], &sig));
            assert!(!dir.verify(b"other", &sig));
            // Parts whose concatenation is another statement.
            assert!(!dir.verify_parts(&[b"mess", b"age!"], &sig));
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
