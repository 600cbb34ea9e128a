//! Cryptographic substrate for `fastbft`.
//!
//! The paper assumes each process holds a public/private key pair and that
//! the adversary cannot forge signatures of correct processes (§2.1). This
//! crate provides that substrate without external dependencies:
//!
//! * [`sha256`] — SHA-256 implemented from scratch, validated against
//!   FIPS 180-4 / NIST CAVP vectors (it lives in `fastbft_types`, beside
//!   the `Value` whose digest it memoizes, and is re-exported here);
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against RFC 4231 vectors;
//! * [`session`] — per-connection session MACs (`fastbft-net` frames), so a
//!   socket peer cannot spoof its `ProcessId` or replay frames;
//! * [`KeyPair`] / [`KeyDirectory`] — per-process signing keys and the
//!   verification directory;
//! * [`Signature`] / [`SignatureSet`] — fixed-size signatures and multi-signer
//!   collections used by progress and commit certificates.
//!
//! # Substitution note
//!
//! Signatures are HMAC-SHA256 tags rather than asymmetric signatures. In a
//! single-address-space simulation this is sound: Byzantine actors are our
//! own scripted code and can only produce signatures through [`KeyPair`]s
//! they were given, so unforgeability holds *by construction*, and every
//! property the protocol relies on — unforgeable, transferable,
//! constant-size evidence bound to `(signer, message bytes)` — is preserved.
//! Certificate sizes scale identically (one 32-byte tag per signer). A real
//! deployment would swap in Ed25519 behind the same API.
//!
//! ```
//! use fastbft_crypto::KeyDirectory;
//!
//! let (pairs, directory) = KeyDirectory::generate(4, 42);
//! let sig = pairs[0].sign(b"propose x in view 1");
//! assert!(directory.verify(b"propose x in view 1", &sig));
//! assert!(!directory.verify(b"propose y in view 1", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
mod keys;
pub mod session;
mod sigset;

pub use fastbft_types::sha256;
/// 32-byte digest type shared by [`sha256`] and [`hmac`].
pub use fastbft_types::sha256::Digest;
pub use keys::{KeyDirectory, KeyPair, SecretKey, Signature};
pub use sigset::SignatureSet;

/// Computes the SHA-256 digest of `data` (convenience wrapper).
pub fn digest(data: &[u8]) -> Digest {
    sha256::Sha256::digest(data)
}

/// The canonical (memoized) SHA-256 digest of a consensus value:
/// [`fastbft_types::Value::digest`].
///
/// This is THE value-digest function of the protocol: every digest-carried
/// signed statement embeds it, and SMR command dedup keys on it.
pub fn value_digest(value: &fastbft_types::Value) -> &Digest {
    value.digest()
}
