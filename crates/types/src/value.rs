//! Consensus values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::sha256::{Digest, Sha256};
use crate::wire::{Decode, Encode, WireError, WireReader};

/// An opaque consensus value (the paper's `x`).
///
/// The protocol never inspects value contents; it only compares values for
/// equality and moves them around. `Value` is backed by [`Bytes`], so clones
/// are cheap reference bumps — important because the all-to-all `ack` phase
/// clones the proposed value `O(n²)` times per decision.
///
/// A value also carries a lazily computed, memoized SHA-256 digest (see
/// [`Value::digest`]) shared by all clones. Every signed statement in
/// the protocol embeds `H(x)` rather than the value bytes, so the digest is
/// on the sign/verify hot path; memoizing it means a value's bytes are
/// hashed at most once per allocation, no matter how many signatures
/// mention it. The digest is identity metadata, not content: it never
/// travels on the wire and is excluded from equality, ordering and hashing.
///
/// ```
/// use fastbft_types::Value;
/// let a = Value::from_u64(7);
/// let b = Value::new(7u64.to_be_bytes().to_vec());
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 8);
/// ```
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Value {
    bytes: Bytes,
    /// Memoized digest of `bytes`; `Arc` so clones share one computation.
    digest: Arc<OnceLock<Digest>>,
}

impl Value {
    /// Creates a value from raw bytes.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        Value {
            bytes: bytes.into(),
            digest: Arc::new(OnceLock::new()),
        }
    }

    /// Convenience constructor: the big-endian encoding of `x`.
    ///
    /// Used throughout tests and experiments where values are just labels
    /// (e.g. the lower-bound construction uses values `0` and `1`).
    pub fn from_u64(x: u64) -> Self {
        Value::new(Bytes::copy_from_slice(&x.to_be_bytes()))
    }

    /// Interprets the value as a big-endian `u64` if it is exactly 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.bytes.as_ref().try_into().ok()?;
        Some(u64::from_be_bytes(arr))
    }

    /// The raw bytes of the value.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the value in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The SHA-256 digest of the value bytes, memoized: clones share the
    /// cache, so across a process each allocation is hashed at most once.
    /// Nothing but this hash can fill the cache, so a value delivered as a
    /// clone reads the digest of its own bytes whoever sent it.
    pub fn digest(&self) -> &Digest {
        self.digest.get_or_init(|| Sha256::digest_of(&self.bytes))
    }
}

// Equality, ordering and hashing are over the value *bytes* only: the
// memoized digest is derived metadata and two values with different cache
// states must still compare equal.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bytes.cmp(&other.bytes)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Values are usually short labels; show them as integers when they
        // parse as one, otherwise as hex (truncated).
        if let Some(x) = self.as_u64() {
            write!(f, "Value({x})")
        } else {
            write!(f, "Value(0x")?;
            for b in self.bytes.iter().take(8) {
                write!(f, "{b:02x}")?;
            }
            if self.bytes.len() > 8 {
                write!(f, "…")?;
            }
            write!(f, ")")
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::new(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::new(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Encode for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.bytes.as_ref().encode(buf);
    }
}

impl Decode for Value {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bytes: Vec<u8> = Vec::<u8>::decode(r)?;
        Ok(Value::new(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn u64_roundtrip() {
        for x in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Value::from_u64(x).as_u64(), Some(x));
        }
    }

    #[test]
    fn non_u64_values() {
        assert_eq!(Value::from("abc").as_u64(), None);
        assert_eq!(Value::from("abc").len(), 3);
        assert!(Value::default().is_empty());
    }

    #[test]
    fn clones_are_equal_and_cheap() {
        let v = Value::new(vec![9u8; 1024]);
        let c = v.clone();
        assert_eq!(v, c);
        // Bytes clones share storage.
        assert_eq!(v.as_bytes().as_ptr(), c.as_bytes().as_ptr());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Value::default()).is_empty());
        assert_eq!(format!("{:?}", Value::from_u64(5)), "Value(5)");
        let long = Value::new(vec![0xFF; 20]);
        assert!(format!("{long:?}").contains('…'));
    }

    #[test]
    fn wire_roundtrips() {
        roundtrip(&Value::from_u64(99));
        roundtrip(&Value::from("hello world"));
        roundtrip(&Value::default());
    }

    #[test]
    fn digest_computed_once_and_shared_by_clones() {
        let v = Value::new(vec![3u8; 100]);
        let clone = v.clone();
        // Clones share the memo: both read the one cell.
        assert!(std::ptr::eq(v.digest(), clone.digest()));
        assert_eq!(*v.digest(), Sha256::digest(&[3u8; 100]));
    }

    #[test]
    fn digest_cache_does_not_affect_identity() {
        let a = Value::from_u64(7);
        let b = Value::from_u64(7);
        a.digest();
        // Only `a` has a cached digest; equality, ordering and hashing must
        // still treat the two as the same value.
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        // The interior mutability clippy flags here is exactly what this
        // test pins down: the memo is excluded from Eq/Ord/Hash.
        #[allow(clippy::mutable_key_type)]
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
