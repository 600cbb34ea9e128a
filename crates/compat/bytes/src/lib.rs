//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The build environment for this workspace has no access to a crates
//! registry, so external dependencies are vendored as minimal API-compatible
//! shims under `crates/compat/`. This crate provides the subset of `bytes`
//! the workspace actually uses: a cheaply cloneable, immutable byte
//! container. Clones share the underlying allocation (reference counting),
//! which the workspace relies on — consensus values are cloned `O(n²)` times
//! per decision.
//!
//! To switch to the real crate, delete `crates/compat/bytes` and point the
//! `bytes` dependency entries at the registry instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable contiguous slice of memory.
///
/// Clones are reference bumps: the bytes themselves are stored once behind an
/// [`Arc`], so two clones observe the same allocation. The backing store is
/// an `Arc<Vec<u8>>` (not `Arc<[u8]>`) so `From<Vec<u8>>` is a **move**, not
/// a copy — the decode hot path builds a `Vec` per value and must not pay a
/// second allocation+memcpy to make it shareable.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Arc<Vec<u8>>);

impl Bytes {
    /// Creates a new empty `Bytes`.
    pub fn new() -> Self {
        Bytes(Arc::new(Vec::new()))
    }

    /// Creates a `Bytes` holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::new(data.to_vec()))
    }

    /// Number of bytes contained.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the container holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for b in self.0.iter() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        // A move: the Vec's allocation becomes the shared backing store.
        Bytes(Arc::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn ordering_and_default() {
        assert!(Bytes::from(b"a".to_vec()) < Bytes::from(b"b".to_vec()));
        assert!(Bytes::default().is_empty());
    }
}
