//! Deterministic binary codec.
//!
//! The protocol signs message *bytes*, so the byte encoding of a message is
//! part of the protocol: it must be canonical (one value → exactly one byte
//! string) and self-delimiting. This module provides a small, dependency-free
//! codec with those properties:
//!
//! * fixed-width big-endian integers,
//! * length-prefixed byte strings and sequences (`u32` lengths),
//! * `Option<T>` as a one-byte tag followed by the payload,
//! * structs encoded field-by-field in declaration order
//!   ([`impl_wire_struct!`](crate::impl_wire_struct)),
//! * enums as a one-byte tag followed by the variant's fields, from one
//!   tag table per enum ([`impl_wire_enum!`](crate::impl_wire_enum)): each
//!   tag is written once, and every tag without a row is refused.
//!
//! Replicas sign encodings, so a tag table is part of the protocol. A
//! hand-written codec is still the right choice where decoding enforces a
//! condition the field list cannot say — `SignatureSet`'s strictly
//! ascending signers, `Dedup`'s canonical order — or where the type is not
//! a field list (`Value`, `Signature`).
//!
//! Decoding is strict: trailing bytes, truncated input and invalid tags are
//! all errors, so `decode(encode(x)) == x` and `encode(decode(b)) == b` for
//! every accepted `b`.
//!
//! ```
//! use fastbft_types::wire::{to_bytes, from_bytes};
//! let xs: Vec<u32> = vec![1, 2, 3];
//! let bytes = to_bytes(&xs);
//! let back: Vec<u32> = from_bytes(&bytes).unwrap();
//! assert_eq!(xs, back);
//! ```

use std::error::Error;
use std::fmt;

/// Maximum length accepted for any single length-prefixed field (16 MiB).
///
/// This bounds allocation on decode: a malicious (or corrupted) length prefix
/// cannot force a huge allocation.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Maximum byte length of one framed network message (the body of a
/// length-prefixed frame on a socket, as read by `fastbft-net`).
///
/// [`MAX_FIELD_LEN`] bounds every *inner* field, so the largest legal frame
/// is one maximal field plus a small fixed header (sender id, sequence
/// number, payload length prefix, MAC); 256 bytes of slack covers any frame
/// header this workspace defines. A peer declaring a larger frame is hostile
/// or corrupt — the transport must drop the connection *before* allocating.
pub const MAX_FRAME_LEN: usize = MAX_FIELD_LEN + 256;

// The frame bound must admit a maximal field plus a small header, and
// nothing unboundedly larger.
const _: () = assert!(MAX_FRAME_LEN > MAX_FIELD_LEN);
const _: () = assert!(MAX_FRAME_LEN - MAX_FIELD_LEN <= 4096);

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was fully decoded.
    UnexpectedEnd {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A tag byte (e.g. for `Option` or an enum) had an invalid value.
    InvalidTag {
        /// The offending tag.
        tag: u8,
        /// What was being decoded.
        context: &'static str,
    },
    /// A length prefix exceeded [`MAX_FIELD_LEN`].
    LengthOverflow {
        /// The declared length.
        len: usize,
    },
    /// Input had bytes left over after the value was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A value failed domain validation (e.g. non-UTF-8 string).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remaining"
                )
            }
            WireError::InvalidTag { tag, context } => {
                write!(f, "invalid tag byte {tag:#04x} while decoding {context}")
            }
            WireError::LengthOverflow { len } => {
                write!(f, "declared length {len} exceeds maximum field length")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decoded value")
            }
            WireError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl Error for WireError {}

/// Types that can be deterministically encoded to bytes.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Types that can be decoded from bytes produced by [`Encode`].
pub trait Decode: Sized {
    /// Decodes a value, consuming bytes from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the input is truncated or malformed.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Cursor over a byte slice used by [`Decode`] implementations.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes exactly `n` bytes from the input.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes a single byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` length prefix, validating it against [`MAX_FIELD_LEN`]
    /// *and* against the bytes actually remaining.
    ///
    /// The remaining-bytes check is sound because every `Decode` impl in
    /// this codec consumes at least one byte per decoded element, so a
    /// declared count larger than the remaining input can never decode; it
    /// is rejected up front (as [`WireError::UnexpectedEnd`]) rather than
    /// after element-by-element work. Together with the [`MAX_FIELD_LEN`]
    /// cap this is the DoS guard the network transport relies on: hostile
    /// length prefixes can force neither large allocations nor large
    /// decoding loops.
    pub fn take_len(&mut self) -> Result<usize, WireError> {
        let len = u32::decode(self)? as usize;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { len });
        }
        if len > self.remaining() {
            return Err(WireError::UnexpectedEnd {
                needed: len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }
}

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    value.to_wire_bytes()
}

/// Encodes a value into a caller-owned scratch buffer, reusing its
/// allocation: the buffer is cleared first, so the result is exactly the
/// canonical encoding ([`to_bytes`] produces identical bytes — pinned by a
/// property test).
///
/// This is the allocation-free sibling of [`to_bytes`] for hot paths that
/// encode many messages in a loop (the network transport encodes one
/// message per frame): the scratch `Vec` grows to the high-water mark once
/// and is reused forever after.
pub fn encode_into<'a, T: Encode + ?Sized>(value: &T, scratch: &'a mut Vec<u8>) -> &'a [u8] {
    scratch.clear();
    value.encode(scratch);
    scratch
}

/// Decodes a value from `bytes`, requiring the entire input to be consumed.
///
/// # Errors
///
/// Returns a [`WireError`] on truncated, malformed or over-long input.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

/// Test helper: asserts that `value` survives an encode/decode round trip and
/// that re-encoding the decoded value reproduces the same bytes (canonicity).
///
/// # Panics
///
/// Panics if the round trip changes the value or the bytes.
pub fn roundtrip<T: Encode + Decode + PartialEq + fmt::Debug>(value: &T) {
    let bytes = to_bytes(value);
    let decoded: T = from_bytes(&bytes).expect("decoding encoded bytes must succeed");
    assert_eq!(&decoded, value, "decode(encode(x)) != x");
    assert_eq!(to_bytes(&decoded), bytes, "encode not canonical");
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_int {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_be_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, i64);

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                tag,
                context: "bool",
            }),
        }
    }
}

impl Encode for [u8] {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self);
    }
}

/// 32-byte arrays (digests) travel as raw bytes — their length is part of
/// the type, so a length prefix would only add redundancy (and a second,
/// non-canonical encoding of the same value).
impl Encode for [u8; 32] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
}

impl Decode for [u8; 32] {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.take(32)?.try_into().expect("sized take"))
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_bytes().encode(buf);
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_str().encode(buf);
    }
}

impl Decode for String {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bytes = Vec::<u8>::decode(r)?;
        String::from_utf8(bytes).map_err(|_| WireError::Invalid("non-UTF-8 string"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                tag,
                context: "Option",
            }),
        }
    }
}

/// Length-prefixed sequences of any encodable element type.
///
/// For `Vec<u8>` this produces exactly the same bytes as the `[u8]` impl
/// (a `u32` length followed by the raw bytes), so byte strings and generic
/// sequences share one canonical form.
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_len()?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Implements `Encode`/`Decode` for a struct by listing its fields in order.
///
/// ```
/// use fastbft_types::impl_wire_struct;
/// # use fastbft_types::wire::{Encode, Decode, roundtrip};
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// impl_wire_struct!(Point { x, y });
/// roundtrip(&Point { x: 1, y: 2 });
/// ```
#[macro_export]
macro_rules! impl_wire_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Encode for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( $crate::wire::Encode::encode(&self.$field, buf); )+
            }
        }
        impl $crate::wire::Decode for $name {
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok($name {
                    $( $field: $crate::wire::Decode::decode(r)?, )+
                })
            }
        }
    };
}

/// Implements `Encode`/`Decode` for an enum from its tag table: one row per
/// variant, its one-byte tag and then its fields in wire order.
///
/// A row is a unit variant (`4 => Noop`), a one-payload tuple variant
/// (`1 => Bounded(SignatureSet)`) or a struct-like variant with its fields
/// named (`1 => Put { key, value }`). A variant encodes as its tag followed
/// by its fields; any tag without a row decodes to
/// [`WireError::InvalidTag`] with the enum's name as `context`. Every
/// variant needs a row, or the generated `match` does not compile.
///
/// ```
/// use fastbft_types::impl_wire_enum;
/// # use fastbft_types::wire::{from_bytes, roundtrip, to_bytes, WireError};
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Circle(u32), Rect { w: u16, h: u16 } }
/// impl_wire_enum!(Shape { 1 => Dot, 2 => Circle(u32), 4 => Rect { w, h } });
/// roundtrip(&Shape::Circle(5));
/// assert_eq!(to_bytes(&Shape::Rect { w: 1, h: 2 }), [4, 0, 1, 0, 2]);
/// assert_eq!(
///     from_bytes::<Shape>(&[3]),
///     Err(WireError::InvalidTag { tag: 3, context: "Shape" }),
/// );
/// ```
#[macro_export]
macro_rules! impl_wire_enum {
    // One row's pattern, encoding and decoding. `$p` names a tuple
    // variant's payload, `$buf` / `$r` the buffer and the reader; the main
    // rule passes them in because hygiene hides a name one expansion
    // introduces from every other expansion.
    (@pattern $p:ident $name:ident $variant:ident) => { $name::$variant };
    (@pattern $p:ident $name:ident $variant:ident ($ty:ty)) => { $name::$variant($p) };
    (@pattern $p:ident $name:ident $variant:ident { $($field:ident),+ }) => {
        $name::$variant { $($field),+ }
    };
    (@encode $buf:ident $p:ident) => {};
    (@encode $buf:ident $p:ident ($ty:ty)) => {
        <$ty as $crate::wire::Encode>::encode($p, $buf)
    };
    (@encode $buf:ident $p:ident { $($field:ident),+ }) => {
        $( $crate::wire::Encode::encode($field, $buf); )+
    };
    (@decode $r:ident $name:ident $variant:ident) => { $name::$variant };
    (@decode $r:ident $name:ident $variant:ident ($ty:ty)) => {
        $name::$variant(<$ty as $crate::wire::Decode>::decode($r)?)
    };
    (@decode $r:ident $name:ident $variant:ident { $($field:ident),+ }) => {
        $name::$variant { $( $field: $crate::wire::Decode::decode($r)?, )+ }
    };
    ($name:ident {
        $($tag:literal => $variant:ident $(($ty:ty))? $({ $($field:ident),+ $(,)? })?),+ $(,)?
    }) => {
        impl $crate::wire::Encode for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $(
                        $crate::impl_wire_enum!(
                            @pattern payload $name $variant $(($ty))? $({ $($field),+ })?
                        ) => {
                            buf.push($tag);
                            $crate::impl_wire_enum!(
                                @encode buf payload $(($ty))? $({ $($field),+ })?
                            );
                        }
                    )+
                }
            }
        }
        impl $crate::wire::Decode for $name {
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.take_u8()? {
                    $(
                        $tag => $crate::impl_wire_enum!(
                            @decode r $name $variant $(($ty))? $({ $($field),+ })?
                        ),
                    )+
                    tag => {
                        return Err($crate::wire::WireError::InvalidTag {
                            tag,
                            context: stringify!($name),
                        })
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&0xDEADu16);
        roundtrip(&0xDEADBEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&u128::MAX);
        roundtrip(&(-42i64));
    }

    #[test]
    fn bools_roundtrip_and_reject_bad_tags() {
        roundtrip(&true);
        roundtrip(&false);
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(WireError::InvalidTag { tag: 2, .. })
        ));
    }

    #[test]
    fn byte_vectors_roundtrip() {
        roundtrip(&Vec::<u8>::new());
        roundtrip(&vec![1u8, 2, 3]);
        roundtrip(&vec![0u8; 1000]);
    }

    #[test]
    fn strings_roundtrip_and_reject_bad_utf8() {
        roundtrip(&String::from("hello"));
        roundtrip(&String::new());
        // length 1, byte 0xFF: invalid UTF-8
        let bad = [0u8, 0, 0, 1, 0xFF];
        assert!(matches!(
            from_bytes::<String>(&bad),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn options_roundtrip() {
        roundtrip(&Some(7u32));
        roundtrip(&Option::<u32>::None);
    }

    #[test]
    fn nested_sequences() {
        roundtrip(&vec![String::from("a"), String::from("bb")]);
        roundtrip(&vec![1u64, 2, 3]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&7u64);
        assert!(matches!(
            from_bytes::<u64>(&bytes[..4]),
            Err(WireError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected() {
        // u32::MAX length prefix
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            from_bytes::<Vec<u8>>(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn declared_length_beyond_input_rejected_up_front() {
        // Declares 1 MiB of bytes but supplies 2: must fail immediately on
        // the length check, not after attempting a large decode.
        let mut bytes = to_bytes(&(1024u32 * 1024));
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(
            from_bytes::<Vec<u8>>(&bytes),
            Err(WireError::UnexpectedEnd {
                needed: 1_048_576,
                remaining: 2
            })
        ));
    }

    #[test]
    fn hostile_lengths_rejected_for_nested_sequences() {
        // Outer sequence of 3 inner byte strings, where the middle inner
        // string lies about its length.
        let mut bytes = Vec::new();
        3u32.encode(&mut bytes);
        vec![1u8].encode(&mut bytes);
        (MAX_FIELD_LEN as u32).encode(&mut bytes); // huge inner claim
        assert!(matches!(
            from_bytes::<Vec<Vec<u8>>>(&bytes),
            Err(WireError::UnexpectedEnd { .. })
        ));
        // And one that overflows the absolute cap inside a valid outer.
        let mut bytes = Vec::new();
        1u32.encode(&mut bytes);
        (MAX_FIELD_LEN as u32 + 1).encode(&mut bytes);
        assert!(matches!(
            from_bytes::<Vec<Vec<u8>>>(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            WireError::UnexpectedEnd {
                needed: 4,
                remaining: 1,
            },
            WireError::InvalidTag {
                tag: 9,
                context: "x",
            },
            WireError::LengthOverflow { len: 1 << 30 },
            WireError::TrailingBytes { remaining: 3 },
            WireError::Invalid("nope"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn struct_macro_works_in_function_scope() {
        #[derive(Debug, PartialEq)]
        struct Pair {
            a: u16,
            b: Option<String>,
        }
        impl_wire_struct!(Pair { a, b });
        roundtrip(&Pair {
            a: 3,
            b: Some("x".into()),
        });
        roundtrip(&Pair { a: 0, b: None });
    }
}
