//! Property tests for the buffer-reuse encoding path: `encode_into` with a
//! dirty, reused scratch buffer must be byte-identical to the fresh-`Vec`
//! `to_wire_bytes` encoding, and decode back to the same value — the
//! invariant the transport's zero-allocation hot path rests on.

use fastbft_types::wire::{encode_into, from_bytes, to_bytes, Encode};
use fastbft_types::{ProcessId, Value, View};
use proptest::prelude::*;

/// Encodes twice into the same scratch (leaving it dirty in between) and
/// checks canonical bytes + round-trip.
fn check_scratch_reuse<T>(value: &T, scratch: &mut Vec<u8>)
where
    T: Encode + fastbft_types::wire::Decode + PartialEq + std::fmt::Debug,
{
    let canonical = to_bytes(value);
    // First use: scratch may hold arbitrary garbage from a previous
    // message — encode_into must clear it.
    let bytes = encode_into(value, scratch);
    assert_eq!(bytes, canonical, "scratch encoding not canonical");
    let decoded: T = from_bytes(bytes).expect("canonical bytes decode");
    assert_eq!(&decoded, value, "decode(encode_into(x)) != x");
    // Second use of the same (now non-empty) scratch.
    let bytes = encode_into(value, scratch);
    assert_eq!(bytes, canonical, "reused scratch changed the encoding");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn values_encode_identically_through_reused_scratch(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut scratch = garbage; // start dirty
        check_scratch_reuse(&Value::new(payload), &mut scratch);
    }

    #[test]
    fn primitive_and_composite_types_roundtrip_through_scratch(
        a in any::<u64>(),
        b in any::<u32>(),
        c in proptest::collection::vec(any::<u64>(), 0..32),
        opt in any::<bool>(),
    ) {
        let mut scratch = vec![0xAA; 17];
        check_scratch_reuse(&a, &mut scratch);
        check_scratch_reuse(&ProcessId(b), &mut scratch);
        check_scratch_reuse(&View(a), &mut scratch);
        check_scratch_reuse(&c, &mut scratch);
        check_scratch_reuse(&if opt { Some(a) } else { None }, &mut scratch);
    }

    /// Back-to-back encodings of *different* values through one scratch
    /// never contaminate each other.
    #[test]
    fn sequential_messages_share_one_scratch(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..16),
    ) {
        let mut scratch = Vec::new();
        for p in &payloads {
            let v = Value::new(p.clone());
            let bytes = encode_into(&v, &mut scratch).to_vec();
            prop_assert_eq!(&bytes, &to_bytes(&v));
            let back: Value = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, v);
        }
    }
}
