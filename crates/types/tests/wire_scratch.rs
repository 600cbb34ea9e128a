//! Property tests for the buffer-reuse encoding path: `encode_into` with a
//! dirty, reused scratch buffer must be byte-identical to the fresh-`Vec`
//! `to_wire_bytes` encoding, and decode back to the same value — the
//! invariant the transport's zero-allocation hot path rests on.

use fastbft_sim::check;
use fastbft_types::wire::{encode_into, from_bytes, to_bytes, Encode};
use fastbft_types::{ProcessId, Value, View};

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

#[test]
fn values_encode_identically_through_reused_scratch() {
    check(
        "values_encode_identically_through_reused_scratch",
        128,
        |c| {
            let payload = c.bytes(0..256);
            let mut scratch = c.bytes(0..64); // start dirty
            check_scratch_reuse(&Value::new(payload), &mut scratch);
        },
    );
}

#[test]
fn primitive_and_composite_types_roundtrip_through_scratch() {
    check(
        "primitive_and_composite_types_roundtrip_through_scratch",
        128,
        |c| {
            let (a, b) = (c.int::<u64>(..), c.int::<u32>(..));
            let list = c.vec(0..32, |c| c.int::<u64>(..));
            let opt = c.bool();
            let mut scratch = vec![0xAA; 17];
            check_scratch_reuse(&a, &mut scratch);
            check_scratch_reuse(&ProcessId(b), &mut scratch);
            check_scratch_reuse(&View(a), &mut scratch);
            check_scratch_reuse(&list, &mut scratch);
            check_scratch_reuse(&if opt { Some(a) } else { None }, &mut scratch);
        },
    );
}

/// Back-to-back encodings of *different* values through one scratch
/// never contaminate each other.
#[test]
fn sequential_messages_share_one_scratch() {
    check("sequential_messages_share_one_scratch", 128, |c| {
        let payloads = c.vec(1..16, |c| c.bytes(0..64));
        let mut scratch = Vec::new();
        for p in &payloads {
            let v = Value::new(p.clone());
            let bytes = encode_into(&v, &mut scratch).to_vec();
            assert_eq!(&bytes, &to_bytes(&v));
            let back: Value = from_bytes(&bytes).unwrap();
            assert_eq!(back, v);
        }
    });
}
