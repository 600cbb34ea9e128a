//! Property tests for digest-carried signed statements.
//!
//! PR 5 changed every signed statement from `tag ‖ m ‖ v` to the fixed-size
//! `tag ‖ H(m) ‖ v`. These properties restate the invariants the protocol's
//! replay/domain-separation arguments (§3.2) rest on, over the new format:
//! statements are domain-separated, bind the value and the view, and two
//! distinct values can never alias one statement.

use fastbft_core::payload::{
    ack_payload, certack_payload, propose_payload, vote_payload, STATEMENT_LEN,
};
use fastbft_types::wire::Encode;
use fastbft_types::{Value, View};
use proptest::prelude::*;

/// Strategy: arbitrary value bytes across the interesting size range
/// (empty, shorter and longer than a digest, around the SHA-256 block
/// boundary).
fn value_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The four statement kinds never collide for the same `(value, view)`
    /// — a signature over one can never replay as another.
    #[test]
    fn statements_are_domain_separated(bytes in value_bytes(), view in 1u64..=1_000_000) {
        let x = Value::new(bytes);
        let v = View(view);
        let payloads = [
            propose_payload(&x, v),
            certack_payload(&x, v),
            ack_payload(&x, v),
            vote_payload(&x.as_bytes().to_vec().to_wire_bytes(), v),
        ];
        for i in 0..payloads.len() {
            prop_assert_eq!(payloads[i].len(), STATEMENT_LEN);
            for j in i + 1..payloads.len() {
                prop_assert_ne!(payloads[i], payloads[j], "kinds {} and {} collide", i, j);
            }
        }
    }

    /// The old `payloads_bind_value_and_view` invariants over the new
    /// format: different value ⇒ different statement, different view ⇒
    /// different statement, for every statement kind.
    #[test]
    fn statements_bind_value_and_view(
        a in value_bytes(),
        b in value_bytes(),
        v1 in 1u64..=1_000_000,
        v2 in 1u64..=1_000_000,
    ) {
        let x = Value::new(a.clone());
        let y = Value::new(b.clone());
        if a != b {
            prop_assert_ne!(propose_payload(&x, View(v1)), propose_payload(&y, View(v1)));
            prop_assert_ne!(certack_payload(&x, View(v1)), certack_payload(&y, View(v1)));
            prop_assert_ne!(ack_payload(&x, View(v1)), ack_payload(&y, View(v1)));
        }
        if v1 != v2 {
            prop_assert_ne!(propose_payload(&x, View(v1)), propose_payload(&x, View(v2)));
            prop_assert_ne!(certack_payload(&x, View(v1)), certack_payload(&x, View(v2)));
            prop_assert_ne!(ack_payload(&x, View(v1)), ack_payload(&x, View(v2)));
            prop_assert_ne!(
                vote_payload(x.as_bytes(), View(v1)),
                vote_payload(x.as_bytes(), View(v2))
            );
        }
    }

    /// The statement is deterministic in the value *bytes*: a clone, a
    /// re-decoded copy and a cold-cache reconstruction all produce the
    /// identical statement (the memoized digest is pure metadata).
    #[test]
    fn statements_are_stable_across_copies(bytes in value_bytes(), view in 1u64..=1_000_000) {
        let x = Value::new(bytes.clone());
        let v = View(view);
        let first = propose_payload(&x, v);
        prop_assert_eq!(propose_payload(&x.clone(), v), first);
        prop_assert_eq!(propose_payload(&Value::new(bytes), v), first);
    }
}

/// Regression: two distinct `Value`s must never alias a statement. The
/// digest-carried format makes this a collision-resistance argument;
/// exercise it densely over adversarially similar values (prefixes,
/// extensions, single-bit flips) where a buggy truncation or padding scheme
/// would break first.
#[test]
fn distinct_values_never_alias_a_statement() {
    let v = View(7);
    let base: Vec<u8> = (0..64u8).collect();
    let mut variants: Vec<Vec<u8>> = vec![Vec::new()];
    for len in 1..=base.len() {
        variants.push(base[..len].to_vec()); // every prefix
    }
    for bit in 0..8 {
        let mut flipped = base.clone();
        flipped[0] ^= 1 << bit; // single-bit flips of the first byte
        variants.push(flipped);
    }
    let mut extended = base.clone();
    extended.push(0);
    variants.push(extended); // zero-extension (a naive padding collision)

    let statements: Vec<_> = variants
        .iter()
        .map(|bytes| ack_payload(&Value::new(bytes.clone()), v))
        .collect();
    for i in 0..statements.len() {
        for j in i + 1..statements.len() {
            assert_ne!(
                statements[i], statements[j],
                "values {i} and {j} alias one statement"
            );
        }
    }
}
