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
use fastbft_sim::{check, Choices};
use fastbft_types::wire::Encode;
use fastbft_types::{Value, View};

/// Arbitrary value bytes across the interesting size range (empty,
/// shorter and longer than a digest, around the SHA-256 block boundary).
fn value_bytes(c: &mut Choices) -> Vec<u8> {
    c.bytes(0..96)
}

/// The four statement kinds never collide for the same `(value, view)`
/// — a signature over one can never replay as another.
#[test]
fn statements_are_domain_separated() {
    check("statements_are_domain_separated", 256, |c| {
        let x = Value::new(value_bytes(c));
        let v = View(c.int(1..=1_000_000u64));
        let payloads = [
            propose_payload(&x, v, 0),
            certack_payload(&x, v, 0),
            ack_payload(&x, v, 0),
            vote_payload(&x.as_bytes().to_vec().to_wire_bytes(), v, 0),
        ];
        for i in 0..payloads.len() {
            assert_eq!(payloads[i].len(), STATEMENT_LEN);
            for j in i + 1..payloads.len() {
                assert_ne!(payloads[i], payloads[j], "kinds {i} and {j} collide");
            }
        }
    });
}

/// The old `payloads_bind_value_and_view` invariants over the new
/// format: different value ⇒ different statement, different view ⇒
/// different statement, for every statement kind.
#[test]
fn statements_bind_value_and_view() {
    check("statements_bind_value_and_view", 256, |c| {
        let (a, b) = (value_bytes(c), value_bytes(c));
        let (v1, v2) = (c.int(1..=1_000_000u64), c.int(1..=1_000_000u64));
        let x = Value::new(a.clone());
        let y = Value::new(b.clone());
        if a != b {
            assert_ne!(
                propose_payload(&x, View(v1), 0),
                propose_payload(&y, View(v1), 0)
            );
            assert_ne!(
                certack_payload(&x, View(v1), 0),
                certack_payload(&y, View(v1), 0)
            );
            assert_ne!(ack_payload(&x, View(v1), 0), ack_payload(&y, View(v1), 0));
        }
        if v1 != v2 {
            assert_ne!(
                propose_payload(&x, View(v1), 0),
                propose_payload(&x, View(v2), 0)
            );
            assert_ne!(
                certack_payload(&x, View(v1), 0),
                certack_payload(&x, View(v2), 0)
            );
            assert_ne!(ack_payload(&x, View(v1), 0), ack_payload(&x, View(v2), 0));
            assert_ne!(
                vote_payload(x.as_bytes(), View(v1), 0),
                vote_payload(x.as_bytes(), View(v2), 0)
            );
        }
    });
}

/// The statement is deterministic in the value *bytes*: a clone, a
/// re-decoded copy and a cold-cache reconstruction all produce the
/// identical statement (the memoized digest is pure metadata).
#[test]
fn statements_are_stable_across_copies() {
    check("statements_are_stable_across_copies", 256, |c| {
        let bytes = value_bytes(c);
        let x = Value::new(bytes.clone());
        let v = View(c.int(1..=1_000_000u64));
        let first = propose_payload(&x, v, 0);
        assert_eq!(propose_payload(&x.clone(), v, 0), first);
        assert_eq!(propose_payload(&Value::new(bytes), v, 0), first);
    });
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
        .map(|bytes| ack_payload(&Value::new(bytes.clone()), v, 0))
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
