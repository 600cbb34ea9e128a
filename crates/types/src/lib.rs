//! Core data types for the `fastbft` workspace.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! reproduction of *"Revisiting Optimal Resilience of Fast Byzantine
//! Consensus"* (Kuznetsov, Tonkikh, Zhang — PODC 2021):
//!
//! * [`ProcessId`] and [`View`] — newtypes for process identifiers and view
//!   numbers (the paper's `p_i` and `v`);
//! * [`Value`] — an opaque consensus value (the paper's `x`);
//! * [`Config`] — the system parameters `(n, f, t)` together with all quorum
//!   thresholds used by the protocol and its proofs (`n − f`, `n − t`,
//!   `⌈(n+f+1)/2⌉`, `f + 1`, `2f + 1`, `f + t`);
//! * [`wire`] — a deterministic binary codec. Signatures are computed over
//!   encoded bytes, so the encoding is canonical by construction: every
//!   value has exactly one encoding and decoding is its inverse.
//!
//! # Example
//!
//! ```
//! use fastbft_types::{Config, View, ProcessId, Value};
//!
//! // f = t = 1: the paper's headline result — 4 processes suffice.
//! let cfg = Config::new(4, 1, 1).expect("4 >= 3f + 2t - 1");
//! assert_eq!(cfg.fast_quorum(), 3);          // n - t acks decide fast
//! // leader(v) = p_{(v mod n) + 1} — the paper's round-robin map.
//! assert_eq!(cfg.leader(View::FIRST), ProcessId(2));
//! let v = Value::from_u64(42);
//! assert_eq!(v, Value::from_u64(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod id;
mod value;
pub mod wire;

pub use config::{Config, ConfigError, ProtocolKind};
pub use id::{ProcessId, View};
pub use value::Value;
