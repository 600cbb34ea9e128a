//! Deterministic discrete-event simulator for partially synchronous
//! Byzantine protocols.
//!
//! This crate is the execution substrate for the `fastbft` reproduction of
//! *"Revisiting Optimal Resilience of Fast Byzantine Consensus"* (PODC 2021).
//! It implements the paper's §2.1 system model *literally*:
//!
//! * `n` processes exchanging messages over **reliable authenticated
//!   point-to-point channels** — the kernel attaches the true sender to
//!   every delivery and never loses, duplicates or forges messages;
//! * **partial synchrony**: a known bound Δ on message delay that holds from
//!   an unknown Global Stabilization Time (GST) on; before GST the adversary
//!   schedules deliveries (see [`Network`]);
//! * **Byzantine processes** as arbitrary [`Actor`] implementations — they
//!   can equivocate, lie, stay silent or crash, but cannot forge other
//!   processes' messages or signatures;
//! * a **global clock** not accessible to the processes, used by the trace
//!   and the checkers exactly as the paper's proofs use it.
//!
//! Everything is deterministic given the seed, so every experiment and
//! counter-example in this repository is replayable.
//!
//! The crate knows nothing about any specific consensus protocol: protocols
//! implement [`Actor`] over their own [`SimMessage`] type (see
//! `fastbft-core` and `fastbft-baselines`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod checker;
mod network;
mod runner;
mod script;
mod smr_checker;
mod time;
mod trace;

pub use actor::{Actor, Effects, Outgoing, SimMessage, TimerId};
pub use checker::{ConsensusChecker, Violation};
pub use network::{DelayPolicy, Network, SendInfo};
pub use runner::Simulation;
pub use script::ScriptedActor;
pub use smr_checker::{SmrChecker, SmrViolation};
pub use time::{SimDuration, SimTime};
pub use trace::{MessageStats, Trace, TraceEvent, TraceRecord};
