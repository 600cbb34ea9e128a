//! Replicated state machine on top of `fastbft` consensus.
//!
//! The paper motivates consensus through state machine replication (§1.1):
//! "solving consensus allows one to build a replicated state machine by
//! reaching agreement on each next command to be executed". This crate is
//! that layer:
//!
//! * [`StateMachine`] — deterministic command execution ([`machine`]);
//! * [`KvStore`] / [`KvCommand`] — a replicated key-value store ([`kv`]);
//! * [`SmrNode`] — one consensus instance per log slot, applied in order
//!   ([`multiplex`]), its proposals sized by one batching policy
//!   ([`batcher`]); around its one-record-per-slot table, one private
//!   module per job: the wire enum and its codec (`slot_message`), the
//!   at-most-once state (`dedup`), snapshots and state transfer
//!   (`checkpoint`), what peers say about slots not opened yet (`ahead`),
//!   dead leaders (`suspicion`);
//! * [`SmrSimCluster`] — a ready-made simulated cluster ([`harness`]);
//! * [`SmrClusterHandle`] — the same nodes on the wall-clock thread
//!   runtime, over channels or authenticated TCP, with live client
//!   submission and a per-slot applied-event stream ([`runtime`]).
//!
//! ```
//! use fastbft_smr::{KvCommand, KvStore, SmrSimCluster};
//! use fastbft_types::{Config, ProcessId};
//! use fastbft_sim::{Network, SimDuration, SimTime};
//!
//! let cfg = Config::new(4, 1, 1)?;
//! let mut commands = vec![Vec::new(); 4];
//! commands[1] = vec![KvCommand::Put { key: "x".into(), value: "1".into() }.to_value()];
//! let mut cluster = SmrSimCluster::new(
//!     cfg, 42, KvStore::new(), commands, KvCommand::Noop.to_value(),
//!     Network::synchronous(SimDuration::DELTA), |_, node| Box::new(node),
//! );
//! // Returns only if the SMR checker finds nothing.
//! cluster.run_until(SimTime(100_000), |c| c.report().applied_everywhere >= 1);
//! assert_eq!(cluster.node(ProcessId(3)).machine().get("x"), Some(&"1".to_string()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ahead;
pub mod batcher;
pub mod chaos;
mod checkpoint;
mod dedup;
pub mod harness;
pub mod kv;
pub mod machine;
pub mod multiplex;
pub mod runtime;
mod slot_message;
mod suspicion;
pub mod tag;

pub use batcher::{AdaptiveBatch, Batching};
pub use harness::{SmrReport, SmrSimCluster};
pub use kv::{KvCommand, KvOutput, KvStore};
pub use machine::{CountingMachine, StateMachine};
pub use multiplex::{
    checkpoint_signature, snapshot_response_valid, SlotMessage, SmrNode, DEFAULT_SNAPSHOT_INTERVAL,
    MAX_STASH_AHEAD, SLOT_WINDOW,
};
pub use runtime::{as_smr_node, smr_actors_configured, SmrClusterHandle};
pub use tag::{command_body, parse_client_tag, tag_command};
