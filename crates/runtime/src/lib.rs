//! Real-time (thread-per-replica) runtime for `fastbft` protocols.
//!
//! The discrete-event simulator (`fastbft-sim`) is the reference
//! environment: deterministic, schedulable, adversary-friendly. This crate
//! is the other half of the story — the same I/O-free
//! [`Actor`](fastbft_sim::Actor) state machines running on OS threads with
//! real timers, over a pluggable [`Transport`] that plays the paper's
//! reliable authenticated links (§2.1). Two transports exist today:
//! the in-process [`ChannelTransport`] (below) and `fastbft-net`'s
//! `TcpTransport` (real sockets, MAC-authenticated frames); [`spawn`] wires
//! the former, [`spawn_with`] accepts either. Every cluster runs its timers
//! at one [`TICK`] per protocol tick.
//!
//! ```no_run
//! use std::time::Duration;
//! use fastbft_core::{Replica, Message};
//! use fastbft_crypto::KeyDirectory;
//! use fastbft_runtime::spawn;
//! use fastbft_sim::Actor;
//! use fastbft_types::{Config, Value};
//!
//! let cfg = Config::new(4, 1, 1)?;
//! let (pairs, dir) = KeyDirectory::generate(4, 1);
//! let actors: Vec<Box<dyn Actor<Message> + Send>> = pairs
//!     .into_iter()
//!     .map(|keys| -> Box<dyn Actor<Message> + Send> {
//!         Box::new(Replica::new(cfg, keys, dir.clone(), Value::from_u64(7)))
//!     })
//!     .collect();
//! let cluster = spawn(actors);
//! let decisions = cluster.await_decisions(4, Duration::from_secs(5));
//! assert_eq!(decisions.len(), 4);
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod cluster;
pub mod faults;
pub mod transport;

pub use cluster::{
    channel_seats, spawn, spawn_with, Applied, ClusterHandle, Decision, NodeSeat, TICK,
};
pub use faults::{
    wrap_seats, wrap_seats_metered, FaultPlan, FaultTransport, LinkProfile, LinkRules,
};
pub use transport::{ChannelTransport, Inbound, Polled, Transport};
