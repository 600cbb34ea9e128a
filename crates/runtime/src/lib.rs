//! Real-time (thread-per-replica) runtime for `fastbft` protocols.
//!
//! The discrete-event simulator (`fastbft-sim`) is the reference
//! environment: deterministic, schedulable, adversary-friendly. This crate
//! is the other half of the story — the same I/O-free
//! [`Actor`](fastbft_sim::Actor) state machines running on OS threads with
//! real timers, over a pluggable [`Transport`] that plays the paper's
//! reliable authenticated links (§2.1). Two transports exist today:
//! the in-process [`ChannelTransport`] (seated by [`channel_seats`]) and
//! `fastbft-net`'s `TcpTransport` (real sockets, MAC-authenticated
//! frames); [`spawn_with`] runs either. Every cluster runs its timers at
//! one [`TICK`] per protocol tick, and what its replicas apply leaves
//! through one stream, [`ClusterHandle::applied_events`]. Replicated-log
//! clusters are built by `fastbft_smr`'s `SmrClusterHandle::spawn`, which
//! checks that stream; the example below drives the bare runtime with an
//! actor that applies every client command it is handed.
//!
//! ```
//! use std::time::Duration;
//! use fastbft_core::Message;
//! use fastbft_runtime::{channel_seats, spawn_with, TICK};
//! use fastbft_sim::{Actor, Effects};
//! use fastbft_types::{ProcessId, Value};
//!
//! struct Log(u64);
//!
//! impl Actor<Message> for Log {
//!     fn on_start(&mut self, _: &mut Effects<Message>) {}
//!     fn on_message(&mut self, _: ProcessId, _: Message, _: &mut Effects<Message>) {}
//!     fn on_client(&mut self, command: Value, fx: &mut Effects<Message>) {
//!         fx.record_applied(self.0, &command);
//!         self.0 += 1;
//!     }
//! }
//!
//! let actors = (0..4)
//!     .map(|_| -> Box<dyn Actor<Message> + Send> { Box::new(Log(0)) })
//!     .collect();
//! let cluster = spawn_with(channel_seats(actors), TICK);
//! cluster.submit_all(Value::from_u64(7));
//! for _ in 0..4 {
//!     let event = cluster.applied_events().recv_timeout(Duration::from_secs(5))?;
//!     assert_eq!((event.index, &event.command), (0, &Value::from_u64(7)));
//! }
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod cluster;
pub mod faults;
pub mod transport;

pub use cluster::{channel_seats, spawn_with, Applied, ClusterHandle, NodeSeat, TICK};
pub use faults::{
    wrap_seats, wrap_seats_metered, FaultPlan, FaultTransport, LinkProfile, LinkRules,
};
pub use transport::{ChannelTransport, Inbound, Polled, Transport};
