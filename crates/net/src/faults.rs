//! The fault-injection plane over TCP: re-exports of
//! [`fastbft_runtime::faults`].
//!
//! The shaping layer itself lives in the runtime crate (it is
//! transport-agnostic — the same wrapper shapes the in-process channel
//! mesh). For a loopback cluster whose sockets are real and authenticated
//! but whose *deliveries* obey a shared [`FaultPlan`], build the seats with
//! [`tcp_seats`](crate::tcp_seats) (or
//! [`tcp_seats_metered`](crate::tcp_seats_metered)) and pass them through
//! [`wrap_seats`] (or [`wrap_seats_metered`]). Because shaping happens on
//! the receive side, above frame decode and MAC verification, the wire
//! protocol is untouched: what gets delayed or dropped is an
//! authenticated message, exactly as a WAN or a misbehaving switch would
//! delay or drop it.

pub use fastbft_runtime::faults::{
    wrap_seats, wrap_seats_metered, FaultPlan, FaultTransport, LinkProfile,
};
