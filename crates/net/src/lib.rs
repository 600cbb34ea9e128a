//! Real TCP transport for `fastbft`: the paper's reliable authenticated
//! point-to-point links (§2.1) over actual sockets.
//!
//! The in-process runtime enforces "a process cannot spoof its identity" by
//! construction — the channel transport attaches the true sender id to
//! every delivery. Across a socket nothing is attached for free, so this
//! crate enforces the same invariant *cryptographically*:
//!
//! * every connection opens with a signed [`Hello`](frame::Hello) /
//!   [`HelloAck`](frame::HelloAck) handshake proving each side holds the
//!   key of the process it claims to be;
//! * every frame carries an HMAC-SHA256 session MAC
//!   ([`fastbft_crypto::session`]) binding sender key, session id, sequence
//!   number and payload, so frames cannot be spoofed, replayed or
//!   reordered;
//! * every declared length is capped
//!   ([`MAX_FRAME_LEN`](fastbft_types::wire::MAX_FRAME_LEN)) before any
//!   allocation, and any malformed, truncated or MAC-invalid frame drops
//!   the connection — never a panic, never an unauthenticated delivery.
//!
//! The transport plugs into `fastbft_runtime`'s
//! [`Transport`](fastbft_runtime::Transport) abstraction, so the exact same
//! event loop (timer heap, applied-event stream, shutdown) drives replicas
//! over channels and over TCP. [`tcp_seats_metered`] puts a cluster's
//! actors on loopback TCP; `fastbft_smr`'s `SmrClusterHandle::spawn` runs
//! them and checks what they apply:
//!
//! ```
//! use std::time::Duration;
//! use fastbft_net::tcp_seats_metered;
//! use fastbft_smr::{KvCommand, KvStore, SmrClusterHandle};
//! use fastbft_types::Config;
//!
//! let cfg = Config::new(4, 1, 1)?;
//! let mut cluster = SmrClusterHandle::spawn(
//!     cfg,
//!     1,
//!     KvStore::new(),
//!     vec![Vec::new(); cfg.n()],
//!     |actors, pairs, dir, registry| {
//!         tcp_seats_metered(actors, pairs, dir, Default::default(), registry)
//!             .expect("loopback bind")
//!             .0
//!     },
//!     |_, node| Box::new(node),
//! );
//! cluster.submit(KvCommand::Put { key: "x".into(), value: "7".into() }.to_value());
//! assert!(cluster.await_commands(cfg.processes(), 1, Duration::from_secs(10)));
//! assert_eq!(cluster.violations(), []);
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod tcp;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::NodeSeat;
use fastbft_sim::{Actor, SimMessage};
use fastbft_types::wire::{Decode, Encode};

pub use tcp::{TcpOptions, TcpStats, TcpTransport};

/// Checks that `pairs[i]` belongs to process `p_{i+1}` and binds one
/// ephemeral `127.0.0.1` listener per process, returning the listeners
/// with their addresses in seat order.
fn bind_loopback(pairs: &[KeyPair]) -> io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    for (i, pair) in pairs.iter().enumerate() {
        assert_eq!(
            pair.id().index(),
            i,
            "pairs[{i}] must belong to process p{}",
            i + 1
        );
    }
    let listeners: Vec<TcpListener> = (0..pairs.len())
        .map(|_| TcpListener::bind(("127.0.0.1", 0)))
        .collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<io::Result<_>>()?;
    Ok((listeners, addrs))
}

/// Starts one transport per bound listener and pairs it with its actor;
/// seat `i` reports wire-level counters into `registry.replica(i)` when a
/// registry is given, else into a block of its own.
fn seats_on<M: SimMessage + Encode + Decode>(
    actors: Vec<Box<dyn Actor<M> + Send>>,
    pairs: Vec<KeyPair>,
    dir: &KeyDirectory,
    listeners: Vec<TcpListener>,
    addrs: &[SocketAddr],
    opts: &TcpOptions,
    registry: Option<&MetricsRegistry>,
) -> io::Result<Vec<NodeSeat<M, TcpTransport<M>>>> {
    assert_eq!(pairs.len(), actors.len(), "one key pair per actor");
    let mut seats = Vec::with_capacity(actors.len());
    for (i, ((actor, pair), listener)) in actors.into_iter().zip(pairs).zip(listeners).enumerate() {
        let (transport, control) = TcpTransport::start_metered(
            pair,
            dir.clone(),
            listener,
            addrs.to_vec(),
            opts.clone(),
            registry.map_or_else(Arc::default, |r| r.replica(i)),
        )?;
        seats.push(NodeSeat {
            actor,
            transport,
            control,
            verify: None,
        });
    }
    Ok(seats)
}

/// Builds the loopback-TCP [`NodeSeat`]s for a cluster *without* spawning
/// it: one ephemeral `127.0.0.1` listener per replica (bound before
/// returning, so no startup races), transports dialing lazily on first
/// send. This is how any actors — `fastbft_smr`'s slot-multiplexed SMR
/// nodes above all — run over authenticated TCP: return the seats from
/// `SmrClusterHandle::spawn`'s `seats` closure or pass them to
/// [`fastbft_runtime::spawn_with`], wrapped in
/// [`fastbft_runtime::wrap_seats`] first to shape their deliveries — above
/// frame decode and MAC verification, so what is delayed or dropped is an
/// authenticated message.
///
/// # Errors
///
/// An [`io::Error`] if binding the loopback listeners fails.
///
/// # Panics
///
/// Panics if `pairs` does not line up with `actors` (wrong length or a key
/// pair whose process id is not `p_{i+1}`).
#[allow(clippy::type_complexity)]
pub fn tcp_seats<M: SimMessage + Encode + Decode>(
    actors: Vec<Box<dyn Actor<M> + Send>>,
    pairs: Vec<KeyPair>,
    dir: KeyDirectory,
    opts: TcpOptions,
) -> io::Result<(Vec<NodeSeat<M, TcpTransport<M>>>, Vec<SocketAddr>)> {
    let (listeners, addrs) = bind_loopback(&pairs)?;
    let seats = seats_on(actors, pairs, &dir, listeners, &addrs, &opts, None)?;
    Ok((seats, addrs))
}

/// [`tcp_seats`] with a metrics plane: seat `i`'s transport reports its
/// wire-level counters (frames/bytes in and out, MAC rejections,
/// reconnects, send drops, peak writer-queue depth) into
/// `registry.replica(i)` — the same per-replica sinks the actors should be
/// built with, so one scrape shows a replica's protocol and transport
/// counters side by side.
///
/// # Errors
///
/// An [`io::Error`] if binding the loopback listeners fails.
///
/// # Panics
///
/// Panics if `pairs` does not line up with `actors`, or if the registry
/// has fewer replicas than there are actors.
#[allow(clippy::type_complexity)]
pub fn tcp_seats_metered<M: SimMessage + Encode + Decode>(
    actors: Vec<Box<dyn Actor<M> + Send>>,
    pairs: Vec<KeyPair>,
    dir: KeyDirectory,
    opts: TcpOptions,
    registry: &MetricsRegistry,
) -> io::Result<(Vec<NodeSeat<M, TcpTransport<M>>>, Vec<SocketAddr>)> {
    assert!(
        registry.len() >= actors.len(),
        "metrics registry must cover all {} seats",
        actors.len()
    );
    let (listeners, addrs) = bind_loopback(&pairs)?;
    let seats = seats_on(
        actors,
        pairs,
        &dir,
        listeners,
        &addrs,
        &opts,
        Some(registry),
    )?;
    Ok((seats, addrs))
}

/// Builds a [`NodeSeat`] on a clone of `listener`, a listener the caller
/// bound and keeps. The kept listener holds the port while the seat is
/// down (peer redials queue in the accept backlog — no rebind race, no
/// address reuse window), so a replacement built on it later gets fresh
/// transport state — new sessions, new sequence numbers — on the *same*
/// port, and peers' redial loops find the revived node without
/// reconfiguration. Pass the replacement to
/// [`fastbft_runtime::ClusterHandle::restart_node`].
///
/// # Errors
///
/// An [`io::Error`] if cloning the listener fails.
pub fn tcp_reseat<M: SimMessage + Encode + Decode>(
    actor: Box<dyn Actor<M> + Send>,
    pair: KeyPair,
    dir: KeyDirectory,
    listener: &TcpListener,
    addrs: Vec<SocketAddr>,
    opts: TcpOptions,
) -> io::Result<NodeSeat<M, TcpTransport<M>>> {
    let (transport, control) = TcpTransport::start(pair, dir, listener.try_clone()?, addrs, opts)?;
    Ok(NodeSeat {
        actor,
        transport,
        control,
        verify: None,
    })
}
