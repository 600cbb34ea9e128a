//! The TCP transport: authenticated loopback/LAN links for the runtime.
//!
//! Topology: every node binds one listener and dials one *outbound*
//! connection per peer (used only for sending); the `n·(n−1)` resulting
//! streams are each one-directional after the handshake. Accepted
//! connections are served by a handler thread that performs the handshake,
//! then MAC-verifies and decodes frames into the node's inbound queue —
//! the same queue the [`ChannelTransport`](fastbft_runtime::ChannelTransport)
//! uses, so the runtime event loop is identical on both transports.
//!
//! # The send pipeline (hot path)
//!
//! The event-loop thread never touches a socket. [`Transport::send`] and
//! [`Transport::broadcast`] encode the payload **once** (into a shared,
//! reference-counted [`bytes::Bytes`] — a broadcast to `n−1` peers is one
//! encode and `n−1` reference bumps) and enqueue it on the destination's
//! **bounded** outbound queue. One writer thread per peer owns that peer's
//! socket, dialing, redialing and per-connection [`SessionMac`]: each drain
//! pops every queued frame at once, MACs and appends them into a single
//! reused buffer, and issues **one** `write_all` — one syscall per drain
//! instead of two per frame. A dead, slow or blackholed peer therefore
//! stalls only its own writer thread; when its queue fills, further frames
//! to it are dropped and counted ([`TcpStats`]), never blocking the actor.
//! The model permits the drops: only links between *correct* (live) peers
//! promise delivery.
//!
//! Failure handling: a frame that is truncated, oversized, malformed,
//! mis-sequenced or MAC-invalid causes the *connection* to be dropped —
//! never a panic, and never an unauthenticated delivery. A failed write
//! triggers one immediate redial (fresh session); if that also fails the
//! batch is dropped and the peer enters a redial cooldown.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use fastbft_crypto::session::{derive_nonce, mix_session, SessionMac, SessionVerifier};
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_obs::Metrics;
use fastbft_runtime::transport::{poll_queue, poll_queue_batch, Inbound, Polled, Transport};
use fastbft_sim::SimMessage;
use fastbft_types::wire::{encode_into, Decode, Encode, MAX_FRAME_LEN};
use fastbft_types::ProcessId;

use crate::frame::{
    append_frame, decode_batch_payload, decode_frame_borrowed, encode_batch_payload,
    read_frame_into, read_msg, write_msg, Hello, HelloAck, FRAME_OVERHEAD,
};

/// Maximum concurrently-accepted inbound connections per listener. Beyond
/// this the accept loop drops new connections immediately, bounding the fd
/// and thread cost a connect-and-hold peer can impose. A full mesh uses one
/// inbound connection per peer, so anything ≳ `4·n` is generous.
const MAX_INBOUND_CONNECTIONS: usize = 256;

/// Tunables for the TCP transport.
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// How long each side of the handshake may take before the connection
    /// is abandoned (guards the handler threads against stalled or hostile
    /// dialers, and bounds how long a writer thread courts a peer that
    /// accepts but never answers).
    pub handshake_timeout: Duration,
    /// Dial attempts per (re)connect before giving up on a peer for the
    /// current drain. Listeners are bound before any replica thread starts,
    /// so retries only matter for mid-run reconnects, not startup.
    pub connect_retries: u32,
    /// Pause between dial attempts.
    pub connect_backoff: Duration,
    /// Per-attempt TCP connect timeout. Bounds how long a drain toward a
    /// blackholed peer (SYNs silently dropped) can stall *that peer's
    /// writer thread* — the event loop is never on this path.
    pub connect_timeout: Duration,
    /// After a (re)connect gives up, the minimum time frames to that peer
    /// are dropped immediately instead of redialing, so a dead peer costs
    /// one dial budget per cooldown rather than one per frame.
    pub redial_cooldown: Duration,
    /// Capacity, in frames, of each peer's outbound queue. When a peer's
    /// queue is full (it is dead, slow, or blackholed), new frames to it
    /// are dropped and counted ([`TcpStats`]) instead of blocking the
    /// event loop.
    pub outbound_queue_frames: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            handshake_timeout: Duration::from_secs(5),
            connect_retries: 3,
            connect_backoff: Duration::from_millis(20),
            connect_timeout: Duration::from_secs(1),
            redial_cooldown: Duration::from_millis(250),
            outbound_queue_frames: 1024,
        }
    }
}

/// State shared between the transport, its listener thread, its handler
/// threads and its writer threads, used to tear everything down without
/// deadlock.
struct NetShared {
    shutdown: AtomicBool,
    /// Clones of live sockets (accepted inbound connections *and* dialed
    /// outbound streams), keyed by connection id; shut down on drop to
    /// unblock any thread parked in a socket read or write. Each owner
    /// removes its own entry when its connection ends, so dead connections
    /// don't leak fds.
    streams: Mutex<HashMap<u64, TcpStream>>,
    /// Handler threads (handshake + frame reading). Finished ones are
    /// reaped by the accept loop; the rest are joined on drop.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Source of ids for `streams` entries registered by writer threads
    /// (the accept loop numbers its own).
    next_stream_id: AtomicU64,
}

impl NetShared {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn register_stream(&self, stream: &TcpStream) -> Option<u64> {
        let id = self.next_stream_id.fetch_add(1, Ordering::SeqCst);
        let clone = stream.try_clone().ok()?;
        self.streams.lock().expect("not poisoned").insert(id, clone);
        Some(id)
    }

    fn unregister_stream(&self, id: u64) {
        self.streams.lock().expect("not poisoned").remove(&id);
    }
}

/// One established outbound link to a peer, owned by its writer thread.
struct Outbound {
    stream: TcpStream,
    mac: SessionMac,
    /// Registry key of the stream clone held in [`NetShared::streams`].
    stream_id: Option<u64>,
}

/// Cumulative send-side counters (drops, wire frames, messages),
/// cloneable and readable while the cluster runs — grab it with
/// [`TcpTransport::stats`] *before* handing the transport to `spawn_with`.
#[derive(Clone)]
pub struct TcpStats {
    dropped: Vec<Arc<AtomicU64>>,
    frames: Arc<AtomicU64>,
    messages: Arc<AtomicU64>,
}

impl TcpStats {
    /// Messages dropped toward `peer` so far (always 0 for the node itself
    /// — self-delivery never touches a queue).
    pub fn dropped_to(&self, peer: ProcessId) -> u64 {
        self.dropped[peer.index()].load(Ordering::Relaxed)
    }

    /// Messages dropped toward all peers so far.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Wire frames written so far, across all peers. One frame carries a
    /// whole writer drain, so `messages_sent / frames_sent` is the send
    /// pipeline's coalescing factor (≥ 1; ~5 under load on one core).
    pub fn frames_sent(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Protocol messages successfully written so far, across all peers.
    pub fn messages_sent(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }
}

/// The send side of one peer: the bounded queue feeding its writer thread.
struct PeerHandle {
    tx: Sender<Bytes>,
    /// Frames currently queued (only the event-loop thread increments, so
    /// the bound check is exact).
    depth: Arc<AtomicUsize>,
    writer: JoinHandle<()>,
}

/// Everything a writer thread needs to own its peer's link.
struct WriterSeat {
    me: ProcessId,
    peer: ProcessId,
    addr: SocketAddr,
    pair: KeyPair,
    dir: KeyDirectory,
    opts: TcpOptions,
    session_counter: Arc<AtomicU64>,
    shared: Arc<NetShared>,
    depth: Arc<AtomicUsize>,
    dropped: Arc<AtomicU64>,
    frames: Arc<AtomicU64>,
    messages: Arc<AtomicU64>,
    /// Peer links of this node currently down (dial failed, cooling
    /// down) — shared across the node's writer threads so the
    /// `peer_links_down` gauge reflects the whole node.
    links_down: Arc<AtomicU64>,
    metrics: Arc<Metrics>,
}

/// [`Transport`] implementation over real TCP sockets with authenticated
/// frames. Build a full cluster's seats with
/// [`tcp_seats_metered`](crate::tcp_seats_metered), or one node's transport with [`TcpTransport::start`] for custom topologies
/// (separate processes, real machines).
pub struct TcpTransport<M> {
    id: ProcessId,
    n: usize,
    opts: TcpOptions,
    /// Send queues, indexed by peer; `None` at this node's own index.
    peers: Vec<Option<PeerHandle>>,
    dropped: Vec<Arc<AtomicU64>>,
    frames: Arc<AtomicU64>,
    messages: Arc<AtomicU64>,
    /// Reused encode buffer: one payload encode per send/broadcast, zero
    /// steady-state allocations besides the shared `Bytes` itself.
    scratch: Vec<u8>,
    inbound_tx: Sender<Inbound<M>>,
    inbound_rx: Receiver<Inbound<M>>,
    listener_addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    shared: Arc<NetShared>,
    metrics: Arc<Metrics>,
}

impl<M: SimMessage + Encode + Decode> TcpTransport<M> {
    /// Starts one node's transport: takes ownership of its bound
    /// `listener`, spawns the accept loop and the per-peer writer threads,
    /// and returns the transport together with the control sender that
    /// feeds its inbound queue (for [`fastbft_runtime::NodeSeat::control`]).
    ///
    /// `addrs[i]` must be the listener address of process `p_{i+1}`; `pair`
    /// is this node's key, `dir` the cluster directory used to authenticate
    /// peers. It counts its wire-level traffic into a block of its own;
    /// [`start_metered`](TcpTransport::start_metered) names the block.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] if the listener's local address cannot be read.
    pub fn start(
        pair: KeyPair,
        dir: KeyDirectory,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
        opts: TcpOptions,
    ) -> io::Result<(Self, Sender<Inbound<M>>)> {
        Self::start_metered(pair, dir, listener, addrs, opts, Arc::default())
    }

    /// [`start`](TcpTransport::start) with a named metrics block: the
    /// transport reports wire-level counters (frames/bytes in and out, MAC
    /// rejections, reconnects, send drops, peak writer-queue depth) into
    /// `metrics` — typically one replica's block of a
    /// [`fastbft_obs::MetricsRegistry`].
    ///
    /// # Errors
    ///
    /// An [`io::Error`] if the listener's local address cannot be read.
    pub fn start_metered(
        pair: KeyPair,
        dir: KeyDirectory,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
        opts: TcpOptions,
        metrics: Arc<Metrics>,
    ) -> io::Result<(Self, Sender<Inbound<M>>)> {
        let listener_addr = listener.local_addr()?;
        let (inbound_tx, inbound_rx) = unbounded();
        let shared = Arc::new(NetShared {
            shutdown: AtomicBool::new(false),
            streams: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            // Writer-registered streams get ids disjoint from the accept
            // loop's (which counts up from 1).
            next_stream_id: AtomicU64::new(1 << 32),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_tx = inbound_tx.clone();
        let accept_pair = pair.clone();
        let accept_dir = dir.clone();
        let accept_metrics = Arc::clone(&metrics);
        let my_id = pair.id();
        let handshake_timeout = opts.handshake_timeout;
        let listener_thread = std::thread::spawn(move || {
            accept_loop(
                listener,
                accept_pair,
                accept_dir,
                my_id,
                accept_tx,
                accept_shared,
                handshake_timeout,
                accept_metrics,
            );
        });

        // One writer thread per peer: session ids stay unique per
        // (process, connection) via the shared counter.
        let session_counter = Arc::new(AtomicU64::new(0));
        let frames = Arc::new(AtomicU64::new(0));
        let messages = Arc::new(AtomicU64::new(0));
        let links_down = Arc::new(AtomicU64::new(0));
        let n = addrs.len();
        let mut peers: Vec<Option<PeerHandle>> = Vec::with_capacity(n);
        let mut dropped: Vec<Arc<AtomicU64>> = Vec::with_capacity(n);
        for (i, addr) in addrs.iter().enumerate() {
            let counter = Arc::new(AtomicU64::new(0));
            dropped.push(Arc::clone(&counter));
            if i == my_id.index() {
                peers.push(None);
                continue;
            }
            let depth = Arc::new(AtomicUsize::new(0));
            let (tx, rx) = unbounded();
            let seat = WriterSeat {
                me: my_id,
                peer: ProcessId::from_index(i),
                addr: *addr,
                pair: pair.clone(),
                dir: dir.clone(),
                opts: opts.clone(),
                session_counter: Arc::clone(&session_counter),
                shared: Arc::clone(&shared),
                depth: Arc::clone(&depth),
                dropped: counter,
                frames: Arc::clone(&frames),
                messages: Arc::clone(&messages),
                links_down: Arc::clone(&links_down),
                metrics: Arc::clone(&metrics),
            };
            let writer = std::thread::spawn(move || peer_writer(seat, rx));
            peers.push(Some(PeerHandle { tx, depth, writer }));
        }

        let control = inbound_tx.clone();
        Ok((
            TcpTransport {
                id: my_id,
                n,
                opts,
                peers,
                dropped,
                frames,
                messages,
                scratch: Vec::new(),
                inbound_tx,
                inbound_rx,
                listener_addr,
                listener: Some(listener_thread),
                shared,
                metrics,
            },
            control,
        ))
    }

    /// The address this node's listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener_addr
    }

    /// Handle to this node's send-side drop counters; clone it out before
    /// spawning the cluster to observe slow-peer drops while it runs.
    pub fn stats(&self) -> TcpStats {
        TcpStats {
            dropped: self.dropped.clone(),
            frames: Arc::clone(&self.frames),
            messages: Arc::clone(&self.messages),
        }
    }

    /// Enqueues one encoded payload toward `peer` without ever blocking:
    /// full queue (or oversized payload) ⇒ drop and count.
    fn enqueue(&self, peer: usize, payload: Bytes) {
        let Some(handle) = self.peers[peer].as_ref() else {
            return;
        };
        if payload.len() + FRAME_OVERHEAD + 8 > MAX_FRAME_LEN
            || handle.depth.load(Ordering::Relaxed) >= self.opts.outbound_queue_frames
        {
            self.dropped[peer].fetch_add(1, Ordering::Relaxed);
            self.metrics.send_drop_total.inc();
            return;
        }
        let depth = handle.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.writer_queue_depth_peak.set_max(depth as u64);
        if handle.tx.send(payload).is_err() {
            handle.depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl<M: SimMessage + Encode + Decode> Transport<M> for TcpTransport<M> {
    fn send(&mut self, to: ProcessId, msg: M) {
        if to == self.id {
            // Self-delivery never touches a socket.
            let _ = self.inbound_tx.send(Inbound::Peer(self.id, msg));
            return;
        }
        encode_into(&msg, &mut self.scratch);
        let payload = Bytes::copy_from_slice(&self.scratch);
        self.enqueue(to.index(), payload);
    }

    fn cluster_size(&self) -> usize {
        self.n
    }

    fn broadcast(&mut self, msg: M) {
        // Encode-once: one canonical encoding shared (by reference count)
        // across every peer's queue. The per-connection session MACs are
        // computed over these same shared bytes by the writer threads.
        encode_into(&msg, &mut self.scratch);
        let payload = Bytes::copy_from_slice(&self.scratch);
        for peer in 0..self.n {
            if peer != self.id.index() {
                self.enqueue(peer, payload.clone());
            }
        }
        let _ = self.inbound_tx.send(Inbound::Peer(self.id, msg));
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Polled<M> {
        poll_queue(&self.inbound_rx, timeout)
    }

    fn recv_batch(&mut self, max: usize, timeout: Option<Duration>) -> Vec<Polled<M>> {
        poll_queue_batch(&self.inbound_rx, max, timeout)
    }
}

impl<M> Drop for TcpTransport<M> {
    /// Tears the node's networking down without deadlock: flag shutdown,
    /// unblock every socket-parked thread by shutting its stream, close the
    /// writer queues, wake the accept loop with a throwaway connection,
    /// then join all threads. Frames still queued toward peers are dropped
    /// — the whole cluster is stopping, and the model only promises
    /// delivery between correct (live) processes.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for conn in self.shared.streams.lock().expect("not poisoned").values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Closing the queues lets each writer finish its current drain and
        // exit; a writer parked mid-dial observes the shutdown flag between
        // attempts (its connect itself is bounded by `connect_timeout`).
        let handles: Vec<PeerHandle> = self.peers.iter_mut().filter_map(Option::take).collect();
        let writers: Vec<JoinHandle<()>> = handles
            .into_iter()
            .map(|h| {
                drop(h.tx);
                h.writer
            })
            .collect();
        for w in writers {
            let _ = w.join();
        }
        // Wake the accept loop; it observes the flag and exits.
        let _ = TcpStream::connect(self.listener_addr);
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        // Second sweep: a connection accepted concurrently with the first
        // sweep registered its clone before its handler spawned, and the
        // listener is joined now, so this one is exhaustive — every handler
        // blocked on a socket gets unblocked before being joined.
        for conn in self.shared.streams.lock().expect("not poisoned").values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let handlers: Vec<_> = self
            .shared
            .handlers
            .lock()
            .expect("not poisoned")
            .drain(..)
            .collect();
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// The per-peer writer loop: drains the bounded queue in batches, owns the
/// socket and its per-connection [`SessionMac`], and coalesces every drain
/// into one buffer → one `write_all`. All dialing, redialing and cooldown
/// bookkeeping happens here — never on the event-loop thread.
fn peer_writer(seat: WriterSeat, rx: Receiver<Bytes>) {
    let mut link: Option<Outbound> = None;
    let mut dead_until: Option<Instant> = None;
    let mut ever_linked = false;
    let mut is_down = false;
    let mut batch: Vec<Bytes> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut wire: Vec<u8> = Vec::new();
    // The loop ends when the queue is closed *and* empty (`recv` errors):
    // the transport is shutting down.
    while let Ok(first) = rx.recv() {
        batch.clear();
        batch.push(first);
        while batch.len() < seat.opts.outbound_queue_frames {
            match rx.try_recv() {
                Some(payload) => batch.push(payload),
                None => break,
            }
        }
        seat.depth.fetch_sub(batch.len(), Ordering::Relaxed);
        if seat.shared.stopping() {
            break;
        }
        if let Some(deadline) = dead_until {
            if Instant::now() < deadline {
                // Cooling down after a failed (re)connect: drop the batch.
                seat.dropped
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                seat.metrics.send_drop_total.add(batch.len() as u64);
                seat.metrics
                    .send_drop_unreachable_total
                    .add(batch.len() as u64);
                continue;
            }
            dead_until = None;
        }
        let had_link = link.is_some();
        if link.is_none() {
            link = dial(&seat).ok();
            if link.is_some() {
                // Redials only: the first link of the run is a connect,
                // not a reconnect.
                if ever_linked {
                    seat.metrics.reconnect_total.inc();
                }
                ever_linked = true;
                mark_link_up(&seat, &mut is_down);
            }
        }
        let wrote = match link.as_mut() {
            Some(out) => write_batch(&seat, out, &batch, &mut payload, &mut wire).is_ok(),
            None => false,
        };
        if wrote {
            continue;
        }
        drop_link(&seat, link.take());
        // Retry once on a fresh connection only if an *established* link
        // broke mid-write; a failed fresh dial already burned the whole
        // dial budget.
        if had_link {
            if let Ok(mut out) = dial(&seat) {
                seat.metrics.reconnect_total.inc();
                if write_batch(&seat, &mut out, &batch, &mut payload, &mut wire).is_ok() {
                    link = Some(out);
                    continue;
                }
                drop_link(&seat, Some(out));
            }
        }
        // Peer unreachable: drop the batch and back off.
        seat.dropped
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        seat.metrics.send_drop_total.add(batch.len() as u64);
        seat.metrics
            .send_drop_unreachable_total
            .add(batch.len() as u64);
        mark_link_down(&seat, &mut is_down);
        dead_until = Some(Instant::now() + seat.opts.redial_cooldown);
    }
    drop_link(&seat, link.take());
    // Shutdown: this writer no longer watches the peer, so its down state
    // must leave the node-wide gauge (a dangling "link down" after the
    // cluster stops would read as an outage).
    if is_down {
        let down = seat.links_down.fetch_sub(1, Ordering::Relaxed) - 1;
        seat.metrics.peer_links_down.set(down);
    }
}

/// Marks this writer's peer link down (first failure only): bumps the
/// node-wide `peer_links_down` gauge and logs a flight-recorder event, so
/// a dead peer is visible in a live scrape — not only via
/// [`TcpStats::dropped_to`] grabbed before spawn.
fn mark_link_down(seat: &WriterSeat, is_down: &mut bool) {
    if *is_down {
        return;
    }
    *is_down = true;
    let down = seat.links_down.fetch_add(1, Ordering::Relaxed) + 1;
    seat.metrics.peer_links_down.set(down);
    seat.metrics.recorder.record(
        "peer-link-down",
        format!(
            "p{} -> p{} unreachable, cooling down {:?}",
            seat.me.0, seat.peer.0, seat.opts.redial_cooldown
        ),
    );
}

/// Clears the down state once a dial succeeds again.
fn mark_link_up(seat: &WriterSeat, is_down: &mut bool) {
    if !*is_down {
        return;
    }
    *is_down = false;
    let down = seat.links_down.fetch_sub(1, Ordering::Relaxed) - 1;
    seat.metrics.peer_links_down.set(down);
    seat.metrics.recorder.record(
        "peer-link-up",
        format!("p{} -> p{} link restored", seat.me.0, seat.peer.0),
    );
}

/// Releases an outbound link's registry entry (and thereby its fd clone).
fn drop_link(seat: &WriterSeat, link: Option<Outbound>) {
    if let Some(out) = link {
        if let Some(id) = out.stream_id {
            seat.shared.unregister_stream(id);
        }
    }
}

/// Packs the drain into as few frames as fit under [`MAX_FRAME_LEN`]
/// (usually exactly one), MACs each **frame** — not each message — and
/// writes everything with a single `write_all`: per drain, one MAC, one
/// syscall. Oversized messages were filtered at enqueue time, so every
/// emitted frame consumes exactly one sequence number — the receiver's
/// strict FIFO check sees no gaps.
fn write_batch(
    seat: &WriterSeat,
    out: &mut Outbound,
    batch: &[Bytes],
    payload: &mut Vec<u8>,
    wire: &mut Vec<u8>,
) -> io::Result<()> {
    wire.clear();
    let mut rest = batch;
    let mut frames = 0u64;
    while !rest.is_empty() {
        // Greedy packing: take messages while the batch payload stays a
        // legal frame.
        let mut take = 0;
        let mut bytes = 4; // the u32 count prefix
        while take < rest.len() && bytes + rest[take].len() + FRAME_OVERHEAD <= MAX_FRAME_LEN {
            bytes += rest[take].len();
            take += 1;
        }
        let (chunk, tail) = rest.split_at(take.max(1));
        rest = tail;
        encode_batch_payload(payload, chunk);
        let (seq, mac) = out.mac.tag_next(payload);
        append_frame(wire, seat.me, seq, payload, &mac)
            .map_err(|e| io::Error::other(e.to_string()))?;
        frames += 1;
    }
    out.stream.write_all(wire)?;
    out.stream.flush()?;
    seat.frames.fetch_add(frames, Ordering::Relaxed);
    seat.messages
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    seat.metrics.frames_out_total.add(frames);
    seat.metrics.bytes_out_total.add(wire.len() as u64);
    Ok(())
}

/// Dials the seat's peer, performs the mutual handshake, and returns the
/// authenticated outbound link. Aborts between attempts on shutdown.
fn dial(seat: &WriterSeat) -> Result<Outbound, io::Error> {
    // Session ids are unique per (process, connection) within a run: the
    // MAC key is per-process, so a counter suffices to keep frames from
    // one connection unreplayable on any other.
    let session = (u64::from(seat.me.0) << 32)
        | (seat.session_counter.fetch_add(1, Ordering::SeqCst) & 0xFFFF_FFFF);
    let mut last_err = io::Error::other("no dial attempts made");
    for attempt in 0..seat.opts.connect_retries.max(1) {
        if seat.shared.stopping() {
            return Err(io::Error::other("shutting down"));
        }
        if attempt > 0 {
            std::thread::sleep(seat.opts.connect_backoff);
        }
        let stream = match TcpStream::connect_timeout(&seat.addr, seat.opts.connect_timeout) {
            Ok(s) => s,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        // Register before the handshake so Drop can unblock a writer
        // parked waiting for a HelloAck that never comes.
        let stream_id = seat.shared.register_stream(&stream);
        match handshake_as_dialer(seat, stream, session) {
            Ok(mut out) => {
                out.stream_id = stream_id;
                return Ok(out);
            }
            Err(e) => {
                if let Some(id) = stream_id {
                    seat.shared.unregister_stream(id);
                }
                last_err = e;
            }
        }
    }
    Err(last_err)
}

fn handshake_as_dialer(
    seat: &WriterSeat,
    mut stream: TcpStream,
    session: u64,
) -> Result<Outbound, io::Error> {
    write_msg(&mut stream, &Hello::signed(&seat.pair, session))
        .map_err(|e| io::Error::other(e.to_string()))?;
    stream.set_read_timeout(Some(seat.opts.handshake_timeout))?;
    let ack: HelloAck = read_msg(&mut stream)
        .map_err(|e| io::Error::other(e.to_string()))?
        .ok_or_else(|| io::Error::other("peer closed during handshake"))?;
    ack.verify(&seat.dir, seat.peer, session)
        .map_err(|e| io::Error::other(e.to_string()))?;
    stream.set_read_timeout(None)?;
    // Frame MACs bind both sides' freshness: the dialer's session id and
    // the listener's signed nonce. A recorded connection replayed later
    // meets a fresh listener nonce, so its frames never verify.
    Ok(Outbound {
        stream,
        mac: SessionMac::new(seat.pair.clone(), mix_session(session, ack.nonce)),
        stream_id: None,
    })
}

/// Accepts connections until shutdown; each accepted stream gets a handler
/// thread so a stalled handshake can never block other peers.
#[allow(clippy::too_many_arguments)]
fn accept_loop<M: SimMessage + Decode>(
    listener: TcpListener,
    pair: KeyPair,
    dir: KeyDirectory,
    my_id: ProcessId,
    inbound_tx: Sender<Inbound<M>>,
    shared: Arc<NetShared>,
    handshake_timeout: Duration,
    metrics: Arc<Metrics>,
) {
    let mut next_conn_id: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stopping() {
                    return;
                }
                // Transient accept errors (e.g. fd pressure) must not spin.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.stopping() {
            return;
        }
        // Reap handlers whose connections already ended, so a reconnecting
        // (or hostile connect-and-drop) peer cannot grow the thread list
        // without bound; the live-connection cap below bounds
        // connect-and-hold peers too.
        {
            let mut handlers = shared.handlers.lock().expect("not poisoned");
            let (finished, live): (Vec<_>, Vec<_>) =
                handlers.drain(..).partition(|h| h.is_finished());
            *handlers = live;
            for h in finished {
                let _ = h.join();
            }
        }
        next_conn_id += 1;
        let conn_id = next_conn_id;
        {
            let mut streams = shared.streams.lock().expect("not poisoned");
            // Count only accept-side entries (ids below the writer range)
            // against the inbound cap.
            if streams.keys().filter(|id| **id < (1 << 32)).count() >= MAX_INBOUND_CONNECTIONS {
                // At capacity: refuse by dropping. Correct peers redial.
                continue;
            }
            // Without the registered clone, Drop could never unblock this
            // connection's handler and shutdown would hang on its join —
            // so no clone, no handler.
            match stream.try_clone() {
                Ok(clone) => streams.insert(conn_id, clone),
                Err(_) => continue,
            };
        }
        let pair = pair.clone();
        let dir = dir.clone();
        let inbound_tx = inbound_tx.clone();
        let handler_shared = Arc::clone(&shared);
        let handler_metrics = Arc::clone(&metrics);
        let handle = std::thread::spawn(move || {
            serve_connection(
                stream,
                pair,
                dir,
                my_id,
                conn_id,
                inbound_tx,
                Arc::clone(&handler_shared),
                handshake_timeout,
                handler_metrics,
            );
            // The connection is over: release its fd clone immediately.
            handler_shared.unregister_stream(conn_id);
        });
        shared.handlers.lock().expect("not poisoned").push(handle);
    }
}

/// Runs one accepted connection: handshake, then verified frames into the
/// inbound queue. Every failure path returns (dropping the connection);
/// nothing here panics on peer-controlled input.
#[allow(clippy::too_many_arguments)]
fn serve_connection<M: SimMessage + Decode>(
    mut stream: TcpStream,
    pair: KeyPair,
    dir: KeyDirectory,
    my_id: ProcessId,
    conn_id: u64,
    inbound_tx: Sender<Inbound<M>>,
    shared: Arc<NetShared>,
    handshake_timeout: Duration,
    metrics: Arc<Metrics>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(handshake_timeout)).is_err() {
        return;
    }
    let hello: Hello = match read_msg(&mut stream) {
        Ok(Some(h)) => h,
        _ => return,
    };
    if hello.verify(&dir, my_id).is_err() {
        return;
    }
    // The listener's freshness contribution: unpredictable without this
    // process's key, unique per connection — what defeats replays of whole
    // recorded connections.
    let now_nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let nonce = derive_nonce(&pair, conn_id, now_nanos);
    if write_msg(&mut stream, &HelloAck::signed(&pair, hello.session, nonce)).is_err() {
        return;
    }
    if stream.set_read_timeout(None).is_err() {
        return;
    }
    let mut verifier = SessionVerifier::new(dir, hello.sender, mix_session(hello.session, nonce));
    let mut reader = BufReader::new(stream);
    // One body buffer for the connection's lifetime: frames are read into
    // it and decoded in place (`FrameRef`), so the steady state does zero
    // per-frame allocations and never copies a payload.
    let mut body = Vec::new();
    loop {
        if shared.stopping() {
            return;
        }
        let len = match read_frame_into(&mut reader, &mut body) {
            Ok(Some(len)) => len,
            // Clean close, truncation, oversized length, malformed body,
            // socket error: in every case, stop serving this connection.
            _ => return,
        };
        let Ok(frame) = decode_frame_borrowed(&body[..len]) else {
            return;
        };
        // The sender field must match the handshake-authenticated peer and
        // the MAC must verify (which also pins signer and sequence): the
        // claimed identity is checked cryptographically, never trusted.
        if frame.sender != verifier.peer()
            || verifier
                .verify(frame.seq, frame.payload, &frame.mac)
                .is_err()
        {
            metrics.mac_reject_total.inc();
            return;
        }
        metrics.frames_in_total.inc();
        metrics.bytes_in_total.add(len as u64);
        // One verified frame carries a whole writer drain: decode the
        // batch and hand it to the event loop as one queue operation.
        match decode_batch_payload::<M>(frame.payload) {
            Ok(mut msgs) if msgs.len() == 1 => {
                let msg = msgs.pop().expect("len checked");
                let _ = inbound_tx.send(Inbound::Peer(frame.sender, msg));
            }
            Ok(msgs) => {
                let _ = inbound_tx.send(Inbound::PeerBatch(frame.sender, msgs));
            }
            Err(_) => return,
        }
    }
}
