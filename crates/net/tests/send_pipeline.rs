//! The send pipeline's three load-bearing invariants, asserted directly:
//!
//! 1. **Encode-once broadcast** — a broadcast of one protocol message
//!    encodes the payload exactly once regardless of cluster size
//!    (instrumented encoder), sharing the bytes across every peer queue.
//! 2. **Non-blocking sends** — no `send`/`broadcast` on the TCP transport
//!    ever blocks on connect, redial or handshake: the event-loop thread
//!    does no socket work. A blackholed peer costs its own writer thread,
//!    a bounded queue, and counted drops — never the actor's time.
//! 3. **One MAC per drain** — messages queued behind a busy writer leave
//!    in one frame per drain, each frame MACed once, not one per message.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fastbft_crypto::session::{mix_session, SessionVerifier};
use fastbft_crypto::KeyDirectory;
use fastbft_net::frame::{decode_batch_payload, read_msg, write_msg, Frame, Hello, HelloAck};
use fastbft_net::{TcpOptions, TcpTransport};
use fastbft_runtime::{Polled, Transport};
use fastbft_sim::SimMessage;
use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::ProcessId;

/// How many times any [`Probe`] was encoded, across the test process.
static ENCODES: AtomicUsize = AtomicUsize::new(0);

/// The test harness runs `#[test]`s of one binary in parallel, and every
/// test here sends `Probe`s — serialize them so the ENCODES deltas the
/// encode-once assertions read cannot be inflated by a concurrent test.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A probe message whose encoder counts invocations.
#[derive(Clone, Debug, PartialEq)]
struct Probe(u64);

impl SimMessage for Probe {
    fn kind(&self) -> &'static str {
        "probe"
    }
    fn wire_size(&self) -> usize {
        8
    }
}

impl Encode for Probe {
    fn encode(&self, buf: &mut Vec<u8>) {
        ENCODES.fetch_add(1, Ordering::SeqCst);
        self.0.encode(buf);
    }
}

impl Decode for Probe {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Probe(u64::decode(r)?))
    }
}

/// Fast-failure options so the teardown of deliberately-hostile topologies
/// stays quick.
fn fast_opts() -> TcpOptions {
    TcpOptions {
        handshake_timeout: Duration::from_millis(200),
        connect_retries: 2,
        connect_backoff: Duration::from_millis(10),
        connect_timeout: Duration::from_millis(200),
        redial_cooldown: Duration::from_millis(50),
        ..TcpOptions::default()
    }
}

/// One transport for process `p1` in an `n`-process cluster whose other
/// listeners exist but are never served (bound, never accepted from).
fn lone_transport(n: usize) -> (TcpTransport<Probe>, Vec<TcpListener>) {
    let (pairs, dir) = KeyDirectory::generate(n, 71);
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
        .collect();
    let addrs = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let mine = listeners[0].try_clone().unwrap();
    let (transport, _control) =
        TcpTransport::start(pairs[0].clone(), dir, mine, addrs, fast_opts()).unwrap();
    (transport, listeners)
}

#[test]
fn broadcast_encodes_the_payload_exactly_once_regardless_of_n() {
    let _serial = serial();
    for n in [4usize, 7] {
        let (mut transport, _listeners) = lone_transport(n);
        let before = ENCODES.load(Ordering::SeqCst);
        transport.broadcast(Probe(99));
        let encodes = ENCODES.load(Ordering::SeqCst) - before;
        assert_eq!(
            encodes, 1,
            "broadcast to n = {n} must encode once, encoded {encodes} times"
        );
        // The self-copy is delivered without any socket or re-encode.
        match transport.recv(Some(Duration::from_secs(2))) {
            Polled::Delivered(from, Probe(99)) => assert_eq!(from, ProcessId(1)),
            other => panic!("self-delivery missing: {other:?}"),
        }
    }
}

#[test]
fn point_to_point_send_also_encodes_exactly_once() {
    let _serial = serial();
    let (mut transport, _listeners) = lone_transport(4);
    let before = ENCODES.load(Ordering::SeqCst);
    transport.send(ProcessId(3), Probe(5));
    assert_eq!(ENCODES.load(Ordering::SeqCst) - before, 1);
}

#[test]
fn messages_queued_behind_a_busy_writer_leave_in_fewer_frames_one_mac_each() {
    let _serial = serial();
    const K: u64 = 8;
    let (pairs, dir) = KeyDirectory::generate(2, 73);
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
        .collect();
    let addrs = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let mine = listeners[0].try_clone().unwrap();
    let (mut transport, _control) = TcpTransport::<Probe>::start(
        pairs[0].clone(),
        dir.clone(),
        mine,
        addrs,
        TcpOptions::default(),
    )
    .unwrap();
    // The test plays p2. p1's writer drains what is queued, dials, and
    // waits in the handshake for a `HelloAck` that is withheld until all
    // K messages are queued: the rest leave in the writer's next drain.
    for i in 0..K {
        transport.send(ProcessId(2), Probe(i));
    }
    let (mut peer, _) = listeners[1].accept().unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hello: Hello = read_msg(&mut peer).unwrap().expect("hello");
    hello.verify(&dir, ProcessId(2)).unwrap();
    let nonce = 0x5EED;
    write_msg(
        &mut peer,
        &HelloAck::signed(&pairs[1], hello.session, nonce),
    )
    .unwrap();

    let mut verifier = SessionVerifier::new(dir, ProcessId(1), mix_session(hello.session, nonce));
    let mut received = Vec::new();
    let mut frames = 0;
    while received.len() < K as usize {
        let frame: Frame = read_msg(&mut peer).unwrap().expect("frame");
        verifier
            .verify(frame.seq, &frame.payload, &frame.mac)
            .unwrap_or_else(|e| panic!("frame {} must verify: {e}", frame.seq));
        received.extend(decode_batch_payload::<Probe>(&frame.payload).unwrap());
        frames += 1;
    }
    assert!(
        frames < K,
        "{K} queued messages must share frames, got {frames} frames"
    );
    assert_eq!(received, (0..K).map(Probe).collect::<Vec<_>>());
}

#[test]
fn sends_to_unreachable_and_blackholed_peers_never_block() {
    let _serial = serial();
    // Peer 2's address refuses connections (listener bound then dropped),
    // peer 3's accepts but never handshakes (blackhole), peer 4's is a
    // live-but-unserved listener. Every failure mode lives on the writer
    // threads; `send` must return in microseconds throughout.
    let (mut transport, listeners) = lone_transport(4);
    let stats = transport.stats();
    drop(listeners); // now even the TCP accepts stop
    let start = Instant::now();
    const SENDS: u32 = 300;
    for i in 0..SENDS {
        transport.send(ProcessId(2), Probe(u64::from(i)));
        transport.send(ProcessId(3), Probe(u64::from(i)));
        transport.broadcast(Probe(u64::from(i)));
    }
    let elapsed = start.elapsed();
    // 1200 sends against dead peers: the old write-on-event-loop design
    // stalled up to connect_timeout × retries per send; the pipeline only
    // pays an enqueue. Generous bound for slow shared-core runners.
    assert!(
        elapsed < Duration::from_millis(500),
        "sends must not block on dead peers: {SENDS} rounds took {elapsed:?}"
    );
    // The writers eventually give up and count the drops.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.total_dropped() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        stats.total_dropped() > 0,
        "undeliverable frames must be counted as dropped"
    );
}

#[test]
fn full_queue_drops_are_counted_not_blocking() {
    let _serial = serial();
    let (pairs, dir) = KeyDirectory::generate(2, 72);
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
        .collect();
    let addrs = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let mine = listeners[0].try_clone().unwrap();
    let opts = TcpOptions {
        // Tiny queue so the bound is hit deterministically while the
        // writer is stuck courting the blackholed peer.
        outbound_queue_frames: 4,
        handshake_timeout: Duration::from_secs(2),
        connect_timeout: Duration::from_secs(2),
        ..fast_opts()
    };
    let (mut transport, _control) =
        TcpTransport::<Probe>::start(pairs[0].clone(), dir, mine, addrs, opts).unwrap();
    let stats = transport.stats();
    // Peer 2 accepts (kernel backlog) but never handshakes: the writer
    // blocks in its handshake read, the queue fills, and every further
    // send drops instantly.
    for i in 0..200u64 {
        transport.send(ProcessId(2), Probe(i));
    }
    assert!(
        stats.dropped_to(ProcessId(2)) >= 150,
        "full bounded queue must shed load: only {} drops",
        stats.dropped_to(ProcessId(2))
    );
    // Nothing was dropped toward self (self-delivery bypasses queues).
    assert_eq!(stats.dropped_to(ProcessId(1)), 0);
}
