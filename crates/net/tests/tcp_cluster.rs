//! Loopback TCP cluster integration: real replicas over real sockets.
//!
//! Pins the acceptance criteria of the transport subsystem: hostile bytes
//! (bad MACs, spoofed senders, truncation, oversized lengths, random
//! garbage, a hostile payload under a valid MAC, a flood of
//! unauthenticated connections) are rejected without panicking any replica
//! thread — an `n = 4, f = t = 1` SMR cluster over 127.0.0.1 still applies
//! every submitted command, checked by the SMR checker — and shutdown
//! joins every thread even with undelivered traffic in flight.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use fastbft_core::Message;
use fastbft_crypto::session::{frame_preimage, mix_session, SessionMac};
use fastbft_crypto::{KeyDirectory, Signature};
use fastbft_net::frame::{encode_batch_payload, read_msg, write_msg, Frame, Hello, HelloAck};
use fastbft_net::{tcp_seats, tcp_seats_metered, TcpOptions};
use fastbft_runtime::{spawn_with, TICK};
use fastbft_sim::{Actor, Effects, ScriptedActor, SimDuration, SimMessage, TimerId};
use fastbft_smr::{KvCommand, KvStore, SlotMessage, SmrClusterHandle};
use fastbft_types::wire::to_bytes;
use fastbft_types::{Config, ProcessId};

/// Spawns an `n = 4` SMR cluster on metered loopback-TCP seats with keys
/// from `seed`. `before_start` sees the listener addresses once every
/// listener accepts and before any replica thread runs (transports dial on
/// first send, so until then a test's connections are the only inbound
/// ones).
fn spawn_kv_tcp(
    seed: u64,
    opts: TcpOptions,
    before_start: impl FnOnce(&[SocketAddr]),
) -> (SmrClusterHandle, Vec<SocketAddr>) {
    let cfg = Config::new(4, 1, 1).unwrap();
    let mut addrs = Vec::new();
    let cluster = SmrClusterHandle::spawn(
        cfg,
        seed,
        KvStore::new(),
        vec![Vec::new(); cfg.n()],
        |actors, pairs, dir, registry| {
            let (seats, bound) =
                tcp_seats_metered(actors, pairs, dir, opts, registry).expect("loopback bind");
            before_start(&bound);
            addrs = bound;
            seats
        },
        |_, node| Box::new(node),
    );
    (cluster, addrs)
}

/// Submits four puts to the running cluster and asserts that every replica
/// applies all four with the SMR checker clean — no replica thread
/// panicked or wedged.
fn all_four_apply(cluster: &mut SmrClusterHandle, why: &str) {
    for i in 0..4 {
        let put = KvCommand::Put {
            key: format!("k{i}"),
            value: format!("v{i}"),
        };
        cluster.submit(put.to_value());
    }
    let all = (1..=4).map(ProcessId);
    assert!(
        cluster.await_commands(all, 4, Duration::from_secs(30)),
        "{why}: logs {:?}",
        cluster.logs()
    );
    assert_eq!(cluster.violations(), []);
}

/// A consensus message for slot 0, as a peer would frame it.
fn wish(view: u64) -> Vec<u8> {
    to_bytes(&SlotMessage::Consensus {
        slot: 0,
        inner: Message::Wish(fastbft_core::message::WishMsg {
            view: fastbft_types::View(view),
        }),
    })
}

/// Every class of hostile input from the acceptance criteria, fired at a
/// live cluster which must still apply every submitted command — proving
/// the frames were rejected without panicking or wedging any replica
/// thread.
#[test]
fn hostile_frames_are_rejected_without_breaking_consensus() {
    // An "attacker" copy of p4's key: a *member* key, used to probe that
    // even a legitimate key cannot spoof someone else's identity.
    let p4 = KeyDirectory::generate(4, 43).0[3].clone();
    let (mut cluster, addrs) = spawn_kv_tcp(43, TcpOptions::default(), |_| {});
    let target = addrs[0]; // everything below attacks p1

    // (a) Pure garbage: not even a handshake.
    {
        let mut s = TcpStream::connect(target).unwrap();
        s.write_all(&[0xAB; 64]).unwrap();
    }

    // (b) Oversized declared frame length, first thing on the wire.
    {
        let mut s = TcpStream::connect(target).unwrap();
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
    }

    // (c) Truncated frame: a length prefix promising more than is sent.
    {
        let mut s = TcpStream::connect(target).unwrap();
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        // connection drops here, mid-frame
    }

    // (d) Valid handshake as p4, then a frame with a corrupted MAC.
    {
        let mut s = TcpStream::connect(target).unwrap();
        let session = 0xBAD_0001;
        write_msg(&mut s, &Hello::signed(&p4, session)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ack: HelloAck = read_msg(&mut s).unwrap().expect("ack");
        let mut payload = Vec::new();
        encode_batch_payload(&mut payload, &[wish(2)]);
        // Everything but the flipped byte is what a correct p4 would send.
        let mut mac = SessionMac::new(p4.clone(), mix_session(session, ack.nonce));
        let (seq, sig) = mac.tag_next(&payload);
        let mut bad_tag = *sig.tag();
        bad_tag[0] ^= 0xFF;
        let frame = Frame {
            sender: p4.id(),
            seq,
            payload,
            mac: Signature::from_parts(p4.id(), bad_tag),
        };
        write_msg(&mut s, &frame).unwrap();
    }

    // (e) Valid handshake as p4, then a frame claiming to be from p2 —
    // a wrong claimed sender under a genuine member key.
    {
        let mut s = TcpStream::connect(target).unwrap();
        let session = 0xBAD_0002;
        write_msg(&mut s, &Hello::signed(&p4, session)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ack: HelloAck = read_msg(&mut s).unwrap().expect("ack");
        let payload = wish(3);
        // p4 signs honestly, but stamps p2 as the frame sender.
        let session = mix_session(session, ack.nonce);
        let sig = p4.sign(&frame_preimage(session, 1, &payload));
        let frame = Frame {
            sender: ProcessId(2),
            seq: 1,
            payload,
            mac: sig,
        };
        write_msg(&mut s, &frame).unwrap();
    }

    // (f) Handshake claiming an identity the dialer has no key for.
    {
        let mut s = TcpStream::connect(target).unwrap();
        let mut hello = Hello::signed(&p4, 0xBAD_0003);
        hello.sender = ProcessId(2); // signature is p4's: must be refused
        write_msg(&mut s, &hello).unwrap();
    }

    // Despite all of the above, every replica applies what the client
    // submits and no replica thread has panicked.
    all_four_apply(&mut cluster, "hostile frames must not block consensus");
    cluster.shutdown();
}

/// The case the six above cannot reach — all of them are refused before a
/// payload is decoded: an *authenticated* member whose frame carries a
/// *valid* MAC and a hostile payload. p4 sends slot 0 a `Propose` whose
/// certificate opens 2 000 nested levels of the whole-vote-set form
/// (`ProgressCert` tag 2, 22 bytes a level) and then ends. While that tag
/// decoded, this frame overflowed the reader thread's stack and aborted the
/// process; now the decode fails at the first tag, p1 closes that one
/// connection and the cluster applies what is submitted.
#[test]
fn authenticated_peer_with_a_nested_certificate_is_dropped_in_decode() {
    let p4 = KeyDirectory::generate(4, 61).0[3].clone();
    let (mut cluster, addrs) = spawn_kv_tcp(61, TcpOptions::default(), |_| {});

    let mut s = TcpStream::connect(addrs[0]).unwrap();
    let session = 0xBAD_0004;
    write_msg(&mut s, &Hello::signed(&p4, session)).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let ack: HelloAck = read_msg(&mut s).unwrap().expect("ack");

    // SlotMessage::Consensus for slot 0 around Message::Propose, an empty
    // value, view 1, then the certificate chain: tag 2, one vote, voter p1,
    // Some(VoteData { empty value, view 1, …
    let mut msg = [
        &[1u8][..],
        &0u64.to_be_bytes(),
        &[1u8],
        &0u32.to_be_bytes(),
        &1u64.to_be_bytes(),
    ]
    .concat();
    let level = [
        &[2u8][..],
        &1u32.to_be_bytes(),
        &1u32.to_be_bytes(),
        &[1],
        &0u32.to_be_bytes(),
        &1u64.to_be_bytes(),
    ]
    .concat();
    msg.extend(level.repeat(2_000));
    let mut payload = Vec::new();
    encode_batch_payload(&mut payload, &[msg]);
    let mut mac = SessionMac::new(p4.clone(), mix_session(session, ack.nonce));
    let (seq, sig) = mac.tag_next(&payload);
    let frame = Frame {
        sender: p4.id(),
        seq,
        payload,
        mac: sig,
    };
    write_msg(&mut s, &frame).unwrap();
    // p1 drops the connection: the attacker's next read is end-of-file.
    assert_eq!(
        s.read(&mut [0u8; 1]).unwrap(),
        0,
        "p1 closed the connection"
    );

    all_four_apply(&mut cluster, "a hostile payload must not block consensus");
    // The frame passed the MAC and died in decode, not before.
    let p1 = cluster.registry().metrics(0);
    assert_eq!(p1.mac_reject_total.get(), 0);
    assert!(p1.frames_in_total.get() >= 1);
    cluster.shutdown();
}

/// The inbound-connection cap at its edge: p1's listener keeps 256
/// unauthenticated connect-and-hold sockets, closes the 257th unanswered —
/// its first read is end-of-file, no `HelloAck` — and still holds the
/// 256th; once the holders close, the cluster applies what is submitted.
#[test]
fn the_257th_inbound_connection_is_closed_unanswered() {
    // No holder's handshake may time out (and free its place) mid-test.
    let opts = TcpOptions {
        handshake_timeout: Duration::from_secs(60),
        ..TcpOptions::default()
    };
    let (mut cluster, _) = spawn_kv_tcp(67, opts, |addrs| {
        let holders: Vec<TcpStream> = (0..256)
            .map(|_| TcpStream::connect(addrs[0]).unwrap())
            .collect();
        let mut refused = TcpStream::connect(addrs[0]).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(
            refused.read(&mut [0u8; 1]).unwrap(),
            0,
            "the 257th connection is closed before any handshake"
        );
        // The accept loop takes connections in order: the 256th was in
        // before the 257th was turned away, and it is still open.
        let mut last = &holders[255];
        last.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let held = last.read(&mut [0u8; 1]).unwrap_err().kind();
        assert!(
            matches!(held, ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "the 256th connection is held: {held:?}"
        );
        // The holders close here, before any replica thread starts.
    });
    all_four_apply(&mut cluster, "the cluster commits once the holders close");
    cluster.shutdown();
}

/// Replaying a recorded connection cannot work: the listener contributes a
/// fresh signed nonce per connection, so an identical replayed `Hello`
/// yields a different ack nonce — and frame MACs are bound to the mix of
/// both contributions (`mix_session`), so every recorded frame dies with
/// the old nonce (`SessionVerifier` rejection pinned in `fastbft_crypto`).
#[test]
fn replayed_handshake_gets_a_fresh_listener_nonce() {
    let (pairs, dir) = KeyDirectory::generate(4, 59);
    let p4 = pairs[3].clone();
    let actors = (0..4)
        .map(|_| -> Box<dyn Actor<Message> + Send> { Box::new(ScriptedActor::silent()) })
        .collect();
    let (seats, addrs) = tcp_seats(actors, pairs, dir, TcpOptions::default()).unwrap();
    let cluster = spawn_with(seats, TICK);

    let hello = Hello::signed(&p4, 0xCAFE); // the "recording"
    let mut nonces = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        write_msg(&mut s, &hello).unwrap(); // identical bytes both times
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ack: HelloAck = read_msg(&mut s).unwrap().expect("ack");
        nonces.push(ack.nonce);
    }
    cluster.shutdown();
    assert_ne!(
        nonces[0], nonces[1],
        "listener must contribute fresh freshness per connection"
    );
}

/// An actor that floods peers with messages and arms far-future timers —
/// shutdown must still join every thread promptly. Echoing is bounded so
/// the traffic is lively but finite.
#[derive(Debug)]
struct Flooder {
    echoes_left: u32,
}

impl Actor<Message> for Flooder {
    fn on_start(&mut self, fx: &mut Effects<Message>) {
        for _ in 0..50 {
            fx.broadcast(Message::Wish(fastbft_core::message::WishMsg {
                view: fastbft_types::View(2),
            }));
        }
        for i in 0..20 {
            fx.set_timer(SimDuration(1_000_000 + i), TimerId(i));
        }
    }

    fn on_message(&mut self, _from: ProcessId, _msg: Message, fx: &mut Effects<Message>) {
        // Keep traffic flowing so shutdown races against live deliveries.
        if self.echoes_left > 0 {
            self.echoes_left -= 1;
            fx.broadcast_others(Message::Wish(fastbft_core::message::WishMsg {
                view: fastbft_types::View(2),
            }));
        }
    }
}

#[test]
fn shutdown_joins_with_inflight_timers_and_messages_tcp() {
    let n = 4;
    let (pairs, dir) = KeyDirectory::generate(n, 47);
    let actors: Vec<Box<dyn Actor<Message> + Send>> = (0..n)
        .map(|_| -> Box<dyn Actor<Message> + Send> { Box::new(Flooder { echoes_left: 500 }) })
        .collect();
    let (seats, _addrs) = tcp_seats(actors, pairs, dir, TcpOptions::default()).unwrap();
    let cluster = spawn_with(seats, TICK);
    // Let the flood start, then tear down mid-traffic with timers armed.
    std::thread::sleep(Duration::from_millis(100));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("TCP cluster shutdown deadlocked");
}

/// `SimMessage::wire_size` (used by the message-complexity experiment)
/// agrees with what the transport actually puts in a frame payload.
#[test]
fn frame_payload_matches_wire_size() {
    let msg = Message::Wish(fastbft_core::message::WishMsg {
        view: fastbft_types::View(1),
    });
    assert_eq!(to_bytes(&msg).len(), msg.wire_size());
}
