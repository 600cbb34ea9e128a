//! Loopback TCP cluster integration: real replicas over real sockets.
//!
//! Pins the acceptance criteria of the transport subsystem: an `n = 4,
//! f = t = 1` cluster reaches a unanimous decision over 127.0.0.1, hostile
//! bytes (bad MACs, spoofed senders, truncation, oversized lengths, random
//! garbage, a hostile payload under a valid MAC) are rejected without
//! panicking any replica thread, and shutdown joins every thread even with
//! undelivered traffic in flight.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use fastbft_core::replica::Replica;
use fastbft_core::Message;
use fastbft_crypto::session::{frame_preimage, mix_session, SessionMac};
use fastbft_crypto::{KeyDirectory, KeyPair, Signature};
use fastbft_net::frame::{encode_batch_payload, read_msg, write_msg, Frame, Hello, HelloAck};
use fastbft_net::{spawn_tcp, tcp_seats, tcp_seats_metered, TcpOptions};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::{spawn_with, TICK};
use fastbft_sim::{Actor, Effects, SimDuration, SimMessage, TimerId};
use fastbft_types::wire::to_bytes;
use fastbft_types::{Config, ProcessId, Value};

fn replicas(
    cfg: Config,
    input: u64,
    seed: u64,
) -> (
    Vec<Box<dyn Actor<Message> + Send>>,
    Vec<KeyPair>,
    KeyDirectory,
) {
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
    let actors = (0..cfg.n())
        .map(|i| -> Box<dyn Actor<Message> + Send> {
            Box::new(Replica::new(
                cfg,
                pairs[i].clone(),
                dir.clone(),
                Value::from_u64(input),
            ))
        })
        .collect();
    (actors, pairs, dir)
}

#[test]
fn four_replicas_decide_unanimously_over_loopback() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (actors, pairs, dir) = replicas(cfg, 7, 41);
    let (cluster, addrs) = spawn_tcp(actors, pairs, dir).unwrap();
    assert_eq!(addrs.len(), 4);
    let decisions = cluster.await_decisions(4, Duration::from_secs(20));
    cluster.shutdown();
    assert_eq!(decisions.len(), 4, "all four replicas must decide");
    for d in &decisions {
        assert_eq!(d.value, Value::from_u64(7), "{} decided wrongly", d.process);
    }
}

/// Every class of hostile input from the acceptance criteria, fired at a
/// live cluster which must still decide unanimously — proving the frames
/// were rejected without panicking or wedging any replica thread.
#[test]
fn hostile_frames_are_rejected_without_breaking_consensus() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (actors, pairs, dir) = replicas(cfg, 9, 43);
    // Keep an "attacker" copy of p4's key: a *member* key, used to probe
    // that even a legitimate key cannot spoof someone else's identity.
    let p4 = pairs[3].clone();
    let (cluster, addrs) = spawn_tcp(actors, pairs, dir).unwrap();
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
        let wish = to_bytes(&Message::Wish(fastbft_core::message::WishMsg {
            view: fastbft_types::View(2),
        }));
        encode_batch_payload(&mut payload, &[wish]);
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
        let payload = to_bytes(&Message::Wish(fastbft_core::message::WishMsg {
            view: fastbft_types::View(3),
        }));
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

    // Despite all of the above, the protocol proceeds to a unanimous
    // decision and no replica thread has panicked.
    let decisions = cluster.await_decisions(4, Duration::from_secs(20));
    cluster.shutdown();
    assert_eq!(
        decisions.len(),
        4,
        "hostile frames must not block consensus"
    );
    for d in &decisions {
        assert_eq!(d.value, Value::from_u64(9));
    }
}

/// The case the six above cannot reach — all of them are refused before a
/// payload is decoded: an *authenticated* member whose frame carries a
/// *valid* MAC and a hostile payload. p4 sends a `Propose` whose certificate
/// opens 2 000 nested levels of the whole-vote-set form (`ProgressCert` tag
/// 2, 22 bytes a level) and then ends. While that tag decoded, this frame
/// overflowed the reader thread's stack and aborted the process; now the
/// decode fails at the first tag, p1 closes that one connection and the
/// cluster decides.
#[test]
fn authenticated_peer_with_a_nested_certificate_is_dropped_in_decode() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (actors, pairs, dir) = replicas(cfg, 11, 61);
    let p4 = pairs[3].clone();
    let registry = MetricsRegistry::new(cfg.n());
    let (seats, addrs) =
        tcp_seats_metered(actors, pairs, dir, TcpOptions::default(), &registry).unwrap();
    let cluster = spawn_with(seats, TICK);

    let mut s = TcpStream::connect(addrs[0]).unwrap();
    let session = 0xBAD_0004;
    write_msg(&mut s, &Hello::signed(&p4, session)).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let ack: HelloAck = read_msg(&mut s).unwrap().expect("ack");

    // Message::Propose, an empty value, view 1, then the certificate chain:
    // tag 2, one vote, voter p1, Some(VoteData { empty value, view 1, …
    let mut msg = [&[1u8][..], &0u32.to_be_bytes(), &1u64.to_be_bytes()].concat();
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

    let decisions = cluster.await_decisions(4, Duration::from_secs(20));
    cluster.shutdown();
    assert_eq!(
        decisions.len(),
        4,
        "a hostile payload must not block consensus"
    );
    for d in &decisions {
        assert_eq!(d.value, Value::from_u64(11));
    }
    // The frame passed the MAC and died in decode, not before.
    let p1 = registry.metrics(0);
    assert_eq!(p1.mac_reject_total.get(), 0);
    assert!(p1.frames_in_total.get() >= 1);
}

/// The inbound-connection cap at its edge: p1's listener keeps 256
/// unauthenticated connect-and-hold sockets, closes the 257th unanswered —
/// its first read is end-of-file, no `HelloAck` — and still holds the
/// 256th; once the holders close, the cluster decides.
#[test]
fn the_257th_inbound_connection_is_closed_unanswered() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (actors, pairs, dir) = replicas(cfg, 13, 67);
    // No holder's handshake may time out (and free its place) mid-test.
    let opts = TcpOptions {
        handshake_timeout: Duration::from_secs(60),
        ..TcpOptions::default()
    };
    // Transports dial on first send, so until the cluster spawns the
    // holders are p1's only inbound connections.
    let (seats, addrs) = tcp_seats(actors, pairs, dir, opts).unwrap();
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
    // The accept loop takes connections in order: the 256th was in before
    // the 257th was turned away, and it is still open.
    let mut last = &holders[255];
    last.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let held = last.read(&mut [0u8; 1]).unwrap_err().kind();
    assert!(
        matches!(held, ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "the 256th connection is held: {held:?}"
    );

    drop(holders);
    let cluster = spawn_with(seats, TICK);
    let decisions = cluster.await_decisions(4, Duration::from_secs(30));
    cluster.shutdown();
    assert_eq!(
        decisions.len(),
        4,
        "the cluster decides once the holders close"
    );
    for d in &decisions {
        assert_eq!(d.value, Value::from_u64(13));
    }
}

/// Replaying a recorded connection cannot work: the listener contributes a
/// fresh signed nonce per connection, so an identical replayed `Hello`
/// yields a different ack nonce — and frame MACs are bound to the mix of
/// both contributions (`mix_session`), so every recorded frame dies with
/// the old nonce (`SessionVerifier` rejection pinned in `fastbft_crypto`).
#[test]
fn replayed_handshake_gets_a_fresh_listener_nonce() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (actors, pairs, dir) = replicas(cfg, 2, 59);
    let p4 = pairs[3].clone();
    let (cluster, addrs) = spawn_tcp(actors, pairs, dir).unwrap();

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
    let (cluster, _addrs) = spawn_tcp(actors, pairs, dir).unwrap();
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

/// The generalized configuration also runs over TCP (exercises 8 listeners
/// and 56 authenticated connections).
#[test]
fn generalized_config_decides_over_loopback() {
    let cfg = Config::new(8, 2, 1).unwrap();
    let (actors, pairs, dir) = replicas(cfg, 5, 53);
    let (cluster, _addrs) = spawn_tcp(actors, pairs, dir).unwrap();
    let decisions = cluster.await_decisions(8, Duration::from_secs(30));
    cluster.shutdown();
    assert_eq!(decisions.len(), 8);
    for d in &decisions {
        assert_eq!(d.value, Value::from_u64(5));
    }
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
