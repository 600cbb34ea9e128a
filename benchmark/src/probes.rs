//! Probes: direct, timed calls into one layer's public functions.
//!
//! The hop probes answer what `tcp_latency` claimed to and did not: the
//! steady-state cost of **one message delay** on a warm link, separate
//! from connection set-up (which `setup_s` owns). The codec and crypto
//! probes time the per-message work on real `SlotMessage`s captured by the
//! traced run, so their sizes are the workload's own.

use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use fastbft_core::message::AckMsg;
use fastbft_core::Message;
use fastbft_crypto::session::{SessionMac, SessionVerifier};
use fastbft_crypto::KeyDirectory;
use fastbft_net::frame::{
    append_frame, decode_batch_payload, decode_frame_borrowed, encode_batch_payload,
};
use fastbft_net::{TcpOptions, TcpTransport};
use fastbft_runtime::{
    ChannelTransport, FaultPlan, FaultTransport, LinkProfile, Polled, Transport,
};
use fastbft_smr::{SlotMessage, StateMachine};
use fastbft_types::wire::{encode_into, from_bytes};
use fastbft_types::{ProcessId, Value, View};

use crate::oracle::TaggedKv;
use crate::stats::Percentiles;
use crate::workload::{CommandGen, Workload};

/// Samples per hop probe (after [`HOP_WARMUP`] untimed ones).
const TCP_HOP_SAMPLES: usize = 10_000;
const CHANNEL_HOP_SAMPLES: usize = 10_000;
const FAULT_HOP_SAMPLES: usize = 1_000;
const HOP_WARMUP: usize = 200;
/// Pause between probe sends: long enough that the receiving side goes
/// back to waiting, as it does between the messages of a paced workload.
const HOP_GAP: Duration = Duration::from_micros(100);
/// Every timed loop runs at least this long.
const MIN_LOOP: Duration = Duration::from_millis(20);
/// Commands applied straight to the store for the no-consensus baseline.
const APPLY_ONLY_CMDS: u64 = 50_000;

/// A realistically sized protocol message carrying its sample number: an
/// ack for a 16-byte `Put` (the bulk of a slot's traffic).
fn probe_message(i: u64) -> SlotMessage {
    SlotMessage::Consensus {
        slot: i,
        inner: Message::Ack(AckMsg {
            value: Value::new(vec![b'v'; 50]),
            view: View(1),
            share: None,
        }),
    }
}

fn probe_index(msg: &SlotMessage) -> Option<usize> {
    match msg {
        SlotMessage::Consensus { slot, .. } => Some(*slot as usize),
        _ => None,
    }
}

/// One-way latencies, in ns, of `samples` messages sent on `tx` to `to`
/// and received on `rx` by another thread, as in a running cluster. Both
/// ends read the same clock. The first [`HOP_WARMUP`] messages (dial,
/// handshake, cold caches) are not timed.
fn one_way<A, B>(tx: &mut A, mut rx: B, to: ProcessId, samples: usize, gap: Duration) -> Vec<u64>
where
    A: Transport<SlotMessage>,
    B: Transport<SlotMessage>,
{
    let total = samples + HOP_WARMUP;
    let receiver = std::thread::spawn(move || {
        let mut arrived: Vec<Option<Instant>> = vec![None; total];
        let mut seen = 0;
        while seen < total {
            let mut note = |msg: &SlotMessage| {
                if let Some(slot) = probe_index(msg).and_then(|i| arrived.get_mut(i)) {
                    *slot = Some(Instant::now());
                    seen += 1;
                }
            };
            match rx.recv(Some(Duration::from_secs(5))) {
                Polled::Delivered(_, msg) => note(&msg),
                Polled::DeliveredBatch(_, msgs) => msgs.iter().for_each(note),
                Polled::Client(_) => {}
                Polled::TimedOut | Polled::Shutdown | Polled::Closed => break,
            }
        }
        arrived
    });
    let mut sent = Vec::with_capacity(total);
    for i in 0..total {
        let msg = probe_message(i as u64);
        sent.push(Instant::now());
        tx.send(to, msg);
        std::thread::sleep(gap);
    }
    let arrived = receiver.join().expect("probe receiver does not panic");
    sent.iter()
        .zip(arrived)
        .skip(HOP_WARMUP)
        .filter_map(|(s, a)| a.map(|a| a.saturating_duration_since(*s).as_nanos() as u64))
        .collect()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Hop {
    pub p50_us: f64,
    pub p90_us: f64,
    pub samples: usize,
}

fn hop(mut ns: Vec<u64>) -> Hop {
    let p = Percentiles::of(&mut ns);
    Hop {
        p50_us: us(p.p50),
        p90_us: us(p.p90),
        samples: p.samples,
    }
}

/// `send` → peer `recv` over a warm two-node loopback `TcpTransport`.
pub fn tcp_hop() -> io::Result<Hop> {
    let (pairs, dir) = KeyDirectory::generate(2, 0xB0B);
    let listeners = [
        TcpListener::bind(("127.0.0.1", 0))?,
        TcpListener::bind(("127.0.0.1", 0))?,
    ];
    let addrs = vec![listeners[0].local_addr()?, listeners[1].local_addr()?];
    let [la, lb] = listeners;
    let start = |pair, listener| {
        TcpTransport::<SlotMessage>::start(
            pair,
            dir.clone(),
            listener,
            addrs.clone(),
            TcpOptions::default(),
        )
    };
    let (mut a, _control_a) = start(pairs[0].clone(), la)?;
    let (b, _control_b) = start(pairs[1].clone(), lb)?;
    Ok(hop(one_way(
        &mut a,
        b,
        ProcessId(2),
        TCP_HOP_SAMPLES,
        HOP_GAP,
    )))
}

/// The two ends of a two-node channel mesh.
fn channel_pair() -> (ChannelTransport<SlotMessage>, ChannelTransport<SlotMessage>) {
    let mut mesh = ChannelTransport::mesh(2).into_iter().map(|(t, _control)| t);
    let a = mesh.next().expect("two nodes");
    (a, mesh.next().expect("two nodes"))
}

/// One hop of the in-process channel mesh, thread to thread.
pub fn channel_hop() -> Hop {
    let (mut a, b) = channel_pair();
    hop(one_way(
        &mut a,
        b,
        ProcessId(2),
        CHANNEL_HOP_SAMPLES,
        HOP_GAP,
    ))
}

/// One hop through a `FaultTransport` adding `delta`, minus `delta`: what
/// the delay queue costs on top of the delay it was asked for.
pub fn fault_hop_excess(delta: Duration) -> Hop {
    let (mut a, b) = channel_pair();
    let plan = FaultPlan::new();
    plan.set_default(LinkProfile::delayed(delta, Duration::ZERO));
    let b = FaultTransport::new(b, ProcessId(2), plan, 1);
    let ns = one_way(&mut a, b, ProcessId(2), FAULT_HOP_SAMPLES, HOP_GAP * 5);
    let delta_ns = delta.as_nanos() as u64;
    hop(ns.into_iter().map(|v| v.saturating_sub(delta_ns)).collect())
}

/// Runs `body` over and over for at least [`MIN_LOOP`] and returns the
/// mean time of one call in ns.
fn ns_per_call(mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..64 {
            body();
        }
        calls += 64;
        let took = start.elapsed();
        if took >= MIN_LOOP {
            return took.as_nanos() as f64 / calls as f64;
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Crypto {
    pub sign_ns: f64,
    pub verify_cold_ns: f64,
    pub verify_memo_ns: f64,
    pub value_digest_ns_per_kib: f64,
    pub session_mac_ns_per_kib: f64,
}

pub fn crypto() -> Crypto {
    let (pairs, dir) = KeyDirectory::generate(4, 0xC0DE);
    // Signed statements are short and fixed-size (a domain tag, a view and
    // a value digest); 64 bytes is their order of magnitude.
    let statement = [0x5au8; 64];
    let sig = pairs[0].sign(&statement);
    let (_, memo_dir) = KeyDirectory::generate(4, 0xC0DE);
    memo_dir.enable_shared_memo();
    assert!(
        memo_dir.verify(&statement, &sig),
        "probe signature verifies"
    );
    let kib = vec![0xa5u8; 1024];
    let mut mac = SessionMac::new(pairs[1].clone(), 7);
    Crypto {
        sign_ns: ns_per_call(|| {
            black_box(pairs[0].sign(black_box(&statement)));
        }),
        verify_cold_ns: ns_per_call(|| {
            black_box(dir.verify(black_box(&statement), &sig));
        }),
        verify_memo_ns: ns_per_call(|| {
            black_box(memo_dir.verify(black_box(&statement), &sig));
        }),
        value_digest_ns_per_kib: ns_per_call(|| {
            black_box(fastbft_crypto::digest(black_box(&kib)));
        }),
        session_mac_ns_per_kib: ns_per_call(|| {
            black_box(mac.tag_next(black_box(&kib)));
        }),
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Codec {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub msg_bytes_mean: f64,
    /// Messages the probe ran over.
    pub sample: usize,
}

/// Encode and decode cost over the captured messages.
pub fn codec(msgs: &[SlotMessage]) -> Codec {
    if msgs.is_empty() {
        return Codec::default();
    }
    let encoded: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut buf = Vec::new();
            encode_into(m, &mut buf);
            buf
        })
        .collect();
    let mut scratch = Vec::new();
    let encode_all = ns_per_call(|| {
        for m in msgs {
            black_box(encode_into(black_box(m), &mut scratch).len());
        }
    });
    let decode_all = ns_per_call(|| {
        for bytes in &encoded {
            black_box(from_bytes::<SlotMessage>(black_box(bytes)).is_ok());
        }
    });
    let count = msgs.len() as f64;
    Codec {
        encode_ns_per_msg: encode_all / count,
        decode_ns_per_msg: decode_all / count,
        msg_bytes_mean: encoded.iter().map(Vec::len).sum::<usize>() as f64 / count,
        sample: msgs.len(),
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Framing {
    pub seal_ns_per_frame: f64,
    pub open_ns_per_frame: f64,
    pub frame_bytes: f64,
}

/// What the TCP writer does per frame (batch payload, session MAC, frame)
/// and what the reader undoes (frame decode, MAC check, batch decode), on
/// frames of `msgs_per_frame` captured messages — the workload's own mean.
pub fn framing(msgs: &[SlotMessage], msgs_per_frame: f64) -> Framing {
    if msgs.is_empty() {
        return Framing::default();
    }
    let per_frame = (msgs_per_frame.round() as usize).clamp(1, msgs.len());
    let (pairs, dir) = KeyDirectory::generate(2, 0xF4A3);
    let batches: Vec<Vec<Vec<u8>>> = msgs
        .chunks(per_frame)
        .filter(|c| c.len() == per_frame)
        .map(|chunk| {
            chunk
                .iter()
                .map(|m| {
                    let mut buf = Vec::new();
                    encode_into(m, &mut buf);
                    buf
                })
                .collect()
        })
        .collect();
    let frames = batches.len() as f64;

    let mut mac = SessionMac::new(pairs[0].clone(), 9);
    let mut payload = Vec::new();
    let mut wire = Vec::new();
    let seal_all = ns_per_call(|| {
        wire.clear();
        for batch in &batches {
            encode_batch_payload(&mut payload, batch);
            let (seq, sig) = mac.tag_next(&payload);
            append_frame(&mut wire, ProcessId(1), seq, &payload, &sig)
                .expect("probe frames are far below the size cap");
        }
        black_box(wire.len());
    });

    // Sealed once more from sequence 1 so a fresh verifier accepts them in
    // order; each timed pass opens the whole run with its own verifier.
    let mut mac = SessionMac::new(pairs[0].clone(), 9);
    let sealed: Vec<Vec<u8>> = batches
        .iter()
        .map(|batch| {
            let mut frame = Vec::new();
            encode_batch_payload(&mut payload, batch);
            let (seq, sig) = mac.tag_next(&payload);
            append_frame(&mut frame, ProcessId(1), seq, &payload, &sig)
                .expect("probe frames are far below the size cap");
            frame
        })
        .collect();
    let open_all = ns_per_call(|| {
        let mut verifier = SessionVerifier::new(dir.clone(), ProcessId(1), 9);
        for frame in &sealed {
            let body = decode_frame_borrowed(&frame[4..]).expect("own frame decodes");
            verifier
                .verify(body.seq, body.payload, &body.mac)
                .expect("own frame verifies");
            black_box(
                decode_batch_payload::<SlotMessage>(body.payload)
                    .expect("own batch decodes")
                    .len(),
            );
        }
    });
    Framing {
        seal_ns_per_frame: seal_all / frames,
        open_ns_per_frame: open_all / frames,
        frame_bytes: sealed.iter().map(Vec::len).sum::<usize>() as f64 / frames,
    }
}

/// The no-consensus baseline: the workload's generated commands applied
/// straight to the store, in commands per second.
pub fn apply_only(w: &Workload, seed: u64) -> f64 {
    let commands = CommandGen::new(seed, w).take(APPLY_ONLY_CMDS);
    let mut store = TaggedKv::default();
    let start = Instant::now();
    for c in &commands {
        black_box(store.apply(black_box(c)));
    }
    APPLY_ONLY_CMDS as f64 / start.elapsed().as_secs_f64()
}
