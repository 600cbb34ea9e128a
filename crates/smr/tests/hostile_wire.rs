//! Hostile bytes through the whole receive path, in virtual time: a bounded,
//! structure-aware mutation loop over the slot codec (the first slice of
//! ROADMAP item 5(a)).
//!
//! The corpus is one well-formed encoding of every [`SlotMessage`] variant
//! and, wrapped as `Consensus`, of every inner [`Message`] variant — signed
//! the way seat p4 would sign them. Each of a fixed budget of mutants is
//! decoded; whatever decodes must re-encode to the bytes it came from, and
//! is injected from p4 into a live `n = 4` cluster, at a slot near the cluster's tip, so it reaches the `on_message`
//! of a running instance and not only the stale-slot early return. The three
//! correct seats must commit every client command, none twice, with
//! consistent logs and equal stores.
//!
//! The loop runs on one default-stack thread, with a fixed seed: a failure
//! prints the seed, the iteration and the mutants in flight as hex, and
//! repeats exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fastbft_core::certs::{CommitCert, ProgressCert, SignedVote, VoteData};
use fastbft_core::message::{
    AckMsg, CertAckMsg, CertRequestMsg, CommitMsg, Message, ProposeMsg, VoteMsg, WishMsg,
};
use fastbft_core::payload::{ack_payload, certack_payload, propose_payload};
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_sim::{Network, SimDuration, SimTime};
use fastbft_smr::{checkpoint_signature, KvCommand, KvStore, SlotMessage, SmrSimCluster};
use fastbft_types::wire::{from_bytes, to_bytes};
use fastbft_types::{Config, ProcessId, Value, View};

/// Seeds the mutation stream and the cluster's keys; change it to explore.
const SEED: u64 = 19;
/// Mutants generated (a fixed budget: under 10 s in a debug build).
const MUTANTS: usize = 20_000;
/// The cluster runs on — two Δ, so everything injected is delivered —
/// every this many mutants.
const MUTANTS_PER_STEP: usize = 50;
/// Client commands, one per slot, queued at every seat: enough that the
/// cluster (four slots in flight per seat) is still committing when the
/// last mutant lands, 800 Δ in.
const COMMANDS: u64 = 1_600;

const P4: ProcessId = ProcessId(4);

/// splitmix64: the loop needs a repeatable stream, not a good one.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn put(key: &str, value: u64) -> Value {
    KvCommand::Put {
        key: key.to_string(),
        value: value.to_string(),
    }
    .to_value()
}

/// A `SnapshotResponse` p1 served for `upto` 1 (one backfilled `Put`),
/// with two attestations signed by keys the cluster does not know. No
/// mutant of it carries f + 1 valid attestations, so no seat ever opens its
/// payload: its bytes are mutation material only, and they are pinned
/// because every entry's length and bytes fix which mutants `SEED` draws —
/// and so which runs the seeds named in ARCHITECTURE reproduce.
const SNAPSHOT_RESPONSE: &str = concat!(
    "0400000000000000010000005c00000000000000010000000000000001000000",
    "000000000100000018000000010000000b736e617073686f7474656400000001",
    "310000000107e7894d7b8ec974dacf2262d843ef731574206518cf057d8b62b2",
    "1e1898e80e000000000000000200000001573f85dd06c011278cbb5fc1648be2",
    "98c35cbada852e1527a76dcc21c1cfa1b4000000020350d84cf439ef8162c9d6",
    "fd9ab35c8b46309be65491ae9657c354eebe55dcda",
);

fn unhex(hex: &str) -> Vec<u8> {
    let digit = |i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex");
    (0..hex.len()).step_by(2).map(digit).collect()
}

/// One well-formed message of every kind, as p4 would send them. `pairs`
/// holds p4's key as the cluster knows it and, for every other seat, a key
/// the cluster does not know: a Byzantine member signs for itself and can
/// only make up what the others would have signed.
fn corpus(cfg: Config, pairs: &[KeyPair]) -> Vec<Vec<u8>> {
    let p4 = &pairs[3];
    let x = put("hostile", 4);
    let leader1 = &pairs[cfg.leader(View::FIRST).index()];
    let voted = |commit_cert| VoteData {
        value: x.clone(),
        view: View::FIRST,
        progress_cert: ProgressCert::Genesis,
        leader_sig: leader1.sign(&propose_payload(&x, View::FIRST)),
        commit_cert,
    };
    let commit_cert = CommitCert {
        value: x.clone(),
        view: View::FIRST,
        sigs: pairs[..cfg.slow_quorum()]
            .iter()
            .map(|p| p.sign(&ack_payload(&x, View::FIRST)))
            .collect(),
    };
    let consensus = [
        Message::Propose(ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: p4.sign(&propose_payload(&x, View::FIRST)),
        }),
        Message::Propose(ProposeMsg {
            value: x.clone(),
            view: View(2),
            cert: ProgressCert::Bounded(
                pairs[..cfg.cert_quorum()]
                    .iter()
                    .map(|p| p.sign(&certack_payload(&x, View(2))))
                    .collect(),
            ),
            sig: p4.sign(&propose_payload(&x, View(2))),
        }),
        Message::Ack(AckMsg {
            value: x.clone(),
            view: View::FIRST,
            share: Some(p4.sign(&ack_payload(&x, View::FIRST))),
        }),
        Message::Commit(CommitMsg {
            cert: commit_cert.clone(),
        }),
        Message::Vote(VoteMsg {
            view: View(2),
            vote: SignedVote::sign(p4, Some(voted(Some(commit_cert))), View(2)),
        }),
        Message::CertRequest(CertRequestMsg {
            view: View(2),
            value: x.clone(),
            votes: pairs
                .iter()
                .map(|p| SignedVote::sign(p, Some(voted(None)), View(2)))
                .collect(),
        }),
        Message::CertAck(CertAckMsg {
            view: View(2),
            value: x.clone(),
            sig: p4.sign(&certack_payload(&x, View(2))),
        }),
        Message::Wish(WishMsg { view: View(2) }),
    ];
    let digest = fastbft_crypto::digest(b"a snapshot payload");
    let mut msgs: Vec<SlotMessage> = consensus
        .into_iter()
        .map(|inner| SlotMessage::Consensus { slot: 0, inner })
        .collect();
    msgs.extend([
        SlotMessage::Checkpoint {
            upto: 128,
            digest,
            sig: checkpoint_signature(p4, 128, &digest),
        },
        SlotMessage::SnapshotRequest { have: 0 },
        from_bytes(&unhex(SNAPSHOT_RESPONSE)).expect("a well-formed response"),
        SlotMessage::Backfill { slot: 0, value: x },
    ]);
    msgs.iter().map(to_bytes).collect()
}

/// Offsets of every `u32` that could be a length prefix: its value fits in
/// the bytes after it.
fn length_fields(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len().saturating_sub(3))
        .filter(|&i| {
            let len = u32::from_be_bytes(bytes[i..i + 4].try_into().unwrap()) as usize;
            len <= bytes.len() - i - 4
        })
        .collect()
}

/// One mutant: a corpus entry with one to three mutations applied, then —
/// usually, while it is still a `Consensus` frame — aimed at a slot at or
/// just past `tip`.
fn mutant(corpus: &[Vec<u8>], rng: &mut Rng, tip: u64) -> Vec<u8> {
    let mut bytes = corpus[rng.below(corpus.len())].clone();
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(8) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes[at] = 0,
            2 => bytes[at] = 0xFF,
            // Every tag any enum or `Option` in the codec assigns.
            3 => bytes[at] = rng.below(9) as u8,
            4 => bytes.truncate(at),
            5 => {
                // Splice: the rest of another entry, from a random offset.
                let other = &corpus[rng.below(corpus.len())];
                bytes.truncate(at);
                bytes.extend_from_slice(&other[rng.below(other.len())..]);
            }
            _ => {
                // Inflate a length field: off by one, doubled, or huge.
                let fields = length_fields(&bytes);
                if let Some(&i) = fields.get(rng.below(fields.len().max(1))) {
                    let len = u32::from_be_bytes(bytes[i..i + 4].try_into().unwrap());
                    let inflated = match rng.below(3) {
                        0 => len.wrapping_add(1),
                        1 => len.wrapping_mul(2).max(2),
                        _ => u32::MAX >> rng.below(8),
                    };
                    bytes[i..i + 4].copy_from_slice(&inflated.to_be_bytes());
                }
            }
        }
    }
    if bytes.len() >= 9 && bytes[0] == 1 && rng.below(4) != 0 {
        let slot = tip + rng.below(3) as u64;
        bytes[1..9].copy_from_slice(&slot.to_be_bytes());
    }
    bytes
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The loop itself; returns how many mutants decoded. `in_flight` holds the
/// mutants injected since the cluster last advanced, for the failure report.
fn spray(in_flight: &mut Vec<(usize, Vec<u8>)>, iteration: &mut usize) -> usize {
    let cfg = Config::new(4, 1, 1).unwrap();
    // The cluster's keys are `KeyDirectory::generate(n, SEED)`: p4 signs
    // with the key its peers verify, everyone else with a foreign one.
    let mut pairs = KeyDirectory::generate(cfg.n(), SEED + 1).0;
    pairs[3] = KeyDirectory::generate(cfg.n(), SEED).0.remove(3);
    let corpus = corpus(cfg, &pairs);
    for entry in &corpus {
        let decoded: SlotMessage = from_bytes(entry).expect("the corpus is well formed");
        assert_eq!(&to_bytes(&decoded), entry);
    }

    let correct = [ProcessId(1), ProcessId(2), ProcessId(3)];
    let commands: Vec<Value> = (0..COMMANDS).map(|i| put(&format!("k{i}"), i)).collect();
    // The broadcast client model: every seat queues every command.
    let mut cluster = SmrSimCluster::new(
        cfg,
        SEED,
        KvStore::new(),
        vec![commands; cfg.n()],
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node.with_batch_size(1).with_pipeline_depth(4)),
    );

    let mut rng = Rng(SEED);
    let mut decoded = 0;
    while *iteration < MUTANTS {
        let tip = cluster.node(correct[0]).applied();
        let bytes = mutant(&corpus, &mut rng, tip);
        if let Ok(msg) = from_bytes::<SlotMessage>(&bytes) {
            // Canonical-strict: whatever decodes has exactly one encoding.
            assert_eq!(to_bytes(&msg), bytes, "decoded, and re-encodes differently");
            decoded += 1;
            in_flight.push((*iteration, bytes));
            let sim = cluster.sim_mut();
            let now = sim.now();
            sim.inject_message(P4, correct[*iteration % correct.len()], msg, now);
        }
        *iteration += 1;
        if iteration.is_multiple_of(MUTANTS_PER_STEP) {
            // Everything up to Δ from now, and the first event after it.
            let until = cluster.sim().now() + SimDuration::DELTA;
            cluster.run_until(SimTime::NEVER, |c| c.sim().now() > until);
            in_flight.clear();
        }
    }
    let under_fire = cluster.node(correct[0]).applied();

    // Every client command commits at the correct seats: the stores say
    // what was applied, and the checker, fed every applied event of the
    // run, that it was applied consistently, nothing twice.
    let horizon = cluster.sim().now() + SimDuration(SimDuration::DELTA.0 * 20_000);
    let committed = |cluster: &SmrSimCluster<KvStore>| {
        correct.iter().all(|p| {
            let node = cluster.node(*p);
            // The count first: the stores are read only once it can hold.
            node.commands_applied() >= COMMANDS
                && (0..COMMANDS)
                    .all(|i| node.machine().get(&format!("k{i}")) == Some(&i.to_string()))
        })
    };
    assert!(
        under_fire > 0 && !committed(&cluster),
        "the cluster must be committing while the mutants land"
    );
    cluster.run_until(horizon, |c| committed(c));
    decoded
}

#[test]
fn mutated_frames_never_break_the_correct_seats() {
    let worker = std::thread::spawn(|| {
        let mut in_flight = Vec::new();
        let mut iteration = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| spray(&mut in_flight, &mut iteration)));
        match outcome {
            Ok(decoded) => decoded,
            Err(panic) => {
                eprintln!("hostile_wire: seed {SEED}, failed at iteration {iteration}");
                for (i, bytes) in &in_flight {
                    eprintln!("  in flight, mutant {i}: {}", hex(bytes));
                }
                std::panic::resume_unwind(panic)
            }
        }
    });
    let decoded = worker.join().expect("the mutation loop finished");
    eprintln!("hostile_wire: seed {SEED}, {decoded} of {MUTANTS} mutants decoded");
    // The loop is only worth its budget if a fair share of the mutants get
    // past the codec and into the protocol.
    assert!(
        decoded * 4 >= MUTANTS,
        "only {decoded} of {MUTANTS} mutants decoded"
    );
}
