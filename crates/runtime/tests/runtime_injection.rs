//! Runtime integration: Byzantine messages injected from outside the cluster
//! through the inject hook.

use std::time::{Duration, Instant};

use fastbft_core::message::{AckMsg, Message};
use fastbft_core::payload::ack_payload;
use fastbft_core::replica::Replica;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_runtime::{spawn, Decision};
use fastbft_sim::{Actor, Effects, SimTime};
use fastbft_types::{Config, ProcessId, Value, View};

const REAL: u64 = 7;
const BOGUS: u64 = 666;

fn replicas(cfg: Config, pairs: &[KeyPair], dir: &KeyDirectory) -> Vec<Replica> {
    let replica =
        |pair: &KeyPair| Replica::new(cfg, pair.clone(), dir.clone(), Value::from_u64(REAL));
    pairs.iter().map(replica).collect()
}

/// An ack for the value nobody proposed, with p1's share on it if `shared`
/// (a forgery whoever it claims to come from: signer p1 ≠ sender).
fn bogus_ack(pairs: &[KeyPair], shared: bool) -> Message {
    let bogus = Value::from_u64(BOGUS);
    let share = shared.then(|| pairs[0].sign(&ack_payload(&bogus, View::FIRST)));
    Message::Ack(AckMsg {
        value: bogus,
        view: View::FIRST,
        share,
    })
}

/// Runs an n = 4 cluster on threads and, before the protocol can finish,
/// showers p1 with acks for a value that was never proposed, "from" each
/// of `spoofed`: ten plain ones, then one carrying a forged share. Returns
/// the decisions seen once `awaited` have all decided.
fn decisions_under_a_shower(spoofed: &[u32], awaited: &[u32]) -> Vec<Decision> {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 11);
    let actors: Vec<Box<dyn Actor<Message> + Send>> = replicas(cfg, &pairs, &dir)
        .into_iter()
        .map(|replica| -> Box<dyn Actor<Message> + Send> { Box::new(replica) })
        .collect();
    let cluster = spawn(actors);
    for shared in [false, true] {
        for &from in spoofed {
            for _ in 0..if shared { 1 } else { 10 } {
                cluster.inject(ProcessId(from), ProcessId(1), bogus_ack(&pairs, shared));
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut decisions: Vec<Decision> = Vec::new();
    let missing = |seen: &[Decision]| {
        let decided = |p: &u32| seen.iter().any(|d| d.process == ProcessId(*p));
        !awaited.iter().all(decided)
    };
    while missing(&decisions) && Instant::now() < deadline {
        decisions.extend(cluster.await_decisions(1, Duration::from_millis(100)));
    }
    cluster.shutdown();
    assert!(
        !missing(&decisions),
        "{awaited:?} must decide: {decisions:?}"
    );
    decisions
}

/// Forged acks injected from outside the cluster (sender ids spoofed by the
/// test) must not produce a wrong decision: the runtime attaches true
/// sender ids for *cluster members*, and the injected ones count at most
/// once per claimed sender — two of them, fast quorum minus one, still
/// below the fast quorum for a value nobody proposed. Safety only: two
/// spoofed senders are one more than the fault budget, and what that costs
/// p1 is pinned below.
#[test]
fn injected_acks_cannot_forge_decisions() {
    let decisions = decisions_under_a_shower(&[2, 3], &[2, 3, 4]);
    for d in &decisions {
        assert_eq!(
            d.value,
            Value::from_u64(REAL),
            "{:?} decided the forged value",
            d.process
        );
    }
}

/// The same shower "from" the one sender the fault budget allows: every
/// seat decides the real value, p1 included — the spoofed sender's place in
/// view 1 is taken, the three others still make `n − t`.
#[test]
fn injected_acks_from_one_sender_cost_no_liveness() {
    let decisions = decisions_under_a_shower(&[2], &[1, 2, 3, 4]);
    assert_eq!(decisions.len(), 4);
    assert!(decisions.iter().all(|d| d.value == Value::from_u64(REAL)));
}

/// What the two-sender shower costs p1 when it wins the race against the
/// real acks, without the race: a sender has one place per view and the
/// first ack takes it, so with the places of p2 and p3 taken the real acks
/// of view 1 reach two, not `n − t` = 3, and p1 decides nothing — never the
/// forged value. More than `f` senders saying two things in a view is
/// outside the fault model; at most `f` leave `n − t` correct places.
#[test]
fn acks_injected_first_take_their_senders_places() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 11);
    let mut p1 = replicas(cfg, &pairs, &dir).remove(0);
    let mut fx = Effects::new(ProcessId(1), 4, SimTime::ZERO);
    let real = Message::Ack(AckMsg {
        value: Value::from_u64(REAL),
        view: View::FIRST,
        share: None,
    });
    for from in [2, 3] {
        p1.on_message(ProcessId(from), bogus_ack(&pairs, false), &mut fx);
        p1.on_message(ProcessId(from), bogus_ack(&pairs, true), &mut fx);
    }
    for from in 1..=4 {
        p1.on_message(ProcessId(from), real.clone(), &mut fx);
    }
    assert_eq!(p1.decided(), None);
    assert_eq!(fx.decision_made(), None);
}
