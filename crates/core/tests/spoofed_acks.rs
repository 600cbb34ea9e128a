//! Byzantine acks injected from outside the cluster, "from" senders the
//! test spoofs, in virtual time: the shower is sent after each event of
//! the run in turn, so it lands before the proposal, among the real acks
//! and after p1's decision — each landing one deterministic schedule.

use fastbft_core::message::{AckMsg, Message};
use fastbft_core::payload::ack_payload;
use fastbft_core::replica::Replica;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_sim::{Actor, Effects, Network, SimDuration, SimTime, Simulation};
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
    let share = shared.then(|| pairs[0].sign(&ack_payload(&bogus, View::FIRST, 0)));
    Message::Ack(AckMsg {
        value: bogus,
        view: View::FIRST,
        share,
    })
}

/// Runs an n = 4 cluster in virtual time once per event of the run up to
/// p1's decision and once past it: the `k`-th run showers p1, after the
/// run's first `k` events, with acks for a value that was never proposed,
/// "from" each of `spoofed` — ten plain ones, then one carrying a forged
/// share. Returns each run's decisions once `awaited` have all decided and
/// the whole shower has landed.
fn decisions_under_a_shower(spoofed: &[u32], awaited: &[u32]) -> Vec<Vec<(ProcessId, Value)>> {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 11);
    let awaited: Vec<ProcessId> = awaited.iter().copied().map(ProcessId).collect();
    let mut runs = Vec::new();
    for k in 0.. {
        let mut sim = Simulation::new(Network::synchronous(SimDuration::DELTA), 0);
        for replica in replicas(cfg, &pairs, &dir) {
            sim.add_actor(Box::new(replica));
        }
        sim.start();
        for _ in 0..k {
            assert!(sim.step(), "the run ended before p1 decided");
        }
        let (p1_decided, at) = (sim.decision(ProcessId(1)).is_some(), sim.now());
        for shared in [false, true] {
            for &from in spoofed {
                for _ in 0..if shared { 1 } else { 10 } {
                    let ack = bogus_ack(&pairs, shared);
                    sim.inject_message(ProcessId(from), ProcessId(1), ack, at);
                }
            }
        }
        let horizon = SimTime(SimDuration::DELTA.0 * 1_000);
        let decided = sim.run_until_all_decide(&awaited, horizon);
        assert!(decided, "{awaited:?} must decide, shower after {k} events");
        sim.run_until(at + SimDuration::DELTA);
        assert_eq!(
            sim.trace().duplicate_decisions(),
            [],
            "shower after {k} events"
        );
        runs.push(
            sim.decisions()
                .into_iter()
                .map(|(p, _, v)| (p, v))
                .collect(),
        );
        if p1_decided {
            return runs;
        }
    }
    unreachable!("p1 decides within the run")
}

/// Forged acks injected from outside the cluster (sender ids spoofed by the
/// test) must not produce a wrong decision, wherever they land: the
/// injected ones count at most once per claimed sender — two of them, fast
/// quorum minus one, still below the fast quorum for a value nobody
/// proposed. Safety only: two spoofed senders are one more than the fault
/// budget, and what that costs p1 is pinned below.
#[test]
fn injected_acks_cannot_forge_decisions() {
    for (k, decisions) in decisions_under_a_shower(&[2, 3], &[2, 3, 4])
        .into_iter()
        .enumerate()
    {
        for (p, value) in decisions {
            assert_eq!(
                value,
                Value::from_u64(REAL),
                "{p} decided the forged value, shower after {k} events"
            );
        }
    }
}

/// The same shower "from" the one sender the fault budget allows: every
/// seat decides the real value, p1 included, wherever the shower lands —
/// the spoofed sender's place in view 1 is taken, the three others still
/// make `n − t`.
#[test]
fn injected_acks_from_one_sender_cost_no_liveness() {
    for (k, decisions) in decisions_under_a_shower(&[2], &[1, 2, 3, 4])
        .into_iter()
        .enumerate()
    {
        let real = decisions
            .iter()
            .filter(|(_, v)| *v == Value::from_u64(REAL));
        assert_eq!(real.count(), 4, "shower after {k} events: {decisions:?}");
    }
}

/// What the two-sender shower costs p1 when it lands before the real
/// acks: a sender has one place per view and the first ack takes it, so
/// with the places of p2 and p3 taken the real acks of view 1 reach two,
/// not `n − t` = 3, and p1 decides nothing — never the forged value. More
/// than `f` senders saying two things in a view is outside the fault
/// model; at most `f` leave `n − t` correct places.
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
