//! Evidence from one slot never decides another.
//!
//! The SMR layer runs one consensus instance per log slot under one key
//! directory, and slot `s + 4` has slot `s`'s leader map at n = 4
//! (`leader(v) = p_((v + slot) mod n) + 1`). Here a correct slot `s` and a
//! Byzantine p3 in a later slot it leads view 2 of (`s + 4`, or slot 8
//! when `s` = 1) are driven by hand, message by message, at n = 4,
//! f = t = 1:
//!
//! * slot `s`, every seat correct: the view-1 leader is slow, the others
//!   move to view 2, and its leader proposes its input E (the empty
//!   batch's encoding) under a progress certificate. p3 sees that
//!   proposal, either as view 2's leader or as one of its receivers;
//! * slot `s + 4`: p2 proposes y. p3 acks y to p1 alone, so p1 holds
//!   `n − t` acks and decides y on the fast path while its own ack is
//!   still in flight. p2 and p4 time out and, with p3's wish, enter
//!   view 2, which p3 leads;
//! * p3 ignores their votes (they carry y) and proposes slot `s`'s E under
//!   slot `s`'s certificate and its own τ.
//!
//! A statement that names its instance makes the certificate fail in slot
//! `s + 4`: p2 and p4 send no ack for the replayed proposal, and nobody
//! decides E. The last test plays the same attack with the move alphabet
//! (`fastbft_core::byzantine`) on two simulated slots.

use fastbft_core::byzantine::{Move, ReplayStore, Seat};
use fastbft_core::cluster::SimCluster;
use fastbft_core::message::{AckMsg, Kind, Message, ProposeMsg, WishMsg};
use fastbft_core::payload::{ack_payload, propose_payload};
use fastbft_core::replica::Replica;
use fastbft_core::ProgressCert;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_sim::{Actor, Effects, Network, SimDuration, SimTime, TimerId};
use fastbft_types::{Config, ProcessId, Value, View};

const N: usize = 4;
const P3: ProcessId = ProcessId(3);

/// The empty batch as a slot decides it.
fn empty_batch() -> Value {
    Value::new(vec![0; 4])
}

/// Correct replicas of one instance, driven by hand: every send is queued
/// and delivered only when a step asks for it.
struct Slot {
    replicas: Vec<Replica>,
    /// `(from, to, message)`, in send order.
    queue: Vec<(ProcessId, ProcessId, Message)>,
    /// The timers each replica armed last.
    timers: Vec<Option<TimerId>>,
}

impl Slot {
    /// Starts every replica of `cfg`, each with input `input(p)`.
    fn start(
        cfg: Config,
        pairs: &[KeyPair],
        dir: &KeyDirectory,
        input: impl Fn(u32) -> Value,
    ) -> Self {
        let replicas = pairs
            .iter()
            .map(|keys| Replica::new(cfg, keys.clone(), dir.clone(), input(keys.id().0)))
            .collect();
        let mut slot = Slot {
            replicas,
            queue: Vec::new(),
            timers: vec![None; N],
        };
        for p in ProcessId::all(N) {
            slot.call(p, |r, fx| r.on_start(fx));
        }
        slot
    }

    fn call(&mut self, p: ProcessId, step: impl FnOnce(&mut Replica, &mut Effects<Message>)) {
        let mut fx = Effects::new(p, N, SimTime::ZERO);
        step(&mut self.replicas[p.index()], &mut fx);
        self.queue
            .extend(fx.sent().into_iter().map(|(to, m)| (p, to, m)));
        if let Some((_, timer)) = fx.timers_set().last() {
            self.timers[p.index()] = Some(*timer);
        }
    }

    /// Delivers every queued message `pick` selects, in send order, until
    /// none is left (what they trigger is delivered too if it matches).
    fn deliver(&mut self, pick: impl Fn(ProcessId, ProcessId, &Message) -> bool) {
        while let Some(i) = self.queue.iter().position(|(f, t, m)| pick(*f, *t, m)) {
            let (from, to, msg) = self.queue.remove(i);
            self.call(to, |r, fx| r.on_message(from, msg, fx));
        }
    }

    /// Fires the view timer of each of `seats`.
    fn time_out(&mut self, seats: &[u32]) {
        for p in seats.iter().map(|p| ProcessId(*p)) {
            let timer = self.timers[p.index()].expect("armed");
            self.call(p, |r, fx| r.on_timer(timer, fx));
        }
    }

    fn decided(&self, p: u32) -> Option<Value> {
        self.replicas[p as usize - 1].decided().cloned()
    }
}

/// Slot `s` (its instance and leader offset), all correct: its view-1 leader is never
/// heard from, the other three enter view 2, and view 2's leader proposes
/// E under `f + 1` CertAcks. Returns that proposal as p3 received it.
fn harvest(s: u64, pairs: &[KeyPair], dir: &KeyDirectory) -> ProposeMsg {
    let cfg = Config::new(N, 1, 1).unwrap().with_instance(s);
    let slow = cfg.leader(View::FIRST);
    let mut slot = Slot::start(cfg, pairs, dir, |_| empty_batch());
    let others: Vec<u32> = (1..=N as u32).filter(|p| *p != slow.0).collect();
    slot.time_out(&others);
    slot.deliver(|from, _, _| from != slow);
    let seen = slot.replicas[P3.index()].vote().clone();
    let vote = seen.expect("p3 acknowledged view 2's proposal");
    assert_eq!((vote.view, &vote.value), (View(2), &empty_batch()));
    ProposeMsg {
        value: vote.value,
        view: vote.view,
        cert: vote.progress_cert,
        sig: vote.leader_sig,
    }
}

/// Slot `target` (p2 leads view 1, p3 view 2) with a Byzantine p3 that
/// spends `evidence`; returns what p1, p2 and p4 decided, and who
/// acknowledged the replayed proposal.
fn spend(
    target: u64,
    evidence: ProposeMsg,
    pairs: &[KeyPair],
    dir: &KeyDirectory,
) -> ([Option<Value>; 3], Vec<ProcessId>) {
    let cfg = Config::new(N, 1, 1).unwrap().with_instance(target);
    assert_eq!(cfg.leader(View::FIRST), ProcessId(2));
    assert_eq!(cfg.leader(View(2)), P3);
    let y = Value::from_u64(42);
    let mut slot = Slot::start(cfg, pairs, dir, |_| y.clone());
    // p3 is Byzantine: nothing it runs is correct code, so its replica's
    // sends are dropped and its own messages are made here.
    let correct = |p: ProcessId| p != P3;
    // p2's proposal reaches p1, p2 and p4, whose acks (with shares) go out;
    // p1's stay in flight. p3 acks y to p1 alone: p1 decides y.
    slot.deliver(|from, to, m| {
        from == ProcessId(2) && correct(to) && matches!(m, Message::Propose(_))
    });
    let share = pairs[P3.index()].sign(&ack_payload(&y, View::FIRST, target));
    slot.queue.push((
        P3,
        ProcessId(1),
        Message::Ack(AckMsg {
            value: y.clone(),
            view: View::FIRST,
            share: Some(share),
        }),
    ));
    slot.deliver(|from, to, m| {
        from != ProcessId(1) && correct(from) && correct(to) && matches!(m, Message::Ack(_))
    });
    slot.deliver(|from, to, _| from == P3 && to == ProcessId(1));
    assert_eq!(
        slot.decided(1),
        Some(y.clone()),
        "p1 decides y on the fast path"
    );
    assert_eq!((slot.decided(2), slot.decided(4)), (None, None));
    // p2 and p4 time out; p3 wishes with them, and they enter view 2.
    slot.time_out(&[2, 4]);
    for to in [2, 4] {
        slot.queue
            .push((P3, ProcessId(to), Message::Wish(WishMsg { view: View(2) })));
    }
    slot.deliver(|from, to, m| {
        from != ProcessId(1) && correct(to) && matches!(m, Message::Wish(_))
    });
    for p in [2, 4] {
        assert_eq!(slot.replicas[p - 1].view(), View(2));
    }
    // Their votes for y go to p3, which ignores them and replays slot s's
    // proposal under its own τ.
    slot.queue
        .retain(|(from, to, _)| *from != P3 && *to != P3 && *from != ProcessId(1));
    let tau = pairs[P3.index()].sign(&propose_payload(&evidence.value, View(2), target));
    let replayed = Message::Propose(ProposeMsg {
        sig: tau,
        ..evidence.clone()
    });
    for to in [2, 4] {
        slot.queue.push((P3, ProcessId(to), replayed.clone()));
    }
    slot.deliver(|from, _, m| from == P3 && matches!(m, Message::Propose(_)));
    let acked: Vec<ProcessId> = slot
        .queue
        .iter()
        .filter(|(_, _, m)| matches!(m, Message::Ack(a) if a.view == View(2)))
        .map(|(from, _, _)| *from)
        .collect();
    // With p3's ack of E, whoever acknowledged the replay decides E.
    let share = pairs[P3.index()].sign(&ack_payload(&evidence.value, View(2), target));
    for to in [2, 4] {
        let ack = AckMsg {
            value: evidence.value.clone(),
            view: View(2),
            share: Some(share.clone()),
        };
        slot.queue.push((P3, ProcessId(to), Message::Ack(ack)));
    }
    slot.deliver(|from, to, m| from != ProcessId(1) && correct(to) && matches!(m, Message::Ack(_)));
    ([slot.decided(1), slot.decided(2), slot.decided(4)], acked)
}

/// The correct seats agree, and none acknowledged the replay.
fn refused((decided, acked): ([Option<Value>; 3], Vec<ProcessId>)) {
    let [p1, p2, p4] = &decided;
    let split = decided.iter().flatten().any(|v| Some(v) != p1.as_ref());
    assert!(!split, "p1 {p1:?}, p2 {p2:?}, p4 {p4:?}");
    assert_eq!(acked, [], "acknowledged the replayed proposal");
}

/// p3 leads view 2 of slot 4 and spends its own certificate in slot 8.
#[test]
fn a_certificate_p3_led_in_one_slot_decides_nothing_in_another() {
    let (pairs, dir) = KeyDirectory::generate(N, 16);
    let s = 4;
    let evidence = harvest(s, &pairs, &dir);
    assert_eq!(evidence.sig.signer, P3);
    refused(spend(s + 4, evidence, &pairs, &dir));
}

/// p3 only received slot 1's broadcast proposal (p4 led view 2 there) and
/// spends it in slot 8, where p3 leads view 2: any certificate it has
/// seen serves, not only one it assembled.
#[test]
fn a_certificate_p3_only_saw_in_one_slot_decides_nothing_in_another() {
    let (pairs, dir) = KeyDirectory::generate(N, 16);
    let s = 1;
    let evidence = harvest(s, &pairs, &dir);
    assert_eq!(evidence.sig.signer, ProcessId(4));
    refused(spend(8, evidence, &pairs, &dir));
}

/// The alphabet's power test: one Byzantine seat harvests in slot `s` and
/// spends in slot `s + 4`, each slot a `SimCluster` run at its leader
/// offset, with no other help than a network that holds p1's sends back.
///
/// * Slot `s`: p3 plays no move, so it runs its replica as is; the view-1
///   leader p2 is cut off, view 2 (led by p3) proposes E under a progress
///   certificate, and p3's store keeps that proposal.
/// * Slot `s + 4`: p2 proposes y; p3 sends its view-1 ack to p1 alone
///   ([`Move::SendToOne`]), so p1 decides y on the fast path; p3 then leads
///   view 2 with the stored proposal ([`Move::Replay`]) instead of the
///   votes' y.
///
/// Slot `s + 4`'s correct seats refuse the replayed certificate, view 3
/// decides y, and the checker finds nothing. Before statements named their
/// instance, p2 and p4 acknowledged the replay and decided E:
/// `Disagreement`.
#[test]
fn harvest_send_to_one_then_replay_splits_no_slot() {
    const DELTA: SimDuration = SimDuration::DELTA;
    let s = 4;
    let base = Config::new(N, 1, 1).unwrap();
    let late = SimTime(400 * DELTA.0);
    let adversary = |cluster: &SimCluster| -> ReplayStore {
        let seat = cluster
            .actor(P3)
            .as_any()
            .and_then(|a| a.downcast_ref::<Seat<Replica>>());
        seat.expect("p3 is a Byzantine seat").store().clone()
    };

    let cfg = base.with_instance(s);
    let cut_off = cfg.leader(View::FIRST);
    let network = Network::scripted(DELTA, move |info| {
        if info.from == cut_off {
            SimTime::NEVER
        } else {
            info.sent_at + DELTA
        }
    });
    let inputs = vec![empty_batch(); N];
    let mut harvest = SimCluster::new(
        N,
        16,
        network,
        inputs,
        [cut_off, P3],
        |p, keys, dir, input| {
            if p == P3 {
                let replica = Replica::new(cfg, keys.clone(), dir.clone(), input);
                Box::new(Seat::new(replica, keys, Vec::new()))
            } else {
                Box::new(Replica::new(cfg, keys, dir.clone(), input))
            }
        },
    );
    harvest.run_until(SimTime(40 * DELTA.0));
    let store = adversary(&harvest);
    let kept = store
        .latest(|p| p.view == View(2))
        .expect("p3 saw view 2's proposal");
    assert_eq!(kept.value, empty_batch());
    assert!(matches!(kept.cert, ProgressCert::Bounded(_)));

    let cfg = base.with_instance(s + 4);
    let network = Network::scripted(DELTA, move |info| {
        let held = info.from == ProcessId(1) && info.to != ProcessId(1);
        if held {
            late
        } else {
            info.sent_at + DELTA
        }
    });
    let moves = vec![
        Move::SendToOne {
            kind: Kind::Ack,
            view: View::FIRST,
            to: ProcessId(1),
        },
        Move::Replay { view: View(2) },
    ];
    let y = Value::from_u64(42);
    let mut spend = SimCluster::new(
        N,
        16,
        network,
        vec![y.clone(); N],
        [P3],
        |p, keys, dir, input| {
            if p == P3 {
                let replica = Replica::new(cfg, keys.clone(), dir.clone(), input);
                let seat = Seat::new(replica, keys, moves.clone());
                Box::new(seat.with_store(store.clone()))
            } else {
                Box::new(Replica::new(cfg, keys, dir.clone(), input))
            }
        },
    );
    let report = spend.run_until_all_decide();
    assert_eq!(report.violations, [], "{:?}", report.decisions);
    assert_eq!(
        report.decision_time(ProcessId(1)),
        Some(SimTime(2 * DELTA.0))
    );
    assert_eq!(report.unanimous_decision(), Some(y));
}
