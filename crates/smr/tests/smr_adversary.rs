//! `core`'s one Byzantine seat over SMR nodes (`fastbft_smr::byzantine`)
//! against the fast-path / view-change seam, in virtual time.
//!
//! A seat plays moves from `core`'s alphabet in the slots it picks and is
//! honest elsewhere. The first test pins the known liveness gap such seats
//! reach deterministically, at n = 4 and n = 7; the second spends a
//! certificate from one slot in another at n = 4, which the slot-bound
//! statements refuse.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fastbft_core::byzantine::{Move, Seat};
use fastbft_core::message::Kind;
use fastbft_core::ProgressCert;
use fastbft_sim::{Network, SimDuration, SimTime};
use fastbft_smr::{byzantine_seat, CountingMachine, SmrNode, SmrSimCluster, SLOT_WINDOW};
use fastbft_types::wire::to_bytes;
use fastbft_types::{Config, ProcessId, Value, View};

const DELTA: SimDuration = SimDuration::DELTA;
const P1: ProcessId = ProcessId(1);
const P2: ProcessId = ProcessId(2);
const P3: ProcessId = ProcessId(3);
const P4: ProcessId = ProcessId(4);
const P6: ProcessId = ProcessId(6);
const P7: ProcessId = ProcessId(7);

/// What `p`'s flight recorder says of `slot`: the views it entered, and the
/// path and view it decided on.
fn story(
    cluster: &SmrSimCluster<CountingMachine>,
    p: ProcessId,
    slot: u64,
) -> Vec<(&'static str, String)> {
    let events = cluster.registry().metrics(p.index()).recorder.snapshot();
    let tag = format!(" slot {slot} ");
    events
        .into_iter()
        .filter(|e| ["view-change", "commit-fast", "commit-slow"].contains(&e.kind))
        .filter(|e| e.detail.contains(&tag))
        .map(|e| (e.kind, e.detail))
        .collect()
}

/// A slot's value as a node proposes it: the encoded batch.
fn batch(commands: &[u64]) -> Value {
    let commands: Vec<Value> = commands.iter().map(|c| Value::from_u64(*c)).collect();
    Value::new(to_bytes(&commands))
}

/// Known gap: a slot only one correct replica decided (ARCHITECTURE; ROADMAP
/// item 2). The last Byzantine seat leads view 1 of slot `S` and, in `S`
/// only, splits its proposal: batch A to every seat but the last correct
/// one, batch B to that one. Every Byzantine seat acks A to p1 alone, so
/// p1 holds `n − t` acks and decides `S` on the fast path, while the other
/// A-ackers hold `n − f − 1` shares, one short of a commit certificate's
/// `⌈(n+f+1)/2⌉`, and time out. p1 answers their wishes with a `Backfill`,
/// which needs `f + 1` senders, and no Byzantine seat sends one for `S`.
/// Whether they ever decide `S` is a matter of votes:
///
/// * n = 4 (f = t = 1), p4 sitting out view 2: p4's view-3 wish carries p2
///   and p3 into views 2, 3, 4, …, but every leader's selection excludes p4
///   as a proven equivocator (its two signed view-1 proposals) and holds 2
///   of the `n − f` = 3 votes it needs; the third would be the decided
///   p1's. p2 and p3 stop at `S`, and p1 `SLOT_WINDOW` slots later, where
///   their windows end;
/// * n = 7 (f = 2, t = 1), p6 and p7 sitting out view 2 only: they vote in
///   view 3, and its leader p2, with p7 excluded, still holds `n − f` = 5
///   votes, `f + t` = 3 of them for A at view 1 — a progress certificate
///   for A. Six acks decide it fast and every correct seat converges;
/// * n = 7, p6 and p7 sitting out every view change of `S`: four correct
///   wishers are one short of the `2f + 1` that enter view 2. Stalled as at
///   n = 4.
///
/// Every seed does the same. A stalled cluster never goes quiet: the stuck
/// seats keep wishing and asking for snapshots. The frames of each kind
/// sent between 1 000Δ and 2 000Δ are pinned for seed 1. The run settles
/// at 2 000Δ (its commands were all queued at the start), and the SMR
/// checker's liveness row names the first command p1 applied and the
/// others did not; it finds nothing where the cluster converged.
///
/// This asserts today's stalls: ROADMAP item 2(d)'s fix flips them.
#[test]
fn known_gap_a_slot_only_one_correct_replica_decided() {
    let (a, b) = (batch(&[1]), batch(&[2]));
    let four = Config::new(4, 1, 1).unwrap();
    let seven = Config::new(7, 2, 1).unwrap();
    let view_two = vec![Move::SilentInViewChange { view: View(2) }];
    let every_view = [Kind::Wish, Kind::Vote, Kind::CertRequest, Kind::CertAck].map(Move::Withhold);
    // (cfg, S, the Byzantine seats, the view changes they sit out, what p1
    // and the other correct seats applied, what the liveness row finds at
    // 2 000Δ, the frames sent between 1 000Δ and 2 000Δ at seed 1)
    type Case<'a> = (
        Config,
        u64,
        Vec<ProcessId>,
        Vec<Move>,
        Vec<u64>,
        Option<&'a str>,
        Vec<(&'a str, usize)>,
    );
    let cases: [Case; 3] = [
        (
            four,
            6,
            vec![P4],
            view_two.clone(),
            vec![6 + SLOT_WINDOW, 6, 6],
            Some("log index 6: applied by p1 but not by p2, p3"),
            vec![
                ("backfill", 3),
                ("snap-request", 1125),
                ("vote", 2),
                ("wish", 6009),
            ],
        ),
        (seven, 5, vec![P6, P7], view_two, vec![266; 5], None, vec![]),
        (
            seven,
            5,
            vec![P6, P7],
            every_view.to_vec(),
            vec![5 + SLOT_WINDOW, 5, 5, 5, 5],
            Some("log index 5: applied by p1 but not by p2, p3, p4, p5"),
            vec![("backfill", 500), ("snap-request", 4500), ("wish", 15000)],
        ),
    ];
    for (cfg, s, byzantine, sit_out, applied, behind, frames) in cases {
        let leader = cfg.with_instance(s).leader(View::FIRST);
        assert_eq!(byzantine.last(), Some(&leader));
        let correct: Vec<ProcessId> = cfg.processes().filter(|p| !byzantine.contains(p)).collect();
        let to_b = *correct.last().unwrap();
        let split: Vec<_> = cfg
            .processes()
            .map(|p| (p, if p == to_b { &b } else { &a }.clone()))
            .collect();
        let ack_to_p1 = Move::SendToOne {
            kind: Kind::Ack,
            view: View::FIRST,
            to: P1,
        };
        let moves: Vec<Move> = [ack_to_p1].into_iter().chain(sit_out).collect();
        let mut leads = vec![Move::Equivocate { split }];
        leads.extend(moves.iter().cloned());
        let in_slot =
            move |moves: Vec<Move>| move |slot| if slot == s { moves.clone() } else { Vec::new() };
        for seed in 1..=4 {
            let queue: Vec<Value> = (1000..1200).map(Value::from_u64).collect();
            let mut cluster = SmrSimCluster::new(
                cfg,
                seed,
                CountingMachine::new(),
                vec![queue; cfg.n()],
                Network::synchronous(DELTA),
                |p, node| {
                    let node = node.with_batch_size(1);
                    if p == leader {
                        Box::new(byzantine_seat(node, in_slot(leads.clone())))
                    } else if byzantine.contains(&p) {
                        Box::new(byzantine_seat(node, in_slot(moves.clone())))
                    } else {
                        Box::new(node)
                    }
                },
            );
            let case = format!("n = {} sitting out {:?}, seed {seed}", cfg.n(), &moves[1..]);
            cluster.sim_mut().run_until(SimTime(100 * DELTA.0));
            let fast = ("commit-fast", format!("p1 decided slot {s} in view 1"));
            assert_eq!(story(&cluster, P1, s), [fast], "{case}");
            let lagging = cluster.settle(1_900).map(|v| v.to_string());
            assert_eq!(lagging.as_deref(), behind, "{case}");
            assert_eq!(cluster.violations(), [], "{case}");
            let now: Vec<u64> = correct.iter().map(|p| cluster.node(*p).applied()).collect();
            assert_eq!(now, applied, "{case}");
            // Whoever got past `S` applied A's command, and B's nowhere.
            let logs = cluster.logs();
            for (p, _) in correct.iter().zip(&now).filter(|(_, a)| **a > s) {
                let log = &logs[p.index()];
                let has = |c: u64| log.values().any(|v| *v == Value::from_u64(c));
                assert_eq!((has(1), has(2)), (true, false), "{p}: {case}");
            }
            if seed == 1 {
                let stats = |at: u64| cluster.sim().trace().message_stats(SimTime(at * DELTA.0));
                let before = stats(1_000).by_kind;
                let sent: Vec<(&str, usize)> = stats(2_000)
                    .by_kind
                    .into_iter()
                    .map(|(kind, (m, _))| (kind, m - before.get(kind).map_or(0, |b| b.0)))
                    .filter(|(_, m)| *m > 0)
                    .collect();
                assert_eq!(sent, frames, "{case}");
            }
        }
    }
}

/// Item 16 at the SMR level: a proposal certified in one slot decides
/// nothing in another. p3 harvests, then spends, with per-seat client
/// queues (seat `i` submits `1000 i + k`), batch 1, pipeline depth 1:
///
/// * slot 1, which p3 leads first: it withholds its proposal, so view 2's
///   leader p4 proposes under a progress certificate, and p3 keeps that
///   proposal. (Its own next slot, 5, clears everyone's suspicion of it.)
/// * slot 8 (p2 leads view 1, p3 view 2): p1's sends are held back; p3
///   acks p2's proposal to p1 alone ([`Move::SendToOne`]), so p1 decides it
///   on the fast path, while p2 and p4 time out into view 2, which p3 leads
///   with the stored proposal under its own τ ([`Move::Replay`]).
///
/// p2 and p4 refuse the certificate, which names slot 1; view 3 decides
/// what p1 decided, and the checker finds nothing. With the instance left
/// out of the signed statement they acknowledge the replay and decide slot
/// 1's batch again, which executes nothing, so from slot 8 on their logs
/// run one command behind p1's: `Diverged`.
#[test]
fn a_certificate_harvested_in_one_slot_decides_nothing_in_another() {
    const HARVEST: u64 = 1;
    const SPEND: u64 = 8;
    let cfg = Config::new(4, 1, 1).unwrap();
    let leaders = |slot| [1, 2].map(|v| cfg.with_instance(slot).leader(View(v)));
    assert_eq!(leaders(HARVEST), [P3, P4]);
    assert_eq!(leaders(SPEND), [P2, P3]);
    let moves = |slot| match slot {
        HARVEST => vec![Move::Withhold(Kind::Propose)],
        SPEND => vec![
            Move::SendToOne {
                kind: Kind::Ack,
                view: View::FIRST,
                to: P1,
            },
            Move::Replay { view: View(2) },
        ],
        _ => Vec::new(),
    };
    // p1's sends to its peers, from the moment slot `SPEND` opens, arrive
    // only once the view change has run its course.
    let held = Arc::new(AtomicU64::new(u64::MAX));
    let hold = Arc::clone(&held);
    let network = Network::scripted(DELTA, move |info| {
        let at = info.sent_at + DELTA;
        let from = hold.load(Ordering::Relaxed);
        if info.from == P1 && info.to != P1 && info.sent_at.0 >= from {
            at.max(SimTime(from + 60 * DELTA.0))
        } else {
            at
        }
    });
    let queues = (1..=4u64)
        .map(|i| (0..40).map(|k| Value::from_u64(1000 * i + k)).collect())
        .collect();
    let mut cluster = SmrSimCluster::new(
        cfg,
        16,
        CountingMachine::new(),
        queues,
        network,
        |p, node| {
            let node = node.with_batch_size(1).with_pipeline_depth(1);
            if p == P3 {
                Box::new(byzantine_seat(node, moves))
            } else {
                Box::new(node)
            }
        },
    );
    let correct = [P1, P2, P4];
    let horizon = SimTime(2_000 * DELTA.0);
    cluster.run_until(horizon, |c| {
        correct.iter().all(|p| c.node(*p).applied() >= SPEND)
    });
    let store = cluster
        .sim()
        .actor(P3)
        .as_any()
        .and_then(|a| a.downcast_ref::<Seat<SmrNode<CountingMachine>>>())
        .expect("p3 is the adversary")
        .store()
        .clone();
    let kept = store
        .latest(|p| p.view == View(2))
        .expect("p3 saw a view-2 proposal");
    assert!(matches!(kept.cert, ProgressCert::Bounded(_)));
    held.store(cluster.sim().now().0, Ordering::Relaxed);

    cluster.run_until(horizon, |c| {
        correct.iter().all(|p| c.node(*p).applied() >= SPEND + 4)
    });
    let decided: Vec<_> = correct
        .iter()
        .map(|p| cluster.node(*p).decided_batch(SPEND))
        .collect();
    assert_eq!(decided[0], Some(vec![Value::from_u64(2002)]));
    assert!(decided.iter().all(|d| *d == decided[0]), "{decided:?}");
    let fast = ("commit-fast", "p1 decided slot 8 in view 1".to_string());
    assert_eq!(story(&cluster, P1, SPEND), [fast]);
    for p in [P2, P4] {
        assert_eq!(
            story(&cluster, p, SPEND),
            [
                (
                    "view-change",
                    format!("{p} slot 8 entered view 2 (leader p3)")
                ),
                (
                    "view-change",
                    format!("{p} slot 8 entered view 3 (leader p4)")
                ),
                ("commit-fast", format!("{p} decided slot 8 in view 3")),
            ]
        );
    }
}
