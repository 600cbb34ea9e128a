//! The SMR layer's Byzantine seat (`fastbft_smr::byzantine`) against the
//! fast-path / view-change seam, at n = 4 (f = t = 1), in virtual time.
//!
//! One seat plays moves from `core`'s alphabet in the slots it picks and
//! is honest elsewhere. The first test pins the known liveness gap it
//! reaches deterministically; the second spends a certificate from one
//! slot in another, which the slot-bound statements refuse.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fastbft_core::byzantine::Move;
use fastbft_core::message::Kind;
use fastbft_core::ProgressCert;
use fastbft_sim::{Network, SimDuration, SimTime};
use fastbft_smr::{CountingMachine, SmrAdversary, SmrSimCluster, SLOT_WINDOW};
use fastbft_types::wire::to_bytes;
use fastbft_types::{Config, ProcessId, Value, View};

const DELTA: SimDuration = SimDuration::DELTA;
const P1: ProcessId = ProcessId(1);
const P2: ProcessId = ProcessId(2);
const P3: ProcessId = ProcessId(3);
const P4: ProcessId = ProcessId(4);

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
/// item 2). p4 leads view 1 of slot `S` and, in `S` only, splits its
/// proposal — batch A to p1, p2 and itself, batch B to p3 — acks A to p1
/// alone, and stays out of the view change into view 2. p1 holds `n − t`
/// acks for A and decides `S` on the fast path; p2 and p3 are one ack short
/// and time out, but view 2 needs a third wish, which neither p4 nor the
/// decided p1 sends. p1 answers their wishes with a `Backfill`, which needs
/// `f + 1` senders, and p4 sends none for `S`. So p2 and p3 stop at `S`, and
/// p1 stops `SLOT_WINDOW` slots later, where their windows end. Every seed
/// does the same.
///
/// This asserts today's stall: ROADMAP item 2(d)'s fix flips it.
#[test]
fn known_gap_a_slot_only_one_correct_replica_decided() {
    const S: u64 = 6;
    let cfg = Config::new(4, 1, 1).unwrap();
    assert_eq!(cfg.with_instance(S).leader(View::FIRST), P4);
    let (a, b) = (batch(&[1]), batch(&[2]));
    let moves = move |slot| {
        if slot != S {
            return Vec::new();
        }
        let split = vec![
            (P1, a.clone()),
            (P2, a.clone()),
            (P3, b.clone()),
            (P4, a.clone()),
        ];
        vec![
            Move::Equivocate { split },
            Move::SendToOne {
                kind: Kind::Ack,
                view: View::FIRST,
                to: P1,
            },
            Move::SilentInViewChange { view: View(2) },
        ]
    };
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
                if p == P4 {
                    Box::new(SmrAdversary::new(node, moves.clone()))
                } else {
                    Box::new(node)
                }
            },
        );
        cluster.sim_mut().run_until(SimTime(100 * DELTA.0));
        let fast = ("commit-fast", "p1 decided slot 6 in view 1".to_string());
        assert_eq!(story(&cluster, P1, S), [fast], "seed {seed}");
        cluster.sim_mut().run_until(SimTime(2_000 * DELTA.0));
        assert_eq!(cluster.violations(), [], "seed {seed}");
        let applied: Vec<u64> = [P1, P2, P3]
            .iter()
            .map(|p| cluster.node(*p).applied())
            .collect();
        assert_eq!(applied, [S + SLOT_WINDOW, S, S], "seed {seed}");
        let batch_a = Some(vec![Value::from_u64(1)]);
        assert_eq!(cluster.node(P1).decided_batch(S), batch_a, "seed {seed}");
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
                Box::new(SmrAdversary::new(node, moves))
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
        .and_then(|a| a.downcast_ref::<SmrAdversary<CountingMachine>>())
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
