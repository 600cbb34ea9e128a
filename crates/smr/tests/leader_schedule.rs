//! The agreed leader schedule (`crates/smr/src/schedule.rs`), in virtual
//! time: who leads view 1 of a slot is a pure function of the decided log,
//! so every replica computes the same leader, a silent seat stops leading
//! a window after its miss was decided, and a seat that comes back leads
//! again from its next probe on.
//!
//! The probe period is `8 · SLOT_WINDOW` = 512 slots: a skipped seat leads
//! view 1 of its own slot among the first `n` of every 512.

use fastbft_core::byzantine::random_moves;
use fastbft_runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft_sim::{check, Network, SimDuration, SimTime};
use fastbft_smr::{byzantine_seat, CountingMachine, SmrNode, SmrSimCluster, SLOT_WINDOW};
use fastbft_types::{Config, ProcessId, Value, View};

const DELTA: SimDuration = SimDuration::DELTA;

type Cluster = SmrSimCluster<CountingMachine>;

/// The rotation's own view-1 leader of `slot`.
fn rotation(cfg: &Config, slot: u64) -> ProcessId {
    cfg.with_instance(slot).leader(View::FIRST)
}

/// Every slot of `p`'s window with the seat that leads its view 1.
fn window(cluster: &Cluster, p: ProcessId) -> Vec<(u64, ProcessId)> {
    let node = cluster.node(p);
    let slots = node.applied()..node.applied() + SLOT_WINDOW;
    slots.map(|s| (s, node.first_leader(s).unwrap())).collect()
}

/// n = 4 with p4 cut off from the start and a batch-1 queue of
/// `commands` at every seat, each node built by `node`.
fn p4_cut_off(
    seed: u64,
    commands: u64,
    node: impl Fn(SmrNode<CountingMachine>) -> SmrNode<CountingMachine>,
) -> (Cluster, FaultPlan) {
    let cfg = Config::new(4, 1, 1).unwrap();
    let p4 = ProcessId(4);
    let plan = FaultPlan::new();
    let cut = LinkProfile::cut();
    plan.set_rules(LinkRules {
        pairs: [((p4, p4), cut)].into(),
        by_src: [(p4, cut)].into(),
        by_dst: [(p4, cut)].into(),
    });
    let queue: Vec<Value> = (0..commands).map(|i| Value::from_u64(1000 + i)).collect();
    let cluster = SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        vec![queue; 4],
        plan.network(DELTA, seed),
        |_, n| Box::new(node(n.with_batch_size(1))),
    );
    (cluster, plan)
}

/// A safety property: two correct replicas that computed different
/// leaders for one view would both sign proposals for it. p4 misses slot
/// 2, its first, while cut off, so from slot 66 on the others skip it.
/// After the heal it installs a snapshot; from then on, whenever it has
/// applied as many slots as p1 once had, it names the same leader as p1
/// did then for every slot of the window — the first window from the
/// schedule the snapshot carried.
#[test]
fn equal_logs_compute_equal_schedules_across_an_install() {
    let (mut cluster, plan) = p4_cut_off(41, 150, |n| n.with_snapshot_interval(16));
    let (p1, p4, cfg) = (ProcessId(1), ProcessId(4), Config::new(4, 1, 1).unwrap());
    // p1's window at each applied count.
    let mut at_p1: Vec<Vec<(u64, ProcessId)>> = Vec::new();
    let record = |at_p1: &mut Vec<_>, c: &Cluster| {
        while at_p1.len() as u64 <= c.node(p1).applied() {
            at_p1.push(window(c, p1));
        }
    };
    cluster.run_until(SimTime(10_000 * DELTA.0), |c| {
        record(&mut at_p1, c);
        at_p1.len() > 100
    });
    plan.heal();
    let (mut compared, mut installed) = (Vec::new(), None);
    cluster.run_until(SimTime(20_000 * DELTA.0), |c| {
        record(&mut at_p1, c);
        let (upto, applied) = (c.node(p4).snapshot_upto(), c.node(p4).applied());
        if upto.is_some() && compared.last() != Some(&applied) {
            assert_eq!(window(c, p4), at_p1[applied as usize], "after {applied}");
            installed = installed.or(upto);
            compared.push(applied);
        }
        compared.len() > 8
    });
    let upto = installed.unwrap();
    assert_eq!(compared[0], upto, "compared from the install on");
    let skipped = |(s, p): &&(u64, ProcessId)| rotation(&cfg, *s) != *p;
    assert!(
        at_p1[upto as usize].iter().filter(skipped).count() >= 8,
        "p4 is skipped"
    );
}

/// A silent seat leads view 1 of its slots until its first miss is a
/// window old, then only its probes; once it is back and no longer
/// suspected, its probe decides its own batch and a window later it leads
/// its own slots again. n = 4, p4 cut off, then healed at slot 150: at
/// its probe 514 its peers, who still suspect it, open the slot wishing
/// past it, and its proposal clears them too late for the view change,
/// which decides its successor's batch; at 1 026 it is waited for and
/// credited, and from 1 090 on it leads its own slots.
#[test]
fn a_silent_seat_is_skipped_after_the_lag_and_leads_again_after_a_probe() {
    let (mut cluster, plan) = p4_cut_off(43, 1_160, |n| n);
    let cfg = Config::new(4, 1, 1).unwrap();
    let (p1, p4) = (ProcessId(1), ProcessId(4));
    // Who led view 1 of each slot, as p1 saw it when the slot entered its
    // window.
    let mut led = Vec::new();
    let mut observe = |c: &mut Cluster| {
        let node = c.node(p1);
        while (led.len() as u64) < node.applied() + SLOT_WINDOW {
            led.push(node.first_leader(led.len() as u64).unwrap());
        }
    };
    cluster.run_until(SimTime(20_000 * DELTA.0), |c| {
        observe(c);
        c.node(p1).applied() >= 150
    });
    plan.heal();
    cluster.run_until(SimTime(100_000 * DELTA.0), |c| {
        observe(c);
        c.node(p1).applied() >= 1_110
    });
    let by_p4: Vec<u64> = (0..1_110).filter(|s| led[*s as usize] == p4).collect();
    let own: Vec<u64> = (0..1_110).filter(|s| rotation(&cfg, *s) == p4).collect();
    // The plain rotation up to slot 62; slot 2's miss fixed slot 66.
    assert!(by_p4
        .iter()
        .take_while(|s| **s < 66)
        .eq(own.iter().take_while(|s| **s < 66)));
    let after_lag: Vec<u64> = by_p4.iter().copied().filter(|s| *s >= 66).collect();
    let back = own.iter().copied().filter(|s| *s >= 1_090);
    let expected: Vec<u64> = [514, 1_026].into_iter().chain(back).collect();
    assert_eq!(after_lag, expected);
    assert_eq!(cluster.violations(), []);
}

/// A Byzantine seat playing seeded draws from the move alphabet in every
/// slot, with noise, on a synchronous network: whatever it does, every
/// seat the schedule skips is the Byzantine one. A correct seat's own
/// view-1 proposal decides its slot, so it is never missed.
#[test]
fn a_byzantine_seat_cannot_get_a_correct_seat_skipped() {
    check(
        "a_byzantine_seat_cannot_get_a_correct_seat_skipped",
        8,
        |c| {
            let (seed, fuzzer) = (c.int(0..10_000u64), ProcessId(c.int(1..=4u32)));
            let cfg = Config::new(4, 1, 1).unwrap();
            let queue: Vec<Value> = (0..160).map(|i| Value::from_u64(1000 + i)).collect();
            let mut cluster = SmrSimCluster::new(
                cfg,
                seed,
                CountingMachine::new(),
                vec![queue; 4],
                Network::synchronous(DELTA),
                |p, node| {
                    let node = node.with_batch_size(1);
                    if p != fuzzer {
                        return Box::new(node);
                    }
                    let moves = move |slot| random_moves(&cfg.with_instance(slot), p, seed ^ slot);
                    Box::new(byzantine_seat(node, moves).with_noise(seed))
                },
            );
            let correct: Vec<ProcessId> = cfg.processes().filter(|p| *p != fuzzer).collect();
            let mut checked = 0;
            cluster.run_until(SimTime(40_000 * DELTA.0), |c| {
                let applied = c.node(correct[0]).applied();
                if applied > checked {
                    checked = applied;
                    for (s, p) in window(c, correct[0]) {
                        let own = rotation(&cfg, s);
                        assert!(own == fuzzer || p == own, "slot {s}: {own} skipped for {p}");
                    }
                }
                correct.iter().all(|p| c.node(*p).commands_applied() >= 160)
            });
            assert!(checked >= SLOT_WINDOW + 16, "{checked} slots");
        },
    );
}
