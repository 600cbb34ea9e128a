//! Systematic fault injection: crash every process at every interesting
//! phase boundary and combine faults — safety must hold in every cell of
//! the sweep.

use fastbft_core::cluster::{Behavior, SimCluster};
use fastbft_sim::{Network, SimDuration, SimTime, Violation};
use fastbft_types::{Config, ProcessId, Value, View};

fn assert_safe_and_live(report: &fastbft_core::Report, label: &str) {
    let safety: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| !matches!(v, Violation::Undecided { .. }))
        .collect();
    assert!(safety.is_empty(), "{label}: safety violations {safety:?}");
    assert!(
        report.all_decided,
        "{label}: liveness failed {:?}",
        report.violations
    );
}

/// Crash each single process at each phase boundary of the fast path
/// (before start, at propose delivery, at ack delivery, after decision).
#[test]
fn crash_sweep_single_process() {
    let cfg = Config::new(4, 1, 1).unwrap();
    for victim in cfg.processes() {
        for crash_at in [0u64, 100, 200, 300] {
            let mut cluster = SimCluster::builder(cfg)
                .inputs_u64([7, 7, 7, 7])
                .behavior(victim, Behavior::CrashAt(SimTime(crash_at)))
                .build();
            let report = cluster.run_until_all_decide();
            assert_safe_and_live(&report, &format!("crash {victim} at t={crash_at}"));
            assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
        }
    }
}

/// Crash pairs at staggered times in the f = 2 vanilla system, including
/// both leaders of the first two views.
#[test]
fn crash_sweep_pairs() {
    let cfg = Config::vanilla(9, 2).unwrap();
    let l1 = cfg.leader(View(1));
    let l2 = cfg.leader(View(2));
    let pairs = [
        (l1, 0u64, l2, 0u64),                   // both early leaders dead from the start
        (l1, 100, l2, 900),                     // leader dies at Δ, next leader later
        (ProcessId(5), 100, ProcessId(8), 100), // two followers at Δ
        (l1, 200, ProcessId(6), 150),           // leader after propose, follower mid-ack
    ];
    for (a, ta, b, tb) in pairs {
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64(vec![4; 9])
            .behavior(a, Behavior::CrashAt(SimTime(ta)))
            .behavior(b, Behavior::CrashAt(SimTime(tb)))
            .build();
        let report = cluster.run_until_all_decide();
        assert_safe_and_live(&report, &format!("crash {a}@{ta} + {b}@{tb}"));
    }
}

/// Equivocation at every possible split of the recipients.
#[test]
fn equivocation_split_sweep() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let leader = cfg.leader(View::FIRST);
    let others: Vec<ProcessId> = cfg.processes().filter(|p| *p != leader).collect();
    // All 8 subsets of the 3 non-leader processes receive value A.
    for mask in 0u8..8 {
        let recipients_a: Vec<ProcessId> = others
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| *p)
            .collect();
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([9, 9, 9, 9])
            .behavior(
                leader,
                Behavior::EquivocateView1 {
                    a: Value::from_u64(100),
                    b: Value::from_u64(200),
                    recipients_a,
                },
            )
            .build();
        let report = cluster.run_until_all_decide();
        assert_safe_and_live(&report, &format!("equivocation mask {mask:03b}"));
    }
}

/// The full Byzantine budget as fuzzers in the generalized configuration,
/// paired with a slow network start.
#[test]
fn fuzzers_with_chaotic_network() {
    for seed in 0..6 {
        let cfg = Config::new(8, 2, 1).unwrap();
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64(vec![6; 8])
            .network(Network::partially_synchronous(
                SimDuration::DELTA,
                SimTime(1_500),
                SimDuration(1_200),
            ))
            .behavior(ProcessId(3), Behavior::Random { seed })
            .behavior(ProcessId(6), Behavior::Random { seed: seed + 50 })
            .seed(seed)
            .build();
        let report = cluster.run_until_all_decide();
        assert_safe_and_live(&report, &format!("fuzzers seed {seed}"));
    }
}

/// Fuzzer + crash + equivocating leader would exceed f; instead verify the
/// worst legal combination at f = 2: equivocating leader + fuzzer.
#[test]
fn equivocator_plus_fuzzer() {
    for seed in 0..4 {
        let cfg = Config::vanilla(9, 2).unwrap();
        let leader = cfg.leader(View::FIRST);
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64(vec![2; 9])
            .behavior(
                leader,
                Behavior::EquivocateView1 {
                    a: Value::from_u64(10),
                    b: Value::from_u64(20),
                    recipients_a: vec![ProcessId(1), ProcessId(4), ProcessId(5), ProcessId(6)],
                },
            )
            .behavior(ProcessId(9), Behavior::Random { seed })
            .seed(seed)
            .build();
        let report = cluster.run_until_all_decide();
        assert_safe_and_live(&report, &format!("equivocator+fuzzer seed {seed}"));
    }
}

/// The leader crashes at Δ *after* its proposal is in flight, together with
/// a follower (f = 2 faults, t = 1): the fast path is dead (only 6 of the
/// required 7 acks), but the proposal survives via the slow path's commit
/// certificates — no view change needed.
#[test]
fn dead_leader_proposal_survives_via_slow_path() {
    let cfg = Config::new(8, 2, 1).unwrap();
    let leader = cfg.leader(View::FIRST);
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64(vec![5; 8])
        .behavior(leader, Behavior::CrashAt(SimTime(100)))
        .behavior(ProcessId(7), Behavior::CrashAt(SimTime(100)))
        .build();
    let report = cluster.run_until_all_decide();
    assert_safe_and_live(&report, "dead leader + follower at Δ");
    // Decided the dead leader's proposal, on the slow path's schedule.
    assert_eq!(report.unanimous_decision(), Some(Value::from_u64(5)));
    assert_eq!(
        report.decision_delays_max(),
        3,
        "slow path, not view change"
    );
}

/// Decisions are stable: once the first process decides, later traffic
/// (including the adversary's) never changes any correct process's value.
#[test]
fn decisions_stable_under_late_traffic() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64([3, 3, 3, 3])
        .behavior(ProcessId(4), Behavior::Random { seed: 5 })
        .build();
    // Run in two stages: to first decision, then to the horizon.
    let mid = cluster.run_until(SimTime(200));
    let early: Vec<_> = mid.decisions.clone();
    let fin = cluster.run_until_all_decide();
    for (p, _, v) in &early {
        let late = fin
            .decisions
            .iter()
            .find(|(q, _, _)| q == p)
            .map(|(_, _, v)| v.clone());
        assert_eq!(late, Some(v.clone()), "{p} changed decision");
    }
    assert!(fin.violations.is_empty());
}
