//! Cross-crate integration tests: full protocol scenarios on the simulator.

use fastbft::core::cluster::{Behavior, SimCluster};
use fastbft::sim::{SimDuration, SimTime};
use fastbft::types::{Config, ProcessId, Value, View};

/// Common case at a spread of valid configurations: two message delays,
/// no violations, leader's input decided.
#[test]
fn common_case_across_configurations() {
    for (n, f, t) in [
        (4usize, 1usize, 1usize),
        (5, 1, 1),
        (7, 2, 1),
        (8, 2, 1),
        (9, 2, 2),
        (10, 3, 1),
        (12, 3, 2),
        (14, 3, 3),
    ] {
        let cfg = Config::new(n, f, t).unwrap();
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64((1..=n as u64).collect::<Vec<_>>())
            .build();
        let report = cluster.run_until_all_decide();
        assert!(
            report.all_decided,
            "{cfg} undecided: {:?}",
            report.violations
        );
        assert!(
            report.violations.is_empty(),
            "{cfg}: {:?}",
            report.violations
        );
        assert_eq!(report.decision_delays_max(), 2, "{cfg} not two-step");
        let leader = cfg.leader(View::FIRST);
        assert_eq!(
            report.unanimous_decision(),
            Some(Value::from_u64(leader.0 as u64)),
            "{cfg}: leader input must win"
        );
    }
}

/// A partially synchronous start: chaos until GST, then Δ-bounded. The
/// protocol must still decide (possibly through several views) and stay safe.
#[test]
fn partial_synchrony_with_late_gst() {
    for seed in 0..5 {
        let cfg = Config::new(4, 1, 1).unwrap();
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([9, 9, 9, 9])
            .gst(SimTime(3_000), SimDuration(2_000))
            .seed(seed)
            .build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided, "seed {seed}: {:?}", report.violations);
        assert!(report.violations.is_empty(), "seed {seed}");
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(9)));
    }
}

/// Crash of the first two leaders: the third view's correct leader decides.
#[test]
fn cascading_leader_failures() {
    let cfg = Config::vanilla(9, 2).unwrap();
    let l1 = cfg.leader(View(1));
    let l2 = cfg.leader(View(2));
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64(vec![3; 9])
        .behavior(l1, Behavior::Silent)
        .behavior(l2, Behavior::Silent)
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided, "{:?}", report.violations);
    assert!(report.violations.is_empty());
    assert_eq!(report.unanimous_decision(), Some(Value::from_u64(3)));
}

/// An equivocating leader combined with a crashed follower (f = 2 faults at
/// n = 9): safety and liveness must both survive.
#[test]
fn equivocation_plus_crash() {
    let cfg = Config::vanilla(9, 2).unwrap();
    let leader = cfg.leader(View::FIRST);
    let follower = ProcessId(7);
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64(vec![5; 9])
        .behavior(
            leader,
            Behavior::EquivocateView1 {
                a: Value::from_u64(100),
                b: Value::from_u64(200),
                recipients_a: vec![ProcessId(1), ProcessId(4), ProcessId(6)],
            },
        )
        .behavior(follower, Behavior::CrashAt(SimTime(100)))
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided, "{:?}", report.violations);
    assert!(report.violations.is_empty());
}

/// The generalized protocol with exactly f > t crash failures engages the
/// slow path; the decision still lands within three delays.
#[test]
fn slow_path_under_max_faults() {
    let cfg = Config::new(8, 2, 1).unwrap();
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64(vec![6; 8])
        .behavior(ProcessId(5), Behavior::CrashAt(SimTime(100)))
        .behavior(ProcessId(7), Behavior::CrashAt(SimTime(100)))
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided, "{:?}", report.violations);
    assert!(report.violations.is_empty());
    assert_eq!(report.decision_delays_max(), 3, "slow path is three delays");
    assert!(report.stats.by_kind.contains_key("Commit"));
}

/// Fuzzing adversaries at full strength f, across seeds: never a violation.
#[test]
fn full_byzantine_quota_of_fuzzers() {
    for seed in 0..10 {
        let cfg = Config::vanilla(9, 2).unwrap();
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64(vec![8; 9])
            .behavior(ProcessId(4), Behavior::Random { seed })
            .behavior(ProcessId(9), Behavior::Random { seed: seed + 100 })
            .seed(seed)
            .build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided, "seed {seed}: {:?}", report.violations);
        assert!(report.violations.is_empty(), "seed {seed}");
    }
}

/// A fuzzer that happens to lead view 1 equivocates from the start.
#[test]
fn fuzzer_as_initial_leader() {
    for seed in 0..5 {
        let cfg = Config::new(4, 1, 1).unwrap();
        let leader = cfg.leader(View::FIRST);
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([2, 2, 2, 2])
            .behavior(leader, Behavior::Random { seed })
            .seed(seed)
            .build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided, "seed {seed}: {:?}", report.violations);
        assert!(report.violations.is_empty(), "seed {seed}");
    }
}

/// Distinct inputs + silent leader: the decided value is some process's
/// input (extended validity is checked by the harness for all-correct runs;
/// here we check decisions are never invented even with a fault).
#[test]
fn decided_value_is_a_real_input_under_faults() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let leader = cfg.leader(View::FIRST);
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64([11, 22, 33, 44])
        .behavior(leader, Behavior::Silent)
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided);
    let decided = report.unanimous_decision().unwrap().as_u64().unwrap();
    assert!(
        [11, 22, 33, 44].contains(&decided),
        "decided {decided} is nobody's input"
    );
}
