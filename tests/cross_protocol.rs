//! Integration tests for the baseline protocols, under the same scenarios
//! as the core protocol, plus head-to-head shape checks.

use fastbft::baselines::{run, FabReplica, PbftReplica};
use fastbft::core::cluster::{Report, SimCluster};
use fastbft::sim::{Network, ScriptedActor, SimDuration, SimTime, Violation};
use fastbft::types::{ProcessId, ProtocolKind, Value};

fn delta() -> SimDuration {
    SimDuration::DELTA
}

fn synchronous() -> Network {
    Network::synchronous(delta())
}

fn sevens(n: usize) -> Vec<Value> {
    vec![Value::from_u64(7); n]
}

/// Every baseline run is checked as the paper's protocol is: agreement,
/// validity, and a decision at every seat outside the faulty set, within
/// 10 000 Δ.
fn checked(report: Report) -> Report {
    assert!(
        report.all_decided && report.violations.is_empty(),
        "{:?}",
        report.violations
    );
    assert!(
        report.final_time <= SimTime(10_000 * delta().0),
        "decided too late: {:?}",
        report.final_time
    );
    report
}

/// `kind` with input 7 at each of `n` seats on a synchronous network, the
/// `silent` seats sending nothing, checked.
fn sevens_checked(
    kind: ProtocolKind,
    f: usize,
    t: usize,
    seed: u64,
    n: usize,
    silent: &[u32],
) -> Report {
    let silent: Vec<ProcessId> = silent.iter().copied().map(ProcessId).collect();
    checked(run(kind, f, t, seed, synchronous(), sevens(n), &silent))
}

fn delays(report: &Report) -> impl Iterator<Item = u64> + '_ {
    report
        .decisions
        .iter()
        .map(|(_, t, _)| t.0.div_ceil(delta().0))
}

#[test]
fn pbft_agreement_across_sizes() {
    for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
        let report = sevens_checked(ProtocolKind::Pbft, f, 1, 1, n, &[]);
        assert_eq!(report.decisions.len(), n);
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
        // Three-step common case.
        assert!(delays(&report).all(|d| d == 3));
        // Distinct inputs: leader(1) = p2's input is the one decided.
        let inputs = (1..=n as u64).map(Value::from_u64).collect();
        let report = checked(run(
            ProtocolKind::Pbft,
            f,
            1,
            42,
            synchronous(),
            inputs,
            &[],
        ));
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(2)));
    }
}

#[test]
fn pbft_handles_partial_synchrony() {
    for seed in 0..3 {
        let network = Network::partially_synchronous(delta(), SimTime(2_000), SimDuration(1_500));
        let report = checked(run(ProtocolKind::Pbft, 1, 1, seed, network, sevens(4), &[]));
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
    }
}

/// Up to `f` silent seats: with leader(1) = p2 among them every decision
/// waits for a view change, past the common case's 3 delays; without it the
/// common case is untouched.
#[test]
fn pbft_view_change_with_max_silent() {
    for (n, f, ids, seed) in [
        (7, 2, &[2, 5][..], 3),
        (4, 1, &[2], 42),
        (7, 2, &[1, 3], 42),
    ] {
        let report = sevens_checked(ProtocolKind::Pbft, f, 1, seed, n, ids);
        assert_eq!(report.decisions.len(), n - ids.len());
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
        if ids.contains(&2) {
            assert!(delays(&report).all(|d| d > 3), "n = {n}, silent {ids:?}");
        } else {
            assert!(delays(&report).all(|d| d == 3), "n = {n}, silent {ids:?}");
        }
    }
}

#[test]
fn fab_agreement_and_speed() {
    for (f, t) in [(1usize, 1usize), (2, 1), (2, 2)] {
        let n = ProtocolKind::FabPaxos.min_n(f, t);
        let report = sevens_checked(ProtocolKind::FabPaxos, f, t, 1, n, &[]);
        assert_eq!(report.decisions.len(), n);
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
        assert!(delays(&report).all(|d| d == 2), "FaB is two-step");
    }
}

/// `t` silent followers (leader(1) = p2 is live): still 2 delays.
#[test]
fn fab_tolerates_t_faults_fast() {
    for (n, f, ids, seed) in [(11, 2, &[5, 8][..], 2), (6, 1, &[5], 11)] {
        let report = sevens_checked(ProtocolKind::FabPaxos, f, f, seed, n, ids);
        assert_eq!(report.decisions.len(), n - ids.len());
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
        assert!(delays(&report).all(|d| d == 2), "n = {n}, silent {ids:?}");
    }
}

#[test]
fn fab_recovers_from_silent_leader() {
    // leader(1) = p2: every decision waits for a view change.
    let report = sevens_checked(ProtocolKind::FabPaxos, 1, 1, 3, 6, &[2]);
    assert_eq!(report.decisions.len(), 5);
    assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
    assert!(delays(&report).all(|d| d > 2));
}

/// The checker is wired for the baselines: a silent seat the run does not
/// declare faulty owes a decision like any correct one, so both baselines
/// report it undecided; declared, the same runs are clean. The one test that
/// seats a baseline by hand: `run` always declares its silent seats.
#[test]
fn a_silent_seat_not_declared_faulty_is_a_liveness_violation() {
    let p3 = ProcessId(3);
    let fab_cfg = ProtocolKind::FabPaxos.config(6, 1, 1).unwrap();
    let pbft_cfg = ProtocolKind::Pbft.config(4, 1, 1).unwrap();
    let fab = SimCluster::new(6, 1, synchronous(), sevens(6), [], |p, keys, dir, input| {
        if p == p3 {
            Box::new(ScriptedActor::silent())
        } else {
            Box::new(FabReplica::new(fab_cfg, keys, dir.clone(), input))
        }
    })
    .run_until_all_decide();
    let pbft = SimCluster::new(4, 1, synchronous(), sevens(4), [], |p, keys, dir, input| {
        if p == p3 {
            Box::new(ScriptedActor::silent())
        } else {
            Box::new(PbftReplica::new(pbft_cfg, keys, dir.clone(), input))
        }
    })
    .run_until_all_decide();
    for report in [fab, pbft] {
        assert!(!report.all_decided);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::Undecided {
                    process: ProcessId(3),
                    ..
                }]
            ),
            "{:?}",
            report.violations
        );
    }
    for (kind, n) in [(ProtocolKind::FabPaxos, 6), (ProtocolKind::Pbft, 4)] {
        sevens_checked(kind, 1, 1, 1, n, &[3]);
    }
}

/// The headline size comparison: at f = t = 1 the paper's protocol needs 4
/// processes where FaB needs 6 — and FaB's configuration refuses 4.
#[test]
fn headline_process_counts() {
    assert_eq!(ProtocolKind::Ktz.min_n(1, 1), 4);
    assert_eq!(ProtocolKind::FabPaxos.min_n(1, 1), 6);
    assert!(ProtocolKind::Ktz.config(4, 1, 1).is_ok());
    assert!(ProtocolKind::FabPaxos.config(4, 1, 1).is_err());
}
