//! Integration tests for the baseline protocols, under the same scenarios
//! as the core protocol, plus head-to-head shape checks.

use fastbft::baselines::{fab_config, fab_min_n, FabReplica, PbftReplica};
use fastbft::core::cluster::{Report, SimCluster};
use fastbft::crypto::{KeyDirectory, KeyPair};
use fastbft::sim::{Actor, Network, ScriptedActor, SimDuration, SimMessage, SimTime, Violation};
use fastbft::types::{Config, ProcessId, ProtocolKind, Value};

fn delta() -> SimDuration {
    SimDuration::DELTA
}

/// Runs `n` seats with input 7 until every seat outside `faulty` decides or
/// the horizon passes: the `silent` seats send nothing, every other one runs
/// `replica`.
fn run<M: SimMessage>(
    n: usize,
    silent: &[u32],
    faulty: &[u32],
    network: Network,
    seed: u64,
    mut replica: impl FnMut(KeyPair, &KeyDirectory, Value) -> Box<dyn Actor<M>>,
) -> Report {
    let faulty = faulty.iter().copied().map(ProcessId);
    let inputs = vec![Value::from_u64(7); n];
    let mut cluster = SimCluster::new(n, seed, network, inputs, faulty, |p, keys, dir, input| {
        if silent.contains(&p.0) {
            Box::new(ScriptedActor::silent())
        } else {
            replica(keys, dir, input)
        }
    });
    cluster.run_until_all_decide()
}

/// Every baseline run is checked as the paper's protocol is: agreement,
/// validity, and a decision at every seat outside the faulty set.
fn checked(report: Report) -> Report {
    assert!(
        report.all_decided && report.violations.is_empty(),
        "{:?}",
        report.violations
    );
    report
}

fn run_pbft(
    n: usize,
    f: usize,
    silent: &[u32],
    gst: Option<(SimTime, SimDuration)>,
    seed: u64,
) -> Report {
    let cfg = Config::new_unchecked(n, f, 1.min(f));
    let network = match gst {
        None => Network::synchronous(delta()),
        Some((gst, chaos)) => Network::partially_synchronous(delta(), gst, chaos),
    };
    checked(run(n, silent, silent, network, seed, |keys, dir, input| {
        Box::new(PbftReplica::new(cfg, keys, dir.clone(), input))
    }))
}

fn run_fab(n: usize, f: usize, t: usize, silent: &[u32], seed: u64) -> Report {
    let cfg = fab_config(n, f, t).unwrap();
    let network = Network::synchronous(delta());
    checked(run(n, silent, silent, network, seed, |keys, dir, input| {
        Box::new(FabReplica::new(cfg, keys, dir.clone(), input))
    }))
}

#[test]
fn pbft_agreement_across_sizes() {
    for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
        let decisions = run_pbft(n, f, &[], None, 1).decisions;
        assert_eq!(decisions.len(), n);
        assert!(decisions.iter().all(|(_, _, v)| *v == Value::from_u64(7)));
        // Three-step common case.
        for (_, t, _) in &decisions {
            assert_eq!(t.0.div_ceil(delta().0), 3);
        }
    }
}

#[test]
fn pbft_handles_partial_synchrony() {
    for seed in 0..3 {
        let report = run_pbft(4, 1, &[], Some((SimTime(2_000), SimDuration(1_500))), seed);
        assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
    }
}

#[test]
fn pbft_view_change_with_max_silent() {
    // f silent processes including the first leader.
    let report = run_pbft(7, 2, &[2, 5], None, 3);
    assert_eq!(report.decisions.len(), 5);
    assert!(report.unanimous_decision().is_some());
}

#[test]
fn fab_agreement_and_speed() {
    for (f, t) in [(1usize, 1usize), (2, 1), (2, 2)] {
        let n = fab_min_n(f, t);
        let decisions = run_fab(n, f, t, &[], 1).decisions;
        assert_eq!(decisions.len(), n);
        for (_, time, v) in &decisions {
            assert_eq!(*v, Value::from_u64(7));
            assert_eq!(time.0.div_ceil(delta().0), 2, "FaB is two-step");
        }
    }
}

#[test]
fn fab_tolerates_t_faults_fast() {
    // n = 11 = 5f+1 with f = t = 2: two silent followers, still 2 delays.
    let decisions = run_fab(11, 2, 2, &[5, 8], 2).decisions;
    assert_eq!(decisions.len(), 9);
    for (_, time, _) in &decisions {
        assert_eq!(time.0.div_ceil(delta().0), 2);
    }
}

#[test]
fn fab_recovers_from_silent_leader() {
    let report = run_fab(6, 1, 1, &[2], 3); // leader(1) = p2
    assert_eq!(report.decisions.len(), 5);
    assert!(report.unanimous_decision().is_some());
}

/// The checker is wired for the baselines: a silent seat the run does not
/// declare faulty owes a decision like any correct one, so both baselines
/// report it undecided; declared, the same runs are clean.
#[test]
fn a_silent_seat_not_declared_faulty_is_a_liveness_violation() {
    let fab_cfg = fab_config(6, 1, 1).unwrap();
    let pbft_cfg = Config::new(4, 1, 1).unwrap();
    for faulty in [&[][..], &[3]] {
        let fab = run(
            6,
            &[3],
            faulty,
            Network::synchronous(delta()),
            1,
            |keys, dir, input| Box::new(FabReplica::new(fab_cfg, keys, dir.clone(), input)),
        );
        let pbft = run(
            4,
            &[3],
            faulty,
            Network::synchronous(delta()),
            1,
            |keys, dir, input| Box::new(PbftReplica::new(pbft_cfg, keys, dir.clone(), input)),
        );
        for report in [fab, pbft] {
            if faulty.is_empty() {
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
            } else {
                checked(report);
            }
        }
    }
}

/// The headline size comparison, executed: at f = t = 1 the paper's
/// protocol needs 4 processes where FaB needs 6 — and FaB's constructor
/// refuses 4 or 5.
#[test]
fn headline_process_counts() {
    assert_eq!(ProtocolKind::Ktz.min_n(1, 1), 4);
    assert_eq!(ProtocolKind::FabPaxos.min_n(1, 1), 6);
    assert!(fab_config(5, 1, 1).is_err());
    assert!(fab_config(4, 1, 1).is_err());
    assert!(Config::new(4, 1, 1).is_ok());
}
