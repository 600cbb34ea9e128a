//! Property-based safety testing: randomized adversaries, randomized
//! networks, every valid configuration — agreement must never break.
//!
//! This is the experimental counterpart of Theorem 3.6: for `n ≥ 3f+2t−1`,
//! no combination of up to `f` Byzantine processes (silent, crashing,
//! equivocating or fuzzing) and adversarial pre-GST scheduling produces
//! disagreement. The matching *negative* control is the lower-bound suite
//! (`lower_bound_attack.rs`), which shows the adversary winning one process
//! below the bound.

use proptest::prelude::*;

use fastbft::core::cluster::{Behavior, SimCluster};
use fastbft::sim::{SimDuration, SimTime, Violation};
use fastbft::types::{Config, ProcessId, Value};

/// The configurations under test (kept small: each proptest case runs a
/// full simulation).
fn configs() -> impl Strategy<Value = Config> {
    prop_oneof![
        Just(Config::new(4, 1, 1).unwrap()),
        Just(Config::new(5, 1, 1).unwrap()),
        Just(Config::new(8, 2, 1).unwrap()),
        Just(Config::new(9, 2, 2).unwrap()),
    ]
}

/// A Byzantine behavior chosen by the fuzzer.
fn behaviors(seed: u64) -> impl Strategy<Value = Behavior> {
    prop_oneof![
        Just(Behavior::Silent),
        Just(Behavior::CrashAt(SimTime(100))),
        Just(Behavior::CrashAt(SimTime(150))),
        Just(Behavior::Random { seed }),
        (1u64..=4, 1u64..=4).prop_map(|(a, b)| Behavior::EquivocateView1 {
            a: Value::from_u64(a),
            b: Value::from_u64(b + 100),
            recipients_a: vec![ProcessId(1), ProcessId(3)],
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Up to f random Byzantine processes + random seeds on a synchronous
    /// network: safety always holds, and liveness holds for these
    /// fault patterns.
    #[test]
    fn no_adversary_breaks_agreement_synchronous(
        cfg in configs(),
        seed in 0u64..1000,
        byz_positions in proptest::collection::vec(0usize..16, 0..=2),
        behavior in behaviors(12345),
    ) {
        let mut builder = SimCluster::builder(cfg)
            .inputs_u64((1..=cfg.n() as u64).collect::<Vec<_>>())
            .seed(seed);
        let mut byz = Vec::new();
        for pos in byz_positions.iter().take(cfg.f()) {
            let p = ProcessId((pos % cfg.n()) as u32 + 1);
            if !byz.contains(&p) {
                byz.push(p);
                builder = builder.behavior(p, behavior.clone());
            }
        }
        let mut cluster = builder.build();
        let report = cluster.run_until_all_decide();
        // Safety: never violated.
        let safety: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| !matches!(v, Violation::Undecided { .. }))
            .collect();
        prop_assert!(safety.is_empty(), "safety violations: {safety:?}");
        // Liveness: these adversaries cannot stall a synchronous system.
        prop_assert!(report.all_decided, "undecided: {:?}", report.violations);
    }

    /// Random GST and pre-GST chaos with a crashing or silent process:
    /// safety must hold throughout; liveness once GST passes.
    #[test]
    fn no_schedule_breaks_agreement_partial_synchrony(
        seed in 0u64..1000,
        gst in 0u64..30u64,
        chaos in 2u64..30u64,
        byz in 0u32..4u32,
    ) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let p = ProcessId(byz % 4 + 1);
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([1, 2, 3, 4])
            .gst(SimTime(gst * 100), SimDuration(chaos * 100))
            .seed(seed)
            .behavior(p, if seed % 2 == 0 { Behavior::Silent } else { Behavior::CrashAt(SimTime(100)) })
            .build();
        let report = cluster.run_until_all_decide();
        let safety: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| !matches!(v, Violation::Undecided { .. }))
            .collect();
        prop_assert!(safety.is_empty(), "safety violations: {safety:?}");
        prop_assert!(report.all_decided, "undecided after GST: {:?}", report.violations);
        // Validity-ish: the decision is one of the inputs (all non-Byzantine
        // inputs are 1..=4; Byzantine could have had any input, but our
        // Byzantine actors never propose, so the decided value must be an
        // honest input or the Byzantine process's own recorded input).
        let decided = report.unanimous_decision().unwrap().as_u64().unwrap();
        prop_assert!((1..=4).contains(&decided), "invented value {decided}");
    }

    /// All-correct randomized inputs: weak validity (unanimity wins) and
    /// extended validity (decision is someone's input).
    #[test]
    fn validity_under_random_inputs(
        seed in 0u64..1000,
        inputs in proptest::collection::vec(0u64..5, 4),
    ) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64(inputs.clone())
            .seed(seed)
            .build();
        let report = cluster.run_until_all_decide();
        prop_assert!(report.all_decided);
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
        let decided = report.unanimous_decision().unwrap().as_u64().unwrap();
        prop_assert!(inputs.contains(&decided));
        if inputs.iter().all(|i| *i == inputs[0]) {
            prop_assert_eq!(decided, inputs[0], "unanimous input must be decided");
        }
    }
}
