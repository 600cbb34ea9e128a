//! Property-based safety testing: randomized adversaries, randomized
//! networks, every valid configuration — agreement must never break.
//!
//! This is the experimental counterpart of Theorem 3.6: for `n ≥ 3f+2t−1`,
//! no combination of up to `f` Byzantine processes (silent, crashing,
//! equivocating or fuzzing) and adversarial pre-GST scheduling produces
//! disagreement. The matching *negative* control is the lower-bound suite
//! (`lower_bound_attack.rs`), which shows the adversary winning one process
//! below the bound.

use std::collections::BTreeMap;
use std::time::Duration;

use fastbft::core::cluster::{Behavior, Report, SimCluster};
use fastbft::runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft::sim::{check, Choices, Network, SimDuration, SimTime, TraceEvent, Violation};
use fastbft::types::{Config, ProcessId, Value, View};

/// The configurations under test (kept small: each case runs a full
/// simulation).
fn config(c: &mut Choices) -> Config {
    let (n, f, t) = *c.pick(&[(4, 1, 1), (5, 1, 1), (8, 2, 1), (9, 2, 2)]);
    Config::new(n, f, t).unwrap()
}

/// A Byzantine behavior chosen by the fuzzer: the first `kinds` of
/// `Silent`, two crashes, `Random` from `seed` and `EquivocateView1`.
fn behavior(c: &mut Choices, kinds: u8, seed: u64) -> Behavior {
    match c.int(0..kinds) {
        0 => Behavior::Silent,
        1 => Behavior::CrashAt(SimTime(100)),
        2 => Behavior::CrashAt(SimTime(150)),
        3 => Behavior::Random { seed },
        _ => Behavior::EquivocateView1 {
            a: Value::from_u64(c.int(1..=4u64)),
            b: Value::from_u64(c.int(1..=4u64) + 100),
            recipients_a: vec![ProcessId(1), ProcessId(3)],
        },
    }
}

/// The two Byzantine seats the weather runs against, each with the
/// behaviors that mean something there: the view-1 leader of (4, 1, 1)
/// draws any of [`behavior`]'s five, and p8 of (8, 2, 1), which leads no
/// view before the seventh, every one but `EquivocateView1` — a
/// non-leader's view-1 proposals are dropped, which is `Silent` again.
fn weathered_liar(c: &mut Choices) -> (Config, ProcessId, Behavior) {
    let (small, large) = (Config::new(4, 1, 1).unwrap(), Config::new(8, 2, 1).unwrap());
    if c.bool() {
        (large, ProcessId(8), behavior(c, 4, 99))
    } else {
        (small, small.leader(View::FIRST), behavior(c, 5, 99))
    }
}

/// When a healed run's plan heals: 400 ms of 50 µs ticks.
const HEALED_AT: SimTime = SimTime(8_000);

/// Cases of the weather, each run healed and never healed: a case is one
/// of nine (seat, behavior) pairs, so each pair runs over 64 (leader) or
/// 80 (p8) seeds on average.
const WEATHERED_CASES: u32 = 640;

/// Runs `byz` as `behavior` in `cfg`'s cluster, from `seed`, under the
/// weather — every link between distinct processes delayed 2 ms plus up
/// to 1 ms of jitter, and the links into and out of `byz` also 25 % lossy
/// — until every correct process decides or the horizon passes. The plan
/// heals at `heal`, or never. Only the liar's traffic is lost: the
/// protocol is proved over reliable links between correct processes, and
/// losing a liar's messages is a choice the liar could have made.
fn weathered(
    cfg: Config,
    byz: ProcessId,
    behavior: Behavior,
    seed: u64,
    heal: Option<SimTime>,
) -> (SimCluster, Report) {
    let plan = FaultPlan::new();
    let shaped = LinkProfile::delayed(Duration::from_millis(2), Duration::from_millis(1));
    let lossy = BTreeMap::from([(byz, shaped.with_loss(0.25))]);
    plan.set_default(shaped);
    plan.set_rules(LinkRules {
        by_src: lossy.clone(),
        by_dst: lossy,
        ..LinkRules::default()
    });
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64(vec![7; cfg.n()])
        .network(plan.network(SimDuration::DELTA, seed))
        .seed(seed)
        .behavior(byz, behavior)
        .build();
    if let Some(at) = heal {
        cluster.run_until(SimTime(at.0 - 1));
        plan.heal();
    }
    let report = cluster.run_until_all_decide();
    (cluster, report)
}

/// Whether an undecided run is stranded by the single-shot gap (ROADMAP
/// item 2): a replica that has decided takes no further part in view
/// changes, so a correct process that missed the deciding acks waits for
/// a view change no decided process joins. Stranded: some correct process
/// decided, and after the last decision only undecided processes sent.
fn stranded(cluster: &SimCluster, report: &Report) -> bool {
    let Some(last) = report.decisions.iter().map(|(_, at, _)| *at).max() else {
        return false;
    };
    let decided = |p: ProcessId| report.decision_time(p).is_some();
    cluster.trace().records().iter().all(|r| match r.event {
        TraceEvent::Send { from, .. } => r.at <= last || !decided(from),
        _ => true,
    })
}

/// Up to f random Byzantine processes + random seeds on a synchronous
/// network: safety always holds, and liveness holds for these
/// fault patterns.
#[test]
fn no_adversary_breaks_agreement_synchronous() {
    check("no_adversary_breaks_agreement_synchronous", 24, |c| {
        let (cfg, seed) = (config(c), c.int(0..1000u64));
        let byz_positions = c.vec(0..=2, |c| c.int(0..16usize));
        let behavior = behavior(c, 5, 12345);
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
        assert!(safety.is_empty(), "safety violations: {safety:?}");
        // Liveness: these adversaries cannot stall a synchronous system.
        assert!(report.all_decided, "undecided: {:?}", report.violations);
    });
}

/// Random GST and pre-GST chaos with a crashing or silent process:
/// safety must hold throughout; liveness once GST passes.
#[test]
fn no_schedule_breaks_agreement_partial_synchrony() {
    check("no_schedule_breaks_agreement_partial_synchrony", 24, |c| {
        let (seed, gst) = (c.int(0..1000u64), c.int(0..30u64));
        let (chaos, byz) = (c.int(2..30u64), c.int(0..4u32));
        let cfg = Config::new(4, 1, 1).unwrap();
        let p = ProcessId(byz % 4 + 1);
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64([1, 2, 3, 4])
            .network(Network::partially_synchronous(
                SimDuration::DELTA,
                SimTime(gst * 100),
                SimDuration(chaos * 100),
            ))
            .seed(seed)
            .behavior(
                p,
                if seed % 2 == 0 {
                    Behavior::Silent
                } else {
                    Behavior::CrashAt(SimTime(100))
                },
            )
            .build();
        let report = cluster.run_until_all_decide();
        let safety: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| !matches!(v, Violation::Undecided { .. }))
            .collect();
        assert!(safety.is_empty(), "safety violations: {safety:?}");
        assert!(
            report.all_decided,
            "undecided after GST: {:?}",
            report.violations
        );
        // Validity-ish: the decision is one of the inputs (all non-Byzantine
        // inputs are 1..=4; Byzantine could have had any input, but our
        // Byzantine actors never propose, so the decided value must be an
        // honest input or the Byzantine process's own recorded input).
        let decided = report.unanimous_decision().unwrap().as_u64().unwrap();
        assert!((1..=4).contains(&decided), "invented value {decided}");
    });
}

/// All-correct randomized inputs: weak validity (unanimity wins) and
/// extended validity (decision is someone's input).
#[test]
fn validity_under_random_inputs() {
    check("validity_under_random_inputs", 24, |c| {
        let (seed, inputs) = (c.int(0..1000u64), c.vec(4..=4, |c| c.int(0..5u64)));
        let cfg = Config::new(4, 1, 1).unwrap();
        let mut cluster = SimCluster::builder(cfg)
            .inputs_u64(inputs.clone())
            .seed(seed)
            .build();
        let report = cluster.run_until_all_decide();
        assert!(report.all_decided);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let decided = report.unanimous_decision().unwrap().as_u64().unwrap();
        assert!(inputs.contains(&decided));
        if inputs.iter().all(|i| *i == inputs[0]) {
            assert_eq!(decided, inputs[0], "unanimous input must be decided");
        }
    });
}

/// One run of [`weathered`], checked: the correct processes agree, and
/// decide the common input 7 unless the liar leads view 1 and lies there
/// (`Random` or `EquivocateView1` at the (4, 1, 1) leader, whose forged
/// proposal may win); every correct process decides, except that a crashed
/// view-1 leader may leave a run stranded (see [`stranded`]), the one
/// shape the single-shot gap produces here; and the trace shows the
/// weather — delays fired, and drops on the liar's links once they
/// carried 32 sends before the heal (all 32 survive one run in 10⁴). A
/// failure names the run: config, seat, behavior, seed and heal.
fn check_weathered(
    cfg: Config,
    byz: ProcessId,
    behavior: &Behavior,
    seed: u64,
    heal: Option<SimTime>,
) {
    let healed = heal.map_or("never healed".to_string(), |at| format!("healed at {at}"));
    let run = format!("{cfg}, {byz} {behavior:?}, seed {seed}, {healed}");
    let (cluster, report) = weathered(cfg, byz, behavior.clone(), seed, heal);
    let safety: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| !matches!(v, Violation::Undecided { .. }))
        .collect();
    assert!(safety.is_empty(), "{run}: {safety:?}");
    let leads = byz == cfg.leader(View::FIRST);
    let lies = matches!(
        behavior,
        Behavior::Random { .. } | Behavior::EquivocateView1 { .. }
    );
    if !(leads && lies) {
        let forged: Vec<_> = report
            .decisions
            .iter()
            .filter(|d| d.2 != Value::from_u64(7))
            .collect();
        assert!(
            forged.is_empty(),
            "{run}: decided a value no correct process proposed: {forged:?}"
        );
    }
    let crashed_leader = leads && matches!(behavior, Behavior::CrashAt(_));
    assert!(
        report.all_decided || (crashed_leader && stranded(&cluster, &report)),
        "{run}: undecided: {:?}",
        report.violations
    );
    let (mut delayed, mut dropped, mut lossy) = (0, 0, 0);
    for record in cluster.trace().records() {
        if let TraceEvent::Send {
            from,
            to,
            deliver_at,
            ..
        } = record.event
        {
            let shaped = heal.is_none_or(|at| record.at < at);
            lossy += usize::from(shaped && from != to && (from == byz || to == byz));
            if deliver_at == SimTime::NEVER {
                dropped += 1;
            } else if deliver_at.since(record.at) > SimDuration::DELTA {
                delayed += 1;
            }
        }
    }
    assert!(delayed > 0, "{run}: no delay fired");
    let unlost = format!("{run}: {lossy} sends on lossy links, none lost");
    assert!(dropped > 0 || lossy < 32, "{unlost}");
}

/// A Byzantine seat under the weather, in virtual time through
/// `FaultPlan::network`, each seed run with the plan healed after
/// 400 ms and never healed (see [`check_weathered`]).
#[test]
fn no_byzantine_seat_breaks_agreement_under_a_fault_plan() {
    check(
        "no_byzantine_seat_breaks_agreement_under_a_fault_plan",
        WEATHERED_CASES,
        |c| {
            let ((cfg, byz, behavior), seed) = (weathered_liar(c), c.int(0..1000u64));
            for heal in [Some(HEALED_AT), None] {
                check_weathered(cfg, byz, &behavior, seed, heal);
            }
        },
    );
}

/// The single-shot gap, as the fault-plan property meets it: the view-1
/// leader proposes to p3 and p4 only and acks to p1 and p3 only (its
/// other sends lost), then crashes; p1 and p3 decide on `n − t` acks and
/// go quiet, and p4, one ack short, wishes alone for a view change nobody
/// joins — long after the plan heals. Fixing ROADMAP item 2 fails this
/// test; then delete it and [`stranded`].
#[test]
fn a_laggard_is_stranded_once_the_others_decide() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let crash = Behavior::CrashAt(SimTime(150));
    let (cluster, report) = weathered(cfg, ProcessId(2), crash, 668, Some(HEALED_AT));
    let decided: Vec<ProcessId> = report.decisions.iter().map(|(p, _, _)| *p).collect();
    assert_eq!(decided, [ProcessId(1), ProcessId(3)]);
    assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
    assert!(stranded(&cluster, &report));
}
