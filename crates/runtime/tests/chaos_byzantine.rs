//! Byzantine actors *under an active fault plan*: the adversary gets both
//! a corrupted process and a hostile network, and the correct replicas
//! must still agree. This is the composition the chaos plane exists for —
//! scripted faults applied to live clusters that already contain
//! protocol-level adversaries.
//!
//! The script shapes honest↔honest links with delay, jitter, reordering
//! and duplication — faults that preserve *eventual delivery*, which is
//! the link assumption the single-shot protocol is proved under. Outright
//! loss is confined to links touching the Byzantine seat: dropping a
//! liar's traffic (or deliveries addressed to it) can only shrink the
//! adversary's power, so the plan stays within the paper's model while
//! every fault class still fires. (Sustained loss between *correct*
//! processes belongs to the SMR chaos suite, whose backfill layer
//! restores the reliable-link abstraction.) The network heals at 400 ms,
//! covering both the shaped regime and the recovery in one run.

use std::collections::BTreeMap;
use std::time::Duration;

use fastbft_core::byzantine::{EquivocatingLeader, RandomByzantine};
use fastbft_core::message::Message;
use fastbft_core::replica::Replica;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::{
    channel_seats, spawn_with, wrap_seats_metered, Decision, FaultPlan, LinkProfile, LinkRules,
    TICK,
};
use fastbft_sim::Actor;
use fastbft_types::{Config, ProcessId, Value, View};

/// The shared shaping profile for links between correct processes:
/// delayed, jittered, occasionally reordered and duplicated — but every
/// delivery eventually arrives.
fn hostile_but_fair() -> LinkProfile {
    LinkProfile::delayed(Duration::from_millis(2), Duration::from_millis(1))
        .with_reorder(0.2, Duration::from_millis(2))
        .with_duplication(0.1)
}

/// The weather: fair-but-hostile links between the correct processes plus
/// loss on every link into and out of the Byzantine one.
fn byzantine_weather(n: usize, byz: ProcessId) -> LinkRules {
    let correct = || (0..n).map(ProcessId::from_index).filter(move |p| *p != byz);
    let lossy = BTreeMap::from([(byz, hostile_but_fair().with_loss(0.25))]);
    LinkRules {
        pairs: correct()
            .flat_map(|a| correct().filter(move |b| *b != a).map(move |b| (a, b)))
            .map(|link| (link, hostile_but_fair()))
            .collect(),
        by_src: lossy.clone(),
        by_dst: lossy,
    }
}

/// Runs `cfg`'s correct replicas (all proposing 7) with `byz` played by
/// `liar`, over the channel mesh under the weather, until the correct
/// ones decide; returns their decisions and the delays, drops and
/// duplicates the metered wrappers injected.
fn run_in_weather(
    cfg: Config,
    key_seed: u64,
    byz: ProcessId,
    liar: impl Fn(KeyPair) -> Box<dyn Actor<Message> + Send>,
) -> (Vec<Decision>, [u64; 3]) {
    let n = cfg.n();
    let (pairs, dir) = KeyDirectory::generate(n, key_seed);
    let actors = cfg
        .processes()
        .map(|p| -> Box<dyn Actor<Message> + Send> {
            let keys = pairs[p.index()].clone();
            if p == byz {
                liar(keys)
            } else {
                Box::new(Replica::new(cfg, keys, dir.clone(), Value::from_u64(7)))
            }
        })
        .collect();
    let (plan, registry) = (FaultPlan::new(), MetricsRegistry::new(n));
    let seats = wrap_seats_metered(channel_seats(actors), &plan, 42, &registry);
    // The weather is in force before any seat runs; the network heals at
    // 400 ms.
    plan.set_rules(byzantine_weather(n, byz));
    let healer = std::thread::spawn({
        let plan = plan.clone();
        move || {
            std::thread::sleep(Duration::from_millis(400));
            plan.heal();
        }
    });
    let cluster = spawn_with(seats, TICK);
    let decisions = cluster.await_decisions(n - 1, Duration::from_secs(30));
    healer.join().expect("the network healed");
    cluster.shutdown();
    let injected = [
        registry.total(|m| &m.fault_delay_injected_total),
        registry.total(|m| &m.fault_drop_injected_total),
        registry.total(|m| &m.fault_dup_injected_total),
    ];
    (decisions, injected)
}

/// An equivocating view-1 leader (value `a` to part of the cluster, `b`
/// to the rest) under the shaped network: the correct replicas must never
/// decide different values, and must still decide once views rotate past
/// the liar.
#[test]
fn equivocating_leader_under_faults_cannot_split_the_cluster() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let leader = cfg.leader(View::FIRST);
    let (a, b) = (Value::from_u64(100), Value::from_u64(200));
    let recipients_a: Vec<ProcessId> = cfg.processes().filter(|p| *p != leader).take(2).collect();
    let (decisions, [delays, drops, _]) = run_in_weather(cfg, 31, leader, |keys| {
        Box::new(EquivocatingLeader::new(
            keys,
            a.clone(),
            b.clone(),
            recipients_a.clone(),
        ))
    });

    assert_eq!(
        decisions.len(),
        3,
        "all correct replicas must decide; got {decisions:?}"
    );
    let first = &decisions[0].value;
    for d in &decisions {
        assert_eq!(
            &d.value, first,
            "{:?} decided a different value under equivocation + faults",
            d.process
        );
    }
    assert!(delays > 0, "delay shaping must have fired");
    assert!(drops > 0, "loss on the liar's links must have fired");
}

/// A message-fuzzing Byzantine process on a generalized 8-node cluster
/// (f = 2, t = 1) under the shaped network: the correct replicas must
/// decide the honest leader's value, unanimously.
#[test]
fn random_byzantine_under_faults_cannot_block_agreement() {
    let cfg = Config::new(8, 2, 1).unwrap();
    let byz = ProcessId(8); // never the view-1 leader (that is p2)
    let (decisions, [delays, drops, dups]) = run_in_weather(cfg, 32, byz, |keys| {
        Box::new(RandomByzantine::new(cfg, keys, 99))
    });

    assert_eq!(
        decisions.len(),
        7,
        "all correct replicas must decide; got {decisions:?}"
    );
    for d in &decisions {
        assert_eq!(
            d.value,
            Value::from_u64(7),
            "{:?} decided a value the fuzzer forged",
            d.process
        );
    }
    assert!(delays > 0, "delay shaping must have fired");
    assert!(drops > 0, "loss on the fuzzer's links must have fired");
    assert!(dups > 0, "duplication must have fired");
}
