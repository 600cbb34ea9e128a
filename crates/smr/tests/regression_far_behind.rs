//! Regression: a replica cut off while its peers run past it must still
//! rejoin and converge.
//!
//! The failure mode (pre state-transfer): consensus frames for slots at or
//! beyond the victim's window are dropped, so once the rest of the cluster
//! commits far past it while it is cut off, every frame the victim receives
//! after the partition heals is either for a slot it has long decided or
//! beyond its window — it could never catch up, and its peers' dedup/log
//! state grew without bound waiting for it. With snapshot recovery the
//! victim instead notices f+1 peers far ahead, fetches an attested snapshot
//! plus the committed suffix, installs it, and resumes voting; snapshot
//! truncation keeps everyone's memory bounded by the snapshot interval
//! throughout. A peer that is asked about a slot it has already pruned
//! below its snapshot answers with state transfer too
//! ([`a_replica_stranded_on_a_pruned_slot_rejoins`]).

use fastbft_runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft_sim::{Actor, SimDuration, SimTime};
use fastbft_smr::{
    tag_command, KvCommand, KvStore, SlotMessage, SmrNode, SmrSimCluster, BACKFILL_HORIZON,
    DEFAULT_SNAPSHOT_INTERVAL, SLOT_WINDOW,
};
use fastbft_types::{Config, ProcessId, Value};

const COMMANDS: usize = 500;
const VICTIM: ProcessId = ProcessId(4);
const LIVE: [ProcessId; 3] = [ProcessId(1), ProcessId(2), ProcessId(3)];

fn put(i: usize) -> Value {
    KvCommand::Put {
        key: format!("k{i}"),
        value: format!("v{i}"),
    }
    .to_value()
}

/// Cuts `VICTIM` off: anything to or from it is lost, its sends to itself
/// too.
fn cut_off(plan: &FaultPlan) {
    let cut = LinkProfile::cut();
    plan.set_rules(LinkRules {
        pairs: [((VICTIM, VICTIM), cut)].into(),
        by_src: [(VICTIM, cut)].into(),
        by_dst: [(VICTIM, cut)].into(),
    });
}

/// n = 4, seat `queues[i]` on p`i + 1`, each configured by `configure`,
/// with `VICTIM` cut off (anything to or from it lost) until the live trio
/// has committed one full backfill horizon *plus* a window beyond it: past
/// anything the victim could reach by backfill votes or by frames for its
/// window. Returns the cluster and the plan to heal.
fn cut_off_past_the_horizon(
    queues: Vec<Vec<Value>>,
    configure: impl FnMut(ProcessId, SmrNode<KvStore>) -> Box<dyn Actor<SlotMessage>>,
) -> (SmrSimCluster<KvStore>, FaultPlan) {
    let cfg = Config::new(4, 1, 1).unwrap();
    let plan = FaultPlan::new();
    cut_off(&plan);
    let network = plan.network(SimDuration::DELTA, 11);
    let mut cluster = SmrSimCluster::new(cfg, 11, KvStore::new(), queues, network, configure);
    cluster.run_until(SimTime(2_000_000_000), |c| {
        LIVE.iter()
            .all(|p| c.node(*p).applied() >= BACKFILL_HORIZON + SLOT_WINDOW)
    });
    let victim = cluster.node(VICTIM).applied();
    assert_eq!(victim, 0, "victim advanced while partitioned");
    (cluster, plan)
}

#[test]
fn replica_partitioned_past_the_backfill_horizon_recovers() {
    let cfg = Config::new(4, 1, 1).unwrap();
    // The client broadcasts 500 distinct puts to the live trio (the victim
    // is unreachable, so it holds no client state of its own) — enough
    // traffic to drive the live side far past the victim's window.
    let queue: Vec<Value> = (0..COMMANDS).map(put).collect();
    let commands = vec![queue.clone(), queue.clone(), queue, Vec::new()];
    let (mut cluster, plan) = cut_off_past_the_horizon(commands, |_, node| {
        let node = node.with_batch_size(1);
        Box::new(node.with_snapshot_interval(DEFAULT_SNAPSHOT_INTERVAL))
    });

    // Heal. The victim must recover — not slot by slot (those slots are
    // gone from every live window) but by installing an attested snapshot —
    // and then converge on all 500 commands with everyone else.
    plan.heal();
    let horizon = SimTime(8_000_000_000);
    let mut resumed = (0, 0);
    cluster.run_until(horizon, |c| {
        let victim = c.node(VICTIM);
        resumed = (victim.applied(), victim.commands_applied());
        victim.snapshot_upto().is_some()
    });
    let installed = cluster.node(VICTIM).snapshot_upto().unwrap();
    // The install applied nothing past its boundary: the victim's log
    // resumes at the snapshot's log offset, the commands below it.
    let (applied, offset) = resumed;
    assert_eq!(applied, installed);
    cluster.run_until(horizon, |c| {
        cfg.processes()
            .all(|p| c.node(p).commands_applied() >= COMMANDS as u64)
    });
    assert_eq!(cluster.node(VICTIM).machine().len(), COMMANDS);

    // The victim rejoined by state transfer, not by replaying from zero:
    // the checker, fed every entry it applied, saw its first one at the
    // first snapshot it held, so that snapshot was installed, not taken.
    let first = cluster.logs()[VICTIM.index()].keys().next().copied();
    assert_eq!(
        first,
        Some(offset),
        "victim replayed the log below {installed} instead of installing a snapshot"
    );

    // Memory boundedness: dedup state and the backfill tail are bounded by
    // the snapshot interval on every replica — not by history length
    // (pre-fix, 500+ slots of dedup digests accumulated forever).
    for p in cfg.processes() {
        let node = cluster.node(p);
        assert!(
            node.dedup_entries() <= 2 * DEFAULT_SNAPSHOT_INTERVAL as usize,
            "dedup state unbounded at {p}: {} entries",
            node.dedup_entries()
        );
        assert!(
            node.tail_len() <= DEFAULT_SNAPSHOT_INTERVAL as usize,
            "backfill tail unbounded at {p}: {} entries",
            node.tail_len()
        );
        assert!(node.snapshot_upto().is_some(), "no snapshot at {p}");
    }
}

/// A snapshot install drops from the node's queue every command the
/// snapshot executed. The victim is cut off holding the live trio's tagged
/// queue; right after it installs it holds none of what the snapshot ran,
/// and no seat drops a duplicate over the next two snapshot intervals. One
/// proposal at a time, so every seat drains the same command into the same
/// slot and only a stale queue can propose one twice. Without the fix the
/// victim keeps 499 of its 500 commands (180 is right), proposes executed
/// ones again, and p1 drops 15 of them in dedup; untagged and past the
/// two-interval window, they would have executed twice.
#[test]
fn an_install_drops_the_queued_commands_the_snapshot_executed() {
    const INTERVAL: u64 = 32;
    let cfg = Config::new(4, 1, 1).unwrap();
    let queue: Vec<Value> = (0..COMMANDS)
        .map(|i| tag_command(0, i as u64 + 1, put(i).as_bytes()))
        .collect();
    let (mut cluster, plan) = cut_off_past_the_horizon(vec![queue; 4], |_, node| {
        let node = node.with_batch_size(1).with_pipeline_depth(1);
        Box::new(node.with_snapshot_interval(INTERVAL))
    });

    plan.heal();
    cluster.run_until(SimTime(8_000_000_000), |c| {
        c.node(VICTIM).snapshot_upto().is_some()
    });
    let v = cluster.node(VICTIM);
    let executed = v.commands_applied();
    assert!(executed > 0, "the snapshot executed nothing");
    let kept = v.pending() as u64;
    assert_eq!(
        kept,
        COMMANDS as u64 - executed,
        "kept what the snapshot ran"
    );

    let upto = v.snapshot_upto().expect("installed");
    cluster.run_until(SimTime(8_000_000_000), |c| {
        cfg.processes()
            .all(|p| c.node(p).applied() >= upto + 2 * INTERVAL)
    });
    for p in cfg.processes() {
        let dropped = cluster.registry().metrics(p.index());
        let dropped = dropped.dedup_dropped_total.get();
        assert_eq!(dropped, 0, "{p} dropped a duplicate in dedup");
    }
}

/// A replica cut off while its peers run past it and prune what they
/// decided must still rejoin once the link heals, however little the
/// cluster has left to do. n = 4, one command per slot, a snapshot every
/// 8 slots, the same 40 tagged puts queued at every seat; p4 is cut off
/// until the trio has applied all 40, then healed, and the run settles.
/// Two rows, each on seeds 1–3:
///
/// * cut after p4 has applied 10 slots: p4 holds open instances for the
///   slots it was working on, and keeps asking about them after the heal;
///   its peers have pruned those slots below their latest snapshot, so no
///   `Backfill` can answer them;
/// * cut from the start: the trio is more than `RECOVERY_GAP` slots ahead,
///   but the cluster is idle after the heal, so no frame of theirs reaches
///   p4 to pull its recovery trigger. Only p4's own wishes flow.
///
/// Each row runs once more with the answers lost: for 200Δ before the heal
/// only the frames *to* p4 are cut, so its asks arrive and what its peers
/// send back does not. The idle trio's state stands still meanwhile, so
/// every ask after the heal is one they already answered; a lost answer
/// must still go again.
///
/// Either way p4 must end level with its peers: the SMR checker's liveness
/// row finds nothing. Their answer to a frame about a pruned slot is state
/// transfer, so in the first row p4 ends by installing the snapshot at
/// slot 40, past the last command, and is level with them by state, not by
/// a log index of its own.
#[test]
fn a_replica_stranded_on_a_pruned_slot_rejoins() {
    const STRANDED: usize = 40;
    let cfg = Config::new(4, 1, 1).unwrap();
    let queue: Vec<Value> = (0..STRANDED)
        .map(|i| tag_command(0, i as u64 + 1, put(i).as_bytes()))
        .collect();
    let (mut found, mut expected) = (Vec::new(), Vec::new());
    for (cut_after, lost) in [(10, 0), (0, 0), (10, 200), (0, 200)] {
        for seed in 1..=3 {
            let plan = FaultPlan::new();
            let network = plan.network(SimDuration::DELTA, seed);
            let mut cluster = SmrSimCluster::new(
                cfg,
                seed,
                KvStore::new(),
                vec![queue.clone(); 4],
                network,
                |_, node| Box::new(node.with_batch_size(1).with_snapshot_interval(8)),
            );
            let horizon = SimTime(2_000_000_000);
            cluster.run_until(horizon, |c| c.node(VICTIM).applied() >= cut_after);
            cut_off(&plan);
            cluster.run_until(horizon, |c| {
                LIVE.iter()
                    .all(|p| c.node(*p).commands_applied() >= STRANDED as u64)
            });
            if lost > 0 {
                plan.set_rules(LinkRules {
                    by_dst: [(VICTIM, LinkProfile::cut())].into(),
                    ..LinkRules::default()
                });
                let sim = cluster.sim_mut();
                sim.run_until(SimTime(sim.now().0 + lost * sim.delta().0));
            }
            plan.heal();
            let lagging = cluster.settle(4_000).map(|v| v.to_string());
            let row = format!("cut after {cut_after}, answers lost for {lost}Δ, seed {seed}");
            assert_eq!(cluster.violations(), [], "{row}");
            found.push((row.clone(), lagging));
            expected.push((row, None));
        }
    }
    assert_eq!(found, expected);
}
