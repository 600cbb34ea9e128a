//! Regression: a replica partitioned past the stash horizon must still
//! rejoin and converge.
//!
//! The failure mode (pre state-transfer): consensus messages for slots at
//! or beyond `applied + MAX_STASH_AHEAD` are dropped as hopeless, so once
//! the rest of the cluster commits `MAX_STASH_AHEAD + SLOT_WINDOW` slots
//! while a replica is cut off, every message the victim receives after the
//! partition heals is either for a slot it has long decided (ignored) or
//! beyond its stash horizon (dropped) — it could never catch up, and its
//! peers' dedup/log state grew without bound waiting for it. With snapshot
//! recovery the victim instead notices f+1 peers far ahead, fetches an
//! attested snapshot plus the committed suffix, installs it, and resumes
//! voting; snapshot truncation keeps everyone's memory bounded by the
//! snapshot interval throughout.

use fastbft_runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft_sim::{Actor, SimDuration, SimTime};
use fastbft_smr::{
    tag_command, KvCommand, KvStore, SlotMessage, SmrNode, SmrSimCluster,
    DEFAULT_SNAPSHOT_INTERVAL, MAX_STASH_AHEAD, SLOT_WINDOW,
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

/// n = 4, seat `queues[i]` on p`i + 1`, each configured by `configure`,
/// with `VICTIM` cut off (anything to or from it lost) until the live trio
/// has committed one full stash horizon *plus* a window beyond it — the
/// pre-fix point of no return. Returns the cluster and the plan to heal.
fn cut_off_past_the_horizon(
    queues: Vec<Vec<Value>>,
    configure: impl FnMut(ProcessId, SmrNode<KvStore>) -> Box<dyn Actor<SlotMessage>>,
) -> (SmrSimCluster<KvStore>, FaultPlan) {
    let cfg = Config::new(4, 1, 1).unwrap();
    let plan = FaultPlan::new();
    let cut = LinkProfile::cut();
    plan.set_rules(LinkRules {
        pairs: [((VICTIM, VICTIM), cut)].into(),
        by_src: [(VICTIM, cut)].into(),
        by_dst: [(VICTIM, cut)].into(),
    });
    let network = plan.network(SimDuration::DELTA, 11);
    let idle = KvCommand::Noop.to_value();
    let mut cluster = SmrSimCluster::new(cfg, 11, KvStore::new(), queues, idle, network, configure);
    cluster.run_until(SimTime(2_000_000_000), |c| {
        LIVE.iter()
            .all(|p| c.node(*p).applied() >= MAX_STASH_AHEAD + SLOT_WINDOW)
    });
    let victim = cluster.node(VICTIM).applied();
    assert_eq!(victim, 0, "victim advanced while partitioned");
    (cluster, plan)
}

#[test]
fn replica_partitioned_past_stash_horizon_recovers() {
    let cfg = Config::new(4, 1, 1).unwrap();
    // The client broadcasts 500 distinct puts to the live trio (the victim
    // is unreachable, so it holds no client state of its own) — enough
    // traffic to drive the live side far past the victim's stash horizon.
    let queue: Vec<Value> = (0..COMMANDS).map(put).collect();
    let commands = vec![queue.clone(), queue.clone(), queue, Vec::new()];
    let (mut cluster, plan) = cut_off_past_the_horizon(commands, |_, node| {
        let node = node.with_batch_size(1);
        Box::new(node.with_snapshot_interval(DEFAULT_SNAPSHOT_INTERVAL))
    });

    // Heal. The victim must recover — not via the stash (those slots are
    // gone from every live window) but by installing an attested snapshot —
    // and then converge on all 500 commands with everyone else.
    plan.heal();
    cluster.run_until(SimTime(8_000_000_000), |c| {
        cfg.processes()
            .all(|p| c.node(p).commands_applied() >= COMMANDS as u64)
    });
    assert_eq!(cluster.node(VICTIM).machine().len(), COMMANDS);

    // The victim rejoined by state transfer, not by replaying from zero:
    // its retained log starts at an installed snapshot boundary.
    let v = cluster.node(VICTIM);
    assert!(
        v.snapshot_upto().is_some(),
        "victim rejoined without installing a snapshot"
    );
    assert!(
        v.log_offset() > 0,
        "victim replayed the full log instead of installing a snapshot"
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
        assert!(node.log_offset() > 0, "log never truncated at {p}");
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
