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
use fastbft_sim::{SimDuration, SimTime};
use fastbft_smr::{
    KvCommand, KvStore, SmrSimCluster, DEFAULT_SNAPSHOT_INTERVAL, MAX_STASH_AHEAD, SLOT_WINDOW,
};
use fastbft_types::{Config, ProcessId, Value};

fn put(i: usize) -> Value {
    KvCommand::Put {
        key: format!("k{i}"),
        value: format!("v{i}"),
    }
    .to_value()
}

#[test]
fn replica_partitioned_past_stash_horizon_recovers() {
    const COMMANDS: usize = 500;
    let cfg = Config::new(4, 1, 1).unwrap();
    let victim = ProcessId(4);
    let live = [ProcessId(1), ProcessId(2), ProcessId(3)];

    // The client broadcasts 500 distinct puts to the live trio (the victim
    // is unreachable, so it holds no client state of its own) — enough
    // traffic to drive the live side far past the victim's stash horizon.
    let queue: Vec<Value> = (0..COMMANDS).map(put).collect();
    let commands = vec![queue.clone(), queue.clone(), queue, Vec::new()];

    // Partition: until healed, anything to or from the victim is lost.
    let plan = FaultPlan::new();
    let cut = LinkProfile::cut();
    plan.set_rules(LinkRules {
        pairs: [((victim, victim), cut)].into(),
        by_src: [(victim, cut)].into(),
        by_dst: [(victim, cut)].into(),
    });
    let mut cluster = SmrSimCluster::new(
        cfg,
        11,
        KvStore::new(),
        commands,
        KvCommand::Noop.to_value(),
        plan.network(SimDuration::DELTA, 11),
        |_, node| {
            Box::new(
                node.with_batch_size(1)
                    .with_snapshot_interval(DEFAULT_SNAPSHOT_INTERVAL),
            )
        },
    );

    // Phase A: the live trio commits one full stash horizon *plus* a
    // window beyond the victim — the pre-fix point of no return.
    let horizon_slots = MAX_STASH_AHEAD + SLOT_WINDOW;
    cluster.run_until(SimTime(2_000_000_000), |c| {
        live.iter().all(|p| c.node(*p).applied() >= horizon_slots)
    });
    assert_eq!(
        cluster.node(victim).applied(),
        0,
        "victim advanced while partitioned"
    );

    // Phase B: heal. The victim must recover — not via the stash (those
    // slots are gone from every live window) but by installing an attested
    // snapshot — and then converge on all 500 commands with everyone else.
    plan.heal();
    let report = cluster.run_until(SimTime(8_000_000_000), |c| {
        cfg.processes()
            .all(|p| c.node(p).commands_applied() >= COMMANDS as u64)
    });
    // Identical state everywhere, including the victim.
    assert!(report.logs_consistent && report.converged, "{report:?}");
    assert_eq!(cluster.node(victim).machine().len(), COMMANDS);

    // The victim rejoined by state transfer, not by replaying from zero:
    // its retained log starts at an installed snapshot boundary.
    let v = cluster.node(victim);
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
        assert!(
            node.log_offset() > 0,
            "log never truncated at {p} despite {horizon_slots}+ applied slots"
        );
    }
}
