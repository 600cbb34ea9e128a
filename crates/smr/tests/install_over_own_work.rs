//! Snapshot install over a node's own work, in virtual time.
//!
//! `regression_far_behind.rs`'s victim holds no commands and
//! `snapshot_install_starts_with_an_empty_table` looks only at suspicion;
//! this is the install path with everything a working node carries in its
//! way. A seat that has taken a snapshot of its own, then drained tagged
//! *and* untagged commands of its own into open slots, is cut off until the
//! other three are more than a slot window ahead, heals, and installs their
//! snapshot over all of it:
//!
//! * what the snapshot already executed (the two commands its peers heard
//!   of as well) is dropped, not proposed again;
//! * what it did not (the commands only this seat holds) goes back to the
//!   queue and commits — every command exactly once, on every seat;
//! * nothing of the slots below the boundary survives: no instance, no
//!   in-flight batch, no queued byte, no stashed frame, no tail entry, no
//!   dedup entry its peers do not hold too.
//!
//! n = 4, one command per slot, pipeline depth 4, a snapshot every 16 slots.

use fastbft_runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft_sim::{SimDuration, SimTime};
use fastbft_smr::{tag_command, KvCommand, KvStore, SmrSimCluster, SLOT_WINDOW};
use fastbft_types::wire::Encode;
use fastbft_types::{Config, ProcessId, Value};

const DELTA: u64 = SimDuration::DELTA.0;
const DEPTH: u64 = 4;
const INTERVAL: u64 = 16;
/// The tagged commands' client id.
const CLIENT: u64 = 9;
/// Where the run counts as stalled.
const HORIZON: SimTime = SimTime(10_000 * DELTA);

type Cluster = SmrSimCluster<KvStore>;

fn put(key: &str) -> KvCommand {
    KvCommand::Put {
        key: key.to_string(),
        value: "1".to_string(),
    }
}

fn untagged(key: &str) -> Value {
    put(key).to_value()
}

fn tagged(seq: u64, key: &str) -> Value {
    tag_command(CLIENT, seq, &put(key).to_wire_bytes())
}

fn has(cluster: &Cluster, p: ProcessId, key: &str) -> bool {
    cluster.node(p).machine().get(key).is_some()
}

/// Slots applied by every seat of `who`.
fn applied(cluster: &Cluster, who: &[ProcessId]) -> u64 {
    who.iter()
        .map(|p| cluster.node(*p).applied())
        .min()
        .unwrap()
}

/// The cluster under test and how many shared commands it has been given.
struct Run {
    cluster: Cluster,
    submitted: u64,
}

impl Run {
    /// Hands the next shared command to every seat of `to` at `at`.
    fn submit_shared(&mut self, to: &[ProcessId], at: SimTime) -> String {
        let key = format!("shared{}", self.submitted);
        self.submitted += 1;
        for p in to {
            self.cluster.sim_mut().submit_client(*p, untagged(&key), at);
        }
        key
    }

    /// Closed-loop load until every seat of `to` applied `slots` slots: one
    /// shared command at a time, committed at all of them before the next.
    fn load(&mut self, to: &[ProcessId], slots: u64) {
        while applied(&self.cluster, to) < slots {
            let key = self.submit_shared(to, self.cluster.sim().now());
            self.cluster
                .run_until(HORIZON, |c| to.iter().all(|p| has(c, *p, &key)));
        }
    }
}

#[test]
fn a_snapshot_installed_over_open_slots_requeues_what_it_did_not_execute() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let victim = ProcessId(4);
    let live = [ProcessId(1), ProcessId(2), ProcessId(3)];
    let everyone: Vec<ProcessId> = cfg.processes().collect();

    let plan = FaultPlan::new();
    let cut = LinkProfile::cut();
    let cut_off = LinkRules {
        pairs: [((victim, victim), cut)].into(),
        by_src: [(victim, cut)].into(),
        by_dst: [(victim, cut)].into(),
    };
    let cluster = SmrSimCluster::new(
        cfg,
        23,
        KvStore::new(),
        vec![Vec::new(); cfg.n()],
        KvCommand::Noop.to_value(),
        plan.network(SimDuration::DELTA, 23),
        |_, node| {
            Box::new(
                node.with_batch_size(1)
                    .with_pipeline_depth(DEPTH)
                    .with_snapshot_interval(INTERVAL),
            )
        },
    );
    let mut run = Run {
        cluster,
        submitted: 0,
    };
    let installs = |c: &Cluster| {
        let m = c.registry().metrics(victim.index());
        m.snapshot_installed_total.get()
    };

    // Together, past the first snapshot boundary, then quiet.
    run.load(&everyone, INTERVAL + 4);
    let behind = applied(&run.cluster, &everyone);
    for p in &everyone {
        let node = run.cluster.node(*p);
        assert_eq!(node.applied(), behind, "{p}");
        assert_eq!(node.snapshot_upto(), Some(INTERVAL), "{p}");
        assert_eq!((node.open_slots(), node.pending()), (0, 0), "{p}");
    }

    // The victim's own work, handed to it the instant it is cut off: four
    // commands drained into the four slots of its window, two left queued.
    // Its peers will hear of `a` and `b` later; the rest only it holds.
    let own = [
        tagged(1, "a"),
        untagged("b"),
        tagged(2, "c"),
        untagged("d"),
        tagged(3, "e"),
        untagged("f"),
    ];
    let bytes = |cmds: &[Value]| cmds.iter().map(|c| c.as_bytes().len()).sum::<usize>();
    plan.set_rules(cut_off);
    let sim = run.cluster.sim_mut();
    let cut_at = sim.now();
    for cmd in &own {
        sim.submit_client(victim, cmd.clone(), cut_at);
    }
    sim.run_until(cut_at);
    let v = run.cluster.node(victim);
    assert_eq!((v.pending(), v.open_slots(), v.running_slots()), (6, 4, 4));
    assert_eq!(v.pending_bytes(), bytes(&own[4..]));

    // The live side runs on until the victim's window is a snapshot
    // interval behind it. On the way it hears of `a` and `b` and commits
    // them inside the last interval before the boundary, where the
    // snapshot's untagged dedup window still holds `b`.
    let boundary = (behind + SLOT_WINDOW + INTERVAL).next_multiple_of(INTERVAL);
    run.load(&live, boundary - INTERVAL + 2);
    let sim = run.cluster.sim_mut();
    let now = sim.now();
    for p in &live {
        sim.submit_client(*p, own[0].clone(), now);
        sim.submit_client(*p, own[1].clone(), now);
    }
    run.cluster.run_until(HORIZON, |c| {
        live.iter().all(|p| has(c, *p, "a") && has(c, *p, "b"))
    });
    assert!(
        applied(&run.cluster, &live) < boundary,
        "`b` left the untagged window"
    );
    run.load(&live, boundary + 4);
    let v = run.cluster.node(victim);
    assert_eq!((v.applied(), v.pending(), v.open_slots()), (behind, 6, 4));
    assert_eq!(installs(&run.cluster), 0);

    // Heal, with a little paced load so there is something to hear: frames
    // beyond the victim's window, which it stashes while it sees f + 1
    // peers past the recovery gap, asks, and installs.
    plan.heal();
    let healed_at = run.cluster.sim().now();
    for i in 0..8 {
        run.submit_shared(&live, SimTime(healed_at.0 + i * DELTA));
    }
    let mut stashed = 0;
    run.cluster
        .run_until(SimTime(healed_at.0 + 100 * DELTA), |c| {
            stashed = stashed.max(c.node(victim).stashed_messages());
            installs(c) > 0
        });
    assert!(stashed > 0, "nothing was ever stashed");
    // The instant of the install. The machine holds what the snapshot
    // executed — `a` and `b`, nothing only the victim knew of — and the
    // node's books start at the boundary: an empty tail, one interval of
    // untagged dedup entries (`a` is a watermark, not an entry), the stash
    // drained into the new window. The checker holds the victim's entries
    // from before the cut and none since: the install applied nothing.
    let victim_log = &run.cluster.logs()[victim.index()];
    assert!(victim_log.keys().copied().eq(0..behind), "{victim_log:?}");
    let v = run.cluster.node(victim);
    assert_eq!(v.snapshot_upto(), Some(boundary));
    assert_eq!((v.applied(), v.tail_len()), (boundary, 0));
    assert_eq!(v.dedup_entries() as u64, INTERVAL - 1);
    assert_eq!(v.stashed_messages(), 0);
    for (key, executed) in [("a", true), ("b", true), ("c", false), ("f", false)] {
        assert_eq!(has(&run.cluster, victim, key), executed, "{key}");
    }
    // `a` and `b` are gone from its books; the other four came back to the
    // queue and went straight into the four free slots at the boundary.
    assert_eq!((v.pending(), v.pending_bytes()), (4, 0));

    // Everything commits, everywhere, once: as many client commands applied
    // as were ever submitted, on every seat.
    run.load(&everyone, boundary + 2 * INTERVAL);
    let total = run.submitted + own.len() as u64;
    let cluster = &mut run.cluster;
    cluster.run_until(HORIZON, |c| c.report().commands_everywhere >= total);
    let sim = cluster.sim_mut();
    sim.run_until(SimTime(sim.now().0 + 100 * DELTA));
    assert_eq!(installs(cluster), 1);
    assert_eq!(cluster.violations(), []);
    let reference = cluster.node(ProcessId(1));
    for p in &everyone {
        let node = cluster.node(*p);
        assert_eq!(node.commands_applied(), total, "{p}");
        assert_eq!(node.applied(), reference.applied(), "{p}");
        for key in ["a", "b", "c", "d", "e", "f"] {
            assert!(has(cluster, *p, key), "{key} at {p}");
        }
        // Nothing left over from below any boundary, the victim's included.
        assert_eq!((node.open_slots(), node.running_slots()), (0, 0), "{p}");
        assert_eq!((node.pending(), node.pending_bytes()), (0, 0), "{p}");
        assert_eq!(node.stashed_messages(), 0, "{p}");
        let upto = node.snapshot_upto().expect("snapshots were taken");
        assert_eq!(node.tail_len() as u64, node.applied() - upto, "{p}");
        assert_eq!(node.dedup_entries(), reference.dedup_entries(), "{p}");
    }
}
