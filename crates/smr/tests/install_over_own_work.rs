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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_obs::MetricsRegistry;
use fastbft_sim::{Network, SimDuration, SimTime, Simulation};
use fastbft_smr::{
    offset_logs_consistent, tag_command, KvCommand, KvStore, SlotMessage, SmrNode, SLOT_WINDOW,
};
use fastbft_types::wire::Encode;
use fastbft_types::{Config, ProcessId, Value};

const DELTA: u64 = SimDuration::DELTA.0;
const DEPTH: u64 = 4;
const INTERVAL: u64 = 16;
/// The tagged commands' client id.
const CLIENT: u64 = 9;

type Node = SmrNode<KvStore>;

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

/// The cluster under test and how many shared commands it has been given.
struct Run {
    sim: Simulation<SlotMessage>,
    submitted: u64,
}

impl Run {
    fn node(&self, p: ProcessId) -> &Node {
        self.sim
            .actor(p)
            .as_any()
            .and_then(|any| any.downcast_ref::<Node>())
            .expect("every seat holds an honest node")
    }

    fn has(&self, p: ProcessId, key: &str) -> bool {
        self.node(p).machine().get(key).is_some()
    }

    /// Slots applied by every seat of `who`.
    fn applied(&self, who: &[ProcessId]) -> u64 {
        who.iter().map(|p| self.node(*p).applied()).min().unwrap()
    }

    /// Steps until `done` holds.
    fn run_until(&mut self, done: impl Fn(&Run) -> bool) {
        let horizon = SimTime(self.sim.now().0 + 2_000 * DELTA);
        while !done(self) {
            assert!(
                self.sim.step() && self.sim.now() < horizon,
                "stalled at {:?}",
                self.sim.now()
            );
        }
    }

    /// Hands the next shared command to every seat of `to` at `at`.
    fn submit_shared(&mut self, to: &[ProcessId], at: SimTime) -> String {
        let key = format!("shared{}", self.submitted);
        self.submitted += 1;
        for p in to {
            self.sim.submit_client(*p, untagged(&key), at);
        }
        key
    }

    /// Closed-loop load until every seat of `to` applied `slots` slots: one
    /// shared command at a time, committed at all of them before the next.
    fn load(&mut self, to: &[ProcessId], slots: u64) {
        while self.applied(to) < slots {
            let key = self.submit_shared(to, self.sim.now());
            self.run_until(|run| to.iter().all(|p| run.has(*p, &key)));
        }
    }
}

#[test]
fn a_snapshot_installed_over_open_slots_requeues_what_it_did_not_execute() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let victim = ProcessId(4);
    let live = [ProcessId(1), ProcessId(2), ProcessId(3)];
    let everyone: Vec<ProcessId> = cfg.processes().collect();

    let cut = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&cut);
    let network = Network::scripted(SimDuration::DELTA, move |info| {
        if flag.load(Ordering::Relaxed) && (info.from == victim || info.to == victim) {
            SimTime::NEVER
        } else {
            info.sent_at + SimDuration::DELTA
        }
    });
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), 23);
    let registry = MetricsRegistry::new(cfg.n());
    let mut sim = Simulation::new(network, 23);
    for (i, pair) in pairs.into_iter().enumerate() {
        let node = SmrNode::new(
            cfg,
            pair,
            dir.clone(),
            KvStore::new(),
            Vec::new(),
            KvCommand::Noop.to_value(),
        )
        .with_batch_size(1)
        .with_pipeline_depth(DEPTH)
        .with_snapshot_interval(INTERVAL)
        .with_options(ReplicaOptions {
            metrics: registry.replica(i),
            ..ReplicaOptions::default()
        });
        sim.add_actor(Box::new(node));
    }
    sim.start();
    let mut run = Run { sim, submitted: 0 };
    let installs = || {
        let m = registry.metrics(victim.index());
        m.snapshot_installed_total.get()
    };

    // Together, past the first snapshot boundary, then quiet.
    run.load(&everyone, INTERVAL + 4);
    let behind = run.applied(&everyone);
    for p in &everyone {
        let node = run.node(*p);
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
    cut.store(true, Ordering::Relaxed);
    let cut_at = run.sim.now();
    for cmd in &own {
        run.sim.submit_client(victim, cmd.clone(), cut_at);
    }
    run.sim.run_until(cut_at);
    let v = run.node(victim);
    assert_eq!((v.pending(), v.open_slots(), v.running_slots()), (6, 4, 4));
    assert_eq!(v.pending_bytes(), bytes(&own[4..]));

    // The live side runs on until the victim's window is a snapshot
    // interval behind it. On the way it hears of `a` and `b` and commits
    // them inside the last interval before the boundary, where the
    // snapshot's untagged dedup window still holds `b`.
    let boundary = (behind + SLOT_WINDOW + INTERVAL).next_multiple_of(INTERVAL);
    run.load(&live, boundary - INTERVAL + 2);
    let now = run.sim.now();
    for p in &live {
        run.sim.submit_client(*p, own[0].clone(), now);
        run.sim.submit_client(*p, own[1].clone(), now);
    }
    run.run_until(|run| live.iter().all(|p| run.has(*p, "a") && run.has(*p, "b")));
    assert!(
        run.applied(&live) < boundary,
        "`b` left the untagged window"
    );
    run.load(&live, boundary + 4);
    let v = run.node(victim);
    assert_eq!((v.applied(), v.pending(), v.open_slots()), (behind, 6, 4));
    assert_eq!(installs(), 0);

    // Heal, with a little paced load so there is something to hear: frames
    // beyond the victim's window, which it stashes while it sees f + 1
    // peers past the recovery gap, asks, and installs.
    cut.store(false, Ordering::Relaxed);
    let healed_at = run.sim.now();
    for i in 0..8 {
        run.submit_shared(&live, SimTime(healed_at.0 + i * DELTA));
    }
    let mut stashed = 0;
    while installs() == 0 {
        stashed = stashed.max(run.node(victim).stashed_messages());
        assert!(
            run.sim.step() && run.sim.now() < SimTime(healed_at.0 + 100 * DELTA),
            "no install"
        );
    }
    assert!(stashed > 0, "nothing was ever stashed");
    // The instant of the install. The machine holds what the snapshot
    // executed — `a` and `b`, nothing only the victim knew of — and the
    // node's books start at the boundary: an empty log and tail, one
    // interval of untagged dedup entries (`a` is a watermark, not an
    // entry), the stash drained into the new window.
    let v = run.node(victim);
    assert_eq!(v.snapshot_upto(), Some(boundary));
    assert_eq!((v.applied(), v.log().len(), v.tail_len()), (boundary, 0, 0));
    assert_eq!(v.dedup_entries() as u64, INTERVAL - 1);
    assert_eq!(v.stashed_messages(), 0);
    for (key, executed) in [("a", true), ("b", true), ("c", false), ("f", false)] {
        assert_eq!(run.has(victim, key), executed, "{key}");
    }
    // `a` and `b` are gone from its books; the other four came back to the
    // queue and went straight into the four free slots at the boundary.
    assert_eq!((v.pending(), v.pending_bytes()), (4, 0));

    // Everything commits, everywhere, once: as many client commands applied
    // as were ever submitted, on every seat.
    run.load(&everyone, boundary + 2 * INTERVAL);
    let total = run.submitted + own.len() as u64;
    run.run_until(|run| {
        everyone
            .iter()
            .all(|p| run.node(*p).commands_applied() >= total)
    });
    run.sim.run_until(SimTime(run.sim.now().0 + 100 * DELTA));
    assert_eq!(installs(), 1);
    let reference = run.node(ProcessId(1));
    for p in &everyone {
        let node = run.node(*p);
        assert_eq!(node.commands_applied(), total, "{p}");
        assert_eq!(node.applied(), reference.applied(), "{p}");
        assert_eq!(node.state_digest(), reference.state_digest(), "{p}");
        for key in ["a", "b", "c", "d", "e", "f"] {
            assert!(run.has(*p, key), "{key} at {p}");
        }
        // Nothing left over from below any boundary, the victim's included.
        assert_eq!((node.open_slots(), node.running_slots()), (0, 0), "{p}");
        assert_eq!((node.pending(), node.pending_bytes()), (0, 0), "{p}");
        assert_eq!(node.stashed_messages(), 0, "{p}");
        let upto = node.snapshot_upto().expect("snapshots were taken");
        assert_eq!(node.tail_len() as u64, node.applied() - upto, "{p}");
        assert_eq!(node.dedup_entries(), reference.dedup_entries(), "{p}");
    }
    let logs: Vec<(u64, &[Value])> = everyone
        .iter()
        .map(|p| (run.node(*p).log_offset(), run.node(*p).log()))
        .collect();
    assert!(offset_logs_consistent(&logs));
}
