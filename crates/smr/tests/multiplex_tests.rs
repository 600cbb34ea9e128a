//! Unit-level tests for the slot multiplexer: window stashing, timer
//! namespacing, rotation and pipelining behavior.

use fastbft_core::message::{AckMsg, Message, WishMsg};
use fastbft_crypto::KeyDirectory;
use fastbft_sim::{Actor, Effects, Network, SimDuration, SimTime};
use fastbft_smr::{CountingMachine, KvCommand, KvStore, SlotMessage, SmrNode, SmrSimCluster};
use fastbft_types::{Config, ProcessId, Value, View};

#[test]
fn empty_queues_quiesce_after_slot_zero() {
    // With nothing to commit, the pipeline settles instead of burning
    // slots on filler forever: slot 0 (opened unconditionally at start)
    // decides the idle no-op, and no further slot opens.
    let cfg = Config::new(4, 1, 1).unwrap();
    let mut cluster = SmrSimCluster::new(
        cfg,
        9,
        CountingMachine::new(),
        vec![Vec::new(); 4],
        Value::from_u64(0),
        Network::synchronous(SimDuration::DELTA),
        |node| node,
    );
    let report = cluster.run_until_applied(25, SimTime(5_000_000));
    assert_eq!(report.applied_everywhere, 1, "{report:?}");
    assert!(report.logs_consistent);
    // Everything committed was the idle no-op, and the run went quiet long
    // before the horizon.
    for v in cluster.log(ProcessId(2)) {
        assert_eq!(v.as_u64(), Some(0));
    }
    assert!(report.final_time < SimTime(5_000_000), "{report:?}");
}

#[test]
fn rotation_commits_every_nodes_commands() {
    // Each node has ONE private command; rotation must commit all four
    // within the first four slots (no view changes needed).
    let cfg = Config::new(4, 1, 1).unwrap();
    let commands: Vec<Vec<Value>> = (0..4u64).map(|i| vec![Value::from_u64(100 + i)]).collect();
    let mut cluster = SmrSimCluster::new(
        cfg,
        4,
        CountingMachine::new(),
        commands,
        Value::from_u64(0),
        Network::synchronous(SimDuration::DELTA),
        |node| node,
    );
    let report = cluster.run_until_applied(4, SimTime(5_000_000));
    assert!(report.applied_everywhere >= 4);
    assert!(report.logs_consistent);
    let log = cluster.log(ProcessId(1));
    let committed: std::collections::BTreeSet<u64> = log
        .iter()
        .filter_map(|v| v.as_u64())
        .filter(|x| *x >= 100)
        .collect();
    assert_eq!(
        committed,
        [100u64, 101, 102, 103].into_iter().collect(),
        "all four nodes' commands committed within four slots: {log:?}"
    );
}

#[test]
fn slot_zero_leader_is_paper_leader() {
    // Slot 0 uses offset 0, so leader(1) = p2 exactly as in the paper; the
    // first decided slot therefore carries p2's command.
    let cfg = Config::new(4, 1, 1).unwrap();
    let commands: Vec<Vec<Value>> = (0..4u64).map(|i| vec![Value::from_u64(100 + i)]).collect();
    let mut cluster = SmrSimCluster::new(
        cfg,
        4,
        CountingMachine::new(),
        commands,
        Value::from_u64(0),
        Network::synchronous(SimDuration::DELTA),
        |node| node,
    );
    let report = cluster.run_until_applied(1, SimTime(1_000_000));
    assert!(report.applied_everywhere >= 1);
    assert_eq!(cluster.log(ProcessId(1))[0], Value::from_u64(101)); // p2's command
}

#[test]
fn kv_delete_of_missing_key_is_consistent() {
    let cfg = Config::new(4, 1, 1).unwrap();
    // Commands are identified by their bytes, so a byte-identical duplicate
    // submission (the second `Delete { a }`) is executed at most once; the
    // four *distinct* commands each commit exactly once.
    let queue = vec![
        KvCommand::Delete {
            key: "ghost".into(),
        }
        .to_value(),
        KvCommand::Put {
            key: "a".into(),
            value: "1".into(),
        }
        .to_value(),
        KvCommand::Delete { key: "a".into() }.to_value(),
        KvCommand::Delete { key: "a".into() }.to_value(),
        KvCommand::Delete {
            key: "ghost2".into(),
        }
        .to_value(),
    ];
    let mut cluster = SmrSimCluster::new(
        cfg,
        6,
        KvStore::new(),
        vec![queue.clone(); 4],
        KvCommand::Noop.to_value(),
        Network::synchronous(SimDuration::DELTA),
        |node| node,
    );
    let report = cluster.run_until_commands(4, SimTime(5_000_000));
    assert!(report.commands_everywhere >= 4, "{report:?}");
    assert!(report.logs_consistent);
    for p in cfg.processes() {
        assert!(cluster.machine(p).is_empty(), "store at {p} not empty");
        assert_eq!(
            cluster.machine(p).state_digest(),
            cluster.machine(ProcessId(1)).state_digest()
        );
        // At-most-once: no command (including the duplicated delete)
        // appears twice in any log.
        let log = cluster.log(p);
        for cmd in &queue {
            assert!(
                log.iter().filter(|v| *v == cmd).count() <= 1,
                "{p} applied {cmd:?} more than once"
            );
        }
    }
}

#[test]
fn slot_messages_roundtrip_on_the_wire() {
    // The slot tag + canonical inner encoding is what `fastbft-net` frames
    // carry for the runtime SMR cluster.
    fastbft_types::wire::roundtrip(&SlotMessage::Consensus {
        slot: 9,
        inner: Message::Wish(WishMsg { view: View::FIRST }),
    });
    fastbft_types::wire::roundtrip(&SlotMessage::Consensus {
        slot: u64::MAX,
        inner: Message::Ack(AckMsg {
            value: Value::from_u64(77),
            view: View::FIRST,
            share: None,
        }),
    });
    // The state-transfer control plane rides the same wire.
    let (pairs, _dir) = KeyDirectory::generate(4, 3);
    let digest = fastbft_crypto::digest(b"snapshot payload");
    let sig = fastbft_smr::checkpoint_signature(&pairs[0], 128, &digest);
    fastbft_types::wire::roundtrip(&SlotMessage::Checkpoint {
        upto: 128,
        digest,
        sig: sig.clone(),
    });
    fastbft_types::wire::roundtrip(&SlotMessage::SnapshotRequest { have: 7 });
    fastbft_types::wire::roundtrip(&SlotMessage::SnapshotResponse {
        upto: 128,
        payload: b"snapshot payload".to_vec(),
        sigs: vec![sig],
    });
    fastbft_types::wire::roundtrip(&SlotMessage::Backfill {
        slot: 130,
        value: Value::from_u64(9),
    });
}

/// A Byzantine peer spraying messages for arbitrarily distant slots must
/// not grow the stash without bound (pre-fix, every sprayed message was
/// buffered forever).
#[test]
fn stash_is_bounded_against_slot_spray() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 21);
    let mut node = SmrNode::new(
        cfg,
        pairs[0].clone(),
        dir,
        CountingMachine::new(),
        Vec::new(),
        Value::from_u64(0),
    );
    let mut fx = Effects::new(ProcessId(1), 4, SimTime::ZERO);
    node.on_start(&mut fx);
    let spray = |slot: u64| SlotMessage::Consensus {
        slot,
        inner: Message::Wish(WishMsg { view: View::FIRST }),
    };
    // Absurdly distant slots: dropped outright, no memory consumed.
    for i in 0..10_000u64 {
        node.on_message(ProcessId(2), spray(1_000_000 + i), &mut fx);
    }
    assert_eq!(node.stashed_messages(), 0, "hopeless slots must be dropped");
    // Just-beyond-window slots: buffered, but only up to the cap.
    for i in 0..50_000u64 {
        node.on_message(ProcessId(2), spray(100 + (i % 150)), &mut fx);
    }
    let cap = node.stashed_messages();
    assert!(cap <= 4096, "stash exceeded its bound: {cap}");
    // A full stash still admits *nearer* slots by evicting farther ones —
    // the nearest slots are what unblocks a lagging pipeline.
    node.on_message(ProcessId(2), spray(70), &mut fx);
    assert!(node.stashed_messages() <= 4096);
}

#[test]
fn batching_multiplies_throughput() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let queue: Vec<Value> = (0..64).map(Value::from_u64).collect();
    let run = |batch: usize| {
        // Pipeline depth pinned to 1: this test isolates the *batching*
        // gain, which deeper slot pipelining (the default) would mask.
        let mut cluster = SmrSimCluster::new(
            cfg,
            8,
            CountingMachine::new(),
            vec![queue.clone(); 4],
            Value::from_u64(u64::MAX),
            Network::synchronous(SimDuration::DELTA),
            |node| node.with_batch_size(batch).with_pipeline_depth(1),
        );
        let report = cluster.run_until_commands(64, SimTime(50_000_000));
        assert!(report.commands_everywhere >= 64, "{report:?}");
        assert!(report.logs_consistent);
        // Order and exactly-once still hold under batching.
        let committed: Vec<u64> = cluster
            .log(ProcessId(2))
            .iter()
            .filter_map(|v| v.as_u64())
            .filter(|x| *x < 64)
            .collect();
        assert_eq!(committed, (0..64).collect::<Vec<_>>());
        report.commands_per_delta
    };
    let unbatched = run(1);
    let batched = run(16);
    assert!(
        batched > 4.0 * unbatched,
        "batch=16 should be ≫ batch=1: {batched:.3} vs {unbatched:.3} commands/Δ"
    );
}

#[test]
fn long_pipeline_makes_steady_progress() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let queue: Vec<Value> = (0..100).map(Value::from_u64).collect();
    let mut cluster = SmrSimCluster::new(
        cfg,
        2,
        CountingMachine::new(),
        vec![queue; 4],
        Value::from_u64(u64::MAX),
        Network::synchronous(SimDuration::DELTA),
        |node| node.with_batch_size(1),
    );
    let report = cluster.run_until_applied(100, SimTime(50_000_000));
    assert!(report.applied_everywhere >= 100, "{report:?}");
    assert!(report.logs_consistent);
    // Commands committed exactly once each, in order.
    let log = cluster.log(ProcessId(3));
    let committed: Vec<u64> = log
        .iter()
        .filter_map(|v| v.as_u64())
        .filter(|x| *x < 100)
        .collect();
    assert_eq!(committed, (0..100).collect::<Vec<_>>());
}
