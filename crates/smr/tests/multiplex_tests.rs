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
        |_, node| Box::new(node),
    );
    cluster.sim_mut().run_to_quiescence();
    let report = cluster.report();
    assert_eq!(report.applied_everywhere, 1, "{report:?}");
    assert_eq!(cluster.violations(), []);
    // Everything committed was the idle no-op, and the run went quiet long
    // before the horizon.
    for v in cluster.node(ProcessId(2)).log() {
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
        |_, node| Box::new(node),
    );
    cluster.run_until(SimTime(5_000_000), |c| c.report().applied_everywhere >= 4);
    let log = cluster.node(ProcessId(1)).log();
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
        |_, node| Box::new(node),
    );
    cluster.run_until(SimTime(1_000_000), |c| c.report().applied_everywhere >= 1);
    assert_eq!(cluster.node(ProcessId(1)).log()[0], Value::from_u64(101)); // p2's command
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
        vec![queue; 4],
        KvCommand::Noop.to_value(),
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node),
    );
    cluster.run_until(SimTime(5_000_000), |c| c.report().commands_everywhere >= 4);
    for p in cfg.processes() {
        assert!(
            cluster.node(p).machine().is_empty(),
            "store at {p} not empty"
        );
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

/// A fresh allocation per frame, as a TCP decode produces, every value
/// distinct.
fn sprayed_value(i: u64, len: usize) -> Value {
    let mut bytes = vec![i as u8; len];
    bytes[..8].copy_from_slice(&i.to_be_bytes());
    Value::new(bytes)
}

/// n = 4 honest nodes as shipped, with empty queues.
fn idle_cluster(seed: u64) -> SmrSimCluster<CountingMachine> {
    SmrSimCluster::new(
        Config::new(4, 1, 1).unwrap(),
        seed,
        CountingMachine::new(),
        vec![Vec::new(); 4],
        Value::from_u64(0),
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node),
    )
}

/// The same two buffers are bounded in *bytes*: the message cap alone let
/// one seat pin 4096 frames of any size, and the backfill votes — one value
/// per slot of the horizon per sender — had no cap at all. p4 sprays a live
/// cluster with distinct 256 KiB values as `Ack`s over every stashable slot
/// and 1 MiB `Backfill`s over every slot of the horizon. What a correct
/// seat holds plateaus at 32 MiB for each (`MAX_STASHED_BYTES`,
/// `MAX_BACKFILL_BYTES`), a nearer slot still evicts a farther one when
/// full, and the correct seats go on to commit their commands.
#[test]
fn buffered_bytes_plateau_at_their_caps_under_a_large_frame_spray() {
    use fastbft_sim::SimMessage;
    use fastbft_smr::{MAX_STASH_AHEAD, SLOT_WINDOW};

    const CAP: usize = 32 << 20;
    const BACKFILL: usize = 1 << 20;
    const DELTA: u64 = SimDuration::DELTA.0;

    let mut cluster = idle_cluster(33);
    let value = sprayed_value;
    let correct = [ProcessId(1), ProcessId(2), ProcessId(3)];
    let ack = |value: Value| {
        Message::Ack(AckMsg {
            value,
            view: View::FIRST,
            share: None,
        })
    };

    // The stash, while the cluster is busy with slot 0: an ack for every
    // slot from the window's edge to the horizon, nearest first — 48 MiB
    // to each correct seat. It is full when the next frame no longer fits,
    // and what arrives for farther slots after that is dropped.
    let big = ack(value(0, 256 << 10)).wire_size();
    let sim = cluster.sim_mut();
    for slot in SLOT_WINDOW..MAX_STASH_AHEAD {
        let inner = ack(value(slot, 256 << 10));
        for p in correct {
            let frame = SlotMessage::Consensus {
                slot,
                inner: inner.clone(),
            };
            sim.inject_message(ProcessId(4), p, frame, SimTime::ZERO);
        }
    }
    // p2 alone then gets one more, a little larger, for a near slot: it is
    // admitted, and the frame of the farthest slot held makes room for it.
    let larger = ack(value(1, 300 << 10));
    let near = SlotMessage::Consensus {
        slot: SLOT_WINDOW + 5,
        inner: larger.clone(),
    };
    sim.inject_message(ProcessId(4), ProcessId(2), near, SimTime::ZERO);
    sim.run_until(SimTime(DELTA));
    let (stashed, _) = cluster.node(ProcessId(1)).buffered_bytes();
    assert!(stashed <= CAP && stashed + big > CAP, "stash: {stashed}");
    assert_eq!(cluster.node(ProcessId(1)).stashed_messages(), stashed / big);
    assert_eq!(cluster.node(ProcessId(2)).stashed_messages(), stashed / big);
    assert_eq!(
        cluster.node(ProcessId(2)).buffered_bytes().0,
        stashed - big + larger.wire_size()
    );

    // The votes, 32 MiB a wave (one Δ apart, to keep the test's own memory
    // small), farthest slot first so every wave evicts the one before.
    let mut peak = 0;
    for wave in (0..MAX_STASH_AHEAD).rev().collect::<Vec<_>>().chunks(32) {
        let sim = cluster.sim_mut();
        let now = sim.now();
        for &slot in wave {
            let value = value(slot, BACKFILL);
            for p in correct {
                let value = value.clone();
                let frame = SlotMessage::Backfill { slot, value };
                sim.inject_message(ProcessId(4), p, frame, now);
            }
        }
        sim.run_until(SimTime(now.0 + DELTA));
        for p in correct {
            let (stashed, votes) = cluster.node(p).buffered_bytes();
            assert!(stashed <= CAP && votes <= CAP, "{p}: {stashed}, {votes}");
            peak = peak.max(votes);
        }
    }
    assert_eq!(peak, CAP, "32 one-MiB votes fit exactly");

    // Full buffers cost nothing: six commands at each correct seat commit,
    // once each, on every seat.
    let sim = cluster.sim_mut();
    let now = sim.now();
    for i in 0..18u64 {
        let to = correct[i as usize % 3];
        sim.submit_client(to, Value::from_u64(100 + i), now);
    }
    sim.run_until(SimTime(now.0 + 200 * DELTA));
    assert_eq!(cluster.violations(), []);
    for p in ProcessId::all(4) {
        assert_eq!(cluster.node(p).commands_applied(), 18, "{p}");
        let (stashed, votes) = cluster.node(p).buffered_bytes();
        assert!(stashed <= CAP && votes <= CAP, "{p}: {stashed}, {votes}");
    }
}

/// The same sprayer against what `core` holds for the slots that *are*
/// open (the bounds table's last row): p4 sends every correct seat a
/// distinct 256 KiB ack for each of views 1 … 10 of eight slots inside the
/// window, twice over. Every instance keeps one value per view from p4
/// while p4's `1/n` share of the instance's byte budget lasts — 1 MiB a
/// slot, four of the `1 + n` views within one leader rotation — and the
/// second round adds nothing; when the slots have settled the bytes are
/// gone with their instances, and honest traffic commits.
#[test]
fn held_bytes_plateau_under_an_ack_spray_at_every_open_slot() {
    use fastbft_sim::Simulation;

    const DELTA: u64 = SimDuration::DELTA.0;
    const SLOTS: u64 = 8;
    const VIEWS: u64 = 10;
    const LEN: usize = 256 << 10;

    let n = 4;
    let mut cluster = idle_cluster(35);
    let correct = [ProcessId(1), ProcessId(2), ProcessId(3)];
    let mut sprayed = 0u64;
    let mut spray = |sim: &mut Simulation<SlotMessage>| {
        let now = sim.now();
        for slot in 0..SLOTS {
            for view in 1..=VIEWS {
                sprayed += 1;
                let inner = Message::Ack(AckMsg {
                    value: sprayed_value(sprayed, LEN),
                    view: View(view),
                    share: None,
                });
                for p in correct {
                    let inner = inner.clone();
                    let frame = SlotMessage::Consensus { slot, inner };
                    sim.inject_message(ProcessId(4), p, frame, now);
                }
            }
        }
    };

    // The first round opens the eight slots at every correct seat and
    // fills p4's place in the first views of each, as many as its share
    // pays for; the rest is refused.
    spray(cluster.sim_mut());
    cluster.sim_mut().run_until(SimTime(DELTA));
    let per_slot = fastbft_core::replica::HELD_BYTES_BUDGET / n / LEN * LEN;
    assert!((LEN..=(1 + n) * LEN).contains(&per_slot));
    let plateau = SLOTS as usize * per_slot;
    for p in correct {
        assert_eq!(cluster.node(p).open_slots() as u64, SLOTS, "{p}");
        assert_eq!(cluster.node(p).held_bytes(), plateau, "{p}");
    }
    // The second round finds p4's places taken and its share spent.
    spray(cluster.sim_mut());
    cluster.sim_mut().run_until(SimTime(2 * DELTA));
    for p in correct {
        let held = cluster.node(p).held_bytes();
        assert!(held <= plateau, "{p}: {held}");
        assert!(held >= plateau - per_slot, "{p}: only slot 0 settled");
    }

    // The slots settle on the filler, and what was held goes with them.
    cluster.sim_mut().run_until(SimTime(100 * DELTA));
    for p in ProcessId::all(4) {
        assert_eq!(cluster.node(p).applied(), SLOTS, "{p}");
        assert_eq!(cluster.node(p).held_bytes(), 0, "{p}");
    }

    // It cost nothing: six commands at each correct seat commit, once
    // each, on every seat.
    let sim = cluster.sim_mut();
    let now = sim.now();
    for i in 0..18u64 {
        let to = correct[i as usize % 3];
        sim.submit_client(to, Value::from_u64(100 + i), now);
    }
    sim.run_until(SimTime(now.0 + 200 * DELTA));
    assert_eq!(cluster.violations(), []);
    for p in ProcessId::all(4) {
        assert_eq!(cluster.node(p).commands_applied(), 18, "{p}");
        assert_eq!(cluster.node(p).held_bytes(), 0, "{p}");
    }
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
            |_, node| Box::new(node.with_batch_size(batch).with_pipeline_depth(1)),
        );
        let report = cluster.run_until(SimTime(50_000_000), |c| {
            c.report().commands_everywhere >= 64
        });
        // Order and exactly-once still hold under batching.
        let committed: Vec<u64> = cluster
            .node(ProcessId(2))
            .log()
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
        |_, node| Box::new(node.with_batch_size(1)),
    );
    cluster.run_until(SimTime(50_000_000), |c| {
        c.report().applied_everywhere >= 100
    });
    // Commands committed exactly once each, in order.
    let log = cluster.node(ProcessId(3)).log();
    let committed: Vec<u64> = log
        .iter()
        .filter_map(|v| v.as_u64())
        .filter(|x| *x < 100)
        .collect();
    assert_eq!(committed, (0..100).collect::<Vec<_>>());
}
