//! Adaptive proposal batching: flush-on-quiescence latency, backlog
//! amortization, and at-most-once/at-least-once safety with adaptive
//! batches in flight across view changes.

use std::time::Duration;

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft_sim::{check, Actor, Effects, Network, ScriptedActor, SimDuration, SimTime};
use fastbft_smr::{
    encode_batch, CountingMachine, SlotMessage, SmrNode, SmrSimCluster, SLOT_WINDOW,
};
use fastbft_types::{Config, ProcessId, Value};

type Cluster = SmrSimCluster<CountingMachine>;

fn adaptive_cluster(seed: u64, commands: Vec<Vec<Value>>, network: Network) -> Cluster {
    let cfg = Config::new(4, 1, 1).unwrap();
    SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        commands,
        network,
        |_, node| Box::new(node),
    )
}

const DELTA: u64 = SimDuration::DELTA.0;
const BURST: u64 = 200;

/// Nodes as shipped on the first `live` seats of `cfg`, the others silent,
/// and the [`BURST`] submitted at Δ.
fn bursting(cfg: Config, seed: u64, live: usize) -> Cluster {
    let mut cluster = SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        vec![Vec::new(); cfg.n()],
        Network::synchronous(SimDuration::DELTA),
        |p, node| {
            if p.index() < live {
                Box::new(node)
            } else {
                Box::new(ScriptedActor::silent())
            }
        },
    );
    for i in 0..BURST {
        submit(&mut cluster, Value::from_u64(1000 + i), SimTime(DELTA));
    }
    cluster
}

/// Hands `cmd` to every seat's client path at `at` (a silent seat ignores
/// it).
fn submit(cluster: &mut Cluster, cmd: Value, at: SimTime) {
    let sim = cluster.sim_mut();
    for p in ProcessId::all(sim.n()) {
        sim.submit_client(p, cmd.clone(), at);
    }
}

/// Regression for the flush-on-quiescence rule: a lone command on an idle
/// cluster must ship immediately (the quiescence check sees no open slots,
/// nothing decided, nothing in flight) rather than waiting out the
/// flush-age backstop or — worse — a view-change timeout.
#[test]
fn lone_command_commits_without_waiting() {
    let mut cluster = adaptive_cluster(
        11,
        vec![vec![Value::from_u64(77)]; 4],
        Network::synchronous(SimDuration::DELTA),
    );
    let report = cluster.run_until(SimTime(5_000_000), |c| c.report().commands_everywhere >= 1);
    // Committed well inside one base timeout (8Δ by default): the fast
    // path needs 2Δ, so anything close to the timeout means the command
    // sat in the batcher.
    let base_timeout = ReplicaOptions::default().base_timeout;
    assert!(
        report.final_time <= SimTime(base_timeout.0),
        "lone command waited in the batcher: {report:?}"
    );
}

/// Commands that come back to the queue at apply time — their slot decided
/// another proposal — arrive through no client call, so nothing used to arm
/// the flush-age backstop for them: held below the target behind an
/// instance that stays parked above a hole, they sat until the next
/// submission. Every hold now has its timer. One node, driven by hand;
/// slots are settled by `f + 1` matching backfill frames.
#[test]
fn requeued_commands_the_batcher_holds_get_the_backstop_armed() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 31);
    let mut node = SmrNode::new(
        cfg,
        pairs[0].clone(),
        dir,
        CountingMachine::new(),
        Vec::new(),
        Value::default(),
    )
    .with_pipeline_depth(1);
    let batch = |cmds: &[Value]| encode_batch(ProcessId(2), cmds.to_vec());
    // One effect buffer for the whole drive: it collects every timer set.
    let mut fx = Effects::new(ProcessId(1), 4, SimTime::ZERO);
    let mut settle = |node: &mut SmrNode<CountingMachine>, slot: u64, value: Value| {
        for from in [2, 3] {
            let value = value.clone();
            node.on_message(
                ProcessId(from),
                SlotMessage::Backfill { slot, value },
                &mut fx,
            );
        }
    };

    // Slot 9 is settled far above: parked, it keeps the node from ever
    // looking quiescent. Slot 0 fills the depth-1 window, so three
    // submissions queue up behind it.
    node.on_start(&mut Effects::new(ProcessId(1), 4, SimTime::ZERO));
    settle(&mut node, 9, batch(&[]));
    for i in 1..=3 {
        let mut fx = Effects::new(ProcessId(1), 4, SimTime::ZERO);
        node.on_client(Value::from_u64(i), &mut fx);
        assert!(
            fx.timers_set().is_empty(),
            "queued behind the window, not held"
        );
    }
    // Slot 0 settles: slot 1 takes one command and leaves a backlog
    // (target 2). Slot 1 decides someone else's proposal: the command
    // comes back, slot 2 takes two and leaves one (target 4). Slot 2
    // goes the same way: three commands queued, under target, held.
    settle(&mut node, 0, batch(&[]));
    settle(&mut node, 1, batch(&[Value::from_u64(901)]));
    settle(&mut node, 2, batch(&[Value::from_u64(902)]));
    assert_eq!(node.applied(), 3);
    assert_eq!(node.decided_batch(0), Some(Vec::new()));
    assert_eq!(node.batch_target(), 4);
    assert_eq!((node.pending(), node.open_slots()), (3, 0), "held");

    // The flush-age backstop is Δ.
    let armed = fx
        .timers_set()
        .iter()
        .find(|(delay, _)| *delay == SimDuration::DELTA);
    let (_, backstop) = *armed.expect("a hold with no backstop armed");
    node.on_timer(backstop, &mut Effects::new(ProcessId(1), 4, SimTime::ZERO));
    assert_eq!((node.pending(), node.open_slots()), (3, 1), "shipped");
}

/// A deep backlog must be amortized: the adaptive target grows with the
/// queue, so the backlog commits in far fewer slots than commands (fixed
/// batch-1 would burn one slot per command).
#[test]
fn backlog_is_amortized_into_fewer_slots() {
    const N: u64 = 64;
    let queue: Vec<Value> = (0..N).map(|i| Value::from_u64(1000 + i)).collect();
    let mut cluster =
        adaptive_cluster(13, vec![queue; 4], Network::synchronous(SimDuration::DELTA));
    let report = cluster.run_until(SimTime(5_000_000), |c| c.report().commands_everywhere >= N);
    assert!(
        report.applied_everywhere <= N / 2,
        "batcher never grew past 1 command per slot: {report:?}"
    );
}

/// What a run does is a function of its seed and schedule, not of how fast
/// the host steps the simulator: the batcher reads the actor's clock. One
/// silent seat at `n = 4`, a backlog and then a trickle, run twice: the
/// same trace, the same batch in every proposal and the same batch target
/// after every event, on every seat.
///
/// The run also shows the halving at work in virtual time. The drains of
/// the burst double the target to 128 while they leave a backlog. The
/// trickle after it is held below that target and shipped by the backstop
/// a few commands at a time; every drain empties the queue, and one in
/// every smoothed commit latency halves the target, down to 2 by the last
/// command. The halving is the window's, not the drain's: drains that take
/// more than a quarter of the target halve it too.
#[test]
fn adaptive_run_is_reproducible() {
    const TRICKLE: u64 = 60;
    /// Per live seat: (batch target, proposals drained, commands drained).
    type Snapshot = Vec<(usize, u64, u64)>;
    let run = || {
        let mut cluster = bursting(Config::new(4, 1, 1).unwrap(), 41, 3);
        let live = ProcessId::all(3);
        // Three commands per Δ, once the backlog is through.
        for i in 0..TRICKLE {
            let at = SimTime(40 * DELTA + i * DELTA / 3);
            submit(&mut cluster, Value::from_u64(5000 + i), at);
        }
        let mut history: Vec<Snapshot> = Vec::new();
        while cluster.sim_mut().step() {
            let snapshot: Snapshot = live
                .clone()
                .map(|p| {
                    let drains = &cluster.registry().metrics(p.index()).batch_size;
                    (cluster.node(p).batch_target(), drains.count(), drains.sum())
                })
                .collect();
            if history.last() != Some(&snapshot) {
                history.push(snapshot);
            }
        }
        for p in live {
            assert_eq!(cluster.node(p).commands_applied(), BURST + TRICKLE);
            // The trickle was held below target and shipped by the backstop.
            let m = cluster.registry().metrics(p.index());
            assert!(m.batch_flush_timeout_total.get() > 0);
        }
        (cluster.sim().trace().records().to_vec(), history)
    };
    let (trace, history) = run();
    let (trace_again, history_again) = run();
    assert!(trace == trace_again, "the traces of two runs differ");
    assert_eq!(history, history_again);

    // One drain between two snapshots of a seat, so the commands it took
    // are the difference of the sums.
    let halvings = history
        .windows(2)
        .flat_map(|w| w[0].iter().zip(&w[1]))
        .filter(
            |((target, drains, cmds), (after, drains_after, cmds_after))| {
                let take = (cmds_after - cmds) as usize;
                *drains_after == drains + 1 && after < target && take * 4 > *target
            },
        )
        .count();
    assert!(
        halvings >= 1,
        "no drain over a quarter of the target halved it"
    );
}

/// A backlog raises the target for one smoothed commit latency, no longer
/// (ARCHITECTURE, "Propose pipeline & apply stage"). `n = 4`, pipeline
/// depth 2, one command per Δ handed to every seat: the target stays 1 for
/// the whole run, as it does at depths 1, 3 and 16, and every command
/// ships alone. One tick that delivers two commands (110Δ) leaves a
/// backlog behind a drain, which doubles the target to 2 on every seat.
/// The drain a Δ later ships two and empties the queue inside the 2Δ
/// window (the fast path's commit latency), so the target stays 2; the
/// next command is held a Δ for the one after, and that drain, 3Δ after
/// the backlog, ships two and halves the target back to 1. So 301
/// commands take 299 slots: two pairs, and every other command alone.
#[test]
fn one_backlog_in_a_trickle_raises_the_target_for_one_commit_latency() {
    const COMMANDS: u64 = 300;
    const BURST_AT: SimTime = SimTime(110 * DELTA);
    // Every seat's `(time, seat, target)` whenever its target moved, and
    // every seat's drains.
    let run = |depth: u64, burst: bool| {
        let mut cluster = SmrSimCluster::new(
            Config::new(4, 1, 1).unwrap(),
            7,
            CountingMachine::new(),
            vec![Vec::new(); 4],
            Network::synchronous(SimDuration::DELTA),
            |_, node| Box::new(node.with_pipeline_depth(depth)),
        );
        for i in 0..COMMANDS {
            let at = SimTime((i + 1) * DELTA);
            submit(&mut cluster, Value::from_u64(1000 + i), at);
        }
        if burst {
            submit(&mut cluster, Value::from_u64(999), BURST_AT);
        }
        let mut targets = [1; 4];
        let mut moves = Vec::new();
        while cluster.sim_mut().step() {
            for p in ProcessId::all(4) {
                let target = cluster.node(p).batch_target();
                if target != targets[p.index()] {
                    targets[p.index()] = target;
                    moves.push((cluster.sim().now(), p, target));
                }
            }
        }
        let drains: Vec<u64> = ProcessId::all(4)
            .map(|p| {
                assert_eq!(
                    cluster.node(p).commands_applied(),
                    COMMANDS + u64::from(burst)
                );
                cluster.registry().metrics(p.index()).batch_size.count()
            })
            .collect();
        (moves, drains)
    };
    for depth in [1, 2, 3, 16] {
        assert_eq!(run(depth, false).0, [], "depth {depth}");
    }
    assert_eq!(run(2, false).1, [COMMANDS; 4]);
    let (moves, drains) = run(2, true);
    let up = ProcessId::all(4).map(|p| (BURST_AT, p, 2));
    let down = ProcessId::all(4).map(|p| (SimTime(BURST_AT.0 + 3 * DELTA), p, 1));
    assert_eq!(moves, up.chain(down).collect::<Vec<_>>());
    assert_eq!(drains, [109 + 3 + 187; 4]);
}

/// With adaptive batches in flight through a chaotic window — delays
/// past the base timeout and lost frames, so early slots go through view
/// changes and re-proposals, and a seat can decide a slot on acks its
/// peers never see — no client command is ever lost or applied twice once
/// the links heal, and every slot decides one value everywhere. Clients
/// broadcast: each seat hears every command at its own jittered time, one
/// every Δ/2, so seats drain them into different slots and a command is
/// decided in several.
#[test]
fn view_changes_never_lose_or_duplicate_batched_commands() {
    check(
        "view_changes_never_lose_or_duplicate_batched_commands",
        16,
        |c| {
            let (seed, n) = (c.int(0..1024u64), c.int(1..=16u64));
            // Until 4 000 every link loses 30 % of its frames and delays the
            // rest by up to ~2× the base timeout (8Δ = 800; a tick is 50 µs):
            // slots opened then time out, rotate leaders, and re-propose
            // their batches; then the links heal.
            let plan = FaultPlan::new();
            let weather = LinkProfile::delayed(Duration::ZERO, Duration::from_millis(80));
            plan.set_rules(LinkRules {
                by_src: ProcessId::all(4)
                    .map(|p| (p, weather.with_loss(0.3)))
                    .collect(),
                ..LinkRules::default()
            });
            let network = plan.network(SimDuration::DELTA, seed);
            let mut cluster = adaptive_cluster(seed, vec![Vec::new(); 4], network);
            for i in 0..n {
                for p in ProcessId::all(4) {
                    let at = SimTime(i * DELTA / 2 + c.int(0..=DELTA));
                    cluster
                        .sim_mut()
                        .submit_client(p, Value::from_u64(5000 + i), at);
                }
            }
            cluster.sim_mut().run_until(SimTime(4_000));
            plan.heal();
            cluster.run_until(SimTime(2_000_000), |c| c.report().commands_everywhere >= n);
            // A slot that decided two values hides from the log when one
            // value's commands come back in a later slot, but not from the
            // slots' batches, nor from the schedule, which reads who
            // proposed each decided batch.
            cluster.sim_mut().run_to_quiescence();
            let seat = |p: u32| cluster.node(ProcessId(p));
            let slots = seat(1).applied();
            for p in 2..=4 {
                assert_eq!(seat(p).applied(), slots);
                let batches =
                    (0..slots).all(|s| seat(p).decided_batch(s) == seat(1).decided_batch(s));
                let leaders = (slots..slots + SLOT_WINDOW)
                    .all(|s| seat(p).first_leader(s) == seat(1).first_leader(s));
                assert!(batches && leaders, "p{p} decided another value");
            }
        },
    );
}
