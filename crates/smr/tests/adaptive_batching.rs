//! Adaptive proposal batching: flush-on-quiescence latency, backlog
//! amortization, and at-most-once/at-least-once safety with adaptive
//! batches in flight across view changes.

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_sim::{Actor, Effects, Network, ScriptedActor, SimDuration, SimTime};
use fastbft_smr::{AdaptiveBatch, CountingMachine, SlotMessage, SmrNode, SmrSimCluster};
use fastbft_types::{Config, ProcessId, Value};
use proptest::prelude::*;

type Cluster = SmrSimCluster<CountingMachine>;

fn adaptive_cluster(seed: u64, commands: Vec<Vec<Value>>, network: Network) -> Cluster {
    let cfg = Config::new(4, 1, 1).unwrap();
    SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        commands,
        Value::from_u64(0),
        network,
        |_, node| Box::new(node),
    )
}

const DELTA: u64 = SimDuration::DELTA.0;
const BURST: u64 = 200;

/// `n = 7` with seats 6–7 silent and a burst of [`BURST`] commands at Δ:
/// the first rotation teaches everyone the two dead seats while the
/// backlog grows the batch target.
fn under_a_burst(seed: u64) -> Cluster {
    bursting(Config::new(7, 2, 1).unwrap(), seed, 5)
}

/// Nodes as shipped on the first `live` seats of `cfg`, the others silent,
/// and the [`BURST`] submitted at Δ.
fn bursting(cfg: Config, seed: u64, live: usize) -> Cluster {
    let mut cluster = SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        vec![Vec::new(); cfg.n()],
        Value::from_u64(0),
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

/// Revoked slots do not make an idle node look busy. An idle degraded
/// cluster keeps some — decided no-ops — parked above the next free slot,
/// where only a new proposal can reach them. A lone command that arrives
/// then is flushed for quiescence, at once, and commits on the slow path's
/// 3Δ; counted as open instances they would hold it (and anything re-queued
/// at apply time) for a flush-age whenever the target is above 1.
#[test]
fn lone_command_does_not_wait_behind_parked_revoked_slots() {
    let mut cluster = under_a_burst(21);
    let live = ProcessId::all(5);
    let flushes = |c: &Cluster, p: ProcessId| {
        let m = c.registry().metrics(p.index());
        m.batch_flush_quiescence_total.get()
    };
    cluster.sim_mut().run_to_quiescence();
    let mut flushed_idle = Vec::new();
    for p in live.clone() {
        let node = cluster.node(p);
        assert_eq!(node.commands_applied(), BURST, "at {p}");
        assert_eq!(node.suspected_leaders().len(), 2, "at {p}");
        assert_eq!(node.running_slots(), 0, "at {p}");
        assert!(node.open_slots() > 0, "parked revoked slots, at {p}");
        flushed_idle.push(flushes(&cluster, p));
    }
    let at = SimTime(cluster.sim().now().0 + 50 * DELTA);
    submit(&mut cluster, Value::from_u64(77), at);
    cluster.run_until(SimTime(at.0 + 3 * DELTA), |c| {
        live.clone().all(|p| c.node(p).commands_applied() > BURST)
    });
    assert_eq!(cluster.sim().now(), SimTime(at.0 + 3 * DELTA));
    for (p, before) in live.zip(flushed_idle) {
        assert_eq!(flushes(&cluster, p), before + 1, "at {p}");
    }
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
    let filler = Value::from_u64(0);
    let mut node = SmrNode::new(
        cfg,
        pairs[0].clone(),
        dir,
        CountingMachine::new(),
        Vec::new(),
        filler.clone(),
    )
    .with_pipeline_depth(1);
    let batch = |cmd: &Value| Value::new(fastbft_types::wire::to_bytes(&vec![cmd.clone()]));
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
    settle(&mut node, 9, batch(&filler));
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
    settle(&mut node, 0, batch(&filler));
    settle(&mut node, 1, batch(&Value::from_u64(901)));
    settle(&mut node, 2, batch(&Value::from_u64(902)));
    assert_eq!(node.applied(), 3);
    assert_eq!(node.batch_target(), 4);
    assert_eq!((node.pending(), node.open_slots()), (3, 0), "held");

    let flush_age = AdaptiveBatch::default().flush_age;
    let armed = fx
        .timers_set()
        .iter()
        .find(|(delay, _)| *delay == flush_age);
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
/// The run also shows the congestion guard at work in virtual time. The
/// burst fills the 16-slot window; the four slots the silent seat leads
/// each wait out the view-1 timeout and commit together, 14Δ after they
/// opened against the fast path's 2Δ floor, and the smoothed latency ends
/// above 4× the floor. The drains that follow in the same callback grow the
/// target while they leave a backlog (which overrides the guard); the one
/// that empties the queue takes more than a quarter of the target — so it
/// is not "far under target" — and still halves it.
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
    let guard_halvings = history
        .windows(2)
        .flat_map(|w| w[0].iter().zip(&w[1]))
        .filter(
            |((target, drains, cmds), (after, drains_after, cmds_after))| {
                let take = (cmds_after - cmds) as usize;
                *drains_after == drains + 1 && after < target && take * 4 > *target
            },
        )
        .count();
    assert!(guard_halvings >= 1, "the congestion guard never acted");
}

/// Known gap: the target's only way back to 1 is the congestion guard
/// (ARCHITECTURE, "Propose pipeline & apply stage"). `n = 4`, pipeline depth
/// 2, one command per Δ handed to every seat: the target stays 1 for the
/// whole run, as it does at depths 1, 3 and 16, and every command ships
/// alone. One tick that delivers two commands leaves a backlog behind a
/// drain, which doubles the target to 2 on every seat; no later drain is
/// "far under" a target of 2 and commit latency never nears the guard, so
/// it stays 2 through the last of 300 commands. The 109 commands before the
/// burst took a slot each; the 192 from it on take 97, each but the last
/// held a Δ for the next. This asserts today's behaviour: a fix for the gap
/// flips it.
#[test]
fn known_gap_the_targets_only_way_back_to_1() {
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
            Value::from_u64(0),
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
    let stuck: Vec<_> = ProcessId::all(4).map(|p| (BURST_AT, p, 2)).collect();
    assert_eq!(moves, stuck);
    assert_eq!(drains, [109 + 97; 4]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// With adaptive batches in flight through a chaotic pre-GST window —
    /// delays past the base timeout, so early slots go through view
    /// changes and re-proposals — no client command is ever lost or
    /// applied twice once the network stabilizes.
    #[test]
    fn view_changes_never_lose_or_duplicate_batched_commands(
        seed in 0u64..1024,
        n in 1u64..=16,
    ) {
        let queue: Vec<Value> = (0..n).map(|i| Value::from_u64(5000 + i)).collect();
        // Pre-GST delays reach ~2× the base timeout (8Δ = 800): slots
        // opened in that window time out, rotate leaders, and re-propose
        // their batches; the run then stabilizes.
        let network = Network::partially_synchronous(
            SimDuration::DELTA,
            SimTime(4_000),
            SimDuration(1_600),
        );
        let mut cluster = adaptive_cluster(seed, vec![queue; 4], network);
        cluster.run_until(SimTime(2_000_000), |c| c.report().commands_everywhere >= n);
    }
}
