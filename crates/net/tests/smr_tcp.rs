//! The replicated state machine over real loopback TCP: identical KV state
//! on all correct replicas, live client submission, silent-leader
//! recovery mid-log, deadlock-free shutdown with slots in flight, and a
//! metrics scrape that is well formed and reflects the run.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_net::{tcp_reseat, tcp_seats_metered, TcpTransport};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::NodeSeat;
use fastbft_sim::{Actor, ScriptedActor};
use fastbft_smr::{
    as_smr_node, tag_command, AdaptiveBatch, Batching, KvCommand, KvStore, SlotMessage,
    SmrClusterHandle, SmrNode,
};
use fastbft_types::{Config, ProcessId, Value};

fn put(i: usize) -> Value {
    KvCommand::Put {
        key: format!("k{i}"),
        value: format!("v{i}"),
    }
    .to_value()
}

/// `put(i)` as client 0's command `i + 1`: at most once over any horizon,
/// where an untagged command is deduplicated over two snapshot intervals.
fn tagged_put(i: usize) -> Value {
    tag_command(0, i as u64 + 1, put(i).as_bytes())
}

/// The batcher capped at one command per slot.
fn one_per_slot() -> Batching {
    Batching::Adaptive(AdaptiveBatch {
        max_batch_cmds: 1,
        ..AdaptiveBatch::default()
    })
}

/// Spawns an SMR-over-TCP cluster, one command per slot; seat `i` is
/// replaced by a silent actor for every process id in `silent`.
fn spawn_kv_tcp(cfg: Config, seed: u64, silent: &[u32]) -> SmrClusterHandle {
    SmrClusterHandle::spawn(
        cfg,
        seed,
        KvStore::new(),
        vec![Vec::new(); cfg.n()],
        on_tcp,
        |p, node| {
            if silent.contains(&p.0) {
                Box::new(ScriptedActor::silent())
            } else {
                Box::new(node.with_batching(one_per_slot()))
            }
        },
    )
}

/// Puts the actors on metered loopback-TCP seats.
fn on_tcp(
    actors: Vec<Box<dyn Actor<SlotMessage> + Send>>,
    pairs: Vec<KeyPair>,
    dir: KeyDirectory,
    registry: &MetricsRegistry,
) -> Vec<NodeSeat<SlotMessage, TcpTransport<SlotMessage>>> {
    let (seats, _addrs) =
        tcp_seats_metered(actors, pairs, dir, Default::default(), registry).expect("loopback bind");
    seats
}

/// All-correct run: commands submitted to the *running* cluster commit on
/// every replica, each exactly once, leaving identical KV state — at the
/// headline n = 4 and at the generalized n = 8 (f = 2, t = 1: 8 listeners,
/// 56 authenticated connections).
#[test]
fn kv_replicates_identically_over_tcp() {
    for cfg in [Config::new(4, 1, 1), Config::new(8, 2, 1)] {
        let cfg = cfg.unwrap();
        let mut cluster = spawn_kv_tcp(cfg, 31, &[]);
        let commands: Vec<Value> = (0..10).map(put).collect();
        for cmd in &commands {
            cluster.submit(cmd.clone());
        }
        assert!(
            cluster.await_commands(cfg.processes(), 10, Duration::from_secs(60)),
            "n = {}: cluster did not apply all 10 commands: logs {:?}",
            cfg.n(),
            cluster.logs()
        );
        assert_eq!(cluster.violations(), []);
        for log in cluster.logs() {
            for cmd in &commands {
                assert!(log.values().any(|v| v == cmd), "command never applied");
            }
        }

        // Final state straight from the actors: identical stores everywhere.
        let actors = cluster.shutdown();
        let digests: Vec<_> = actors
            .iter()
            .map(|a| {
                let node = as_smr_node::<KvStore>(a.as_ref()).expect("SMR seat");
                assert_eq!(node.machine().get("k3"), Some(&"v3".to_string()));
                node.machine().state_digest()
            })
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "n = {}: replica state diverged",
            cfg.n()
        );
    }
}

/// The observability plane end to end, on the cluster whose scrape
/// `examples/tcp_kv.rs` prints (n = 4, adaptive batching, metered
/// seats): every line of the Prometheus text is a comment, blank or a
/// `fastbft_`-prefixed sample with a numeric value; fast-path commits, TCP
/// frames and batch flushes were counted; both ingress-shed counters are
/// exposed and a healthy run under the default budget left them at 0.
#[test]
fn metrics_scrape_over_tcp_is_well_formed_and_reflects_the_run() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let mut cluster = SmrClusterHandle::spawn(
        cfg,
        37,
        KvStore::new(),
        vec![Vec::new(); cfg.n()],
        on_tcp,
        |_, node| Box::new(node),
    );
    for i in 0..18 {
        cluster.submit(put(i));
    }
    assert!(cluster.await_commands(cfg.processes(), 18, Duration::from_secs(60)));
    let scrape = cluster.registry().render_text();
    cluster.shutdown();

    let mut samples: Vec<(&str, f64)> = Vec::new();
    for line in scrape.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(line.starts_with("fastbft_"), "malformed line: {line:?}");
        let (series, value) = line.rsplit_once(' ').expect("series, space, value");
        let value = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value: {line:?}"));
        samples.push((series, value));
    }
    let total = |family: &str| -> f64 {
        let series: Vec<f64> = samples
            .iter()
            .filter(|(s, _)| s.split('{').next() == Some(family))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(series.len(), cfg.n(), "{family}: one series per replica");
        series.iter().sum()
    };
    assert!(total("fastbft_commit_fast_total") > 0.0);
    assert!(total("fastbft_frames_out_total") > 0.0);
    assert!(total("fastbft_batch_flush_size_total") > 0.0);
    assert_eq!(total("fastbft_ingress_shed_total"), 0.0);
    assert_eq!(total("fastbft_ingress_shed_bytes_total"), 0.0);
}

/// A silent leader (p2 leads slot 0 — and every fourth slot — under
/// rotation) must not stall the log: the correct replicas view-change past
/// it mid-log and still commit every command consistently.
#[test]
fn silent_leader_recovers_mid_log_over_tcp() {
    let mut cluster = spawn_kv_tcp(Config::new(4, 1, 1).unwrap(), 32, &[2]);
    let correct = [ProcessId(1), ProcessId(3), ProcessId(4)];
    let commands: Vec<Value> = (0..5).map(put).collect();
    for cmd in &commands {
        cluster.submit(cmd.clone());
    }
    // Five commands span slots led by every process, including two led by
    // the silent p2 — each recovered by a real-time view change over TCP.
    assert!(
        cluster.await_commands(correct, 5, Duration::from_secs(120)),
        "correct replicas did not recover past the silent leader: logs {:?}",
        cluster.logs()
    );
    assert_eq!(cluster.violations(), []);

    let actors = cluster.shutdown();
    let digests: Vec<_> = correct
        .iter()
        .map(|p| {
            let node = as_smr_node::<KvStore>(actors[p.index()].as_ref()).expect("SMR seat");
            assert_eq!(node.machine().len(), 5, "missing keys at {p}");
            node.machine().state_digest()
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "correct replica state diverged"
    );
}

/// The kill-and-rejoin chaos path over real TCP, at one command per slot and
/// under the shipped batcher bounds: a replica is stopped mid-log (thread
/// joined, transport dropped), the survivors keep committing past it with
/// a short snapshot cadence, and a *fresh* node — empty log, empty store,
/// fresh transport state on the kept port — rejoins by installing an
/// attested snapshot plus the committed suffix, ending with byte-identical
/// state on all four replicas.
#[test]
fn killed_replica_rejoins_via_snapshot_over_tcp() {
    kill_and_rejoin(34, one_per_slot());
    kill_and_rejoin(35, Batching::default());
}

fn kill_and_rejoin(seed: u64, batching: Batching) {
    const INTERVAL: u64 = 8;
    let cfg = Config::new(4, 1, 1).unwrap();
    // Bound here, and every seat built on a clone: the kept listeners hold
    // the ports while a seat is dead.
    let listeners: Vec<TcpListener> = (0..cfg.n())
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("loopback bind"))
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let mut cluster = SmrClusterHandle::spawn(
        cfg,
        seed,
        KvStore::new(),
        vec![Vec::new(); cfg.n()],
        |actors, pairs, dir, _| {
            let seats = actors.into_iter().zip(pairs).zip(&listeners);
            seats
                .map(|((actor, pair), listener)| {
                    let opts = Default::default();
                    tcp_reseat(actor, pair, dir.clone(), listener, addrs.clone(), opts)
                        .expect("seat on a bound listener")
                })
                .collect()
        },
        |_, node| {
            Box::new(
                node.with_batching(batching.clone())
                    .with_snapshot_interval(INTERVAL),
            )
        },
    );
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);

    // Phase 1: a common prefix on all four replicas.
    for i in 0..10 {
        cluster.submit(tagged_put(i));
    }
    assert!(
        cluster.await_commands(cfg.processes(), 10, Duration::from_secs(60)),
        "initial prefix did not commit: logs {:?}",
        cluster.logs()
    );

    // Kill p2 mid-log: event loop joined, sockets torn down. The kept
    // listener keeps its port bound while the seat is dead.
    drop(cluster.inner_mut().stop_node(1));

    // Phase 2: the survivors commit well past p2's death, taking (and
    // mutually attesting) several snapshots along the way.
    let survivors = [ProcessId(1), ProcessId(3), ProcessId(4)];
    for i in 10..40 {
        cluster.submit(tagged_put(i));
    }
    assert!(
        cluster.await_commands(survivors, 40, Duration::from_secs(120)),
        "survivors stalled without p2: logs {:?}",
        cluster.logs()
    );

    // Phase 3: revive seat 1 with a fresh node and fresh transport state
    // on the same port. It knows nothing — catch-up is entirely snapshot
    // recovery's job.
    let node = SmrNode::new(
        cfg,
        pairs[1].clone(),
        dir.clone(),
        KvStore::new(),
        Vec::new(),
        Value::default(),
    )
    .with_batching(batching)
    .with_snapshot_interval(INTERVAL);
    let seat = tcp_reseat(
        Box::new(node),
        pairs[1].clone(),
        dir,
        &listeners[1],
        addrs,
        Default::default(),
    )
    .expect("reseat on the kept port");
    cluster.inner_mut().restart_node(1, seat);

    // Catch-up: keep client traffic flowing until p2 applies a command
    // submitted in the *previous* round. Two things force this shape:
    // peer tips only outrun the recovery gap (which triggers state
    // transfer) while new slots keep opening — and an adaptive batcher
    // packs a burst into few slots — and commands that commit below p2's
    // installed snapshot boundary never surface in its event log: only a
    // freshly submitted command proves it reached the tip. (Peers ignore
    // consensus for slots below their applied index, so a fresh node
    // cannot commit anything *without* recovering.)
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut next = 40;
    let mut last_round: Vec<Value> = Vec::new();
    while !last_round
        .iter()
        .any(|m| cluster.logs()[1].values().any(|v| v == m))
    {
        assert!(
            Instant::now() < deadline,
            "revived replica never reached the tip: log {:?}",
            cluster.logs()[1]
        );
        last_round = (next..next + 4).map(tagged_put).collect();
        next += 4;
        for cmd in &last_round {
            cluster.submit(cmd.clone());
        }
        cluster.await_commands([ProcessId(2)], u64::MAX, Duration::from_millis(200));
    }
    assert!(
        cluster.await_commands(survivors, next as u64, Duration::from_secs(120)),
        "cluster stalled after the restart: logs {:?}",
        cluster.logs()
    );

    // A marker wave submitted once nothing else is outstanding: the
    // survivors apply it.
    let markers: Vec<Value> = (next..next + 10).map(tagged_put).collect();
    next += 10;
    for cmd in &markers {
        cluster.submit(cmd.clone());
    }
    assert!(
        cluster.await_commands(survivors, next as u64, Duration::from_secs(120)),
        "survivors never applied the marker wave: logs {:?}",
        cluster.logs()
    );
    // p2 must reach the tip, but need not log a marker itself: a slot it
    // missed may be answered with a snapshot that carries the whole wave,
    // and an install leaves its log sparse. So one command every 200 ms
    // until p2 logs the one just submitted: what p2 applied itself after
    // the wave proves it is level, and the checker's agreement row covers
    // everything below it.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last: Option<Value> = None;
    while !last
        .as_ref()
        .is_some_and(|cmd| cluster.logs()[1].values().any(|v| v == cmd))
    {
        assert!(
            Instant::now() < deadline,
            "revived replica never reached the tip: log {:?}",
            cluster.logs()[1]
        );
        let cmd = tagged_put(next);
        next += 1;
        cluster.submit(cmd.clone());
        last = Some(cmd);
        cluster.await_commands([ProcessId(2)], u64::MAX, Duration::from_millis(200));
    }
    assert!(
        cluster.await_commands(survivors, next as u64, Duration::from_secs(120)),
        "survivors never applied the last command: logs {:?}",
        cluster.logs()
    );
    assert_eq!(cluster.violations(), []);

    // Byte-identical stores on all four — including the seat that died.
    let actors = cluster.shutdown();
    let revived = as_smr_node::<KvStore>(actors[1].as_ref()).expect("SMR seat");
    assert_eq!(
        revived.machine().len(),
        next,
        "revived replica missing keys"
    );
    assert!(
        revived.snapshot_upto().is_some(),
        "revived replica rejoined without installing a snapshot"
    );
    let digests: Vec<_> = actors
        .iter()
        .map(|a| {
            as_smr_node::<KvStore>(a.as_ref())
                .expect("SMR seat")
                .machine()
                .state_digest()
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "replica state diverged after kill/restart"
    );
}

/// Shutdown must join every thread even while slots are mid-consensus and
/// sockets carry traffic (mirrors `shutdown_semantics.rs` for SMR + TCP).
#[test]
fn shutdown_with_inflight_slots_joins() {
    let cluster = spawn_kv_tcp(Config::new(4, 1, 1).unwrap(), 33, &[]);
    for i in 0..50 {
        cluster.submit(put(i));
    }
    // Tear down mid-pipeline.
    std::thread::sleep(Duration::from_millis(30));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("SMR-over-TCP shutdown deadlocked");
}
