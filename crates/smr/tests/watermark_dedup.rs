//! The bounded at-most-once dedup state: client-id + sequence watermarks.
//!
//! Before watermarking, `SmrNode` kept one 32-byte digest per applied
//! client command **forever** — a 10k-command run left 10k entries on every
//! replica. Tagged commands ([`tag_command`]) are deduplicated by
//! `(client, seq)` against a per-client watermark instead, and entries are
//! pruned as the watermark advances, so the state is bounded by each
//! client's out-of-order window — these tests pin both the boundedness and
//! the unchanged at-most-once semantics.

use fastbft_sim::{Network, SimDuration, SimTime};
use fastbft_smr::{
    parse_client_tag, tag_command, CountingMachine, KvCommand, KvStore, SmrSimCluster,
};
use fastbft_types::{Config, ProcessId, Value};

#[test]
fn tag_roundtrip_and_untagged_rejection() {
    let cmd = tag_command(7, 42, b"payload");
    assert_eq!(parse_client_tag(&cmd), Some((7, 42)));
    // Untagged commands (arbitrary bytes, short bytes, u64 values) parse
    // as None and stay on the digest-dedup path.
    assert_eq!(parse_client_tag(&Value::from_u64(7)), None);
    assert_eq!(parse_client_tag(&Value::new(b"FBC".to_vec())), None);
    assert_eq!(parse_client_tag(&Value::new(b"FBC1short".to_vec())), None);
    // Distinct identities produce distinct command bytes.
    assert_ne!(tag_command(7, 42, b"x"), tag_command(7, 43, b"x"));
    assert_ne!(tag_command(7, 42, b"x"), tag_command(8, 42, b"x"));
}

/// The headline boundedness run: 10 000 tagged commands from two clients,
/// broadcast to every replica (so every node sees every command ~n times),
/// batch 64. Afterwards the dedup state on every node is **empty** — the
/// watermarks pruned everything — where digest dedup kept 10 000 entries.
#[test]
fn dedup_state_stays_bounded_over_a_10k_command_run() {
    const COMMANDS: u64 = 10_000;
    let cfg = Config::new(4, 1, 1).unwrap();
    let queue: Vec<Value> = (0..COMMANDS)
        .map(|i| {
            // Two clients, interleaved, sequence numbers in submission order.
            let client = i % 2;
            let seq = i / 2 + 1;
            tag_command(client, seq, &i.to_be_bytes())
        })
        .collect();
    let mut cluster = SmrSimCluster::new(
        cfg,
        11,
        CountingMachine::new(),
        vec![queue; 4],
        Value::from_u64(u64::MAX),
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node.with_batch_size(64)),
    );
    // Check boundedness *during* the run, not only at the end: at several
    // checkpoints the per-node dedup state must stay within the transient
    // out-of-order window, far below the commands already applied.
    for checkpoint in [2_000u64, 5_000, 8_000, COMMANDS] {
        cluster.run_until(SimTime(100_000_000), |c| {
            cfg.processes()
                .all(|p| c.node(p).commands_applied() >= checkpoint)
        });
        for p in cfg.processes() {
            let entries = cluster.node(p).dedup_entries();
            assert!(
                entries <= 256,
                "{p}: {entries} dedup entries at checkpoint {checkpoint} — unbounded growth"
            );
        }
    }
    // Fully applied and contiguous: the watermarks have pruned everything.
    for p in cfg.processes() {
        assert_eq!(
            cluster.node(p).dedup_entries(),
            0,
            "{p}: contiguous tagged workload must prune to empty"
        );
    }
}

/// At-most-once still holds for tagged commands: the same `(client, seq)`
/// command queued at every replica (the broadcast client model) and
/// *resubmitted* later executes exactly once.
#[test]
fn tagged_duplicates_execute_exactly_once() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let cmd = |seq: u64| tag_command(9, seq, &seq.to_be_bytes());
    // Every replica queues seqs 1..=20, then a stale resubmission of 1..=5.
    let mut queue: Vec<Value> = (1..=20).map(cmd).collect();
    queue.extend((1..=5).map(cmd));
    let mut cluster = SmrSimCluster::new(
        cfg,
        12,
        CountingMachine::new(),
        vec![queue; 4],
        Value::from_u64(u64::MAX),
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node.with_batch_size(4)),
    );
    cluster.run_until(SimTime(10_000_000), |c| {
        c.report().commands_everywhere >= 20
    });
    for (p, log) in cfg.processes().zip(cluster.logs()) {
        let tagged = log.values().filter_map(parse_client_tag).count();
        assert_eq!(tagged, 20, "{p}: every distinct command once");
    }
}

/// Out-of-order commit orders (different clients' seqs interleaving across
/// replicas' queues) still converge: the above-watermark set absorbs the
/// transient gaps and drains to empty.
#[test]
fn out_of_order_sequences_converge_and_prune() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let cmd = |seq: u64| tag_command(3, seq, &seq.to_be_bytes());
    // Replica 1 queues the odd seqs, replica 2 the even ones, replicas 3/4
    // nothing: commits interleave in slot-leader order, so the watermark
    // must advance through transient gaps.
    let queues = vec![
        (1..=40).step_by(2).map(cmd).collect::<Vec<_>>(),
        (2..=40).step_by(2).map(cmd).collect::<Vec<_>>(),
        Vec::new(),
        Vec::new(),
    ];
    let mut cluster = SmrSimCluster::new(
        cfg,
        13,
        CountingMachine::new(),
        queues,
        Value::from_u64(u64::MAX),
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node.with_batch_size(2)),
    );
    cluster.run_until(SimTime(10_000_000), |c| {
        c.report().commands_everywhere >= 40
    });
    for p in cfg.processes() {
        assert_eq!(cluster.node(p).dedup_entries(), 0, "{p}: gaps must drain");
    }
}

/// Untagged commands keep the pre-watermark digest semantics (and its
/// cost): entries accrue one per applied command.
#[test]
fn untagged_commands_still_dedup_by_digest() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let queue: Vec<Value> = (0..50).map(Value::from_u64).collect();
    let mut cluster = SmrSimCluster::new(
        cfg,
        14,
        CountingMachine::new(),
        vec![queue; 4],
        Value::from_u64(u64::MAX),
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node.with_batch_size(4)),
    );
    cluster.run_until(SimTime(10_000_000), |c| {
        c.report().commands_everywhere >= 50
    });
    for p in cfg.processes() {
        assert_eq!(
            cluster.node(p).dedup_entries(),
            50,
            "{p}: digest per command"
        );
        // Once each despite the 4× broadcast: `run_until` checked.
        let log: Vec<&Value> = cluster.logs()[p.index()].values().collect();
        assert!((0..50).all(|i| log.contains(&&Value::from_u64(i))), "{p}");
    }
}

/// Tagged commands reach the shipped state machine: a `tag_command`-framed
/// `Put` executes on the replicated `KvStore` — identically on every
/// replica, and identically to the same `Put` submitted untagged. (Before
/// the store stripped the tag it decoded the framed bytes as garbage: every
/// tagged command was a no-op and every digest the empty store's.)
#[test]
fn tagged_puts_change_the_replicated_store_on_every_replica() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let put = |k: u64| KvCommand::Put {
        key: format!("k{k}"),
        value: format!("v{k}"),
    };
    let run = |queue: Vec<Value>| {
        let mut cluster = SmrSimCluster::new(
            cfg,
            19,
            KvStore::new(),
            vec![queue; 4],
            KvCommand::Noop.to_value(),
            Network::synchronous(SimDuration::DELTA),
            |_, node| Box::new(node),
        );
        cluster.run_until(SimTime(1_000_000), |c| c.report().commands_everywhere >= 5);
        let store = cluster.node(ProcessId(3)).machine();
        assert_eq!(store.get("k4"), Some(&"v4".into()));
        store.state_digest()
    };
    let tagged = run((0..5)
        .map(|k| tag_command(9, k + 1, put(k).to_value().as_bytes()))
        .collect());
    let plain = run((0..5).map(|k| put(k).to_value()).collect());
    assert_eq!(tagged, plain);
    assert_ne!(tagged, KvStore::new().state_digest());
}
