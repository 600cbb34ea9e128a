//! What a run costs, and who gets a `Backfill`, in virtual time.
//!
//! `the_work_ledger` is one literal table: a row per (configuration, seats
//! silenced, load), a column per count, every cell read from the nodes,
//! the registry's `Metrics`, the trace or the applied events as the run
//! stepped. To add a row or a column, add it with zeros and paste what the
//! failing assertion prints.
//!
//! A node answers consensus traffic for a slot it has settled with the
//! committed value, so a replica that missed the slot can close the hole.
//! It answers only frames a *stuck* sender emits (`Wish`, `Vote`,
//! `Propose`, …), not the protocol's own stragglers: the last `Ack` and
//! every `Commit` of a slot the fast path decided one delay earlier. The
//! other two tests pin that trigger kind by kind, and that a replica cut
//! off for several slots still heals through its own `Wish`es.
//!
//! Everything runs on the deterministic simulator: one message delay is
//! exactly Δ, and the view-1 timeout is the default 8Δ.

use std::collections::BTreeMap;

use fastbft_core::message::{AckMsg, CommitMsg, Message, ProposeMsg, WishMsg};
use fastbft_core::{CommitCert, ProgressCert};
use fastbft_crypto::KeyDirectory;
use fastbft_obs::{Metrics, MetricsRegistry};
use fastbft_runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft_sim::{Network, ScriptedActor, SimDuration, SimTime, TraceEvent};
use fastbft_smr::{CountingMachine, SlotMessage, SmrNode, SmrSimCluster};
use fastbft_types::{Config, ProcessId, Value, View};

const DELTA: SimDuration = SimDuration::DELTA;
/// The default view-1 timeout (`ReplicaOptions::default().base_timeout`).
const BASE_TIMEOUT: u64 = 8 * DELTA.0;
/// Where a run that has not finished counts as stalled.
const HORIZON: SimTime = SimTime(2_000 * DELTA.0);

type Cluster = SmrSimCluster<CountingMachine>;

/// The `i`-th client command.
fn command(i: u64) -> Value {
    Value::from_u64(1000 + i)
}

/// The `i` of [`command`]`(i)`.
fn index(cmd: &Value) -> u64 {
    cmd.as_u64().expect("a command") - 1000
}

/// Honest nodes on every seat, each holding the same `queued` commands (the
/// broadcast client model); `depth` pins the pipeline depth.
fn cluster(cfg: Config, seed: u64, network: Network, queued: u64, depth: Option<u64>) -> Cluster {
    SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        vec![(0..queued).map(command).collect(); cfg.n()],
        network,
        |_, node| {
            let node = node.with_batch_size(1);
            Box::new(match depth {
                Some(depth) => node.with_pipeline_depth(depth),
                None => node,
            })
        },
    )
}

/// Every `Backfill` sent so far, as (from, to).
fn backfills(cluster: &Cluster) -> Vec<(ProcessId, ProcessId)> {
    cluster
        .sim()
        .trace()
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Send {
                from,
                to,
                kind: "backfill",
                ..
            } => Some((from, to)),
            _ => None,
        })
        .collect()
}

/// `slots` commands through a live cluster at depth 1, run until the wire
/// is quiet.
fn settled(cfg: Config, slots: u64) -> Cluster {
    let network = Network::synchronous(DELTA);
    let mut cluster = cluster(cfg, 5, network, slots, Some(1));
    cluster.sim_mut().run_until(SimTime(1_000 * DELTA.0));
    for p in cfg.processes() {
        assert_eq!(cluster.node(p).applied(), slots, "{p} applied every slot");
    }
    cluster
}

/// A late `Ack` and a late `Commit` for a settled slot elicit nothing. A
/// `Wish` for it — what a sender that is really stuck sends next — asks for
/// what the sender lacks from that slot on: the committed tail, slots 0–2,
/// once, to the sender. The `Propose` right after it asks again within the
/// wait and draws nothing new.
#[test]
fn only_a_stuck_senders_frames_are_answered() {
    let cfg = Config::new(7, 2, 1).unwrap();
    let mut cluster = settled(cfg, 3);
    let (pairs, _dir) = KeyDirectory::generate(cfg.n(), 5);
    let (p1, p2) = (ProcessId(1), ProcessId(2));
    let value = cluster.logs()[p1.index()][&0].clone();
    let stragglers = [
        Message::Ack(AckMsg {
            value: value.clone(),
            view: View::FIRST,
            share: None,
        }),
        Message::Commit(CommitMsg {
            cert: CommitCert {
                value: value.clone(),
                view: View::FIRST,
                sigs: Default::default(),
            },
        }),
    ];
    let stuck = [
        Message::Wish(WishMsg { view: View(2) }),
        Message::Propose(ProposeMsg {
            value,
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[1].sign(b"late"),
        }),
    ];
    let mut deliver = |inner: Message| {
        let sim = cluster.sim_mut();
        let at = sim.now();
        sim.inject_message(p2, p1, SlotMessage::Consensus { slot: 0, inner }, at);
        sim.run_until(at + DELTA + DELTA);
        backfills(&cluster)
    };
    for inner in stragglers {
        assert_eq!(deliver(inner), vec![], "a straggler is not answered");
    }
    for inner in stuck {
        assert_eq!(deliver(inner), vec![(p1, p2); 3]);
    }
}

/// A seat cut off for several slots of a loaded cluster and then healed
/// closes every hole through its own `Wish`es: each open slot's view timer
/// fires within one timeout of the heal, the `Wish` takes Δ to reach the
/// peers and their `Backfill`s Δ to come back.
#[test]
fn a_seat_cut_off_for_several_slots_heals_through_its_own_wishes() {
    const COMMANDS: u64 = 60;
    let cfg = Config::new(7, 2, 1).unwrap();
    let victim = ProcessId(7);
    let peers: Vec<ProcessId> = cfg.processes().filter(|p| *p != victim).collect();

    let plan = FaultPlan::new();
    let cut = LinkProfile::cut();
    let cut_off = LinkRules {
        pairs: [((victim, victim), cut)].into(),
        by_src: [(victim, cut)].into(),
        by_dst: [(victim, cut)].into(),
    };
    // The default pipeline depth, one command per Δ to every seat.
    let mut cluster = cluster(cfg, 9, plan.network(DELTA, 9), 0, None);
    for i in 0..COMMANDS {
        for p in cfg.processes() {
            let at = SimTime(i * DELTA.0);
            cluster.sim_mut().submit_client(p, command(i), at);
        }
    }
    let applied =
        |c: &Cluster, who: &[ProcessId]| who.iter().map(|p| c.node(*p).applied()).min().unwrap();

    // The victim leads slots 5, 12, 19, …: cut it off once slot 12 is
    // settled and heal once the peers are through slot 18, so the cut
    // costs them no view change.
    cluster.run_until(HORIZON, |c| applied(c, &peers) >= 13);
    plan.set_rules(cut_off);
    cluster.run_until(HORIZON, |c| applied(c, &peers) >= 19);
    plan.heal();
    let healed_at = cluster.sim().now();
    let tip = applied(&cluster, &peers);
    let holes = tip - cluster.node(victim).applied();
    assert!(holes >= 4, "the victim missed several slots: {holes}");
    assert_eq!(
        backfills(&cluster),
        vec![],
        "nobody was answered before the heal"
    );

    let closed_at = cluster
        .run_until(HORIZON, |c| c.node(victim).applied() >= tip)
        .final_time;
    assert!(
        closed_at.since(healed_at).0 <= BASE_TIMEOUT + 2 * DELTA.0,
        "holes closed {:?} after the heal",
        closed_at.since(healed_at)
    );
    let sent = backfills(&cluster);
    assert!(sent.len() as u64 > holes * cfg.f() as u64, "{sent:?}");
    assert!(sent.iter().all(|(_, to)| *to == victim), "{sent:?}");

    // Everyone, the victim included, ends with the whole load and one log.
    cluster.run_until(HORIZON, |c| c.report().commands_everywhere >= COMMANDS);
}

/// splitmix64: the open-loop rows need a repeatable stream, not a good one.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// One open-loop cluster, loaded and not yet run: nodes as shipped but for
/// the `silent` seats, every seat hearing of each of `commands` commands,
/// one every Δ/5, at its own time — jittered in [0, Δ] per seat — as
/// clients that broadcast to every replica are heard.
fn open_loop(cfg: Config, silent: &[ProcessId], commands: u64) -> Cluster {
    let mut cluster = SmrSimCluster::new(
        cfg,
        7,
        CountingMachine::new(),
        vec![Vec::new(); cfg.n()],
        Network::synchronous(DELTA),
        |p, node| match silent.contains(&p) {
            true => Box::new(ScriptedActor::silent()),
            false => Box::new(node),
        },
    );
    let mut jitter = Rng(7);
    for i in 0..commands {
        for p in cfg.processes() {
            let at = SimTime(i * DELTA.0 / 5 + jitter.below(DELTA.0 + 1));
            cluster.sim_mut().submit_client(p, command(i), at);
        }
    }
    cluster
}

/// Steps `cluster` to the end of its events and returns, sorted, every
/// command's delay in ticks: from the time `due` gives for its index to
/// its `(f + 1)`-th apply, when a client that waits for `f + 1` matching
/// replies has its answer.
fn delays(cluster: &mut Cluster, f: usize, due: impl Fn(u64) -> SimTime) -> Vec<u64> {
    let mut next = vec![0u64; cluster.sim().n()];
    let mut applies: BTreeMap<u64, usize> = BTreeMap::new();
    let mut delays = Vec::new();
    while cluster.sim_mut().step() {
        let now = cluster.sim().now();
        for (log, next) in cluster.logs().iter().zip(&mut next) {
            for (log_index, cmd) in log.range(*next..) {
                *next = log_index + 1;
                let i = index(cmd);
                let seats = applies.entry(i).or_default();
                *seats += 1;
                if *seats == f + 1 {
                    delays.push(now.since(due(i)).0);
                }
            }
        }
    }
    delays.sort_unstable();
    delays
}

/// What a ledger row loads the cluster with.
#[derive(Clone, Copy, Debug)]
enum Load {
    /// This many commands queued at every seat from the start, one a slot
    /// at depth 1, as [`settled`] runs them; every one due at 0.
    Queued(u64),
    /// [`open_loop`]: this many commands, one every Δ/5, command `i` due
    /// at `i·Δ/5`.
    Open(u64),
    /// This many commands queued at every seat from the start, batched by
    /// nodes as shipped (adaptive: a slot carries many); every one due at 0.
    Backlog(u64),
}

/// A counter, by its exposition name.
type Read = (&'static str, fn(&Metrics) -> u64);

macro_rules! counter {
    ($name:ident) => {
        (stringify!($name), |m: &Metrics| m.$name.get())
    };
}

/// How a ledger column reads a run.
enum Column {
    /// Of the node, the same at every live seat.
    Node(fn(&SmrNode<CountingMachine>) -> u64),
    /// A counter, the same at every live seat.
    Each(Read),
    /// A counter, the fewest at any live seat.
    Least(Read),
    /// Counters summed over seats.
    Sum(&'static [Read]),
    /// Messages sent: of one kind, or of every kind.
    Sent(Option<&'static str>),
    /// Encoded bytes sent.
    Bytes,
    /// This percentile of the commands' [`delays`].
    Delays(usize),
}

/// The ledger's columns, by label, in row order.
#[rustfmt::skip]
const COLUMNS: [(&str, Column); 24] = [
    ("slots", Column::Node(SmrNode::applied)),
    ("parked", Column::Node(|node| node.open_slots() as u64)),
    ("empty", Column::Each(counter!(slot_empty_total))),
    ("drains", Column::Sum(&[
        counter!(batch_flush_size_total), counter!(batch_flush_bytes_total),
        counter!(batch_flush_quiescence_total), counter!(batch_flush_timeout_total),
    ])),
    ("dropped", Column::Sum(&[counter!(dedup_dropped_total)])),
    ("msgs", Column::Sent(None)),
    ("bytes", Column::Bytes),
    ("Propose", Column::Sent(Some("propose"))),
    ("Ack", Column::Sent(Some("ack"))),
    ("Commit", Column::Sent(Some("Commit"))),
    ("Backfill", Column::Sent(Some("backfill"))),
    ("sigs", Column::Sum(&[counter!(sig_memo_miss_total)])),
    ("fewest", Column::Least(counter!(sig_memo_miss_total))),
    ("certs", Column::Sum(&[counter!(cert_cache_miss_total)])),
    ("fast", Column::Sum(&[counter!(commit_fast_total)])),
    ("slow", Column::Sum(&[counter!(commit_slow_total)])),
    ("views", Column::Sum(&[counter!(view_change_total)])),
    ("refused", Column::Sum(&[counter!(contribution_refused_total)])),
    ("backfilled", Column::Sum(&[counter!(backfill_slots_total)])),
    ("shed", Column::Sum(&[counter!(ingress_shed_total)])),
    ("signed", Column::Sum(&[counter!(signatures_made_total)])),
    ("compared", Column::Sum(&[counter!(pending_compared_total)])),
    ("delays_p50", Column::Delays(50)),
    ("delays_p90", Column::Delays(90)),
];

/// A ledger row: one cell per column of [`COLUMNS`].
type Row = [u64; COLUMNS.len()];

impl Column {
    /// The counters this column reads.
    fn counters(&self) -> &[Read] {
        match self {
            Column::Each(read) | Column::Least(read) => std::slice::from_ref(read),
            Column::Sum(reads) => reads,
            _ => &[],
        }
    }
}

/// A run's row, once every live seat is checked to have applied all
/// `commands` with no checker violation and no instance still running;
/// `delays` is what [`delays`] returned for it.
fn ledger(cluster: &mut Cluster, silent: &[ProcessId], commands: u64, delays: &[u64]) -> Row {
    assert_eq!(cluster.violations(), []);
    assert_eq!(delays.len() as u64, commands);
    let registry = cluster.registry();
    let seats = registry.len();
    let live: Vec<ProcessId> = ProcessId::all(seats)
        .filter(|p| !silent.contains(p))
        .collect();
    let at = |p: ProcessId| registry.metrics(p.index());
    let each = |read: &dyn Fn(ProcessId) -> u64| {
        let value = read(live[0]);
        assert!(live.iter().all(|p| read(*p) == value));
        value
    };
    assert_eq!(each(&|p| cluster.node(p).commands_applied()), commands);
    assert_eq!(each(&|p| cluster.node(p).running_slots() as u64), 0);
    let stats = cluster.sim().trace().message_stats(SimTime::NEVER);
    COLUMNS.map(|(_, column)| match column {
        Column::Node(read) => each(&|p| read(cluster.node(p))),
        Column::Each((_, read)) => each(&|p| read(at(p))),
        Column::Least((_, read)) => live.iter().map(|p| read(at(*p))).min().unwrap(),
        Column::Sum(reads) => ProcessId::all(seats)
            .flat_map(|p| reads.iter().map(move |(_, read)| read(at(p))))
            .sum(),
        Column::Sent(None) => stats.messages as u64,
        Column::Sent(Some(kind)) => stats.by_kind.get(kind).map_or(0, |(msgs, _)| *msgs) as u64,
        Column::Bytes => stats.bytes as u64,
        Column::Delays(q) => delays[delays.len() * q / 100],
    })
}

/// What the exporters print is what the code did: every counter the
/// ledger reads is each seat's line in the text exposition and its entry
/// in the seat's block of the JSON dump.
fn exported(registry: &MetricsRegistry) {
    let (text, json) = (registry.render_text(), registry.render_json());
    let blocks: Vec<&str> = json.split("{\"replica\":").skip(1).collect();
    assert_eq!(blocks.len(), registry.len());
    for (i, block) in blocks.iter().enumerate() {
        let p = i + 1;
        assert!(block.starts_with(&format!("\"p{p}\",\"counters\":{{")));
        for (name, read) in COLUMNS.iter().flat_map(|(_, column)| column.counters()) {
            let value = read(registry.metrics(i));
            let sample = format!("fastbft_{name}{{replica=\"p{p}\"}} {value}");
            assert!(text.lines().any(|line| line == sample), "no `{sample}`");
            let entry = format!("\"{name}\":{value}");
            let mut entries = block.split([',', '{', '}']);
            assert!(entries.any(|e| e == entry), "no {entry} for p{p}");
        }
    }
}

/// The work ledger, one column per entry of [`COLUMNS`].
///
/// Queued, a slot costs one proposal to everyone and one ack from everyone
/// to everyone, plus a `Commit` from everyone to everyone where the slow
/// path runs beside the fast one (`t < f`), and nothing else. Each seat
/// checks the proposal's signature and, where acks carry a share, the fast
/// quorum's `n − t` acks. The `Commit`s arrive after the slot settled and
/// walk no certificate. In the open loop seats drain one command into
/// different slots, so every copy decided after the first is dropped at
/// apply. The checks there include the `n − 1` checkpoint attestations
/// each seat checks per snapshot boundary. With seats silent, a dead seat
/// leads view 1 of the slots it is the rotation's first leader of until
/// the agreed schedule skips it, one window after its first miss was
/// decided, and then only its probe slot once a period: each such slot
/// costs every live seat one view change. With `f` seats silent every
/// commit is slow.
///
/// Backlogged, nodes as shipped carry the same 1 000 queued commands in
/// 10 slots, and `compared` reads the queue scan at about 179 entries per
/// applied command per seat (716 976 over 4 × 1 000, 1 254 708 over
/// 7 × 1 000): the baseline for applying without scanning the queue.
///
/// `delays_p50` and `delays_p90` are [`delays`]' percentiles, in ticks.
/// Queued, command `s` rides slot `s` alone and lands `(s + 1)` fast paths
/// after 0, so the cells read the backlog's wait in 2Δ steps. In the open
/// loop they read what batching and reordered arrivals add to the 2Δ or
/// 3Δ of a commit.
#[test]
fn the_work_ledger() {
    use Load::{Backlog, Open, Queued};
    let (four, seven) = (Config::new(4, 1, 1).unwrap(), Config::new(7, 2, 1).unwrap());
    #[rustfmt::skip]
    let rows: [(Config, &[u32], Load, Row); 9] = [
        //                             slots parked  empty  drains  dropped    msgs       bytes  Propose     Ack  Commit  Backfill    sigs  fewest   certs   fast   slow  views  refused  backfilled  shed  signed  compared  delays_p50  delays_p90
        (four,  &[],     Queued(12),  [   12,     0,     0,     48,       0,    240,     12_048,      48,    192,      0,        0,     48,     12,      0,    48,     0,     0,       0,          0,    0, 12, 264,      1_400,      2_200]),
        (seven, &[],     Queued(12),  [   12,     0,     0,     84,       0,  1_260,    185_976,      84,    588,    588,        0,    588,     84,      0,    84,     0,     0,       0,          0,    0, 96, 462,      1_400,      2_200]),
        (four,  &[],     Open(1_000), [  745,     0,     2,  2_415,   3_140, 14_983,  1_003_794,   2_980, 11_920,      0,        0,  3_040,    760,      0, 2_980,     0,     0,       0,          0,    0, 765, 5_298,        299,        477]),
        (seven, &[],     Open(1_000), [  656,     0,     8,  3_582,   6_328, 69_197, 11_759_365,   4_592, 32_144, 32_144,       12, 71_561, 10_223,  7_350, 4_592,     0,     0,       0,          0,    0, 5_283, 11_314,        301,        561]),
        (four,  &[4],    Open(1_000), [  598,     0,     2,  1_452,   1_719,  9_888,    713_171,   2_392,  7_176,      0,        0,  2_090,    691,     51, 1_794,     0,    51,       0,          0,    0,   712,  6_759,        322,        876]),
        (seven, &[7],    Open(1_000), [  556,     0,     5,  2_655,   4_518, 51_355,  8_794_240,   3_892, 23_352, 23_352,        0, 52_135,  8_680,  5_682, 3_336,     0,    66,       0,          0,    0, 4_048, 15_508,        329,        889]),
        (seven, &[6, 7], Open(1_000), [  429,     0,     5,  1_695,   2_915, 34_301,  5_968_466,   3_003, 15_015, 15_015,       84, 67_415, 13_471, 10_825,     0, 2_145,   115,       0,          0,    0, 2_804, 15_233,        433,        915]),
        (four,  &[],     Backlog(1_000), [   10,     0,     0,     40,       0,    200,    247_640,      40,    160,      0,        0,     40,     10,      0,    40,     0,     0,       0,          0,    0, 10, 716_976,        200,        400]),
        (seven, &[],     Backlog(1_000), [   10,     0,     0,     70,       0,  1_050,  1_402_380,      70,    490,    490,        0,    511,     73,      0,    70,     0,     0,       0,          0,    0, 80, 1_254_708,        200,        400]),
    ];
    for (cfg, silent, load, row) in rows {
        let silent: Vec<ProcessId> = silent.iter().copied().map(ProcessId).collect();
        let (mut cluster, commands, delays) = match load {
            Queued(slots) => {
                let mut cluster = cluster(cfg, 5, Network::synchronous(DELTA), slots, Some(1));
                let delays = delays(&mut cluster, cfg.f(), |_| SimTime::ZERO);
                (cluster, slots, delays)
            }
            Backlog(commands) => {
                let queue: Vec<Value> = (0..commands).map(command).collect();
                let mut cluster = SmrSimCluster::new(
                    cfg,
                    5,
                    CountingMachine::new(),
                    vec![queue; cfg.n()],
                    Network::synchronous(DELTA),
                    |_, node| Box::new(node),
                );
                let delays = delays(&mut cluster, cfg.f(), |_| SimTime::ZERO);
                (cluster, commands, delays)
            }
            Open(commands) => {
                let mut cluster = open_loop(cfg, &silent, commands);
                let delays = delays(&mut cluster, cfg.f(), |i| SimTime(i * DELTA.0 / 5));
                (cluster, commands, delays)
            }
        };
        let read = ledger(&mut cluster, &silent, commands, &delays);
        let named: Vec<_> = COLUMNS.iter().map(|(label, _)| *label).zip(read).collect();
        assert_eq!(read, row, "{cfg:?}, {silent:?} silent, {load:?}: {named:?}");
        exported(cluster.registry());
    }
}
