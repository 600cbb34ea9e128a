//! What a slot costs on the wire, and who gets a `Backfill`, in virtual
//! time.
//!
//! A node answers consensus traffic for a slot it has settled with the
//! committed value, so a replica that missed the slot can close the hole.
//! It answers only frames a *stuck* sender emits (`Wish`, `Vote`,
//! `Propose`, …), not the protocol's own stragglers: the last `Ack` and
//! every `Commit` of a slot the fast path decided one delay earlier. These
//! tests pin the resulting message budget exactly, the trigger kind by
//! kind, and that a replica cut off for several slots still heals through
//! its own `Wish`es — and that both metrics exporters print the counts
//! such a run implies, no more and no less.
//!
//! The open-loop rows count what the broadcast client model costs per
//! applied command with the node as shipped: slots, slots that decided the
//! empty batch, drains and dedup drops.
//!
//! Everything runs on the deterministic simulator: one message delay is
//! exactly Δ, the view-1 timeout is the default 8Δ, and every cluster but
//! the open-loop rows' uses batch 1 (one command per slot).

use std::collections::BTreeMap;

use fastbft_core::message::{AckMsg, CommitMsg, Message, ProposeMsg, WishMsg};
use fastbft_core::{CommitCert, ProgressCert};
use fastbft_crypto::KeyDirectory;
use fastbft_runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft_sim::{Network, SimDuration, SimTime, TraceEvent};
use fastbft_smr::{CountingMachine, SlotMessage, SmrSimCluster};
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

/// With every seat live a slot costs one proposal to everyone and one ack
/// from everyone to everyone — plus, where the slow path runs beside the
/// fast one (`t < f`), one `Commit` from everyone to everyone. Nothing
/// else: no `Backfill` answers the stragglers of a decided slot.
#[test]
fn a_live_slot_costs_exactly_its_protocol_messages() {
    const SLOTS: u64 = 12;
    for (cfg, per_slot) in [
        (Config::new(7, 2, 1).unwrap(), 7 + 49 + 49),
        (Config::new(4, 1, 1).unwrap(), 4 + 16),
    ] {
        let n = cfg.n();
        let cluster = settled(cfg, SLOTS);
        let stats = cluster.sim().trace().message_stats(SimTime::NEVER);
        let count = |kind: &str| stats.by_kind.get(kind).map_or(0, |(msgs, _)| *msgs) as u64;
        assert_eq!(count("propose"), SLOTS * n as u64, "n = {n}");
        assert_eq!(count("ack"), SLOTS * (n * n) as u64, "n = {n}");
        assert_eq!(count("backfill"), 0, "n = {n}");
        assert_eq!(
            stats.messages as u64,
            SLOTS * per_slot,
            "n = {n}: {stats:?}"
        );
    }
}

/// What the exporters print is what the code did. The same runs with a
/// metrics plane attached: every replica commits every slot on the fast
/// path and nothing else happens to it, and it runs exactly one signature
/// check per slot for the proposal — plus, where acks carry the slow
/// path's share (`t < f`), one per ack it handles before the slot is
/// applied: the fast quorum's `n − t`, the stragglers being dropped ahead
/// of the check. No certificate is walked: the `Commit`s of the slow path
/// running beside the fast one arrive a delay after the slot settled. No
/// instance refuses a contribution: every seat sends one of each a view. The
/// Prometheus text and the JSON dump both carry those totals, per replica,
/// and a cluster's exposition has no `shard` label or key anywhere, nor
/// the hit counters of the caches there no longer are.
#[test]
fn both_exporters_print_the_counts_of_a_live_run() {
    const SLOTS: u64 = 12;
    for (cfg, checks_per_slot) in [
        (Config::new(7, 2, 1).unwrap(), 1 + 6),
        (Config::new(4, 1, 1).unwrap(), 1),
    ] {
        let n = cfg.n();
        let cluster = settled(cfg, SLOTS);
        let registry = cluster.registry();
        let expected = [
            ("commit_fast_total", SLOTS),
            ("commit_slow_total", 0),
            ("view_change_total", 0),
            ("contribution_refused_total", 0),
            ("dedup_dropped_total", 0),
            ("backfill_slots_total", 0),
            ("ingress_shed_total", 0),
            ("sig_memo_miss_total", SLOTS * checks_per_slot),
            ("cert_cache_miss_total", 0),
        ];

        let text = registry.render_text();
        let json = registry.render_json();
        for gone in ["shard", "cert_cache_hit_total", "sig_memo_hit_total"] {
            assert!(!text.contains(gone), "n = {n}: {gone} in {text}");
            assert!(!json.contains(gone), "n = {n}: {gone} in {json}");
        }
        let blocks: Vec<&str> = json.split("{\"replica\":").skip(1).collect();
        assert_eq!(blocks.len(), n);
        for (i, block) in blocks.iter().enumerate() {
            let p = i + 1;
            assert!(block.starts_with(&format!("\"p{p}\",\"counters\":{{")));
            for (name, value) in expected {
                let sample = format!("fastbft_{name}{{replica=\"p{p}\"}} {value}");
                assert!(
                    text.lines().any(|line| line == sample),
                    "n = {n}: no line `{sample}` in the text exposition"
                );
                let entry = format!("\"{name}\":{value},");
                assert!(
                    block.contains(&entry),
                    "n = {n}: no {entry} in p{p}'s JSON block"
                );
            }
        }
    }
}

/// A late `Ack` and a late `Commit` for a settled slot elicit nothing; a
/// `Wish` and a `Propose` for it — what a sender that is really stuck sends
/// next — elicit exactly one `Backfill` each, to the sender.
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
    for (answered, inner) in stuck.into_iter().enumerate() {
        assert_eq!(deliver(inner), vec![(p1, p2); answered + 1]);
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

/// One open-loop run to the end of its events: nodes as shipped, every seat
/// hearing of each of `commands` commands, one every Δ/5, at its own time
/// — jittered in [0, Δ] per seat — as clients that broadcast to every
/// replica are heard. Returns, with every seat at `commands` applied:
/// slots applied, slots that decided the empty batch, drains (the four
/// `batch_flush_*_total` summed over seats), `dedup_dropped_total`,
/// messages sent and their encoded bytes (the trace's), signature checks
/// (`sig_memo_miss_total`), certificates walked (`cert_cache_miss_total`),
/// fast commits and slow commits — every counter summed over seats.
fn open_loop(cfg: Config, commands: u64) -> [u64; 10] {
    let mut cluster = SmrSimCluster::new(
        cfg,
        7,
        CountingMachine::new(),
        vec![Vec::new(); cfg.n()],
        Network::synchronous(DELTA),
        |_, node| Box::new(node),
    );
    let mut jitter = Rng(7);
    for i in 0..commands {
        for p in cfg.processes() {
            let at = SimTime(i * DELTA.0 / 5 + jitter.below(DELTA.0 + 1));
            cluster.sim_mut().submit_client(p, command(i), at);
        }
    }
    // Each slot's batch length, read at p1 (`decided_batch`) after every
    // event, parked above the apply point or applied. A snapshot prunes
    // the tail in the event that applies its boundary, so the slot that
    // event decided may be gone already (the ones it applied with it were
    // read parked): its length is the event's commands, logged or
    // dropped, less theirs.
    let p1 = ProcessId(1);
    let seen = |c: &Cluster| {
        let dropped = &c.registry().metrics(p1.index()).dedup_dropped_total;
        (
            c.node(p1).applied(),
            c.node(p1).commands_applied() + dropped.get(),
        )
    };
    let mut lens: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut from, mut before) = seen(&cluster);
    while cluster.sim_mut().step() {
        let (to, after) = seen(&cluster);
        let node = cluster.node(p1);
        // Applied, then parked past the slot the apply point waits for.
        for slot in (from..to).chain(to + 1..) {
            match node.decided_batch(slot) {
                Some(batch) => lens.insert(slot, batch.len() as u64),
                None if slot < to => continue,
                None => break,
            };
        }
        let unread: Vec<u64> = (from..to).filter(|s| !lens.contains_key(s)).collect();
        if let [slot] = unread[..] {
            let read: u64 = (from..to).filter_map(|s| lens.get(&s)).sum();
            lens.insert(slot, after - before - read);
        }
        (from, before) = (to, after);
    }
    assert_eq!(cluster.violations(), []);
    let slots = cluster.node(p1).applied();
    assert!(lens.keys().copied().eq(0..slots));
    let empty = lens.values().filter(|len| **len == 0).count() as u64;
    for p in cfg.processes() {
        let node = cluster.node(p);
        assert_eq!((node.applied(), node.commands_applied()), (slots, commands));
    }
    let registry = cluster.registry();
    let drains = registry.total(|m| &m.batch_flush_size_total)
        + registry.total(|m| &m.batch_flush_bytes_total)
        + registry.total(|m| &m.batch_flush_quiescence_total)
        + registry.total(|m| &m.batch_flush_timeout_total);
    let dropped = registry.total(|m| &m.dedup_dropped_total);
    let stats = cluster.sim().trace().message_stats(SimTime::NEVER);
    [
        slots,
        empty,
        drains,
        dropped,
        stats.messages as u64,
        stats.bytes as u64,
        registry.total(|m| &m.sig_memo_miss_total),
        registry.total(|m| &m.cert_cache_miss_total),
        registry.total(|m| &m.commit_fast_total),
        registry.total(|m| &m.commit_slow_total),
    ]
}

/// The open-loop rows, per 1 000 applied commands (each seat applies all
/// 1 000): slots applied, slots that decided the empty batch, drains,
/// dedup drops, messages, encoded bytes, signature checks, certificates
/// walked, fast and slow commits (all but the first two summed over
/// seats). The broadcast model's cost shows here and nowhere else: seats
/// hear of a command at different times, so they drain it into different
/// slots, and every copy decided after the first is dropped at apply.
/// Every slot commits fast at every seat (slots × n), and no slot commits
/// slow; at n = 4 (t = f) an ack carries no share, so a seat checks one
/// signature a slot, the proposal's.
#[test]
fn the_open_loop_rows() {
    #[rustfmt::skip]
    let rows = [
        (Config::new(4, 1, 1).unwrap(), [587, 2, 1_856, 3_248, 11_882, 845_708, 2_348, 0, 2_348, 0]),
        (Config::new(7, 2, 1).unwrap(), [573, 3, 3_067, 6_524, 60_463, 10_372_088, 70_511, 8_036, 4_011, 0]),
    ];
    for (cfg, row) in rows {
        assert_eq!(open_loop(cfg, 1_000), row, "n = {}", cfg.n());
    }
}
