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
//! Everything runs on the deterministic simulator: one message delay is
//! exactly Δ, the view-1 timeout is the default 8Δ, every cluster uses
//! batch 1 (one command per slot).

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
        Value::from_u64(0),
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
