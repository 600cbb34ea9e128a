//! Leader suspicion across slots, in virtual time.
//!
//! A node remembers which seats it watched fail as leaders and opens the
//! next slot they would lead first already wishing for the first live view
//! (see `crates/smr/src/suspicion.rs`). These tests pin the rule's payoff
//! (a degraded cluster stops paying view timeouts after the first
//! rotation), its healing (a correct leader's next proposal clears it), what
//! Byzantine seats can and cannot do with it, and that safety is
//! independent of any wish a replica starts with.
//!
//! Everything runs on the deterministic simulator: one message delay is
//! exactly Δ, the view-1 timeout is the default 8Δ and every cluster uses
//! batch 1. The tests of the table itself pin pipeline depth 1, so slot `s`
//! opens the instant slot `s − 1` applies and a slot's latency is the gap
//! between two applies. The tests of *revoking ahead* — a node with two or
//! more proposals running at once starts the slots of suspected first
//! leaders early, with the empty batch — run the default depth under paced
//! client submissions (one per Δ against a 3Δ commit: always overlapping).

use fastbft_core::byzantine::RandomByzantine;
use fastbft_core::cluster::SimCluster;
use fastbft_core::message::{Message, ProposeMsg, WishMsg};
use fastbft_core::payload::propose_payload;
use fastbft_core::replica::Replica;
use fastbft_core::ProgressCert;
use fastbft_crypto::KeyDirectory;
use fastbft_runtime::{FaultPlan, LinkProfile, LinkRules};
use fastbft_sim::{
    Actor, Effects, Network, Outgoing, ScriptedActor, SimDuration, SimTime, TimerId, TraceEvent,
};
use fastbft_smr::{CountingMachine, SlotMessage, SmrNode, SmrSimCluster};
use fastbft_types::{Config, ProcessId, Value, View};
use proptest::prelude::*;

const DELTA: SimDuration = SimDuration::DELTA;
/// The default view-1 timeout (`ReplicaOptions::default().base_timeout`).
const BASE_TIMEOUT: u64 = 8 * DELTA.0;
/// A slot entered through a view change, in message delays: wish, vote,
/// cert-request, cert-ack, propose, ack, commit (slow path).
const VIEW_CHANGE_SLOT: u64 = 7 * DELTA.0;

type Node = SmrNode<CountingMachine>;
type BoxedActor = Box<dyn Actor<SlotMessage>>;
type Cluster = SmrSimCluster<CountingMachine>;

/// What a slot with nothing to commit decides.
fn empty_batch() -> Vec<Value> {
    Vec::new()
}

/// The `i`-th client command.
fn command(i: u64) -> Value {
    Value::from_u64(1000 + i)
}

fn generalized_seven() -> Config {
    Config::new(7, 2, 1).unwrap()
}

/// The seat leading view `view` of slot `slot` (the SMR rotation).
fn slot_leader(cfg: &Config, slot: u64, view: u64) -> ProcessId {
    cfg.with_leader_offset(slot).leader(View(view))
}

/// Every seat is offered an honest node with the same `commands`-long
/// client queue (the broadcast client model), batch 1 and pipeline depth 1;
/// `seat` may keep it, wrap it or replace it.
fn sequential(
    cfg: Config,
    seed: u64,
    network: Network,
    commands: u64,
    snapshot_interval: Option<u64>,
    mut seat: impl FnMut(ProcessId, Node) -> BoxedActor,
) -> Cluster {
    let queue: Vec<Value> = (0..commands).map(command).collect();
    SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        vec![queue; cfg.n()],
        network,
        |p, node| {
            let node = node.with_batch_size(1).with_pipeline_depth(1);
            seat(
                p,
                match snapshot_interval {
                    Some(interval) => node.with_snapshot_interval(interval),
                    None => node,
                },
            )
        },
    )
}

/// Batch-1 nodes at the default pipeline depth, with empty queues, for
/// tests that [`submit`] their load.
fn pipelined(
    cfg: Config,
    seed: u64,
    network: Network,
    mut seat: impl FnMut(ProcessId, Node) -> BoxedActor,
) -> Cluster {
    SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        vec![Vec::new(); cfg.n()],
        network,
        |p, node| seat(p, node.with_batch_size(1)),
    )
}

/// Hands `cmd` to every seat's client path at `at` (the broadcast client
/// model; a silent seat ignores it).
fn submit(cluster: &mut Cluster, cmd: Value, at: SimTime) {
    let sim = cluster.sim_mut();
    for p in ProcessId::all(sim.n()) {
        sim.submit_client(p, cmd.clone(), at);
    }
}

fn suspects(cluster: &Cluster, p: ProcessId) -> Vec<u32> {
    let suspected = cluster.node(p).suspected_leaders();
    suspected.iter().map(|s| s.0).collect()
}

/// Runs until every seat in `who` applied `slots` slots, with the caller's
/// invariant checked after every event and the apply time of every slot as
/// seen by p1 recorded in `applied_at` (`applied_at[s]`: when p1 applied
/// slot `s`).
fn run_until_applied(
    cluster: &mut Cluster,
    applied_at: &mut Vec<SimTime>,
    who: &[ProcessId],
    slots: u64,
    check: impl Fn(&Cluster),
) {
    cluster.run_until(SimTime(10_000 * DELTA.0), |c| {
        while (applied_at.len() as u64) < c.node(ProcessId(1)).applied() {
            applied_at.push(c.sim().now());
        }
        check(c);
        who.iter().all(|p| c.node(*p).applied() >= slots)
    });
}

/// Open-to-apply time of slot `s` at p1 (depth 1: a slot opens when its
/// predecessor applies).
fn latency(applied_at: &[SimTime], s: usize) -> u64 {
    let opened = if s == 0 {
        SimTime::ZERO
    } else {
        applied_at[s - 1]
    };
    applied_at[s].since(opened).0
}

/// Wish messages handed to the network at or after `from`.
fn wishes_sent_since(cluster: &Cluster, from: SimTime) -> usize {
    let records = cluster.sim().trace().records();
    records
        .iter()
        .filter(|r| r.at >= from)
        .filter(|r| matches!(r.event, TraceEvent::Send { kind: "wish", .. }))
        .count()
}

/// The `(slot, leader seat)` of every `revoke slot s (leader pX)` event in
/// `p`'s flight recorder, oldest first.
fn revoked(cluster: &Cluster, p: ProcessId) -> Vec<(u64, u32)> {
    cluster
        .registry()
        .metrics(p.index())
        .recorder
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == "leader-suspicion")
        .filter_map(|e| {
            let (slot, leader) = e
                .detail
                .strip_prefix("revoke slot ")?
                .strip_suffix(')')?
                .split_once(" (leader p")?;
            Some((slot.parse().ok()?, leader.parse().ok()?))
        })
        .collect()
}

/// The batch every slot `p` applied decided, by slot (at batch 1 one
/// command, or none), checked against `p`'s whole log: the batches in slot
/// order are every entry it applied, none covered by a snapshot.
fn decided(cluster: &mut Cluster, p: ProcessId) -> Vec<Vec<Value>> {
    let node = cluster.node(p);
    let batches: Vec<Vec<Value>> = (0..node.applied())
        .map(|slot| {
            let batch = node.decided_batch(slot);
            batch.unwrap_or_else(|| panic!("{p} snapshotted slot {slot}"))
        })
        .collect();
    let log = &cluster.logs()[p.index()];
    assert!(
        log.keys().copied().eq(0..log.len() as u64),
        "{p} installed a snapshot"
    );
    assert!(log.values().eq(batches.iter().flatten()), "{p}'s log");
    batches
}

/// Slots applied at `f + 1` or more of `who`: what a client may take as
/// committed.
fn applied_at_quorum(cluster: &Cluster, who: &[ProcessId], f: usize) -> u64 {
    let mut applied: Vec<u64> = who.iter().map(|p| cluster.node(*p).applied()).collect();
    applied.sort_unstable_by(|a, b| b.cmp(a));
    applied[f]
}

/// Runs one Δ at a time (every event of these runs falls on a multiple of
/// Δ) until nothing has happened for `QUIET` — far longer than any timer
/// still pending can be — with the caller's invariant checked after every
/// instant, recording when each slot reached
/// [`applied_at_quorum`] in `committed_at`; then asserts `violations()`.
fn run_dry(
    cluster: &mut Cluster,
    who: &[ProcessId],
    f: usize,
    committed_at: &mut Vec<SimTime>,
    check: impl Fn(&Cluster),
) {
    const QUIET: u64 = 64;
    let mut at = cluster.sim().now();
    let horizon = SimTime(at.0 + 10_000 * DELTA.0);
    let mut last_event = at;
    while at.0 < last_event.0 + QUIET * DELTA.0 {
        assert!(at < horizon, "never went quiet");
        at += DELTA;
        let sim = cluster.sim_mut();
        let before = (sim.trace().records().len(), sim.pending_events());
        sim.run_until(at);
        if (sim.trace().records().len(), sim.pending_events()) != before {
            last_event = at;
        }
        while (committed_at.len() as u64) < applied_at_quorum(cluster, who, f) {
            committed_at.push(at);
        }
        check(cluster);
    }
    assert_eq!(cluster.violations(), []);
}

fn view_changes(cluster: &Cluster, p: ProcessId) -> u64 {
    cluster
        .registry()
        .metrics(p.index())
        .view_change_total
        .get()
}

/// Rules that lose everything `victim` sends to a peer.
fn muted(victim: ProcessId) -> LinkRules {
    LinkRules {
        by_src: [(victim, LinkProfile::cut())].into(),
        ..LinkRules::default()
    }
}

/// Seats 6–7 of [`generalized_seven`] silent, the rest honest.
fn two_silent_seats(p: ProcessId, node: Node) -> BoxedActor {
    if p.0 >= 6 {
        Box::new(ScriptedActor::silent())
    } else {
        Box::new(node)
    }
}

/// (a) The payoff. n = 7, f = 2, t = 1 with seats 6–7 silent: the first
/// rotation pays the view timeouts and learns; from then on every dead-led
/// slot is entered through wishes alone, decides within 7Δ (below the 8Δ
/// view-1 timeout, so no view timer ever does anything), and the logs agree.
#[test]
fn dead_leaders_stop_costing_timeouts_after_the_first_rotation() {
    let cfg = generalized_seven();
    let live: Vec<ProcessId> = (1..=5).map(ProcessId).collect();
    const SLOTS: u64 = 28; // four rotations
    let net = Network::synchronous(DELTA);
    let mut cluster = sequential(cfg, 17, net, SLOTS, None, two_silent_seats);
    let mut applied_at = Vec::new();

    // First rotation: slot 4 is led by p6 then p7 and pays both timeouts
    // (8Δ, then the doubled 16Δ) before p1's view decides it.
    run_until_applied(&mut cluster, &mut applied_at, &live, 7, |_| {});
    assert_eq!(slot_leader(&cfg, 4, 1), ProcessId(6));
    assert_eq!(slot_leader(&cfg, 4, 2), ProcessId(7));
    assert!(
        latency(&applied_at, 4) >= 3 * BASE_TIMEOUT,
        "slot 4 took {}",
        latency(&applied_at, 4)
    );
    for p in &live {
        assert_eq!(suspects(&cluster, *p), vec![6, 7], "at {p}");
    }
    // Slot 5 (p7 first) already benefits inside the first rotation.
    assert!(latency(&applied_at, 5) <= VIEW_CHANGE_SLOT);

    let learned_at = cluster.sim().now();
    let view_changes_then: Vec<u64> = live.iter().map(|p| view_changes(&cluster, *p)).collect();
    run_until_applied(&mut cluster, &mut applied_at, &live, SLOTS, |_| {});

    let mut dead_led = 0;
    for s in 7..SLOTS as usize {
        let first = slot_leader(&cfg, s as u64, 1);
        if first.0 >= 6 {
            dead_led += 1;
            assert!(
                latency(&applied_at, s) <= VIEW_CHANGE_SLOT,
                "dead-led slot {s} took {} (> 7Δ)",
                latency(&applied_at, s)
            );
        } else {
            // Five live seats are below the fast quorum of six: slow path.
            assert_eq!(latency(&applied_at, s), 3 * DELTA.0, "live-led slot {s}");
        }
    }
    assert_eq!(dead_led, 6, "slots 11, 12, 18, 19, 25, 26");
    // No view timer did anything: the only wishes on the wire are the one
    // broadcast each live node makes when it opens a dead-led slot (a firing
    // timer re-broadcasts its wish), and each such slot is entered once.
    assert_eq!(
        wishes_sent_since(&cluster, learned_at),
        dead_led * live.len() * (cfg.n() - 1)
    );
    for (p, before) in live.iter().zip(view_changes_then) {
        assert_eq!(
            view_changes(&cluster, *p) - before,
            dead_led as u64,
            "at {p}"
        );
        let m = cluster.registry().metrics(p.index());
        assert_eq!(m.leader_suspect_total.get(), 2);
        assert_eq!(m.leader_suspected.get(), 2);
        assert_eq!(
            m.view_skip_total.get(),
            dead_led as u64 + 1,
            "+1: slot 5 at {p}"
        );
    }
    for p in &live {
        assert_eq!(cluster.node(*p).commands_applied(), SLOTS);
    }
    // Both exporters print exactly what happened, and the flight-recorder
    // tail names the seats and where they were caught.
    let text = cluster.registry().render_text();
    assert!(text.contains("fastbft_leader_suspected{replica=\"p3\"} 2"));
    assert!(text.contains("fastbft_leader_suspect_total{replica=\"p3\"} 2"));
    assert!(text.contains("fastbft_leader_clear_total{replica=\"p3\"} 0"));
    assert!(text.contains("fastbft_view_skip_total{replica=\"p3\"} 7"));
    let json = cluster.registry().render_json();
    assert!(json.contains("\"detail\":\"suspect p6 (slot 4, view 1)\""));
    assert!(json.contains("\"detail\":\"suspect p7 (slot 4, view 2)\""));
}

/// The flight recorder says which slot. Same cluster, through slot 5: slot 4
/// waits out p6 and then p7, and every event of that story — the two
/// expired view timers with the leader each waited for, the two view
/// entries, the slow-path commit in view 3 — carries `slot 4`. Slot 5, led
/// by the now-suspected p7, is entered by wish: a view change and a commit,
/// no timer.
#[test]
fn post_mortem_events_name_their_slot() {
    let cfg = generalized_seven();
    let live: Vec<ProcessId> = (1..=5).map(ProcessId).collect();
    let net = Network::synchronous(DELTA);
    let mut cluster = sequential(cfg, 17, net, 6, None, two_silent_seats);
    let mut applied_at = Vec::new();
    run_until_applied(&mut cluster, &mut applied_at, &live, 6, |_| {});

    let events = cluster.registry().metrics(2).recorder.snapshot();
    let of_slot = |slot: u64| -> Vec<(&str, &str)> {
        let tag = format!(" slot {slot} ");
        events
            .iter()
            .filter(|e| ["view-timeout", "view-change", "commit-slow"].contains(&e.kind))
            .filter(|e| e.detail.contains(&tag))
            .map(|e| (e.kind, e.detail.as_str()))
            .collect()
    };
    assert_eq!(of_slot(0), [("commit-slow", "p3 decided slot 0 in view 1")]);
    assert_eq!(
        of_slot(4),
        [
            ("view-timeout", "p3 slot 4 view 1 timed out waiting for p6"),
            ("view-change", "p3 slot 4 entered view 2 (leader p7)"),
            ("view-timeout", "p3 slot 4 view 2 timed out waiting for p7"),
            ("view-change", "p3 slot 4 entered view 3 (leader p1)"),
            ("commit-slow", "p3 decided slot 4 in view 3"),
        ]
    );
    assert_eq!(
        of_slot(5),
        [
            ("view-change", "p3 slot 5 entered view 2 (leader p1)"),
            ("commit-slow", "p3 decided slot 5 in view 2"),
        ]
    );
    let timeouts = events.iter().filter(|e| e.kind == "view-timeout").count();
    assert_eq!(timeouts, 2, "no other timer expired: {events:?}");
}

/// (b) False suspicion heals. A correct leader whose outbound traffic is
/// cut past one timeout is suspected by everyone; after the heal its next
/// proposal clears it everywhere, and the slot it leads after that decides
/// in view 1 on the fast path with no view change anywhere.
#[test]
fn a_healed_leader_is_cleared_by_its_next_proposal() {
    let cfg = generalized_seven();
    let victim = ProcessId(3);
    let all: Vec<ProcessId> = cfg.processes().collect();
    let others: Vec<ProcessId> = all.iter().copied().filter(|p| *p != victim).collect();
    let plan = FaultPlan::new();
    plan.set_rules(muted(victim));
    let network = plan.network(DELTA, 23);
    let mut cluster = sequential(cfg, 23, network, 21, None, |_, node| Box::new(node));
    let mut applied_at = Vec::new();

    // p3 leads slots 1, 8, 15. Cut off, slot 1 times out at everyone else.
    assert_eq!(slot_leader(&cfg, 1, 1), victim);
    run_until_applied(&mut cluster, &mut applied_at, &all, 2, |_| {});
    assert!(latency(&applied_at, 1) >= BASE_TIMEOUT);
    for p in &others {
        assert_eq!(suspects(&cluster, *p), vec![3], "at {p}");
    }
    assert!(suspects(&cluster, victim).is_empty(), "p3 heard everyone");

    // Heal. Slot 8 opens with the others wishing past p3 — and p3's
    // proposal, arriving with those wishes, clears it. No timeout is paid.
    plan.heal();
    assert_eq!(slot_leader(&cfg, 8, 1), victim);
    run_until_applied(&mut cluster, &mut applied_at, &all, 9, |_| {});
    assert!(
        latency(&applied_at, 8) <= VIEW_CHANGE_SLOT,
        "{}",
        latency(&applied_at, 8)
    );
    for p in &all {
        assert!(suspects(&cluster, *p).is_empty(), "at {p}");
    }
    for p in &others {
        let m = cluster.registry().metrics(p.index());
        assert_eq!(m.leader_clear_total.get(), 1, "at {p}");
        assert_eq!(m.leader_suspected.get(), 0, "at {p}");
    }

    // One rotation later p3's slot is an ordinary view-1 fast-path slot.
    let view_changes_then: Vec<u64> = all.iter().map(|p| view_changes(&cluster, *p)).collect();
    assert_eq!(slot_leader(&cfg, 15, 1), victim);
    run_until_applied(&mut cluster, &mut applied_at, &all, 16, |_| {});
    for s in 9..16 {
        assert_eq!(latency(&applied_at, s), 2 * DELTA.0, "slot {s}");
    }
    for (p, before) in all.iter().zip(view_changes_then) {
        assert_eq!(view_changes(&cluster, *p), before, "view change at {p}");
    }
}

/// A Byzantine seat for (c): an honest node that says nothing at all in odd
/// slots (so it "proposes in alternate slots") and sprays `Wish`es for
/// arbitrary views into every slot it hears about.
struct Flaky {
    inner: Node,
    sprayed: u64,
}

impl Flaky {
    fn relay(&mut self, inner: Effects<SlotMessage>, fx: &mut Effects<SlotMessage>) {
        let muted =
            |m: &SlotMessage| matches!(m, SlotMessage::Consensus { slot, .. } if slot % 2 == 1);
        for out in inner.outgoing() {
            match out {
                Outgoing::To(_, m) | Outgoing::All(m) if muted(m) => {}
                Outgoing::To(to, m) => fx.send(*to, m.clone()),
                Outgoing::All(m) => fx.broadcast(m.clone()),
            }
        }
        for (delay, timer) in inner.timers_set() {
            fx.set_timer(*delay, *timer);
        }
    }
}

impl Actor<SlotMessage> for Flaky {
    fn on_start(&mut self, fx: &mut Effects<SlotMessage>) {
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        self.inner.on_start(&mut inner);
        self.relay(inner, fx);
    }

    fn on_message(&mut self, from: ProcessId, msg: SlotMessage, fx: &mut Effects<SlotMessage>) {
        if let SlotMessage::Consensus { slot, .. } = &msg {
            self.sprayed += 1;
            if self.sprayed.is_multiple_of(3) {
                fx.broadcast_others(SlotMessage::Consensus {
                    slot: *slot,
                    inner: Message::Wish(WishMsg {
                        view: View(2 + self.sprayed % 7),
                    }),
                });
            }
        }
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        self.inner.on_message(from, msg, &mut inner);
        self.relay(inner, fx);
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<SlotMessage>) {
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        self.inner.on_timer(timer, &mut inner);
        self.relay(inner, fx);
    }
}

/// (c) What `f` Byzantine seats can do with it: nothing to a correct
/// leader, and nothing worse than today to a slot they stay silent in.
/// Seats 6–7 spray wishes for arbitrary views everywhere and lead only
/// their even slots. Throughout, no correct node ever suspects (hence
/// skips) a correct seat; a slot whose first `k` leaders are silent costs at
/// most today's `k` timeouts plus the view change; every other slot costs
/// no timeout at all.
#[test]
fn byzantine_wishes_and_flapping_leaders_gain_nothing() {
    let cfg = generalized_seven();
    let correct: Vec<ProcessId> = (1..=5).map(ProcessId).collect();
    const SLOTS: u64 = 28;
    let mut cluster = sequential(
        cfg,
        31,
        Network::synchronous(DELTA),
        SLOTS,
        None,
        |p, node| {
            if p.0 >= 6 {
                Box::new(Flaky {
                    inner: node,
                    sprayed: u64::from(p.0),
                })
            } else {
                Box::new(node)
            }
        },
    );
    let mut applied_at = Vec::new();
    let only_byzantine_suspects = |c: &Cluster| {
        for p in 1..=5 {
            let suspects = suspects(c, ProcessId(p));
            assert!(
                suspects.iter().all(|s| *s >= 6),
                "p{p} suspects a correct seat: {suspects:?}"
            );
        }
    };
    run_until_applied(
        &mut cluster,
        &mut applied_at,
        &correct,
        SLOTS,
        only_byzantine_suspects,
    );

    let silent = |slot: u64, view: u64| slot % 2 == 1 && slot_leader(&cfg, slot, view).0 >= 6;
    let mut timeouts_paid = 0;
    for s in 0..SLOTS {
        let k = (1..=2).take_while(|v| silent(s, *v)).count() as u32;
        let first = slot_leader(&cfg, s, 1);
        let bound = if k > 0 {
            // Today's cost: k doubling timeouts, a wish hop after each,
            // then the view change's remaining six delays.
            timeouts_paid += 1;
            BASE_TIMEOUT * ((1 << k) - 1) + u64::from(k - 1) * DELTA.0 + VIEW_CHANGE_SLOT
        } else if first.0 >= 6 {
            // A Byzantine leader's *good* slot may start out skipped (it
            // was silent last time): a wish-driven view change, no timeout.
            VIEW_CHANGE_SLOT
        } else {
            3 * DELTA.0
        };
        let took = latency(&applied_at, s as usize);
        assert!(
            took <= bound,
            "slot {s} (first leader {first}, {k} silent) took {took} > {bound}"
        );
    }
    assert_eq!(timeouts_paid, 4, "slots 5, 11, 19, 25");
    // Slots 11 and 25 are silent twice over (p6, then p7), but p7 is already
    // suspected when they open: p6's timeout moves straight on to view 3,
    // and the doubled view-2 timeout the parent paid is never waited out.
    for s in [11, 25] {
        assert_eq!(
            latency(&applied_at, s),
            BASE_TIMEOUT + VIEW_CHANGE_SLOT,
            "slot {s}"
        );
    }
    for p in &correct {
        assert_eq!(cluster.node(*p).commands_applied(), SLOTS);
    }
}

/// A correct single-shot replica that starts out wishing for `wish` —
/// what a slot instance steered by an arbitrary suspicion table does.
struct StartsWishing {
    replica: Replica,
    wish: View,
}

impl Actor<Message> for StartsWishing {
    fn on_start(&mut self, fx: &mut Effects<Message>) {
        self.replica.on_start(fx);
        self.replica.wish_for(self.wish, fx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Message, fx: &mut Effects<Message>) {
        self.replica.on_message(from, msg, fx);
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<Message>) {
        self.replica.on_timer(timer, fx);
    }
}

/// A [`RandomByzantine`] seated in an SMR cluster: its noise goes into
/// whichever slot it heard about last.
struct SlotFuzzer {
    inner: RandomByzantine,
    slot: u64,
}

impl SlotFuzzer {
    fn lift(&self, inner: Effects<Message>, fx: &mut Effects<SlotMessage>) {
        let lifted = |m: &Message| SlotMessage::Consensus {
            slot: self.slot,
            inner: m.clone(),
        };
        for out in inner.outgoing() {
            match out {
                Outgoing::To(to, m) => fx.send(*to, lifted(m)),
                Outgoing::All(m) => fx.broadcast(lifted(m)),
            }
        }
        for (delay, timer) in inner.timers_set() {
            fx.set_timer(*delay, *timer);
        }
    }
}

impl Actor<SlotMessage> for SlotFuzzer {
    fn on_start(&mut self, fx: &mut Effects<SlotMessage>) {
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        self.inner.on_start(&mut inner);
        self.lift(inner, fx);
    }

    fn on_message(&mut self, from: ProcessId, msg: SlotMessage, fx: &mut Effects<SlotMessage>) {
        if let SlotMessage::Consensus { slot, inner: msg } = msg {
            self.slot = slot;
            let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
            self.inner.on_message(from, msg, &mut inner);
            self.lift(inner, fx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<SlotMessage>) {
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        self.inner.on_timer(timer, &mut inner);
        self.lift(inner, fx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (d) Safety is independent of wishes: single-shot replicas that each
    /// start wishing for an arbitrary view `≤ f + 1`, with up to `f`
    /// message fuzzers and pre-GST chaos, never disagree — and still all
    /// decide once the network stabilizes.
    #[test]
    fn arbitrary_starting_wishes_keep_consensus_safe_and_live(
        seed in 0u64..10_000,
        wishes in proptest::collection::vec(1u64..=3, 7),
        fuzzers in proptest::collection::vec(0usize..7, 0..=2),
        gst in 0u64..20,
    ) {
        let cfg = generalized_seven();
        let network = if gst == 0 {
            Network::synchronous(DELTA)
        } else {
            Network::partially_synchronous(DELTA, SimTime(gst * DELTA.0), SimDuration(10 * DELTA.0))
        };
        let inputs = cfg.processes().map(|p| Value::from_u64(u64::from(p.0)));
        let faulty = cfg.processes().filter(|p| fuzzers.contains(&p.index()));
        let mut cluster = SimCluster::new(cfg.n(), seed, network, inputs, faulty, |p, keys, dir, input| {
            if fuzzers.contains(&p.index()) {
                Box::new(RandomByzantine::new(cfg, keys, seed ^ u64::from(p.0)))
            } else {
                Box::new(StartsWishing {
                    replica: Replica::new(cfg, keys, dir.clone(), input),
                    wish: View(wishes[p.index()]),
                })
            }
        });
        let report = cluster.run_until_all_decide();
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
        let deadline = SimTime((gst + 2_000) * DELTA.0);
        prop_assert!(report.all_decided && report.final_time <= deadline, "undecided by {deadline}");
    }

    /// (d′) The same weather over the whole stack, so that revocation runs
    /// in it: paced load on a pipelined cluster with p7 silent (someone to
    /// suspect), up to one more seat fuzzing into every slot it hears of,
    /// and pre-GST delays past the view timeout (false suspicions, tables
    /// that differ between nodes, revoked slots racing their leaders). Every
    /// command is applied exactly once at every correct node and the logs
    /// agree.
    #[test]
    fn revocation_under_fuzzers_and_chaos_keeps_at_most_once_and_agreement(
        seed in 0u64..10_000,
        fuzzer in 1u32..=6,
        gst in 0u64..20,
    ) {
        let cfg = generalized_seven();
        // p1 stays honest (the harness watches it): 1 means no fuzzer.
        let fuzzer = if fuzzer == 1 { 0 } else { fuzzer };
        let network = if gst == 0 {
            Network::synchronous(DELTA)
        } else {
            Network::partially_synchronous(DELTA, SimTime(gst * DELTA.0), SimDuration(10 * DELTA.0))
        };
        let (pairs, _) = KeyDirectory::generate(cfg.n(), seed);
        let mut cluster = pipelined(cfg, seed, network, |p, node| {
            if p.0 == 7 {
                Box::new(ScriptedActor::silent())
            } else if p.0 == fuzzer {
                let keys = pairs[p.index()].clone();
                Box::new(SlotFuzzer { inner: RandomByzantine::new(cfg, keys, seed ^ 0xf5), slot: 0 })
            } else {
                Box::new(node)
            }
        });
        let correct: Vec<ProcessId> =
            cfg.processes().filter(|p| p.0 != 7 && p.0 != fuzzer).collect();
        const COMMANDS: u64 = 30;
        for i in 0..COMMANDS {
            submit(&mut cluster, command(i), SimTime((i + 1) * DELTA.0));
        }
        // (A fuzzer-led slot may commit one of its palette values, which
        // counts as a command too: look for ours.)
        let ours = |c: &mut Cluster, p: ProcessId| {
            c.logs()[p.index()].values().filter(|v| v.as_u64() >= Some(1000)).count() as u64
        };
        let deadline = SimTime((gst + 3_000) * DELTA.0);
        cluster.run_until(deadline, |c| correct.iter().all(|p| ours(c, *p) >= COMMANDS));
        for p in &correct {
            prop_assert!(cluster.node(*p).snapshot_upto().is_none(), "one snapshot interval holds the run");
        }
        let revoked: u64 = correct
            .iter()
            .map(|p| cluster.registry().metrics(p.index()).slot_revoked_total.get())
            .sum();
        prop_assert!(revoked > 0, "the case never revoked a slot");
    }
}

/// One node (p1) driven by hand, each call into a fresh effect buffer.
struct Driven {
    node: Node,
    n: usize,
}

impl Driven {
    fn call(
        &mut self,
        f: impl FnOnce(&mut Node, &mut Effects<SlotMessage>),
    ) -> Effects<SlotMessage> {
        let mut fx = Effects::new(ProcessId(1), self.n, SimTime::ZERO);
        f(&mut self.node, &mut fx);
        fx
    }

    fn deliver(&mut self, from: u32, slot: u64, inner: Message) -> Effects<SlotMessage> {
        self.call(|node, fx| {
            node.on_message(ProcessId(from), SlotMessage::Consensus { slot, inner }, fx)
        })
    }

    /// Moves the slot-0 instance into `view` with wishes from four peers
    /// (plus the node's own: 2f + 1), then lets that view's timer expire.
    fn time_out_slot_zero_in(&mut self, view: u64, timer: TimerId) -> TimerId {
        let mut timer = timer;
        if view > 1 {
            for from in 4..=7 {
                let fx = self.deliver(from, 0, Message::Wish(WishMsg { view: View(view) }));
                if let Some((_, t)) = fx.timers_set().last() {
                    timer = *t;
                }
            }
        }
        let fx = self.call(|node, fx| node.on_timer(timer, fx));
        fx.timers_set().last().expect("expiry re-arms").1
    }
}

/// The views of the wishes `fx` sends for `slot`.
fn wishes_for(fx: &Effects<SlotMessage>, slot: u64) -> Vec<u64> {
    fx.sent()
        .into_iter()
        .filter_map(|(_, m)| match m {
            SlotMessage::Consensus {
                slot: s,
                inner: Message::Wish(w),
            } if s == slot => Some(w.view.0),
            _ => None,
        })
        .collect()
}

/// (e) The `≤ f` bound, on one node driven by hand: with one and two
/// suspects a slot they lead first opens wishing past them; with three
/// (`> f`: this node must be the partitioned one) nothing is skipped; a
/// verified proposal brings it back to two and skipping resumes. A fresh
/// node — which is what a restart is — suspects nobody.
#[test]
fn more_than_f_suspects_disable_skipping() {
    let cfg = generalized_seven();
    let (pairs, dir) = KeyDirectory::generate(7, 5);
    let fresh = || {
        SmrNode::new(
            cfg,
            pairs[0].clone(),
            dir.clone(),
            CountingMachine::new(),
            Vec::new(),
            Value::default(),
        )
    };
    let mut driven = Driven {
        node: fresh(),
        n: 7,
    };
    assert!(driven.node.suspected_leaders().is_empty());
    let fx = driven.call(|node, fx| node.on_start(fx));
    let timer = fx
        .timers_set()
        .last()
        .expect("slot 0 arms its view timer")
        .1;
    let poke = Message::Wish(WishMsg { view: View::FIRST });

    // Slot 0 rotates p2, p3, p4, … One suspect: slot 7 (p2 first) skips it.
    let timer = driven.time_out_slot_zero_in(1, timer);
    assert_eq!(driven.node.suspected_leaders(), vec![ProcessId(2)]);
    let fx = driven.deliver(5, 7, poke.clone());
    assert_eq!(wishes_for(&fx, 7), vec![2; 6], "one Wish(2) to each peer");

    // Two suspects (= f): slot 14 (p2, then p3) skips both.
    let timer = driven.time_out_slot_zero_in(2, timer);
    assert_eq!(
        driven.node.suspected_leaders(),
        vec![ProcessId(2), ProcessId(3)]
    );
    let fx = driven.deliver(5, 14, poke.clone());
    assert_eq!(wishes_for(&fx, 14), vec![3; 6]);
    // A slot with a live first leader never wishes, whoever comes second.
    let fx = driven.deliver(5, 6, poke.clone());
    assert_eq!(slot_leader(&cfg, 6, 1), ProcessId(1));
    assert_eq!(slot_leader(&cfg, 6, 2), ProcessId(2));
    assert!(wishes_for(&fx, 6).is_empty());

    // Three suspects (> f): no slot skips anything.
    driven.time_out_slot_zero_in(3, timer);
    assert_eq!(
        driven.node.suspected_leaders(),
        vec![ProcessId(2), ProcessId(3), ProcessId(4)]
    );
    for slot in [21, 22, 23] {
        let fx = driven.deliver(5, slot, poke.clone());
        assert!(wishes_for(&fx, slot).is_empty(), "slot {slot} skipped");
    }

    // A verified proposal from p4 (stale slot-23 view 1 is fine) clears it;
    // with two suspects left, slot 28 (p2, p3 first) skips again.
    let x = Value::from_u64(9);
    assert_eq!(slot_leader(&cfg, 23, 1), ProcessId(4));
    driven.deliver(
        4,
        23,
        Message::Propose(ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[3].sign(&propose_payload(&x, View::FIRST)),
        }),
    );
    assert_eq!(
        driven.node.suspected_leaders(),
        vec![ProcessId(2), ProcessId(3)]
    );
    let fx = driven.deliver(5, 28, poke);
    assert_eq!(wishes_for(&fx, 28), vec![3; 6]);

    // Restart = a new node on the same keys: nothing carried over.
    assert!(fresh().suspected_leaders().is_empty());
}

/// The rule holds mid-slot too: a wish that lands on a suspected leader
/// moves on at once, whether this node's own timer produced it or it was
/// adopted from `f + 1` peers. On real clocks a view change teaches only
/// the `f + 1` nodes whose timers fired first; this is what lets the
/// others' partial knowledge add up instead of waiting out a dead view.
#[test]
fn a_wish_that_lands_on_a_suspect_moves_on_at_once() {
    let cfg = generalized_seven();
    let (pairs, dir) = KeyDirectory::generate(7, 6);
    let node = SmrNode::new(
        cfg,
        pairs[0].clone(),
        dir,
        CountingMachine::new(),
        Vec::new(),
        Value::default(),
    );
    let mut driven = Driven { node, n: 7 };
    driven.call(|node, fx| node.on_start(fx));
    let poke = Message::Wish(WishMsg { view: View::FIRST });
    let wish2 = Message::Wish(WishMsg { view: View(2) });
    let last_timer = |fx: &Effects<SlotMessage>| fx.timers_set().last().expect("view timer").1;

    // Learn p7 alone: slot 5 is led by p7, then by this node.
    let fx = driven.deliver(2, 5, poke.clone());
    let timer = last_timer(&fx);
    let fx = driven.call(|node, fx| node.on_timer(timer, fx));
    assert_eq!(driven.node.suspected_leaders(), vec![ProcessId(7)]);
    assert_eq!(wishes_for(&fx, 5), vec![2; 6]);

    // Adopted wish: slot 4 is led by p6 (unknown here), then p7. It opens
    // without a wish; the third peer wish for view 2 (f + 1) is adopted —
    // and lands on p7, so the node wishes on to view 3 in the same step.
    assert_eq!(slot_leader(&cfg, 4, 1), ProcessId(6));
    assert_eq!(slot_leader(&cfg, 4, 2), ProcessId(7));
    for from in [2, 3] {
        let fx = driven.deliver(from, 4, wish2.clone());
        assert!(wishes_for(&fx, 4).is_empty());
    }
    let fx = driven.deliver(4, 4, wish2);
    assert_eq!(wishes_for(&fx, 4), [vec![2; 6], vec![3; 6]].concat());

    // Own timer: slot 11 is led by p6, then p7, again. The expiry teaches
    // p6 and wishes for view 2; p7 is known, so on to view 3 — the doubled
    // view-2 timeout the parent paid here is never armed.
    let fx = driven.deliver(2, 11, poke);
    assert!(wishes_for(&fx, 11).is_empty());
    let timer = last_timer(&fx);
    let fx = driven.call(|node, fx| node.on_timer(timer, fx));
    assert_eq!(
        driven.node.suspected_leaders(),
        vec![ProcessId(6), ProcessId(7)]
    );
    assert_eq!(wishes_for(&fx, 11), [vec![2; 6], vec![3; 6]].concat());
}

/// (e) Snapshot install empties the table. A replica cut off from the start
/// suspects the one leader it timed out on; while it is far behind nothing
/// it receives can clear that (its peers' slots are beyond its window), and
/// the instant it installs a snapshot the table is empty.
#[test]
fn snapshot_install_starts_with_an_empty_table() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let victim = ProcessId(4);
    let live = [ProcessId(1), ProcessId(2), ProcessId(3)];
    let plan = FaultPlan::new();
    let cut = LinkProfile::cut();
    plan.set_rules(LinkRules {
        pairs: [((victim, victim), cut)].into(),
        by_src: [(victim, cut)].into(),
        by_dst: [(victim, cut)].into(),
    });
    let network = plan.network(DELTA, 41);
    // Snapshots every 16 slots; the live side runs 100 slots ahead — past
    // the victim's window of 64 — and still has work left after the heal
    // (an idle cluster sends a laggard nothing to notice the gap by).
    let mut cluster = sequential(cfg, 41, network, 140, Some(16), |_, node| Box::new(node));
    let mut applied_at = Vec::new();
    run_until_applied(&mut cluster, &mut applied_at, &live, 100, |_| {});
    assert_eq!(cluster.node(victim).applied(), 0);
    assert_eq!(
        suspects(&cluster, victim),
        vec![2],
        "slot 0's leader timed out"
    );

    plan.heal();
    let horizon = SimTime(cluster.sim().now().0 + 1_000 * DELTA.0);
    cluster.run_until(horizon, |c| {
        let installed = c.node(victim).snapshot_upto().is_some();
        if !installed {
            assert_eq!(suspects(c, victim), vec![2], "cleared before install");
        }
        installed
    });
    assert!(suspects(&cluster, victim).is_empty());
    let m = cluster.registry().metrics(victim.index());
    assert_eq!(m.snapshot_installed_total.get(), 1);
    assert_eq!(m.leader_clear_total.get(), 1);
}

/// The default `SmrNode` pipeline depth.
const PIPELINE_DEPTH: usize = 16;

/// Open instances — running, or decided and parked behind an earlier slot
/// — never exceed the pipeline window at any node of `who`.
fn window_bound(who: &[ProcessId]) -> impl Fn(&Cluster) + '_ {
    move |c: &Cluster| {
        for p in who {
            let node = c.node(*p);
            assert!(
                node.open_slots() <= PIPELINE_DEPTH,
                "{p}: {} open slots above {}",
                node.open_slots(),
                node.applied()
            );
        }
    }
}

/// (f) Revoking ahead. Paced open-loop load — one command per Δ, the
/// pipeline at its default depth — with seats 6–7 silent. Once the first
/// rotation has taught everyone, every dead-led slot is started ahead of
/// the pipeline with the empty batch, so client commands land only in
/// live-led slots and commit at the slow path's 3Δ whoever's turn it is to
/// lead (7Δ for 2 of every 7 before). Then silence: the cluster goes quiet
/// with nothing running, and a stray frame does not start it revoking.
#[test]
fn paced_load_commits_at_three_delays_whoever_leads() {
    let cfg = generalized_seven();
    let live: Vec<ProcessId> = (1..=5).map(ProcessId).collect();
    let mut cluster = pipelined(cfg, 17, Network::synchronous(DELTA), two_silent_seats);
    // Batch 1: a slot decides one command or the empty batch. 80 commands
    // stay inside one snapshot interval, so every slot's batch is there to
    // read at the end.
    const COMMANDS: u64 = 80;
    let submitted_at = |i: u64| SimTime((i + 1) * DELTA.0);
    for i in 0..COMMANDS {
        submit(&mut cluster, command(i), submitted_at(i));
    }
    let mut committed_at = Vec::new();
    run_dry(
        &mut cluster,
        &live,
        cfg.f(),
        &mut committed_at,
        window_bound(&live),
    );

    // Quiet: the queue ran dry with every command applied everywhere, no
    // instance running, and what is parked is revoked slots above the hole
    // the next command will fill.
    let slots = cluster.node(ProcessId(1)).applied();
    for p in &live {
        let node = cluster.node(*p);
        assert_eq!(node.commands_applied(), COMMANDS, "at {p}");
        assert_eq!(node.applied(), slots, "at {p}");
        assert_eq!(node.running_slots(), 0, "at {p}");
        assert!(node.snapshot_upto().is_none(), "at {p}");
        assert_eq!(suspects(&cluster, *p), vec![6, 7], "at {p}");
    }

    // The first rotation pays slot 4's two timeouts; one view change later
    // the revoked slots are ahead of the load for good.
    let settled = SimTime(committed_at[6].0 + VIEW_CHANGE_SLOT);
    let decided = decided(&mut cluster, ProcessId(1));
    let mut seen = 0;
    let mut steady = None;
    for (slot, batch) in decided.iter().enumerate() {
        let [entry] = batch.as_slice() else {
            assert_eq!(*batch, empty_batch(), "slot {slot}");
            continue;
        };
        let i = entry.as_u64().expect("a client command") - 1000;
        assert_eq!(i, seen, "commands commit once each, in submission order");
        seen += 1;
        if submitted_at(i) >= settled {
            steady.get_or_insert(slot as u64);
            let took = committed_at[slot].since(submitted_at(i)).0;
            assert!(
                took <= 3 * DELTA.0 + DELTA.0,
                "command {i} (slot {slot}) took {took}"
            );
        }
    }
    assert_eq!(seen, COMMANDS);
    let steady = steady.expect("learning took too long");
    assert!(steady <= 7 * 7, "steady state began at slot {steady}");

    // What was revoked: slots a dead seat leads first, once each, and each
    // decided the empty batch. In the steady state that is every such slot
    // — two per rotation — so no client command sits in a dead-led slot.
    let at_p1 = revoked(&cluster, ProcessId(1));
    assert!(at_p1.windows(2).all(|w| w[0].0 < w[1].0), "{at_p1:?}");
    for (slot, leader) in &at_p1 {
        assert_eq!(slot_leader(&cfg, *slot, 1).0, *leader);
        assert!(*leader >= 6, "slot {slot} revoked from live p{leader}");
        if *slot < slots {
            assert_eq!(
                decided[*slot as usize],
                empty_batch(),
                "revoked slot {slot}"
            );
        }
    }
    for rotation in steady.div_ceil(7)..slots / 7 {
        let in_rotation: Vec<u64> = at_p1
            .iter()
            .map(|(s, _)| *s)
            .filter(|s| s / 7 == rotation)
            .collect();
        assert_eq!(in_rotation, vec![7 * rotation + 4, 7 * rotation + 5]);
    }
    // Revoking stopped with the load, inside the last window.
    let horizon = slots + PIPELINE_DEPTH as u64;
    assert!(at_p1.last().unwrap().0 < horizon);
    for p in &live {
        assert_eq!(revoked(&cluster, *p), at_p1, "at {p}");
        let m = cluster.registry().metrics(p.index());
        assert_eq!(m.slot_revoked_total.get(), at_p1.len() as u64, "at {p}");
    }
    let text = cluster.registry().render_text();
    assert!(text.contains(&format!(
        "fastbft_slot_revoked_total{{replica=\"p3\"}} {}",
        at_p1.len()
    )));
    let json = cluster.registry().render_json();
    assert!(json.contains(&format!(
        "\"detail\":\"revoke slot {} (leader p{})\"",
        at_p1[0].0, at_p1[0].1
    )));

    // Revoking needs this node's own proposals running. A stray frame for
    // a far dead-led slot opens that one slot reactively everywhere (it
    // decides the empty batch through a view change, as any such slot
    // would); no node revokes anything on it, and the cluster goes quiet
    // again.
    let open: Vec<usize> = live.iter().map(|p| cluster.node(*p).open_slots()).collect();
    let stray = (horizon..)
        .find(|s| slot_leader(&cfg, *s, 1).0 >= 6)
        .expect("two of every seven");
    let now = cluster.sim().now();
    cluster.sim_mut().inject_message(
        ProcessId(2),
        ProcessId(1),
        SlotMessage::Consensus {
            slot: stray,
            inner: Message::Wish(WishMsg { view: View::FIRST }),
        },
        now,
    );
    run_dry(&mut cluster, &live, cfg.f(), &mut committed_at, |_| {});
    for (p, open) in live.iter().zip(open) {
        let node = cluster.node(*p);
        assert_eq!(node.applied(), slots, "at {p}");
        assert_eq!(node.running_slots(), 0, "at {p}");
        assert_eq!(node.open_slots(), open + 1, "the stray slot, at {p}");
        assert_eq!(revoked(&cluster, *p), at_p1, "at {p}");
    }
}

/// (f′) The same under backlog, where the window is always full: every
/// command is queued at once, so each advance brings exactly one new tail
/// slot into the window and the fill loop is there to take it. A dead-led
/// tail slot gets the empty batch all the same — the decision sits where a
/// slot's proposal is chosen, not in who asks for the slot — so once the
/// seats are known no command is decided in a slot they lead.
#[test]
fn a_backlog_puts_no_command_in_a_dead_led_slot() {
    let cfg = generalized_seven();
    let live: Vec<ProcessId> = (1..=5).map(ProcessId).collect();
    let mut cluster = pipelined(cfg, 19, Network::synchronous(DELTA), two_silent_seats);
    const COMMANDS: u64 = 70;
    for i in 0..COMMANDS {
        submit(&mut cluster, command(i), SimTime(DELTA.0));
    }
    run_dry(
        &mut cluster,
        &live,
        cfg.f(),
        &mut Vec::new(),
        window_bound(&live),
    );

    let decided = decided(&mut cluster, ProcessId(1));
    let at_p1 = revoked(&cluster, ProcessId(1));
    // (The first window, and what follows it until slot 4 has timed out,
    // opens before anyone knows.)
    let learned = at_p1.first().expect("nothing was ever revoked").0;
    assert!(learned <= 4 * 7, "learning took until slot {learned}");
    let dead_led: Vec<u64> = (learned..decided.len() as u64)
        .filter(|s| slot_leader(&cfg, *s, 1).0 >= 6)
        .collect();
    assert!(dead_led.len() >= 16, "{dead_led:?}");
    for slot in &dead_led {
        assert_eq!(
            decided[*slot as usize],
            empty_batch(),
            "dead-led slot {slot}"
        );
    }
    for p in &live {
        let node = cluster.node(*p);
        assert_eq!(node.commands_applied(), COMMANDS, "at {p}");
        assert_eq!(node.running_slots(), 0, "at {p}");
        let at_p: Vec<u64> = revoked(&cluster, *p).iter().map(|(s, _)| *s).collect();
        assert!(dead_led.iter().all(|s| at_p.contains(s)), "at {p}");
    }
}

/// (g) Revoking a *live* leader's slot loses nothing. p3's outbound traffic
/// is cut past one timeout, so everyone else suspects it and revokes the
/// slots it leads first. After the heal the next revoked slot reaches p3 as
/// wishes for a slot it has not opened: it opens it, proposes as its first
/// leader, and that proposal clears it everywhere — from then on its slots
/// carry commands again.
#[test]
fn a_live_leaders_revoked_slot_is_proposed_by_it_and_clears_it() {
    let cfg = generalized_seven();
    let victim = ProcessId(3);
    let all: Vec<ProcessId> = cfg.processes().collect();
    let others: Vec<ProcessId> = all.iter().copied().filter(|p| *p != victim).collect();
    let plan = FaultPlan::new();
    plan.set_rules(muted(victim));
    let mut cluster = pipelined(cfg, 23, plan.network(DELTA, 23), |_, node| Box::new(node));
    let mut applied_at = Vec::new();
    const COMMANDS: u64 = 60;
    for i in 0..COMMANDS {
        submit(&mut cluster, command(i), SimTime((i + 1) * DELTA.0));
    }

    // p3 leads slots 1, 8, 15, … Slot 1 times out at everyone else (slot 8
    // is open by then, its proposal lost too), who then revoke.
    assert_eq!(slot_leader(&cfg, 1, 1), victim);
    run_until_applied(&mut cluster, &mut applied_at, &others, 2, |_| {});
    for p in &others {
        assert_eq!(suspects(&cluster, *p), vec![3], "at {p}");
        assert_eq!(revoked(&cluster, *p).first(), Some(&(15, 3)), "at {p}");
    }
    assert!(suspects(&cluster, victim).is_empty(), "p3 heard everyone");

    // Heal. Every slot p3 leads first from here on is revoked until it is
    // cleared, so the proposal that clears it is one for a revoked slot.
    plan.heal();
    run_dry(
        &mut cluster,
        &all,
        cfg.f(),
        &mut Vec::new(),
        window_bound(&all),
    );

    let at_p1 = revoked(&cluster, ProcessId(1));
    let decided = decided(&mut cluster, ProcessId(1));
    // Revoked: slots p3 leads first, in a row, by everyone but p3 — which
    // proposed its own queue there, so what such a slot decided is the
    // empty batch or a command, as the view change found it.
    assert!(at_p1.len() >= 2, "{at_p1:?}");
    for (k, (slot, leader)) in at_p1.iter().enumerate() {
        assert_eq!((*slot, *leader), (15 + 7 * k as u64, 3));
    }
    assert!(revoked(&cluster, victim).is_empty());
    for p in &all {
        assert!(suspects(&cluster, *p).is_empty(), "at {p}");
        assert_eq!(cluster.node(*p).open_slots(), 0, "at {p}");
    }
    for p in &others {
        let cleared = cluster
            .registry()
            .metrics(p.index())
            .leader_clear_total
            .get();
        assert_eq!(cleared, 1, "p3, once, at {p}");
    }
    // Nothing lost; `run_dry` checked the rest. (A slot commits its
    // leader's queue head and p3's queue is not in step with the others'
    // after the outage, so order across slots is not asserted.)
    let mut committed: Vec<u64> = decided
        .iter()
        .flatten()
        .map(|v| v.as_u64().unwrap() - 1000)
        .collect();
    committed.sort_unstable();
    assert_eq!(committed, (0..COMMANDS).collect::<Vec<_>>());
    // Cleared, p3 is an ordinary leader again: its later slots are not
    // revoked and carry commands.
    let last_revoked = at_p1.last().unwrap().0;
    let later: Vec<u64> = (last_revoked + 1..decided.len() as u64)
        .filter(|s| slot_leader(&cfg, *s, 1) == victim)
        .collect();
    assert!(later.len() >= 2, "{later:?}");
    for slot in later {
        assert_ne!(decided[slot as usize], empty_batch(), "slot {slot}");
    }
}

/// (h) Fewer than `f + 1` suspecting nodes revoke alone and move nobody.
/// p4 and p5 are cut off while slot 0 runs, so they — and only they — time
/// out on its leader p2, which then really crashes. Under load the two
/// revoke the slots p2 leads first; their two wishes stay below the `f + 1`
/// adoption threshold, so everyone else opens those slots reactively and
/// waits out the view-1 timeout exactly as today (only started earlier).
/// No command is lost or duplicated on the way.
#[test]
fn a_minority_that_revokes_alone_changes_nothing_for_the_rest() {
    let cfg = generalized_seven();
    let crashed = ProcessId(2);
    let knowing = [ProcessId(4), ProcessId(5)];
    let unknowing = [ProcessId(1), ProcessId(3), ProcessId(6), ProcessId(7)];
    let live: Vec<ProcessId> = cfg.processes().filter(|p| *p != crashed).collect();
    let healed_at = SimTime(9 * DELTA.0);
    let plan = FaultPlan::new();
    plan.set_rules(LinkRules {
        pairs: knowing.map(|p| ((p, p), LinkProfile::cut())).into(),
        by_dst: knowing.map(|p| (p, LinkProfile::cut())).into(),
        ..LinkRules::default()
    });
    let mut cluster = pipelined(cfg, 29, plan.network(DELTA, 29), |_, node| Box::new(node));
    assert_eq!(slot_leader(&cfg, 0, 1), crashed);
    assert_eq!(slot_leader(&cfg, 7, 1), crashed);
    cluster.sim_mut().schedule_crash(crashed, healed_at);
    const COMMANDS: u64 = 40;
    let first_command_at = SimTime(12 * DELTA.0);
    for i in 0..COMMANDS {
        submit(
            &mut cluster,
            command(i),
            SimTime(first_command_at.0 + i * DELTA.0),
        );
    }

    // Idle start: slot 0 decides without the two, who time out on p2 and
    // catch up by backfill after the heal — from the first send at
    // `healed_at` on.
    cluster.sim_mut().run_until(SimTime(healed_at.0 - 1));
    plan.heal();
    cluster.sim_mut().run_until(SimTime(first_command_at.0 - 1));
    for p in &live {
        assert_eq!(cluster.node(*p).applied(), 1, "at {p}");
        let expected = if knowing.contains(p) { vec![2] } else { vec![] };
        assert_eq!(suspects(&cluster, *p), expected, "at {p}");
    }

    // The two revoke slot 7 once their first commands overlap; the rest
    // open it on their wishes one delay later and sit in view 1 until their
    // own timers expire.
    let mut committed_at = vec![SimTime::ZERO];
    let timeout_at = SimTime(first_command_at.0 + DELTA.0 + BASE_TIMEOUT);
    run_dry(&mut cluster, &live, cfg.f(), &mut committed_at, |c| {
        if c.sim().now() < timeout_at {
            for p in unknowing {
                assert!(suspects(c, p).is_empty(), "at {p}");
                assert!(revoked(c, p).is_empty(), "at {p}");
            }
            assert!(c.node(ProcessId(1)).applied() <= 7);
        }
    });
    // (Slot 21 enters the two's window while slot 7 holds everything up.)
    for p in knowing {
        assert_eq!(
            revoked(&cluster, p)[..3],
            [(7, 2), (14, 2), (21, 2)],
            "at {p}"
        );
    }
    assert!(
        committed_at[7] >= SimTime(timeout_at.0 + 6 * DELTA.0),
        "slot 7 committed at {:?}",
        committed_at[7]
    );
    // The timeout taught the rest; from the next rotation on all revoke.
    for p in &live {
        assert_eq!(suspects(&cluster, *p), vec![2], "at {p}");
        assert!(revoked(&cluster, *p).contains(&(28, 2)), "at {p}");
        assert_eq!(cluster.node(*p).running_slots(), 0, "at {p}");
    }
    let decided = decided(&mut cluster, ProcessId(1));
    assert_eq!(decided[7], empty_batch());
    assert_eq!(decided[14], empty_batch());
    let committed: Vec<u64> = decided
        .iter()
        .flatten()
        .map(|v| v.as_u64().unwrap() - 1000)
        .collect();
    assert_eq!(committed, (0..COMMANDS).collect::<Vec<_>>());
}
