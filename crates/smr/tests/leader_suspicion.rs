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
//! exactly Δ, the view-1 timeout is the default 8Δ, and every cluster uses
//! pipeline depth 1 and batch 1, so slot `s` opens the instant slot `s − 1`
//! applies and a slot's latency is the gap between two applies.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fastbft_core::byzantine::RandomByzantine;
use fastbft_core::message::{Message, ProposeMsg, WishMsg};
use fastbft_core::payload::propose_payload;
use fastbft_core::replica::{Replica, ReplicaOptions};
use fastbft_core::ProgressCert;
use fastbft_crypto::KeyDirectory;
use fastbft_obs::MetricsRegistry;
use fastbft_sim::{
    Actor, ConsensusChecker, Effects, Network, Outgoing, ScriptedActor, SimDuration, SimTime,
    Simulation, TimerId, TraceEvent,
};
use fastbft_smr::{offset_logs_consistent, CountingMachine, SlotMessage, SmrNode};
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

fn idle() -> Value {
    Value::from_u64(0)
}

fn generalized_seven() -> Config {
    Config::new(7, 2, 1).unwrap()
}

/// The seat leading view `view` of slot `slot` (the SMR rotation).
fn slot_leader(cfg: &Config, slot: u64, view: u64) -> ProcessId {
    cfg.with_leader_offset(slot).leader(View(view))
}

/// A simulated SMR cluster whose seats the test chooses one by one, with a
/// metrics block per seat and the apply time of every slot as seen by p1.
struct Cluster {
    sim: Simulation<SlotMessage>,
    registry: MetricsRegistry,
    /// `applied_at[s]`: when p1 applied slot `s`.
    applied_at: Vec<SimTime>,
}

impl Cluster {
    /// Every seat gets an honest node with the same `commands`-long client
    /// queue (the broadcast client model); `seat` may keep it, wrap it or
    /// replace it.
    fn new(
        cfg: Config,
        seed: u64,
        network: Network,
        commands: u64,
        snapshot_interval: Option<u64>,
        mut seat: impl FnMut(ProcessId, Node) -> BoxedActor,
    ) -> Self {
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
        let registry = MetricsRegistry::new(cfg.n());
        let mut sim = Simulation::new(network, seed);
        for p in cfg.processes() {
            let mut node = SmrNode::new(
                cfg,
                pairs[p.index()].clone(),
                dir.clone(),
                CountingMachine::new(),
                (0..commands).map(|i| Value::from_u64(1000 + i)),
                idle(),
            )
            .with_options(ReplicaOptions {
                metrics: registry.replica(p.index()),
                ..ReplicaOptions::default()
            })
            .with_pipeline_depth(1);
            if let Some(interval) = snapshot_interval {
                node = node.with_snapshot_interval(interval);
            }
            sim.add_actor(seat(p, node));
        }
        sim.start();
        Cluster {
            sim,
            registry,
            applied_at: Vec::new(),
        }
    }

    fn node(&self, p: ProcessId) -> &Node {
        self.sim
            .actor(p)
            .as_any()
            .and_then(|any| any.downcast_ref::<Node>())
            .unwrap_or_else(|| panic!("{p} does not hold an honest node"))
    }

    fn suspects(&self, p: ProcessId) -> Vec<u32> {
        self.node(p)
            .suspected_leaders()
            .iter()
            .map(|s| s.0)
            .collect()
    }

    /// One simulator event, then bookkeeping and the caller's invariant.
    fn step(&mut self, mut check: impl FnMut(&Cluster)) -> bool {
        let more = self.sim.step();
        while (self.applied_at.len() as u64) < self.node(ProcessId(1)).applied() {
            self.applied_at.push(self.sim.now());
        }
        check(self);
        more
    }

    /// Runs until every seat in `who` applied `slots` slots.
    fn run_until_applied(&mut self, who: &[ProcessId], slots: u64, check: impl Fn(&Cluster)) {
        let horizon = SimTime(10_000 * DELTA.0);
        while who.iter().any(|p| self.node(*p).applied() < slots) {
            assert!(
                self.step(&check) && self.sim.now() < horizon,
                "stalled before {slots} slots: applied {:?} at {:?}",
                who.iter()
                    .map(|p| self.node(*p).applied())
                    .collect::<Vec<_>>(),
                self.sim.now()
            );
        }
    }

    /// Open-to-apply time of slot `s` at p1 (depth 1: a slot opens when
    /// its predecessor applies).
    fn latency(&self, s: usize) -> u64 {
        let opened = if s == 0 {
            SimTime::ZERO
        } else {
            self.applied_at[s - 1]
        };
        self.applied_at[s].since(opened).0
    }

    /// Wish messages handed to the network at or after `from`.
    fn wishes_sent_since(&self, from: SimTime) -> usize {
        self.sim
            .trace()
            .records()
            .iter()
            .filter(|r| r.at >= from)
            .filter(|r| matches!(r.event, TraceEvent::Send { kind: "wish", .. }))
            .count()
    }

    fn view_changes(&self, p: ProcessId) -> u64 {
        self.registry.metrics(p.index()).view_change_total.get()
    }

    fn logs_agree(&self, who: &[ProcessId]) -> bool {
        let logs: Vec<(u64, &[Value])> = who
            .iter()
            .map(|p| (self.node(*p).log_offset(), self.node(*p).log()))
            .collect();
        offset_logs_consistent(&logs)
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
    let mut cluster = Cluster::new(
        cfg,
        17,
        Network::synchronous(DELTA),
        SLOTS,
        None,
        |p, node| {
            if p.0 >= 6 {
                Box::new(ScriptedActor::silent())
            } else {
                Box::new(node)
            }
        },
    );

    // First rotation: slot 4 is led by p6 then p7 and pays both timeouts
    // (8Δ, then the doubled 16Δ) before p1's view decides it.
    cluster.run_until_applied(&live, 7, |_| {});
    assert_eq!(slot_leader(&cfg, 4, 1), ProcessId(6));
    assert_eq!(slot_leader(&cfg, 4, 2), ProcessId(7));
    assert!(
        cluster.latency(4) >= 3 * BASE_TIMEOUT,
        "slot 4 took {}",
        cluster.latency(4)
    );
    for p in &live {
        assert_eq!(cluster.suspects(*p), vec![6, 7], "at {p}");
    }
    // Slot 5 (p7 first) already benefits inside the first rotation.
    assert!(cluster.latency(5) <= VIEW_CHANGE_SLOT);

    let learned_at = cluster.sim.now();
    let view_changes_then: Vec<u64> = live.iter().map(|p| cluster.view_changes(*p)).collect();
    cluster.run_until_applied(&live, SLOTS, |_| {});

    let mut dead_led = 0;
    for s in 7..SLOTS as usize {
        let first = slot_leader(&cfg, s as u64, 1);
        if first.0 >= 6 {
            dead_led += 1;
            assert!(
                cluster.latency(s) <= VIEW_CHANGE_SLOT,
                "dead-led slot {s} took {} (> 7Δ)",
                cluster.latency(s)
            );
        } else {
            // Five live seats are below the fast quorum of six: slow path.
            assert_eq!(cluster.latency(s), 3 * DELTA.0, "live-led slot {s}");
        }
    }
    assert_eq!(dead_led, 6, "slots 11, 12, 18, 19, 25, 26");
    // No view timer did anything: the only wishes on the wire are the one
    // broadcast each live node makes when it opens a dead-led slot (a firing
    // timer re-broadcasts its wish), and each such slot is entered once.
    assert_eq!(
        cluster.wishes_sent_since(learned_at),
        dead_led * live.len() * (cfg.n() - 1)
    );
    for (p, before) in live.iter().zip(view_changes_then) {
        assert_eq!(cluster.view_changes(*p) - before, dead_led as u64, "at {p}");
        let m = cluster.registry.metrics(p.index());
        assert_eq!(m.leader_suspect_total.get(), 2);
        assert_eq!(m.leader_suspected.get(), 2);
        assert_eq!(
            m.view_skip_total.get(),
            dead_led as u64 + 1,
            "+1: slot 5 at {p}"
        );
    }
    assert!(cluster.logs_agree(&live));
    for p in &live {
        assert_eq!(cluster.node(*p).commands_applied(), SLOTS);
    }
    // Both exporters print exactly what happened, and the flight-recorder
    // tail names the seats and where they were caught.
    let text = cluster.registry.render_text();
    assert!(text.contains("fastbft_leader_suspected{replica=\"p3\"} 2"));
    assert!(text.contains("fastbft_leader_suspect_total{replica=\"p3\"} 2"));
    assert!(text.contains("fastbft_leader_clear_total{replica=\"p3\"} 0"));
    assert!(text.contains("fastbft_view_skip_total{replica=\"p3\"} 7"));
    let json = cluster.registry.render_json();
    assert!(json.contains("\"detail\":\"suspect p6 (slot 4, view 1)\""));
    assert!(json.contains("\"detail\":\"suspect p7 (slot 4, view 2)\""));
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
    let cut = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&cut);
    let network = Network::scripted(DELTA, move |info| {
        if flag.load(Ordering::Relaxed) && info.from == victim && info.to != victim {
            SimTime::NEVER
        } else {
            info.sent_at + DELTA
        }
    });
    let mut cluster = Cluster::new(cfg, 23, network, 21, None, |_, node| Box::new(node));

    // p3 leads slots 1, 8, 15. Cut off, slot 1 times out at everyone else.
    assert_eq!(slot_leader(&cfg, 1, 1), victim);
    cluster.run_until_applied(&all, 2, |_| {});
    assert!(cluster.latency(1) >= BASE_TIMEOUT);
    for p in &others {
        assert_eq!(cluster.suspects(*p), vec![3], "at {p}");
    }
    assert!(cluster.suspects(victim).is_empty(), "p3 heard everyone");

    // Heal. Slot 8 opens with the others wishing past p3 — and p3's
    // proposal, arriving with those wishes, clears it. No timeout is paid.
    cut.store(false, Ordering::Relaxed);
    assert_eq!(slot_leader(&cfg, 8, 1), victim);
    cluster.run_until_applied(&all, 9, |_| {});
    assert!(
        cluster.latency(8) <= VIEW_CHANGE_SLOT,
        "{}",
        cluster.latency(8)
    );
    for p in &all {
        assert!(cluster.suspects(*p).is_empty(), "at {p}");
    }
    for p in &others {
        let m = cluster.registry.metrics(p.index());
        assert_eq!(m.leader_clear_total.get(), 1, "at {p}");
        assert_eq!(m.leader_suspected.get(), 0, "at {p}");
    }

    // One rotation later p3's slot is an ordinary view-1 fast-path slot.
    let view_changes_then: Vec<u64> = all.iter().map(|p| cluster.view_changes(*p)).collect();
    assert_eq!(slot_leader(&cfg, 15, 1), victim);
    cluster.run_until_applied(&all, 16, |_| {});
    for s in 9..16 {
        assert_eq!(cluster.latency(s), 2 * DELTA.0, "slot {s}");
    }
    for (p, before) in all.iter().zip(view_changes_then) {
        assert_eq!(cluster.view_changes(*p), before, "view change at {p}");
    }
    assert!(cluster.logs_agree(&all));
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
    let mut cluster = Cluster::new(
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
    let only_byzantine_suspects = |c: &Cluster| {
        for p in 1..=5 {
            let suspects = c.suspects(ProcessId(p));
            assert!(
                suspects.iter().all(|s| *s >= 6),
                "p{p} suspects a correct seat: {suspects:?}"
            );
        }
    };
    cluster.run_until_applied(&correct, SLOTS, only_byzantine_suspects);

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
        let took = cluster.latency(s as usize);
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
            cluster.latency(s),
            BASE_TIMEOUT + VIEW_CHANGE_SLOT,
            "slot {s}"
        );
    }
    assert!(cluster.logs_agree(&correct));
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

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
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
        let network = if gst == 0 {
            Network::synchronous(DELTA)
        } else {
            Network::partially_synchronous(DELTA, SimTime(gst * DELTA.0), SimDuration(10 * DELTA.0))
        };
        let mut sim = Simulation::new(network, seed + 1);
        let inputs: BTreeMap<ProcessId, Value> =
            cfg.processes().map(|p| (p, Value::from_u64(u64::from(p.0)))).collect();
        for p in cfg.processes() {
            let keys = pairs[p.index()].clone();
            if fuzzers.contains(&p.index()) {
                sim.add_actor(Box::new(RandomByzantine::new(cfg, keys, seed ^ u64::from(p.0))));
            } else {
                sim.add_actor(Box::new(StartsWishing {
                    replica: Replica::new(cfg, keys, dir.clone(), inputs[&p].clone()),
                    wish: View(wishes[p.index()]),
                }));
            }
        }
        let byzantine: Vec<ProcessId> =
            cfg.processes().filter(|p| fuzzers.contains(&p.index())).collect();
        let correct: Vec<ProcessId> =
            cfg.processes().filter(|p| !byzantine.contains(p)).collect();
        sim.start();
        let deadline = SimTime((gst + 2_000) * DELTA.0);
        sim.run_until_all_decide(&correct, deadline);
        let violations = ConsensusChecker::new(inputs)
            .with_byzantine_set(byzantine)
            .check_all(sim.trace(), deadline);
        prop_assert!(violations.is_empty(), "{violations:?}");
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
            idle(),
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
        idle(),
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
    let healed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&healed);
    let network = Network::scripted(DELTA, move |info| {
        if !flag.load(Ordering::Relaxed) && (info.from == victim || info.to == victim) {
            SimTime::NEVER
        } else {
            info.sent_at + DELTA
        }
    });
    // Snapshots every 16 slots; the live side runs 100 slots ahead — past
    // the victim's window of 64 — and still has work left after the heal
    // (an idle cluster sends a laggard nothing to notice the gap by).
    let mut cluster = Cluster::new(cfg, 41, network, 140, Some(16), |_, node| Box::new(node));
    cluster.run_until_applied(&live, 100, |_| {});
    assert_eq!(cluster.node(victim).applied(), 0);
    assert_eq!(
        cluster.suspects(victim),
        vec![2],
        "slot 0's leader timed out"
    );

    healed.store(true, Ordering::Relaxed);
    let horizon = SimTime(cluster.sim.now().0 + 1_000 * DELTA.0);
    while cluster.node(victim).snapshot_upto().is_none() {
        assert_eq!(cluster.suspects(victim), vec![2], "cleared before install");
        assert!(
            cluster.step(|_| {}) && cluster.sim.now() < horizon,
            "no install"
        );
    }
    assert!(cluster.suspects(victim).is_empty());
    let m = cluster.registry.metrics(victim.index());
    assert_eq!(m.snapshot_installed_total.get(), 1);
    assert_eq!(m.leader_clear_total.get(), 1);
}
