//! The discrete-event simulation kernel.
//!
//! Deterministic: a simulation is fully described by (actors, network, seed).
//! Events at equal times are processed in a fixed class order
//! (crashes, then deliveries and client submissions, then timers), then in
//! FIFO order of creation, so reruns are bit-identical — every experiment in
//! this repository is reproducible from its seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use fastbft_types::{ProcessId, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, Effects, Outgoing, SimMessage, TimerId};
use crate::network::{Network, SendInfo};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};

/// What happens at a scheduled instant.
#[derive(Debug)]
enum EventKind<M> {
    /// The node stops taking steps (before processing anything else at that
    /// instant — the lower-bound construction crashes processes "at time Δ"
    /// meaning they send nothing at Δ or later).
    Crash,
    /// A message is delivered.
    Deliver { from: ProcessId, msg: M },
    /// A timer fires.
    Timer(TimerId),
    /// A client hands the node a command ([`Actor::on_client`]).
    Client(Value),
}

impl<M> EventKind<M> {
    /// Same-instant processing order.
    fn class(&self) -> u8 {
        match self {
            EventKind::Crash => 0,
            // A submission is an arrival like any other: FIFO with the
            // instant's deliveries.
            EventKind::Deliver { .. } | EventKind::Client(_) => 1,
            EventKind::Timer(_) => 2,
        }
    }
}

struct QueuedEvent<M> {
    at: SimTime,
    class: u8,
    seq: u64,
    node: usize,
    kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.class, self.seq) == (other.at, other.class, other.seq)
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.class, other.seq).cmp(&(self.at, self.class, self.seq))
    }
}

struct NodeSlot<M: SimMessage> {
    actor: Box<dyn Actor<M>>,
    crashed: bool,
    decided: Option<(SimTime, Value)>,
}

/// A single-shot consensus simulation over `n` actors.
///
/// ```
/// use fastbft_sim::{Simulation, Network, SimDuration, ScriptedActor, SimMessage};
/// # use fastbft_types::ProcessId;
/// #[derive(Clone, Debug)]
/// struct Hello;
/// impl SimMessage for Hello {
///     fn kind(&self) -> &'static str { "hello" }
///     fn wire_size(&self) -> usize { 5 }
/// }
///
/// let mut sim = Simulation::<Hello>::new(Network::synchronous(SimDuration::DELTA), 1);
/// sim.add_actor(Box::new(ScriptedActor::broadcaster(Hello)));
/// sim.add_actor(Box::new(ScriptedActor::silent()));
/// sim.start();
/// sim.run_to_quiescence();
/// // p1's broadcast to p1 and p2 was delivered one Δ later.
/// assert_eq!(sim.trace().message_stats(fastbft_sim::SimTime::NEVER).messages, 2);
/// ```
pub struct Simulation<M: SimMessage> {
    nodes: Vec<NodeSlot<M>>,
    network: Network,
    queue: BinaryHeap<QueuedEvent<M>>,
    seq: u64,
    send_seq: u64,
    now: SimTime,
    started: bool,
    trace: Trace,
    rng: StdRng,
}

impl<M: SimMessage> Simulation<M> {
    /// Creates an empty simulation with the given network model and RNG seed.
    pub fn new(network: Network, seed: u64) -> Self {
        Simulation {
            nodes: Vec::new(),
            network,
            queue: BinaryHeap::new(),
            seq: 0,
            send_seq: 0,
            now: SimTime::ZERO,
            started: false,
            trace: Trace::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Adds an actor; ids are assigned in insertion order (`p1, p2, …`).
    /// Returns the assigned id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ProcessId {
        self.nodes.push(NodeSlot {
            actor,
            crashed: false,
            decided: None,
        });
        ProcessId::from_index(self.nodes.len() - 1)
    }

    /// Number of actors.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The Δ of the underlying network.
    pub fn delta(&self) -> SimDuration {
        self.network.delta
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The first decision of `process`, if any.
    pub fn decision(&self, process: ProcessId) -> Option<&(SimTime, Value)> {
        self.nodes[process.index()].decided.as_ref()
    }

    /// All `(process, time, value)` decisions so far.
    pub fn decisions(&self) -> Vec<(ProcessId, SimTime, Value)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.decided
                    .as_ref()
                    .map(|(t, v)| (ProcessId::from_index(i), *t, v.clone()))
            })
            .collect()
    }

    /// Schedules `process` to crash (stop taking steps) at `at`. Crashes are
    /// processed before any message delivery or timer at the same instant.
    pub fn schedule_crash(&mut self, process: ProcessId, at: SimTime) {
        self.push_event(at, process.index(), EventKind::Crash);
    }

    /// Test/bench hook: injects a raw message into the network as if `from`
    /// had sent it at time `at` (delivery time still chosen by the network
    /// model). Regular actors should send via [`Effects`] instead.
    pub fn inject_message(&mut self, from: ProcessId, to: ProcessId, msg: M, at: SimTime) {
        debug_assert!(at >= self.now, "cannot inject into the past");
        self.route_at(from, to, msg, at);
    }

    /// Schedules a client submission: `to`'s [`Actor::on_client`] runs with
    /// `command` at time `at` (open-loop load in virtual time). Not traced —
    /// the trace is the network's.
    pub fn submit_client(&mut self, to: ProcessId, command: Value, at: SimTime) {
        debug_assert!(at >= self.now, "cannot submit into the past");
        self.push_event(at, to.index(), EventKind::Client(command));
    }

    /// Routes one outgoing message sent by `from` at the current instant:
    /// picks a delivery time from the network model, records the trace
    /// event, and schedules the delivery.
    fn route(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.route_at(from, to, msg, self.now);
    }

    /// Shared body of [`route`](Simulation::route) and
    /// [`inject_message`](Simulation::inject_message). A message the
    /// network delivers at [`SimTime::NEVER`] is lost: its send is traced
    /// and nothing is queued.
    fn route_at(&mut self, from: ProcessId, to: ProcessId, msg: M, sent_at: SimTime) {
        let info = SendInfo {
            from,
            to,
            sent_at,
            seq: self.next_send_seq(),
        };
        let deliver_at = self.network.delivery_time(&info, &mut self.rng);
        self.trace.push(
            sent_at,
            TraceEvent::Send {
                from,
                to,
                kind: msg.kind(),
                bytes: msg.wire_size(),
                deliver_at,
            },
        );
        if deliver_at != SimTime::NEVER {
            self.push_event(deliver_at, to.index(), EventKind::Deliver { from, msg });
        }
    }

    fn next_send_seq(&mut self) -> u64 {
        let s = self.send_seq;
        self.send_seq += 1;
        s
    }

    fn push_event(&mut self, at: SimTime, node: usize, kind: EventKind<M>) {
        let class = kind.class();
        self.queue.push(QueuedEvent {
            at,
            class,
            seq: self.seq,
            node,
            kind,
        });
        self.seq += 1;
    }

    /// Delivers `on_start` to every actor at `t = 0`. Must be called exactly
    /// once, before stepping.
    ///
    /// # Panics
    ///
    /// Panics if called twice or if the simulation has no actors.
    pub fn start(&mut self) {
        assert!(!self.started, "simulation already started");
        assert!(!self.nodes.is_empty(), "simulation has no actors");
        self.started = true;
        for i in 0..self.nodes.len() {
            let mut fx = Effects::new(ProcessId::from_index(i), self.nodes.len(), self.now);
            self.nodes[i].actor.on_start(&mut fx);
            self.apply_effects(i, fx);
        }
    }

    fn apply_effects(&mut self, node: usize, fx: Effects<M>) {
        let id = ProcessId::from_index(node);
        let n = self.nodes.len();
        let Effects {
            outbox,
            timers,
            decision,
            ..
        } = fx;
        // Broadcasts are structural in the outbox (so real transports can
        // encode once); the simulator expands them here, in emission order,
        // so per-link delays and message counting are per destination
        // exactly as before.
        for effect in outbox {
            match effect {
                Outgoing::To(to, msg) => self.route(id, to, msg),
                Outgoing::All(msg) => {
                    for to in ProcessId::all(n) {
                        self.route(id, to, msg.clone());
                    }
                }
            }
        }
        for (delay, timer) in timers {
            let at = self.now + delay;
            self.push_event(at, node, EventKind::Timer(timer));
        }
        if let Some(value) = decision {
            let slot = &mut self.nodes[node];
            if slot.decided.is_none() {
                slot.decided = Some((self.now, value.clone()));
                self.trace
                    .push(self.now, TraceEvent::Decide { process: id, value });
            } else {
                self.trace
                    .push(self.now, TraceEvent::DuplicateDecide { process: id, value });
            }
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        let node = ev.node;
        if self.nodes[node].crashed {
            // Crashed processes neither receive nor act.
            return true;
        }
        match ev.kind {
            EventKind::Crash => {
                self.nodes[node].crashed = true;
                self.trace.push(
                    self.now,
                    TraceEvent::Crash {
                        process: ProcessId::from_index(node),
                    },
                );
            }
            EventKind::Deliver { from, msg } => {
                self.trace.push(
                    self.now,
                    TraceEvent::Deliver {
                        from,
                        to: ProcessId::from_index(node),
                        kind: msg.kind(),
                    },
                );
                let mut fx = Effects::new(ProcessId::from_index(node), self.nodes.len(), self.now);
                self.nodes[node].actor.on_message(from, msg, &mut fx);
                self.apply_effects(node, fx);
            }
            EventKind::Timer(timer) => {
                self.trace.push(
                    self.now,
                    TraceEvent::TimerFired {
                        process: ProcessId::from_index(node),
                    },
                );
                let mut fx = Effects::new(ProcessId::from_index(node), self.nodes.len(), self.now);
                self.nodes[node].actor.on_timer(timer, &mut fx);
                self.apply_effects(node, fx);
            }
            EventKind::Client(command) => {
                let mut fx = Effects::new(ProcessId::from_index(node), self.nodes.len(), self.now);
                self.nodes[node].actor.on_client(command, &mut fx);
                self.apply_effects(node, fx);
            }
        }
        true
    }

    /// Runs until the queue is exhausted or virtual time would exceed
    /// `limit`. Events scheduled exactly at `limit` are processed.
    pub fn run_until(&mut self, limit: SimTime) {
        while let Some(next) = self.queue.peek() {
            if next.at > limit {
                break;
            }
            self.step();
        }
    }

    /// Runs until no events remain.
    ///
    /// Terminates only for protocols that eventually go quiet; use
    /// [`Simulation::run_until`] for protocols with recurring timers.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Runs until every process in `who` has decided, or `limit` is reached.
    /// Returns `true` if all decided.
    pub fn run_until_all_decide(&mut self, who: &[ProcessId], limit: SimTime) -> bool {
        loop {
            if who.iter().all(|p| self.nodes[p.index()].decided.is_some()) {
                return true;
            }
            match self.queue.peek() {
                Some(next) if next.at <= limit => {
                    self.step();
                }
                _ => return who.iter().all(|p| self.nodes[p.index()].decided.is_some()),
            }
        }
    }

    /// Whether `process` has crashed.
    pub fn is_crashed(&self, process: ProcessId) -> bool {
        self.nodes[process.index()].crashed
    }

    /// Borrows an actor, e.g. for downcasting via [`Actor::as_any`].
    pub fn actor(&self, process: ProcessId) -> &dyn Actor<M> {
        self.nodes[process.index()].actor.as_ref()
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ScriptedActor;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u64);
    impl SimMessage for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Echoes every ping back to its sender, once.
    struct Echo {
        replied: bool,
    }
    impl Actor<Ping> for Echo {
        fn on_start(&mut self, _fx: &mut Effects<Ping>) {}
        fn on_message(&mut self, from: ProcessId, msg: Ping, fx: &mut Effects<Ping>) {
            if !self.replied {
                self.replied = true;
                fx.send(from, Ping(msg.0 + 1));
            }
        }
    }

    #[test]
    fn ping_pong_takes_two_delta() {
        let mut sim = Simulation::new(Network::synchronous(SimDuration(100)), 0);
        sim.add_actor(Box::new(ScriptedActor::silent()));
        sim.add_actor(Box::new(Echo { replied: false }));
        sim.start();
        sim.inject_message(ProcessId(1), ProcessId(2), Ping(0), SimTime::ZERO);
        sim.run_to_quiescence();
        assert_eq!(sim.now(), SimTime(200)); // ping at Δ, pong at 2Δ
        let delivers: Vec<_> = sim
            .trace()
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Deliver { .. }))
            .map(|r| r.at)
            .collect();
        assert_eq!(delivers, vec![SimTime(100), SimTime(200)]);
    }

    #[test]
    fn crash_pre_empts_same_instant_delivery() {
        let mut sim = Simulation::new(Network::synchronous(SimDuration(100)), 0);
        sim.add_actor(Box::new(ScriptedActor::silent()));
        sim.add_actor(Box::new(Echo { replied: false }));
        sim.start();
        sim.inject_message(ProcessId(1), ProcessId(2), Ping(0), SimTime::ZERO);
        // Crash p2 exactly at the delivery instant: the paper's lower-bound
        // executions crash processes "at time Δ", before they can send
        // anything at Δ.
        sim.schedule_crash(ProcessId(2), SimTime(100));
        sim.run_to_quiescence();
        assert!(sim.is_crashed(ProcessId(2)));
        // No pong was produced.
        let stats = sim.trace().message_stats(SimTime::NEVER);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Simulation::new(
                Network::partially_synchronous(SimDuration(100), SimTime(500), SimDuration(400)),
                seed,
            );
            sim.add_actor(Box::new(ScriptedActor::broadcaster(Ping(7))));
            sim.add_actor(Box::new(Echo { replied: false }));
            sim.add_actor(Box::new(Echo { replied: false }));
            sim.start();
            sim.run_to_quiescence();
            format!("{}", sim.trace())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// A message the network delivers at `NEVER` is lost, not parked at
    /// the end of time: the run goes quiet at the last real event.
    #[test]
    fn a_message_delivered_never_is_dropped() {
        let network = Network::scripted(SimDuration(100), |info| {
            if (info.from, info.to) == (ProcessId(1), ProcessId(2)) {
                SimTime::NEVER
            } else {
                info.sent_at + SimDuration(100)
            }
        });
        let mut sim = Simulation::new(network, 0);
        sim.add_actor(Box::new(ScriptedActor::broadcaster(Ping(1))));
        sim.add_actor(Box::new(Echo { replied: false }));
        sim.start();
        sim.run_to_quiescence();
        assert_eq!(sim.now(), SimTime(100));
        let delivered_to_p2 = sim
            .trace()
            .records()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Deliver { to, .. } if to == ProcessId(2)));
        assert!(!delivered_to_p2);
        assert_eq!(sim.trace().message_stats(SimTime::NEVER).messages, 2);
    }

    #[test]
    fn run_until_respects_limit() {
        let mut sim = Simulation::new(Network::synchronous(SimDuration(100)), 0);
        sim.add_actor(Box::new(ScriptedActor::broadcaster(Ping(1))));
        sim.add_actor(Box::new(Echo { replied: false }));
        sim.start();
        sim.run_until(SimTime(99));
        // Delivery at 100 must not have happened yet.
        assert_eq!(sim.now(), SimTime::ZERO);
        assert!(sim.pending_events() > 0);
        sim.run_until(SimTime(100));
        assert_eq!(sim.now(), SimTime(100));
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let mut sim: Simulation<Ping> = Simulation::new(Network::synchronous(SimDuration(100)), 0);
        sim.add_actor(Box::new(ScriptedActor::silent()));
        sim.start();
        sim.start();
    }
}
