//! The actor interface between protocols and the simulation kernel.
//!
//! A protocol implementation is a deterministic state machine that reacts to
//! three stimuli — start-up, message delivery, timer expiry — by emitting
//! *effects* (sends, timer requests, a decision). Keeping protocols I/O-free
//! lets the same implementation run under the discrete-event simulator, the
//! thread runtime and property tests.

use std::fmt;

use fastbft_types::{ProcessId, Value};

use crate::time::{SimDuration, SimTime};

/// Messages exchanged by simulated protocols.
///
/// The two methods feed the trace and the message-complexity experiment
/// (E12): `kind` labels the message for figure rendering, `wire_size` is its
/// encoded size in bytes.
pub trait SimMessage: Clone + fmt::Debug + Send + 'static {
    /// Short label of the message type (e.g. `"propose"`, `"ack"`).
    fn kind(&self) -> &'static str;
    /// Size of the encoded message in bytes.
    fn wire_size(&self) -> usize;
}

/// Identifier of a pending timer. Meaning is protocol-internal; protocols
/// typically encode a generation number so stale timers can be ignored.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub u64);

/// A participant in a simulation: either a correct protocol replica or a
/// scripted Byzantine actor (which simply implements this trait however it
/// likes).
pub trait Actor<M: SimMessage> {
    /// Invoked once at `t = 0`.
    fn on_start(&mut self, fx: &mut Effects<M>);

    /// Invoked when a message from `from` is delivered.
    fn on_message(&mut self, from: ProcessId, msg: M, fx: &mut Effects<M>);

    /// Invoked when a timer previously set via [`Effects::set_timer`] fires.
    fn on_timer(&mut self, _timer: TimerId, _fx: &mut Effects<M>) {}

    /// Invoked when a *client* submits a command to this process — the
    /// ingress path of a replicated state machine, as opposed to
    /// [`on_message`](Actor::on_message), which carries peer protocol
    /// traffic. Single-shot consensus actors have no client path, so the
    /// default ignores the command.
    fn on_client(&mut self, _command: Value, _fx: &mut Effects<M>) {}

    /// Invoked once when the actor's event loop stops (runtime shutdown or
    /// a single-seat stop). The simulator never calls this; the default is
    /// a no-op.
    // No actor in the workspace overrides it: kept because the frozen
    // `benchmark/src/trace.rs` forwards it from its wrapper actor.
    fn on_shutdown(&mut self) {}

    /// Optional human-readable label used in traces.
    fn label(&self) -> &'static str {
        "actor"
    }

    /// Downcasting hook for harnesses that need to inspect actor state after
    /// (or during) a run — e.g. the SMR harness reads each node's applied
    /// log. Override with `Some(self)` to opt in.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// One outgoing-message effect, in emission order.
///
/// Broadcasts are recorded *structurally* rather than expanded into `n`
/// point-to-point sends: a transport that serializes messages (the TCP
/// transport) can then encode the payload exactly once per broadcast
/// instead of once per destination. The simulator and the channel runtime
/// expand [`Outgoing::All`] into per-destination deliveries, so observable
/// behavior (per-link delays, message counting) is unchanged.
#[derive(Clone, Debug, PartialEq)]
pub enum Outgoing<M> {
    /// A point-to-point send to one process.
    To(ProcessId, M),
    /// A broadcast to every process, *including* the sender.
    All(M),
}

/// Effect buffer handed to an [`Actor`] callback; the kernel drains it after
/// the callback returns.
#[derive(Debug)]
pub struct Effects<M> {
    id: ProcessId,
    n: usize,
    now: SimTime,
    pub(crate) outbox: Vec<Outgoing<M>>,
    pub(crate) timers: Vec<(SimDuration, TimerId)>,
    pub(crate) decision: Option<Value>,
    pub(crate) applied: Vec<(u64, Value)>,
}

impl<M: SimMessage> Effects<M> {
    /// Creates an empty effect buffer for process `id` in an `n`-process
    /// system at time `now`.
    ///
    /// Normally only the simulation kernel constructs these; the constructor
    /// is public so protocol unit tests can drive actors directly.
    pub fn new(id: ProcessId, n: usize, now: SimTime) -> Self {
        Effects {
            id,
            n,
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
            decision: None,
            applied: Vec::new(),
        }
    }

    /// The outgoing-message effects in emission order, with broadcasts kept
    /// structural — what the runtimes consume (see [`Outgoing`]).
    pub fn outgoing(&self) -> &[Outgoing<M>] {
        &self.outbox
    }

    /// The messages queued so far in send order, with broadcasts expanded
    /// into one `(destination, message)` pair per process (test
    /// inspection; the hot paths consume [`outgoing`](Effects::outgoing)
    /// instead, which does not clone).
    pub fn sent(&self) -> Vec<(ProcessId, M)> {
        let mut out = Vec::new();
        for effect in &self.outbox {
            match effect {
                Outgoing::To(to, msg) => out.push((*to, msg.clone())),
                Outgoing::All(msg) => {
                    for to in ProcessId::all(self.n) {
                        out.push((to, msg.clone()));
                    }
                }
            }
        }
        out
    }

    /// The timers requested so far (test inspection).
    pub fn timers_set(&self) -> &[(SimDuration, TimerId)] {
        &self.timers
    }

    /// The decision recorded, if any (test inspection).
    pub fn decision_made(&self) -> Option<&Value> {
        self.decision.as_ref()
    }

    /// The acting process's own id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Total number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` (point-to-point, authenticated channel).
    /// Sending to self is allowed and delivered like any other message.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push(Outgoing::To(to, msg));
    }

    /// Sends `msg` to every process, *including* the sender itself.
    ///
    /// Self-delivery keeps quorum counting uniform: a process's own ack
    /// counts exactly like anyone else's, as in the paper's counting.
    ///
    /// Recorded as one structural [`Outgoing::All`] effect, so a
    /// serializing transport encodes the payload once per broadcast, not
    /// once per destination.
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.push(Outgoing::All(msg));
    }

    /// Sends `msg` to every process except the sender. Cold path (used by
    /// the view synchronizer only), so it stays point-to-point.
    pub fn broadcast_others(&mut self, msg: M) {
        for to in ProcessId::all(self.n) {
            if to != self.id {
                self.outbox.push(Outgoing::To(to, msg.clone()));
            }
        }
    }

    /// Requests a timer to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, timer: TimerId) {
        self.timers.push((delay, timer));
    }

    /// Records this process's (single) decision. Later calls in the same
    /// execution are recorded by the kernel as duplicate-decision anomalies
    /// rather than silently dropped — the checker treats a changed decision
    /// as a safety violation.
    pub fn decide(&mut self, value: Value) {
        self.decision = Some(value);
    }

    /// Records that the actor applied `command` at log position `index` —
    /// the multi-slot analogue of [`decide`](Effects::decide): a replicated
    /// state machine emits one of these per applied command rather than a
    /// single terminal decision. The thread runtime forwards them to
    /// `ClusterHandle::applied_events`; the simulator exposes them through
    /// this buffer for harness inspection.
    pub fn record_applied(&mut self, index: u64, command: &Value) {
        self.applied.push((index, command.clone()));
    }

    /// The applied-command events recorded so far, in application order.
    pub fn applied_log(&self) -> &[(u64, Value)] {
        &self.applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping;
    impl SimMessage for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
        fn wire_size(&self) -> usize {
            1
        }
    }

    #[test]
    fn broadcast_includes_self() {
        let mut fx = Effects::new(ProcessId(2), 4, SimTime::ZERO);
        fx.broadcast(Ping);
        // Structural: one effect, expanded to all n on demand.
        assert_eq!(fx.outgoing(), &[Outgoing::All(Ping)]);
        let targets: Vec<u32> = fx.sent().iter().map(|(p, _)| p.0).collect();
        assert_eq!(targets, vec![1, 2, 3, 4]);
    }

    #[test]
    fn broadcast_others_excludes_self() {
        let mut fx = Effects::new(ProcessId(2), 4, SimTime::ZERO);
        fx.broadcast_others(Ping);
        let targets: Vec<u32> = fx.sent().iter().map(|(p, _)| p.0).collect();
        assert_eq!(targets, vec![1, 3, 4]);
    }

    #[test]
    fn outbox_preserves_emission_order_across_kinds() {
        let mut fx = Effects::new(ProcessId(1), 3, SimTime::ZERO);
        fx.send(ProcessId(2), Ping);
        fx.broadcast(Ping);
        fx.send(ProcessId(3), Ping);
        assert_eq!(
            fx.outgoing(),
            &[
                Outgoing::To(ProcessId(2), Ping),
                Outgoing::All(Ping),
                Outgoing::To(ProcessId(3), Ping),
            ]
        );
        let targets: Vec<u32> = fx.sent().iter().map(|(p, _)| p.0).collect();
        assert_eq!(targets, vec![2, 1, 2, 3, 3]);
    }

    #[test]
    fn effects_collects_outputs() {
        let mut fx = Effects::new(ProcessId(1), 3, SimTime(5));
        assert_eq!(fx.now(), SimTime(5));
        assert_eq!(fx.n(), 3);
        assert_eq!(fx.id(), ProcessId(1));
        fx.send(ProcessId(3), Ping);
        fx.set_timer(SimDuration(10), TimerId(1));
        fx.decide(Value::from_u64(1));
        assert_eq!(fx.outbox.len(), 1);
        assert_eq!(fx.timers, vec![(SimDuration(10), TimerId(1))]);
        assert_eq!(fx.decision, Some(Value::from_u64(1)));
    }
}
