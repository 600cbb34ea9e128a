//! Benchmark-side tracing at the public trait seams.
//!
//! Three wrappers record what each layer does without touching the
//! program: [`TracedActor`] around each `Box<dyn Actor<SlotMessage>>`,
//! [`TracedTransport`] around each seat's transport, and [`TracedMachine`]
//! around the state machine. They exist only in the traced run; the
//! end-to-end numbers come from a run without them.
//!
//! Every replica gets one [`ReplicaTrace`]: aggregates over *all* calls,
//! and spans (name, start, end, parent) for the calls that belong to one
//! slot in [`SLOT_SAMPLE`]. The three wrappers of a replica run on that
//! replica's event-loop thread, so nesting is real: a wake-up of the loop
//! is the parent of the handler calls and sends made during it, and a
//! handler call is the parent of the `apply`/`snapshot` calls it triggers.
//! A span's self time is its duration minus its children's (see
//! [`self_times`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fastbft_core::Message;
use fastbft_crypto::Digest;
use fastbft_runtime::{Polled, Transport};
use fastbft_sim::{Actor, Effects, Outgoing, TimerId};
use fastbft_smr::{SlotMessage, StateMachine};
use fastbft_types::{ProcessId, Value};

/// Spans are kept for slots divisible by this; aggregates cover all.
pub const SLOT_SAMPLE: u64 = 64;
/// Real messages each replica keeps from its sends, for the codec probes.
const CAPTURE_PER_REPLICA: usize = 512;
/// Hard cap on spans kept per replica (memory bound on long runs).
const MAX_SPANS: usize = 200_000;

/// One timed call. Times are nanoseconds since the trace epoch on the
/// wall clock, or simulator ticks under the simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub slot: Option<u64>,
    pub start: u64,
    pub end: u64,
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap here (one thread),
/// so covering is a plain sum, clamped at the parent's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_sum.entry(p).or_default() += s.end.saturating_sub(s.start);
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            dur.saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Running totals over every call at one replica. Plain counters: take a
/// copy at the start and end of the window and subtract.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// `on_message` + `on_timer` + `on_start`, machine time excluded.
    pub handler: u64,
    pub handler_calls: u64,
    /// `on_client`, machine time excluded.
    pub on_client: u64,
    pub apply: u64,
    pub applies: u64,
    pub snapshot: u64,
    pub snapshots: u64,
    /// Time inside `Transport::send` / `broadcast`.
    pub send: u64,
    pub send_calls: u64,
    /// Point-to-point messages emitted (a broadcast counts `n`).
    pub msgs_out: u64,
    /// `recv_batch` returns that carried at least one event.
    pub wakeups: u64,
    pub events: u64,
    /// Time between a `recv_batch` return and the next call: callbacks,
    /// sends and timer bookkeeping — the loop not waiting.
    pub busy: u64,
}

impl Agg {
    pub fn minus(&self, earlier: &Agg) -> Agg {
        Agg {
            handler: self.handler - earlier.handler,
            handler_calls: self.handler_calls - earlier.handler_calls,
            on_client: self.on_client - earlier.on_client,
            apply: self.apply - earlier.apply,
            applies: self.applies - earlier.applies,
            snapshot: self.snapshot - earlier.snapshot,
            snapshots: self.snapshots - earlier.snapshots,
            send: self.send - earlier.send,
            send_calls: self.send_calls - earlier.send_calls,
            msgs_out: self.msgs_out - earlier.msgs_out,
            wakeups: self.wakeups - earlier.wakeups,
            events: self.events - earlier.events,
            busy: self.busy - earlier.busy,
        }
    }
}

/// When a replica proposed a slot's value and when it first applied a
/// command while handling a message of that slot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SlotTimes {
    pub proposed: Option<u64>,
    pub applied: Option<u64>,
}

struct Wake {
    start: u64,
    span: Option<u32>,
}

/// Everything recorded at one replica.
pub struct ReplicaTrace {
    pub agg: Agg,
    pub spans: Vec<Span>,
    pub slots: BTreeMap<u64, SlotTimes>,
    pub captured: Vec<SlotMessage>,
    capturing: bool,
    wake: Option<Wake>,
}

impl ReplicaTrace {
    fn new() -> Self {
        ReplicaTrace {
            agg: Agg::default(),
            spans: Vec::new(),
            slots: BTreeMap::new(),
            captured: Vec::new(),
            capturing: false,
            wake: None,
        }
    }

    fn push_span(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        slot: Option<u64>,
        start: u64,
        end: u64,
    ) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            slot,
            start,
            end,
        });
        Some(id)
    }

    /// The current wake-up's span id, creating the span on first use (a
    /// wake-up is only worth a span if something sampled happens in it).
    fn wake_span(&mut self) -> Option<u32> {
        let wake = self.wake.as_ref()?;
        if wake.span.is_some() {
            return wake.span;
        }
        let start = wake.start;
        let id = self.push_span(None, "runtime.wakeup", None, start, start);
        if let Some(w) = self.wake.as_mut() {
            w.span = id;
        }
        id
    }
}

/// The per-replica traces of one cluster plus their shared epoch. Cheap to
/// clone; the benchmark keeps one clone and reads it after shutdown.
#[derive(Clone)]
pub struct TraceHub {
    epoch: Instant,
    replicas: Vec<Arc<Mutex<ReplicaTrace>>>,
}

impl TraceHub {
    pub fn new(n: usize) -> Self {
        TraceHub {
            epoch: Instant::now(),
            replicas: (0..n)
                .map(|_| Arc::new(Mutex::new(ReplicaTrace::new())))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    pub fn replica(&self, i: usize) -> MutexGuard<'_, ReplicaTrace> {
        self.replicas[i]
            .lock()
            .expect("a replica thread panicked while tracing")
    }

    /// Copies of every replica's running totals.
    pub fn aggregates(&self) -> Vec<Agg> {
        (0..self.len()).map(|i| self.replica(i).agg).collect()
    }

    /// Starts (or stops) keeping real messages from each replica's sends.
    pub fn set_capturing(&self, on: bool) {
        for i in 0..self.len() {
            self.replica(i).capturing = on;
        }
    }

    /// Every captured message, all replicas together.
    pub fn captured(&self) -> Vec<SlotMessage> {
        (0..self.len())
            .flat_map(|i| self.replica(i).captured.clone())
            .collect()
    }

    fn sink(&self, i: usize, clock: Clock) -> Sink {
        Sink {
            trace: Arc::clone(&self.replicas[i]),
            clock,
        }
    }

    fn wall(&self, i: usize) -> Sink {
        self.sink(i, Clock::Wall(self.epoch))
    }

    /// Wraps seat `i`'s actor for a wall-clock cluster.
    pub fn actor(
        &self,
        i: usize,
        inner: Box<dyn Actor<SlotMessage> + Send>,
    ) -> Box<dyn Actor<SlotMessage> + Send> {
        Box::new(TracedActor {
            inner,
            sink: self.wall(i),
        })
    }

    /// Wraps seat `i`'s actor for the simulator: times are `fx.now()`.
    pub fn sim_actor(
        &self,
        i: usize,
        inner: Box<dyn Actor<SlotMessage> + Send>,
    ) -> Box<dyn Actor<SlotMessage>> {
        Box::new(TracedActor {
            inner,
            sink: self.sink(i, Clock::Sim),
        })
    }

    /// Wraps seat `i`'s transport.
    pub fn transport<T: Transport<SlotMessage>>(&self, i: usize, inner: T) -> TracedTransport<T> {
        TracedTransport {
            inner,
            sink: self.wall(i),
        }
    }

    /// The whole trace as one JSON document (spans with their self times,
    /// and each replica's totals).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"slot_sample\": {SLOT_SAMPLE}, \"time_unit\": \"ns\", \"replicas\": ["
        );
        for i in 0..self.len() {
            let r = self.replica(i);
            if i > 0 {
                out.push_str(", ");
            }
            let a = &r.agg;
            let _ = write!(
                out,
                "{{\"replica\": {}, \"totals\": {{\"handler_ns\": {}, \"handler_calls\": {}, \"on_client_ns\": {}, \"apply_ns\": {}, \"applies\": {}, \"snapshot_ns\": {}, \"snapshots\": {}, \"send_ns\": {}, \"send_calls\": {}, \"msgs_out\": {}, \"wakeups\": {}, \"events\": {}, \"busy_ns\": {}}}, \"spans\": [",
                i + 1,
                a.handler,
                a.handler_calls,
                a.on_client,
                a.apply,
                a.applies,
                a.snapshot,
                a.snapshots,
                a.send,
                a.send_calls,
                a.msgs_out,
                a.wakeups,
                a.events,
                a.busy
            );
            let selfs = self_times(&r.spans);
            for (k, (s, self_ns)) in r.spans.iter().zip(selfs).enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
                let _ = write!(
                    out,
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"slot\": {}, \"start\": {}, \"end\": {}, \"self\": {}}}",
                    s.id,
                    opt(s.parent.map(u64::from)),
                    s.name,
                    opt(s.slot),
                    s.start,
                    s.end,
                    self_ns
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[derive(Clone, Copy)]
enum Clock {
    Wall(Instant),
    Sim,
}

#[derive(Clone)]
struct Sink {
    trace: Arc<Mutex<ReplicaTrace>>,
    clock: Clock,
}

impl Sink {
    fn lock(&self) -> MutexGuard<'_, ReplicaTrace> {
        self.trace
            .lock()
            .expect("a replica thread panicked while tracing")
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        match self.clock {
            Clock::Wall(epoch) => duration_ns(at.saturating_duration_since(epoch)),
            Clock::Sim => 0,
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn slot_of(msg: &SlotMessage) -> Option<u64> {
    match msg {
        SlotMessage::Consensus { slot, .. } | SlotMessage::Backfill { slot, .. } => Some(*slot),
        _ => None,
    }
}

fn sampled(slot: Option<u64>) -> bool {
    slot.is_some_and(|s| s % SLOT_SAMPLE == 0)
}

/// Machine calls made while a handler call is open on this thread; the
/// handler collects them when it returns (see [`TracedMachine`]).
#[derive(Default)]
struct Open {
    keep_spans: bool,
    apply: u64,
    applies: u64,
    snapshot: u64,
    snapshots: u64,
    children: Vec<(&'static str, Instant, Instant)>,
}

thread_local! {
    static OPEN: RefCell<Option<Open>> = const { RefCell::new(None) };
}

/// Times every callback of the wrapped actor.
struct TracedActor {
    inner: Box<dyn Actor<SlotMessage> + Send>,
    sink: Sink,
}

#[derive(Clone, Copy, PartialEq)]
enum Callback {
    Start,
    Message,
    Timer,
    Client,
}

impl Callback {
    fn name(self) -> &'static str {
        match self {
            Callback::Start => "smr.on_start",
            Callback::Message => "smr.on_message",
            Callback::Timer => "smr.on_timer",
            Callback::Client => "smr.on_client",
        }
    }
}

impl TracedActor {
    fn timed(
        &mut self,
        kind: Callback,
        slot: Option<u64>,
        fx: &mut Effects<SlotMessage>,
        call: impl FnOnce(&mut dyn Actor<SlotMessage>, &mut Effects<SlotMessage>),
    ) {
        let keep_spans = sampled(slot);
        let sent_before = fx.outgoing().len();
        let applied_before = fx.applied_log().len();
        OPEN.with(|o| {
            *o.borrow_mut() = Some(Open {
                keep_spans,
                ..Open::default()
            })
        });
        let start = Instant::now();
        call(self.inner.as_mut(), fx);
        let end = Instant::now();
        let open = OPEN.with(|o| o.borrow_mut().take()).unwrap_or_default();

        // Under the simulator a callback takes no virtual time; its one
        // timestamp is the simulator's clock.
        let (t0, t1, took) = match self.sink.clock {
            Clock::Wall(_) => (
                self.sink.since_epoch(start),
                self.sink.since_epoch(end),
                duration_ns(end - start),
            ),
            Clock::Sim => (fx.now().0, fx.now().0, 0),
        };
        let own = took.saturating_sub(open.apply + open.snapshot);

        let mut trace = self.sink.lock();
        let agg = &mut trace.agg;
        if kind == Callback::Client {
            agg.on_client += own;
        } else {
            agg.handler += own;
            agg.handler_calls += 1;
        }
        agg.apply += open.apply;
        agg.applies += open.applies;
        agg.snapshot += open.snapshot;
        agg.snapshots += open.snapshots;

        let n = fx.n() as u64;
        for out in &fx.outgoing()[sent_before..] {
            let msg = match out {
                Outgoing::To(_, msg) => {
                    trace.agg.msgs_out += 1;
                    msg
                }
                Outgoing::All(msg) => {
                    trace.agg.msgs_out += n;
                    msg
                }
            };
            if let SlotMessage::Consensus {
                slot,
                inner: Message::Propose(_),
            } = msg
            {
                trace.slots.entry(*slot).or_default().proposed = Some(t0);
            }
        }
        if let Some(slot) = slot {
            if fx.applied_log().len() > applied_before {
                trace
                    .slots
                    .entry(slot)
                    .or_default()
                    .applied
                    .get_or_insert(t1);
            }
        }

        if keep_spans {
            let parent = trace.wake_span();
            if let Some(id) = trace.push_span(parent, kind.name(), slot, t0, t1) {
                for (name, s, e) in open.children {
                    let (s, e) = (self.sink.since_epoch(s), self.sink.since_epoch(e));
                    trace.push_span(Some(id), name, slot, s, e);
                }
            }
        }
    }
}

impl Actor<SlotMessage> for TracedActor {
    fn on_start(&mut self, fx: &mut Effects<SlotMessage>) {
        self.timed(Callback::Start, None, fx, |a, fx| a.on_start(fx));
    }

    fn on_message(&mut self, from: ProcessId, msg: SlotMessage, fx: &mut Effects<SlotMessage>) {
        let slot = slot_of(&msg);
        self.timed(Callback::Message, slot, fx, |a, fx| {
            a.on_message(from, msg, fx)
        });
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<SlotMessage>) {
        self.timed(Callback::Timer, None, fx, |a, fx| a.on_timer(timer, fx));
    }

    fn on_client(&mut self, command: Value, fx: &mut Effects<SlotMessage>) {
        self.timed(Callback::Client, None, fx, |a, fx| a.on_client(command, fx));
    }

    fn on_shutdown(&mut self) {
        self.inner.on_shutdown();
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// Times sends, counts wake-ups and the events each one carries, and keeps
/// a sample of real outgoing messages.
pub struct TracedTransport<T> {
    inner: T,
    sink: Sink,
}

impl<T: Transport<SlotMessage>> TracedTransport<T> {
    fn sent(&mut self, name: &'static str, msg_slot: Option<u64>, start: Instant, end: Instant) {
        let mut trace = self.sink.lock();
        trace.agg.send += duration_ns(end - start);
        trace.agg.send_calls += 1;
        if sampled(msg_slot) {
            let parent = trace.wake_span();
            let (s, e) = (self.sink.since_epoch(start), self.sink.since_epoch(end));
            trace.push_span(parent, name, msg_slot, s, e);
        }
    }

    fn capture(&mut self, msg: &SlotMessage) {
        let mut trace = self.sink.lock();
        if trace.capturing && trace.captured.len() < CAPTURE_PER_REPLICA {
            trace.captured.push(msg.clone());
        }
    }

    /// Closes the wake-up that just ended (the loop is about to wait).
    fn going_to_wait(&mut self) {
        let now = self.sink.since_epoch(Instant::now());
        let mut trace = self.sink.lock();
        if let Some(wake) = trace.wake.take() {
            trace.agg.busy += now.saturating_sub(wake.start);
            if let Some(id) = wake.span {
                trace.spans[id as usize].end = now;
            }
        }
    }

    fn woke(&mut self, events: usize) {
        let now = self.sink.since_epoch(Instant::now());
        let mut trace = self.sink.lock();
        if events > 0 {
            trace.agg.wakeups += 1;
            trace.agg.events += events as u64;
        }
        trace.wake = Some(Wake {
            start: now,
            span: None,
        });
    }
}

fn carries_event(p: &Polled<SlotMessage>) -> bool {
    matches!(
        p,
        Polled::Delivered(..) | Polled::DeliveredBatch(..) | Polled::Client(_)
    )
}

impl<T: Transport<SlotMessage>> Transport<SlotMessage> for TracedTransport<T> {
    fn send(&mut self, to: ProcessId, msg: SlotMessage) {
        self.capture(&msg);
        let slot = slot_of(&msg);
        let start = Instant::now();
        self.inner.send(to, msg);
        self.sent("runtime.send", slot, start, Instant::now());
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn broadcast(&mut self, msg: SlotMessage) {
        self.capture(&msg);
        let slot = slot_of(&msg);
        let start = Instant::now();
        self.inner.broadcast(msg);
        self.sent("runtime.broadcast", slot, start, Instant::now());
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Polled<SlotMessage> {
        self.going_to_wait();
        let polled = self.inner.recv(timeout);
        self.woke(usize::from(carries_event(&polled)));
        polled
    }

    fn recv_batch(&mut self, max: usize, timeout: Option<Duration>) -> Vec<Polled<SlotMessage>> {
        self.going_to_wait();
        let batch = self.inner.recv_batch(max, timeout);
        self.woke(batch.iter().filter(|p| carries_event(p)).count());
        batch
    }
}

/// Times the state machine's `apply` and `snapshot` and reports them to the
/// handler call that is open on this thread.
#[derive(Clone, Default)]
pub struct TracedMachine<M>(pub M);

fn note_machine_call(name: &'static str, start: Instant, end: Instant) {
    OPEN.with(|o| {
        if let Some(open) = o.borrow_mut().as_mut() {
            let took = duration_ns(end - start);
            if name == "machine.apply" {
                open.apply += took;
                open.applies += 1;
            } else {
                open.snapshot += took;
                open.snapshots += 1;
            }
            if open.keep_spans {
                open.children.push((name, start, end));
            }
        }
    });
}

impl<M: StateMachine> StateMachine for TracedMachine<M> {
    type Output = M::Output;

    fn apply(&mut self, command: &Value) -> M::Output {
        let start = Instant::now();
        let out = self.0.apply(command);
        note_machine_call("machine.apply", start, Instant::now());
        out
    }

    fn snapshot(&self) -> Vec<u8> {
        let start = Instant::now();
        let out = self.0.snapshot();
        note_machine_call("machine.snapshot", start, Instant::now());
        out
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        self.0.restore(bytes)
    }

    fn state_digest(&self) -> Digest {
        self.0.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            slot: None,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // wakeup [0,100] ⊃ handler [10,60] ⊃ apply [20,30], apply [35,50];
        // and a send [70,90] directly under the wakeup.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(1), 35, 50),
            span(4, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 10, 15, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![span(0, None, 0, 10), span(1, Some(0), 0, 25)];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn machine_calls_land_in_the_open_handler_only() {
        let mut m = TracedMachine(fastbft_smr::CountingMachine::new());
        // No handler open: the call is timed but has nowhere to report.
        m.apply(&Value::from_u64(1));
        OPEN.with(|o| *o.borrow_mut() = Some(Open::default()));
        m.apply(&Value::from_u64(2));
        m.apply(&Value::from_u64(3));
        let _ = m.snapshot();
        let open = OPEN.with(|o| o.borrow_mut().take()).unwrap();
        assert_eq!((open.applies, open.snapshots), (2, 1));
        assert!(open.children.is_empty(), "spans only when sampled");
        assert_eq!(m.0.applied(), 3);
    }
}
