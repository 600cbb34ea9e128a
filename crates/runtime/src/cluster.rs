//! Thread-per-replica cluster over a pluggable [`Transport`].
//!
//! The same [`Actor`] implementations that run under the discrete-event
//! simulator run here against the wall clock: each replica gets an OS
//! thread, a [`Transport`] plays the reliable authenticated point-to-point
//! links (the sender id is attached by the transport, not the sender — a
//! process cannot spoof its identity), and timer requests are served from a
//! local timer heap.
//!
//! [`spawn`] wires the in-process [`ChannelTransport`] ([`channel_seats`]);
//! `fastbft-net` builds the same cluster over loopback TCP via
//! [`spawn_with`]. Either way this is the "it is not simulator-only" proof
//! and the engine behind the wall-clock benchmarks (E9).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use fastbft_sim::{Actor, Effects, Outgoing, SimDuration, SimMessage, SimTime, TimerId};
use fastbft_types::{ProcessId, Value};

use crate::transport::{ChannelTransport, Inbound, Polled, Transport};

/// A decision reported by a replica thread.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// The deciding process.
    pub process: ProcessId,
    /// The decided value.
    pub value: Value,
    /// Wall-clock time from cluster start to the decision.
    pub elapsed: Duration,
}

/// One applied-command event reported by a replica thread — the multi-slot
/// (state machine replication) analogue of [`Decision`]. A replica emits
/// one of these per command it applies, via
/// [`Effects::record_applied`](fastbft_sim::Effects::record_applied);
/// the runtime forwards every event instead of suppressing all but the
/// first, so the handle observes the full replicated log as it grows.
#[derive(Clone, Debug, PartialEq)]
pub struct Applied {
    /// The applying process.
    pub process: ProcessId,
    /// Position of the command in the process's applied log.
    pub index: u64,
    /// The applied command.
    pub command: Value,
    /// Wall-clock time from cluster start to the apply.
    pub elapsed: Duration,
}

/// Handle to a running cluster.
pub struct ClusterHandle<M> {
    controls: Vec<Sender<Inbound<M>>>,
    /// One entry per seat; `None` while that seat is stopped (see
    /// [`ClusterHandle::stop_node`] / [`ClusterHandle::restart_node`]).
    threads: Vec<Option<std::thread::JoinHandle<Box<dyn Actor<M> + Send>>>>,
    decisions: Receiver<Decision>,
    applied: Receiver<Applied>,
    /// Retained so restarted seats report into the same event streams with
    /// elapsed times on the original cluster clock.
    decisions_tx: Sender<Decision>,
    applied_tx: Sender<Applied>,
    start: Instant,
    tick: Duration,
}

/// One replica's seat in a cluster: its protocol state machine, the
/// transport its event loop will run on, and the control sender feeding
/// that transport's inbound queue (used by [`ClusterHandle::inject`] and
/// [`ClusterHandle::shutdown`]).
pub struct NodeSeat<M, T> {
    /// The protocol state machine.
    pub actor: Box<dyn Actor<M> + Send>,
    /// The node's view of the network.
    pub transport: T,
    /// Feeds the transport's inbound queue from outside.
    pub control: Sender<Inbound<M>>,
    /// Vestige: always `None`, named only by the frozen `benchmark/src/cluster.rs`.
    pub verify: Option<std::convert::Infallible>,
}

/// Puts one actor per seat on the in-process channel mesh — the channel
/// counterpart of `fastbft-net`'s `tcp_seats`.
pub fn channel_seats<M: SimMessage>(
    actors: Vec<Box<dyn Actor<M> + Send>>,
) -> Vec<NodeSeat<M, ChannelTransport<M>>> {
    let mesh = ChannelTransport::mesh(actors.len());
    actors
        .into_iter()
        .zip(mesh)
        .map(|(actor, (transport, control))| NodeSeat {
            actor,
            transport,
            control,
            verify: None,
        })
        .collect()
}

/// Wall time of one protocol tick: every wall-clock cluster converts the
/// protocol's abstract [`fastbft_sim::SimDuration`] ticks into wall time at
/// this rate (timers only — message transport is as fast as the links go),
/// and [`FaultPlan::network`](crate::FaultPlan::network) converts a link
/// profile's wall-time delays back into ticks at the same rate.
pub const TICK: Duration = Duration::from_micros(50);

/// `d` in whole [`TICK`]s, rounded up: a delay at all is at least a tick.
pub(crate) fn ticks(d: Duration) -> SimDuration {
    SimDuration(u64::try_from(d.as_nanos().div_ceil(TICK.as_nanos())).unwrap_or(u64::MAX))
}

/// Spawns one thread per actor over the in-process channel transport, at
/// [`TICK`].
pub fn spawn<M: SimMessage>(actors: Vec<Box<dyn Actor<M> + Send>>) -> ClusterHandle<M> {
    spawn_with(channel_seats(actors), TICK)
}

/// Spawns one thread per seat over an arbitrary [`Transport`] — the
/// transport-generic engine behind [`spawn`] and `fastbft-net`'s
/// `spawn_tcp`. Node `i` of the cluster runs as process `p_{i+1}`; the
/// transport of seat `i` must identify itself accordingly.
///
/// Vestige: `tick` is always [`TICK`]; the parameter stays because the frozen `benchmark/` names it.
pub fn spawn_with<M: SimMessage, T: Transport<M>>(
    seats: Vec<NodeSeat<M, T>>,
    tick: Duration,
) -> ClusterHandle<M> {
    let n = seats.len();
    let (decisions_tx, decisions_rx) = unbounded::<Decision>();
    let (applied_tx, applied_rx) = unbounded::<Applied>();
    let start = Instant::now();

    let mut controls = Vec::with_capacity(n);
    let mut threads = Vec::with_capacity(n);
    for (i, seat) in seats.into_iter().enumerate() {
        let NodeSeat {
            actor,
            mut transport,
            control,
            ..
        } = seat;
        controls.push(control);
        let id = ProcessId::from_index(i);
        let decisions_tx = decisions_tx.clone();
        let applied_tx = applied_tx.clone();
        threads.push(Some(std::thread::spawn(move || {
            run_node(
                actor,
                id,
                n,
                &mut transport,
                decisions_tx,
                applied_tx,
                start,
                tick,
            )
        })));
    }

    ClusterHandle {
        controls,
        threads,
        decisions: decisions_rx,
        applied: applied_rx,
        decisions_tx,
        applied_tx,
        start,
        tick,
    }
}

/// Converts a protocol-tick delay into wall time without the silent `u32`
/// truncation the runtime used to apply: the product is computed in `u128`
/// nanoseconds and saturates at `Duration::from_nanos(u64::MAX)` (~584
/// years) instead of wrapping or clamping the tick count.
fn ticks_to_duration(tick: Duration, delay_ticks: u64) -> Duration {
    let nanos = tick.as_nanos().saturating_mul(u128::from(delay_ticks));
    if nanos > u128::from(u64::MAX) {
        Duration::from_nanos(u64::MAX)
    } else {
        Duration::from_nanos(nanos as u64)
    }
}

/// Arms a timer `delay` from `now`, saturating at the platform's far
/// future if the instant arithmetic itself would overflow.
fn timer_deadline(now: Instant, tick: Duration, delay_ticks: u64) -> Instant {
    now.checked_add(ticks_to_duration(tick, delay_ticks))
        .unwrap_or_else(|| now + Duration::from_secs(60 * 60 * 24 * 3650))
}

#[allow(clippy::too_many_arguments)]
fn run_node<M: SimMessage>(
    mut actor: Box<dyn Actor<M> + Send>,
    id: ProcessId,
    n: usize,
    transport: &mut impl Transport<M>,
    decisions: Sender<Decision>,
    applied: Sender<Applied>,
    start: Instant,
    tick: Duration,
) -> Box<dyn Actor<M> + Send> {
    let mut timers: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();

    let now_ticks = |start: Instant| -> SimTime {
        let ticks = if tick.is_zero() {
            0
        } else {
            (start.elapsed().as_nanos() / tick.as_nanos().max(1)) as u64
        };
        SimTime(ticks)
    };

    // Effect application shared by all four callbacks. Every decision and
    // every applied-command event is forwarded — a multi-slot actor reports
    // one event per commit, and suppressing repeats is the *consumer's*
    // choice (`await_decisions` keeps the first per process and refuses a
    // changed one), not the event loop's.
    macro_rules! apply {
        ($fx:expr) => {{
            let fx = $fx;
            for effect in fx.outgoing() {
                match effect {
                    Outgoing::To(to, msg) => transport.send(*to, msg.clone()),
                    // Structural broadcast: the transport may encode the
                    // payload once for all destinations (TCP does).
                    Outgoing::All(msg) => transport.broadcast(msg.clone()),
                }
            }
            for (delay, timer) in fx.timers_set() {
                timers.push(Reverse((
                    timer_deadline(Instant::now(), tick, delay.0),
                    timer.0,
                )));
            }
            if let Some(value) = fx.decision_made() {
                let _ = decisions.send(Decision {
                    process: id,
                    value: value.clone(),
                    elapsed: start.elapsed(),
                });
            }
            for (index, command) in fx.applied_log() {
                let _ = applied.send(Applied {
                    process: id,
                    index: *index,
                    command: command.clone(),
                    elapsed: start.elapsed(),
                });
            }
        }};
    }

    let mut fx = Effects::new(id, n, now_ticks(start));
    actor.on_start(&mut fx);
    apply!(&fx);

    // How many already-queued inbound events one wakeup may drain: big
    // enough to amortize the wakeup + timer-heap bookkeeping over a burst,
    // small enough that timers are still checked promptly under load.
    const RECV_BATCH: usize = 64;

    'event_loop: loop {
        // Fire due timers.
        let now = Instant::now();
        while let Some(Reverse((deadline, timer))) = timers.peek().copied() {
            if deadline > now {
                break;
            }
            timers.pop();
            let mut fx = Effects::new(id, n, now_ticks(start));
            actor.on_timer(TimerId(timer), &mut fx);
            apply!(&fx);
        }
        // Wait for the next message or timer deadline, then drain the
        // burst that is already queued — one wakeup per batch, not per
        // message.
        let timeout = timers
            .peek()
            .map(|Reverse((deadline, _))| deadline.saturating_duration_since(Instant::now()));
        for polled in transport.recv_batch(RECV_BATCH, timeout) {
            match polled {
                Polled::Delivered(from, msg) => {
                    let mut fx = Effects::new(id, n, now_ticks(start));
                    actor.on_message(from, msg, &mut fx);
                    apply!(&fx);
                }
                Polled::DeliveredBatch(from, msgs) => {
                    for msg in msgs {
                        let mut fx = Effects::new(id, n, now_ticks(start));
                        actor.on_message(from, msg, &mut fx);
                        apply!(&fx);
                    }
                }
                Polled::Client(command) => {
                    let mut fx = Effects::new(id, n, now_ticks(start));
                    actor.on_client(command, &mut fx);
                    apply!(&fx);
                }
                Polled::TimedOut => {} // timer loop handles it on the next iteration
                Polled::Shutdown | Polled::Closed => break 'event_loop,
            }
        }
    }
    // A no-op for every workspace actor; the call stays while the frozen
    // `benchmark/src/trace.rs` implements the hook.
    actor.on_shutdown();
    actor
}

impl<M: SimMessage> ClusterHandle<M> {
    /// Waits until `count` distinct processes have decided, or `timeout`
    /// elapses. Returns the decisions observed (first per process).
    ///
    /// # Panics
    ///
    /// Panics if a process decides again with another value while this
    /// waits — a changed decision, which no correct process makes (an
    /// equal repeat is ignored).
    pub fn await_decisions(&self, count: usize, timeout: Duration) -> Vec<Decision> {
        let deadline = Instant::now() + timeout;
        let mut seen: Vec<Decision> = Vec::new();
        while seen.len() < count {
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                break;
            }
            match self.decisions.recv_timeout(wait) {
                Ok(d) => match seen.iter().find(|s| s.process == d.process) {
                    None => seen.push(d),
                    Some(first) => assert!(
                        first.value == d.value,
                        "{} changed its decision from {:?} to {:?}",
                        d.process,
                        first.value,
                        d.value
                    ),
                },
                Err(_) => break,
            }
        }
        seen
    }

    /// Injects a message into a node as if sent by `from` (test hook for
    /// Byzantine drivers living outside the cluster).
    pub fn inject(&self, from: ProcessId, to: ProcessId, msg: M) {
        let _ = self.controls[to.index()].send(Inbound::Peer(from, msg));
    }

    /// Submits a client command to every node — the paper's §1.1 client
    /// model (a command reaches all replicas; whichever leads the next slot
    /// proposes it, and identity dedup keeps execution at-most-once).
    pub fn submit_all(&self, command: Value) {
        for control in &self.controls {
            let _ = control.send(Inbound::Client(command.clone()));
        }
    }

    /// The stream of applied-command events from all nodes. Events from one
    /// node arrive in log order; events from different nodes interleave
    /// arbitrarily.
    pub fn applied_events(&self) -> &Receiver<Applied> {
        &self.applied
    }

    /// Stops all threads, joins them, and hands back the actors in seat
    /// order so callers can inspect final state (e.g. an SMR node's applied
    /// log and state machine) after the run.
    ///
    /// # Panics
    ///
    /// Propagates a replica thread's panic (original payload intact, via
    /// `resume_unwind`) instead of silently dropping its seat — swallowing
    /// it would both mask the original bug and shift every later actor out
    /// of seat order.
    pub fn shutdown(self) -> Vec<Box<dyn Actor<M> + Send>> {
        for s in &self.controls {
            let _ = s.send(Inbound::Shutdown);
        }
        self.threads
            .into_iter()
            .flatten()
            .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    }

    /// Stops one seat (kill-a-node chaos hook): shuts its event loop down,
    /// joins its thread, and hands back the actor. The rest of the cluster
    /// keeps running; revive the seat with
    /// [`restart_node`](ClusterHandle::restart_node).
    ///
    /// # Panics
    ///
    /// Panics if the seat is already stopped, and propagates the replica
    /// thread's panic (if it died) like [`shutdown`](ClusterHandle::shutdown).
    pub fn stop_node(&mut self, index: usize) -> Box<dyn Actor<M> + Send> {
        let thread = self.threads[index]
            .take()
            .expect("seat is running (not already stopped)");
        let _ = self.controls[index].send(Inbound::Shutdown);
        thread
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    }

    /// Restarts a stopped seat with a fresh actor and transport — the
    /// kill-and-rejoin path. The new node reports into the same decision /
    /// applied streams (elapsed times stay on the original cluster clock);
    /// state catch-up is the *actor's* job (e.g. an SMR node's snapshot
    /// recovery).
    ///
    /// # Panics
    ///
    /// Panics if the seat is still running
    /// ([`stop_node`](ClusterHandle::stop_node) it first).
    pub fn restart_node<T: Transport<M>>(&mut self, index: usize, seat: NodeSeat<M, T>) {
        assert!(
            self.threads[index].is_none(),
            "seat {index} is still running; stop_node it first"
        );
        let NodeSeat {
            actor,
            mut transport,
            control,
            ..
        } = seat;
        self.controls[index] = control;
        let id = ProcessId::from_index(index);
        let n = self.controls.len();
        let decisions_tx = self.decisions_tx.clone();
        let applied_tx = self.applied_tx.clone();
        let (start, tick) = (self.start, self.tick);
        self.threads[index] = Some(std::thread::spawn(move || {
            run_node(
                actor,
                id,
                n,
                &mut transport,
                decisions_tx,
                applied_tx,
                start,
                tick,
            )
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_core::replica::{Replica, ReplicaOptions};
    use fastbft_core::Message;
    use fastbft_crypto::KeyDirectory;
    use fastbft_sim::ScriptedActor;
    use fastbft_types::Config;

    fn replicas(
        cfg: Config,
        inputs: &[u64],
        silent: &[u32],
    ) -> Vec<Box<dyn Actor<Message> + Send>> {
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), 9);
        let opts = ReplicaOptions::default();
        (0..cfg.n())
            .map(|i| -> Box<dyn Actor<Message> + Send> {
                if silent.contains(&(i as u32 + 1)) {
                    Box::new(ScriptedActor::silent())
                } else {
                    Box::new(Replica::with_options(
                        cfg,
                        pairs[i].clone(),
                        dir.clone(),
                        Value::from_u64(inputs[i]),
                        opts.clone(),
                    ))
                }
            })
            .collect()
    }

    #[test]
    fn tick_delays_beyond_u32_are_not_truncated() {
        // The old conversion clamped the tick count through `u32`, silently
        // shortening any delay beyond u32::MAX ticks to ~u32::MAX ticks.
        let tick = Duration::from_millis(1);
        let delay = 1u64 << 40; // ≫ u32::MAX ticks
        let d = ticks_to_duration(tick, delay);
        assert_eq!(d, Duration::from_millis(1 << 40));
        // What the buggy conversion produced — must NOT be the answer.
        assert!(d > tick.saturating_mul(u32::MAX));
    }

    #[test]
    fn tick_delays_saturate_instead_of_overflowing() {
        let d = ticks_to_duration(Duration::from_secs(1), u64::MAX);
        assert_eq!(d, Duration::from_nanos(u64::MAX));
        // Zero tick (as-fast-as-possible clusters) stays zero.
        assert_eq!(ticks_to_duration(Duration::ZERO, u64::MAX), Duration::ZERO);
        // And the deadline helper never panics on Instant overflow.
        let far = timer_deadline(Instant::now(), Duration::from_secs(1), u64::MAX);
        assert!(far > Instant::now());
    }

    /// Decides 1 on start and 2 when its first timer fires.
    struct Flipper;

    impl Actor<Message> for Flipper {
        fn on_start(&mut self, fx: &mut Effects<Message>) {
            fx.decide(Value::from_u64(1));
            fx.set_timer(SimDuration(1), TimerId(1));
        }

        fn on_message(&mut self, _: ProcessId, _: Message, _: &mut Effects<Message>) {}

        fn on_timer(&mut self, _: TimerId, fx: &mut Effects<Message>) {
            fx.decide(Value::from_u64(2));
        }
    }

    #[test]
    fn a_changed_decision_is_refused() {
        let cluster = spawn(vec![Box::new(Flipper), Box::new(ScriptedActor::silent())]);
        let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.await_decisions(2, Duration::from_secs(5))
        }));
        cluster.shutdown();
        let panic = waited.expect_err("p1 decided 1, then 2");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(message, "p1 changed its decision from Value(1) to Value(2)");
    }

    #[test]
    fn four_threads_reach_consensus() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let cluster = spawn(replicas(cfg, &[7, 7, 7, 7], &[]));
        let decisions = cluster.await_decisions(4, Duration::from_secs(10));
        cluster.shutdown();
        assert_eq!(decisions.len(), 4);
        for d in &decisions {
            assert_eq!(d.value, Value::from_u64(7));
        }
    }

    #[test]
    fn silent_replica_does_not_block_consensus() {
        let cfg = Config::new(4, 1, 1).unwrap();
        // p4 silent (not the view-1 leader p2): fast path still works.
        let cluster = spawn(replicas(cfg, &[3, 3, 3, 3], &[4]));
        let decisions = cluster.await_decisions(3, Duration::from_secs(10));
        cluster.shutdown();
        assert_eq!(decisions.len(), 3);
        for d in &decisions {
            assert_eq!(d.value, Value::from_u64(3));
        }
    }

    #[test]
    fn silent_leader_recovers_in_real_time() {
        let cfg = Config::new(4, 1, 1).unwrap();
        // leader(1) = p2 silent: the view change must fire on real timers.
        let cluster = spawn(replicas(cfg, &[5, 5, 5, 5], &[2]));
        let decisions = cluster.await_decisions(3, Duration::from_secs(30));
        cluster.shutdown();
        assert_eq!(decisions.len(), 3, "view change must recover");
        for d in &decisions {
            assert_eq!(d.value, Value::from_u64(5));
        }
    }

    #[test]
    fn generalized_config_runs_threaded() {
        let cfg = Config::new(8, 2, 1).unwrap();
        let cluster = spawn(replicas(cfg, &[9; 8], &[]));
        let decisions = cluster.await_decisions(8, Duration::from_secs(10));
        cluster.shutdown();
        assert_eq!(decisions.len(), 8);
    }
}
