//! Thread-per-replica cluster over a pluggable [`Transport`].
//!
//! The same [`Actor`] implementations that run under the discrete-event
//! simulator run here against the wall clock: each replica gets an OS
//! thread, a [`Transport`] plays the reliable authenticated point-to-point
//! links (the sender id is attached by the transport, not the sender — a
//! process cannot spoof its identity), and timer requests are served from a
//! local timer heap.
//!
//! [`spawn_with`] runs seats over any transport: the in-process
//! [`ChannelTransport`] ([`channel_seats`]) or `fastbft-net`'s loopback TCP
//! (`tcp_seats`). What a replica applies leaves through one stream,
//! [`ClusterHandle::applied_events`]; `fastbft_smr`'s `SmrClusterHandle`
//! builds every replicated-log cluster on it and checks that stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use fastbft_sim::{Actor, Effects, Outgoing, SimDuration, SimMessage, SimTime, TimerId};
use fastbft_types::{ProcessId, Value};

use crate::transport::{ChannelTransport, Inbound, Polled, Transport};

/// One applied-command event reported by a replica thread. A replica emits
/// one of these per command it applies, via
/// [`Effects::record_applied`](fastbft_sim::Effects::record_applied), and
/// the runtime forwards every one, so the handle observes the full
/// replicated log as it grows. This is the runtime's only output stream:
/// a single-shot [`Effects::decide`](fastbft_sim::Effects::decide) is read
/// by the simulator's consensus checker, never here.
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
    applied: Receiver<Applied>,
    /// Retained so restarted seats report into the same stream with
    /// elapsed times on the original cluster clock.
    applied_tx: Sender<Applied>,
    start: Instant,
}

/// One replica's seat in a cluster: its protocol state machine, the
/// transport its event loop will run on, and the control sender feeding
/// that transport's inbound queue (used by [`ClusterHandle::submit_all`]
/// and [`ClusterHandle::shutdown`]).
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

/// Spawns one thread per seat over an arbitrary [`Transport`], timers at
/// [`TICK`]. Node `i` of the cluster runs as process `p_{i+1}`; the
/// transport of seat `i` must identify itself accordingly.
///
/// Vestige: `_tick` is ignored (every cluster runs at [`TICK`]); the parameter stays because the frozen `benchmark/` passes it.
pub fn spawn_with<M: SimMessage, T: Transport<M>>(
    seats: Vec<NodeSeat<M, T>>,
    _tick: Duration,
) -> ClusterHandle<M> {
    let n = seats.len();
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
        let applied_tx = applied_tx.clone();
        threads.push(Some(std::thread::spawn(move || {
            run_node(actor, id, n, &mut transport, applied_tx, start)
        })));
    }

    ClusterHandle {
        controls,
        threads,
        applied: applied_rx,
        applied_tx,
        start,
    }
}

/// Converts a protocol-tick delay into wall time without the silent `u32`
/// truncation the runtime used to apply: the product is computed in `u128`
/// nanoseconds and saturates at `Duration::from_nanos(u64::MAX)` (~584
/// years) instead of wrapping or clamping the tick count.
fn ticks_to_duration(delay_ticks: u64) -> Duration {
    let nanos = TICK.as_nanos().saturating_mul(u128::from(delay_ticks));
    if nanos > u128::from(u64::MAX) {
        Duration::from_nanos(u64::MAX)
    } else {
        Duration::from_nanos(nanos as u64)
    }
}

/// Arms a timer `delay` from `now`, saturating at the platform's far
/// future if the instant arithmetic itself would overflow.
fn timer_deadline(now: Instant, delay_ticks: u64) -> Instant {
    now.checked_add(ticks_to_duration(delay_ticks))
        .unwrap_or_else(|| now + Duration::from_secs(60 * 60 * 24 * 3650))
}

fn run_node<M: SimMessage>(
    mut actor: Box<dyn Actor<M> + Send>,
    id: ProcessId,
    n: usize,
    transport: &mut impl Transport<M>,
    applied: Sender<Applied>,
    start: Instant,
) -> Box<dyn Actor<M> + Send> {
    let mut timers: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();

    let now_ticks = |start: Instant| SimTime((start.elapsed().as_nanos() / TICK.as_nanos()) as u64);

    // Effect application shared by all four callbacks. Every
    // applied-command event is forwarded: a multi-slot actor reports one
    // per command it applies, and what to make of them is the consumer's
    // job (`fastbft_smr`'s checker), not the event loop's.
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
                timers.push(Reverse((timer_deadline(Instant::now(), delay.0), timer.0)));
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
    actor
}

impl<M: SimMessage> ClusterHandle<M> {
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
    /// order so callers can inspect final state (e.g. an SMR node's state
    /// machine) after the run.
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
    /// kill-and-rejoin path. The new node reports into the same applied
    /// stream (elapsed times stay on the original cluster clock);
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
        let applied_tx = self.applied_tx.clone();
        let start = self.start;
        self.threads[index] = Some(std::thread::spawn(move || {
            run_node(actor, id, n, &mut transport, applied_tx, start)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_delays_beyond_u32_are_not_truncated() {
        // The old conversion clamped the tick count through `u32`, silently
        // shortening any delay beyond u32::MAX ticks to ~u32::MAX ticks.
        let delay = 1u64 << 40; // ≫ u32::MAX ticks
        let d = ticks_to_duration(delay);
        assert_eq!(d, Duration::from_micros(50 << 40));
        // What the buggy conversion produced — must NOT be the answer.
        assert!(d > TICK.saturating_mul(u32::MAX));
    }

    #[test]
    fn tick_delays_saturate_instead_of_overflowing() {
        let d = ticks_to_duration(u64::MAX);
        assert_eq!(d, Duration::from_nanos(u64::MAX));
        // And the deadline helper never panics on Instant overflow.
        let far = timer_deadline(Instant::now(), u64::MAX);
        assert!(far > Instant::now());
    }
}
