//! The transport abstraction the replica event loop runs on.
//!
//! [`run_node`](crate::spawn_with) needs exactly two things from the
//! network: deliver my outgoing messages, and hand me incoming ones (with a
//! deadline, so the timer heap can fire). Everything else — channels vs
//! sockets, MAC verification, reconnects — lives behind the [`Transport`]
//! trait, so the same event loop drives the in-process
//! [`ChannelTransport`] and `fastbft-net`'s `TcpTransport`.
//!
//! A transport's receive side is fed through a control sender of
//! [`Inbound`] values: the cluster handle keeps a clone per node to inject
//! test messages and to deliver the shutdown signal, and socket reader
//! threads push authenticated deliveries through the same queue.

use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use fastbft_sim::SimMessage;
use fastbft_types::{ProcessId, Value};

/// An event queued toward a node's event loop.
#[derive(Debug)]
pub enum Inbound<M> {
    /// A protocol message from `ProcessId`. For cluster members the sender
    /// id is attached by the transport (channel runtime) or authenticated
    /// cryptographically (TCP transport) — never taken from the peer's own
    /// claim.
    Peer(ProcessId, M),
    /// Several protocol messages from one peer, delivered in order — how a
    /// transport that coalesces frames (TCP's writer drains) hands a whole
    /// authenticated batch to the event loop with a single queue operation.
    PeerBatch(ProcessId, Vec<M>),
    /// A client command submitted to this node while the cluster runs
    /// (routed to [`fastbft_sim::Actor::on_client`]). Clients are outside
    /// the `n`-process membership, so no sender id is attached.
    Client(Value),
    /// Stop the node's event loop.
    Shutdown,
}

/// Outcome of one [`Transport::recv`] call.
#[derive(Debug)]
pub enum Polled<M> {
    /// A message from a peer was delivered.
    Delivered(ProcessId, M),
    /// An in-order batch of messages from one peer was delivered (see
    /// [`Inbound::PeerBatch`]); the event loop processes them back to back.
    DeliveredBatch(ProcessId, Vec<M>),
    /// A client command was submitted.
    Client(Value),
    /// The shutdown signal arrived.
    Shutdown,
    /// The deadline passed with nothing to deliver.
    TimedOut,
    /// The transport can never deliver again (every feeder is gone).
    Closed,
}

/// Reliable authenticated point-to-point links, as assumed by the paper's
/// model (§2.1), from one node's point of view.
///
/// Implementations must guarantee that a [`Polled::Delivered`] sender id is
/// the true origin of the message among cluster members — protocols count
/// quorums by sender, so this is a safety-critical invariant, not a
/// convenience.
pub trait Transport<M: SimMessage>: Send + 'static {
    /// Sends `msg` to `to`. Sends to self must be delivered like any other
    /// message (quorum counting includes the sender). Sends to stopped or
    /// unreachable peers are silently dropped: the model only promises
    /// delivery between *correct* processes.
    fn send(&mut self, to: ProcessId, msg: M);

    /// Number of processes in the cluster, including this one — what the
    /// default [`broadcast`](Transport::broadcast) enumerates.
    fn cluster_size(&self) -> usize;

    /// Sends `msg` to every process, *including* this one (self-delivery
    /// keeps quorum counting uniform).
    ///
    /// The default is `cluster_size` point-to-point sends. Serializing
    /// transports should override it to encode the payload **once** per
    /// broadcast instead of once per destination — the TCP transport does
    /// (its per-peer frame MACs are computed over the shared bytes).
    fn broadcast(&mut self, msg: M) {
        for to in ProcessId::all(self.cluster_size()) {
            self.send(to, msg.clone());
        }
    }

    /// Waits for the next inbound event, at most `timeout` (`None` = wait
    /// forever).
    fn recv(&mut self, timeout: Option<Duration>) -> Polled<M>;

    /// Waits for the next inbound event like [`recv`](Transport::recv),
    /// then opportunistically drains up to `max - 1` more *already queued*
    /// events without blocking — the event loop processes the whole batch
    /// per wakeup instead of paying one wakeup per message.
    ///
    /// The returned batch is never empty; only its trailing element may be
    /// a control outcome ([`Polled::TimedOut`], [`Polled::Shutdown`],
    /// [`Polled::Closed`]) — draining stops as soon as one is seen, so no
    /// delivery is ever sequenced after a shutdown.
    ///
    /// The default drains by polling `recv` with a zero timeout;
    /// queue-backed transports override it with [`poll_queue_batch`].
    fn recv_batch(&mut self, max: usize, timeout: Option<Duration>) -> Vec<Polled<M>> {
        let mut out = Vec::with_capacity(max.clamp(1, 64));
        let first = self.recv(timeout);
        let draining = matches!(
            first,
            Polled::Delivered(..) | Polled::DeliveredBatch(..) | Polled::Client(_)
        );
        out.push(first);
        while draining && out.len() < max.max(1) {
            match self.recv(Some(Duration::ZERO)) {
                Polled::TimedOut => break,
                event => {
                    let stop = !matches!(
                        event,
                        Polled::Delivered(..) | Polled::DeliveredBatch(..) | Polled::Client(_)
                    );
                    out.push(event);
                    if stop {
                        break;
                    }
                }
            }
        }
        out
    }
}

/// Maps a drained [`Inbound`] queue entry to a [`Polled`] outcome — shared
/// by every queue-fed transport implementation.
pub fn poll_queue<M>(rx: &Receiver<Inbound<M>>, timeout: Option<Duration>) -> Polled<M> {
    let event = match timeout {
        Some(wait) => match rx.recv_timeout(wait) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => return Polled::TimedOut,
            Err(RecvTimeoutError::Disconnected) => return Polled::Closed,
        },
        None => match rx.recv() {
            Ok(event) => event,
            Err(_) => return Polled::Closed,
        },
    };
    polled_from(event)
}

fn polled_from<M>(event: Inbound<M>) -> Polled<M> {
    match event {
        Inbound::Peer(from, msg) => Polled::Delivered(from, msg),
        Inbound::PeerBatch(from, msgs) => Polled::DeliveredBatch(from, msgs),
        Inbound::Client(command) => Polled::Client(command),
        Inbound::Shutdown => Polled::Shutdown,
    }
}

/// [`Transport::recv_batch`] for queue-fed transports: one (possibly
/// blocking) [`poll_queue`], then a non-blocking `try_recv` drain of
/// whatever is already queued, up to `max` events total. Stops at the
/// first control outcome so nothing is sequenced after a shutdown.
pub fn poll_queue_batch<M>(
    rx: &Receiver<Inbound<M>>,
    max: usize,
    timeout: Option<Duration>,
) -> Vec<Polled<M>> {
    let mut out = Vec::with_capacity(max.clamp(1, 64));
    let first = poll_queue(rx, timeout);
    let draining = matches!(
        first,
        Polled::Delivered(..) | Polled::DeliveredBatch(..) | Polled::Client(_)
    );
    out.push(first);
    while draining && out.len() < max.max(1) {
        let Some(event) = rx.try_recv() else { break };
        let polled = polled_from(event);
        let stop = !matches!(
            polled,
            Polled::Delivered(..) | Polled::DeliveredBatch(..) | Polled::Client(_)
        );
        out.push(polled);
        if stop {
            break;
        }
    }
    out
}

/// The in-process transport: one crossbeam channel per node plays the
/// authenticated link, and the transport (not the sender) attaches the
/// sender id — a thread cannot spoof its identity.
pub struct ChannelTransport<M> {
    id: ProcessId,
    peers: Vec<Sender<Inbound<M>>>,
    rx: Receiver<Inbound<M>>,
}

impl<M: SimMessage> ChannelTransport<M> {
    /// Builds a fully connected mesh of `n` channel transports. Returns
    /// each node's transport paired with the control sender that feeds its
    /// queue (for injection and shutdown).
    pub fn mesh(n: usize) -> Vec<(ChannelTransport<M>, Sender<Inbound<M>>)> {
        type Link<M> = (Sender<Inbound<M>>, Receiver<Inbound<M>>);
        let links: Vec<Link<M>> = (0..n).map(|_| unbounded()).collect();
        let peers: Vec<Sender<Inbound<M>>> = links.iter().map(|(s, _)| s.clone()).collect();
        links
            .into_iter()
            .enumerate()
            .map(|(i, (tx, rx))| {
                (
                    ChannelTransport {
                        id: ProcessId::from_index(i),
                        peers: peers.clone(),
                        rx,
                    },
                    tx,
                )
            })
            .collect()
    }
}

#[cfg(test)]
impl<M: SimMessage> ChannelTransport<M> {
    /// Severs this transport's own clones of the peer senders so `recv`
    /// can observe [`Polled::Closed`] once every external feeder is gone.
    pub(crate) fn clear_peers_for_test(&mut self) {
        self.peers.clear();
    }
}

impl<M: SimMessage> Transport<M> for ChannelTransport<M> {
    fn send(&mut self, to: ProcessId, msg: M) {
        // A send to a stopped peer is fine; ignore the error.
        let _ = self.peers[to.index()].send(Inbound::Peer(self.id, msg));
    }

    fn cluster_size(&self) -> usize {
        self.peers.len()
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Polled<M> {
        poll_queue(&self.rx, timeout)
    }

    fn recv_batch(&mut self, max: usize, timeout: Option<Duration>) -> Vec<Polled<M>> {
        poll_queue_batch(&self.rx, max, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl SimMessage for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn mesh_attaches_true_sender_ids() {
        let mut mesh = ChannelTransport::<Ping>::mesh(3);
        let (mut t2, _) = mesh.remove(2);
        let (mut t0, _) = mesh.remove(0);
        t2.send(ProcessId(1), Ping(7));
        match t0.recv(Some(Duration::from_secs(1))) {
            Polled::Delivered(from, Ping(7)) => assert_eq!(from, ProcessId(3)),
            other => panic!("unexpected poll result: {other:?}"),
        }
    }

    #[test]
    fn self_send_is_delivered() {
        let mut mesh = ChannelTransport::<Ping>::mesh(1);
        let (mut t, _) = mesh.remove(0);
        t.send(ProcessId(1), Ping(1));
        assert!(matches!(
            t.recv(Some(Duration::from_secs(1))),
            Polled::Delivered(ProcessId(1), Ping(1))
        ));
    }

    #[test]
    fn control_sender_injects_and_shuts_down() {
        let mut mesh = ChannelTransport::<Ping>::mesh(2);
        let (mut t, control) = mesh.remove(0);
        control.send(Inbound::Peer(ProcessId(2), Ping(9))).unwrap();
        control.send(Inbound::Shutdown).unwrap();
        assert!(matches!(
            t.recv(None),
            Polled::Delivered(ProcessId(2), Ping(9))
        ));
        assert!(matches!(t.recv(None), Polled::Shutdown));
    }

    #[test]
    fn client_commands_flow_through_the_control_sender() {
        let mut mesh = ChannelTransport::<Ping>::mesh(2);
        let (mut t, control) = mesh.remove(0);
        control.send(Inbound::Client(Value::from_u64(9))).unwrap();
        match t.recv(None) {
            Polled::Client(cmd) => assert_eq!(cmd, Value::from_u64(9)),
            other => panic!("unexpected poll result: {other:?}"),
        }
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let mut mesh = ChannelTransport::<Ping>::mesh(3);
        let (mut t2, _) = mesh.remove(2);
        let (mut t0, _) = mesh.remove(0);
        t2.broadcast(Ping(5));
        assert!(matches!(
            t0.recv(Some(Duration::from_secs(1))),
            Polled::Delivered(ProcessId(3), Ping(5))
        ));
        assert!(matches!(
            t2.recv(Some(Duration::from_secs(1))),
            Polled::Delivered(ProcessId(3), Ping(5))
        ));
    }

    #[test]
    fn recv_batch_drains_queued_messages_in_order() {
        let mut mesh = ChannelTransport::<Ping>::mesh(2);
        let (mut t1, _) = mesh.remove(1);
        let (mut t0, _) = mesh.remove(0);
        for i in 0..5 {
            t1.send(ProcessId(1), Ping(i));
        }
        let batch = t0.recv_batch(3, Some(Duration::from_secs(1)));
        assert_eq!(batch.len(), 3, "capped at max");
        for (i, polled) in batch.into_iter().enumerate() {
            match polled {
                Polled::Delivered(ProcessId(2), Ping(got)) => assert_eq!(got, i as u32),
                other => panic!("unexpected poll result: {other:?}"),
            }
        }
        // The rest is still queued.
        assert_eq!(t0.recv_batch(16, Some(Duration::from_secs(1))).len(), 2);
    }

    #[test]
    fn recv_batch_stops_at_shutdown() {
        let mut mesh = ChannelTransport::<Ping>::mesh(1);
        let (mut t, control) = mesh.remove(0);
        control.send(Inbound::Peer(ProcessId(1), Ping(1))).unwrap();
        control.send(Inbound::Shutdown).unwrap();
        control.send(Inbound::Peer(ProcessId(1), Ping(2))).unwrap();
        let batch = t.recv_batch(16, Some(Duration::from_secs(1)));
        assert_eq!(batch.len(), 2, "nothing is sequenced after a shutdown");
        assert!(matches!(batch[0], Polled::Delivered(_, Ping(1))));
        assert!(matches!(batch[1], Polled::Shutdown));
    }

    #[test]
    fn recv_batch_timeout_is_a_singleton() {
        let mut mesh = ChannelTransport::<Ping>::mesh(1);
        let (mut t, _control) = mesh.remove(0);
        let batch = t.recv_batch(16, Some(Duration::from_millis(1)));
        assert_eq!(batch.len(), 1);
        assert!(matches!(batch[0], Polled::TimedOut));
    }

    #[test]
    fn timeout_and_close_are_distinguished() {
        let mut mesh = ChannelTransport::<Ping>::mesh(1);
        let (mut t, control) = mesh.remove(0);
        assert!(matches!(
            t.recv(Some(Duration::from_millis(1))),
            Polled::TimedOut
        ));
        // Drop every feeder: the transport's own peers list still holds a
        // sender for node 1 (itself), so sever that too by consuming it.
        drop(control);
        t.peers.clear();
        assert!(matches!(
            t.recv(Some(Duration::from_millis(1))),
            Polled::Closed
        ));
    }
}
