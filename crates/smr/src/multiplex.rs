//! Slot multiplexing: one consensus instance per log position.
//!
//! [`SmrNode`] wraps one [`Replica`] per slot and routes [`SlotMessage`]s
//! between them. Decided slots are applied to the node's [`StateMachine`]
//! strictly in slot order, so all replicas execute the same command
//! sequence — the replicated state machine of the paper's introduction.
//!
//! The node keeps **one record per slot** (`Slot`, in one ordered table)
//! from the moment it opens the slot, or is told its outcome, until it
//! applies it: the instance, what this node drained into its proposal,
//! whether it revoked it, the decided value. Everything else it holds has
//! one owner — a private module of this crate that hides a format or
//! enforces a bound — and this file is what is left: the table, the routing
//! ([`Actor`]), the apply loop and the catch-up handlers.
//!
//! Seven invariants beyond plain slot routing, each with its owner:
//!
//! 1. **At-most-once execution** — `dedup`, and the drained commands in the
//!    slot record. Commands a node proposes move into their slot's record
//!    (never re-proposed while the slot is pipelined), and applying dedups
//!    by command identity: a command decided in two slots (slots overlap;
//!    several nodes propose the same broadcast command) executes and is
//!    logged exactly once, whatever its bytes — no command is exempt.
//!    Tagged commands
//!    ([`tag_command`](crate::tag::tag_command)) are exact over any
//!    horizon, untagged ones over the last two snapshot intervals.
//! 2. **Bounded buffering** — `ahead`, and the window here. A consensus
//!    frame for a slot at or beyond `applied + SLOT_WINDOW` is dropped (it
//!    still counts towards the recovery trigger); what peers say a slot
//!    this node has not settled decided (backfill votes) is bounded by slot
//!    horizon, entry count and bytes, farthest slot evicted first: a
//!    Byzantine peer spraying frames for distant slots cannot exhaust
//!    memory. What a peer can make an *open* instance hold is `core`'s to
//!    bound; ARCHITECTURE's bounds table names the row still open there.
//! 3. **Idle quiescence** — `multiplex::pipeline` (`quiescent`, the fill
//!    loop). Slots open only while there is work (pending or in-flight
//!    commands, or a peer demonstrably ahead); an idle cluster stops
//!    opening slots, and a client command ([`Actor::on_client`]) restarts
//!    it. A slot opened with nothing to commit proposes the empty batch,
//!    which applies and logs nothing: the log holds exactly the commands
//!    clients submitted, so a log index is a command index.
//! 4. **Revoked slots** — `multiplex::pipeline` (`open_slot`,
//!    `revoke_ahead`), fed by `suspicion`. While a node's pipeline overlaps
//!    (two or more of its proposals running at once in live-led slots) a
//!    slot whose first leader it suspects gets the empty batch from it,
//!    never its commands, whoever asks for the slot, and is started as it
//!    enters the window: its view change decides the empty batch before
//!    the log position is wanted. Never without that much in-flight work,
//!    so an idle node has nothing running, at most a few decided empty
//!    slots parked above the next free slot.
//! 5. **Adaptive proposal batching** — `batcher`. How many queued commands
//!    a proposal drains is a feedback-tuned target within the
//!    [`AdaptiveBatch`] bounds; the node tells the batcher what happened (a
//!    drain, a commit, a hold, the backstop) and whether it is quiescent.
//! 6. **Ingress backpressure** — here ([`Actor::on_client`]). A bounded
//!    pending-command budget, count and bytes; submissions past it are shed
//!    and counted. Re-queued work is exempt.
//! 7. **Catch-up** — `checkpoint`, and the committed tail here. Every
//!    snapshot interval a node takes a digest-attested snapshot of machine
//!    and dedup state, truncates tail and dedup generations below it and
//!    broadcasts a signed [`SlotMessage::Checkpoint`]. A node that sees f+1
//!    peers a recovery gap ahead asks for state, installs the first
//!    snapshot carrying f+1 matching attestations, absorbs the committed
//!    suffix through quorum-matched [`SlotMessage::Backfill`] frames and
//!    resumes voting. A consensus frame about a slot this node has pruned
//!    below its snapshot is answered the same way, as a request from its
//!    sender: the one way back for a replica stuck on such a slot.
//!
//! ARCHITECTURE, "The runtime SMR layer", draws the life of a slot through
//! these owners and tabulates every bound with the test at its edge.

use std::collections::{BTreeMap, VecDeque};
use std::mem;
use std::time::Instant;

use fastbft_core::message::Message;
use fastbft_core::replica::{CommitPath, Replica, ReplicaOptions};
use fastbft_crypto::{Digest, KeyDirectory, KeyPair, Signature};
use fastbft_sim::{Actor, Effects, Outgoing, SimTime, TimerId};
use fastbft_types::wire::to_bytes;
use fastbft_types::{Config, ProcessId, Value, View};

use crate::ahead::AheadBuffer;
use crate::batcher::{AdaptiveBatch, Batcher, Batching};
use crate::checkpoint::{self, Checkpoints, SnapshotPayload};
use crate::dedup::{CommandId, Dedup};
use crate::machine::StateMachine;
use crate::suspicion::SuspicionTable;

pub use crate::checkpoint::{checkpoint_signature, snapshot_response_valid};
pub use crate::slot_message::SlotMessage;

mod pipeline;

/// Default [`SmrNode::with_pipeline_depth`]: a few slots in flight keeps
/// the transport busy (frames from several slots coalesce into one write)
/// without flooding the window when a slot stalls.
const DEFAULT_PIPELINE_DEPTH: u64 = 16;

/// How many slots ahead of the lowest unapplied slot a node will
/// instantiate replicas for. Consensus frames beyond the window are
/// dropped: a node that far behind catches up by state transfer.
pub const SLOT_WINDOW: u64 = 64;

/// Backfill votes for slots at or beyond `applied + BACKFILL_HORIZON` are
/// dropped, and a snapshot interval is at most half of it
/// ([`SmrNode::with_snapshot_interval`]): the committed tail a recovering
/// node absorbs past the snapshot it installs always fits.
pub const BACKFILL_HORIZON: u64 = 4 * SLOT_WINDOW;

/// Default [`SmrNode::with_snapshot_interval`]: a snapshot every this many
/// applied slots. Two windows keeps checkpoint overhead negligible while
/// bounding per-replica dedup/tail memory to O(interval).
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 2 * SLOT_WINDOW;

/// Timer id reserved for re-issuing a [`SlotMessage::SnapshotRequest`]
/// while a recovery gap persists. Slot timers are `slot * TIMER_STRIDE +
/// gen`, so this value is unreachable by any realistic slot.
const RECOVERY_TIMER: TimerId = TimerId(u64::MAX);

/// Timer id reserved for the batcher's flush-age backstop: a batch held
/// back while the pipeline is busy flushes when it fires even if the
/// pipeline never quiesces.
const BATCH_FLUSH_TIMER: TimerId = TimerId(u64::MAX - 1);

/// Timer namespace stride: slot id in the high bits, the replica's own
/// timer generation in the low bits.
const TIMER_STRIDE: u64 = 1 << 32;

/// Default ingress budget in queued commands (see
/// [`SmrNode::with_ingress_budget`]).
pub const DEFAULT_INGRESS_MAX_CMDS: usize = 65_536;

/// Default ingress budget in queued command bytes: 64 MiB.
pub const DEFAULT_INGRESS_MAX_BYTES: usize = 64 << 20;

/// One log position, from the moment this node opens it (or is told its
/// outcome) until it is applied. Entries live in [`SmrNode::slots`] for
/// exactly the slots `>= applied` that have an instance, a decided value,
/// or both.
#[derive(Default)]
struct Slot {
    /// The slot's consensus instance; `None` for a slot settled by backfill
    /// that this node never opened.
    instance: Option<Instance>,
    /// Commands this node drained from `pending` into its proposal for the
    /// slot: in flight until the slot is applied, then re-queued if it
    /// decided something else.
    drained: Vec<Value>,
    /// Whether this node started the slot with the empty batch because it
    /// suspected its first leader (see [`SmrNode::open_slot`]).
    revoked: bool,
    /// The decided value, until the apply point reaches the slot.
    decided: Option<Value>,
}

/// A slot's running consensus instance and when it was started.
struct Instance {
    replica: Replica,
    /// On this actor's clock (the batcher's commit-latency EWMA).
    started: SimTime,
    /// On the wall clock, for the commit/apply latency histograms alone:
    /// nothing the node decides reads it, so a simulated run still repeats
    /// exactly.
    started_wall: Instant,
}

/// Microseconds since `at`, for a latency histogram.
fn elapsed_us(at: Instant) -> u64 {
    u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One process of the replicated state machine. See module docs.
pub struct SmrNode<S: StateMachine> {
    cfg: Config,
    pub(crate) keys: KeyPair,
    dir: KeyDirectory,
    pub(crate) opts: ReplicaOptions,
    /// The replicated state machine, executed on the event loop.
    machine: S,
    /// Commands this node wants committed, in submission order.
    pending: VecDeque<Value>,
    /// Summed command bytes across `pending` (ingress budget accounting).
    pending_bytes: usize,
    /// How queued commands are grouped into slot proposals.
    batcher: Batcher,
    /// Ingress budget: queued client commands past this count are shed.
    ingress_max_cmds: usize,
    /// Ingress budget: queued client-command bytes past this are shed.
    ingress_max_bytes: usize,
    /// How many consecutive slots may run concurrently while commands are
    /// queued (1 = strictly sequential). Deeper pipelines amortize wakeups
    /// and let the transport's writer threads coalesce frames from several
    /// slots into single writes.
    pipeline_depth: u64,
    /// Every slot at or above `applied` this node has opened or knows the
    /// outcome of: one [`Slot`] record each, removed as the slot applies.
    slots: BTreeMap<u64, Slot>,
    /// Seats watched failing as leaders, consulted after every callback
    /// into a slot's instance (see [`crate::suspicion`]).
    suspicion: SuspicionTable,
    /// Next slot to apply.
    applied: u64,
    /// Slots `< propose_cursor` may no longer drain `pending` (keeps
    /// batches committing in submission order even when slots open out of
    /// order under adversarial scheduling).
    propose_cursor: u64,
    /// Which client commands have been executed (the at-most-once guard).
    dedup: Dedup,
    /// Backfill votes: per unsettled slot, each sender's claimed committed
    /// value. A value is applied once f+1 distinct senders agree on it.
    backfill: AheadBuffer,
    /// Commands applied so far: the log index the next applied command
    /// takes.
    log_len: u64,
    /// Snapshot cadence, the latest snapshot with its attestations, and the
    /// state-transfer bookkeeping (see [`crate::checkpoint`]).
    checkpoints: Checkpoints,
    /// Committed values for slots `>= snapshot.upto` — the suffix served to
    /// recovering peers as backfill. Pruned at each snapshot, so it holds
    /// at most one interval of values.
    committed_tail: BTreeMap<u64, Value>,
}

impl<S: StateMachine> SmrNode<S> {
    /// Creates a node with a queue of client commands to commit.
    ///
    /// Vestige: `_idle_input` is ignored (a slot with nothing to commit proposes the empty batch); the parameter stays because the frozen `benchmark/` names it.
    pub fn new(
        cfg: Config,
        keys: KeyPair,
        dir: KeyDirectory,
        machine: S,
        commands: impl IntoIterator<Item = Value>,
        _idle_input: Value,
    ) -> Self {
        let pending: VecDeque<Value> = commands.into_iter().collect();
        let pending_bytes = pending.iter().map(|c| c.as_bytes().len()).sum();
        SmrNode {
            cfg,
            suspicion: SuspicionTable::default(),
            keys,
            dir,
            opts: ReplicaOptions::default(),
            machine,
            pending,
            pending_bytes,
            batcher: Batcher::new(Batching::default()),
            ingress_max_cmds: DEFAULT_INGRESS_MAX_CMDS,
            ingress_max_bytes: DEFAULT_INGRESS_MAX_BYTES,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            slots: BTreeMap::new(),
            applied: 0,
            propose_cursor: 0,
            dedup: Dedup::default(),
            backfill: AheadBuffer::backfill_votes(),
            log_len: 0,
            checkpoints: Checkpoints::new(DEFAULT_SNAPSHOT_INTERVAL),
            committed_tail: BTreeMap::new(),
        }
    }

    /// Caps each slot's proposal at `batch_size` commands, every other
    /// bound of the batching policy at its default. At 1 the batch target
    /// cannot leave 1 and nothing is ever held: one command per slot.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is 0.
    #[must_use]
    pub fn with_batch_size(self, batch_size: usize) -> Self {
        self.with_batching(Batching::Adaptive(AdaptiveBatch {
            max_batch_cmds: batch_size,
            ..AdaptiveBatch::default()
        }))
    }

    /// Sets the bounds within which queued commands are grouped into
    /// proposals. Default `Batching::Adaptive(AdaptiveBatch::default())`.
    ///
    /// # Panics
    ///
    /// Panics if a cap is 0.
    #[must_use]
    pub fn with_batching(mut self, batching: Batching) -> Self {
        self.batcher = Batcher::new(batching);
        self
    }

    /// Bounds the pending-command queue `on_client` may grow: submissions
    /// past either limit are shed (and counted in the `ingress_shed`
    /// metrics) instead of queued. Defaults
    /// [`DEFAULT_INGRESS_MAX_CMDS`] / [`DEFAULT_INGRESS_MAX_BYTES`].
    /// Commands re-queued internally (an in-flight batch whose slot
    /// decided another proposal) are exempt — backpressure never drops
    /// accepted work.
    ///
    /// # Panics
    ///
    /// Panics if either limit is 0.
    #[must_use]
    pub fn with_ingress_budget(mut self, max_cmds: usize, max_bytes: usize) -> Self {
        assert!(max_cmds >= 1, "ingress command budget must be at least 1");
        assert!(max_bytes >= 1, "ingress byte budget must be at least 1");
        self.ingress_max_cmds = max_cmds;
        self.ingress_max_bytes = max_bytes;
        self
    }

    /// Lets up to `depth` consecutive slots run concurrently while commands
    /// are queued (1 = strictly sequential slots, the pre-pipelining
    /// behavior). Commands still apply in slot order; a slot that decides
    /// someone else's proposal gets its commands re-queued exactly as in
    /// the sequential case. Default 16 (`DEFAULT_PIPELINE_DEPTH`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0.
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: u64) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        self.pipeline_depth = depth.min(SLOT_WINDOW);
        self
    }

    /// Snapshot every `interval` applied slots. Default 128
    /// ([`DEFAULT_SNAPSHOT_INTERVAL`]). Smaller intervals bound memory and
    /// recovery time tighter at the cost of more frequent checkpoint
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= interval <= BACKFILL_HORIZON / 2` — the
    /// committed tail a recovering peer must absorb spans at most one
    /// interval past the snapshot point, and it has to fit inside the
    /// backfill horizon or catch-up could never complete.
    #[must_use]
    pub fn with_snapshot_interval(mut self, interval: u64) -> Self {
        assert!(
            (1..=BACKFILL_HORIZON / 2).contains(&interval),
            "snapshot interval must be in 1..={}",
            BACKFILL_HORIZON / 2
        );
        self.checkpoints = Checkpoints::new(interval);
        self
    }

    /// Overrides the per-slot replica options.
    #[must_use]
    pub fn with_options(mut self, opts: ReplicaOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Number of *slots* applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of commands applied so far (≥ slots when batching, ≤ when
    /// slots decide the empty batch): the node's log length.
    pub fn commands_applied(&self) -> u64 {
        self.log_len
    }

    /// The snapshot boundary (first uncovered slot) of the latest snapshot
    /// taken or installed, if any.
    pub fn snapshot_upto(&self) -> Option<u64> {
        self.checkpoints.upto()
    }

    /// Digest of the machine state (cross-replica equality assertions).
    pub fn state_digest(&self) -> Digest {
        self.machine.state_digest()
    }

    /// Committed-suffix entries currently retained for serving backfill
    /// (bounded by the snapshot interval).
    pub fn tail_len(&self) -> usize {
        self.committed_tail.len()
    }

    /// The state machine (for assertions).
    pub fn machine(&self) -> &S {
        &self.machine
    }

    /// The batcher's current per-proposal command target (for tests and
    /// monitoring).
    pub fn batch_target(&self) -> usize {
        self.batcher.target()
    }

    /// Summed bytes of the commands queued at ingress (budget accounting;
    /// for tests and monitoring).
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Commands still waiting to be committed (queued or in flight).
    pub fn pending(&self) -> usize {
        let in_flight: usize = self.slots.values().map(|s| s.drained.len()).sum();
        self.pending.len() + in_flight
    }

    /// Value bytes the backfill votes hold for slots this node has not
    /// settled (test accessor for their byte bound).
    #[doc(hidden)]
    pub fn buffered_bytes(&self) -> usize {
        self.backfill.bytes()
    }

    /// Bytes the open instances hold against `core`'s
    /// `HELD_BYTES_BUDGET`, summed (test accessor for that bound).
    #[doc(hidden)]
    pub fn held_bytes(&self) -> usize {
        let instances = self.slots.values().filter_map(|s| s.instance.as_ref());
        instances.map(|i| i.replica.held_bytes()).sum()
    }

    /// Currently open consensus instances (for quiescence assertions).
    pub fn open_slots(&self) -> usize {
        self.instances().count()
    }

    /// The [`open_slots`](Self::open_slots) still running, i.e. not parked
    /// decided behind an earlier slot (test accessor).
    #[doc(hidden)]
    pub fn running_slots(&self) -> usize {
        self.instances().filter(|s| s.decided.is_none()).count()
    }

    /// The batch `slot` decided, while this node holds it: applied and
    /// still in the committed tail (from the latest snapshot boundary on).
    /// Test accessor: the log holds commands, not slots.
    #[doc(hidden)]
    pub fn decided_batch(&self, slot: u64) -> Option<Vec<Value>> {
        self.committed_tail.get(&slot).map(Self::decode_batch)
    }

    /// The view each open instance is in, by slot: how the Byzantine seat
    /// (`crate::byzantine`) learns that a slot entered a view.
    pub(crate) fn instance_views(&self) -> BTreeMap<u64, View> {
        self.slots
            .iter()
            .filter_map(|(slot, s)| Some((*slot, s.instance.as_ref()?.replica.view())))
            .collect()
    }

    /// The slot records that hold a consensus instance.
    fn instances(&self) -> impl Iterator<Item = &Slot> {
        self.slots.values().filter(|s| s.instance.is_some())
    }

    /// The seats this node currently suspects as dead leaders, in id order
    /// (for tests and monitoring).
    pub fn suspected_leaders(&self) -> Vec<ProcessId> {
        self.suspicion.suspects().collect()
    }

    /// Decodes a decided slot value into its command batch. Values that are
    /// not well-formed batches (possible when a Byzantine leader proposes
    /// raw bytes) are applied as a single opaque command — deterministically
    /// on every replica.
    fn decode_batch(value: &Value) -> Vec<Value> {
        fastbft_types::wire::from_bytes::<Vec<Value>>(value.as_bytes())
            .unwrap_or_else(|_| vec![value.clone()])
    }

    /// Runs one callback into `slot`'s instance, if it has one, and relays
    /// what it produced.
    fn with_instance(
        &mut self,
        slot: u64,
        fx: &mut Effects<SlotMessage>,
        callback: impl FnOnce(&mut Replica, &mut Effects<Message>),
    ) {
        let Some(instance) = self.slots.get_mut(&slot).and_then(|s| s.instance.as_mut()) else {
            return;
        };
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        callback(&mut instance.replica, &mut inner);
        self.suspicion
            .steer(slot, &mut instance.replica, &mut inner, &self.opts.metrics);
        self.relay_inner(slot, inner, fx);
    }

    fn deliver(&mut self, slot: u64, from: ProcessId, msg: Message, fx: &mut Effects<SlotMessage>) {
        self.with_instance(slot, fx, |replica, inner| {
            replica.on_message(from, msg, inner)
        });
    }

    fn relay_inner(&mut self, slot: u64, inner: Effects<Message>, fx: &mut Effects<SlotMessage>) {
        let tagged = |msg: &Message| SlotMessage::Consensus {
            slot,
            inner: msg.clone(),
        };
        for effect in inner.outgoing() {
            match effect {
                Outgoing::To(to, msg) => fx.send(*to, tagged(msg)),
                // Keep broadcasts structural through the slot wrapper so
                // the transport still encodes the payload only once.
                Outgoing::All(msg) => fx.broadcast(tagged(msg)),
            }
        }
        for (delay, timer) in inner.timers_set() {
            fx.set_timer(*delay, TimerId(slot * TIMER_STRIDE + timer.0));
        }
        if let Some(value) = inner.decision_made() {
            self.on_slot_decided(slot, value.clone(), fx);
        }
    }

    /// Size of the at-most-once dedup state: untagged digests across both
    /// generations plus above-watermark seqs across clients. For a workload
    /// of tagged, eventually-contiguous sequence numbers this returns to
    /// **zero** — the watermarks prune everything; for untagged traffic it
    /// is bounded by two snapshot intervals' worth of commands.
    pub fn dedup_entries(&self) -> usize {
        self.dedup.entries()
    }

    /// Applies one decided command at most once by identity, removing it
    /// from the local queue wherever it sits.
    fn apply_command(&mut self, cmd: Value, fx: &mut Effects<SlotMessage>) {
        if !self.dedup.insert(CommandId::of(&cmd)) {
            self.opts.metrics.dedup_dropped_total.inc();
            return; // already executed in an earlier slot
        }
        let found = self.pending.iter().position(|p| *p == cmd);
        let compared = found.map_or(self.pending.len(), |pos| pos + 1);
        self.opts
            .metrics
            .pending_compared_total
            .add(compared as u64);
        if let Some(removed) = found.and_then(|pos| self.pending.remove(pos)) {
            self.pending_bytes -= removed.as_bytes().len();
        }
        self.machine.apply(&cmd);
        fx.record_applied(self.log_len, &cmd);
        self.log_len += 1;
    }

    /// Puts the commands this node drained into a slot back at the queue
    /// front, in their order, except those executed meanwhile: the slot
    /// decided another proposal, an earlier slot or an installed snapshot
    /// already ran them. Exempt from the ingress budget — backpressure
    /// never drops accepted work.
    fn requeue_unapplied(&mut self, drained: Vec<Value>) {
        for cmd in drained.into_iter().rev() {
            if !self.dedup.contains(&CommandId::of(&cmd)) {
                self.pending_bytes += cmd.as_bytes().len();
                self.pending.push_front(cmd);
            }
        }
    }

    fn on_slot_decided(&mut self, slot: u64, value: Value, fx: &mut Effects<SlotMessage>) {
        if slot < self.applied {
            return;
        }
        let record = self.slots.entry(slot).or_default();
        if record.decided.is_some() {
            return;
        }
        // Backfill-settled slots have no local replica (and took neither
        // path here), so they feed neither the batcher's commit-latency
        // EWMA nor the commit latency histograms, which split by the path the
        // slot's own replica took.
        if let Some(instance) = &record.instance {
            self.batcher
                .slot_committed(fx.now().since(instance.started));
            let (m, at) = (&self.opts.metrics, instance.started_wall);
            match instance.replica.decided_path() {
                Some(CommitPath::Fast) => m.commit_latency_fast_us.record(elapsed_us(at)),
                Some(CommitPath::Slow) => m.commit_latency_slow_us.record(elapsed_us(at)),
                None => {}
            }
        }
        record.decided = Some(value);
        self.advance(fx);
    }

    /// Applies every now-contiguous decided slot in order, snapshots at
    /// interval boundaries, and keeps the pipeline moving.
    fn advance(&mut self, fx: &mut Effects<SlotMessage>) {
        // Apply contiguous decided slots, one command at a time (a slot
        // carries a batch). No record is below `applied`, so the next slot
        // to apply is the first record or not there.
        while let Some(first) = self.slots.first_entry() {
            if *first.key() != self.applied || first.get().decided.is_none() {
                break;
            }
            let record = first.remove();
            let value = record.decided.expect("checked above");
            let batch = Self::decode_batch(&value);
            if batch.is_empty() {
                self.opts.metrics.slot_empty_total.inc();
            }
            for cmd in batch {
                self.apply_command(cmd, fx);
            }
            self.committed_tail.insert(self.applied, value);
            self.requeue_unapplied(record.drained);
            if let Some(instance) = record.instance {
                let latency = elapsed_us(instance.started_wall);
                self.opts.metrics.apply_latency_us.record(latency);
            }
            self.applied += 1;
            if self.checkpoints.due(self.applied) {
                self.take_snapshot(fx);
            }
        }
        // Keep the pipeline going while there is work; quiesce when idle
        // (a client submission re-opens the pipeline via `on_client`). A
        // batcher holding a sub-target batch counts as idle here — but if
        // this advance drained the pipeline empty, `wants_proposal` sees
        // the quiescence and flushes the held batch right now.
        if self.wants_proposal() || self.slots.values().any(|s| !s.drained.is_empty()) {
            self.open_slot(self.applied, fx);
        }
        self.fill_pipeline(fx);
        self.revoke_ahead(fx);
        self.arm_flush_timer(fx);
        self.backfill.purge_below(self.applied);
    }

    /// Checkpoints at the current (interval-aligned) apply point: truncates
    /// tail/dedup state below it, stores the snapshot with the
    /// attestations already parked for it, and broadcasts a signed
    /// attestation of its own.
    fn take_snapshot(&mut self, fx: &mut Effects<SlotMessage>) {
        let upto = self.applied;
        // Truncate everything the snapshot now covers.
        self.committed_tail = self.committed_tail.split_off(&upto);
        // Replicas rotate at identical boundaries, so the reachable dedup
        // set stays identical cluster-wide (determinism).
        self.dedup.rotate();
        let payload = SnapshotPayload {
            upto,
            log_offset: self.log_len,
            machine: self.machine.snapshot(),
            dedup: mem::take(&mut self.dedup),
        };
        let bytes = to_bytes(&payload);
        self.dedup = payload.dedup;
        let attestation = self
            .checkpoints
            .seal(&self.keys, &self.opts.metrics, upto, bytes);
        let m = &self.opts.metrics;
        m.snapshot_taken_total.inc();
        m.recorder.record(
            "snapshot",
            format!("p{} checkpointed upto={upto}", self.keys.id().0),
        );
        fx.broadcast(attestation);
    }

    /// Serves a recovering peer: the latest attested snapshot (if it covers
    /// anything the requester lacks) plus the committed suffix, slot by
    /// slot. Identical re-requests against unchanged local state are
    /// dropped (amplification bound).
    fn on_snapshot_request(&mut self, from: ProcessId, have: u64, fx: &mut Effects<SlotMessage>) {
        if from == fx.id() || !self.checkpoints.first_ask(from, have, self.applied) {
            return;
        }
        if let Some(response) = self.checkpoints.response(have, self.cfg.f()) {
            fx.send(from, response);
        }
        // The committed suffix the requester is missing (at most one
        // snapshot interval of values).
        for (&slot, value) in self.committed_tail.range(have..) {
            fx.send(
                from,
                SlotMessage::Backfill {
                    slot,
                    value: value.clone(),
                },
            );
        }
    }

    /// Installs a quorum-attested snapshot that is ahead of us: restores
    /// the machine, adopts the dedup and log-length bookkeeping, drops the
    /// queued commands the snapshot executed, discards everything below
    /// the boundary, and adopts the snapshot as our own (we can now serve
    /// it too).
    fn on_snapshot_response(
        &mut self,
        upto: u64,
        payload: Vec<u8>,
        sigs: Vec<Signature>,
        fx: &mut Effects<SlotMessage>,
    ) {
        if upto <= self.applied {
            return;
        }
        let (dir, m) = (&self.dir, &self.opts.metrics);
        let Some((parsed, digest, signers)) =
            checkpoint::open_response(dir, m, self.cfg.f(), upto, &payload, sigs)
        else {
            return;
        };
        // Machine first: restore is atomic, so a machine-level rejection
        // leaves this node fully unchanged.
        if !self.machine.restore(&parsed.machine) {
            return;
        }
        // What this node timed out on while it was cut off says nothing
        // about its peers.
        self.suspicion.reset(&self.opts.metrics);
        self.applied = upto;
        self.log_len = parsed.log_offset;
        self.dedup = parsed.dedup;
        // What the snapshot executed is not this node's to propose again:
        // past the untagged dedup window it would execute twice.
        let dedup = &self.dedup;
        self.pending
            .retain(|cmd| !dedup.contains(&CommandId::of(cmd)));
        self.pending_bytes = self.pending.iter().map(|c| c.as_bytes().len()).sum();
        // Slots below the boundary are settled by the snapshot: re-queue
        // our drained commands the snapshot did not execute, drop the rest
        // of their records.
        let keep = self.slots.split_off(&upto);
        for (_, record) in mem::replace(&mut self.slots, keep) {
            self.requeue_unapplied(record.drained);
        }
        self.committed_tail = self.committed_tail.split_off(&upto);
        self.propose_cursor = self.propose_cursor.max(upto);
        self.checkpoints.adopt(
            &self.keys,
            &self.opts.metrics,
            upto,
            digest,
            payload,
            signers,
        );
        let m = &self.opts.metrics;
        m.snapshot_installed_total.inc();
        m.recorder.record(
            "snapshot-install",
            format!("p{} installed snapshot upto={upto}", self.keys.id().0),
        );
        // Anything decided/backfilled at or past the boundary may now be
        // contiguous.
        self.advance(fx);
    }

    /// Collects one backfill vote; applies the value once f+1 distinct
    /// senders agree on it (at least one of them is correct, and a correct
    /// replica only backfills values it committed).
    fn on_backfill(
        &mut self,
        from: ProcessId,
        slot: u64,
        value: Value,
        fx: &mut Effects<SlotMessage>,
    ) {
        if from == fx.id()
            || slot < self.applied
            || self.slots.get(&slot).is_some_and(|s| s.decided.is_some())
        {
            return;
        }
        self.backfill
            .insert(self.applied, slot, from, value.clone());
        let votes = self.backfill.at(slot);
        if votes.iter().filter(|(_, vote)| *vote == value).count() > self.cfg.f() {
            self.backfill.remove(slot);
            self.opts.metrics.backfill_slots_total.inc();
            self.on_slot_decided(slot, value, fx);
        }
    }

    /// Tracks the highest slot `from` has demonstrably worked on, and
    /// checks the recovery trigger when the claim is far ahead.
    fn note_peer_tip(&mut self, from: ProcessId, slot: u64, fx: &mut Effects<SlotMessage>) {
        if from != fx.id() && self.checkpoints.note_tip(from, slot, self.applied) {
            self.maybe_recover(fx);
        }
    }

    /// Requests state transfer if the recovery trigger says so (see
    /// [`Checkpoints::arm_recovery`]), at most once per retry timeout.
    fn maybe_recover(&mut self, fx: &mut Effects<SlotMessage>) {
        if self.checkpoints.arm_recovery(self.applied, self.cfg.f()) {
            fx.broadcast_others(SlotMessage::SnapshotRequest { have: self.applied });
            fx.set_timer(self.opts.base_timeout, RECOVERY_TIMER);
        }
    }
}

impl<S: StateMachine + 'static> Actor<SlotMessage> for SmrNode<S> {
    fn on_start(&mut self, fx: &mut Effects<SlotMessage>) {
        self.open_slot(0, fx);
        self.fill_pipeline(fx);
    }

    fn on_message(&mut self, from: ProcessId, msg: SlotMessage, fx: &mut Effects<SlotMessage>) {
        match msg {
            SlotMessage::Consensus { slot, inner } => {
                self.note_peer_tip(from, slot, fx);
                if slot < self.applied {
                    // The sender is still running consensus on a slot we
                    // settled — typically a replica healing from a
                    // partition whose hole is too small to trip the
                    // far-behind trigger (`RECOVERY_GAP`). Acks and
                    // Commits get no answer: they are the protocol's own
                    // stragglers (the last ack and every Commit of a slot
                    // the fast path decided one delay earlier), and a
                    // sender that is really stuck follows them with a
                    // Wish, Vote or Propose.
                    if matches!(inner, Message::Ack(_) | Message::Commit(_)) {
                        return;
                    }
                    match self.committed_tail.get(&slot) {
                        // Once f + 1 peers answer with the committed value,
                        // the hole closes ([`Self::on_backfill`]). One
                        // reply per inbound frame, so a spamming peer
                        // gains no amplification.
                        Some(value) => fx.send(
                            from,
                            SlotMessage::Backfill {
                                slot,
                                value: value.clone(),
                            },
                        ),
                        // Pruned below our snapshot: the frame is a request
                        // for state from `slot` on, answered once per state
                        // of ours like any `SnapshotRequest`.
                        None => self.on_snapshot_request(from, slot, fx),
                    }
                    return;
                }
                if self.unopened(slot) {
                    // Beyond the window the frame is dropped: this node is
                    // far behind (the recovery trigger, pulled by
                    // `note_peer_tip` on this same frame, fixes that by
                    // state transfer), or the sender is hostile.
                    if slot >= self.applied + SLOT_WINDOW {
                        return;
                    }
                    self.open_slot(slot, fx);
                }
                self.deliver(slot, from, inner, fx);
            }
            SlotMessage::Checkpoint { upto, digest, sig } => {
                if from != fx.id() {
                    self.note_peer_tip(from, upto, fx);
                    let (dir, m) = (&self.dir, &self.opts.metrics);
                    self.checkpoints.attest(dir, m, from, upto, digest, sig);
                }
            }
            SlotMessage::SnapshotRequest { have } => {
                self.on_snapshot_request(from, have, fx);
            }
            SlotMessage::SnapshotResponse {
                upto,
                payload,
                sigs,
            } => {
                self.on_snapshot_response(upto, payload, sigs, fx);
            }
            SlotMessage::Backfill { slot, value } => {
                self.on_backfill(from, slot, value, fx);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<SlotMessage>) {
        if timer == RECOVERY_TIMER {
            // Still behind? Ask again (responders re-serve because our
            // `have` or their state will have moved).
            self.checkpoints.disarm_recovery();
            self.maybe_recover(fx);
            return;
        }
        if timer == BATCH_FLUSH_TIMER {
            // Flush-age backstop: commands the batcher holds flush now
            // even though the target was never reached.
            let held = !self.pending.is_empty();
            self.batcher.flush_timer_fired(held);
            if held {
                self.open_slot(self.applied, fx);
                self.fill_pipeline(fx);
            }
            return;
        }
        let inner_timer = TimerId(timer.0 % TIMER_STRIDE);
        self.with_instance(timer.0 / TIMER_STRIDE, fx, |replica, inner| {
            replica.on_timer(inner_timer, inner);
        });
    }

    fn on_client(&mut self, command: Value, fx: &mut Effects<SlotMessage>) {
        // Ingress backpressure: a bounded pending budget (count and
        // bytes); past it the command is shed and counted, not queued.
        let size = command.as_bytes().len();
        if self.pending.len() >= self.ingress_max_cmds
            || self.pending_bytes.saturating_add(size) > self.ingress_max_bytes
        {
            let m = &self.opts.metrics;
            m.ingress_shed_total.inc();
            m.ingress_shed_bytes_total.add(size as u64);
            return;
        }
        self.pending_bytes += size;
        self.pending.push_back(command);
        if self.wants_proposal() {
            // Wake the pipeline if it had quiesced; a no-op while it runs.
            self.open_slot(self.applied, fx);
            self.fill_pipeline(fx);
        }
        self.arm_flush_timer(fx);
    }

    fn label(&self) -> &'static str {
        "smr-node"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
