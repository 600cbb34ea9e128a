//! Slot multiplexing: one consensus instance per log position.
//!
//! [`SmrNode`] wraps one [`Replica`] per slot and
//! routes [`SlotMessage`]s between them. Decided slots are applied to the
//! node's [`StateMachine`] strictly in slot order, so all replicas execute
//! the same command sequence — the replicated state machine of the paper's
//! introduction.
//!
//! Four invariants beyond plain slot routing:
//!
//! * **At-most-once execution.** Commands a node proposes are moved into a
//!   per-slot in-flight set (never re-proposed while a slot is pipelined),
//!   and applying dedups by command identity — a command decided in two
//!   slots (possible when slots overlap, or when several nodes propose the
//!   same broadcast command) executes and is logged exactly once. The
//!   untagged dedup set rotates generationally at snapshot boundaries, so
//!   its identity window spans the last *two* snapshot intervals instead of
//!   the whole log (tagged commands keep exact watermark semantics; see
//!   [`tag_command`](crate::tag::tag_command)).
//! * **Bounded buffering.** Messages for slots beyond the instantiation
//!   window are stashed, but the stash is bounded in both dimensions (slot
//!   horizon and total message count) so a Byzantine peer spraying frames
//!   for arbitrarily distant slots cannot exhaust memory.
//! * **Idle quiescence.** The pipeline opens new slots only while there is
//!   work (pending or in-flight commands, or a peer demonstrably ahead);
//!   an idle cluster stops proposing filler instead of burning CPU — a
//!   client command (see [`Actor::on_client`]) restarts it.
//! * **Revoked slots.** While a node's pipeline overlaps — two or more of
//!   its proposals running at once in live-led slots, i.e. commands arrive
//!   faster than they commit — a slot whose first leader it suspects (the
//!   `suspicion` module) gets the idle filler from it, never its commands,
//!   whoever asks for the slot, and such slots are started *ahead*, as they
//!   enter its window: their view change decides a no-op before the log
//!   position is wanted, and the node's commands ride only in live-led
//!   slots. A node that runs one proposal at a time gains nothing from
//!   that and keeps its commands in the slot, as before. Never without
//!   that much in-flight work, so quiescence stands: an idle node has
//!   nothing running, at most a few decided no-ops parked above the next
//!   free slot.
//! * **Adaptive proposal batching.** How many queued commands a proposal
//!   drains is the `batcher` module's decision — a feedback-tuned target
//!   within the [`AdaptiveBatch`] bounds, a held batch flushed on
//!   quiescence or by a flush-age backstop; the node tells it what
//!   happened (a drain, a commit, a hold, the backstop) and whether it is
//!   quiescent.
//! * **Ingress backpressure.** `on_client` enforces a bounded
//!   pending-command budget (count and bytes); submissions past it are
//!   shed and counted instead of growing the queue without limit.
//! * **Catch-up.** Every `snapshot_interval` applied slots a node takes a
//!   digest-attested snapshot of its machine + dedup state, truncates the
//!   log and dedup generations below it, and broadcasts a signed
//!   [`SlotMessage::Checkpoint`]. A node that observes f+1 peers ahead of
//!   it by a recovery-gap margin requests state transfer, installs the
//!   first snapshot carrying f+1 matching attestations, absorbs the
//!   committed suffix via quorum-matched [`SlotMessage::Backfill`] frames,
//!   and resumes voting — so a partitioned or restarted replica rejoins
//!   instead of stalling behind the stash horizon forever.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::mem;
use std::time::Instant;

use fastbft_core::message::Message;
use fastbft_core::replica::{CommitPath, Replica, ReplicaOptions};
use fastbft_crypto::{Digest, KeyDirectory, KeyPair, Signature};
use fastbft_sim::{Actor, Effects, Outgoing, SimMessage, SimTime, TimerId};
use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::{Config, ProcessId, Value};

use crate::batcher::{AdaptiveBatch, Batcher, Batching, FlushReason};
use crate::machine::StateMachine;
use crate::suspicion::{self, SuspicionTable};
use crate::tag::parse_client_tag;

/// A frame of the replicated state machine: consensus traffic tagged with
/// its log slot, plus the checkpoint / state-transfer control plane.
// `Consensus` dominates the traffic, so the enum's size IS the consensus
// frame's size — boxing `Message` to appease `large_enum_variant` would
// buy nothing but a heap allocation per hot-path message.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum SlotMessage {
    /// A consensus message for one log position.
    Consensus {
        /// The log position this message belongs to.
        slot: u64,
        /// The inner consensus message.
        inner: Message,
    },
    /// "I snapshotted at `upto` and attest its payload digest": broadcast
    /// after every local snapshot, collected by peers so any of them can
    /// later serve that snapshot with f+1 attestations attached.
    Checkpoint {
        /// First slot *not* covered by the snapshot.
        upto: u64,
        /// Digest of the canonical snapshot payload bytes.
        digest: Digest,
        /// Signature over `(domain, upto, digest)` by the checkpointing
        /// process.
        sig: Signature,
    },
    /// "Send me everything after `have`": a recovering replica asking peers
    /// for their latest snapshot and committed suffix.
    SnapshotRequest {
        /// The requester's next unapplied slot.
        have: u64,
    },
    /// A snapshot with its attestations; installable once `sigs` holds f+1
    /// valid checkpoint signatures from distinct processes over the payload
    /// digest.
    SnapshotResponse {
        /// First slot not covered by the payload.
        upto: u64,
        /// Canonical `SnapshotPayload` bytes.
        payload: Vec<u8>,
        /// Checkpoint signatures over the payload digest.
        sigs: Vec<Signature>,
    },
    /// One committed slot value, replayed for a recovering peer. Applied
    /// only once f+1 distinct senders agree on the value (the transport
    /// authenticates senders; f+1 matching copies pin at least one correct
    /// replica's committed value).
    Backfill {
        /// The slot the value was committed in.
        slot: u64,
        /// The committed value.
        value: Value,
    },
}

impl SimMessage for SlotMessage {
    fn kind(&self) -> &'static str {
        match self {
            SlotMessage::Consensus { inner, .. } => inner.kind(),
            SlotMessage::Checkpoint { .. } => "checkpoint",
            SlotMessage::SnapshotRequest { .. } => "snap-request",
            SlotMessage::SnapshotResponse { .. } => "snap-response",
            SlotMessage::Backfill { .. } => "backfill",
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            SlotMessage::Consensus { inner, .. } => 1 + 8 + inner.wire_size(),
            SlotMessage::Checkpoint { .. } => 1 + 8 + 32 + Signature::WIRE_SIZE,
            SlotMessage::SnapshotRequest { .. } => 1 + 8,
            SlotMessage::SnapshotResponse { payload, sigs, .. } => {
                1 + 8 + 4 + payload.len() + 4 + sigs.len() * Signature::WIRE_SIZE
            }
            SlotMessage::Backfill { value, .. } => 1 + 8 + 4 + value.as_bytes().len(),
        }
    }
}

// Wire encoding: a variant tag, then the variant fields in declaration
// order — the same canonical-strict discipline as `Message`, so slot-tagged
// frames travel the authenticated TCP transport unchanged.
impl Encode for SlotMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SlotMessage::Consensus { slot, inner } => {
                buf.push(1);
                slot.encode(buf);
                inner.encode(buf);
            }
            SlotMessage::Checkpoint { upto, digest, sig } => {
                buf.push(2);
                upto.encode(buf);
                digest.encode(buf);
                sig.encode(buf);
            }
            SlotMessage::SnapshotRequest { have } => {
                buf.push(3);
                have.encode(buf);
            }
            SlotMessage::SnapshotResponse {
                upto,
                payload,
                sigs,
            } => {
                buf.push(4);
                upto.encode(buf);
                payload.encode(buf);
                sigs.encode(buf);
            }
            SlotMessage::Backfill { slot, value } => {
                buf.push(5);
                slot.encode(buf);
                value.encode(buf);
            }
        }
    }
}

impl Decode for SlotMessage {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            1 => SlotMessage::Consensus {
                slot: u64::decode(r)?,
                inner: Message::decode(r)?,
            },
            2 => SlotMessage::Checkpoint {
                upto: u64::decode(r)?,
                digest: <[u8; 32]>::decode(r)?,
                sig: Signature::decode(r)?,
            },
            3 => SlotMessage::SnapshotRequest {
                have: u64::decode(r)?,
            },
            4 => SlotMessage::SnapshotResponse {
                upto: u64::decode(r)?,
                payload: Vec::<u8>::decode(r)?,
                sigs: Vec::<Signature>::decode(r)?,
            },
            5 => SlotMessage::Backfill {
                slot: u64::decode(r)?,
                value: Value::decode(r)?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    tag,
                    context: "SlotMessage",
                })
            }
        })
    }
}

/// Per-client at-most-once state: every sequence number `<= watermark` has
/// been applied, plus the (small, transient) set of applied seqs above the
/// watermark — non-empty only while commits land out of submission order.
#[derive(Debug, Default)]
struct ClientDedup {
    watermark: u64,
    above: BTreeSet<u64>,
}

impl ClientDedup {
    fn contains(&self, seq: u64) -> bool {
        seq <= self.watermark || self.above.contains(&seq)
    }

    /// Records `seq` as applied and advances the watermark over the now
    /// contiguous prefix, pruning every entry the watermark overtakes.
    fn insert(&mut self, seq: u64) {
        self.above.insert(seq);
        while self.above.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
    }
}

/// Default [`SmrNode::with_pipeline_depth`]: a few slots in flight keeps
/// the transport busy (frames from several slots coalesce into one write)
/// without flooding the window when a slot stalls.
const DEFAULT_PIPELINE_DEPTH: u64 = 16;

/// How many slots ahead of the lowest unapplied slot a node will
/// instantiate replicas for. Messages beyond the window are buffered.
pub const SLOT_WINDOW: u64 = 64;

/// Messages for slots at or beyond `applied + MAX_STASH_AHEAD` are dropped
/// rather than stashed: no correct peer's pipeline runs this far ahead of a
/// node it shares quorums with, so such traffic is hostile — or the node
/// itself has fallen hopelessly behind, which the recovery path (not the
/// stash) is responsible for fixing.
pub const MAX_STASH_AHEAD: u64 = 4 * SLOT_WINDOW;

/// Total messages the stash may hold across all slots. When full, messages
/// for the farthest slots are evicted first — the nearest slots are the
/// ones that unblock the pipeline.
const MAX_STASHED_MESSAGES: usize = 4096;

/// Default [`SmrNode::with_snapshot_interval`]: a snapshot every this many
/// applied slots. Two windows keeps checkpoint overhead negligible while
/// bounding per-replica dedup/log memory to O(interval).
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 2 * SLOT_WINDOW;

/// A node requests state transfer once f+1 distinct peers claim tips at
/// least this many slots ahead of it — far enough that normal pipelining
/// (depth ≤ `SLOT_WINDOW`) never trips it, near enough to recover long
/// before the stash horizon drops everything.
const RECOVERY_GAP: u64 = SLOT_WINDOW / 2;

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

/// Domain-separation prefix for checkpoint attestations (keeps snapshot
/// signatures from colliding with consensus statements).
const SNAPSHOT_DOMAIN: &[u8; 8] = b"fbftSNAP";

/// The checkpoint attestation a process broadcasts after snapshotting at
/// `upto`: a signature over `(domain, upto, payload digest)`. Public so
/// tests can mint attestations for hand-built snapshots.
pub fn checkpoint_signature(keys: &KeyPair, upto: u64, digest: &Digest) -> Signature {
    keys.sign_parts(&[SNAPSHOT_DOMAIN, &upto.to_be_bytes(), digest])
}

/// Whether `sig` is a valid checkpoint attestation over `(upto, digest)`
/// — the verify twin of [`checkpoint_signature`].
fn checkpoint_signature_valid(
    dir: &KeyDirectory,
    upto: u64,
    digest: &Digest,
    sig: &Signature,
) -> bool {
    dir.verify_parts(&[SNAPSHOT_DOMAIN, &upto.to_be_bytes(), digest], sig)
}

/// Whether a [`SlotMessage::SnapshotResponse`] carries f+1 valid checkpoint
/// signatures from distinct processes over `payload`'s digest — the
/// quorum-authentication a recovering node demands before installing (f+1
/// distinct signers pin at least one correct replica attesting the bytes).
/// The node additionally requires the payload to parse as a
/// `SnapshotPayload` whose `upto` matches; any single-byte tamper of a
/// response breaks the digest (hence every signature) or the strict codec.
pub fn snapshot_response_valid(
    dir: &KeyDirectory,
    f: usize,
    upto: u64,
    payload: &[u8],
    sigs: &[Signature],
) -> bool {
    let digest = fastbft_crypto::digest(payload);
    let mut signers = BTreeSet::new();
    for sig in sigs {
        if checkpoint_signature_valid(dir, upto, &digest, sig) {
            signers.insert(sig.signer);
        }
    }
    signers.len() > f
}

/// One client's dedup state inside a snapshot payload.
#[derive(Debug, PartialEq)]
struct ClientEntry {
    client: u64,
    watermark: u64,
    above: Vec<u64>,
}

fastbft_types::impl_wire_struct!(ClientEntry {
    client,
    watermark,
    above
});

/// The canonical snapshot payload: everything a replica needs to resume
/// applying from slot `upto`. Canonical because every constituent is
/// emitted in sorted order from deterministic state, so replicas that
/// snapshotted at the same boundary produce byte-identical payloads — and
/// one digest identifies the snapshot cluster-wide.
#[derive(Debug, PartialEq)]
struct SnapshotPayload {
    /// First slot not covered by this snapshot.
    upto: u64,
    /// Global log index of the first post-snapshot log entry.
    log_offset: u64,
    /// Client (non-filler) commands applied up to `upto`.
    client_commands: u64,
    /// [`StateMachine::snapshot`] bytes.
    machine: Vec<u8>,
    /// Untagged dedup digests still in their identity window, sorted.
    dedup: Vec<Digest>,
    /// Per-client watermark dedup state, sorted by client id.
    clients: Vec<ClientEntry>,
}

fastbft_types::impl_wire_struct!(SnapshotPayload {
    upto,
    log_offset,
    client_commands,
    machine,
    dedup,
    clients
});

/// The latest local snapshot, with the attestations gathered for it.
struct NodeSnapshot {
    upto: u64,
    digest: Digest,
    payload: Vec<u8>,
    /// Checkpoint signatures over `digest`, by signer (own included).
    sigs: BTreeMap<ProcessId, Signature>,
}

/// One process of the replicated state machine. See module docs.
pub struct SmrNode<S: StateMachine> {
    cfg: Config,
    keys: KeyPair,
    dir: KeyDirectory,
    opts: ReplicaOptions,
    /// The replicated state machine, executed on the event loop.
    machine: S,
    /// Commands this node wants committed, in submission order.
    pending: VecDeque<Value>,
    /// Summed command bytes across `pending` (ingress budget accounting).
    pending_bytes: usize,
    /// Proposed-when-idle filler command.
    idle_input: Value,
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
    /// Open consensus instances, each with the time on this actor's clock
    /// at which it was started.
    slots: BTreeMap<u64, (Replica, SimTime)>,
    /// Seats watched failing as leaders, consulted after every callback
    /// into a slot's instance (see [`crate::suspicion`]).
    suspicion: SuspicionTable,
    /// Decided but possibly not yet applied values.
    decided: BTreeMap<u64, Value>,
    /// Next slot to apply.
    applied: u64,
    /// Commands this node drained from `pending` into a slot proposal, by
    /// slot. Re-queued at apply time if the slot decided something else.
    in_flight: BTreeMap<u64, Vec<Value>>,
    /// Slots `< propose_cursor` may no longer drain `pending` (keeps
    /// batches committing in submission order even when slots open out of
    /// order under adversarial scheduling).
    propose_cursor: u64,
    /// Unapplied slots this node started with the idle filler because it
    /// suspected their first leader (see [`open_slot`](SmrNode::open_slot)).
    revoked: BTreeSet<u64>,
    /// Digests of applied **untagged** client commands (at-most-once
    /// guard), current generation: 32 bytes per command regardless of
    /// command size. Rotated into `applied_cmds_old` at each snapshot, so
    /// the state is bounded by two snapshot intervals instead of growing
    /// with the log; clients that need exact at-most-once over unbounded
    /// horizons tag their commands (see [`crate::tag::tag_command`]) and land in
    /// `clients` instead.
    applied_cmds: HashSet<Digest>,
    /// Previous-generation untagged dedup digests (dropped at the next
    /// rotation).
    applied_cmds_old: HashSet<Digest>,
    /// Watermarked at-most-once state for **tagged** commands, per client:
    /// bounded by each client's out-of-order window, pruned as the
    /// watermark advances.
    clients: HashMap<u64, ClientDedup>,
    /// Messages for slots beyond the window, bounded (see module docs).
    stashed: BTreeMap<u64, Vec<(ProcessId, Message)>>,
    /// Total messages across all `stashed` buckets.
    stashed_total: usize,
    /// The applied command log *since the last snapshot* (for cross-replica
    /// assertions); entries below were truncated into the snapshot.
    log: Vec<Value>,
    /// Global log index of `log[0]` — total entries truncated so far.
    log_offset: u64,
    /// Client (non-idle) commands applied — the global log length minus
    /// filler.
    client_commands: u64,
    /// Snapshot cadence in applied slots (see `DEFAULT_SNAPSHOT_INTERVAL`).
    snapshot_interval: u64,
    /// Latest snapshot taken or installed, with gathered attestations.
    snapshot: Option<NodeSnapshot>,
    /// Checkpoint attestations that arrived for boundaries we haven't
    /// reached yet: per signer, the last two `(upto, digest, sig)` triples
    /// (bounded — a Byzantine signer can only evict its own entries).
    pending_attest: HashMap<ProcessId, VecDeque<(u64, Digest, Signature)>>,
    /// Committed values for slots `>= snapshot.upto` — the suffix served to
    /// recovering peers as backfill. Pruned at each snapshot, so it holds
    /// at most one interval of values.
    committed_tail: BTreeMap<u64, Value>,
    /// Highest slot each peer has demonstrably worked on (from consensus
    /// frame slot tags; transport-authenticated).
    peer_tips: HashMap<ProcessId, u64>,
    /// Whether a snapshot request is outstanding (cleared when the retry
    /// timer fires; prevents request spam while behind).
    recovery_armed: bool,
    /// Per-requester `(have, upto, applied)` of the last served snapshot
    /// request — identical re-requests are dropped, bounding response
    /// amplification from a request-spamming peer.
    served: HashMap<ProcessId, (u64, u64, u64)>,
    /// Backfill votes: slot → sender → claimed committed value. A value is
    /// applied once f+1 distinct senders agree on it.
    backfill: BTreeMap<u64, HashMap<ProcessId, Value>>,
    /// When each open slot's instance was created, on the wall clock.
    /// Populated only while a metrics sink is attached (the commit/apply
    /// latency histograms are the sole consumers), so the default sim path
    /// stays wall-clock-free.
    slot_opened: HashMap<u64, Instant>,
}

impl<S: StateMachine> SmrNode<S> {
    /// Creates a node with a queue of client commands to commit.
    pub fn new(
        cfg: Config,
        keys: KeyPair,
        dir: KeyDirectory,
        machine: S,
        commands: impl IntoIterator<Item = Value>,
        idle_input: Value,
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
            idle_input,
            batcher: Batcher::new(Batching::default()),
            ingress_max_cmds: DEFAULT_INGRESS_MAX_CMDS,
            ingress_max_bytes: DEFAULT_INGRESS_MAX_BYTES,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            slots: BTreeMap::new(),
            decided: BTreeMap::new(),
            applied: 0,
            in_flight: BTreeMap::new(),
            propose_cursor: 0,
            revoked: BTreeSet::new(),
            applied_cmds: HashSet::new(),
            applied_cmds_old: HashSet::new(),
            clients: HashMap::new(),
            stashed: BTreeMap::new(),
            stashed_total: 0,
            log: Vec::new(),
            log_offset: 0,
            client_commands: 0,
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
            snapshot: None,
            pending_attest: HashMap::new(),
            committed_tail: BTreeMap::new(),
            peer_tips: HashMap::new(),
            recovery_armed: false,
            served: HashMap::new(),
            backfill: BTreeMap::new(),
            slot_opened: HashMap::new(),
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
    /// Panics unless `1 <= interval <= MAX_STASH_AHEAD / 2` — the committed
    /// tail a recovering peer must absorb spans at most one interval past
    /// the snapshot point, and it has to fit inside the stash/backfill
    /// horizon or catch-up could never complete.
    #[must_use]
    pub fn with_snapshot_interval(mut self, interval: u64) -> Self {
        assert!(
            (1..=MAX_STASH_AHEAD / 2).contains(&interval),
            "snapshot interval must be in 1..={}",
            MAX_STASH_AHEAD / 2
        );
        self.snapshot_interval = interval;
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

    /// Number of *client* commands applied so far (≥ slots when batching;
    /// idle filler is excluded, matching the runtime handle's
    /// `await_commands` counting).
    pub fn commands_applied(&self) -> u64 {
        self.client_commands
    }

    /// The applied command log since the last snapshot (entries below
    /// [`log_offset`](Self::log_offset) were truncated into it).
    pub fn log(&self) -> &[Value] {
        &self.log
    }

    /// Global log index of `log()[0]`: how many applied entries snapshots
    /// have truncated away.
    pub fn log_offset(&self) -> u64 {
        self.log_offset
    }

    /// The snapshot boundary (first uncovered slot) of the latest snapshot
    /// taken or installed, if any.
    pub fn snapshot_upto(&self) -> Option<u64> {
        self.snapshot.as_ref().map(|s| s.upto)
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
        self.pending.len() + self.in_flight.values().map(Vec::len).sum::<usize>()
    }

    /// Messages currently stashed for beyond-window slots (bounded; for
    /// hostile-peer tests and monitoring).
    pub fn stashed_messages(&self) -> usize {
        self.stashed_total
    }

    /// Currently open consensus instances (for quiescence assertions).
    pub fn open_slots(&self) -> usize {
        self.slots.len()
    }

    /// The [`open_slots`](Self::open_slots) still running, i.e. not parked
    /// decided behind an earlier slot (test accessor).
    #[doc(hidden)]
    pub fn running_slots(&self) -> usize {
        self.slots
            .keys()
            .filter(|slot| !self.decided.contains_key(slot))
            .count()
    }

    /// The seats this node currently suspects as dead leaders, in id order
    /// (for tests and monitoring).
    pub fn suspected_leaders(&self) -> Vec<ProcessId> {
        self.suspicion.suspects().collect()
    }

    /// How many commands the next proposal should drain, and why (see
    /// [`Batcher::plan`]). Evaluated before a new slot is inserted
    /// (`open_slot` computes the input first), so "no open slots" really
    /// means idle. Pure: the planned drain happens in
    /// [`input_for_slot`](Self::input_for_slot).
    fn plan_drain(&self) -> Option<(usize, FlushReason)> {
        self.batcher.plan(&self.pending, self.quiescent())
    }

    /// Whether nothing is under way that a held batch could be waiting
    /// for, so it (and a lone command) flushes immediately rather than
    /// waiting out a timer: nothing of this node's in flight, and no
    /// instance open or parked other than the slots it revoked. Those it
    /// gave the filler, and an idle degraded cluster keeps some decided and
    /// parked above the next free slot, where only a new proposal can reach
    /// them. On a healthy cluster nothing is revoked and this is "no
    /// instance at all".
    fn quiescent(&self) -> bool {
        self.in_flight.is_empty()
            && self
                .slots
                .keys()
                .chain(self.decided.keys())
                .all(|slot| self.revoked.contains(slot))
    }

    /// Whether the node should open a slot to propose queued commands
    /// right now (the batcher may prefer to hold them).
    fn wants_proposal(&self) -> bool {
        self.plan_drain().is_some()
    }

    /// The slot proposal: a planned batch of queued commands (or the idle
    /// filler), encoded as one consensus value. Drained commands move to
    /// the slot's in-flight set so a pipelined slot can never re-propose
    /// them; they are re-queued at apply time if the slot decides
    /// something else.
    fn input_for_slot(&mut self, slot: u64) -> Value {
        let mut cmds: Vec<Value> = Vec::new();
        // The cursor advances only on a real drain: an idle proposal for an
        // out-of-order (e.g. adversarially sprayed in-window) slot must not
        // bar nearer slots from proposing queued commands.
        if slot >= self.propose_cursor {
            if let Some((take, reason)) = self.plan_drain() {
                for _ in 0..take {
                    let cmd = self.pending.pop_front().expect("plan bounds take by len");
                    self.pending_bytes -= cmd.as_bytes().len();
                    cmds.push(cmd);
                }
                self.propose_cursor = slot + 1;
                self.in_flight.insert(slot, cmds.clone());
                if let Some(m) = self.opts.metrics.get() {
                    m.batch_size.record(take as u64);
                    match reason {
                        FlushReason::Size => m.batch_flush_size_total.inc(),
                        FlushReason::Bytes => m.batch_flush_bytes_total.inc(),
                        FlushReason::Quiescence => m.batch_flush_quiescence_total.inc(),
                        FlushReason::Timeout => m.batch_flush_timeout_total.inc(),
                    }
                }
                self.batcher.drained(take, self.pending.len());
            }
        }
        if cmds.is_empty() {
            return self.filler();
        }
        Value::new(fastbft_types::wire::to_bytes(&cmds))
    }

    /// The proposal of a slot with nothing to commit: the idle filler
    /// alone, as a one-command batch.
    fn filler(&self) -> Value {
        let batch = vec![self.idle_input.clone()];
        Value::new(fastbft_types::wire::to_bytes(&batch))
    }

    /// Decodes a decided slot value into its command batch. Values that are
    /// not well-formed batches (possible when a Byzantine leader proposes
    /// raw bytes) are applied as a single opaque command — deterministically
    /// on every replica.
    fn decode_batch(value: &Value) -> Vec<Value> {
        fastbft_types::wire::from_bytes::<Vec<Value>>(value.as_bytes())
            .unwrap_or_else(|_| vec![value.clone()])
    }

    /// Opens further slots, up to the pipeline depth, while the batcher
    /// wants to propose — each drains its own proposal batch, unless
    /// [`open_slot`](Self::open_slot) revokes it. Slots already open (a
    /// peer's frame, or revoked ahead — an idle proposal from us either
    /// way) are skipped; the queued commands go into the next free slot.
    fn fill_pipeline(&mut self, fx: &mut Effects<SlotMessage>) {
        while self.wants_proposal() {
            let slot = self.propose_cursor.max(self.applied);
            if slot >= self.applied + self.pipeline_depth {
                break;
            }
            if !self.unopened(slot) {
                self.propose_cursor = slot + 1;
                continue;
            }
            self.open_slot(slot, fx);
        }
    }

    /// Revoking ahead: while this node's pipeline
    /// [overlaps](Self::overlapping), every slot of the window whose first
    /// leader it suspects is started *now*, so its view change runs before
    /// its log position is wanted. An ordinary instance started early;
    /// peers open it reactively like any in-window slot.
    fn revoke_ahead(&mut self, fx: &mut Effects<SlotMessage>) {
        if self.suspicion.is_empty() || !self.overlapping() {
            return;
        }
        for slot in self.applied..self.applied + self.pipeline_depth {
            if self.suspected_first_leader(slot).is_some() {
                self.open_slot(slot, fx);
            }
        }
    }

    /// Whether `slot` is still to be settled and has no instance yet.
    fn unopened(&self, slot: u64) -> bool {
        slot >= self.applied && !self.slots.contains_key(&slot) && !self.decided.contains_key(&slot)
    }

    /// The configuration of `slot`'s instance. First leadership rotates
    /// across slots so every process's commands get committed without
    /// waiting for a view change (fairness).
    fn slot_config(&self, slot: u64) -> Config {
        self.cfg.with_leader_offset(slot)
    }

    /// `slot`'s first leader, if this node's instance of it would start out
    /// wishing past that seat (one emptiness check on a healthy cluster).
    fn suspected_first_leader(&self, slot: u64) -> Option<ProcessId> {
        if self.suspicion.is_empty() {
            return None;
        }
        self.suspicion.skipped_first_leader(&self.slot_config(slot))
    }

    /// Whether this node's pipeline overlaps: two or more of its proposals
    /// are running at once in live-led slots, so commands arrive faster
    /// than they commit. Only then does keeping commands out of a dead-led
    /// slot buy anything — they commit elsewhere while its view change
    /// runs. A node that runs one proposal at a time (depth 1, or a trickle
    /// slower than its commits) would wait for that view change from the
    /// next slot just as long as from inside, a log slot poorer, and what
    /// it started ahead would still be on the wire after its last commit.
    /// A proposal riding a dead-led slot, or decided and parked behind
    /// one, is slow for that reason and does not count.
    fn overlapping(&self) -> bool {
        self.in_flight
            .keys()
            .filter(|slot| !self.decided.contains_key(slot))
            .filter(|slot| self.suspected_first_leader(**slot).is_none())
            .nth(1)
            .is_some()
    }

    /// Starts `slot`'s instance unless it has one or is settled. The one
    /// place a slot's proposal is chosen: while the pipeline
    /// [overlaps](Self::overlapping), a slot whose first leader this node
    /// suspects is *revoked* — it gets the idle filler, drains nothing,
    /// takes no `in_flight` entry and leaves `propose_cursor` alone,
    /// whoever asked for it (the fill loop, [`revoke_ahead`], a peer's
    /// frame) — so the node's commands ride only in live-led slots. Any
    /// other slot gets [`input_for_slot`].
    ///
    /// [`revoke_ahead`]: Self::revoke_ahead
    /// [`input_for_slot`]: Self::input_for_slot
    fn open_slot(&mut self, slot: u64, fx: &mut Effects<SlotMessage>) {
        if !self.unopened(slot) {
            return;
        }
        let revoked_from = self
            .suspected_first_leader(slot)
            .filter(|_| self.overlapping());
        let input = match revoked_from {
            Some(leader) => {
                self.revoked.insert(slot);
                if let Some(m) = self.opts.metrics.get() {
                    m.slot_revoked_total.inc();
                    m.recorder.record(
                        suspicion::EVENT_KIND,
                        format!("revoke slot {slot} (leader p{})", leader.0),
                    );
                }
                self.filler()
            }
            None => self.input_for_slot(slot),
        };
        self.start_instance(slot, input, fx);
    }

    /// Starts the instance of an [`unopened`](Self::unopened) `slot` with
    /// `input` as this node's proposal.
    fn start_instance(&mut self, slot: u64, input: Value, fx: &mut Effects<SlotMessage>) {
        let mut replica = Replica::with_options(
            self.slot_config(slot),
            self.keys.clone(),
            self.dir.clone(),
            input,
            self.opts.clone(),
        );
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        replica.on_start(&mut inner);
        // A first leader this node has watched time out is not waited for
        // again: the instance starts out wishing for the first live view.
        self.suspicion
            .steer(slot, &mut replica, &mut inner, &self.opts.metrics);
        self.slots.insert(slot, (replica, fx.now()));
        if self.opts.metrics.is_enabled() {
            self.slot_opened.insert(slot, Instant::now());
        }
        self.relay_inner(slot, inner, fx);
        // Replay anything that arrived before the slot opened.
        if let Some(stash) = self.stashed.remove(&slot) {
            self.stashed_total -= stash.len();
            self.note_stash_depth();
            for (from, msg) in stash {
                self.deliver(slot, from, msg, fx);
            }
        }
    }

    fn deliver(&mut self, slot: u64, from: ProcessId, msg: Message, fx: &mut Effects<SlotMessage>) {
        let Some((replica, _)) = self.slots.get_mut(&slot) else {
            return;
        };
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        replica.on_message(from, msg, &mut inner);
        self.suspicion
            .steer(slot, replica, &mut inner, &self.opts.metrics);
        self.relay_inner(slot, inner, fx);
    }

    fn relay_inner(&mut self, slot: u64, inner: Effects<Message>, fx: &mut Effects<SlotMessage>) {
        for effect in inner.outgoing() {
            match effect {
                Outgoing::To(to, msg) => fx.send(
                    *to,
                    SlotMessage::Consensus {
                        slot,
                        inner: msg.clone(),
                    },
                ),
                // Keep broadcasts structural through the slot wrapper so
                // the transport still encodes the payload only once.
                Outgoing::All(msg) => fx.broadcast(SlotMessage::Consensus {
                    slot,
                    inner: msg.clone(),
                }),
            }
        }
        for (delay, timer) in inner.timers_set() {
            fx.set_timer(*delay, TimerId(slot * TIMER_STRIDE + timer.0));
        }
        if let Some(value) = inner.decision_made() {
            self.on_slot_decided(slot, value.clone(), fx);
        }
    }

    /// The at-most-once identity of an untagged command: its content
    /// digest, via the value's memoized digest cache (`command_applied`
    /// followed by `mark_applied` on the same decoded command hashes once,
    /// and a command digested by the protocol layer is never re-hashed
    /// here).
    fn command_key(cmd: &Value) -> Digest {
        *fastbft_crypto::value_digest(cmd)
    }

    /// Whether a client command was already executed — by `(client, seq)`
    /// watermark for tagged commands, by content digest (either dedup
    /// generation) for untagged ones.
    fn command_applied(&self, cmd: &Value) -> bool {
        match parse_client_tag(cmd) {
            Some((client, seq)) => self.clients.get(&client).is_some_and(|d| d.contains(seq)),
            None => {
                let key = Self::command_key(cmd);
                self.applied_cmds.contains(&key) || self.applied_cmds_old.contains(&key)
            }
        }
    }

    /// Records a client command as executed (see [`command_applied`]).
    fn mark_applied(&mut self, cmd: &Value) {
        match parse_client_tag(cmd) {
            Some((client, seq)) => self.clients.entry(client).or_default().insert(seq),
            None => {
                self.applied_cmds.insert(Self::command_key(cmd));
            }
        }
    }

    /// Size of the at-most-once dedup state: untagged digests across both
    /// generations plus above-watermark seqs across clients. For a workload
    /// of tagged, eventually-contiguous sequence numbers this returns to
    /// **zero** — the watermarks prune everything; for untagged traffic it
    /// is bounded by two snapshot intervals' worth of commands.
    pub fn dedup_entries(&self) -> usize {
        self.applied_cmds.len()
            + self.applied_cmds_old.len()
            + self.clients.values().map(|d| d.above.len()).sum::<usize>()
    }

    /// Applies one decided command: at-most-once by identity for client
    /// commands (the idle filler is exempt — it recurs by design), removing
    /// committed commands from the local queue wherever they sit.
    fn apply_command(&mut self, cmd: Value, fx: &mut Effects<SlotMessage>) {
        if cmd != self.idle_input {
            if self.command_applied(&cmd) {
                if let Some(m) = self.opts.metrics.get() {
                    m.dedup_dropped_total.inc();
                }
                return; // already executed in an earlier slot
            }
            self.mark_applied(&cmd);
            if let Some(pos) = self.pending.iter().position(|p| *p == cmd) {
                if let Some(removed) = self.pending.remove(pos) {
                    self.pending_bytes -= removed.as_bytes().len();
                }
            }
            self.client_commands += 1;
        }
        self.machine.apply(&cmd);
        fx.record_applied(self.log_offset + self.log.len() as u64, &cmd);
        self.log.push(cmd);
    }

    fn on_slot_decided(&mut self, slot: u64, value: Value, fx: &mut Effects<SlotMessage>) {
        if slot < self.applied || self.decided.contains_key(&slot) {
            return;
        }
        // Backfill-settled slots have no local replica (and took neither
        // path here), so they feed neither the batcher's congestion signal
        // nor the commit latency histograms, which split by the path the
        // slot's own replica took.
        if let Some((replica, opened)) = self.slots.get(&slot) {
            self.batcher.slot_committed(fx.now().since(*opened));
            if let Some(m) = self.opts.metrics.get() {
                if let (Some(at), Some(path)) =
                    (self.slot_opened.get(&slot), replica.decided_path())
                {
                    let us = u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX);
                    match path {
                        CommitPath::Fast => m.commit_latency_fast_us.record(us),
                        CommitPath::Slow => m.commit_latency_slow_us.record(us),
                    }
                }
            }
        }
        self.decided.insert(slot, value);
        self.advance(fx);
    }

    /// Applies every now-contiguous decided slot in order, snapshots at
    /// interval boundaries, and keeps the pipeline and stash moving.
    fn advance(&mut self, fx: &mut Effects<SlotMessage>) {
        // Apply contiguous decided slots, one command at a time (a slot
        // carries a batch).
        while let Some(value) = self.decided.remove(&self.applied) {
            let slot = self.applied;
            for cmd in Self::decode_batch(&value) {
                self.apply_command(cmd, fx);
            }
            self.committed_tail.insert(slot, value);
            // Commands this node drained into the slot that the decided
            // value did not commit (another proposal won, or an earlier
            // slot already executed them) go back to the queue front.
            if let Some(mine) = self.in_flight.remove(&slot) {
                for cmd in mine.into_iter().rev() {
                    if !self.command_applied(&cmd) {
                        self.pending_bytes += cmd.as_bytes().len();
                        self.pending.push_front(cmd);
                    }
                }
            }
            self.slots.remove(&slot);
            self.revoked.remove(&slot);
            if let Some(at) = self.slot_opened.remove(&slot) {
                if let Some(m) = self.opts.metrics.get() {
                    let us = u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX);
                    m.apply_latency_us.record(us);
                }
            }
            self.applied += 1;
            if self.applied.is_multiple_of(self.snapshot_interval) {
                self.take_snapshot(fx);
            }
        }
        // Keep the pipeline going while there is work; quiesce when idle
        // (a client submission re-opens the pipeline via `on_client`). A
        // batcher holding a sub-target batch counts as idle here — but if
        // this advance drained the pipeline empty, `wants_proposal` sees
        // the quiescence and flushes the held batch right now.
        if self.wants_proposal() || !self.in_flight.is_empty() {
            self.open_slot(self.applied, fx);
        }
        self.fill_pipeline(fx);
        self.revoke_ahead(fx);
        self.arm_flush_timer(fx);
        // Purge stash buckets the apply loop has overtaken: their slots are
        // settled, the messages can never be delivered, and dead entries
        // must not pin the stash cap (they are the *nearest* slots, which
        // farthest-first eviction would never reclaim).
        while let Some((&stale, _)) = self.stashed.iter().next() {
            if stale >= self.applied {
                break;
            }
            let bucket = self.stashed.remove(&stale).expect("key just read");
            self.stashed_total -= bucket.len();
        }
        self.note_stash_depth();
        // Same for backfill votes on settled slots.
        self.backfill = self.backfill.split_off(&self.applied);
        // The window may have moved: drain newly eligible stashes.
        let eligible: Vec<u64> = self
            .stashed
            .keys()
            .copied()
            .filter(|s| *s < self.applied + SLOT_WINDOW)
            .collect();
        for s in eligible {
            self.open_slot(s, fx);
        }
    }

    /// The sorted dedup constituents of a snapshot payload (must be taken
    /// exactly at a slot boundary, right after dedup rotation).
    fn dedup_parts(&self) -> (Vec<Digest>, Vec<ClientEntry>) {
        let mut dedup: Vec<Digest> = self
            .applied_cmds
            .iter()
            .chain(self.applied_cmds_old.iter())
            .copied()
            .collect();
        dedup.sort_unstable();
        let mut clients: Vec<ClientEntry> = self
            .clients
            .iter()
            .map(|(client, d)| ClientEntry {
                client: *client,
                watermark: d.watermark,
                above: d.above.iter().copied().collect(),
            })
            .collect();
        clients.sort_unstable_by_key(|e| e.client);
        (dedup, clients)
    }

    /// Checkpoints at the current (interval-aligned) apply point: truncates
    /// log/tail/dedup state below it, stores the snapshot with the
    /// attestations already parked for it, and broadcasts a signed
    /// attestation of its own.
    fn take_snapshot(&mut self, fx: &mut Effects<SlotMessage>) {
        let upto = self.applied;
        // Truncate everything the snapshot now covers.
        self.log_offset += self.log.len() as u64;
        self.log.clear();
        self.committed_tail = self.committed_tail.split_off(&upto);
        // Rotate dedup generations: the previous generation ages out, the
        // current one becomes "old". Replicas rotate at identical
        // boundaries, so the reachable dedup set stays identical
        // cluster-wide (determinism).
        self.applied_cmds_old = mem::take(&mut self.applied_cmds);
        let (dedup, clients) = self.dedup_parts();
        let payload = fastbft_types::wire::to_bytes(&SnapshotPayload {
            upto,
            log_offset: self.log_offset,
            client_commands: self.client_commands,
            machine: self.machine.snapshot(),
            dedup,
            clients,
        });
        let digest = fastbft_crypto::digest(&payload);
        let sig = checkpoint_signature(&self.keys, upto, &digest);
        let mut sigs = BTreeMap::new();
        sigs.insert(self.keys.id(), sig.clone());
        // Merge attestations peers broadcast before we reached this
        // boundary; drop everything at or below it (consumed or stale).
        for queue in self.pending_attest.values_mut() {
            queue.retain(|(at, d, s)| {
                if *at == upto && *d == digest {
                    sigs.insert(s.signer, s.clone());
                }
                *at > upto
            });
        }
        self.snapshot = Some(NodeSnapshot {
            upto,
            digest,
            payload,
            sigs,
        });
        if let Some(m) = self.opts.metrics.get() {
            m.snapshot_taken_total.inc();
            m.recorder.record(
                "snapshot",
                format!("p{} checkpointed upto={upto}", self.keys.id().0),
            );
        }
        fx.broadcast(SlotMessage::Checkpoint { upto, digest, sig });
    }

    /// Handles a peer's checkpoint attestation: merged into the matching
    /// local snapshot, or parked (bounded per signer) until we reach that
    /// boundary ourselves.
    fn on_checkpoint(&mut self, from: ProcessId, upto: u64, digest: Digest, sig: Signature) {
        if sig.signer != from || !checkpoint_signature_valid(&self.dir, upto, &digest, &sig) {
            return;
        }
        if let Some(snap) = &mut self.snapshot {
            if snap.upto == upto {
                // A verified attestation for our boundary with a different
                // digest would mean state divergence; such signatures are
                // simply not collected (they could never help a requester).
                if snap.digest == digest {
                    snap.sigs.insert(from, sig);
                }
                return;
            }
            if upto < snap.upto {
                return; // stale boundary
            }
        }
        let queue = self.pending_attest.entry(from).or_default();
        queue.retain(|(at, _, _)| *at != upto);
        queue.push_back((upto, digest, sig));
        while queue.len() > 2 {
            queue.pop_front();
        }
    }

    /// Serves a recovering peer: the latest attested snapshot (if it covers
    /// anything the requester lacks) plus the committed suffix, slot by
    /// slot. Identical re-requests against unchanged local state are
    /// dropped (amplification bound).
    fn on_snapshot_request(&mut self, from: ProcessId, have: u64, fx: &mut Effects<SlotMessage>) {
        if from == fx.id() {
            return;
        }
        let snap_upto = self.snapshot.as_ref().map_or(0, |s| s.upto);
        let state = (have, snap_upto, self.applied);
        if self.served.get(&from) == Some(&state) {
            return;
        }
        self.served.insert(from, state);
        if let Some(snap) = &self.snapshot {
            // Without f+1 attestations the requester would reject the
            // response; its retry timer will re-ask once more checkpoints
            // arrive here.
            if snap.upto > have && snap.sigs.len() > self.cfg.f() {
                fx.send(
                    from,
                    SlotMessage::SnapshotResponse {
                        upto: snap.upto,
                        payload: snap.payload.clone(),
                        sigs: snap.sigs.values().cloned().collect(),
                    },
                );
            }
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
    /// the machine, adopts the dedup/log bookkeeping, discards everything
    /// below the boundary, and adopts the snapshot as our own (we can now
    /// serve it too).
    fn on_snapshot_response(
        &mut self,
        upto: u64,
        payload: Vec<u8>,
        sigs: Vec<Signature>,
        fx: &mut Effects<SlotMessage>,
    ) {
        if upto <= self.applied
            || !snapshot_response_valid(&self.dir, self.cfg.f(), upto, &payload, &sigs)
        {
            return;
        }
        let Ok(parsed) = fastbft_types::wire::from_bytes::<SnapshotPayload>(&payload) else {
            return;
        };
        if parsed.upto != upto {
            return;
        }
        // Machine first: restore is atomic, so a machine-level rejection
        // leaves this node fully unchanged.
        if !self.machine.restore(&parsed.machine) {
            return;
        }
        // What this node timed out on while it was cut off says nothing
        // about its peers.
        self.suspicion.reset(&self.opts.metrics);
        let digest = fastbft_crypto::digest(&payload);
        self.applied = upto;
        self.log.clear();
        self.log_offset = parsed.log_offset;
        self.client_commands = parsed.client_commands;
        self.applied_cmds_old = parsed.dedup.into_iter().collect();
        self.applied_cmds = HashSet::new();
        self.clients = parsed
            .clients
            .into_iter()
            .map(|e| {
                (
                    e.client,
                    ClientDedup {
                        watermark: e.watermark,
                        above: e.above.into_iter().collect(),
                    },
                )
            })
            .collect();
        // Slots below the boundary are settled by the snapshot: re-queue
        // our drained commands the snapshot did not execute, drop the rest
        // of the per-slot state.
        let keep = self.in_flight.split_off(&upto);
        for (_, cmds) in mem::replace(&mut self.in_flight, keep) {
            for cmd in cmds.into_iter().rev() {
                if !self.command_applied(&cmd) {
                    self.pending_bytes += cmd.as_bytes().len();
                    self.pending.push_front(cmd);
                }
            }
        }
        self.slots = self.slots.split_off(&upto);
        self.revoked = self.revoked.split_off(&upto);
        self.slot_opened.retain(|s, _| *s >= upto);
        self.decided = self.decided.split_off(&upto);
        self.committed_tail = self.committed_tail.split_off(&upto);
        self.backfill = self.backfill.split_off(&upto);
        self.propose_cursor = self.propose_cursor.max(upto);
        while let Some((&stale, _)) = self.stashed.iter().next() {
            if stale >= upto {
                break;
            }
            let bucket = self.stashed.remove(&stale).expect("key just read");
            self.stashed_total -= bucket.len();
        }
        self.note_stash_depth();
        // Adopt the snapshot: keep the valid received attestations, add our
        // own (we now vouch for this state, and can serve it onward).
        let mut sigmap = BTreeMap::new();
        for sig in sigs {
            if checkpoint_signature_valid(&self.dir, upto, &digest, &sig) {
                sigmap.insert(sig.signer, sig);
            }
        }
        let own = checkpoint_signature(&self.keys, upto, &digest);
        sigmap.insert(own.signer, own);
        self.snapshot = Some(NodeSnapshot {
            upto,
            digest,
            payload,
            sigs: sigmap,
        });
        if let Some(m) = self.opts.metrics.get() {
            m.snapshot_installed_total.inc();
            m.recorder.record(
                "snapshot-install",
                format!("p{} installed snapshot upto={upto}", self.keys.id().0),
            );
        }
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
            || slot >= self.applied + MAX_STASH_AHEAD
            || self.decided.contains_key(&slot)
        {
            return;
        }
        let votes = self.backfill.entry(slot).or_default();
        votes.insert(from, value.clone());
        let matching = votes.values().filter(|v| **v == value).count();
        if matching > self.cfg.f() {
            self.backfill.remove(&slot);
            if let Some(m) = self.opts.metrics.get() {
                m.backfill_slots_total.inc();
            }
            self.on_slot_decided(slot, value, fx);
        }
    }

    /// Tracks the highest slot `from` has demonstrably worked on, and
    /// checks the recovery trigger when the claim is far ahead. The guard
    /// keeps this off the steady-state hot path: pipelined peers never run
    /// `RECOVERY_GAP` ahead of a node they share quorums with.
    fn note_peer_tip(&mut self, from: ProcessId, slot: u64, fx: &mut Effects<SlotMessage>) {
        if from == fx.id() {
            return;
        }
        let tip = self.peer_tips.entry(from).or_insert(0);
        if slot > *tip {
            *tip = slot;
        }
        if !self.recovery_armed && slot >= self.applied + RECOVERY_GAP {
            self.maybe_recover(fx);
        }
    }

    /// The (f+1)-th largest peer-claimed tip: at least one *correct*
    /// replica is really working at or past this slot.
    fn quorum_tip(&self) -> u64 {
        let mut tips: Vec<u64> = self.peer_tips.values().copied().collect();
        tips.sort_unstable_by(|a, b| b.cmp(a));
        tips.get(self.cfg.f()).copied().unwrap_or(0)
    }

    /// Requests state transfer if f+1 distinct peers are `RECOVERY_GAP`
    /// ahead (f alone could be Byzantine fiction). Armed until the retry
    /// timer fires, so a behind node asks at most once per timeout.
    fn maybe_recover(&mut self, fx: &mut Effects<SlotMessage>) {
        if self.recovery_armed || self.quorum_tip() < self.applied + RECOVERY_GAP {
            return;
        }
        self.recovery_armed = true;
        fx.broadcast_others(SlotMessage::SnapshotRequest { have: self.applied });
        fx.set_timer(self.opts.base_timeout, RECOVERY_TIMER);
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
                    // far-behind trigger (`RECOVERY_GAP`). Answer with the
                    // committed value; once f + 1 peers do, the hole
                    // closes ([`Self::on_backfill`]). One reply per
                    // inbound frame, so a spamming peer gains no
                    // amplification. Acks and Commits get none: they are
                    // the protocol's own stragglers (the last ack and every
                    // Commit of a slot the fast path decided one delay
                    // earlier), and a sender that is really stuck follows
                    // them with a Wish, Vote or Propose.
                    if !matches!(inner, Message::Ack(_) | Message::Commit(_)) {
                        if let Some(value) = self.committed_tail.get(&slot) {
                            fx.send(
                                from,
                                SlotMessage::Backfill {
                                    slot,
                                    value: value.clone(),
                                },
                            );
                        }
                    }
                    return;
                }
                if self.unopened(slot) {
                    if slot < self.applied + SLOT_WINDOW {
                        self.open_slot(slot, fx);
                    } else {
                        self.stash(slot, from, inner);
                        return;
                    }
                }
                self.deliver(slot, from, inner, fx);
            }
            SlotMessage::Checkpoint { upto, digest, sig } => {
                if from != fx.id() {
                    self.note_peer_tip(from, upto, fx);
                    self.on_checkpoint(from, upto, digest, sig);
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
            self.recovery_armed = false;
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
        let slot = timer.0 / TIMER_STRIDE;
        let inner_timer = TimerId(timer.0 % TIMER_STRIDE);
        let Some((replica, _)) = self.slots.get_mut(&slot) else {
            return;
        };
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        replica.on_timer(inner_timer, &mut inner);
        self.suspicion
            .steer(slot, replica, &mut inner, &self.opts.metrics);
        self.relay_inner(slot, inner, fx);
    }

    fn on_client(&mut self, command: Value, fx: &mut Effects<SlotMessage>) {
        // Ingress backpressure: a bounded pending budget (count and
        // bytes); past it the command is shed and counted, not queued.
        let size = command.as_bytes().len();
        if self.pending.len() >= self.ingress_max_cmds
            || self.pending_bytes.saturating_add(size) > self.ingress_max_bytes
        {
            if let Some(m) = self.opts.metrics.get() {
                m.ingress_shed_total.inc();
                m.ingress_shed_bytes_total.add(size as u64);
            }
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

impl<S: StateMachine> SmrNode<S> {
    /// Arms the flush-age backstop if the batcher is holding commands, so
    /// they ship even if the pipeline never quiesces. Called wherever
    /// commands enter the queue: a client's, and those `advance` re-queues
    /// (which a hold would otherwise strand until the next submission).
    fn arm_flush_timer(&mut self, fx: &mut Effects<SlotMessage>) {
        if self.pending.is_empty() || self.wants_proposal() {
            return;
        }
        if let Some(flush_age) = self.batcher.hold_began() {
            fx.set_timer(flush_age, BATCH_FLUSH_TIMER);
        }
    }

    /// Buffers a beyond-window message, enforcing both stash bounds.
    fn stash(&mut self, slot: u64, from: ProcessId, msg: Message) {
        if slot >= self.applied + MAX_STASH_AHEAD {
            // Hostile traffic — or this node is hopelessly behind, which
            // the recovery path (triggered by `note_peer_tip` on this same
            // frame) fixes via state transfer; stashing could not.
            return;
        }
        while self.stashed_total >= MAX_STASHED_MESSAGES {
            // Evict from the farthest slot; if the newcomer *is* the
            // farthest, drop it instead.
            let Some((&farthest, _)) = self.stashed.iter().next_back() else {
                break;
            };
            if farthest <= slot {
                self.note_stash_depth();
                return;
            }
            let bucket = self.stashed.get_mut(&farthest).expect("key just read");
            bucket.pop();
            self.stashed_total -= 1;
            if bucket.is_empty() {
                self.stashed.remove(&farthest);
            }
        }
        self.stashed.entry(slot).or_default().push((from, msg));
        self.stashed_total += 1;
        self.note_stash_depth();
    }

    /// Mirrors the stash size into the metrics gauge (no-op when metrics
    /// are disabled). Called after every `stashed_total` mutation.
    fn note_stash_depth(&self) {
        if let Some(m) = self.opts.metrics.get() {
            m.stash_depth.set(self.stashed_total as u64);
        }
    }
}
