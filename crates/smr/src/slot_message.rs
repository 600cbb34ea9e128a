//! The frames of the replicated state machine and their wire codec.
//!
//! Consensus traffic tagged with its log slot, plus the checkpoint /
//! state-transfer control plane. The encoding is a variant tag, then the
//! variant's fields in declaration order, from one tag table
//! (`impl_wire_enum!`) — the same canonical-strict discipline as
//! [`Message`], so slot-tagged frames travel the authenticated TCP
//! transport unchanged. No variant can contain a `SlotMessage`
//! (ARCHITECTURE, "Wire types and decode depth").

use fastbft_core::message::Message;
use fastbft_crypto::{Digest, Signature};
use fastbft_sim::SimMessage;
use fastbft_types::Value;

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

    /// The encoding's length, counted without encoding: the simulator
    /// sizes every send, snapshot responses included.
    /// `golden_wire_table_pins_every_enum_variant` (root
    /// `tests/wire_properties.rs`) checks it against `to_wire_bytes` for
    /// every variant.
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

fastbft_types::impl_wire_enum!(SlotMessage {
    1 => Consensus { slot, inner },
    2 => Checkpoint { upto, digest, sig },
    3 => SnapshotRequest { have },
    4 => SnapshotResponse { upto, payload, sigs },
    5 => Backfill { slot, value },
});
