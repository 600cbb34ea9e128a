//! The SMR layer's side of `core`'s one Byzantine seat.
//!
//! [`SmrNode`] is [`Honest`], so `core::byzantine::Seat` runs it as it
//! runs a single-shot `Replica`: every consensus frame the node sends for
//! slot `s` goes through the moves chosen for `s`, with `s` as the instance
//! and one [`ReplayStore`](fastbft_core::byzantine::ReplayStore) for every
//! slot, so evidence harvested in one slot can be spent in another. What
//! the trait answers here:
//! - a frame carries slot `s`'s consensus message when it is
//!   `SlotMessage::Consensus { slot: s, .. }`;
//! - a `Backfill { slot: s, .. }` speaks for `s`, so the seat sends none for
//!   a slot it plays moves in, and a slot it split can be settled only by
//!   the correct seats;
//! - the open instances are the node's open slots.
//!
//! The seat forwards no applied event, so the cluster's checker never sees
//! one from it. Seat it through
//! [`SmrSimCluster::new`](crate::SmrSimCluster::new)'s `configure`, with
//! [`byzantine_seat`] on the node it is offered.

use std::collections::BTreeMap;

use fastbft_core::byzantine::{Frame, Honest, Move, Seat};
use fastbft_core::message::Message;
use fastbft_types::View;

use crate::machine::StateMachine;
use crate::multiplex::{SlotMessage, SmrNode};

impl Frame for SlotMessage {
    fn carry(slot: u64, inner: Message) -> Self {
        SlotMessage::Consensus { slot, inner }
    }
}

impl<S: StateMachine + 'static> Honest for SmrNode<S> {
    type Frame = SlotMessage;

    fn consensus<'a>(&self, frame: &'a SlotMessage) -> Option<(u64, &'a Message)> {
        match frame {
            SlotMessage::Consensus { slot, inner } => Some((*slot, inner)),
            _ => None,
        }
    }

    fn speaks_for(&self, frame: &SlotMessage) -> Option<u64> {
        match frame {
            SlotMessage::Backfill { slot, .. } => Some(*slot),
            _ => None,
        }
    }

    fn views(&self) -> BTreeMap<u64, View> {
        self.instance_views()
    }
}

/// `node` as a Byzantine seat, signing with its keys and playing
/// `moves(slot)` in each slot (no move: honest there).
pub fn byzantine_seat<S: StateMachine + 'static>(
    node: SmrNode<S>,
    moves: impl Fn(u64) -> Vec<Move> + 'static,
) -> Seat<SmrNode<S>> {
    let keys = node.keys.clone();
    Seat::per_instance(node, keys, moves)
}
