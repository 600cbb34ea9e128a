//! The proposal pipeline: when a slot opens and what this node proposes in
//! it.
//!
//! Everything here reads the slot table and the queue and decides; the
//! effects are a new [`Slot`] record with a started instance, and a timer.
//! The decisions are the ones PR 14 and PR 18 measured — what counts as
//! quiescent, when a held batch gets its backstop — and ARCHITECTURE's
//! "Known gap" lists the variants that lost.

use std::time::Instant;

use fastbft_core::replica::Replica;
use fastbft_sim::{Actor, Effects, SimTime};
use fastbft_types::Value;

use super::{encode_batch, Instance, Slot, SlotMessage, SmrNode, BATCH_FLUSH_TIMER};
use crate::batcher::FlushReason;
use crate::machine::StateMachine;

impl<S: StateMachine> SmrNode<S> {
    /// How many commands the next proposal should drain, and why (see
    /// [`Batcher::plan`](crate::batcher::Batcher::plan)). The node is
    /// quiescent — a held batch, or a lone command, flushes at once rather
    /// than waiting out a timer — while it has no slot record at all; this
    /// is evaluated before a new slot's record is inserted (`open_slot`
    /// drains first). Pure: the planned drain happens in
    /// [`drain_for_slot`](Self::drain_for_slot).
    fn plan_drain(&self) -> Option<(usize, FlushReason)> {
        self.batcher.plan(&self.pending, self.slots.is_empty())
    }

    /// Whether the node should open a slot to propose queued commands
    /// right now (the batcher may prefer to hold them).
    pub(super) fn wants_proposal(&self) -> bool {
        self.plan_drain().is_some()
    }

    /// The planned batch of queued commands for `slot`'s proposal, drained
    /// (empty when there is nothing to propose, or the slot may not drain).
    /// Drained commands live in the slot's record so a pipelined slot can
    /// never re-propose them; they are re-queued at apply time if the slot
    /// decides something else.
    fn drain_for_slot(&mut self, slot: u64, now: SimTime) -> Vec<Value> {
        // The cursor advances only on a real drain: an empty proposal for an
        // out-of-order (e.g. adversarially sprayed in-window) slot must not
        // bar nearer slots from proposing queued commands.
        if slot < self.propose_cursor {
            return Vec::new();
        }
        let Some((take, reason)) = self.plan_drain() else {
            return Vec::new();
        };
        let cmds: Vec<Value> = self.pending.drain(..take).collect();
        self.pending_bytes -= cmds.iter().map(|c| c.as_bytes().len()).sum::<usize>();
        self.propose_cursor = slot + 1;
        let m = &self.opts.metrics;
        m.batch_size.record(take as u64);
        match reason {
            FlushReason::Size => m.batch_flush_size_total.inc(),
            FlushReason::Bytes => m.batch_flush_bytes_total.inc(),
            FlushReason::Quiescence => m.batch_flush_quiescence_total.inc(),
            FlushReason::Timeout => m.batch_flush_timeout_total.inc(),
        }
        self.batcher.drained(self.pending.len(), now);
        cmds
    }

    /// Opens further slots, up to the pipeline depth, while the batcher
    /// wants to propose — each drains its own proposal batch. Slots already
    /// open (a peer's frame: an empty proposal from us) are skipped; the
    /// queued commands go into the next free slot.
    pub(super) fn fill_pipeline(&mut self, fx: &mut Effects<SlotMessage>) {
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

    /// Whether `slot` is still to be settled and has no record yet: neither
    /// an instance nor a decided value.
    pub(super) fn unopened(&self, slot: u64) -> bool {
        slot >= self.applied && !self.slots.contains_key(&slot)
    }

    /// Starts `slot`'s instance unless it has one or is settled, with the
    /// batch [`drain_for_slot`](Self::drain_for_slot) plans for it, which
    /// may be empty.
    pub(super) fn open_slot(&mut self, slot: u64, fx: &mut Effects<SlotMessage>) {
        if !self.unopened(slot) {
            return;
        }
        let drained = self.drain_for_slot(slot, fx.now());
        // A slot with nothing to commit proposes the empty batch, which
        // applies nothing.
        let mut replica = Replica::with_options(
            self.schedule.config(&self.cfg, slot),
            self.keys.clone(),
            self.dir.clone(),
            encode_batch(fx.id(), drained.clone()),
            self.opts.clone(),
        );
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        replica.on_start(&mut inner);
        // A first leader this node has watched time out is not waited for
        // again: the instance starts out wishing for the first live view.
        self.suspicion
            .steer(slot, &mut replica, &mut inner, &self.opts.metrics);
        let record = Slot {
            instance: Some(Instance {
                replica,
                started: fx.now(),
                started_wall: Instant::now(),
            }),
            drained,
            decided: None,
        };
        self.slots.insert(slot, record);
        self.relay_inner(slot, inner, fx);
    }

    /// Arms the flush-age backstop if the batcher is holding commands, so
    /// they ship even if the pipeline never quiesces. Called wherever
    /// commands enter the queue: a client's, and those `advance` re-queues
    /// (which a hold would otherwise strand until the next submission).
    pub(super) fn arm_flush_timer(&mut self, fx: &mut Effects<SlotMessage>) {
        if self.pending.is_empty() || self.wants_proposal() {
            return;
        }
        if let Some(flush_age) = self.batcher.hold_began() {
            fx.set_timer(flush_age, BATCH_FLUSH_TIMER);
        }
    }
}
