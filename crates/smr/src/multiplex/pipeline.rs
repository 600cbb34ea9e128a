//! The proposal pipeline: when a slot opens and what this node proposes in
//! it.
//!
//! Everything here reads the slot table and the queue and decides; the
//! effects are a new [`Slot`] record with a started instance, and a timer.
//! The decisions are the ones PR 14 and PR 18 measured — what counts as
//! quiescent, when a pipeline overlaps, which slots are revoked and started
//! ahead, when a held batch gets its backstop — and ARCHITECTURE's "Known
//! gap" lists the variants that lost; they are kept together so the next
//! change to one of them sees the others.

use std::time::Instant;

use fastbft_core::replica::Replica;
use fastbft_sim::{Actor, Effects};
use fastbft_types::wire::to_bytes;
use fastbft_types::{Config, ProcessId, Value};

use super::{Instance, Slot, SlotMessage, SmrNode, BATCH_FLUSH_TIMER};
use crate::batcher::FlushReason;
use crate::machine::StateMachine;
use crate::suspicion;

impl<S: StateMachine> SmrNode<S> {
    /// How many commands the next proposal should drain, and why (see
    /// [`Batcher::plan`](crate::batcher::Batcher::plan)). Evaluated before a
    /// new slot's record is inserted (`open_slot` drains first), so "no
    /// record" really means idle. Pure: the planned drain happens in
    /// [`drain_for_slot`](Self::drain_for_slot).
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
        self.slots
            .values()
            .all(|s| s.drained.is_empty() && s.revoked)
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
    fn drain_for_slot(&mut self, slot: u64) -> Vec<Value> {
        // The cursor advances only on a real drain: an idle proposal for an
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
        self.batcher.drained(take, self.pending.len());
        cmds
    }

    /// Opens further slots, up to the pipeline depth, while the batcher
    /// wants to propose — each drains its own proposal batch, unless
    /// [`open_slot`](Self::open_slot) revokes it. Slots already open (a
    /// peer's frame, or revoked ahead — an idle proposal from us either
    /// way) are skipped; the queued commands go into the next free slot.
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

    /// Revoking ahead: while this node's pipeline
    /// [overlaps](Self::overlapping), every slot of the window whose first
    /// leader it suspects is started *now*, so its view change runs before
    /// its log position is wanted. An ordinary instance started early;
    /// peers open it reactively like any in-window slot.
    pub(super) fn revoke_ahead(&mut self, fx: &mut Effects<SlotMessage>) {
        if self.suspicion.is_empty() || !self.overlapping() {
            return;
        }
        for slot in self.applied..self.applied + self.pipeline_depth {
            if self.suspected_first_leader(slot).is_some() {
                self.open_slot(slot, fx);
            }
        }
    }

    /// Whether `slot` is still to be settled and has no record yet: neither
    /// an instance nor a decided value.
    pub(super) fn unopened(&self, slot: u64) -> bool {
        slot >= self.applied && !self.slots.contains_key(&slot)
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
        self.slots
            .iter()
            .filter(|(_, s)| !s.drained.is_empty() && s.decided.is_none())
            .filter(|(slot, _)| self.suspected_first_leader(**slot).is_none())
            .nth(1)
            .is_some()
    }

    /// Starts `slot`'s instance unless it has one or is settled. The one
    /// place a slot's proposal is chosen: while the pipeline
    /// [overlaps](Self::overlapping), a slot whose first leader this node
    /// suspects is *revoked* — it gets the idle filler, drains nothing and
    /// leaves `propose_cursor` alone, whoever asked for it (the fill loop,
    /// [`revoke_ahead`], a peer's frame) — so the node's commands ride only
    /// in live-led slots. Any other slot gets the batch
    /// [`drain_for_slot`] plans for it, or the filler when that is empty.
    ///
    /// [`revoke_ahead`]: Self::revoke_ahead
    /// [`drain_for_slot`]: Self::drain_for_slot
    pub(super) fn open_slot(&mut self, slot: u64, fx: &mut Effects<SlotMessage>) {
        if !self.unopened(slot) {
            return;
        }
        let revoked_from = self
            .suspected_first_leader(slot)
            .filter(|_| self.overlapping());
        let drained = match revoked_from {
            Some(leader) => {
                let m = &self.opts.metrics;
                m.slot_revoked_total.inc();
                m.recorder.record(
                    suspicion::EVENT_KIND,
                    format!("revoke slot {slot} (leader p{})", leader.0),
                );
                Vec::new()
            }
            None => self.drain_for_slot(slot),
        };
        // A slot with nothing to commit proposes the idle filler alone, as
        // a one-command batch.
        let input = if drained.is_empty() {
            Value::new(to_bytes(&vec![self.idle_input.clone()]))
        } else {
            Value::new(to_bytes(&drained))
        };
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
        let record = Slot {
            instance: Some(Instance {
                replica,
                started: fx.now(),
                started_wall: Instant::now(),
            }),
            drained,
            revoked: revoked_from.is_some(),
            decided: None,
        };
        self.slots.insert(slot, record);
        self.relay_inner(slot, inner, fx);
        // Replay anything that arrived before the slot opened.
        let stashed = self.stash.take(slot);
        if !stashed.is_empty() {
            self.note_stash_depth();
        }
        for held in stashed {
            self.deliver(slot, held.from, held.item, fx);
        }
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
