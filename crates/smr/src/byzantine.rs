//! The SMR layer's Byzantine seat: the move alphabet over an honest node.
//!
//! [`SmrAdversary`] is to [`SmrNode`] what `core`'s `Adversary` is to a
//! single-shot `Replica`: the node runs as shipped, and every consensus
//! frame it sends for slot `s` goes through one [`Interpreter`] with `s` as
//! the instance — the moves chosen for that slot, one [`ReplayStore`] for
//! every slot, so evidence harvested in one slot can be spent in another.
//! It may also make [`Noise`], about the slot it heard of last.
//!
//! What is SMR-only:
//! - it forwards no applied event: a faulty seat's log counts for nothing,
//!   so the cluster's checker never sees one;
//! - it sends no `Backfill` for a slot in which it plays moves, so a slot
//!   it split can be settled only by the correct seats;
//! - it learns that a slot entered a view by asking the node after each
//!   callback (`SmrNode::slot_view`), for every slot of the node's window.
//!
//! Seat it through [`SmrSimCluster::new`](crate::SmrSimCluster::new)'s
//! `configure`, wrapping the node it is offered.

use std::collections::BTreeMap;

use fastbft_core::byzantine::{Frame, Interpreter, Move, Noise, ReplayStore};
use fastbft_core::message::Message;
use fastbft_sim::{Actor, Effects, Outgoing, TimerId};
use fastbft_types::{ProcessId, Value, View};

use crate::machine::StateMachine;
use crate::multiplex::{SlotMessage, SmrNode, SLOT_WINDOW};

impl Frame for SlotMessage {
    fn carry(slot: u64, inner: Message) -> Self {
        SlotMessage::Consensus { slot, inner }
    }
}

/// A Byzantine SMR seat: an honest [`SmrNode`] whose sends the move
/// interpreter rewrites slot by slot. See the module docs.
pub struct SmrAdversary<S: StateMachine> {
    node: SmrNode<S>,
    interpreter: Interpreter,
    noise: Option<Noise>,
    /// The view each open slot's instance was in after the last callback.
    views: BTreeMap<u64, View>,
    /// The slot of the last consensus frame received: where noise goes.
    latest: u64,
}

impl<S: StateMachine> SmrAdversary<S> {
    /// Seats `node`, signing with its keys, playing `moves(slot)` in each
    /// slot (no move: honest there).
    pub fn new(node: SmrNode<S>, moves: impl Fn(u64) -> Vec<Move> + 'static) -> Self {
        let interpreter = Interpreter::new(node.keys.clone(), moves);
        SmrAdversary {
            node,
            interpreter,
            noise: None,
            views: BTreeMap::new(),
            latest: 0,
        }
    }

    /// Also makes [`Noise`] drawn from `seed`.
    #[must_use]
    pub fn with_noise(mut self, seed: u64) -> Self {
        self.noise = Some(Noise::new(self.node.keys.clone(), seed));
        self
    }

    /// What the seat has seen, in every slot.
    pub fn store(&self) -> &ReplayStore {
        self.interpreter.store()
    }

    /// Runs one node callback into a fresh buffer and sends what the
    /// moves make of it: each consensus frame through the interpreter, then
    /// the seat's own moves in every slot whose instance entered a view.
    /// Timers pass through; applied events stay behind.
    fn step(
        &mut self,
        fx: &mut Effects<SlotMessage>,
        call: impl FnOnce(&mut SmrNode<S>, &mut Effects<SlotMessage>),
    ) {
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        call(&mut self.node, &mut inner);
        let plays_in = |slot: u64| !self.interpreter.moves(slot).is_empty();
        for out in inner.outgoing() {
            let (to, msg) = match out {
                Outgoing::To(to, msg) => (Some(*to), msg),
                Outgoing::All(msg) => (None, msg),
            };
            match msg {
                SlotMessage::Consensus { slot, inner } => {
                    self.interpreter.relay(*slot, to, inner, fx);
                }
                SlotMessage::Backfill { slot, .. } if plays_in(*slot) => {}
                _ => match to {
                    Some(to) => fx.send(to, msg.clone()),
                    None => fx.broadcast(msg.clone()),
                },
            }
        }
        let applied = self.node.applied();
        self.views.retain(|slot, _| *slot >= applied);
        for slot in applied..applied + SLOT_WINDOW {
            let Some(view) = self.node.slot_view(slot) else {
                continue;
            };
            if self.views.insert(slot, view) != Some(view) {
                self.interpreter.entered(slot, view, fx);
            }
        }
        for (delay, timer) in inner.timers_set() {
            fx.set_timer(*delay, *timer);
        }
    }
}

impl<S: StateMachine + 'static> Actor<SlotMessage> for SmrAdversary<S> {
    fn on_start(&mut self, fx: &mut Effects<SlotMessage>) {
        self.step(fx, |node, inner| node.on_start(inner));
        if let Some(noise) = &mut self.noise {
            noise.burst(self.latest, fx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: SlotMessage, fx: &mut Effects<SlotMessage>) {
        if let SlotMessage::Consensus { slot, inner } = &msg {
            self.latest = *slot;
            self.interpreter.observe(inner);
        }
        self.step(fx, |node, inner| node.on_message(from, msg, inner));
        if let Some(noise) = &mut self.noise {
            noise.react(self.latest, fx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<SlotMessage>) {
        match &mut self.noise {
            Some(noise) if timer == Noise::TIMER => noise.burst(self.latest, fx),
            _ => self.step(fx, |node, inner| node.on_timer(timer, inner)),
        }
    }

    fn on_client(&mut self, command: Value, fx: &mut Effects<SlotMessage>) {
        self.step(fx, |node, inner| node.on_client(command, inner));
    }

    fn label(&self) -> &'static str {
        "smr-adversary"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
