//! The proposal batcher: how many queued commands the next slot takes.
//!
//! One policy. The number of commands drained into a proposal is a
//! feedback-tuned *target*, not a constant: it starts at 1, doubles when
//! a drain leaves a backlog behind, halves when a drain empties the queue
//! — at most once per smoothed commit latency since the last backlog or
//! halving — and stays within the command cap of [`AdaptiveBatch`] and a
//! byte cap of 1 MiB. A batch held below target while the pipeline is busy
//! ships the moment the node is quiescent or the flush-age backstop (Δ)
//! fires — a lone command on an idle cluster never waits. With a command
//! cap of 1 ([`SmrNode::with_batch_size`]`(1)`) the target cannot leave 1,
//! nothing is ever held and no backstop is armed: one command per slot,
//! the degenerate setting of the same path.
//!
//! `Batcher::plan` is pure; four transitions write the state, each
//! called by [`SmrNode`] at the moment the thing happened. Whether the
//! node is *quiescent* is the node's business and reaches the batcher as
//! one `bool`. Time is the actor's own
//! clock — the `now` of the [`Effects`](fastbft_sim::Effects) a callback
//! was handed — so a virtual-time run takes the decisions its schedule
//! implies however fast the host steps it, and halves the target exactly
//! as the threaded runtime does.
//!
//! [`SmrNode`]: crate::SmrNode
//! [`SmrNode::with_batch_size`]: crate::SmrNode::with_batch_size

use std::collections::VecDeque;

use fastbft_sim::{SimDuration, SimTime};
use fastbft_types::Value;

/// Hard cap on the summed command bytes per proposal. A single oversized
/// command still ships alone — the cap bounds *batching*, it cannot wedge
/// the queue.
const MAX_BATCH_BYTES: usize = 1 << 20;

/// How long a held batch may wait before the backstop timer forces a flush
/// (virtual time, like every protocol timer). Only reached when the
/// pipeline stays busy without ever quiescing.
const FLUSH_AGE: SimDuration = SimDuration::DELTA;

/// The bound of the self-adjusting proposal batcher (see the [module
/// docs](self)). The *target* batch size is not configured — it moves with
/// feedback and always stays within `1..=max_batch_cmds`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptiveBatch {
    /// Hard cap on commands per proposal (and the ceiling the adaptive
    /// target grows toward). Default 256.
    pub max_batch_cmds: usize,
}

impl Default for AdaptiveBatch {
    fn default() -> Self {
        AdaptiveBatch {
            max_batch_cmds: 256,
        }
    }
}

/// How queued client commands are grouped into slot proposals.
// Vestige: one variant since PR 18 deleted the constant-size mode (a cap
// of 1 on this policy takes the decisions its batch-1 setting took). The
// enum stays while the frozen `benchmark/` writes
// `Batching::Adaptive(AdaptiveBatch::default())`; fold it into
// `AdaptiveBatch` in the next benchmark-only PR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Batching {
    /// Feedback-tuned batch sizes within the bound of [`AdaptiveBatch`].
    Adaptive(AdaptiveBatch),
}

impl Default for Batching {
    fn default() -> Self {
        Batching::Adaptive(AdaptiveBatch::default())
    }
}

/// Why a proposal batch was flushed — the batcher's metrics breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// The drain reached the command-count target.
    Size,
    /// The byte cap bound the drain below its command-count target.
    Bytes,
    /// The node was quiescent, so everything queued flushed at once.
    Quiescence,
    /// The flush-age backstop fired for a held batch.
    Timeout,
}

/// The batching policy and its feedback state. See the [module docs](self).
pub(crate) struct Batcher {
    /// Commands per proposal at most (`AdaptiveBatch::max_batch_cmds`).
    max_cmds: usize,
    /// Commands the next proposal should carry while the pipeline is busy.
    target: usize,
    /// Whether a backstop timer is outstanding for held commands.
    flush_armed: bool,
    /// Set when the backstop fired with commands still queued: the next
    /// drain flushes regardless of the target.
    flush_due: bool,
    /// Smoothed (EWMA) commit latency, in ticks of the actor's clock;
    /// `None` until a slot commits. The window between two halvings.
    commit_ticks: Option<f64>,
    /// When a drain last left a backlog or halved the target.
    backlog_at: SimTime,
}

impl Batcher {
    /// A batcher at target 1 within `batching`'s bound.
    ///
    /// # Panics
    ///
    /// Panics if the command cap is 0.
    pub(crate) fn new(batching: Batching) -> Self {
        let Batching::Adaptive(AdaptiveBatch { max_batch_cmds }) = batching;
        assert!(max_batch_cmds >= 1, "command cap must be at least 1");
        Batcher {
            max_cmds: max_batch_cmds,
            target: 1,
            flush_armed: false,
            flush_due: false,
            commit_ticks: None,
            backlog_at: SimTime::ZERO,
        }
    }

    /// The current per-proposal command target.
    pub(crate) fn target(&self) -> usize {
        self.target
    }

    /// How many commands from the front of `queue` the next proposal
    /// should drain, and why — `None` to propose nothing: the queue is
    /// empty, or it holds less than the target while the node is busy
    /// (`!quiescent`) and no backstop has fired.
    pub(crate) fn plan(
        &self,
        queue: &VecDeque<Value>,
        quiescent: bool,
    ) -> Option<(usize, FlushReason)> {
        let len = queue.len();
        if len == 0 {
            return None;
        }
        let (cap, mut reason) = if quiescent {
            (self.max_cmds, FlushReason::Quiescence)
        } else if len >= self.target {
            (self.target, FlushReason::Size)
        } else if self.flush_due {
            (self.max_cmds, FlushReason::Timeout)
        } else {
            return None;
        };
        let mut take = 0usize;
        let mut bytes = 0usize;
        for cmd in queue.iter().take(cap.min(len)) {
            let size = cmd.as_bytes().len();
            // The first command always ships, however large.
            if take > 0 && bytes + size > MAX_BATCH_BYTES {
                reason = FlushReason::Bytes;
                break;
            }
            bytes += size;
            take += 1;
        }
        Some((take, reason))
    }

    /// A planned drain happened at `now`, leaving `left` commands queued.
    /// A backlog doubles the target: with a queue building, bigger batches
    /// mean *fewer* slots in flight for the same commands. An empty queue
    /// halves it, once per smoothed commit latency since the last backlog
    /// or halving — the time a smaller batch takes to show whether it keeps
    /// up.
    pub(crate) fn drained(&mut self, left: usize, now: SimTime) {
        self.flush_due = false;
        let window = self.commit_ticks.unwrap_or(0.0);
        if left > 0 {
            self.target = (self.target * 2).min(self.max_cmds);
            self.backlog_at = now;
        } else if self.target > 1 && now.since(self.backlog_at).0 as f64 >= window {
            self.target /= 2;
            self.backlog_at = now;
        }
    }

    /// A slot with a local instance decided `latency` after the instance
    /// was started: feeds the commit EWMA, the halving window.
    pub(crate) fn slot_committed(&mut self, latency: SimDuration) {
        let ticks = latency.0 as f64;
        self.commit_ticks = Some(match self.commit_ticks {
            None => ticks,
            Some(ewma) => 0.8 * ewma + 0.2 * ticks,
        });
    }

    /// The node is holding commands ([`plan`](Self::plan) said `None` on a
    /// non-empty queue): the delay to arm the flush-age backstop with, or
    /// `None` while one is already outstanding.
    pub(crate) fn hold_began(&mut self) -> Option<SimDuration> {
        if self.flush_armed {
            return None;
        }
        self.flush_armed = true;
        Some(FLUSH_AGE)
    }

    /// The backstop fired; with commands still `held`, the next
    /// [`plan`](Self::plan) flushes them whatever the target.
    pub(crate) fn flush_timer_fired(&mut self, held: bool) {
        self.flush_armed = false;
        self.flush_due |= held;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(sizes: &[usize]) -> VecDeque<Value> {
        sizes.iter().map(|n| Value::new(vec![7; *n])).collect()
    }

    fn batcher(max_batch_cmds: usize) -> Batcher {
        Batcher::new(Batching::Adaptive(AdaptiveBatch { max_batch_cmds }))
    }

    /// A batcher whose target a backlog has grown to `target`.
    fn grown_to(target: usize, max_batch_cmds: usize) -> Batcher {
        let mut b = batcher(max_batch_cmds);
        while b.target() < target {
            b.drained(1, SimTime::ZERO);
        }
        assert_eq!(b.target(), target);
        b
    }

    #[test]
    fn plan_table() {
        use FlushReason::*;
        const BUSY: bool = false;
        const QUIESCENT: bool = true;
        // (target, cap, flush_due, queued, quiescent) → plan
        let rows = [
            (1, 256, false, 0, QUIESCENT, None),
            // Quiescent: everything up to the cap, whatever the target.
            (8, 256, false, 3, QUIESCENT, Some((3, Quiescence))),
            (8, 16, false, 40, QUIESCENT, Some((16, Quiescence))),
            // Busy at target: exactly the target.
            (8, 256, false, 8, BUSY, Some((8, Size))),
            (8, 256, false, 40, BUSY, Some((8, Size))),
            // Busy below target: held — until the backstop has fired.
            (8, 256, false, 7, BUSY, None),
            (8, 256, true, 7, BUSY, Some((7, Timeout))),
            // A cap of 1 never holds.
            (1, 1, false, 1, BUSY, Some((1, Size))),
            (1, 1, false, 9, BUSY, Some((1, Size))),
            (1, 1, false, 9, QUIESCENT, Some((1, Quiescence))),
        ];
        for (target, cap, due, queued, quiescent, expected) in rows {
            let mut b = grown_to(target, cap);
            b.flush_due = due;
            let row = (target, cap, due, queued, quiescent);
            assert_eq!(
                b.plan(&queue(&vec![16; queued]), quiescent),
                expected,
                "{row:?}"
            );
        }
    }

    #[test]
    fn a_hold_asks_for_the_backstop_once_and_its_firing_ships_the_batch() {
        let mut b = grown_to(8, 256);
        let held = queue(&[16; 3]);
        assert_eq!(b.plan(&held, false), None);
        assert_eq!(b.hold_began(), Some(FLUSH_AGE));
        assert_eq!(b.hold_began(), None, "one timer per hold");
        // Fired with nothing left to flush: disarmed, nothing due.
        b.flush_timer_fired(false);
        assert_eq!(b.plan(&held, false), None);
        assert_eq!(b.hold_began(), Some(FLUSH_AGE));
        // Fired with the batch still held: it ships, and the drain clears
        // the due flag.
        b.flush_timer_fired(true);
        assert_eq!(b.plan(&held, false), Some((3, FlushReason::Timeout)));
        b.drained(0, SimTime::ZERO);
        assert_eq!(b.plan(&held, false), None);
    }

    #[test]
    fn the_byte_cap_stops_a_drain_but_the_first_command_always_ships() {
        let b = batcher(256);
        let plan = |sizes: &[usize]| b.plan(&queue(sizes), true);
        let (cap, two_fifths) = (MAX_BATCH_BYTES, MAX_BATCH_BYTES * 2 / 5);
        let three_fifths = cap - two_fifths;
        let over = [two_fifths; 3];
        assert_eq!(plan(&over), Some((2, FlushReason::Bytes)));
        let full_then_one = [two_fifths, three_fifths, 1];
        assert_eq!(plan(&full_then_one), Some((2, FlushReason::Bytes)));
        let full = [cap / 2, cap / 2];
        assert_eq!(plan(&full), Some((2, FlushReason::Quiescence)));
        assert_eq!(plan(&[cap + 1, 1]), Some((1, FlushReason::Bytes)));
        assert_eq!(plan(&[cap + 1]), Some((1, FlushReason::Quiescence)));
    }

    #[test]
    fn backlog_doubles_the_target_up_to_the_cap_however_slow_the_commits() {
        let mut b = batcher(12);
        b.slot_committed(SimDuration(200));
        for _ in 0..20 {
            b.slot_committed(SimDuration(5_000));
        }
        let mut targets = Vec::new();
        for _ in 0..5 {
            b.drained(1, SimTime::ZERO);
            targets.push(b.target());
        }
        assert_eq!(targets, [2, 4, 8, 12, 12]);
    }

    #[test]
    fn an_empty_queue_halves_once_per_commit_latency_since_the_last_move() {
        // (time of the drain, commands left) → target after it, from a
        // target of 16 a backlog reached at t = 0 and a commit EWMA of 200.
        let rows = [
            // Inside the window: held at 16.
            (199, 0, 16),
            // One halving per window, the window counted from the last.
            (200, 0, 8),
            (300, 0, 8),
            (399, 0, 8),
            (400, 0, 4),
            // A backlog doubles and re-arms the window.
            (450, 1, 8),
            (600, 0, 8),
            (650, 0, 4),
            (850, 0, 2),
            (1_050, 0, 1),
            // Never below 1.
            (1_250, 0, 1),
            (5_000, 0, 1),
        ];
        let mut b = grown_to(16, 256);
        b.slot_committed(SimDuration(200));
        for (at, left, target) in rows {
            b.drained(left, SimTime(at));
            assert_eq!(b.target(), target, "drain at {at}, {left} left");
        }

        // Before any commit the window is 0: every drain that empties
        // the queue halves.
        let mut b = grown_to(16, 256);
        let targets: Vec<usize> = (0..5)
            .map(|_| {
                b.drained(0, SimTime::ZERO);
                b.target()
            })
            .collect();
        assert_eq!(targets, [8, 4, 2, 1, 1]);
    }

    #[test]
    fn a_cap_of_one_never_leaves_target_one() {
        let mut b = batcher(1);
        b.slot_committed(SimDuration(1));
        for left in [5, 0, 3, 0] {
            b.slot_committed(SimDuration(10_000));
            b.drained(left, SimTime::ZERO);
            assert_eq!(b.target(), 1);
            // Never a hold, so the node never calls `hold_began`.
            assert!(b.plan(&queue(&[16]), false).is_some());
        }
    }
}
