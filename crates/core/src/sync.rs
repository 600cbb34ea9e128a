//! The view synchronizer (§3), and the view timer and decide rule the three
//! compared protocols share.
//!
//! A process whose view timer expires wishes for the next view, or repeats
//! its higher wish. It adopts (wishes for) the `(f + 1)`-th largest wish it
//! holds — one of those wishers is correct and timed out — and enters the
//! `(2f + 1)`-th largest, which `f + 1` correct processes wished for. It
//! holds one wish per process, the highest, and counts its own at once.
//! [`Synchronizer`] returns [`SyncStep`]s in the order their effects must
//! happen; each protocol sends its own `Wish` and enters its own view. PBFT
//! shares only [`ViewTimer`] and [`decide`]: joining a view change at
//! `f + 1` and entering at `2f + 1` for the exact target view is its own
//! protocol, not this synchronizer.

use std::collections::BTreeMap;

use fastbft_sim::{Effects, SimDuration, SimMessage, TimerId};
use fastbft_types::{ProcessId, Value, View};

/// The view-1 timeout: the baselines' and, by default, this paper's
/// replica's (`ReplicaOptions::base_timeout`).
pub const BASE_TIMEOUT: SimDuration = SimDuration(SimDuration::DELTA.0 * 8);

/// A process's view timer: one generation per arming, so a timer from a
/// view since left is recognised as stale.
#[derive(Debug)]
pub struct ViewTimer {
    base: SimDuration,
    generation: u64,
}

impl ViewTimer {
    /// A timer whose view-1 timeout is `base`.
    pub fn new(base: SimDuration) -> Self {
        ViewTimer {
            base,
            generation: 0,
        }
    }

    /// `base · 2^min(v − 1, 12)`, saturating: after GST some view's timeout
    /// exceeds what a correct leader needs, the paper's ≥ 5Δ of quiet.
    pub fn timeout_for(&self, view: View) -> SimDuration {
        let exp = (view.0.saturating_sub(1)).min(12) as u32;
        SimDuration(self.base.0.saturating_mul(1 << exp))
    }

    /// Arms the timer for `view`; every earlier one is stale from now on.
    pub fn arm<M: SimMessage>(&mut self, view: View, fx: &mut Effects<M>) {
        self.generation += 1;
        fx.set_timer(self.timeout_for(view), TimerId(self.generation));
    }

    /// Whether `timer` is the one armed last: `on_timer` ignores any other.
    pub fn is_current(&self, timer: TimerId) -> bool {
        timer.0 == self.generation
    }
}

/// The decide rule: records `value` if nothing is decided yet (returning
/// `true`), and surfaces a different later value to the checker, which
/// reports it as a safety violation — unreachable at a protocol's bound,
/// reachable below it (the lower-bound demonstration).
pub fn decide<M: SimMessage>(
    decided: &mut Option<Value>,
    value: &Value,
    fx: &mut Effects<M>,
) -> bool {
    let first = decided.is_none();
    let held = decided.get_or_insert_with(|| value.clone());
    if first || held != value {
        fx.decide(value.clone());
    }
    first
}

/// What the [`Synchronizer`] asks of its protocol, in the order returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncStep {
    /// Broadcast `Wish(view)` to every other process.
    Wish(View),
    /// Enter `view`.
    Enter(View),
}

/// One process's wish/enter synchronizer. See the [module docs](self).
#[derive(Debug)]
pub struct Synchronizer {
    id: ProcessId,
    f: usize,
    /// Each process's highest wish, this one's own included.
    wishes: BTreeMap<ProcessId, View>,
    /// The highest wish this process has broadcast.
    mine: Option<View>,
}

impl Synchronizer {
    /// Process `id`'s synchronizer, at most `f` processes faulty.
    pub fn new(id: ProcessId, f: usize) -> Self {
        Synchronizer {
            id,
            f,
            wishes: BTreeMap::new(),
            mine: None,
        }
    }

    /// The highest view this process has wished for, if any.
    pub fn wish(&self) -> Option<View> {
        self.mine
    }

    /// `from` wishes for `view`; this process is in view `current`.
    pub fn on_wish(&mut self, from: ProcessId, view: View, current: View) -> Vec<SyncStep> {
        self.hold(from, view);
        self.steps(None, current)
    }

    /// Raises this process's wish to `view`, unless that is not beyond both
    /// its current view and its wish.
    pub fn wish_for(&mut self, view: View, current: View) -> Vec<SyncStep> {
        let raise = view > current && self.mine.is_none_or(|mine| view > mine);
        self.steps(raise.then_some(view), current)
    }

    /// The view timer expired in `current`.
    pub fn on_timeout(&mut self, current: View) -> Vec<SyncStep> {
        let target = current.next();
        let wish = self.mine.filter(|mine| *mine >= target).unwrap_or(target);
        self.steps(Some(wish), current)
    }

    /// Wishes for `wish` if given, then adopts and enters as the wishes
    /// held allow. An adopted wish is the `(f + 1)`-th largest, so holding
    /// it cannot raise that: one adoption per call is all there can be.
    fn steps(&mut self, wish: Option<View>, current: View) -> Vec<SyncStep> {
        let mut steps = Vec::new();
        if let Some(view) = wish {
            self.raise(view, &mut steps);
        }
        let adopt = self.kth_largest_wish(self.f + 1);
        if let Some(w) = adopt.filter(|w| self.mine.is_none_or(|mine| *w > mine) && *w > current) {
            self.raise(w, &mut steps);
        }
        let enter = self
            .kth_largest_wish(2 * self.f + 1)
            .filter(|w| *w > current);
        steps.extend(enter.map(SyncStep::Enter));
        steps
    }

    fn raise(&mut self, view: View, steps: &mut Vec<SyncStep>) {
        self.mine = Some(view);
        self.hold(self.id, view);
        steps.push(SyncStep::Wish(view));
    }

    /// Holds `view` as `from`'s wish unless it holds a higher one.
    fn hold(&mut self, from: ProcessId, view: View) {
        let held = self.wishes.entry(from).or_insert(view);
        *held = (*held).max(view);
    }

    /// The `k`-th largest wish (1-based), if `k` processes have wished.
    fn kth_largest_wish(&self, k: usize) -> Option<View> {
        let mut views: Vec<View> = self.wishes.values().copied().collect();
        views.sort_unstable_by(|a, b| b.cmp(a));
        views.get(k - 1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use fastbft_sim::SimTime;
    use SyncStep::{Enter, Wish};

    /// p1 in view 3 with `f`: its own wish first if any, then each
    /// `(sender, view)` wish in turn. Every step asked for, and p1's wish.
    fn run(f: usize, own: Option<u64>, wishes: &[(u32, u64)]) -> (Vec<SyncStep>, Option<View>) {
        let mut sync = Synchronizer::new(ProcessId(1), f);
        let mut steps = own.map_or(vec![], |own| sync.wish_for(View(own), View(3)));
        for (from, view) in wishes {
            steps.extend(sync.on_wish(ProcessId(*from), View(*view), View(3)));
        }
        (steps, sync.wish())
    }

    #[test]
    fn the_synchronizer_as_a_table() {
        let v = View;
        // f wishes never adopt, however often repeated.
        let repeated = [(2, 9), (3, 9), (2, 12), (3, 12)];
        assert_eq!(run(2, None, &repeated), (vec![], None));
        // f + 1 adopt the (f + 1)-th largest, below the (2f + 1) to enter.
        let adopt = [(2, 9), (3, 7), (4, 5)];
        assert_eq!(run(2, None, &adopt), (vec![Wish(v(5))], Some(v(5))));
        // With p1's own that is 2f + 1, which enters the (2f + 1)-th largest.
        let enter = vec![Wish(v(7)), Enter(v(7))];
        assert_eq!(run(1, None, &[(2, 9), (3, 7)]), (enter, Some(v(7))));
        let enter = vec![Wish(v(20)), Enter(v(7))];
        assert_eq!(run(1, Some(20), &[(2, 9), (3, 7)]), (enter, Some(v(20))));
        // Only beyond the current view; a lower repeat lowers no entry.
        assert_eq!(run(1, Some(3), &[(2, 3), (3, 2)]), (vec![], None));
        let lower = vec![Wish(v(9)), Enter(v(9))];
        assert_eq!(run(1, None, &[(2, 9), (2, 4), (3, 9)]), (lower, Some(v(9))));
        // A timeout wishes for the next view, or repeats a higher wish.
        let mut sync = Synchronizer::new(ProcessId(1), 1);
        assert_eq!(sync.on_timeout(v(3)), [Wish(v(4))]);
        assert_eq!(sync.wish_for(v(6), v(3)), [Wish(v(6))]);
        assert_eq!(sync.on_timeout(v(3)), [Wish(v(6))]);
        assert_eq!(sync.on_timeout(v(6)), [Wish(v(7))]);
    }

    #[test]
    fn the_view_timer_as_a_table() {
        // A stale timer generation is ignored.
        let mut timer = ViewTimer::new(SimDuration(10));
        let mut fx = Effects::<Message>::new(ProcessId(1), 4, SimTime::ZERO);
        timer.arm(View(1), &mut fx);
        timer.arm(View(2), &mut fx);
        let set = [(SimDuration(10), TimerId(1)), (SimDuration(20), TimerId(2))];
        assert_eq!(fx.timers_set(), set);
        assert!(!timer.is_current(TimerId(1)) && timer.is_current(TimerId(2)));
        // The timeout stops doubling at view 13 and saturates.
        let views = [
            (12, 10 << 11),
            (13, 10 << 12),
            (14, 10 << 12),
            (u64::MAX, 10 << 12),
        ];
        for (view, timeout) in views {
            assert_eq!(timer.timeout_for(View(view)), SimDuration(timeout));
        }
        let timer = ViewTimer::new(SimDuration(u64::MAX / 2));
        assert_eq!(timer.timeout_for(View(2)), SimDuration(u64::MAX - 1));
        assert_eq!(timer.timeout_for(View(3)), SimDuration(u64::MAX));
    }
}
