//! The workspace's one randomized-test driver: a property draws every input
//! from a [`Choices`] source and fails by panicking (`assert!`, an
//! `unwrap` in the code under test).
//!
//! Every draw is one *choice*, a `u64` in `0..=max` where 0 is the
//! simplest. [`check`] runs a property over a fixed number of cases, each
//! seeded from the test's name and the case index, so every run explores
//! the same inputs. A failing case's choices are shrunk — deleted and
//! lowered while the property still fails, within [`SHRINK_RUNS`] runs,
//! none of which prints its panic — and the report prints them as a
//! literal that [`replay`] runs as a test:
//!
//! ```text
//! property `name` failed at case 291 of 512 (27 choices); 238 shrink runs left 25:
//!     replay(&[1, 2, 0, 0, 1, 1, 0, …], ..)
//! panicked at crates/core/tests/selection_properties.rs:101:13: …
//! ```
//!
//! Replayed, a choice above a draw's `max` reads as `max` and a draw past
//! the end reads 0. Strategies are plain functions of the source:
//!
//! ```
//! use fastbft_sim::{check, Choices};
//!
//! fn config(c: &mut Choices) -> (usize, usize) {
//!     let f = c.int(1..=8usize);
//!     (3 * f + 1 + c.int(0..4usize), f)
//! }
//!
//! check("quorums_intersect", 64, |c| {
//!     let (n, f) = config(c);
//!     assert!(2 * (n - f) > n + f - 1);
//! });
//! ```

use std::cell::{Cell, RefCell};
use std::ops::{Bound, RangeBounds};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many runs one failing case may spend on shrinking.
pub const SHRINK_RUNS: u32 = 1_000;

/// Where a property's inputs come from: fresh draws in [`check`], a
/// recorded sequence in [`replay`] and while shrinking.
pub struct Choices {
    prefix: Vec<u64>,
    rng: Option<StdRng>,
    drawn: Vec<u64>,
}

/// `range` as inclusive `u64` bounds; `..` is every value of `T`.
fn span<T: Copy + TryFrom<u64> + TryInto<u64>>(range: &impl RangeBounds<T>) -> (u64, u64) {
    let widen = |x: &T| (*x).try_into().ok().expect("a non-negative bound");
    let lo = match range.start_bound() {
        Bound::Included(x) => widen(x),
        Bound::Excluded(x) => widen(x) + 1,
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(x) => widen(x),
        Bound::Excluded(x) => widen(x).checked_sub(1).expect("empty range"),
        Bound::Unbounded => (0..64)
            .map(|shift| u64::MAX >> shift)
            .find(|max| T::try_from(*max).is_ok())
            .expect("an integer type"),
    };
    assert!(lo <= hi, "empty range");
    (lo, hi)
}

impl Choices {
    fn new(prefix: Vec<u64>, rng: Option<StdRng>) -> Self {
        let drawn = Vec::new();
        Choices { prefix, rng, drawn }
    }

    /// One choice in `0..=max`. A forced draw (`max` 0) records nothing.
    fn draw(&mut self, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        let choice = match (self.prefix.get(self.drawn.len()), &mut self.rng) {
            (Some(&recorded), _) => recorded.min(max),
            (None, Some(rng)) => rng.gen_range(0..=max),
            (None, None) => 0,
        };
        self.drawn.push(choice);
        choice
    }

    /// An unsigned integer in `range`, uniformly; the lowest is the
    /// simplest. `..` is any value of `T`.
    pub fn int<T: Copy + TryFrom<u64> + TryInto<u64>>(&mut self, range: impl RangeBounds<T>) -> T {
        let (lo, hi) = span(&range);
        T::try_from(lo + self.draw(hi - lo)).ok().expect("in range")
    }

    /// A fair coin; `false` is the simpler.
    pub fn bool(&mut self) -> bool {
        self.draw(1) == 1
    }

    /// One of `items`, uniformly; the first is the simplest.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int(0..items.len())]
    }

    /// `None` one time in four (the simpler), else `Some` of `value`.
    pub fn option<T>(&mut self, value: impl FnOnce(&mut Self) -> T) -> Option<T> {
        (self.draw(3) > 0).then(|| value(self))
    }

    /// A vector whose length is uniform over `len`, of elements drawn by
    /// `element`. Each element past the shortest length is announced by a
    /// choice that is 0 where the vector ends, so deleting an element's
    /// choices deletes the element.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut element: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let (lo, hi) = span(&len);
        let mut out = Vec::new();
        // Going on with probability (hi − i) / (hi − i + 1) at length i
        // makes every length in lo..=hi equally likely.
        while (out.len() as u64) < lo || self.draw(hi - out.len() as u64) > 0 {
            out.push(element(self));
        }
        out
    }

    /// Bytes, any value each, with a length uniform over `len`.
    pub fn bytes(&mut self, len: impl RangeBounds<usize>) -> Vec<u8> {
        self.vec(len, |c| c.int(..))
    }
}

thread_local! {
    /// Set while this thread runs a property under [`check`].
    static QUIET: Cell<bool> = const { Cell::new(false) };
    /// The text of the last panic raised while [`QUIET`].
    static FAILURE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Runs `property` on `choices`. A panic is its failure, returned as the
/// text the panic hook would have printed (location and message) instead
/// of being printed.
fn run(property: &impl Fn(&mut Choices), choices: &mut Choices) -> Result<(), String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let print = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUIET.get() {
                FAILURE.set(info.to_string());
            } else {
                print(info);
            }
        }));
    });
    QUIET.set(true);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| property(choices)));
    QUIET.set(false);
    outcome.map_err(|_| FAILURE.take())
}

/// Runs `property` over `cases` cases, each seeded from `name` and the case
/// index. On the first failure, shrinks its choices and panics with the
/// shrunk sequence as a [`replay`] literal and the shrunk failure.
pub fn check(name: &str, cases: u32, property: impl Fn(&mut Choices)) {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv);
    for case in 0..cases {
        let seed = base ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(case) + 1);
        let mut choices = Choices::new(Vec::new(), Some(StdRng::seed_from_u64(seed)));
        if let Err(failure) = run(&property, &mut choices) {
            let drawn = choices.drawn.len();
            let mut shrink = Shrink {
                property: &property,
                best: choices.drawn,
                failure,
                runs: 0,
            };
            shrink.run();
            panic!(
                "property `{name}` failed at case {case} of {cases} ({drawn} choices); \
                 {} shrink runs left {}:\n    replay(&{:?}, ..)\n{}",
                shrink.runs,
                shrink.best.len(),
                shrink.best,
                shrink.failure
            );
        }
    }
}

/// Runs `property` once on `choices`, a sequence a failed [`check`]
/// printed. Its failure panics as the property's own.
pub fn replay(choices: &[u64], property: impl Fn(&mut Choices)) {
    property(&mut Choices::new(choices.to_vec(), None));
}

/// A failing case's choices, shrinking.
struct Shrink<'p, P> {
    property: &'p P,
    best: Vec<u64>,
    failure: String,
    runs: u32,
}

impl<P: Fn(&mut Choices)> Shrink<'_, P> {
    fn spent(&self) -> bool {
        self.runs >= SHRINK_RUNS
    }

    /// Runs `best` with `edit` applied, and keeps what it drew if the
    /// property still fails and the draw is simpler: fewer choices, or as
    /// many and lower at the first that differs. Whether it was kept.
    fn attempt(&mut self, edit: impl FnOnce(&mut Vec<u64>)) -> bool {
        if self.spent() {
            return false;
        }
        self.runs += 1;
        let mut candidate = self.best.clone();
        edit(&mut candidate);
        let mut choices = Choices::new(candidate, None);
        let simpler = |drawn: &Vec<u64>| (drawn.len(), drawn) < (self.best.len(), &self.best);
        match run(self.property, &mut choices) {
            Err(failure) if simpler(&choices.drawn) => {
                (self.best, self.failure) = (choices.drawn, failure);
                true
            }
            _ => false,
        }
    }

    /// Passes of deleting chunks of choices back to front (halving from the
    /// whole sequence at steps of half a chunk, then 8, 4, 2 and 1 at every
    /// step) and of lowering each choice to 0, 1 or the least a binary
    /// search finds, until a pass keeps nothing or the runs are spent.
    fn run(&mut self) {
        loop {
            let before = self.best.clone();
            let halving = std::iter::successors(Some(self.best.len()), |n| Some(n / 2));
            for chunk in halving.take_while(|n| *n > 8).chain([8, 4, 2, 1]) {
                let step = if chunk > 8 { chunk / 2 } else { 1 };
                for at in (0..self.best.len()).rev().step_by(step) {
                    if at + chunk <= self.best.len() {
                        self.attempt(|c| *c = [&c[..at], &c[at + chunk..]].concat());
                    }
                }
            }
            for at in 0.. {
                if at >= self.best.len() || self.spent() {
                    break;
                }
                if (0..2).any(|to| to < self.best[at] && self.attempt(|c| c[at] = to)) {
                    continue;
                }
                let (mut lo, mut hi) = (2, self.best[at]);
                while lo < hi && !self.spent() {
                    let mid = lo + (hi - lo) / 2;
                    if self.attempt(|c| c[at] = mid) {
                        hi = self.best.get(at).map_or(0, |&now| now.min(mid));
                    } else {
                        lo = mid + 1;
                    }
                }
            }
            if self.best == before || self.spent() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `check`'s panic text, for a property that fails.
    fn report(name: &str, cases: u32, property: impl Fn(&mut Choices)) -> String {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| check(name, cases, property)));
        let payload = caught.expect_err("the property fails");
        payload
            .downcast_ref::<String>()
            .expect("a formatted report")
            .clone()
    }

    /// The sequence a report prints between `replay(&` and `, ..)`.
    fn literal(report: &str) -> Vec<u64> {
        let list = report
            .split("replay(&[")
            .nth(1)
            .unwrap()
            .split("], ..)")
            .next()
            .unwrap();
        list.split(", ")
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect()
    }

    /// Fails when `x ≥ 1 234` and the list holds three elements or more:
    /// its least sequence is `x` = 1 234, three "one more" choices of 1
    /// with elements 0, and the 0 that ends the list.
    fn threshold(c: &mut Choices) {
        let x = c.int(0..100_000u64);
        let list = c.vec(0..20, |c| c.int(0..100u8));
        assert!(x < 1_234 || list.len() < 3, "x = {x}, {list:?}");
    }

    #[test]
    fn a_known_minimal_counterexample_is_what_shrinking_finds() {
        let report = report("threshold", 64, threshold);
        assert_eq!(literal(&report), [1_234, 1, 0, 1, 0, 1, 0, 0], "{report}");
        assert!(report.contains("x = 1234, [0, 0, 0]"), "{report}");
    }

    #[test]
    fn one_name_draws_the_same_cases_on_every_run() {
        let cases = |name: &str| {
            let drawn = RefCell::new(Vec::new());
            check(name, 16, |c| {
                drawn.borrow_mut().push((c.int(..), c.bytes(0..8)))
            });
            drawn.into_inner()
        };
        let first: Vec<(u64, Vec<u8>)> = cases("same_cases");
        assert_eq!(cases("same_cases"), first);
        assert_ne!(cases("other_cases"), first);
    }

    #[test]
    fn a_printed_literal_replays_to_the_same_failure() {
        let report = report("threshold", 64, threshold);
        let replayed = panic::catch_unwind(|| replay(&literal(&report), threshold));
        let payload = replayed.expect_err("the literal fails");
        let message = payload.downcast_ref::<String>().unwrap();
        assert!(
            report.ends_with(message.as_str()),
            "{report}\nreplayed: {message}"
        );
    }

    #[test]
    fn the_run_budget_ends_a_property_that_fails_on_every_input() {
        let runs = Cell::new(0u32);
        let report = report("always_fails", 8, |c| {
            runs.set(runs.get() + 1);
            c.vec(2_000..=2_000, |c| c.int::<u64>(..));
            panic!("fails on every input");
        });
        assert_eq!(runs.get(), 1 + SHRINK_RUNS);
        assert!(
            report.contains(&format!("{SHRINK_RUNS} shrink runs")),
            "{report}"
        );
    }
}
