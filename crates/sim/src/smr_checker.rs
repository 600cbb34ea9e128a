//! Replicated-log invariant checking: [`SmrChecker`] is fed what replicas
//! applied, one `(seat, log index, command)` entry at a time, and as
//! `(seat, applied slots, state digest)`. Every entry is a command a client
//! submitted — a slot with nothing to commit logs nothing — so at most once
//! holds for every command, with no exemption.
//!
//! Both SMR clusters feed it every entry of the run from one stream, each
//! replica's `Effects::record_applied` events: on the wall clock as the
//! runtime forwards them (`ClusterHandle::applied_events`), in virtual
//! time as the kernel keeps them ([`Simulation::drain_applied`]). Logs may
//! be sparse: the indexes a seat never reported (covered by a snapshot it
//! installed, or applied before it restarted) are vacuously consistent;
//! the install verified them.
//!
//! One row is checked only where the caller says the run has settled
//! ([`SmrChecker::settled`]): liveness, which no prefix of a run can
//! violate. The checker sees commands, not slots, and an empty slot logs
//! nothing, so it compares the seats' logs, not their applied slots.
//!
//! [`Simulation::drain_applied`]: crate::Simulation::drain_applied

use std::collections::BTreeMap;
use std::fmt;

use fastbft_types::{ProcessId, Value};

/// A detected violation of a replicated-log property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmrViolation {
    /// Two entries at one log index hold different commands: two seats'
    /// entries, or one seat's entry and its re-report.
    Diverged {
        /// The log index.
        index: u64,
        /// The entry reported first.
        a: (ProcessId, Value),
        /// The conflicting entry.
        b: (ProcessId, Value),
    },
    /// A seat applied a log index before any seat had applied the one
    /// below it (an install copies a state some seat applied).
    Skipped(ProcessId, u64),
    /// A seat applied a command at two log indexes.
    AppliedTwice {
        /// The offending seat.
        process: ProcessId,
        /// The command.
        command: Value,
        /// The index it was first applied at, then the repeat.
        indexes: [u64; 2],
    },
    /// In a settled run, a command some seats named correct applied and
    /// the others did not.
    NotEverywhere {
        /// The lowest such log index.
        index: u64,
        /// The seats that applied it (or a later index).
        applied: Vec<ProcessId>,
        /// The seats that did not.
        missing: Vec<ProcessId>,
    },
    /// Two seats that applied the same number of slots hold different
    /// states.
    StatesDiffer {
        /// The slots both applied.
        applied: u64,
        /// The seat reported first and its state digest.
        a: (ProcessId, [u8; 32]),
        /// The seat that differs and its state digest.
        b: (ProcessId, [u8; 32]),
    },
}

impl fmt::Display for SmrViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let short = |d: &[u8; 32]| u32::from_be_bytes([d[0], d[1], d[2], d[3]]);
        match self {
            SmrViolation::Diverged { index, a, b } => {
                let (p, x, q, y) = (a.0, &a.1, b.0, &b.1);
                write!(f, "log index {index}: {p} applied {x} but {q} applied {y}")
            }
            SmrViolation::Skipped(p, i) => {
                let below = i - 1;
                write!(
                    f,
                    "{p} applied log index {i} before any seat applied {below}"
                )
            }
            SmrViolation::AppliedTwice {
                process,
                command,
                indexes: [i, j],
            } => write!(f, "{process} applied {command} at log indexes {i} and {j}"),
            SmrViolation::NotEverywhere {
                index,
                applied,
                missing,
            } => {
                let seats = |ps: &[ProcessId]| {
                    let names: Vec<String> = ps.iter().map(ToString::to_string).collect();
                    names.join(", ")
                };
                let (yes, no) = (seats(applied), seats(missing));
                write!(f, "log index {index}: applied by {yes} but not by {no}")
            }
            SmrViolation::StatesDiffer { applied, a, b } => {
                let (p, x, q, y) = (a.0, short(&a.1), b.0, short(&b.1));
                write!(
                    f,
                    "after {applied} slots {p} holds {x:08x}… but {q} holds {y:08x}…"
                )
            }
        }
    }
}

/// Checks one run of `n` seats, as it is fed, for per-index agreement, at
/// most once per seat (every command, no exemption: a log holds exactly
/// the commands clients submitted), no index skipped by every seat, and
/// convergence (seats that applied as many slots hold equal states).
#[derive(Clone, Debug)]
pub struct SmrChecker {
    /// Per seat, the command at every log index it reported.
    logs: Vec<BTreeMap<u64, Value>>,
    /// Per seat, the index each command was first applied at.
    first_at: Vec<BTreeMap<Value, u64>>,
    /// Per applied-slot count, the first seat reported there and its state.
    states: BTreeMap<u64, (ProcessId, [u8; 32])>,
    /// Per seat, the applied-slot count and state it was last reported in.
    latest: Vec<Option<(u64, [u8; 32])>>,
    violations: Vec<SmrViolation>,
}

impl SmrChecker {
    /// A checker for seats `p1..=pn`.
    pub fn new(n: usize) -> Self {
        SmrChecker {
            logs: vec![BTreeMap::new(); n],
            first_at: vec![BTreeMap::new(); n],
            states: BTreeMap::new(),
            latest: vec![None; n],
            violations: Vec::new(),
        }
    }

    /// Records that seat `p` applied `command` at log `index`. Reporting
    /// an entry again changes nothing; reporting its index with another
    /// command is a divergence.
    pub fn observe(&mut self, p: ProcessId, index: u64, command: Value) {
        // The seat's own entry at `index` if it has one, else the lowest
        // other seat's.
        let mut seats = std::iter::once(p).chain(ProcessId::all(self.logs.len()));
        let earlier = seats.find_map(|q| Some((q, self.logs[q.index()].get(&index)?)));
        if let Some((q, before)) = earlier.filter(|(_, before)| **before != command) {
            let (a, b) = ((q, before.clone()), (p, command.clone()));
            self.violations.push(SmrViolation::Diverged { index, a, b });
        }
        if self.logs[p.index()].contains_key(&index) {
            return;
        }
        if index > 0 && self.logs.iter().all(|log| !log.contains_key(&(index - 1))) {
            self.violations.push(SmrViolation::Skipped(p, index));
        }
        let first = *self.first_at[p.index()]
            .entry(command.clone())
            .or_insert(index);
        if first != index {
            let (process, indexes) = (p, [first, index]);
            let command = command.clone();
            self.violations.push(SmrViolation::AppliedTwice {
                process,
                command,
                indexes,
            });
        }
        self.logs[p.index()].insert(index, command);
    }

    /// Records that seat `p`, having applied `applied` slots, holds a state
    /// whose digest is `digest`. Reporting a state again changes nothing.
    pub fn observe_state(&mut self, p: ProcessId, applied: u64, digest: [u8; 32]) {
        self.latest[p.index()] = Some((applied, digest));
        let (q, first) = *self.states.entry(applied).or_insert((p, digest));
        if first != digest {
            let (a, b) = ((q, first), (p, digest));
            let violation = SmrViolation::StatesDiffer { applied, a, b };
            if !self.violations.contains(&violation) {
                self.violations.push(violation);
            }
        }
    }

    /// The liveness row, for a run the caller says has settled (no client
    /// command for long enough that every correct seat should have caught
    /// up): among the seats in `correct`, every command one of them applied
    /// has been applied by all of them. A seat that reported a later index
    /// counts as having applied every index below it (a snapshot install
    /// leaves its log sparse, and verified the gap), and so does a seat last
    /// reported in the state another was — as many slots applied, the same
    /// digest — up to that seat's highest index (an install past the last
    /// command leaves it no later index of its own). The lowest index some
    /// seat lacks, if any seat applied it.
    pub fn settled(&self, correct: &[ProcessId]) -> Option<SmrViolation> {
        let own = |p: &ProcessId| self.logs[p.index()].last_key_value().map(|(i, _)| *i);
        let level = |p: &ProcessId, q: &ProcessId| {
            let latest = |p: &ProcessId| self.latest[p.index()];
            p == q || latest(p).is_some() && latest(p) == latest(q)
        };
        let top = |p: &ProcessId| correct.iter().filter(|q| level(p, q)).filter_map(own).max();
        let index = correct.iter().map(|p| top(p).map_or(0, |i| i + 1)).min()?;
        let (applied, missing): (Vec<ProcessId>, Vec<ProcessId>) = correct
            .iter()
            .partition(|p| top(p).is_some_and(|i| i >= index));
        (!applied.is_empty()).then_some(SmrViolation::NotEverywhere {
            index,
            applied,
            missing,
        })
    }

    /// Every seat's log so far, by seat index, keyed by log index.
    pub fn logs(&self) -> &[BTreeMap<u64, Value>] {
        &self.logs
    }

    /// How many distinct commands seat `p` applied so far.
    pub fn commands(&self, p: ProcessId) -> u64 {
        self.first_at[p.index()].len() as u64
    }

    /// Every violation found so far, in the order found.
    pub fn violations(&self) -> &[SmrViolation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each property on a hand-made run of three seats. A row is `case |
    /// feed | what the checker finds`; the feed runs in order, `p1:4=7` is
    /// p1 applying command 7 at log index 4, `p1/5=ab` is p1 holding a
    /// state with digest `[0xab; 32]` after 5 slots, and `settled=13` is
    /// the caller saying the run has settled with p1 and p3 correct (the
    /// liveness row, which nothing else checks).
    #[test]
    fn the_checker_flags_what_it_names() {
        let rows = [
            "an index re-emitted with its command | p1:0=7 p1:0=7 | ",
            "an index re-emitted with another command | p1:0=7 p2:0=7 p1:0=8 | \
             log index 0: p1 applied Value(7) but p1 applied Value(8)",
            "a command at two indexes of one seat | p1:0=1 p1:1=2 p1:2=1 | \
             p1 applied Value(1) at log indexes 0 and 2",
            "overlapping offsets that agree | p1:0=7 p1:1=8 p1:2=9 p2:2=9 p2:3=10 | ",
            "overlapping offsets that disagree | p2:0=7 p2:1=8 p2:2=1 p3:2=9 p3:3=10 | \
             log index 2: p2 applied Value(1) but p3 applied Value(9)",
            "disjoint offsets | p1:0=7 p1:1=8 p2:2=1 p2:3=2 | ",
            "an index no seat applied the one below | p1:0=7 p1:1=8 p2:0=7 p2:3=9 | \
             p2 applied log index 3 before any seat applied 2",
            "unequal digests at equal applied | p1/5=ab p2/3=01 p3/5=01 | \
             after 5 slots p1 holds abababab… but p3 holds 01010101…",
            "unequal digests at unequal applied | p1/5=ab p2/6=01 | ",
            "an unequal digest re-reported | p1/5=ab p3/5=01 p3/5=01 | \
             after 5 slots p1 holds abababab… but p3 holds 01010101…",
            "settled, every seat at one index | p1:0=7 p1:1=8 p2:0=7 p2:1=8 p3:0=7 p3:1=8 \
             settled=123 | ",
            "settled, two seats behind | p1:0=7 p1:1=8 p1:2=9 p2:0=7 p3:0=7 settled=123 | \
             log index 1: applied by p1 but not by p2, p3",
            "settled, one seat behind | p3:0=7 p3:1=8 p1:0=7 p1:1=8 p2:0=7 settled=123 | \
             log index 1: applied by p1, p3 but not by p2",
            "settled, a seat that applied nothing | p1:0=7 settled=12 | \
             log index 0: applied by p1 but not by p2",
            "settled, nothing applied anywhere | settled=123 | ",
            "settled, a seat behind left out | p1:0=7 p1:1=8 p2:0=7 p3:0=7 p3:1=8 settled=13 | ",
            "settled, below a seat's highest index is covered | p1:0=7 p1:1=8 p1:2=9 p2:2=9 \
             settled=12 | ",
            "settled, a seat in another's state is level with it | p1:0=7 p1:1=8 p1/2=ab \
             p2/2=ab settled=12 | ",
            "settled, as many slots in another state | p1:0=7 p1:1=8 p1/2=ab p2/2=01 \
             settled=12 | after 2 slots p1 holds abababab… but p2 holds 01010101…; \
             log index 0: applied by p1 but not by p2",
            "settled, level only with the state last reported | p1:0=7 p1/1=ab p2/1=ab \
             p1:1=8 p1/2=cd settled=12 | log index 0: applied by p1 but not by p2",
            "settled twice, caught up in between | p1:0=7 p1:1=8 p2:0=7 settled=12 p2:1=8 \
             settled=12 | log index 1: applied by p1 but not by p2",
            "a seat behind, not settled | p1:0=7 p1:1=8 p2:0=7 | ",
            "settled, beside a divergence | p1:0=7 p2:0=8 p2:1=9 settled=12 | \
             log index 0: p1 applied Value(7) but p2 applied Value(8); \
             log index 1: applied by p2 but not by p1",
        ];
        for row in rows {
            let cols: Vec<&str> = row.split(" | ").collect();
            let [case, feed, found] = cols[..] else {
                panic!("{row}: not `case | feed | found`")
            };
            let mut checker = SmrChecker::new(3);
            let mut found_settled = Vec::new();
            for event in feed.split_whitespace() {
                if let Some(seats) = event.strip_prefix("settled=") {
                    let seats: Vec<ProcessId> = seats
                        .chars()
                        .map(|c| ProcessId(c as u32 - '0' as u32))
                        .collect();
                    found_settled.extend(checker.settled(&seats));
                    continue;
                }
                let (p, rest) = event[1..].split_once([':', '/']).expect(event);
                let (at, what) = rest.split_once('=').expect(event);
                let (p, at) = (ProcessId(p.parse().unwrap()), at.parse().unwrap());
                if event.contains(':') {
                    checker.observe(p, at, Value::from_u64(what.parse().unwrap()));
                } else {
                    checker.observe_state(p, at, [u8::from_str_radix(what, 16).unwrap(); 32]);
                }
            }
            let violations = checker.violations().iter().chain(&found_settled);
            let violations: Vec<String> = violations.map(|v| v.to_string()).collect();
            assert_eq!(violations.join("; "), found, "{case}");
        }
    }
}
