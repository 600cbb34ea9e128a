//! Replicated-log invariant checking: [`SmrChecker`] is fed what replicas
//! applied, one `(seat, log index, command)` entry at a time — the shape
//! of the runtime's applied-event stream — and as `(seat, applied slots,
//! state digest)`. Logs may be sparse: the indexes a seat never reported
//! (truncated into a snapshot it installed, or applied before it
//! restarted) are vacuously consistent; the install verified them.

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
    /// A seat applied a client command at two log indexes.
    AppliedTwice {
        /// The offending seat.
        process: ProcessId,
        /// The command.
        command: Value,
        /// The index it was first applied at, then the repeat.
        indexes: [u64; 2],
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
            SmrViolation::AppliedTwice {
                process,
                command,
                indexes: [i, j],
            } => write!(f, "{process} applied {command} at log indexes {i} and {j}"),
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
/// most once per seat (the idle filler recurs by design) and convergence
/// (seats that applied as many slots hold equal states).
#[derive(Clone, Debug)]
pub struct SmrChecker {
    idle: Value,
    /// Per seat, the command at every log index it reported.
    logs: Vec<BTreeMap<u64, Value>>,
    /// Per seat, the index each client command was first applied at.
    first_at: Vec<BTreeMap<Value, u64>>,
    /// Per applied-slot count, the first seat reported there and its state.
    states: BTreeMap<u64, (ProcessId, [u8; 32])>,
    violations: Vec<SmrViolation>,
}

impl SmrChecker {
    /// A checker for seats `p1..=pn`; `idle` is the filler a seat may apply
    /// any number of times.
    pub fn new(n: usize, idle: Value) -> Self {
        SmrChecker {
            idle,
            logs: vec![BTreeMap::new(); n],
            first_at: vec![BTreeMap::new(); n],
            states: BTreeMap::new(),
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
        if command != self.idle {
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
        }
        self.logs[p.index()].insert(index, command);
    }

    /// Records that seat `p`, having applied `applied` slots, holds a state
    /// whose digest is `digest`.
    pub fn observe_state(&mut self, p: ProcessId, applied: u64, digest: [u8; 32]) {
        let (q, first) = *self.states.entry(applied).or_insert((p, digest));
        if first != digest {
            let (a, b) = ((q, first), (p, digest));
            let violation = SmrViolation::StatesDiffer { applied, a, b };
            self.violations.push(violation);
        }
    }

    /// Every seat's log so far, by seat index, keyed by log index.
    pub fn logs(&self) -> &[BTreeMap<u64, Value>] {
        &self.logs
    }

    /// How many distinct client commands seat `p` applied so far.
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

    /// Each property on a hand-made run of three seats, idle filler 0. A
    /// row is `case | feed | what the checker finds`; the feed runs in
    /// order, `p1:4=7` is p1 applying command 7 at log index 4 and `p1/5=ab`
    /// is p1 holding a state with digest `[0xab; 32]` after 5 slots.
    #[test]
    fn the_checker_flags_what_it_names() {
        let rows = [
            "an index re-emitted with its command | p1:4=7 p1:4=7 | ",
            "an index re-emitted with another command | p1:4=7 p2:4=7 p1:4=8 | \
             log index 4: p1 applied Value(7) but p1 applied Value(8)",
            "a client command at two indexes of one seat | p1:0=1 p1:1=2 p1:2=1 | \
             p1 applied Value(1) at log indexes 0 and 2",
            "the idle filler repeated | p1:0=0 p1:1=1 p1:2=0 p1:3=0 | ",
            "overlapping offsets that agree | p1:0=7 p1:1=8 p1:2=9 p2:2=9 p2:3=10 | ",
            "overlapping offsets that disagree | p3:2=9 p3:3=10 p2:0=7 p2:1=8 p2:2=1 | \
             log index 2: p3 applied Value(9) but p2 applied Value(1)",
            "disjoint offsets | p1:0=7 p1:1=8 p2:5=1 p2:6=2 | ",
            "unequal digests at equal applied | p1/5=ab p2/3=01 p3/5=01 | \
             after 5 slots p1 holds abababab… but p3 holds 01010101…",
            "unequal digests at unequal applied | p1/5=ab p2/6=01 | ",
        ];
        for row in rows {
            let cols: Vec<&str> = row.split(" | ").collect();
            let [case, feed, found] = cols[..] else {
                panic!("{row}: not `case | feed | found`")
            };
            let mut checker = SmrChecker::new(3, Value::from_u64(0));
            for event in feed.split_whitespace() {
                let (p, rest) = event[1..].split_once([':', '/']).expect(event);
                let (at, what) = rest.split_once('=').expect(event);
                let (p, at) = (ProcessId(p.parse().unwrap()), at.parse().unwrap());
                if event.contains(':') {
                    checker.observe(p, at, Value::from_u64(what.parse().unwrap()));
                } else {
                    checker.observe_state(p, at, [u8::from_str_radix(what, 16).unwrap(); 32]);
                }
            }
            let violations: Vec<String> =
                checker.violations().iter().map(|v| v.to_string()).collect();
            assert_eq!(violations.join("; "), found, "{case}");
        }
    }
}
