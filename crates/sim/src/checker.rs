//! Consensus invariant checking over executions.
//!
//! After (or during) a simulation, [`ConsensusChecker`] evaluates the three
//! consensus properties of §2.2 against the recorded decisions:
//!
//! * **Consistency** — no two correct processes decide different values, and
//!   no process decides twice with different values;
//! * **Validity** — extended validity: when all processes are correct, the
//!   decision must be some process's input (weak validity — unanimous input
//!   must be decided — is implied and checked too when inputs are unanimous);
//! * **Liveness** — every correct process decided (checked against a caller-
//!   supplied deadline, since liveness is only guaranteed after GST).

use std::collections::BTreeMap;
use std::fmt;

use fastbft_types::{ProcessId, Value};

use crate::time::SimTime;
use crate::trace::Trace;

/// A detected violation of a consensus property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two correct processes decided different values.
    Disagreement {
        /// First process and its value.
        a: (ProcessId, Value),
        /// Second process and its conflicting value.
        b: (ProcessId, Value),
    },
    /// A process decided twice with different values.
    ChangedDecision {
        /// The offending process.
        process: ProcessId,
    },
    /// All processes were correct, but the decided value was nobody's input
    /// (extended validity violation).
    InventedValue {
        /// The decided value.
        value: Value,
    },
    /// All processes were correct and unanimous on `expected`, but `actual`
    /// was decided (weak validity violation).
    NonUnanimousDecision {
        /// The unanimous input.
        expected: Value,
        /// What was decided instead.
        actual: Value,
    },
    /// A correct process missed the liveness deadline.
    Undecided {
        /// The process that never decided.
        process: ProcessId,
        /// The deadline it missed.
        deadline: SimTime,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Disagreement { a, b } => write!(
                f,
                "disagreement: {} decided {} but {} decided {}",
                a.0, a.1, b.0, b.1
            ),
            Violation::ChangedDecision { process } => {
                write!(f, "{process} decided twice with different values")
            }
            Violation::InventedValue { value } => {
                write!(f, "decided value {value} was no process's input")
            }
            Violation::NonUnanimousDecision { expected, actual } => {
                write!(f, "unanimous input {expected} but decided {actual}")
            }
            Violation::Undecided { process, deadline } => {
                write!(f, "{process} undecided by {deadline}")
            }
        }
    }
}

/// Evaluates consensus properties for one execution.
///
/// The checker is told which processes are Byzantine (their decisions and
/// inputs are ignored — the properties only constrain correct processes).
#[derive(Clone, Debug)]
pub struct ConsensusChecker {
    inputs: BTreeMap<ProcessId, Value>,
    byzantine: Vec<ProcessId>,
}

impl ConsensusChecker {
    /// Creates a checker from per-process inputs.
    pub fn new(inputs: impl IntoIterator<Item = (ProcessId, Value)>) -> Self {
        ConsensusChecker {
            inputs: inputs.into_iter().collect(),
            byzantine: Vec::new(),
        }
    }

    /// Declares `process` Byzantine (excluded from all property checks).
    #[must_use]
    pub fn with_byzantine(mut self, process: ProcessId) -> Self {
        self.byzantine.push(process);
        self
    }

    /// Declares several processes Byzantine.
    #[must_use]
    pub fn with_byzantine_set(mut self, set: impl IntoIterator<Item = ProcessId>) -> Self {
        self.byzantine.extend(set);
        self
    }

    fn is_correct(&self, p: ProcessId) -> bool {
        !self.byzantine.contains(&p)
    }

    /// Checks **safety** (consistency + validity) against the decisions in
    /// `trace`. Liveness is separate — see [`ConsensusChecker::check_liveness`].
    pub fn check_safety(&self, trace: &Trace) -> Vec<Violation> {
        let mut violations = Vec::new();

        // Consistency across processes.
        let decisions: Vec<(SimTime, ProcessId, Value)> = trace
            .decisions()
            .into_iter()
            .filter(|(_, p, _)| self.is_correct(*p))
            .collect();
        if let Some((_, p0, v0)) = decisions.first() {
            for (_, p, v) in &decisions[1..] {
                if v != v0 {
                    violations.push(Violation::Disagreement {
                        a: (*p0, v0.clone()),
                        b: (*p, v.clone()),
                    });
                }
            }
        }

        // Decision stability: a duplicate decide with a different value.
        let firsts: BTreeMap<ProcessId, Value> =
            decisions.iter().map(|(_, p, v)| (*p, v.clone())).collect();
        for (_, p, v) in trace.duplicate_decisions() {
            if self.is_correct(p) && firsts.get(&p).is_some_and(|first| *first != v) {
                violations.push(Violation::ChangedDecision { process: p });
            }
        }

        // Validity applies only to all-correct executions (§2.2).
        if self.byzantine.is_empty() {
            if let Some((_, _, decided)) = decisions.first() {
                if !self.inputs.values().any(|input| input == decided) {
                    violations.push(Violation::InventedValue {
                        value: decided.clone(),
                    });
                }
                let mut distinct: Vec<&Value> = self.inputs.values().collect();
                distinct.dedup();
                if distinct.len() == 1 && distinct[0] != decided {
                    violations.push(Violation::NonUnanimousDecision {
                        expected: distinct[0].clone(),
                        actual: decided.clone(),
                    });
                }
            }
        }

        violations
    }

    /// Checks **liveness**: every correct process decided by `deadline`.
    pub fn check_liveness(&self, trace: &Trace, deadline: SimTime) -> Vec<Violation> {
        let decided: Vec<ProcessId> = trace.decisions().iter().map(|(_, p, _)| *p).collect();
        self.inputs
            .keys()
            .filter(|p| self.is_correct(**p))
            .filter(|p| !decided.contains(p))
            .map(|p| Violation::Undecided {
                process: *p,
                deadline,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn inputs(n: u32) -> Vec<(ProcessId, Value)> {
        (1..=n)
            .map(|i| (ProcessId(i), Value::from_u64(i as u64)))
            .collect()
    }

    fn trace_with_decisions(ds: &[(u32, u64)]) -> Trace {
        let mut t = Trace::new();
        for (p, v) in ds {
            t.push(
                SimTime(100),
                TraceEvent::Decide {
                    process: ProcessId(*p),
                    value: Value::from_u64(*v),
                },
            );
        }
        t
    }

    #[test]
    fn agreement_ok() {
        let checker = ConsensusChecker::new(inputs(3));
        let t = trace_with_decisions(&[(1, 2), (2, 2), (3, 2)]);
        assert!(checker.check_safety(&t).is_empty());
        assert!(checker.check_liveness(&t, SimTime(200)).is_empty());
    }

    #[test]
    fn disagreement_detected() {
        let checker = ConsensusChecker::new(inputs(3));
        let t = trace_with_decisions(&[(1, 2), (2, 3)]);
        let v = checker.check_safety(&t);
        assert!(matches!(v.as_slice(), [Violation::Disagreement { .. }]));
    }

    #[test]
    fn byzantine_decisions_ignored() {
        let checker = ConsensusChecker::new(inputs(3)).with_byzantine(ProcessId(2));
        let t = trace_with_decisions(&[(1, 2), (2, 99)]);
        assert!(checker.check_safety(&t).is_empty());
    }

    #[test]
    fn invented_value_detected_when_all_correct() {
        let checker = ConsensusChecker::new(inputs(3));
        let t = trace_with_decisions(&[(1, 42)]);
        let v = checker.check_safety(&t);
        assert!(matches!(v.as_slice(), [Violation::InventedValue { .. }]));
    }

    #[test]
    fn invented_value_allowed_with_byzantine_present() {
        // Extended validity only constrains all-correct executions.
        let checker = ConsensusChecker::new(inputs(3)).with_byzantine(ProcessId(3));
        let t = trace_with_decisions(&[(1, 42)]);
        assert!(checker.check_safety(&t).is_empty());
    }

    #[test]
    fn weak_validity_checked_on_unanimity() {
        let unanimous: Vec<_> = (1..=3)
            .map(|i| (ProcessId(i), Value::from_u64(5)))
            .collect();
        let checker = ConsensusChecker::new(unanimous);
        let bad = trace_with_decisions(&[(1, 5), (2, 5), (3, 6)]);
        let v = checker.check_safety(&bad);
        // p3 both disagrees and (as first-differing value) is non-unanimous.
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::Disagreement { .. })));
    }

    #[test]
    fn changed_decision_detected() {
        let checker = ConsensusChecker::new(inputs(2));
        let mut t = trace_with_decisions(&[(1, 1)]);
        t.push(
            SimTime(150),
            TraceEvent::DuplicateDecide {
                process: ProcessId(1),
                value: Value::from_u64(9),
            },
        );
        let v = checker.check_safety(&t);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ChangedDecision { .. })));
        // Re-deciding the same value is benign.
        let mut t2 = trace_with_decisions(&[(1, 1)]);
        t2.push(
            SimTime(150),
            TraceEvent::DuplicateDecide {
                process: ProcessId(1),
                value: Value::from_u64(1),
            },
        );
        assert!(checker.check_safety(&t2).is_empty());
    }

    #[test]
    fn liveness_detects_undecided() {
        let checker = ConsensusChecker::new(inputs(3));
        let t = trace_with_decisions(&[(1, 1)]);
        let v = checker.check_liveness(&t, SimTime(500));
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| matches!(x, Violation::Undecided { .. })));
    }

    #[test]
    fn violations_display() {
        for v in [
            Violation::Disagreement {
                a: (ProcessId(1), Value::from_u64(0)),
                b: (ProcessId(2), Value::from_u64(1)),
            },
            Violation::ChangedDecision {
                process: ProcessId(1),
            },
            Violation::InventedValue {
                value: Value::from_u64(3),
            },
            Violation::NonUnanimousDecision {
                expected: Value::from_u64(1),
                actual: Value::from_u64(2),
            },
            Violation::Undecided {
                process: ProcessId(4),
                deadline: SimTime(9),
            },
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
