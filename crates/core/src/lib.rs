//! Fast Byzantine consensus with optimal resilience `n = 3f + 2t − 1`.
//!
//! A complete implementation of the protocol from *"Revisiting Optimal
//! Resilience of Fast Byzantine Consensus"* (Petr Kuznetsov, Andrei Tonkikh,
//! Yan X Zhang — PODC 2021, arXiv:2102.12825):
//!
//! * the **vanilla protocol** (§3): `n ≥ 5f − 1` processes, decisions in two
//!   message delays whenever the leader is correct — obtained here as the
//!   generalized protocol with `t = f`;
//! * the **generalized protocol** (Appendix A): `n ≥ 3f + 2t − 1`, fast
//!   (two-delay) decisions while at most `t` processes are faulty, plus a
//!   PBFT-like slow path (three delays) for up to `f` faults;
//! * the **two-phase view change** (§3.2) with the selection algorithm,
//!   equivocation-evidence handling and *bounded* progress certificates —
//!   the paper's key mechanism (`f + 1` CertAck signatures instead of
//!   ever-growing vote sets);
//! * a **view synchronizer** satisfying the three properties the paper
//!   requires of it (§3).
//!
//! Headline configuration: `f = t = 1` runs on **4 processes** — optimal for
//! any partially synchronous Byzantine consensus — and still decides in two
//! message delays with one faulty process, where FaB Paxos needs 6.
//!
//! # Quick start
//!
//! ```
//! use fastbft_core::cluster::SimCluster;
//! use fastbft_types::{Config, Value};
//!
//! let cfg = Config::new(4, 1, 1)?;
//! let mut cluster = SimCluster::builder(cfg).inputs_u64([7, 7, 7, 7]).build();
//! let report = cluster.run_until_all_decide();
//! assert_eq!(report.unanimous_decision(), Some(Value::from_u64(7)));
//! assert_eq!(report.decision_delays_max(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Crate layout
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`replica`] | §3.1, A.1 | the per-process state machine (fast + slow path, view change): one record per view, one place per sender in it |
//! | [`selection`] | §3.2, A.2 | the selection algorithm as a pure function |
//! | [`sync`] | §3 | the wish/enter view synchronizer, the doubling view timer and the decide rule, shared with the baselines |
//! | [`certs`] | §3.2, A | votes, bounded progress certificates, commit certificates |
//! | [`message`] | Fig. 1, 5 | the message vocabulary |
//! | [`payload`] | §3.1–3.2 | canonical bytes for every signed statement, each bound to its view and instance |
//! | [`byzantine`] | §2.1 | the Byzantine move alphabet and its interpreter over an honest replica |
//! | [`cluster`] | — | the simulated-cluster harness used by tests/experiments |
//! | [`lower_bound`] | §4 | the executable lower-bound construction (Fig. 2–4) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod certs;
pub mod cluster;
pub mod lower_bound;
pub mod message;
pub mod payload;
pub mod replica;
pub mod selection;
pub mod sync;
pub mod theory;

pub use certs::{CommitCert, ProgressCert, SignedVote, Vote, VoteData};
pub use cluster::{Behavior, Report, SimCluster, SimClusterBuilder};
pub use message::Message;
pub use replica::{CommitPath, Replica, ReplicaOptions};
pub use selection::{select, Outcome, Rationale, SelectionError, SelectionResult};
