//! System configuration `(n, f, t)` and quorum arithmetic.
//!
//! Every threshold the paper uses is defined here exactly once, with unit
//! tests re-deriving the pigeonhole arguments (QI1)–(QI3) of Section 3.3 and
//! the Appendix A intersection bounds for a sweep of valid configurations.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ProcessId, View};

/// Error returned when constructing an invalid [`Config`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `n` was below the protocol's resilience bound.
    TooFewProcesses {
        /// Requested system size.
        n: usize,
        /// Minimum size for the requested `(f, t)`.
        required: usize,
    },
    /// `t` must satisfy `1 ≤ t ≤ f`.
    InvalidThreshold {
        /// Requested fast-path fault threshold.
        t: usize,
        /// Requested resilience.
        f: usize,
    },
    /// `f` must be at least 1 (the `f = 0` case is trivial; see §4.1).
    ZeroResilience,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewProcesses { n, required } => {
                write!(
                    f,
                    "n = {n} processes is below the bound (need n >= {required})"
                )
            }
            ConfigError::InvalidThreshold { t, f: ff } => {
                write!(
                    f,
                    "fast-path threshold t = {t} must satisfy 1 <= t <= f = {ff}"
                )
            }
            ConfigError::ZeroResilience => write!(f, "resilience f must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// System parameters: `n` processes tolerating `f` Byzantine failures,
/// remaining *fast* (two-step) while at most `t ≤ f` processes are faulty.
///
/// The paper's two protocol flavors are both captured:
///
/// * **vanilla** (`t = f`): `n ≥ 5f − 1` — [`Config::vanilla`];
/// * **generalized**: `n ≥ 3f + 2t − 1` — [`Config::new`].
///
/// ```
/// use fastbft_types::Config;
///
/// // The headline result: f = t = 1 needs only n = 4.
/// assert!(Config::new(4, 1, 1).is_ok());
/// assert!(Config::new(3, 1, 1).is_err());
///
/// // Vanilla 5f - 1: f = 2 needs 9.
/// assert_eq!(Config::vanilla(9, 2).unwrap().t(), 2);
/// assert!(Config::vanilla(8, 2).is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Config {
    n: usize,
    f: usize,
    t: usize,
    /// The consensus instance these parameters run (default 0): the log
    /// slot an SMR layer opened. It rotates the leader map and is part of
    /// every signed statement; see [`Config::with_instance`].
    #[serde(default)]
    instance: u64,
    /// See [`Config::with_first_leader_offset`].
    #[serde(default)]
    leader_offset: u64,
}

impl Config {
    /// Minimum number of processes for the generalized protocol:
    /// `max(3f + 2t − 1, 3f + 1)`.
    ///
    /// The `3f + 1` floor is the classic partially-synchronous Byzantine
    /// consensus bound (§4.4 notes resilience is
    /// `n = max{3f + 2t − 1, 3f + 1}`); for `t ≥ 1` the two coincide except
    /// at `t = 1`, where `3f + 2t − 1 = 3f + 1` anyway.
    pub fn min_n(f: usize, t: usize) -> usize {
        (3 * f + 2 * t).saturating_sub(1).max(3 * f + 1)
    }

    /// Creates a configuration for the generalized protocol.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroResilience`] if `f = 0`;
    /// * [`ConfigError::InvalidThreshold`] unless `1 ≤ t ≤ f`;
    /// * [`ConfigError::TooFewProcesses`] if `n < max(3f + 2t − 1, 3f + 1)`.
    pub fn new(n: usize, f: usize, t: usize) -> Result<Self, ConfigError> {
        if f == 0 {
            return Err(ConfigError::ZeroResilience);
        }
        if t == 0 || t > f {
            return Err(ConfigError::InvalidThreshold { t, f });
        }
        let required = Self::min_n(f, t);
        if n < required {
            return Err(ConfigError::TooFewProcesses { n, required });
        }
        Ok(Config::new_unchecked(n, f, t))
    }

    /// Creates a configuration for the vanilla protocol (`t = f`,
    /// `n ≥ 5f − 1`).
    ///
    /// # Errors
    ///
    /// Same as [`Config::new`] with `t = f`.
    pub fn vanilla(n: usize, f: usize) -> Result<Self, ConfigError> {
        Config::new(n, f, f)
    }

    /// The smallest valid configuration for given `(f, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `f = 0` or `t` is outside `1..=f`.
    pub fn minimal(f: usize, t: usize) -> Self {
        Config::new(Self::min_n(f, t), f, t).expect("minimal n is valid by construction")
    }

    /// Builds a configuration **without** checking the resilience bound.
    ///
    /// This exists for the lower-bound experiments (E4), which
    /// deliberately instantiate the protocol on `n = 3f + 2t − 2` processes
    /// to demonstrate that the adversary of Section 4 forces disagreement,
    /// and for [`ProtocolKind::config`], which checks the baselines' own
    /// bounds before calling it. Never use it for anything meant to be safe.
    pub fn new_unchecked(n: usize, f: usize, t: usize) -> Self {
        Config {
            n,
            f,
            t,
            instance: 0,
            leader_offset: 0,
        }
    }

    /// Returns a copy for consensus instance `instance` — the log slot of an
    /// instance the SMR layer opens. Two things follow from it:
    ///
    /// * the leader map is rotated by it,
    ///   `leader(v) = p_{((v + instance) mod n) + 1}`, so every process gets
    ///   to be the initial leader of some slots (command fairness);
    /// * every statement a replica signs or checks names it
    ///   (`fastbft_core::payload`), so evidence from one slot never verifies
    ///   in another.
    ///
    /// All replicas of one instance must use the same value. Single-instance
    /// deployments leave it at the default 0, which is exactly the paper's
    /// leader map.
    #[must_use]
    pub fn with_instance(mut self, instance: u64) -> Self {
        self.instance = instance;
        self
    }

    /// Returns a copy whose leader map starts `offset` seats further on
    /// (default 0): the SMR layer's agreed leader schedule, set per slot.
    #[must_use]
    pub fn with_first_leader_offset(mut self, offset: u64) -> Self {
        self.leader_offset = offset;
        self
    }

    /// The consensus instance (see [`Config::with_instance`]): the log slot
    /// of an instance the SMR layer opened, 0 for a single instance.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Number of processes `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resilience `f`: maximum number of Byzantine processes tolerated.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Fast-path threshold `t`: the protocol decides in two message delays
    /// while at most `t` processes are faulty.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Whether this is a vanilla (`t = f`) configuration.
    pub fn is_vanilla(&self) -> bool {
        self.t == self.f
    }

    // -- quorum thresholds ---------------------------------------------------

    /// `n − f`: votes the new leader collects during view change; also the
    /// ack quorum of the vanilla protocol (where `t = f`).
    pub fn vote_quorum(&self) -> usize {
        self.n - self.f
    }

    /// `n − t`: acks needed for the **fast path** decision (two delays).
    pub fn fast_quorum(&self) -> usize {
        self.n - self.t
    }

    /// `⌈(n + f + 1) / 2⌉`: signature shares forming a commit certificate and
    /// `Commit` messages needed to decide on the **slow path** (Appendix A).
    pub fn slow_quorum(&self) -> usize {
        (self.n + self.f + 1).div_ceil(2)
    }

    /// `f + 1`: CertAck signatures forming a progress certificate (§3.2).
    pub fn cert_quorum(&self) -> usize {
        self.f + 1
    }

    /// `2f + 1`: processes the leader asks to confirm its selection (§3.2).
    pub fn cert_request_targets(&self) -> usize {
        2 * self.f + 1
    }

    /// `f + t`: votes for a single value that force its selection after the
    /// leader of view `w` is proved to have equivocated (Appendix A case 2).
    /// In the vanilla protocol this is the paper's `2f` (§3.2 case 1).
    pub fn selection_quorum(&self) -> usize {
        self.f + self.t
    }

    /// Number of correct processes guaranteed: `n − f`.
    pub fn correct(&self) -> usize {
        self.n - self.f
    }

    // -- leader map -----------------------------------------------------------

    /// The paper's round-robin leader map, `leader(v) = p_{(v mod n) + 1}` —
    /// so `leader(1) = p_2`, which every experiment reads through this call
    /// — shifted by the instance and the first-leader offset.
    ///
    /// ```
    /// use fastbft_types::{Config, View, ProcessId};
    /// let cfg = Config::new(4, 1, 1).unwrap();
    /// assert_eq!(cfg.leader(View(1)), ProcessId(2));
    /// assert_eq!(cfg.leader(View(4)), ProcessId(1));
    /// ```
    pub fn leader(&self, view: View) -> ProcessId {
        let shift = self.instance.wrapping_add(self.leader_offset);
        ProcessId((view.0.wrapping_add(shift) % self.n as u64) as u32 + 1)
    }

    /// Iterator over all process ids `p1 ..= pn`.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + Clone {
        ProcessId::all(self.n)
    }

    // -- quorum-intersection sanity (used by tests and the checker) ----------

    /// (QI1) Any two `n − f` quorums intersect in ≥ `f + 1` processes, hence
    /// in at least one correct process. Returns the guaranteed intersection.
    pub fn qi1_intersection(&self) -> isize {
        2 * (self.vote_quorum() as isize) - self.n as isize
    }

    /// (QI2) An `n − f` quorum and an `n − f` quorum containing at most
    /// `f − 1` Byzantine processes intersect in ≥ `2f` correct processes.
    /// Returns `2(n−f) − n − (f−1)`, which must be ≥ `2f` (i.e. `n ≥ 5f−1`)
    /// for the vanilla protocol.
    pub fn qi2_correct_intersection(&self) -> isize {
        2 * (self.vote_quorum() as isize) - self.n as isize - (self.f as isize - 1)
    }

    /// (QI3) An `n − f` quorum and a `2f`-set with ≤ `f − 1` Byzantine
    /// members intersect in at least one correct process for any `n ≥ 2f`.
    pub fn qi3_correct_intersection(&self) -> isize {
        (self.vote_quorum() + 2 * self.f) as isize - self.n as isize - (self.f as isize - 1)
    }
}

impl fmt::Display for Config {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fmt, "(n={}, f={}, t={})", self.n, self.f, self.t)
    }
}

/// The protocols compared throughout the experiments, with their published
/// resilience, the [`Config`] each runs at and its common-case latency.
/// `fastbft_baselines::run` runs a protocol by its kind, and the facade's
/// `protocol_table` example (experiments E5, E6 and E12) runs every kind at
/// its minimum `n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// This paper's protocol: `n = max(3f + 2t − 1, 3f + 1)`, 2 delays.
    Ktz,
    /// FaB Paxos (Martin & Alvisi): `n = 3f + 2t + 1`, 2 delays.
    FabPaxos,
    /// PBFT (Castro & Liskov): `n = 3f + 1`, 3 delays.
    Pbft,
}

impl ProtocolKind {
    /// Minimum number of processes to tolerate `f` faults while staying fast
    /// with up to `t` actual faults (`t` is ignored for PBFT, which has no
    /// fast path).
    pub fn min_n(self, f: usize, t: usize) -> usize {
        match self {
            ProtocolKind::Ktz => Config::min_n(f, t),
            ProtocolKind::FabPaxos => 3 * f + 2 * t + 1,
            ProtocolKind::Pbft => 3 * f + 1,
        }
    }

    /// The configuration this protocol runs `n` processes at, refused below
    /// [`ProtocolKind::min_n`]. This paper's protocol is [`Config::new`];
    /// FaB checks the same thresholds against its own bound `3f + 2t + 1`;
    /// PBFT has no fast path, so `t` is neither checked nor read by its
    /// replica.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroResilience`] if `f = 0`;
    /// * [`ConfigError::InvalidThreshold`] unless `1 ≤ t ≤ f` (not for PBFT);
    /// * [`ConfigError::TooFewProcesses`] if `n < self.min_n(f, t)`.
    pub fn config(self, n: usize, f: usize, t: usize) -> Result<Config, ConfigError> {
        if self == ProtocolKind::Ktz {
            return Config::new(n, f, t);
        }
        if f == 0 {
            return Err(ConfigError::ZeroResilience);
        }
        if self == ProtocolKind::FabPaxos && (t == 0 || t > f) {
            return Err(ConfigError::InvalidThreshold { t, f });
        }
        let required = self.min_n(f, t);
        if n < required {
            return Err(ConfigError::TooFewProcesses { n, required });
        }
        Ok(Config::new_unchecked(n, f, t))
    }

    /// Common-case decision latency in message delays.
    pub fn common_case_delays(self) -> usize {
        match self {
            ProtocolKind::Ktz | ProtocolKind::FabPaxos => 2,
            ProtocolKind::Pbft => 3,
        }
    }

    /// Human-readable protocol name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Ktz => "KTZ21 (this paper)",
            ProtocolKind::FabPaxos => "FaB Paxos",
            ProtocolKind::Pbft => "PBFT",
        }
    }

    /// All compared protocols.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Ktz,
        ProtocolKind::FabPaxos,
        ProtocolKind::Pbft,
    ];
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_result_four_processes() {
        // f = t = 1: 4 processes, optimal for any PS Byzantine consensus.
        let cfg = Config::new(4, 1, 1).unwrap();
        assert_eq!(cfg.vote_quorum(), 3);
        assert_eq!(cfg.fast_quorum(), 3);
        assert_eq!(cfg.slow_quorum(), 3);
        assert_eq!(cfg.cert_quorum(), 2);
        assert_eq!(cfg.selection_quorum(), 2);
        // FaB needs 6 for the same guarantee.
        assert_eq!(ProtocolKind::FabPaxos.min_n(1, 1), 6);
    }

    #[test]
    fn vanilla_is_five_f_minus_one() {
        for f in 1..=10 {
            let n = 5 * f - 1;
            let cfg = Config::vanilla(n.max(3 * f + 1), f).unwrap();
            assert!(cfg.is_vanilla());
            // For f >= 1, 5f-1 >= 3f+1 iff f >= 1.
            assert_eq!(Config::min_n(f, f), 5 * f - 1);
            // The vanilla selection threshold is the paper's 2f.
            assert_eq!(cfg.selection_quorum(), 2 * f);
        }
    }

    #[test]
    fn rejects_sub_bound_configurations() {
        assert_eq!(
            Config::new(3, 1, 1),
            Err(ConfigError::TooFewProcesses { n: 3, required: 4 })
        );
        assert_eq!(
            Config::vanilla(8, 2),
            Err(ConfigError::TooFewProcesses { n: 8, required: 9 })
        );
        assert_eq!(Config::new(10, 0, 0), Err(ConfigError::ZeroResilience));
        assert_eq!(
            Config::new(10, 2, 3),
            Err(ConfigError::InvalidThreshold { t: 3, f: 2 })
        );
        assert_eq!(
            Config::new(10, 2, 0),
            Err(ConfigError::InvalidThreshold { t: 0, f: 2 })
        );
    }

    #[test]
    fn unchecked_allows_sub_bound() {
        let cfg = Config::new_unchecked(8, 2, 2); // 3f+2t-2: the attack size
        assert_eq!(cfg.n(), 8);
        assert_eq!(cfg.fast_quorum(), 6);
    }

    /// Re-derive (QI1): any two (n−f)-quorums share a correct process.
    #[test]
    fn qi1_holds_for_all_valid_configs() {
        for f in 1..=6 {
            for t in 1..=f {
                for extra in 0..4 {
                    let cfg = Config::new(Config::min_n(f, t) + extra, f, t).unwrap();
                    assert!(
                        cfg.qi1_intersection() > cfg.f() as isize,
                        "QI1 fails for {cfg}"
                    );
                }
            }
        }
    }

    /// Re-derive (QI2) for vanilla configs: intersection has ≥ 2f correct.
    #[test]
    fn qi2_holds_for_vanilla_configs() {
        for f in 1..=8 {
            let cfg = Config::minimal(f, f);
            assert!(
                cfg.qi2_correct_intersection() >= 2 * f as isize,
                "QI2 fails for {cfg}"
            );
        }
        // And fails one process below the bound, as the paper's tightness
        // argument requires.
        for f in 2..=8 {
            let cfg = Config::new_unchecked(5 * f - 2, f, f);
            assert!(cfg.qi2_correct_intersection() < 2 * f as isize);
        }
    }

    /// Re-derive (QI3): holds for any n ≥ 2f.
    #[test]
    fn qi3_holds_for_all_valid_configs() {
        for f in 1..=6 {
            for t in 1..=f {
                let cfg = Config::minimal(f, t);
                assert!(cfg.qi3_correct_intersection() >= 1, "QI3 fails for {cfg}");
            }
        }
    }

    /// Appendix A: an (n−f)-quorum and an (n−t)-quorum intersect in at least
    /// (f−1) + (f+t) processes, i.e. ≥ f+t correct ones.
    #[test]
    fn appendix_a_fast_vote_intersection() {
        for f in 1..=6 {
            for t in 1..=f {
                let cfg = Config::minimal(f, t);
                let inter = (cfg.vote_quorum() + cfg.fast_quorum()) as isize - cfg.n() as isize;
                assert!(
                    inter >= (cfg.f() as isize - 1) + cfg.selection_quorum() as isize,
                    "fast/vote intersection too small for {cfg}"
                );
            }
        }
    }

    /// Appendix A: two slow quorums intersect in a correct process, and a
    /// slow quorum intersects any fast quorum in a correct process.
    #[test]
    fn slow_quorum_intersections() {
        for f in 1..=6 {
            for t in 1..=f {
                for extra in 0..3 {
                    let cfg = Config::new(Config::min_n(f, t) + extra, f, t).unwrap();
                    let s = cfg.slow_quorum() as isize;
                    let n = cfg.n() as isize;
                    let ff = cfg.f() as isize;
                    assert!(2 * s - n > ff, "slow/slow intersection for {cfg}");
                    let fast = cfg.fast_quorum() as isize;
                    assert!(s + fast - n > ff, "slow/fast intersection for {cfg}");
                }
            }
        }
    }

    #[test]
    fn leader_is_round_robin() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let leaders: Vec<_> = (1..=8).map(|v| cfg.leader(View(v)).0).collect();
        assert_eq!(leaders, vec![2, 3, 4, 1, 2, 3, 4, 1]);
        // Every process leads infinitely often (property 2 of view sync).
        for p in cfg.processes() {
            assert!((1..=4u64).any(|v| cfg.leader(View(v)) == p));
        }
    }

    #[test]
    fn protocol_kind_table_matches_paper() {
        // §1.2: f = t = 1 — ours needs 4, previous protocols 6.
        assert_eq!(ProtocolKind::Ktz.min_n(1, 1), 4);
        assert_eq!(ProtocolKind::FabPaxos.min_n(1, 1), 6);
        assert_eq!(ProtocolKind::Pbft.min_n(1, 0), 4);
        // §1.1: ours and FaB are two-step; PBFT three-step.
        assert_eq!(ProtocolKind::Ktz.common_case_delays(), 2);
        assert_eq!(ProtocolKind::FabPaxos.common_case_delays(), 2);
        assert_eq!(ProtocolKind::Pbft.common_case_delays(), 3);
        // Vanilla: 5f−1 vs FaB's 5f+1.
        for f in 1..=5 {
            assert_eq!(
                ProtocolKind::Ktz.min_n(f, f) + 2,
                ProtocolKind::FabPaxos.min_n(f, f)
            );
        }
    }

    /// Every protocol's bound at its edge: `min_n` is accepted and one
    /// process fewer is refused, naming `min_n`.
    #[test]
    fn every_protocol_config_is_refused_one_below_its_bound() {
        let sizes = [
            (ProtocolKind::Ktz, [4, 7, 9]),
            (ProtocolKind::FabPaxos, [6, 9, 11]),
            (ProtocolKind::Pbft, [4, 7, 7]),
        ];
        for (kind, sizes) in sizes {
            for ((f, t), n) in [(1, 1), (2, 1), (2, 2)].into_iter().zip(sizes) {
                assert_eq!(kind.min_n(f, t), n, "{kind} at f = {f}, t = {t}");
                let cfg = kind.config(n, f, t).unwrap();
                assert_eq!((cfg.n(), cfg.f(), cfg.t()), (n, f, t));
                assert_eq!(
                    kind.config(n - 1, f, t),
                    Err(ConfigError::TooFewProcesses {
                        n: n - 1,
                        required: n
                    }),
                    "{kind} at f = {f}, t = {t}"
                );
            }
        }
        let fab = ProtocolKind::FabPaxos;
        assert_eq!(
            fab.config(11, 2, 3),
            Err(ConfigError::InvalidThreshold { t: 3, f: 2 })
        );
        assert_eq!(fab.config(6, 0, 0), Err(ConfigError::ZeroResilience));
        assert_eq!(
            ProtocolKind::Pbft.config(6, 0, 1),
            Err(ConfigError::ZeroResilience)
        );
    }

    #[test]
    fn display_formats() {
        let cfg = Config::new(9, 2, 2).unwrap();
        assert_eq!(cfg.to_string(), "(n=9, f=2, t=2)");
        assert!(!ProtocolKind::Ktz.to_string().is_empty());
        assert!(ConfigError::ZeroResilience.to_string().contains('f'));
    }
}
