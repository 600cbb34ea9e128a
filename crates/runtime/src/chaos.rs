//! The chaos scheduler: named, timed scripts of [`FaultPlan`] mutations,
//! plus the degradation contract each scenario promises.
//!
//! A [`Scenario`] is data, not behavior: a list of [`ChaosStep`]s (at
//! `t = at`, apply this mutation), the worst one-way delay it injects,
//! and a [`PathExpectation`] saying how the commit path should degrade.
//! [`run_scenario`] plays the script against the cluster's shared plan —
//! steps due at once before it returns, later ones on a background thread —
//! while the harness drives load; the test then checks the three
//! graceful-degradation properties:
//!
//! 1. **Safety, always** — all logs agree, faulted or not.
//! 2. **Liveness after heal** — commits resume within a bounded window
//!    (see [`Scenario::recovery_window`]) once the plan heals: every slot
//!    is a fresh instance that starts from the base timeout, so backoff
//!    climbed during the fault is confined to the slots that were open.
//! 3. **Path attribution** — while the fast quorum is unreachable,
//!    commits show up on the *slow* path in the metrics plane, exactly as
//!    the paper's generalized protocol (t < f) promises.
//!
//! # Deriving timeouts instead of hand-tuning them
//!
//! Scenarios that inject delay publish it ([`Scenario::timeout_covers`]),
//! and harnesses call [`Scenario::base_timeout_ticks`] to size the
//! replicas' view-1 timeout so that *intended* survivable delay never
//! masquerades as a dead leader — replacing the magic `base_timeout`
//! constants that made earlier slow-link tests fragile. A scenario that
//! *wants* view changes (a partition, a delay beyond any reasonable
//! timer) publishes `timeout_covers = 0` and lets the default floor
//! apply.
//!
//! # Scenario catalog
//!
//! | name | script | expectation |
//! |---|---|---|
//! | `delay-the-leader` | delay one node's outbound beyond the view timer, then heal | [`FastRecovers`](PathExpectation::FastRecovers) |
//! | `partition-the-fast-quorum` | isolate `t + 1` replicas so `n − t` acks cannot assemble, then heal | [`SlowWhileFaulted`](PathExpectation::SlowWhileFaulted) (or stall when `n − t − 1` is below the slow/vote quorum) |
//! | `flapping-link` | cut one link, restore it, repeat | [`FastRecovers`](PathExpectation::FastRecovers) |
//! | `slow-follower` | delay one node both ways, within derived timeouts | [`FastRecovers`](PathExpectation::FastRecovers) |
//! | `asymmetric-wan` | permanent intra/cross-region delay matrix | [`FastRecovers`](PathExpectation::FastRecovers) |

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fastbft_obs::MetricsHandle;
use fastbft_types::{Config, ProcessId};

use crate::faults::{FaultPlan, LinkProfile};

/// One timed mutation in a chaos script.
pub struct ChaosStep {
    /// Offset from scenario start at which the mutation applies.
    pub at: Duration,
    /// Human-readable label, surfaced in the flight recorder.
    pub label: &'static str,
    apply: Box<dyn FnOnce(&FaultPlan) + Send>,
}

impl ChaosStep {
    /// A step applying `apply` at `at` after scenario start.
    pub fn new(
        at: Duration,
        label: &'static str,
        apply: impl FnOnce(&FaultPlan) + Send + 'static,
    ) -> Self {
        ChaosStep {
            at,
            label,
            apply: Box::new(apply),
        }
    }
}

impl std::fmt::Debug for ChaosStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosStep")
            .field("at", &self.at)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// How the commit path is expected to degrade under a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathExpectation {
    /// The fast path survives (or resumes right after heal): fast-path
    /// commits must be observed after the script completes.
    FastRecovers,
    /// The fast quorum is unreachable while the fault holds: commits
    /// during the fault window must be predominantly slow-path, and the
    /// fast path must resume after heal.
    SlowWhileFaulted,
    /// Too few replicas are reachable for *any* quorum: a full stall is
    /// acceptable during the fault; liveness and the fast path must
    /// return after heal.
    StallAllowed,
}

/// A named chaos scenario: a timed script plus its degradation contract.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario name.
    pub name: &'static str,
    /// The script, in any order; [`run_scenario`] sorts by offset.
    pub steps: Vec<ChaosStep>,
    /// When the script has healed every fault it injected (`None` for
    /// scenarios whose shaping is permanent, like `asymmetric-wan`).
    pub heal_at: Option<Duration>,
    /// Worst one-way delay the script injects at any point — used to size
    /// the post-heal recovery window.
    pub max_delay: Duration,
    /// The one-way delay the replicas' view timer must *survive* (zero
    /// when the scenario wants view changes to fire).
    pub timeout_covers: Duration,
    /// The degradation contract the harness asserts.
    pub expectation: PathExpectation,
    /// Whether the script must inject at least one delay (asserted via
    /// [`FaultPlan::injected_delays`]).
    pub injects_delays: bool,
    /// Whether the script must inject at least one probabilistic drop.
    pub injects_drops: bool,
    /// Whether the script must drop at least one delivery on a hard
    /// partition.
    pub injects_partitions: bool,
}

impl Scenario {
    /// The view-1 timeout, in runtime ticks, that keeps this scenario's
    /// *intended* delays below the view timer: `floor_ticks` (the
    /// no-fault baseline) plus four times [`timeout_covers`]
    /// (round trip, both legs shaped, with 2× margin), derived — never
    /// hand-tuned per test.
    ///
    /// [`timeout_covers`]: Scenario::timeout_covers
    pub fn base_timeout_ticks(&self, tick: Duration, floor_ticks: u64) -> u64 {
        let cover = self.timeout_covers.as_nanos().saturating_mul(4);
        let per_tick = tick.as_nanos().max(1);
        floor_ticks + u64::try_from(cover.div_ceil(per_tick)).unwrap_or(u64::MAX)
    }

    /// How long after heal the cluster must be fully live again. Covers
    /// the view synchronizer's exponential backoff climbing, in the slots
    /// open while the fault held (bounded by the exponent cap; later slots
    /// start from the base timeout), plus residual in-flight shaped
    /// deliveries.
    pub fn recovery_window(&self, base_timeout: Duration) -> Duration {
        (base_timeout * 32 + self.max_delay * 4).max(Duration::from_secs(5))
    }

    /// `unreachable-peer`: one process is dead to the network for the
    /// whole run — kernel-level blackhole, died without closing, or
    /// firewalled. The fault lives *below* the plan (no deliveries are
    /// shaped; the plan stays transparent), so the scenario carries no
    /// steps: it exists so harnesses that stage the fault themselves
    /// still derive their view-1 timeout and recovery budget from the
    /// scenario ([`base_timeout_ticks`], [`recovery_window`]) instead of
    /// hand-tuned constants. `timeout_covers` is zero — a blackhole adds
    /// no latency to the *live* links.
    ///
    /// [`base_timeout_ticks`]: Scenario::base_timeout_ticks
    /// [`recovery_window`]: Scenario::recovery_window
    pub fn unreachable_peer(_victim: ProcessId) -> Self {
        Scenario {
            name: "unreachable-peer",
            steps: Vec::new(),
            heal_at: None,
            max_delay: Duration::ZERO,
            timeout_covers: Duration::ZERO,
            expectation: PathExpectation::FastRecovers,
            injects_delays: false,
            injects_drops: false,
            injects_partitions: false,
        }
    }

    /// `delay-the-leader`: from `t = 0`, everything `victim` *sends* is
    /// delayed by `delay ± jitter` — long past any reasonable view timer,
    /// so slots led by the victim fail over to the next leader — healed
    /// at `hold`.
    pub fn delay_the_leader(
        victim: ProcessId,
        delay: Duration,
        jitter: Duration,
        hold: Duration,
    ) -> Self {
        Scenario {
            name: "delay-the-leader",
            steps: vec![
                ChaosStep::new(Duration::ZERO, "delay leader outbound", move |plan| {
                    plan.set_outbound(victim, LinkProfile::delayed(delay, jitter));
                }),
                ChaosStep::new(hold, "heal leader", move |plan| {
                    plan.heal_node(victim);
                }),
            ],
            heal_at: Some(hold),
            max_delay: delay + jitter,
            timeout_covers: Duration::ZERO,
            expectation: PathExpectation::FastRecovers,
            injects_delays: true,
            injects_drops: false,
            injects_partitions: false,
        }
    }

    /// `partition-the-fast-quorum`: isolate the `t + 1` highest-id
    /// replicas at `t = 0` so no node can assemble `n − t` acks, heal at
    /// `hold`. With the survivors still at or above the slow and vote
    /// quorums (e.g. n = 7, f = 2, t = 1) the contract is
    /// [`SlowWhileFaulted`](PathExpectation::SlowWhileFaulted); when even
    /// those quorums are gone (n = 4 vanilla) a stall is the correct
    /// degradation.
    pub fn partition_the_fast_quorum(cfg: &Config, hold: Duration) -> Self {
        let n = cfg.n();
        let isolated: Vec<ProcessId> = (0..=cfg.t())
            .map(|k| ProcessId::from_index(n - 1 - k))
            .collect();
        let survivors = n - isolated.len();
        let expectation = if survivors >= cfg.slow_quorum() && survivors >= cfg.vote_quorum() {
            PathExpectation::SlowWhileFaulted
        } else {
            PathExpectation::StallAllowed
        };
        let cut = isolated.clone();
        Scenario {
            name: "partition-the-fast-quorum",
            steps: vec![
                ChaosStep::new(Duration::ZERO, "isolate fast quorum margin", move |plan| {
                    for node in &cut {
                        plan.isolate(*node);
                    }
                }),
                ChaosStep::new(hold, "heal partition", move |plan| {
                    for node in &isolated {
                        plan.heal_node(*node);
                    }
                }),
            ],
            heal_at: Some(hold),
            max_delay: Duration::ZERO,
            timeout_covers: Duration::ZERO,
            expectation,
            injects_delays: false,
            injects_drops: false,
            injects_partitions: true,
        }
    }

    /// `flapping-link`: the `a ↔ b` link is cut and restored every
    /// `period`, `flaps` times, ending healed. One dead link never breaks
    /// the fast quorum (every node still hears `n − 1 ≥ n − t` peers), so
    /// the fast path must ride through.
    pub fn flapping_link(a: ProcessId, b: ProcessId, period: Duration, flaps: u32) -> Self {
        let mut steps = Vec::new();
        for i in 0..flaps {
            steps.push(ChaosStep::new(period * (2 * i), "cut link", move |plan| {
                plan.set_link_sym(a, b, LinkProfile::cut());
            }));
            steps.push(ChaosStep::new(
                period * (2 * i + 1),
                "restore link",
                move |plan| {
                    plan.clear_link_sym(a, b);
                },
            ));
        }
        let heal = period * (2 * flaps.max(1) - 1);
        Scenario {
            name: "flapping-link",
            steps,
            heal_at: Some(heal),
            max_delay: Duration::ZERO,
            timeout_covers: Duration::ZERO,
            expectation: PathExpectation::FastRecovers,
            injects_delays: false,
            injects_drops: false,
            injects_partitions: true,
        }
    }

    /// `slow-follower`: one replica's links are delayed both directions —
    /// but *within* the derived view timer, so the cluster must keep
    /// committing fast without a single view change, healed at `hold`.
    pub fn slow_follower(
        victim: ProcessId,
        delay: Duration,
        jitter: Duration,
        hold: Duration,
    ) -> Self {
        Scenario {
            name: "slow-follower",
            steps: vec![
                ChaosStep::new(Duration::ZERO, "slow follower links", move |plan| {
                    let profile = LinkProfile::delayed(delay, jitter);
                    plan.set_outbound(victim, profile);
                    plan.set_inbound(victim, profile);
                }),
                ChaosStep::new(hold, "heal follower", move |plan| {
                    plan.heal_node(victim);
                }),
            ],
            heal_at: Some(hold),
            max_delay: delay + jitter,
            timeout_covers: delay + jitter,
            expectation: PathExpectation::FastRecovers,
            injects_delays: true,
            injects_drops: false,
            injects_partitions: false,
        }
    }

    /// `asymmetric-wan`: the first `regions.len()` prefix sums partition
    /// the cluster into regions; links within a region get `intra`
    /// one-way delay, links across regions get `cross`. The shaping is
    /// permanent (`heal_at = None`) — the contract is that with timeouts
    /// *derived* from the profile, the fast path runs at WAN latency.
    pub fn asymmetric_wan(n: usize, regions: &[usize], intra: Duration, cross: Duration) -> Self {
        assert_eq!(
            regions.iter().sum::<usize>(),
            n,
            "region sizes must cover all {n} processes"
        );
        let mut region_of = Vec::with_capacity(n);
        for (r, size) in regions.iter().enumerate() {
            region_of.extend(std::iter::repeat_n(r, *size));
        }
        Scenario {
            name: "asymmetric-wan",
            steps: vec![ChaosStep::new(
                Duration::ZERO,
                "apply wan matrix",
                move |plan| {
                    for i in 0..region_of.len() {
                        for j in 0..region_of.len() {
                            if i == j {
                                continue;
                            }
                            let delay = if region_of[i] == region_of[j] {
                                intra
                            } else {
                                cross
                            };
                            plan.set_link(
                                ProcessId::from_index(i),
                                ProcessId::from_index(j),
                                LinkProfile::delayed(delay, delay / 4),
                            );
                        }
                    }
                },
            )],
            heal_at: None,
            max_delay: cross + cross / 4,
            timeout_covers: cross + cross / 4,
            expectation: PathExpectation::FastRecovers,
            injects_delays: true,
            injects_drops: false,
            injects_partitions: false,
        }
    }

    /// Every scenario in the catalog, parameterized for an `n`-process
    /// cluster committing on roughly `commit_ms`-millisecond cadence —
    /// the suite CI runs on both transports.
    pub fn catalog(cfg: &Config, commit_ms: u64) -> Vec<Scenario> {
        let ms = Duration::from_millis;
        vec![
            Scenario::delay_the_leader(
                ProcessId(1),
                ms(commit_ms * 20),
                ms(commit_ms * 2),
                ms(commit_ms * 40),
            ),
            Scenario::partition_the_fast_quorum(cfg, ms(commit_ms * 40)),
            Scenario::flapping_link(ProcessId(1), ProcessId(2), ms(commit_ms * 10), 3),
            Scenario::slow_follower(
                ProcessId(2),
                ms(commit_ms * 2),
                ms(commit_ms / 2),
                ms(commit_ms * 40),
            ),
            Scenario::asymmetric_wan(
                cfg.n(),
                &wan_regions(cfg.n()),
                ms(1),
                ms(commit_ms.clamp(2, 10)),
            ),
        ]
    }
}

/// A default two-region split for `asymmetric-wan`: the majority region
/// keeps a fast quorum's worth of replicas when possible.
pub fn wan_regions(n: usize) -> Vec<usize> {
    let minority = (n / 3).max(1);
    vec![n - minority, minority]
}

/// A running chaos script (see [`run_scenario`]).
pub struct ChaosRun {
    handle: JoinHandle<u32>,
    abort: Arc<AtomicBool>,
}

impl ChaosRun {
    /// Waits for the script to finish; returns the number of steps
    /// applied.
    pub fn join(self) -> u32 {
        self.handle.join().expect("chaos script thread panicked")
    }

    /// Asks the script to stop before its next step (already-applied
    /// mutations stay in force).
    pub fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }
}

/// Plays `scenario`'s script against `plan`: each step fires at
/// `start + step.at` (steps are sorted by offset) and is logged to
/// `metrics`' flight recorder as a `chaos-step` event. Steps due at
/// `t + 0` are applied before this returns — the load a caller offers next
/// meets the fault, however late the script thread is first scheduled —
/// and the rest on a background thread. The steps are consumed
/// (`scenario.steps` is left empty); the scenario's metadata stays
/// readable for the harness' assertions.
pub fn run_scenario(plan: &FaultPlan, scenario: &mut Scenario, metrics: MetricsHandle) -> ChaosRun {
    let mut steps = std::mem::take(&mut scenario.steps);
    steps.sort_by_key(|s| s.at);
    let later = steps.split_off(steps.partition_point(|s| s.at.is_zero()));
    let name = scenario.name;
    let plan = plan.clone();
    let fire = move |step: ChaosStep| {
        (step.apply)(&plan);
        if let Some(m) = metrics.get() {
            m.recorder.record(
                "chaos-step",
                format!("{name}: {} (t+{:?})", step.label, step.at),
            );
        }
    };
    let start = Instant::now();
    let mut applied = 0;
    for step in steps {
        fire(step);
        applied += 1;
    }
    let abort = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&abort);
    let handle = std::thread::Builder::new()
        .name(format!("chaos-{name}"))
        .spawn(move || {
            for step in later {
                let due = start + step.at;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        return applied;
                    }
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    // Wake at least every 20 ms so aborts stay prompt.
                    std::thread::sleep((due - now).min(Duration::from_millis(20)));
                }
                fire(step);
                applied += 1;
            }
            applied
        })
        .expect("spawn chaos script thread");
    ChaosRun { handle, abort }
}

/// The chaos suite's RNG seed: `FASTBFT_CHAOS_SEED` when set (CI pins
/// it), else `default`.
pub fn chaos_seed_from_env(default: u64) -> u64 {
    std::env::var("FASTBFT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_fire_in_offset_order() {
        use std::sync::Mutex;
        let order = Arc::new(Mutex::new(Vec::new()));
        let (first, second) = (Arc::clone(&order), Arc::clone(&order));
        let plan = FaultPlan::new();
        let mut scenario = Scenario {
            name: "test",
            steps: vec![
                // Deliberately listed out of order: run_scenario sorts.
                ChaosStep::new(Duration::from_millis(40), "heal", move |plan| {
                    plan.heal();
                    second.lock().unwrap().push("heal");
                }),
                ChaosStep::new(Duration::ZERO, "cut", move |plan| {
                    plan.set_link_sym(ProcessId(1), ProcessId(2), LinkProfile::cut());
                    first.lock().unwrap().push("cut");
                }),
            ],
            heal_at: Some(Duration::from_millis(40)),
            max_delay: Duration::ZERO,
            timeout_covers: Duration::ZERO,
            expectation: PathExpectation::FastRecovers,
            injects_delays: false,
            injects_drops: false,
            injects_partitions: true,
        };
        let run = run_scenario(&plan, &mut scenario, MetricsHandle::none());
        assert!(scenario.steps.is_empty(), "steps are consumed");
        assert_eq!(run.join(), 2);
        assert_eq!(*order.lock().unwrap(), vec!["cut", "heal"]);
    }

    /// The harness offers its `during` load as soon as `run_scenario`
    /// returns: a fault scripted for `t + 0` must be in force by then, not
    /// whenever the script thread first runs.
    #[test]
    fn a_step_due_at_once_is_in_force_when_run_scenario_returns() {
        let plan = FaultPlan::new();
        let untouched = plan.version();
        let mut scenario = Scenario {
            name: "at-once",
            steps: vec![ChaosStep::new(Duration::ZERO, "isolate", |plan| {
                plan.isolate(ProcessId(1));
            })],
            heal_at: None,
            max_delay: Duration::ZERO,
            timeout_covers: Duration::ZERO,
            expectation: PathExpectation::StallAllowed,
            injects_delays: false,
            injects_drops: false,
            injects_partitions: true,
        };
        let metrics = MetricsHandle::standalone();
        let run = run_scenario(&plan, &mut scenario, metrics.clone());
        // No join and no sleep before looking.
        assert!(plan.version() > untouched, "the plan was mutated");
        let events = metrics.get().expect("enabled").recorder.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "chaos-step");
        assert_eq!(events[0].detail, "at-once: isolate (t+0ns)");
        assert_eq!(run.join(), 1);
    }

    #[test]
    fn abort_stops_before_later_steps() {
        let plan = FaultPlan::new();
        let mut scenario = Scenario {
            name: "abort-test",
            steps: vec![
                ChaosStep::new(Duration::ZERO, "first", |_| {}),
                ChaosStep::new(Duration::from_secs(30), "never", |_| {
                    panic!("must not run");
                }),
            ],
            heal_at: None,
            max_delay: Duration::ZERO,
            timeout_covers: Duration::ZERO,
            expectation: PathExpectation::FastRecovers,
            injects_delays: false,
            injects_drops: false,
            injects_partitions: false,
        };
        let run = run_scenario(&plan, &mut scenario, MetricsHandle::none());
        std::thread::sleep(Duration::from_millis(30));
        run.abort();
        assert_eq!(run.join(), 1, "only the immediate step applied");
    }

    #[test]
    fn derived_timeout_covers_the_injected_delay() {
        let s = Scenario::slow_follower(
            ProcessId(2),
            Duration::from_millis(4),
            Duration::from_millis(1),
            Duration::from_millis(100),
        );
        let tick = Duration::from_micros(50);
        let ticks = s.base_timeout_ticks(tick, 800);
        // 4 × 5 ms = 20 ms of cover on top of the 40 ms floor.
        assert_eq!(ticks, 800 + 400);
        // Scenarios that *want* view changes keep the bare floor.
        let p = Scenario::partition_the_fast_quorum(
            &Config::new(7, 2, 1).unwrap(),
            Duration::from_millis(100),
        );
        assert_eq!(p.base_timeout_ticks(tick, 800), 800);
    }

    #[test]
    fn partition_expectation_tracks_the_quorum_math() {
        let gen7 = Config::new(7, 2, 1).unwrap();
        let s = Scenario::partition_the_fast_quorum(&gen7, Duration::from_millis(10));
        assert_eq!(s.expectation, PathExpectation::SlowWhileFaulted);

        let vanilla4 = Config::new(4, 1, 1).unwrap();
        let s = Scenario::partition_the_fast_quorum(&vanilla4, Duration::from_millis(10));
        assert_eq!(s.expectation, PathExpectation::StallAllowed);
    }

    #[test]
    fn wan_regions_cover_n() {
        for n in [4, 7, 13, 31] {
            let regions = wan_regions(n);
            assert_eq!(regions.iter().sum::<usize>(), n);
            assert!(regions[0] > regions[1]);
        }
    }

    #[test]
    fn catalog_names_are_unique_and_complete() {
        let cfg = Config::new(7, 2, 1).unwrap();
        let names: Vec<&str> = Scenario::catalog(&cfg, 5).iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "delay-the-leader",
                "partition-the-fast-quorum",
                "flapping-link",
                "slow-follower",
                "asymmetric-wan",
            ]
        );
    }

    #[test]
    fn seed_env_override_parses() {
        // Avoid mutating the process environment (other tests run in
        // parallel): exercise only the default path here.
        assert_eq!(chaos_seed_from_env(42), 42);
    }
}
