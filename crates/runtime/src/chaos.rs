//! The chaos scheduler: named, timed scripts of [`LinkRules`], plus the
//! degradation contract each scenario promises.
//!
//! A [`Scenario`] is data: a list of [`ChaosStep`]s — from `t = at` on,
//! *these* are all the link rules in force (the plan's default profile
//! stays; the empty set heals) — a [`PathExpectation`] saying how the
//! commit path should degrade, and one policy bit for the view timer.
//! Every budget a harness sizes is derived from the steps:
//! [`heal_at`](Scenario::heal_at), [`max_delay`](Scenario::max_delay) and
//! the fault kinds the script [`injects`](Scenario::injects), so a
//! scenario can be listed, printed and replayed, and no hand-copied fact
//! can drift from what its script does. [`run_scenario`] plays the
//! script against the cluster's shared plan — steps due at once before it
//! returns, later ones on a background thread — while the harness drives
//! load; the test then checks the three graceful-degradation properties:
//!
//! 1. **Safety, always** — all logs agree, faulted or not.
//! 2. **Liveness after heal** — commits resume within a bounded window
//!    (see [`recovery_window`]) once the plan heals: every slot is a
//!    fresh instance that starts from the base timeout, so backoff
//!    climbed during the fault is confined to the slots that were open.
//! 3. **Path attribution** — while the fast quorum is unreachable,
//!    commits show up on the *slow* path in the metrics plane, exactly as
//!    the paper's generalized protocol (t < f) promises.
//!
//! # Deriving timeouts instead of hand-tuning them
//!
//! A scenario whose delays the view timer must survive says so
//! ([`Scenario::timer_covers_delay`]), and harnesses call
//! [`Scenario::base_timeout_ticks`] to size the replicas' view-1 timeout
//! from its [`max_delay`](Scenario::max_delay), so that *intended*
//! survivable delay never masquerades as a dead leader. A scenario that
//! *wants* view changes (a partition, a delay beyond any reasonable
//! timer) leaves the bit unset and the no-fault floor applies.
//!
//! # Scenario catalog
//!
//! [`Scenario::catalog`], windows sized for a cluster committing about
//! every 25 ms; offsets and budgets in ms, every budget derived from the
//! steps (∅ is the empty rule set):
//!
//! | name | steps | `heal_at` | `max_delay` | injects | timer covers it | expectation |
//! |---|---|---|---|---|---|---|
//! | `delay-the-leader` | 0: p1's outbound delayed 500 + ≤ 50 jitter; 1000: ∅ | 1000 | 550 | delays | no | [`FastRecovers`](PathExpectation::FastRecovers) |
//! | `partition-the-fast-quorum` | 0: the `t + 1` highest ids cut both ways; 1000: ∅ | 1000 | 0 | partitions | no | [`SlowWhileFaulted`](PathExpectation::SlowWhileFaulted) (n = 7), [`StallAllowed`](PathExpectation::StallAllowed) below the slow / vote quorum (n = 4) |
//! | `flapping-link` | 0, 500, 1000: p1 ↔ p2 cut; 250, 750, 1250: ∅ | 1250 | 0 | partitions | no | [`FastRecovers`](PathExpectation::FastRecovers) |
//! | `slow-follower` | 0: p2's links delayed 50 + ≤ 12 both ways; 1000: ∅ | 1000 | 62 | delays | yes | [`FastRecovers`](PathExpectation::FastRecovers) |
//! | `asymmetric-wan` | 0: every pair 1 + ≤ ¼ inside a region, 10 + ≤ 2.5 across ([`wan_regions`]) | never | 12.5 | delays | yes | [`FastRecovers`](PathExpectation::FastRecovers) |

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fastbft_obs::MetricsHandle;
use fastbft_types::{Config, ProcessId};

use crate::faults::{FaultPlan, LinkProfile, LinkRules};

/// One step of a chaos script: from `at` on, `rules` are all the link
/// rules in force.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosStep {
    /// Offset from scenario start at which the rules take over.
    pub at: Duration,
    /// Human-readable label, surfaced in the flight recorder.
    pub label: &'static str,
    /// The complete rule set from `at` on; empty heals.
    pub rules: LinkRules,
}

impl ChaosStep {
    /// The step putting `rules` in force at `at` after scenario start.
    pub fn new(at: Duration, label: &'static str, rules: LinkRules) -> Self {
        ChaosStep { at, label, rules }
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
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name.
    pub name: &'static str,
    /// The script, in any order; [`run_scenario`] sorts by offset
    /// (stably: of two steps at one offset, the later listed wins).
    pub steps: Vec<ChaosStep>,
    /// The degradation contract the harness asserts.
    pub expectation: PathExpectation,
    /// Whether the replicas' view timer must survive
    /// [`max_delay`](Scenario::max_delay) — unset when the scenario
    /// wants view changes to fire.
    pub timer_covers_delay: bool,
}

impl Scenario {
    fn profiles(&self) -> impl Iterator<Item = &LinkProfile> {
        self.steps.iter().flat_map(|s| s.rules.profiles())
    }

    /// When the script has healed every fault it injected: the offset of
    /// its last step if that step is the empty set, `None` if the shaping
    /// outlives the script (`asymmetric-wan`).
    pub fn heal_at(&self) -> Option<Duration> {
        match self.steps.iter().max_by_key(|s| s.at) {
            None => Some(Duration::ZERO),
            Some(last) => (last.rules == LinkRules::default()).then_some(last.at),
        }
    }

    /// The worst one-way delay any step injects — sizes the post-heal
    /// recovery window, and the view timer when it must cover it.
    pub fn max_delay(&self) -> Duration {
        self.profiles()
            .map(LinkProfile::max_delay)
            .max()
            .unwrap_or_default()
    }

    /// The fault kinds the steps inject, in the order of the four
    /// `fault_*` counters of `fastbft_obs::Metrics` (and of the SMR
    /// harness' report): delays, probabilistic drops, duplicates,
    /// partition drops. A harness gates on each one promised having fired.
    pub fn injects(&self) -> [bool; 4] {
        self.profiles()
            .fold([false; 4], |[delays, drops, dups, cuts], p| {
                let live = !p.partitioned;
                [
                    delays || (live && !p.max_delay().is_zero()),
                    drops || (live && p.loss > 0.0),
                    dups || (live && p.duplicate > 0.0),
                    cuts || p.partitioned,
                ]
            })
    }

    /// The view-1 timeout, in runtime ticks, that keeps this scenario's
    /// *intended* delays below the view timer: `floor_ticks` (the
    /// no-fault baseline) plus, when the timer must cover them, four times
    /// [`max_delay`](Scenario::max_delay) (round trip, both legs shaped,
    /// with 2× margin) — derived, never hand-tuned per test.
    pub fn base_timeout_ticks(&self, tick: Duration, floor_ticks: u64) -> u64 {
        if !self.timer_covers_delay {
            return floor_ticks;
        }
        let cover = self.max_delay().as_nanos().saturating_mul(4);
        let per_tick = tick.as_nanos().max(1);
        floor_ticks + u64::try_from(cover.div_ceil(per_tick)).unwrap_or(u64::MAX)
    }

    /// `delay-the-leader`: from `t = 0`, everything `victim` *sends* is
    /// delayed by `delay` plus up to `jitter` — long past any reasonable
    /// view timer, so slots led by the victim fail over to the next
    /// leader — healed at `hold`.
    pub fn delay_the_leader(
        victim: ProcessId,
        delay: Duration,
        jitter: Duration,
        hold: Duration,
    ) -> Self {
        let delayed = LinkRules {
            by_src: BTreeMap::from([(victim, LinkProfile::delayed(delay, jitter))]),
            ..LinkRules::default()
        };
        Scenario {
            name: "delay-the-leader",
            steps: vec![
                ChaosStep::new(Duration::ZERO, "delay leader outbound", delayed),
                ChaosStep::new(hold, "heal leader", LinkRules::default()),
            ],
            expectation: PathExpectation::FastRecovers,
            timer_covers_delay: false,
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
        let cut: BTreeMap<ProcessId, LinkProfile> = (0..=cfg.t())
            .map(|k| (ProcessId::from_index(n - 1 - k), LinkProfile::cut()))
            .collect();
        let survivors = n - cut.len();
        let expectation = if survivors >= cfg.slow_quorum() && survivors >= cfg.vote_quorum() {
            PathExpectation::SlowWhileFaulted
        } else {
            PathExpectation::StallAllowed
        };
        let isolated = LinkRules {
            pairs: BTreeMap::new(),
            by_src: cut.clone(),
            by_dst: cut,
        };
        Scenario {
            name: "partition-the-fast-quorum",
            steps: vec![
                ChaosStep::new(Duration::ZERO, "isolate fast quorum margin", isolated),
                ChaosStep::new(hold, "heal partition", LinkRules::default()),
            ],
            expectation,
            timer_covers_delay: false,
        }
    }

    /// `flapping-link`: the `a ↔ b` link is cut and restored every
    /// `period`, `flaps` times, ending healed. One dead link never breaks
    /// the fast quorum (every node still hears `n − 1 ≥ n − t` peers), so
    /// the fast path must ride through.
    pub fn flapping_link(a: ProcessId, b: ProcessId, period: Duration, flaps: u32) -> Self {
        let cut = LinkRules {
            pairs: BTreeMap::from([((a, b), LinkProfile::cut()), ((b, a), LinkProfile::cut())]),
            ..LinkRules::default()
        };
        let steps = (0..flaps)
            .flat_map(|i| {
                [
                    ChaosStep::new(period * (2 * i), "cut link", cut.clone()),
                    ChaosStep::new(period * (2 * i + 1), "restore link", LinkRules::default()),
                ]
            })
            .collect();
        Scenario {
            name: "flapping-link",
            steps,
            expectation: PathExpectation::FastRecovers,
            timer_covers_delay: false,
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
        let slow = BTreeMap::from([(victim, LinkProfile::delayed(delay, jitter))]);
        let rules = LinkRules {
            pairs: BTreeMap::new(),
            by_src: slow.clone(),
            by_dst: slow,
        };
        Scenario {
            name: "slow-follower",
            steps: vec![
                ChaosStep::new(Duration::ZERO, "slow follower links", rules),
                ChaosStep::new(hold, "heal follower", LinkRules::default()),
            ],
            expectation: PathExpectation::FastRecovers,
            timer_covers_delay: true,
        }
    }

    /// `asymmetric-wan`: the `regions` sizes split the cluster into
    /// consecutive regions; links within a region get `intra` one-way
    /// delay, links across regions get `cross`, each plus up to a quarter
    /// of itself in jitter. The shaping is permanent (no heal) — the
    /// contract is that with timeouts *derived* from the profile, the
    /// fast path runs at WAN latency.
    pub fn asymmetric_wan(n: usize, regions: &[usize], intra: Duration, cross: Duration) -> Self {
        assert_eq!(
            regions.iter().sum::<usize>(),
            n,
            "region sizes must cover all {n} processes"
        );
        let region_of: Vec<usize> = (0..regions.len())
            .flat_map(|r| std::iter::repeat_n(r, regions[r]))
            .collect();
        let wan = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| {
                let delay = if region_of[i] == region_of[j] {
                    intra
                } else {
                    cross
                };
                let link = (ProcessId::from_index(i), ProcessId::from_index(j));
                (link, LinkProfile::delayed(delay, delay / 4))
            })
            .collect();
        let wan = LinkRules {
            pairs: wan,
            ..LinkRules::default()
        };
        Scenario {
            name: "asymmetric-wan",
            steps: vec![ChaosStep::new(Duration::ZERO, "apply wan matrix", wan)],
            expectation: PathExpectation::FastRecovers,
            timer_covers_delay: true,
        }
    }

    /// Every scenario in the catalog (the module docs' table), for an
    /// `n`-process cluster committing about every 25 ms — the suite CI
    /// runs on both transports.
    pub fn catalog(cfg: &Config) -> Vec<Scenario> {
        let ms = Duration::from_millis;
        vec![
            Scenario::delay_the_leader(ProcessId(1), ms(500), ms(50), ms(1000)),
            Scenario::partition_the_fast_quorum(cfg, ms(1000)),
            Scenario::flapping_link(ProcessId(1), ProcessId(2), ms(250), 3),
            Scenario::slow_follower(ProcessId(2), ms(50), ms(12), ms(1000)),
            Scenario::asymmetric_wan(cfg.n(), &wan_regions(cfg.n()), ms(1), ms(10)),
        ]
    }
}

/// How long after heal a cluster whose view-1 timeout is `base_timeout`
/// must be fully live again, under a script injecting at most
/// `max_delay`. Covers the view synchronizer's exponential backoff
/// climbing, in the slots open while the fault held (bounded by the
/// exponent cap; later slots start from the base timeout), plus residual
/// in-flight shaped deliveries.
pub fn recovery_window(base_timeout: Duration, max_delay: Duration) -> Duration {
    (base_timeout * 32 + max_delay * 4).max(Duration::from_secs(5))
}

/// A default two-region split for `asymmetric-wan`: the majority region
/// keeps a fast quorum's worth of replicas when possible.
pub fn wan_regions(n: usize) -> Vec<usize> {
    let minority = (n / 3).max(1);
    vec![n - minority, minority]
}

/// Plays `scenario`'s script against `plan`: each step's rules replace
/// the plan's at `start + step.at` (steps sorted by offset), logged to
/// `metrics`' flight recorder as a `chaos-step` event. Steps due at
/// `t + 0` are applied before this returns — the load a caller offers next
/// meets the fault, however late the script thread is first scheduled —
/// and the rest on a background thread, whose handle joins with the
/// number of steps applied.
pub fn run_scenario(
    plan: &FaultPlan,
    scenario: &Scenario,
    metrics: MetricsHandle,
) -> JoinHandle<usize> {
    let mut steps = scenario.steps.clone();
    steps.sort_by_key(|s| s.at);
    let later = steps.split_off(steps.partition_point(|s| s.at.is_zero()));
    let name = scenario.name;
    let plan = plan.clone();
    let fire = move |step: ChaosStep| {
        plan.set_rules(step.rules);
        if let Some(m) = metrics.get() {
            m.recorder.record(
                "chaos-step",
                format!("{name}: {} (t+{:?})", step.label, step.at),
            );
        }
    };
    let start = Instant::now();
    let applied = steps.len() + later.len();
    for step in steps {
        fire(step);
    }
    std::thread::Builder::new()
        .name(format!("chaos-{name}"))
        .spawn(move || {
            for step in later {
                std::thread::sleep((start + step.at).saturating_duration_since(Instant::now()));
                fire(step);
            }
            applied
        })
        .expect("spawn chaos script thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(metrics: &MetricsHandle) -> Vec<String> {
        let events = metrics.get().expect("enabled").recorder.snapshot();
        assert!(events.iter().all(|e| e.kind == "chaos-step"));
        events.into_iter().map(|e| e.detail).collect()
    }

    #[test]
    fn steps_fire_in_offset_order() {
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let plan = FaultPlan::new();
        let cut = LinkRules {
            pairs: BTreeMap::from([((p1, p2), LinkProfile::cut())]),
            ..LinkRules::default()
        };
        let scenario = Scenario {
            name: "test",
            steps: vec![
                // Deliberately listed out of order: run_scenario sorts.
                ChaosStep::new(Duration::from_millis(40), "heal", LinkRules::default()),
                ChaosStep::new(Duration::ZERO, "cut", cut),
            ],
            expectation: PathExpectation::FastRecovers,
            timer_covers_delay: false,
        };
        let metrics = MetricsHandle::standalone();
        let run = run_scenario(&plan, &scenario, metrics.clone());
        assert_eq!(plan.resolve(p1, p2), LinkProfile::cut());
        assert_eq!(run.join().unwrap(), 2);
        assert_eq!(plan.resolve(p1, p2), LinkProfile::default());
        assert_eq!(
            recorded(&metrics),
            ["test: cut (t+0ns)", "test: heal (t+40ms)"]
        );
    }

    /// The harness offers its `during` load as soon as `run_scenario`
    /// returns: a fault scripted for `t + 0` must be in force by then, not
    /// whenever the script thread first runs.
    #[test]
    fn a_step_due_at_once_is_in_force_when_run_scenario_returns() {
        let plan = FaultPlan::new();
        let untouched = plan.version();
        let cut = BTreeMap::from([(ProcessId(1), LinkProfile::cut())]);
        let isolated = LinkRules {
            pairs: BTreeMap::new(),
            by_src: cut.clone(),
            by_dst: cut,
        };
        let scenario = Scenario {
            name: "at-once",
            steps: vec![ChaosStep::new(Duration::ZERO, "isolate", isolated)],
            expectation: PathExpectation::StallAllowed,
            timer_covers_delay: false,
        };
        let metrics = MetricsHandle::standalone();
        let run = run_scenario(&plan, &scenario, metrics.clone());
        // No join and no sleep before looking.
        assert!(plan.version() > untouched, "the plan was mutated");
        assert_eq!(recorded(&metrics), ["at-once: isolate (t+0ns)"]);
        assert_eq!(run.join().unwrap(), 1);
    }

    /// The catalog as a table, at n = 4 and n = 7: each scenario's derived
    /// budgets, and after each step every one of the `n × n` links — row
    /// `src`, column `dst`, self-links included, one character per link —
    /// exactly as the closure-scripted catalog of the parent commit
    /// (`f6a4122`) left its plan.
    #[test]
    fn the_catalog_resolves_link_by_link_as_it_did_when_scripted() {
        let (ms, us, zero) = (Duration::from_millis, Duration::from_micros, Duration::ZERO);
        let legend = [
            ('.', LinkProfile::default()),
            ('x', LinkProfile::cut()),
            ('L', LinkProfile::delayed(ms(500), ms(50))),
            ('S', LinkProfile::delayed(ms(50), ms(12))),
            ('w', LinkProfile::delayed(ms(1), us(250))),
            ('W', LinkProfile::delayed(ms(10), us(2500))),
        ];
        let code = |link| {
            legend
                .iter()
                .find(|(_, p)| *p == link)
                .map_or('?', |(c, _)| *c)
        };
        let (delays, cuts) = ([true, false, false, false], [false, false, false, true]);
        let flaps = [0, 250, 500, 750, 1000, 1250];
        // heal_at, max_delay, what the view timer covers, injects, and the
        // offsets of the steps in ms.
        let budgets: [(_, _, _, _, &[u128]); 5] = [
            (Some(ms(1000)), ms(550), zero, delays, &[0, 1000]),
            (Some(ms(1000)), zero, zero, cuts, &[0, 1000]),
            (Some(ms(1250)), zero, zero, cuts, &flaps),
            (Some(ms(1000)), ms(62), ms(62), delays, &[0, 1000]),
            (None, us(12_500), us(12_500), delays, &[0]),
        ];
        // The links after each step.
        let n4: [&[&str]; 5] = [
            &[".LLL .... .... ....", ".... .... .... ...."],
            &["..xx ..xx xx.x xxx.", ".... .... .... ...."],
            &[
                ".x.. x... .... ....",
                ".... .... .... ....",
                ".x.. x... .... ....",
                ".... .... .... ....",
                ".x.. x... .... ....",
                ".... .... .... ....",
            ],
            &[".S.. S.SS .S.. .S..", ".... .... .... ...."],
            &[".wwW w.wW ww.W WWW."],
        ];
        let n7: [&[&str]; 5] = [
            &[
                ".LLLLLL ....... ....... ....... ....... ....... .......",
                "....... ....... ....... ....... ....... ....... .......",
            ],
            &[
                ".....xx .....xx .....xx .....xx .....xx xxxxx.x xxxxxx.",
                "....... ....... ....... ....... ....... ....... .......",
            ],
            &[
                ".x..... x...... ....... ....... ....... ....... .......",
                "....... ....... ....... ....... ....... ....... .......",
                ".x..... x...... ....... ....... ....... ....... .......",
                "....... ....... ....... ....... ....... ....... .......",
                ".x..... x...... ....... ....... ....... ....... .......",
                "....... ....... ....... ....... ....... ....... .......",
            ],
            &[
                ".S..... S.SSSSS .S..... .S..... .S..... .S..... .S.....",
                "....... ....... ....... ....... ....... ....... .......",
            ],
            &[".wwwwWW w.wwwWW ww.wwWW www.wWW wwww.WW WWWWW.w WWWWWw."],
        ];
        let id = ProcessId::from_index;
        for (cfg, links) in [(Config::new(4, 1, 1), n4), (Config::new(7, 2, 1), n7)] {
            let cfg = cfg.unwrap();
            let n = cfg.n();
            let catalog = Scenario::catalog(&cfg);
            assert_eq!(catalog.len(), budgets.len());
            for ((s, budget), links) in catalog.iter().zip(budgets).zip(links) {
                let context = format!("{} at n = {n}", s.name);
                let mut script = s.steps.clone();
                script.sort_by_key(|step| step.at);
                let offsets: Vec<u128> = script.iter().map(|step| step.at.as_millis()).collect();
                let covers = if s.timer_covers_delay {
                    s.max_delay()
                } else {
                    zero
                };
                let derived = (
                    s.heal_at(),
                    s.max_delay(),
                    covers,
                    s.injects(),
                    &offsets[..],
                );
                assert_eq!(derived, budget, "{context}");
                let plan = FaultPlan::new();
                for (step, want) in script.into_iter().zip(links) {
                    plan.set_rules(step.rules);
                    let got: String = (0..n * n)
                        .map(|k| code(plan.resolve(id(k / n), id(k % n))))
                        .collect();
                    let want = want.replace(' ', "");
                    assert_eq!(got, want, "{context}, t+{:?}", step.at);
                }
            }
        }
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
        let names: Vec<&str> = Scenario::catalog(&cfg).iter().map(|s| s.name).collect();
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
}
