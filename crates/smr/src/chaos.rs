//! The graceful-degradation harness: drives an SMR cluster through a
//! chaos [`Scenario`] and asserts the properties every scenario must
//! exhibit (see [`fastbft_runtime::chaos`]):
//!
//! 1. **Safety** — the SMR checker ([`fastbft_sim::SmrChecker`]) finds no
//!    violation, fault or no fault (convergence in virtual time only,
//!    where the stores are at hand).
//! 2. **Liveness after heal** — the full command load (submitted before,
//!    during, and after the fault window) is applied by *every* replica
//!    within the scenario's derived recovery window.
//! 3. **Path attribution** — fast-path commits resume after heal, and while
//!    the fast quorum is unreachable the slow path carries the commits that
//!    land, a slot led by an isolated seat no longer waiting out the view
//!    timer after one rotation (the cross-slot leader suspicion).
//! 4. **The faults fired** — every kind the script injects, or the run
//!    proved nothing.
//!
//! One scenario runs on either clock through the same phases and gates, on
//! the same seats (one command per slot, the scenario's derived view-1
//! timeout), each step of the script applied at its offset on that clock:
//! [`run_chaos`] on the wall-clock runtime over a transport the caller
//! picks, under one fixed fault seed; [`run_chaos_virtual`] in virtual
//! time over [`FaultPlan::network`], a pure function of its seed, whose
//! trace records the faults — a send traced at [`SimTime::NEVER`] was
//! dropped, one later than an unshaped link delivers was shaped.
//!
//! A gate that fails leaves a post-mortem behind before it panics: the
//! registry's JSON dump, every replica's flight-recorder tail (the
//! script's `chaos-step` events sit in replica 0's) and the script itself
//! (`scenario.txt`: the steps as data, the derived budgets and the base
//! timeout used), in a directory the caller names and the panic message
//! repeats with the scenario, the cluster size and the seed.

use std::path::Path;
use std::time::{Duration, Instant};

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::chaos::{recovery_window, ChaosStep, PathExpectation, Scenario};
use fastbft_runtime::{wrap_seats_metered, FaultPlan, LinkProfile, NodeSeat, Transport, TICK};
use fastbft_sim::{Actor, SimDuration, SimTime, SmrViolation, TraceEvent};
use fastbft_types::{Config, ProcessId, Value};

use crate::harness::{listed, SmrSimCluster};
use crate::machine::{CountingMachine, StateMachine};
use crate::multiplex::{SlotMessage, SmrNode};
use crate::runtime::SmrClusterHandle;

/// The one seed of a wall-clock run: its keys and every delivery's fate.
const SEED: u64 = 42;
/// Commands offered before, during and after the fault window each.
const LOAD: u64 = 6;
/// The fault kinds, in [`Scenario::injects`] order.
const KINDS: [&str; 3] = ["delay", "loss", "partition"];
/// A virtual run's unshaped link: one tick, about a hop of the channel mesh.
const HOP: SimDuration = SimDuration(1);
/// The most ticks a virtual run adds to every link the script leaves
/// alone, so each seed is another schedule: small enough that the seven
/// hops of a view change fit under the 800-tick view timer.
const JITTER: u32 = 40;

/// The gates of one chaos run: where a failed one leaves its post-mortem.
struct Gates<'a> {
    scenario: &'a Scenario,
    registry: &'a MetricsRegistry,
    seed: u64,
    dir: &'a Path,
}

impl Gates<'_> {
    /// Panics with `what` unless `ok`, after writing `metrics.json`,
    /// `scenario.txt` and one `recorder-pN.txt` per replica under
    /// `dir/<scenario>-n<n>-seed<seed>/`.
    #[track_caller]
    fn require(&self, ok: bool, what: impl std::fmt::Display) {
        if ok {
            return;
        }
        let (name, n, seed) = (self.scenario.name, self.registry.len(), self.seed);
        let dir = self.dir.join(format!("{name}-n{n}-seed{seed}"));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(dir.join("metrics.json"), self.registry.render_json())?;
            std::fs::write(dir.join("scenario.txt"), self.script())?;
            for i in 0..n {
                let tail: String = self
                    .registry
                    .metrics(i)
                    .recorder
                    .snapshot()
                    .iter()
                    .map(|e| {
                        format!(
                            "{:>6} {:>10} us  {}  {}\n",
                            e.seq, e.at_us, e.kind, e.detail
                        )
                    })
                    .collect();
                std::fs::write(dir.join(format!("recorder-p{}.txt", i + 1)), tail)?;
            }
            Ok(())
        });
        let run = format!("[{name} n={n} seed={seed}] {what}");
        match written {
            Ok(()) => panic!("{run} (post-mortem: {})", dir.display()),
            Err(e) => panic!("{run} (post-mortem not written to {}: {e})", dir.display()),
        }
    }

    /// The seats' view-1 timeout: the no-fault floor, covering the
    /// scenario's delay where it must.
    fn base_timeout(&self) -> Duration {
        let ticks = view_timeout(self.scenario);
        TICK * u32::try_from(ticks).expect("a view-1 timeout below 2^32 ticks")
    }

    /// The script as data — one line per step — under the budgets
    /// derived from it and the base timeout the run used.
    fn script(&self) -> String {
        let s = self.scenario;
        let (heal_at, max_delay, injects) = (s.heal_at(), s.max_delay(), s.injects());
        let mut text = format!(
            "{} {:?}, timer covers delay: {}, heal_at {heal_at:?}, max_delay {max_delay:?}, \
             injects {KINDS:?} {injects:?}, base_timeout {:?}\n",
            s.name,
            s.expectation,
            s.timer_covers_delay,
            self.base_timeout()
        );
        for step in &s.steps {
            text += &format!("t+{:?} {}: {:?}\n", step.at, step.label, step.rules);
        }
        text
    }
}

/// An SMR cluster on one clock: what [`Run`] needs of it.
trait Clock {
    /// Time since the cluster started.
    fn now(&self) -> Duration;
    /// Hands `command` to every replica (the broadcast client model).
    fn submit(&mut self, command: Value);
    /// Runs until every process of `who` has applied `k` client commands
    /// (`true`) or the clock reads `until` (`false`).
    fn run_until(&mut self, who: &[ProcessId], k: u64, until: Duration) -> bool;
    /// What the SMR checker found in every applied event so far.
    fn violations(&mut self) -> &[SmrViolation];
    /// The deliveries each fault kind touched, in [`Scenario::injects`]
    /// order.
    fn fired(&self) -> [u64; 3];
}

/// A run in progress: the cluster, its plan, the script's steps not in
/// force yet (each with its due time, the last due first) and the gates.
struct Run<'a, C: Clock> {
    clock: C,
    plan: FaultPlan,
    pending: Vec<(Duration, ChaosStep)>,
    gates: Gates<'a>,
}

impl<C: Clock> Run<'_, C> {
    /// Puts every step due by now in force, each logged to replica 0's
    /// flight recorder.
    fn apply_due(&mut self) {
        let (now, name) = (self.clock.now(), self.gates.scenario.name);
        while let Some((_, step)) = self.pending.pop_if(|(due, _)| *due <= now) {
            self.plan.set_rules(step.rules);
            let recorder = &self.gates.registry.metrics(0).recorder;
            recorder.record(
                "chaos-step",
                format!("{name}: {} (t+{:?})", step.label, step.at),
            );
        }
    }

    /// Runs until every process of `who` has applied `k` client commands
    /// (`true`) or `within` has passed (`false`), putting each step of the
    /// script in force when it comes due.
    fn await_commands(&mut self, who: &[ProcessId], k: u64, within: Duration) -> bool {
        let deadline = self.clock.now() + within;
        loop {
            self.apply_due();
            let until = self.pending.last().map_or(deadline, |s| deadline.min(s.0));
            if self.clock.run_until(who, k, until) {
                return true;
            }
            if self.clock.now() >= deadline {
                self.apply_due();
                return false;
            }
        }
    }

    /// Offers `LOAD` commands tagged `tag` — one tag per phase, so replays
    /// and duplicates can never alias across phases.
    fn load(&mut self, tag: u64) {
        for i in 0..LOAD {
            self.clock.submit(Value::from_u64(tag + i));
        }
    }

    /// Plays the scenario — load before, during and after the fault
    /// window — and asserts every gate.
    fn drive(&mut self, cfg: Config) {
        let (n, scenario) = (cfg.n(), self.gates.scenario);
        let all: Vec<ProcessId> = cfg.processes().collect();
        let registry = self.gates.registry;
        let totals = || {
            (
                registry.total(|m| &m.commit_fast_total),
                registry.total(|m| &m.commit_slow_total),
            )
        };

        // Phase 1: healthy baseline.
        self.load(0x0100_0000);
        let warm = self.await_commands(&all, LOAD, Duration::from_secs(30));
        self.gates
            .require(warm, "warmup load must commit on a healthy cluster");
        let (fast0, slow0) = totals();

        // Phase 2: the fault window. The steps due at once are in force
        // before the load is offered, the rest come due as the run goes.
        let start = self.clock.now();
        let mut steps = scenario.steps.clone();
        // Stably by offset, then reversed: of two steps at one offset the
        // later listed is applied last and wins.
        steps.sort_by_key(|s| s.at);
        self.pending = steps.into_iter().rev().map(|s| (start + s.at, s)).collect();
        self.apply_due();
        self.load(0x0200_0000);
        let mut submitted = 2 * LOAD;
        let slow_window = scenario.expectation == PathExpectation::SlowWhileFaulted;
        if slow_window {
            // The survivors must keep committing *while* the fault holds —
            // wait for them inside the window and snapshot before heal
            // fires, so the during-window counters cannot be polluted by a
            // healed fast path racing ahead.
            let survivors: Vec<ProcessId> = all[..n - (cfg.t() + 1)].to_vec();
            let window = |now: Duration| {
                let heal = scenario
                    .heal_at()
                    .map(|heal| heal.saturating_sub(now - start));
                let left = heal.unwrap_or(Duration::from_secs(5));
                left - left / 10
            };
            let during = self.await_commands(&survivors, submitted, window(self.clock.now()));
            self.gates.require(
                during,
                "survivors above the slow quorum must commit during the fault",
            );
            // Dead leaders must stop costing timeouts. Each probe waits for
            // the one before it, so it is one slot, and a rotation of `n`
            // of them makes every isolated seat lead — and be timed out on
            // — at least once. A second rotation, each probe timed from
            // submit to applied by every survivor, must then stay below the
            // view-1 timeout: the survivors suspect those seats and wish
            // past them (see `crate::suspicion`).
            let mut rotation = Vec::new();
            for probe in 0..2 * n {
                let sent = self.clock.now();
                self.clock.submit(Value::from_u64(0x0280_0000 + submitted));
                submitted += 1;
                let done = self.await_commands(&survivors, submitted, window(sent));
                self.gates.require(
                    done,
                    format_args!("survivors must commit probe {submitted} during the fault"),
                );
                if probe >= n {
                    rotation.push(self.clock.now() - sent);
                }
            }
            // Nearest-rank p99 of n < 100 samples is the slowest one.
            let p99 = rotation.iter().max().copied().unwrap_or_default();
            let base_timeout = self.gates.base_timeout();
            self.gates.require(
                p99 < base_timeout,
                format_args!(
                    "after the first rotation a slot led by an isolated seat must not \
                     wait out the {base_timeout:?} view timer (second rotation: {rotation:?})"
                ),
            );
        }
        // Let the script run out: its last step is the heal. Without a
        // mid-window gate the during bucket covers the whole fault window.
        let mid_window = totals();
        if let Some(&(last, _)) = self.pending.first() {
            let left = last.saturating_sub(self.clock.now());
            self.await_commands(&all, u64::MAX, left);
        }
        let (fast1, slow1) = if slow_window { mid_window } else { totals() };

        // Phase 3: post-heal. Liveness must return within the derived
        // recovery window, on every replica — including the ones that were
        // cut off.
        self.load(0x0300_0000);
        let window = recovery_window(self.gates.base_timeout(), scenario.max_delay());
        let live = self.await_commands(&all, submitted + LOAD, window);
        let gates = &self.gates;
        gates.require(
            live,
            format_args!("liveness must return within {window:?} of heal"),
        );
        let (fast2, _) = totals();
        let violations = self.clock.violations();
        let found = format!("the SMR checker found: {}", listed(violations));
        gates.require(violations.is_empty(), found);
        gates.require(
            fast2 > fast1,
            format_args!("the fast path must resume after heal (fast {fast0}→{fast1}→{fast2})"),
        );
        let (fast, slow) = (fast1 - fast0, slow1 - slow0);
        gates.require(
            !slow_window || slow > fast,
            format_args!(
                "with the fast quorum unreachable, the slow path must carry the fault \
                 window (fast {fast}, slow {slow})"
            ),
        );
        let fired = self.clock.fired();
        for ((promised, fired), kind) in scenario.injects().into_iter().zip(fired).zip(KINDS) {
            gates.require(
                !promised || fired > 0,
                format_args!("the script's {kind} injection never fired"),
            );
        }
    }
}

/// The view-1 timeout, in ticks, of every seat that runs `scenario`.
fn view_timeout(scenario: &Scenario) -> u64 {
    scenario.base_timeout_ticks(ReplicaOptions::default().base_timeout.0)
}

/// What every seat of a chaos run holds: the node, one command per slot,
/// under the scenario's view-1 timeout.
fn seated<S: StateMachine>(mut node: SmrNode<S>, scenario: &Scenario) -> SmrNode<S> {
    node.opts.base_timeout = SimDuration(view_timeout(scenario));
    node.with_batch_size(1)
}

/// The wall clock.
struct Wall {
    cluster: SmrClusterHandle,
    started: Instant,
}

impl Clock for Wall {
    fn now(&self) -> Duration {
        self.started.elapsed()
    }

    fn submit(&mut self, command: Value) {
        self.cluster.submit(command);
    }

    fn run_until(&mut self, who: &[ProcessId], k: u64, until: Duration) -> bool {
        let within = until.saturating_sub(self.now());
        self.cluster.await_commands(who.iter().copied(), k, within)
    }

    fn violations(&mut self) -> &[SmrViolation] {
        self.cluster.violations()
    }

    fn fired(&self) -> [u64; 3] {
        let registry = self.cluster.registry();
        [
            registry.total(|m| &m.fault_delay_injected_total),
            registry.total(|m| &m.fault_drop_injected_total),
            registry.total(|m| &m.fault_partition_drop_total),
        ]
    }
}

/// Runs `scenario` against a metered SMR cluster of `cfg.n()` replicas on
/// the wall clock and asserts every gate. The harness builds the keys,
/// the seats' nodes, the registry and the plan; `seats` only puts the
/// actors on a transport, and the harness wraps what it returns in fault
/// transports under one fixed seed, so every run shapes the same
/// deliveries. A failed gate writes its post-mortem under
/// `postmortem/<scenario name>-n<n>-seed<seed>/`.
///
/// # Panics
///
/// Panics — failing the calling test — if any degradation property is
/// violated: a violation the SMR checker finds, liveness not restored
/// within the recovery window, commit-path attribution contradicting the
/// scenario's expectation, or a fault kind the scenario injects never
/// firing.
pub fn run_chaos<T: Transport<SlotMessage>>(
    cfg: Config,
    scenario: &Scenario,
    seats: impl FnOnce(
        Vec<Box<dyn Actor<SlotMessage> + Send>>,
        Vec<KeyPair>,
        KeyDirectory,
        &MetricsRegistry,
    ) -> Vec<NodeSeat<SlotMessage, T>>,
    postmortem: &Path,
) {
    let n = cfg.n();
    let plan = FaultPlan::new();
    let cluster = SmrClusterHandle::spawn(
        cfg,
        SEED,
        CountingMachine::new(),
        vec![Vec::new(); n],
        Value::from_u64(u64::MAX),
        |actors, pairs, dir, registry| {
            let seats = seats(actors, pairs, dir, registry);
            assert_eq!(seats.len(), n, "one seat per process");
            wrap_seats_metered(seats, &plan, SEED, registry)
        },
        |_, node| Box::new(seated(node, scenario)),
    );
    let registry = cluster.registry().clone();
    let gates = Gates {
        scenario,
        registry: &registry,
        seed: SEED,
        dir: postmortem,
    };
    let clock = Wall {
        cluster,
        started: Instant::now(),
    };
    let pending = Vec::new();
    let mut run = Run {
        clock,
        plan,
        pending,
        gates,
    };
    run.drive(cfg);
    run.clock.cluster.shutdown();
}

/// The simulator's clock. `at` is the next instant to run: every event
/// before it has.
struct Virtual {
    cluster: SmrSimCluster<CountingMachine>,
    at: SimTime,
}

impl Clock for Virtual {
    fn now(&self) -> Duration {
        TICK * u32::try_from(self.at.0).expect("a run shorter than 2^32 ticks")
    }

    fn submit(&mut self, command: Value) {
        let (sim, at) = (self.cluster.sim_mut(), self.at);
        for p in ProcessId::all(sim.n()) {
            sim.submit_client(p, command.clone(), at);
        }
    }

    fn run_until(&mut self, who: &[ProcessId], k: u64, until: Duration) -> bool {
        while !who
            .iter()
            .all(|p| self.cluster.node(*p).commands_applied() >= k)
        {
            if self.now() >= until {
                return false;
            }
            self.cluster.sim_mut().run_until(self.at);
            self.at += SimDuration(1);
        }
        true
    }

    fn violations(&mut self) -> &[SmrViolation] {
        self.cluster.violations()
    }

    fn fired(&self) -> [u64; 3] {
        let (mut shaped, mut dropped) = (0, 0);
        for record in self.cluster.sim().trace().records() {
            if let TraceEvent::Send { deliver_at, .. } = record.event {
                if deliver_at == SimTime::NEVER {
                    dropped += 1;
                } else if deliver_at.since(record.at) > HOP + SimDuration(JITTER.into()) {
                    shaped += 1;
                }
            }
        }
        // A drop is whichever of loss and partition the script promises
        // (`run_chaos_virtual` refuses a script promising both).
        [shaped, dropped, dropped]
    }
}

/// Runs `scenario` against a metered SMR cluster of `cfg.n()` replicas in
/// virtual time and asserts every gate [`run_chaos`] asserts, on the same
/// seats. The links take one tick plus a jitter the script's rules
/// override link by link, every fate drawn by [`FaultPlan::network`]; the
/// keys, the jitter and every fate come from `seed`, so each seed is
/// another schedule and a failing one replays exactly. A failed gate
/// writes its post-mortem under `postmortem/<scenario name>-n<n>-seed<seed>/`.
///
/// # Panics
///
/// Panics — failing the calling test, naming the scenario, `n` and `seed`
/// — if any degradation property is violated (see [`run_chaos`]); before
/// the run, if the scenario promises both loss and partition drops, which
/// the trace cannot tell apart.
pub fn run_chaos_virtual(cfg: Config, scenario: &Scenario, seed: u64, postmortem: &Path) {
    let [_, loss, partition] = scenario.injects();
    let both = "promises loss and partition drops, which the trace cannot tell apart";
    assert!(!(loss && partition), "[{}] {both}", scenario.name);
    let plan = FaultPlan::new();
    plan.set_default(LinkProfile::delayed(Duration::ZERO, TICK * JITTER));
    let cluster = SmrSimCluster::new(
        cfg,
        seed,
        CountingMachine::new(),
        vec![Vec::new(); cfg.n()],
        Value::from_u64(u64::MAX),
        plan.network(HOP, seed),
        |_, node| Box::new(seated(node, scenario)),
    );
    let registry = cluster.registry().clone();
    let gates = Gates {
        scenario,
        registry: &registry,
        seed,
        dir: postmortem,
    };
    let clock = Virtual {
        cluster,
        at: SimTime::ZERO,
    };
    let pending = Vec::new();
    Run {
        clock,
        plan,
        pending,
        gates,
    }
    .drive(cfg);
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use fastbft_runtime::LinkRules;
    use fastbft_sim::Simulation;

    use super::*;

    /// A cluster on which every command offered is applied at once, on the
    /// fast path, so every gate passes; at each offer it notes whether the
    /// plan cuts p4's sends to p1.
    struct Eager {
        now: Duration,
        offered: u64,
        registry: MetricsRegistry,
        /// The plan as a simulator network, to read which links it cuts.
        probe: Simulation<SlotMessage>,
        cut_at_offer: Vec<bool>,
    }

    impl Eager {
        /// Whether the plan cuts p`from`'s sends to p1 now.
        fn cut(&mut self, from: u32) -> bool {
            let probe = SlotMessage::SnapshotRequest { have: 0 };
            let (from, zero) = (ProcessId(from), SimTime::ZERO);
            self.probe.inject_message(from, ProcessId(1), probe, zero);
            let sent = &self.probe.trace().records().last().expect("traced").event;
            matches!(sent, TraceEvent::Send { deliver_at, .. } if *deliver_at == SimTime::NEVER)
        }
    }

    impl Clock for Eager {
        fn now(&self) -> Duration {
            self.now
        }

        fn submit(&mut self, _: Value) {
            self.offered += 1;
            self.registry.metrics(0).commit_fast_total.inc();
            let cut = self.cut(4);
            self.cut_at_offer.push(cut);
        }

        fn run_until(&mut self, _: &[ProcessId], k: u64, until: Duration) -> bool {
            if k > self.offered {
                self.now = until;
            }
            k <= self.offered
        }

        fn violations(&mut self) -> &[SmrViolation] {
            &[]
        }

        fn fired(&self) -> [u64; 3] {
            [1; 3]
        }
    }

    /// A script listed out of order plays sorted by offset: the `t + 0`
    /// step is in force before the fault window's load is offered, of two
    /// steps at one offset the later listed wins, and every step is a
    /// `chaos-step` event in replica 0's recorder, in the order applied.
    #[test]
    fn a_script_plays_in_offset_order_with_the_t0_step_before_the_load() {
        let cut = |p| LinkRules {
            by_src: [(ProcessId(p), LinkProfile::cut())].into(),
            ..LinkRules::default()
        };
        let later = Duration::from_millis(10);
        let scenario = Scenario {
            name: "shuffled",
            steps: vec![
                ChaosStep::new(later, "cut p2", cut(2)),
                ChaosStep::new(Duration::ZERO, "cut p4", cut(4)),
                ChaosStep::new(later, "cut p3", cut(3)),
            ],
            expectation: PathExpectation::FastRecovers,
            timer_covers_delay: false,
        };
        let (plan, registry) = (FaultPlan::new(), MetricsRegistry::new(4));
        let clock = Eager {
            now: Duration::ZERO,
            offered: 0,
            registry: registry.clone(),
            probe: Simulation::new(plan.network(HOP, 0), 0),
            cut_at_offer: Vec::new(),
        };
        let gates = Gates {
            scenario: &scenario,
            registry: &registry,
            seed: 0,
            dir: Path::new("unwritten"),
        };
        let pending = Vec::new();
        let mut run = Run {
            clock,
            plan,
            pending,
            gates,
        };
        run.drive(Config::new(4, 1, 1).unwrap());

        let in_window: Vec<bool> = (0..3 * LOAD).map(|i| i / LOAD == 1).collect();
        assert_eq!(run.clock.cut_at_offer, in_window, "before, during, after");
        assert_eq!([2, 3, 4].map(|p| run.clock.cut(p)), [false, true, false]);
        let events = registry.metrics(0).recorder.snapshot().into_iter();
        let steps: Vec<String> = events
            .map(|e| format!("{}: {}", e.kind, e.detail))
            .collect();
        let applied = ["cut p4 (t+0ns)", "cut p2 (t+10ms)", "cut p3 (t+10ms)"];
        assert_eq!(steps, applied.map(|s| format!("chaos-step: shuffled: {s}")));
    }

    /// A failed gate writes all three kinds of file — the registry, the
    /// script, each replica's recorder — and names their directory and the
    /// run: scenario, cluster size, seed.
    #[test]
    fn a_failed_gate_leaves_metrics_script_and_recorders_behind() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let registry = MetricsRegistry::new(cfg.n());
        let chaos = "partition-the-fast-quorum: isolate fast quorum margin (t+0ns)";
        let recorder = &registry.metrics(0).recorder;
        recorder.record("chaos-step", chaos.to_string());
        let root = std::env::temp_dir().join(format!("fastbft-postmortem-{}", std::process::id()));
        let gates = Gates {
            scenario: &Scenario::catalog(&cfg)[1],
            registry: &registry,
            seed: 5,
            dir: &root,
        };
        let failed = catch_unwind(AssertUnwindSafe(|| gates.require(false, "gate under test")));
        let message = *failed.unwrap_err().downcast::<String>().unwrap();
        let dir = root.join("partition-the-fast-quorum-n4-seed5");
        let named = format!(
            "[partition-the-fast-quorum n=4 seed=5] gate under test (post-mortem: {})",
            dir.display()
        );
        assert_eq!(message, named);

        let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect(file);
        assert!(read("metrics.json").contains("\"fault_links_shaped\":0"));
        assert!(read("recorder-p1.txt").ends_with(&format!("chaos-step  {chaos}\n")));
        for p in 2..=4 {
            assert_eq!(read(&format!("recorder-p{p}.txt")), "");
        }
        let script = read("scenario.txt");
        let lines: Vec<&str> = script.lines().collect();
        assert_eq!(lines.len(), 3, "{script}");
        assert_eq!(
            lines[0],
            "partition-the-fast-quorum StallAllowed, timer covers delay: false, heal_at Some(1s), \
             max_delay 0ns, injects [\"delay\", \"loss\", \"partition\"] \
             [false, false, true], base_timeout 40ms"
        );
        let isolated = "t+0ns isolate fast quorum margin: LinkRules { pairs: {}, by_src: \
                        {ProcessId(3): LinkProfile { delay: 0ns, jitter: 0ns, loss: 0.0,";
        assert!(lines[1].starts_with(isolated), "{script}");
        let healed = "t+1s heal partition: LinkRules { pairs: {}, by_src: {}, by_dst: {} }";
        assert_eq!(lines[2], healed);
        std::fs::remove_dir_all(&root).expect("clean up");
    }
}
