//! The graceful-degradation harness: drives an SMR cluster through a
//! chaos [`Scenario`] and asserts the three properties every scenario
//! must exhibit (see [`fastbft_runtime::chaos`]):
//!
//! 1. **Safety** — the per-replica logs agree, fault or no fault.
//! 2. **Liveness after heal** — the full command load (submitted before,
//!    during, and after the fault window) is applied by *every* replica
//!    within the scenario's derived recovery window.
//! 3. **Path attribution** — the metrics plane shows the commit path the
//!    scenario's [`PathExpectation`] demands: fast-path commits resume
//!    after heal, and while the fast quorum is unreachable the commits
//!    that do land are slow-path.
//!
//! Where the survivors can still commit
//! ([`PathExpectation::SlowWhileFaulted`]) a fourth gate rides inside the
//! fault window: after one rotation of slots has let every isolated seat
//! lead (and time out) once, a second rotation's slowest slot must stay
//! below the view-1 timeout — the cross-slot leader suspicion at work.
//!
//! A gate that fails leaves a post-mortem behind before it panics: the
//! registry's JSON dump, every replica's flight-recorder tail (the
//! script's `chaos-step` events sit in replica 0's) and the script itself
//! (`scenario.txt`: the steps as data, the derived budgets and the base
//! timeout used), in a directory the caller names and the panic message
//! repeats.
//!
//! The harness is transport-generic: the caller only puts the actors on
//! a transport — the channel mesh, or TCP (`fastbft_net::tcp_seats_metered`)
//! — and the harness wraps them in
//! [`fastbft_runtime::wrap_seats_metered`] either way, so the same
//! scenarios and the same assertions run on both, which is exactly the
//! chaos suite's CI matrix.

use std::path::Path;
use std::time::{Duration, Instant};

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::{KeyDirectory, KeyPair};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::chaos::{recovery_window, run_scenario, PathExpectation, Scenario};
use fastbft_runtime::{wrap_seats_metered, FaultPlan, NodeSeat, Transport};
use fastbft_sim::{Actor, SimDuration};
use fastbft_types::{Config, ProcessId, Value};

use crate::machine::CountingMachine;
use crate::multiplex::SlotMessage;
use crate::runtime::{SmrClusterHandle, TICK};

/// The one seed of a chaos run: its keys and every delivery's fate.
const SEED: u64 = 42;
/// Commands offered before, during and after the fault window each.
const LOAD: u64 = 6;
/// The fault kinds, in [`Scenario::injects`] / [`ChaosReport::injected`]
/// order.
const KINDS: [&str; 4] = ["delay", "loss", "duplication", "partition"];

/// What a chaos run measured, for test assertions beyond the built-in
/// gates.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Fast-path commits (before, during, after) the fault window.
    pub fast: [u64; 3],
    /// Slow-path commits (before, during, after) the fault window.
    pub slow: [u64; 3],
    /// Injected-fault counters: delays, drops, dups, partition drops.
    pub injected: [u64; 4],
}

/// The gates of one chaos run: where a failed one leaves its post-mortem.
struct Gates<'a> {
    scenario: &'a Scenario,
    registry: &'a MetricsRegistry,
    dir: &'a Path,
    base_timeout: Duration,
}

impl Gates<'_> {
    /// Panics with `what` unless `ok`, after writing `metrics.json`,
    /// `scenario.txt` and one `recorder-pN.txt` per replica under
    /// `dir/<scenario>-n<n>/` (the suites run one scenario at two cluster
    /// sizes).
    #[track_caller]
    fn require(&self, ok: bool, what: impl std::fmt::Display) {
        if ok {
            return;
        }
        let name = self.scenario.name;
        let dir = self.dir.join(format!("{name}-n{}", self.registry.len()));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(dir.join("metrics.json"), self.registry.render_json())?;
            std::fs::write(dir.join("scenario.txt"), self.script())?;
            for i in 0..self.registry.len() {
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
        match written {
            Ok(()) => panic!("[{name}] {what} (post-mortem: {})", dir.display()),
            Err(e) => panic!(
                "[{name}] {what} (post-mortem not written to {}: {e})",
                dir.display()
            ),
        }
    }

    /// The script as data — one line per step — under the budgets
    /// derived from it and the base timeout the run used.
    fn script(&self) -> String {
        let s = self.scenario;
        let (heal_at, max_delay, injects) = (s.heal_at(), s.max_delay(), s.injects());
        let mut text = format!(
            "{} {:?}, timer covers delay: {}, heal_at {heal_at:?}, max_delay {max_delay:?}, \
             injects {KINDS:?} {injects:?}, base_timeout {:?}\n",
            s.name, s.expectation, s.timer_covers_delay, self.base_timeout
        );
        for step in &s.steps {
            text += &format!("t+{:?} {}: {:?}\n", step.at, step.label, step.rules);
        }
        text
    }
}

/// Runs `scenario` against a metered SMR cluster of `cfg.n()` replicas and
/// asserts the three degradation properties. The harness builds the keys,
/// the actors (one command per slot, the view-1 timeout derived from
/// [`ReplicaOptions::default`] and the scenario —
/// [`Scenario::base_timeout_ticks`]), the registry and the plan; `seats`
/// only puts the actors on a transport, and the harness wraps what it
/// returns in fault transports under one fixed seed, so every run shapes
/// the same deliveries. A failed gate writes its post-mortem under
/// `postmortem/<scenario name>-n<n>/`.
///
/// # Panics
///
/// Panics — failing the calling test — if any degradation property is
/// violated: log divergence, liveness not restored within the recovery
/// window, commit-path attribution contradicting the scenario's
/// expectation, or a fault kind the scenario injects never firing.
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
) -> ChaosReport {
    let n = cfg.n();
    let ticks = scenario.base_timeout_ticks(TICK, ReplicaOptions::default().base_timeout.0);
    let base_timeout = TICK * u32::try_from(ticks).expect("a view-1 timeout below 2^32 ticks");
    let plan = FaultPlan::new();
    let mut cluster = SmrClusterHandle::spawn(
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
        // One command per slot, under the scenario's view-1 timeout.
        |_, mut node| {
            node.opts.base_timeout = SimDuration(ticks);
            Box::new(node.with_batch_size(1))
        },
    );
    let registry = cluster.registry().clone();
    let gates = Gates {
        scenario,
        registry: &registry,
        dir: postmortem,
        base_timeout,
    };
    let all: Vec<ProcessId> = (0..n).map(ProcessId::from_index).collect();
    let totals = |registry: &MetricsRegistry| -> (u64, u64) {
        (
            registry.total(|m| &m.commit_fast_total),
            registry.total(|m| &m.commit_slow_total),
        )
    };

    // Phase 1: healthy baseline. Commands are tagged by phase so replays
    // and duplicates can never alias across phases.
    for i in 0..LOAD {
        cluster.submit(Value::from_u64(0x0100_0000 + i));
    }
    gates.require(
        cluster.await_commands(all.clone(), LOAD, Duration::from_secs(30)),
        "warmup load must commit on a healthy cluster",
    );
    let (fast0, slow0) = totals(&registry);

    // Phase 2: the fault window. The script's t + 0 step is in force when
    // `run_scenario` returns, the rest runs on its own thread; the harness
    // offers load underneath it.
    let fault_started = Instant::now();
    let heal_at = scenario.heal_at();
    let run = run_scenario(&plan, scenario, registry.replica(0));
    for i in 0..LOAD {
        cluster.submit(Value::from_u64(0x0200_0000 + i));
    }
    let mut submitted = 2 * LOAD;
    let (fast1, slow1);
    if scenario.expectation == PathExpectation::SlowWhileFaulted {
        // The survivors must keep committing *while* the fault holds —
        // wait for them inside the window and snapshot before heal fires,
        // so the during-window counters cannot be polluted by a healed
        // fast path racing ahead.
        let survivors: Vec<ProcessId> = all[..n - (cfg.t() + 1)].to_vec();
        let window = || {
            heal_at
                .map(|heal| heal.saturating_sub(fault_started.elapsed()))
                .map(|left| left.saturating_sub(left / 10))
                .unwrap_or(Duration::from_secs(5))
        };
        gates.require(
            cluster.await_commands(survivors.clone(), submitted, window()),
            "survivors above the slow quorum must commit during the fault",
        );
        // Dead leaders must stop costing timeouts. Each probe waits for the
        // one before it, so it is one slot, and a rotation of `n` of them
        // makes every isolated seat lead — and be timed out on — at least
        // once. A second rotation, each probe timed from submit to applied
        // by every survivor, must then stay below the view-1 timeout: the
        // survivors suspect those seats and wish past them (see
        // `crate::suspicion`).
        let mut probe = |timed: bool| {
            let sent = Instant::now();
            cluster.submit(Value::from_u64(0x0280_0000 + submitted));
            submitted += 1;
            gates.require(
                cluster.await_commands(survivors.clone(), submitted, window()),
                format_args!("survivors must commit probe {submitted} during the fault"),
            );
            timed.then(|| sent.elapsed())
        };
        for _ in 0..n {
            probe(false);
        }
        let rotation: Vec<Duration> = (0..n).filter_map(|_| probe(true)).collect();
        // Nearest-rank p99 of n < 100 samples is the slowest one.
        let p99 = rotation.iter().max().copied().unwrap_or_default();
        gates.require(
            p99 < base_timeout,
            format_args!(
                "after the first rotation a slot led by an isolated seat must not \
                 wait out the {base_timeout:?} view timer (second rotation: {rotation:?})"
            ),
        );
        (fast1, slow1) = totals(&registry);
        run.join().expect("the chaos script panicked");
    } else {
        // No mid-window gate: let the script run out (its last step is
        // the heal), then snapshot — the during bucket covers the whole
        // fault window.
        run.join().expect("the chaos script panicked");
        (fast1, slow1) = totals(&registry);
    }

    // Phase 3: post-heal. Liveness must return within the derived
    // recovery window, on every replica — including the ones that were
    // cut off.
    for i in 0..LOAD {
        cluster.submit(Value::from_u64(0x0300_0000 + i));
    }
    let window = recovery_window(base_timeout, scenario.max_delay());
    gates.require(
        cluster.await_commands(all, submitted + LOAD, window),
        format_args!("liveness must return within {window:?} of heal"),
    );
    let (fast2, slow2) = totals(&registry);

    // Property 1: safety, always.
    gates.require(cluster.logs_agree(), "log divergence under faults");

    // Property 3: path attribution per the scenario's expectation.
    let (fast_during, slow_during) = (fast1 - fast0, slow1 - slow0);
    let fast_after = fast2 - fast1;
    match scenario.expectation {
        PathExpectation::FastRecovers => {
            gates.require(
                fast_after > 0,
                format_args!(
                    "fast path must produce commits after heal (fast {fast0}→{fast1}→{fast2})"
                ),
            );
        }
        PathExpectation::SlowWhileFaulted => {
            gates.require(
                slow_during > 0,
                "commits during the fault must exist on the slow path",
            );
            gates.require(
                slow_during > fast_during,
                format_args!(
                    "with the fast quorum unreachable, the slow path must carry \
                     the fault window (fast {fast_during}, slow {slow_during})"
                ),
            );
            gates.require(fast_after > 0, "the fast path must resume after heal");
        }
        PathExpectation::StallAllowed => {
            gates.require(
                fast_after > 0,
                "a stalled cluster must resume fast commits after heal",
            );
        }
    }

    // Every fault kind the script injects must actually have fired —
    // otherwise the run proved nothing.
    let injected = [
        registry.total(|m| &m.fault_delay_injected_total),
        registry.total(|m| &m.fault_drop_injected_total),
        registry.total(|m| &m.fault_dup_injected_total),
        registry.total(|m| &m.fault_partition_drop_total),
    ];
    for ((promised, fired), kind) in scenario.injects().into_iter().zip(injected).zip(KINDS) {
        gates.require(
            !promised || fired > 0,
            format_args!("the script's {kind} injection never fired"),
        );
    }

    cluster.shutdown();
    ChaosReport {
        fast: [fast0, fast_during, fast_after],
        slow: [slow0, slow_during, slow2 - slow1],
        injected,
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    /// A failed gate writes all three kinds of file — the registry, the
    /// script, each replica's recorder — and names their directory.
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
            dir: &root,
            base_timeout: Duration::from_millis(40),
        };
        let failed = catch_unwind(AssertUnwindSafe(|| gates.require(false, "gate under test")));
        let message = *failed.unwrap_err().downcast::<String>().unwrap();
        let dir = root.join("partition-the-fast-quorum-n4");
        let named = format!(
            "[partition-the-fast-quorum] gate under test (post-mortem: {})",
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
             max_delay 0ns, injects [\"delay\", \"loss\", \"duplication\", \"partition\"] \
             [false, false, false, true], base_timeout 40ms"
        );
        let isolated = "t+0ns isolate fast quorum margin: LinkRules { pairs: {}, by_src: \
                        {ProcessId(3): LinkProfile { delay: 0ns, jitter: 0ns, loss: 0.0,";
        assert!(lines[1].starts_with(isolated), "{script}");
        let healed = "t+1s heal partition: LinkRules { pairs: {}, by_src: {}, by_dst: {} }";
        assert_eq!(lines[2], healed);
        std::fs::remove_dir_all(&root).expect("clean up");
    }
}
