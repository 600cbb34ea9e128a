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
//! registry's JSON dump and every replica's flight-recorder tail (the
//! script's `chaos-step` events sit in replica 0's), in a directory the
//! caller names and the panic message repeats.
//!
//! The harness is transport-generic: hand it seats built over the
//! channel mesh or over TCP (`fastbft_net::tcp_seats_metered`), wrapped
//! by [`fastbft_runtime::wrap_seats_metered`] either way — the same
//! scenarios and the same assertions run on both, which is exactly the
//! chaos suite's CI matrix.

use std::path::Path;
use std::time::{Duration, Instant};

use fastbft_obs::MetricsRegistry;
use fastbft_runtime::chaos::{run_scenario, PathExpectation, Scenario};
use fastbft_runtime::faults::FaultPlan;
use fastbft_runtime::{spawn_with, NodeSeat, Transport};
use fastbft_types::{Config, ProcessId, Value};

use crate::multiplex::SlotMessage;
use crate::runtime::SmrClusterHandle;

/// How much load the harness offers around the fault window.
#[derive(Clone, Copy, Debug)]
pub struct ChaosLoad {
    /// Commands committed *before* the fault starts (healthy baseline,
    /// also warms sessions).
    pub warmup: u64,
    /// Commands submitted *while* the fault holds.
    pub during: u64,
    /// Commands submitted *after* the script completes.
    pub after: u64,
}

impl Default for ChaosLoad {
    fn default() -> Self {
        ChaosLoad {
            warmup: 6,
            during: 6,
            after: 6,
        }
    }
}

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
    name: &'static str,
    registry: &'a MetricsRegistry,
    dir: &'a Path,
}

impl Gates<'_> {
    /// Panics with `what` unless `ok`, after writing `metrics.json` and one
    /// `recorder-pN.txt` per replica under `dir/<scenario>-n<n>/` (the
    /// suites run one scenario at two cluster sizes).
    #[track_caller]
    fn require(&self, ok: bool, what: impl std::fmt::Display) {
        if ok {
            return;
        }
        let dir = self
            .dir
            .join(format!("{}-n{}", self.name, self.registry.len()));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(dir.join("metrics.json"), self.registry.render_json())?;
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
        let name = self.name;
        match written {
            Ok(()) => panic!("[{name}] {what} (post-mortem: {})", dir.display()),
            Err(e) => panic!(
                "[{name}] {what} (post-mortem not written to {}: {e})",
                dir.display()
            ),
        }
    }
}

/// Runs `scenario` against a cluster built from `seats` (already wrapped
/// in [`FaultTransport`](fastbft_runtime::FaultTransport)s on `plan`,
/// metered into `registry`) and asserts the three degradation
/// properties. `base_timeout` is the wall-clock view-1 timeout the
/// replicas were built with — derive it from the scenario
/// ([`Scenario::base_timeout_ticks`]), never hand-tune it per test. A
/// failed gate writes its post-mortem under
/// `postmortem/<scenario name>-n<n>/`.
///
/// # Panics
///
/// Panics — failing the calling test — if any degradation property is
/// violated: log divergence, liveness not restored within the recovery
/// window, commit-path attribution contradicting the scenario's
/// expectation, or a fault class the scenario promises to inject never
/// firing.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos<T: Transport<SlotMessage>>(
    seats: Vec<NodeSeat<SlotMessage, T>>,
    cfg: Config,
    idle: Value,
    registry: MetricsRegistry,
    plan: FaultPlan,
    mut scenario: Scenario,
    tick: Duration,
    base_timeout: Duration,
    load: ChaosLoad,
    postmortem: &Path,
) -> ChaosReport {
    let n = cfg.n();
    assert_eq!(seats.len(), n, "one seat per process");
    let gates = Gates {
        name: scenario.name,
        registry: &registry,
        dir: postmortem,
    };
    let all: Vec<ProcessId> = (0..n).map(ProcessId::from_index).collect();
    let totals = |registry: &MetricsRegistry| -> (u64, u64) {
        (
            registry.total(|m| &m.commit_fast_total),
            registry.total(|m| &m.commit_slow_total),
        )
    };

    let mut cluster = SmrClusterHandle::new(spawn_with(seats, tick), n, idle);
    cluster.attach_metrics(registry.clone());

    // Phase 1: healthy baseline. Commands are tagged by phase so replays
    // and duplicates can never alias across phases.
    for i in 0..load.warmup {
        cluster.submit(Value::from_u64(0x0100_0000 + i));
    }
    gates.require(
        cluster.await_commands(all.clone(), load.warmup, Duration::from_secs(30)),
        "warmup load must commit on a healthy cluster",
    );
    let (fast0, slow0) = totals(&registry);

    // Phase 2: the fault window. The script's t + 0 step is in force when
    // `run_scenario` returns, the rest runs on its own thread; the harness
    // offers load underneath it.
    let fault_started = Instant::now();
    let run = run_scenario(&plan, &mut scenario, registry.replica(0));
    for i in 0..load.during {
        cluster.submit(Value::from_u64(0x0200_0000 + i));
    }
    let mut submitted = load.warmup + load.during;
    let (fast1, slow1);
    if scenario.expectation == PathExpectation::SlowWhileFaulted {
        // The survivors must keep committing *while* the fault holds —
        // wait for them inside the window and snapshot before heal fires,
        // so the during-window counters cannot be polluted by a healed
        // fast path racing ahead.
        let survivors: Vec<ProcessId> = all[..n - (cfg.t() + 1)].to_vec();
        let window = || {
            scenario
                .heal_at
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
        run.join();
    } else {
        // No mid-window gate: let the script run out (its last step is
        // the heal), then snapshot — the during bucket covers the whole
        // fault window.
        run.join();
        (fast1, slow1) = totals(&registry);
    }

    // Phase 3: post-heal. Liveness must return within the derived
    // recovery window, on every replica — including the ones that were
    // cut off.
    for i in 0..load.after {
        cluster.submit(Value::from_u64(0x0300_0000 + i));
    }
    let total = submitted + load.after;
    let window = scenario.recovery_window(base_timeout);
    gates.require(
        cluster.await_commands(all, total, window),
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

    // The fault classes the scenario promises must actually have fired —
    // otherwise the run proved nothing.
    if scenario.injects_delays {
        gates.require(
            plan.injected_delays() > 0,
            "promised delay injection never fired",
        );
    }
    if scenario.injects_drops {
        gates.require(
            plan.injected_drops() > 0,
            "promised loss injection never fired",
        );
    }
    if scenario.injects_partitions {
        gates.require(
            plan.partition_drops() > 0,
            "promised partition never dropped a delivery",
        );
    }

    cluster.shutdown();
    ChaosReport {
        fast: [fast0, fast_during, fast_after],
        slow: [slow0, slow_during, slow2 - slow1],
        injected: [
            plan.injected_delays(),
            plan.injected_drops(),
            plan.injected_dups(),
            plan.partition_drops(),
        ],
    }
}
