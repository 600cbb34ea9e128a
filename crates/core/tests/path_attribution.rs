//! Path attribution: the metrics plane must agree with the protocol about
//! *how* each decision was reached.
//!
//! The paper's headline claim is the fast path — two message delays while
//! at most `t` processes are faulty — with a PBFT-like slow path behind it
//! when `t < f` (Appendix A). The per-replica counters
//! (`commit_fast_total`, `commit_slow_total`, `view_change_total`) exist so
//! a deployment can *see* which regime it is in; these tests pin the
//! attribution to scenarios where the correct answer is forced:
//!
//! * a clean synchronous run decides on the fast path, every replica, no
//!   view changes;
//! * with fewer than `n − t` live processes the fast quorum is
//!   unreachable, so every decision must be attributed to the slow path;
//! * a silent first leader forces a view change on every live replica
//!   before any decision.

use fastbft_core::cluster::{Behavior, SimCluster};
use fastbft_obs::MetricsRegistry;
use fastbft_types::{Config, ProcessId, View};

#[test]
fn clean_run_attributes_every_decision_to_the_fast_path() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let registry = MetricsRegistry::new(cfg.n());
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64([7, 7, 7, 7])
        .metrics(&registry)
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided, "violations: {:?}", report.violations);
    assert_eq!(report.decision_delays_max(), 2);

    for i in 0..cfg.n() {
        let m = registry.metrics(i);
        assert_eq!(
            m.commit_fast_total.get(),
            1,
            "p{} must decide exactly once, on the fast path",
            i + 1
        );
        assert_eq!(
            m.commit_slow_total.get(),
            0,
            "p{} used the slow path",
            i + 1
        );
        assert_eq!(m.view_change_total.get(), 0, "p{} changed views", i + 1);
    }
    // The scrape agrees with the raw counters.
    let text = registry.render_text();
    assert!(text.contains("fastbft_commit_fast_total{replica=\"p1\"} 1"));
    assert!(text.contains("fastbft_commit_slow_total{replica=\"p1\"} 0"));
}

#[test]
fn unreachable_fast_quorum_attributes_decisions_to_the_slow_path() {
    // n = 7, f = 2, t = 1: fast quorum n − t = 6, slow quorum
    // ⌈(n+f+1)/2⌉ = 5, slow path on (t < f). Two silent processes leave 5
    // live — the fast quorum is unreachable, the slow quorum is exactly
    // reachable, so the slow path is the *only* way to decide.
    let cfg = Config::new(7, 2, 1).unwrap();
    let leader = cfg.leader(View::FIRST);
    // Silence two non-leader seats so no view change is needed.
    let silent: Vec<ProcessId> = cfg.processes().filter(|p| *p != leader).take(2).collect();
    let registry = MetricsRegistry::new(cfg.n());
    let mut builder = SimCluster::builder(cfg)
        .inputs_u64([4; 7])
        .metrics(&registry);
    for p in &silent {
        builder = builder.behavior(*p, Behavior::Silent);
    }
    let mut cluster = builder.build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided, "violations: {:?}", report.violations);

    assert_eq!(
        registry.total(|m| &m.commit_fast_total),
        0,
        "a fast-path decision with only n − t − 1 live processes is impossible"
    );
    assert_eq!(
        registry.total(|m| &m.commit_slow_total),
        (cfg.n() - silent.len()) as u64,
        "every live replica must decide via the slow path"
    );
    for p in cfg.processes() {
        let m = registry.metrics(p.index());
        let expected = u64::from(!silent.contains(&p));
        assert_eq!(
            m.commit_slow_total.get(),
            expected,
            "slow-path attribution for p{}",
            p.0
        );
    }
}

#[test]
fn silent_leader_is_visible_as_view_changes_before_the_decision() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let leader = cfg.leader(View::FIRST);
    let registry = MetricsRegistry::new(cfg.n());
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64([5, 5, 5, 5])
        .behavior(leader, Behavior::Silent)
        .metrics(&registry)
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided, "violations: {:?}", report.violations);
    assert!(report.decision_delays_max() > 2);

    let live: Vec<ProcessId> = cfg.processes().filter(|p| *p != leader).collect();
    let first_count = registry.metrics(live[0].index()).view_change_total.get();
    assert!(
        first_count >= 1,
        "the silent leader must force a view change"
    );
    for p in &live {
        let m = registry.metrics(p.index());
        assert_eq!(
            m.view_change_total.get(),
            first_count,
            "live replicas advance through the same views (p{})",
            p.0
        );
        // Once past the dead leader, n = 4 still has its full fast quorum
        // (n − t = 3 live), so the decision itself is a fast-path one.
        assert_eq!(m.commit_fast_total.get(), 1);
        assert_eq!(m.commit_slow_total.get(), 0);
    }
    // The silent seat recorded nothing: its Metrics slice exists but was
    // never handed to a replica.
    assert_eq!(registry.metrics(leader.index()).view_change_total.get(), 0);

    // The expired view timer and the view change landed in the flight
    // recorder with the process, the slot (0: a single instance) and the
    // leaders attributed.
    let events = registry.metrics(live[0].index()).recorder.snapshot();
    let p = live[0].0;
    for (kind, detail) in [
        (
            "view-timeout",
            format!("p{p} slot 0 view 1 timed out waiting for p{}", leader.0),
        ),
        (
            "view-change",
            format!("p{p} slot 0 entered view 2 (leader p3)"),
        ),
        ("commit-fast", format!("p{p} decided slot 0 in view 2")),
    ] {
        assert!(
            events.iter().any(|e| e.kind == kind && e.detail == detail),
            "no {kind} event `{detail}` in {events:?}"
        );
    }
}
