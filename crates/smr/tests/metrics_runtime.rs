//! End-to-end metrics: a live SMR cluster is scraped while (and after) it
//! commits, and the exposition must reflect what actually happened —
//! fast-path commits counted, latency histograms populated, both exporters
//! well-formed.

use std::time::Duration;

use fastbft_obs::MetricsRegistry;
use fastbft_runtime::channel_seats;
use fastbft_smr::{KvCommand, KvStore, SmrClusterHandle};
use fastbft_types::Config;

fn metered_cluster(cfg: Config, seed: u64) -> (SmrClusterHandle, MetricsRegistry) {
    let cluster = SmrClusterHandle::spawn(
        cfg,
        seed,
        KvStore::new(),
        vec![Vec::new(); cfg.n()],
        KvCommand::Noop.to_value(),
        |actors, _, _, _| channel_seats(actors),
        |_, node| Box::new(node),
    );
    let registry = cluster.registry().clone();
    (cluster, registry)
}

#[test]
fn scrape_reflects_commits_on_a_running_cluster() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (mut cluster, registry) = metered_cluster(cfg, 11);
    for k in 0..5u64 {
        cluster.submit(
            KvCommand::Put {
                key: format!("k{k}"),
                value: format!("v{k}"),
            }
            .to_value(),
        );
    }
    assert!(cluster.await_commands(cfg.processes(), 5, Duration::from_secs(20)));
    assert_eq!(cluster.violations(), []);

    // Counters: every replica decided slots, and on a clean loopback run
    // the fast path carried them.
    let fast = registry.total(|m| &m.commit_fast_total);
    assert!(
        fast >= cfg.n() as u64,
        "fast commits across cluster: {fast}"
    );

    // Histograms: a committed slot leaves a latency sample on the replica
    // that decided it, and at least one replica proposed a real batch.
    assert!(registry.total(|m| &m.commit_slow_total) <= fast);
    let latency_samples: u64 = (0..cfg.n())
        .map(|i| registry.metrics(i).commit_latency_fast_us.count())
        .sum();
    assert!(latency_samples >= fast, "histogram lost samples");
    let batches: u64 = (0..cfg.n())
        .map(|i| registry.metrics(i).batch_size.count())
        .sum();
    assert!(batches >= 1, "someone must have drained a proposal batch");

    // Both exporters render from the live handle.
    let text = cluster.registry().render_text();
    assert!(text.contains("# TYPE fastbft_commit_fast_total counter"));
    assert!(text.contains("fastbft_commit_latency_fast_us_count"));
    // The leader-suspicion family is exposed on every replica (what it
    // counts is pinned in virtual time by `leader_suspicion.rs`).
    assert!(text.contains("# TYPE fastbft_leader_suspected gauge"));
    for family in [
        "view_skip",
        "slot_revoked",
        "leader_suspect",
        "leader_clear",
    ] {
        assert!(text.contains(&format!("# TYPE fastbft_{family}_total counter")));
        assert!(text.contains(&format!("fastbft_{family}_total{{replica=\"p4\"}}")));
    }
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.is_empty() || line.starts_with("fastbft_"),
            "malformed exposition line: {line:?}"
        );
    }
    let json = cluster.registry().render_json();
    assert!(json.contains("\"commit_fast_total\""));
    assert!(json.contains("\"leader_suspected\""));
    assert!(json.contains("\"view_skip_total\""));
    assert!(json.contains("\"replica\":\"p1\""));

    cluster.shutdown();
}

#[test]
fn scrape_is_safe_while_replicas_are_mid_commit() {
    // Render repeatedly while the cluster is actively committing: the
    // exporters read the same atomics the hot path writes, so this is the
    // torn-read regression test for the scrape path.
    let cfg = Config::new(4, 1, 1).unwrap();
    let (mut cluster, _registry) = metered_cluster(cfg, 13);
    for k in 0..20u64 {
        cluster.submit(
            KvCommand::Put {
                key: format!("x{k}"),
                value: "y".into(),
            }
            .to_value(),
        );
        let text = cluster.registry().render_text();
        assert!(text.contains("fastbft_commit_fast_total"));
    }
    assert!(cluster.await_commands(cfg.processes(), 20, Duration::from_secs(30)));
    assert_eq!(cluster.violations(), []);
    cluster.shutdown();
}
