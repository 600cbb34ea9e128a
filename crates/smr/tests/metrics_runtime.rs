//! End-to-end metrics: a live SMR cluster is scraped while (and after) it
//! commits, and the exposition must reflect what actually happened —
//! fast-path commits counted, latency histograms populated, both exporters
//! well-formed.

use std::time::Duration;

use fastbft_obs::MetricsRegistry;
use fastbft_runtime::channel_seats;
use fastbft_sim::ScriptedActor;
use fastbft_smr::{KvCommand, KvStore, SmrClusterHandle};
use fastbft_types::Config;

/// A channel-mesh cluster whose seats in `silent` hold a silent actor.
fn metered_cluster(cfg: Config, seed: u64, silent: &[u32]) -> (SmrClusterHandle, MetricsRegistry) {
    let cluster = SmrClusterHandle::spawn(
        cfg,
        seed,
        KvStore::new(),
        vec![Vec::new(); cfg.n()],
        |actors, _, _, _| channel_seats(actors),
        |p, node| {
            if silent.contains(&p.0) {
                Box::new(ScriptedActor::silent())
            } else {
                Box::new(node)
            }
        },
    );
    let registry = cluster.registry().clone();
    (cluster, registry)
}

#[test]
fn scrape_reflects_commits_on_a_running_cluster() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (mut cluster, registry) = metered_cluster(cfg, 11, &[]);
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

/// Renders repeatedly while the cluster is actively committing: the
/// exporters read the same atomics the hot path writes, so this is the
/// torn-read regression test for the scrape path. Each input is a
/// configuration and the seats it silences: every seat live at n = 4 and
/// at n = 8 (f = 2, t = 1); p4 silent, whose slots the others take over
/// while the rest stay on the fast path; p2 silent, the leader of slot 0,
/// passed by a view change on real timers.
#[test]
fn scrape_is_safe_while_replicas_are_mid_commit() {
    for (cfg, silent) in [
        (Config::new(4, 1, 1), &[][..]),
        (Config::new(4, 1, 1), &[4]),
        (Config::new(4, 1, 1), &[2]),
        (Config::new(8, 2, 1), &[]),
    ] {
        let cfg = cfg.unwrap();
        let (mut cluster, _registry) = metered_cluster(cfg, 13, silent);
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
        let live = cfg.processes().filter(|p| !silent.contains(&p.0));
        assert!(
            cluster.await_commands(live, 20, Duration::from_secs(30)),
            "n = {}, silent {silent:?}: logs {:?}",
            cfg.n(),
            cluster.logs()
        );
        assert_eq!(cluster.violations(), []);
        cluster.shutdown();
    }
}
