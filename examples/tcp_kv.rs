//! A replicated key-value store over real loopback TCP sockets.
//!
//! Four replicas run the slot-multiplexed state machine (`fastbft::smr`)
//! on the thread runtime, talking through `fastbft::net`'s authenticated
//! frames. A client submits commands to the *running* cluster; every
//! applied command streams back as a per-slot event, and the final stores
//! are checked byte-identical across replicas. Run with:
//!
//! ```bash
//! cargo run --release --example tcp_kv
//! ```
//!
//! Every replica (and its TCP transport seat) records into the cluster's
//! [`fastbft::obs::MetricsRegistry`]; after the store check the example
//! prints the Prometheus text exposition — commit-path counters, latency
//! histograms, frame/byte totals — exactly what a scrape endpoint would
//! serve.

use std::time::{Duration, Instant};

use fastbft::net::tcp_seats_metered;
use fastbft::smr::runtime::{as_smr_node, SmrClusterHandle};
use fastbft::smr::{KvCommand, KvStore};
use fastbft::types::Config;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's headline configuration: n = 3f + 2t − 1 = 4.
    let cfg = Config::new(4, 1, 1)?;
    let mut addrs = Vec::new();
    // Adaptive batching, as shipped, sizes each slot's batch from live
    // feedback.
    let mut cluster = SmrClusterHandle::spawn(
        cfg,
        2027,
        KvStore::new(),
        vec![Vec::new(); cfg.n()],
        |actors, pairs, dir, registry| {
            let (seats, bound) =
                tcp_seats_metered(actors, pairs, dir, Default::default(), registry)
                    .expect("loopback bind");
            addrs = bound;
            seats
        },
        |_, node| Box::new(node),
    );
    println!("replicated KV store, n = 4, f = t = 1, listening on:");
    for (i, addr) in addrs.iter().enumerate() {
        println!("  p{} @ {addr}", i + 1);
    }

    // Submit a workload to the RUNNING cluster: puts, an overwrite and a
    // delete, each broadcast to all replicas (the §1.1 client model).
    let start = Instant::now();
    let mut submitted = 0u64;
    for i in 0..16 {
        cluster.submit(
            KvCommand::Put {
                key: format!("user:{i}"),
                value: format!("balance={}", 100 * i),
            }
            .to_value(),
        );
        submitted += 1;
    }
    cluster.submit(
        KvCommand::Put {
            key: "user:3".into(),
            value: "balance=0".into(),
        }
        .to_value(),
    );
    cluster.submit(
        KvCommand::Delete {
            key: "user:7".into(),
        }
        .to_value(),
    );
    submitted += 2;

    if !cluster.await_commands(cfg.processes(), submitted, Duration::from_secs(30)) {
        return Err("cluster did not apply the workload in time".into());
    }
    let elapsed = start.elapsed();
    assert_eq!(cluster.violations(), []);

    // The scrape a metrics endpoint would serve, taken while the cluster
    // is still running (exporters read the live atomics).
    let scrape = cluster.registry().render_text();

    let actors = cluster.shutdown();
    let mut digests = Vec::new();
    for (i, actor) in actors.iter().enumerate() {
        let node = as_smr_node::<KvStore>(actor.as_ref()).expect("SMR seat");
        let store = node.machine();
        assert_eq!(store.len(), 15, "p{}: 16 puts − 1 delete = 15 keys", i + 1);
        assert_eq!(store.get("user:3"), Some(&"balance=0".to_string()));
        assert_eq!(store.get("user:7"), None);
        digests.push(store.state_digest());
        println!(
            "  p{}: {} keys, {} commands applied, digest {:?}",
            i + 1,
            store.len(),
            node.commands_applied(),
            store.state_digest(),
        );
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "replica state diverged"
    );
    println!(
        "\n{submitted} commands replicated over authenticated loopback TCP in {elapsed:?} — \
         identical state on all 4 replicas ✓"
    );
    println!("\n# --- metrics scrape (Prometheus text exposition) ---");
    print!("{scrape}");
    Ok(())
}
