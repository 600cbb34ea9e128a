//! Four replicas reaching consensus over real loopback TCP sockets.
//!
//! The same `Replica` state machines that run under the simulator and the
//! channel runtime here talk through `fastbft::net`: length-prefixed
//! frames, HMAC-SHA256 session MACs, signed handshakes — the paper's
//! "reliable authenticated point-to-point links" (§2.1) made of actual
//! sockets. Run with:
//!
//! ```bash
//! cargo run --release --example tcp_cluster
//! ```

use std::time::Duration;

use fastbft::core::{Message, Replica};
use fastbft::crypto::KeyDirectory;
use fastbft::net::spawn_tcp;
use fastbft::sim::Actor;
use fastbft::types::{Config, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's headline configuration: n = 3f + 2t − 1 = 4.
    let cfg = Config::new(4, 1, 1)?;
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), 2026);
    let actors: Vec<Box<dyn Actor<Message> + Send>> = pairs
        .iter()
        .map(|keys| -> Box<dyn Actor<Message> + Send> {
            Box::new(Replica::new(
                cfg,
                keys.clone(),
                dir.clone(),
                Value::from_u64(7),
            ))
        })
        .collect();

    let (cluster, addrs) = spawn_tcp(actors, pairs, dir)?;
    println!("n = 4, f = t = 1 replicas listening on:");
    for (i, addr) in addrs.iter().enumerate() {
        println!("  p{} @ {addr}", i + 1);
    }

    let decisions = cluster.await_decisions(4, Duration::from_secs(10));
    cluster.shutdown();

    assert_eq!(decisions.len(), 4, "all four replicas must decide");
    println!("\ndecisions over TCP:");
    for d in &decisions {
        assert_eq!(d.value, Value::from_u64(7), "agreement violated");
        println!(
            "  {} decided {:?} after {:?}",
            d.process, d.value, d.elapsed
        );
    }
    println!("\nunanimous decision over authenticated loopback TCP ✓");
    Ok(())
}
