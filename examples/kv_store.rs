//! A replicated key-value store: the paper's state-machine-replication
//! motivation (§1.1) made concrete.
//!
//! Clients broadcast commands to every replica; each log slot runs one
//! instance of the fast consensus protocol with rotating slot leadership;
//! every replica applies the decided commands in slot order and ends with a
//! byte-identical store.
//!
//! Run with: `cargo run --example kv_store`

use fastbft::sim::{Network, SimDuration, SimTime};
use fastbft::smr::{KvCommand, KvStore, SmrSimCluster};
use fastbft::types::Config;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = Config::new(4, 1, 1)?;
    println!("replicated KV store on {cfg}, rotating slot leadership");

    // Ten client commands, broadcast by the client to every replica.
    let workload: Vec<KvCommand> = vec![
        KvCommand::Put {
            key: "alice".into(),
            value: "120".into(),
        },
        KvCommand::Put {
            key: "bob".into(),
            value: "80".into(),
        },
        KvCommand::Get {
            key: "alice".into(),
        },
        KvCommand::Put {
            key: "carol".into(),
            value: "300".into(),
        },
        KvCommand::Delete { key: "bob".into() },
        KvCommand::Put {
            key: "alice".into(),
            value: "150".into(),
        },
        KvCommand::Get {
            key: "carol".into(),
        },
        KvCommand::Put {
            key: "dave".into(),
            value: "42".into(),
        },
        KvCommand::Put {
            key: "erin".into(),
            value: "7".into(),
        },
        // Note: commands are identified by their bytes and execute at most
        // once, so this read targets a different key than the earlier Get
        // (a client re-reading "alice" would tag the command with its own
        // id + sequence number to make the bytes distinct).
        KvCommand::Get { key: "erin".into() },
    ];
    // The client broadcasts every command to all replicas.
    let queue: Vec<_> = workload.iter().map(KvCommand::to_value).collect();
    let commands = vec![queue; cfg.n()];

    let mut cluster = SmrSimCluster::new(
        cfg,
        2024,
        KvStore::new(),
        commands,
        Network::synchronous(SimDuration::DELTA),
        |_, node| Box::new(node),
    );
    let total = workload.len() as u64;
    let report = cluster.run_until(SimTime(1_000_000), |c| {
        c.report().commands_everywhere >= total
    });

    println!(
        "applied {} commands everywhere in {} (≈ {:.2} commands per Δ)",
        report.commands_everywhere, report.final_time, report.commands_per_delta
    );
    // `run_until` returned: the SMR checker found the states equal.
    let reference = cluster.node(fastbft::types::ProcessId(1)).machine();
    println!("\nfinal store ({} keys):", reference.len());
    for key in ["alice", "carol", "dave", "erin"] {
        println!(
            "  {key} = {:?}",
            reference.get(key).cloned().unwrap_or_default()
        );
    }
    println!(
        "\nall {} replicas report identical state digests ✓",
        cfg.n()
    );
    assert_eq!(reference.get("alice"), Some(&"150".to_string()));
    assert_eq!(reference.get("bob"), None);
    Ok(())
}
