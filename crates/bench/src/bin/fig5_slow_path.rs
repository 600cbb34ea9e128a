//! E3 — Figure 5: the slow path of the generalized protocol.
//!
//! The paper's figure uses `n = 7, f = 2, t = 1`. With **two** actual
//! failures (more than `t`, at most `f`), only `n − 2 = 5` processes ack —
//! below the fast quorum `n − t = 6` — so nobody decides in two steps.
//! But 5 = `⌈(n+f+1)/2⌉` signature shares form a commit certificate, the
//! `Commit` round runs, and everyone decides after **three** message
//! delays.

use fastbft_core::cluster::{Behavior, SimCluster};
use fastbft_types::{Config, ProcessId, Value};

fn main() {
    println!("# E3 / Figure 5 — slow path (n = 7, f = 2, t = 1, two silent followers)\n");
    let cfg = Config::new(7, 2, 1).expect("7 = 3f + 2t - 1 for f=2, t=1");
    println!(
        "fast quorum (n-t) = {}, slow quorum ⌈(n+f+1)/2⌉ = {}\n",
        cfg.fast_quorum(),
        cfg.slow_quorum()
    );

    // Two silent processes (p5, p6) — neither is the view-1 leader (p2).
    let mut cluster = SimCluster::builder(cfg)
        .inputs_u64([4, 4, 4, 4, 4, 4, 4])
        .behavior(ProcessId(5), Behavior::Silent)
        .behavior(ProcessId(6), Behavior::Silent)
        .build();
    let report = cluster.run_until_all_decide();

    println!("message flow:");
    print!("{}", cluster.trace().render_flow(report.delta));

    println!("\nobservations:");
    println!(
        "  decided value  : {:?}",
        report.unanimous_decision().unwrap()
    );
    println!(
        "  latency        : {} message delays",
        report.decision_delays_max()
    );
    for (kind, (count, bytes)) in &report.stats.by_kind {
        println!("    {kind:<10} {count:>4} msgs {bytes:>7} B");
    }

    assert_eq!(report.unanimous_decision(), Some(Value::from_u64(4)));
    assert_eq!(
        report.decision_delays_max(),
        3,
        "slow path: three message delays when t < failures <= f"
    );
    // The shares ride inside the acks; a Commit round proves they were
    // sent and assembled into a certificate.
    assert!(
        report.stats.by_kind.contains_key("Commit"),
        "Commit round ran"
    );
    assert!(report.violations.is_empty());
    println!("\nslow path reproduced: decide after three message delays via commit certificates ✓");
}
