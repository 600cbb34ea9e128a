//! E1 + E2 + E3 + E8 — the paper's figures, run in virtual time.
//!
//! * Figure 1a, the fast path: a correct leader proposes in view 1, every
//!   process acks to everyone, and `n − t` acks decide after two message
//!   delays. This is the paper's headline configuration (`n = 4`,
//!   `f = t = 1`): the minimum process count for *any* partially
//!   synchronous Byzantine consensus, two-step where FaB needs six.
//! * Figure 1b, the view change: the view-1 leader is silent, so the
//!   system synchronizes into view 2, whose leader collects `n − f` votes,
//!   runs the selection algorithm, gathers `f + 1` CertAck signatures into
//!   a *bounded* progress certificate and proposes.
//! * Figure 5, the slow path (`n = 7, f = 2, t = 1`): with two silent
//!   followers only 5 processes ack, below the fast quorum `n − t = 6`, but
//!   5 = `⌈(n+f+1)/2⌉` signature shares form a commit certificate, the
//!   `Commit` round runs, and everyone decides after three message delays.
//! * Appendix A: crash `k` followers at time Δ (honest in round 1, silent
//!   after — the lower bound's failure model) and the survivors decide in
//!   two delays while `k ≤ t`, in three while `t < k ≤ f`.
//!
//! Each scenario asserts the numbers it prints.
//!
//! Run with: `cargo run --release --example figures`

use fastbft::core::cluster::{Behavior, SimCluster};
use fastbft::sim::SimTime;
use fastbft::types::{Config, ProcessId, Value, View};

/// Runs one figure: every process proposes `input`, the `silent` ones send
/// nothing. Prints the configuration, `setup`, the message flow and the
/// per-kind counts; asserts a clean unanimous decision of `input` after
/// `delays` message delays, with exactly the message `kinds` sent.
fn figure(
    title: &str,
    cfg: Config,
    setup: &str,
    input: u64,
    silent: &[ProcessId],
    delays: u64,
    kinds: &[&str],
) {
    println!("# {title}\n");
    println!("configuration: {cfg}");
    println!("  vote quorum (n-f):        {}", cfg.vote_quorum());
    println!("  fast quorum (n-t):        {}", cfg.fast_quorum());
    println!("  progress cert (f+1):      {}", cfg.cert_quorum());
    println!("  slow quorum ⌈(n+f+1)/2⌉:  {}", cfg.slow_quorum());
    println!("{setup}\n");

    let mut builder = SimCluster::builder(cfg).inputs_u64(vec![input; cfg.n()]);
    for &p in silent {
        builder = builder.behavior(p, Behavior::Silent);
    }
    let mut cluster = builder.build();
    let report = cluster.run_until_all_decide();

    let (value, latency) = (
        report.unanimous_decision().unwrap(),
        report.decision_delays_max(),
    );
    let (stats, messages, bytes) = (&report.stats, report.stats.messages, report.stats.bytes);
    println!("message flow:");
    print!("{}", cluster.trace().render_flow(report.delta));
    println!("\nobservations:");
    println!("  decided value  : {value:?}");
    println!("  latency        : {latency} message delays");
    println!("  messages       : {messages} ({bytes} bytes)");
    for (kind, (count, kind_bytes)) in &stats.by_kind {
        println!("    {kind:<10} {count:>4} msgs {kind_bytes:>7} B");
    }
    println!();

    assert!(
        report.all_decided && report.violations.is_empty(),
        "{title}: {:?}",
        report.violations
    );
    assert_eq!(value, Value::from_u64(input), "{title}");
    assert_eq!(latency, delays, "{title}");
    let sent: Vec<&str> = stats.by_kind.keys().copied().collect();
    assert_eq!(sent, kinds, "{title}");
}

/// Runs `(n, f, t)` with `k` followers crashing at Δ; returns the
/// survivors' decision latency in message delays.
fn crashed_followers(n: usize, f: usize, t: usize, k: usize) -> u64 {
    let cfg = Config::new(n, f, t).unwrap();
    let leader = cfg.leader(View::FIRST);
    let mut builder = SimCluster::builder(cfg).inputs_u64(vec![7; n]);
    let followers: Vec<_> = cfg.processes().filter(|&p| p != leader).take(k).collect();
    assert_eq!(followers.len(), k, "not enough followers to crash");
    for p in followers {
        builder = builder.behavior(p, Behavior::CrashAt(SimTime(100)));
    }
    let report = builder.build().run_until_all_decide();
    assert!(
        report.all_decided && report.violations.is_empty(),
        "(n={n},f={f},t={t},k={k}): {:?}",
        report.violations
    );
    report.decision_delays_max()
}

fn main() {
    let headline = Config::new(4, 1, 1).unwrap();
    let (leader1, leader2) = (headline.leader(View::FIRST), headline.leader(View(2)));
    figure(
        "E1 / Figure 1a — fast path (n = 4, f = t = 1)",
        headline,
        &format!("leader(1) = {leader1}"),
        7,
        &[],
        2,
        &["ack", "propose"],
    );
    // Timeout, view change, then the fast path in view 2.
    figure(
        "E2 / Figure 1b — view change (n = 4, f = t = 1, silent leader)",
        headline,
        &format!("leader(1) = {leader1} (Byzantine: silent), leader(2) = {leader2}"),
        5,
        &[leader1],
        14,
        &["CertAck", "CertReq", "ack", "propose", "vote", "wish"],
    );
    // Two silent processes, neither of them the view-1 leader (p2).
    let slow = Config::new(7, 2, 1).unwrap();
    figure(
        "E3 / Figure 5 — slow path (n = 7, f = 2, t = 1, two silent followers)",
        slow,
        &format!("leader(1) = {}, silent: p5, p6", slow.leader(View::FIRST)),
        4,
        &[ProcessId(5), ProcessId(6)],
        3,
        &["Commit", "ack", "propose"],
    );

    println!("# E8 — decision latency vs actual failures (crash at Δ, leader correct)\n");
    println!("| n | f | t | actual failures | delays | path |");
    println!("|---|---|---|---|---|---|");
    for (n, f, t) in [(4, 1, 1), (7, 2, 1), (9, 2, 2), (10, 3, 1)] {
        for k in 0..=f {
            let delays = crashed_followers(n, f, t, k);
            let (path, expected) = [("fast (2Δ)", 2), ("slow (3Δ)", 3)][(k > t) as usize];
            println!("| {n} | {f} | {t} | {k} | {delays} | {path} |");
            assert_eq!(delays, expected, "(n={n},f={f},t={t},k={k})");
        }
    }

    println!("\nshape: two delays while failures ≤ t, three while t < failures ≤ f —");
    println!("exactly the generalized protocol's guarantee (Appendix A). ✓");
}
