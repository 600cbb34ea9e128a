//! E5 + E6 + E12 — the compared protocols at their minimum process counts
//! (§1.2, §5).
//!
//! For every `(f, t)` with `1 ≤ t ≤ f ≤ 4`, every [`ProtocolKind`] runs at
//! its own minimum `n` through `fastbft::baselines::run`, on an identical
//! synchronous network, all processes correct, unanimous inputs. Each row
//! reports `n` (E5: `3f + 2t − 1` against FaB's `3f + 2t + 1` and PBFT's
//! `3f + 1`), the decision latency in message delays (E6: 2 against
//! PBFT's 3) and the messages and bytes of the decision (E12: `Θ(n²)` for
//! all three), and asserts the latency, a clean run and that one process
//! fewer is refused.
//!
//! Run with: `cargo run --release --example protocol_table`

use fastbft::baselines::run;
use fastbft::core::cluster::Report;
use fastbft::sim::{Network, SimDuration};
use fastbft::types::{ProtocolKind, Value};

fn run_all_correct(kind: ProtocolKind, f: usize, t: usize, n: usize) -> Report {
    let report = run(
        kind,
        f,
        t,
        1,
        Network::synchronous(SimDuration::DELTA),
        vec![Value::from_u64(7); n],
        &[],
    );
    assert!(
        report.all_decided && report.violations.is_empty(),
        "{kind}: {:?}",
        report.violations
    );
    report
}

fn main() {
    println!("# E5 + E6 + E12 — every protocol at its minimum n (synchronous, all correct)\n");
    println!("| f | t | protocol | n | delays | messages | bytes | msgs/n² |");
    println!("|---|---|---|---|---|---|---|---|");
    for f in 1..=4usize {
        for t in 1..=f {
            for kind in ProtocolKind::ALL {
                let n = kind.min_n(f, t);
                assert!(
                    kind.config(n - 1, f, t).is_err(),
                    "{kind} accepted n = {}",
                    n - 1
                );
                let report = run_all_correct(kind, f, t, n);
                let delays = report.decision_delays_max();
                assert_eq!(
                    delays,
                    kind.common_case_delays() as u64,
                    "{kind} at f = {f}, t = {t}"
                );
                let (messages, bytes) = (report.stats.messages, report.stats.bytes);
                let per_n2 = messages as f64 / (n * n) as f64;
                println!(
                    "| {f} | {t} | {kind} | {n} | {delays} | {messages} | {bytes} | {per_n2:.2} |"
                );
            }
            let gap = ProtocolKind::FabPaxos.min_n(f, t) - ProtocolKind::Ktz.min_n(f, t);
            assert_eq!(gap, 2, "KTZ21 against FaB at f = {f}, t = {t}");
        }
    }

    println!("\nheadline (f = t = 1): this paper 4 processes, FaB 6, PBFT 4-but-3-step.");
    println!("vanilla (t = f): 5f − 1 vs FaB's 5f + 1 — two fewer at every f.");
    println!("shape: both fast protocols at 2 delays, PBFT at 3, every protocol refusing");
    println!("n one below its minimum — at every (f, t). ✓");

    println!("\nper-kind breakdown for KTZ21's generalized mode (n = 8, f = 2, t = 1):");
    let report = run_all_correct(ProtocolKind::Ktz, 2, 1, 8);
    for (kind, (count, bytes)) in &report.stats.by_kind {
        println!("  {kind:<10} {count:>5} msgs {bytes:>8} B");
    }
    println!("\nshape: all three protocols are Θ(n²) messages in the common case; the");
    println!("fast protocols trade the third latency round for the all-to-all ack. ✓");
}
