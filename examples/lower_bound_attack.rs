//! E4 — Figures 2–4 / Theorem 4.5: the lower bound, executed.
//!
//! Runs the five-execution adversary's ρ2 against the protocol twice:
//!
//! * `n = 3f + 2t − 2 = 8` (one process **below** the bound): the attack
//!   forces disagreement — the bound is tight;
//! * `n = 3f + 2t − 1 = 9` (the paper's bound): the identical adversary is
//!   powerless — quorum intersection (QI2) forces every later view to adopt
//!   the fast-decided value.
//!
//! Run with: `cargo run --release --example lower_bound_attack`

use fastbft::core::lower_bound::{at_bound_n, below_bound_n, run_attack, FAST_DECIDER};

fn main() {
    println!("# E4 / Theorem 4.5 — the 3f + 2t − 1 lower bound, executed (f = t = 2)\n");

    for (n, label) in [
        (below_bound_n(), "below the bound (3f + 2t − 2)"),
        (at_bound_n(), "at the bound (3f + 2t − 1)"),
    ] {
        println!("## n = {n} — {label}\n");
        let outcome = run_attack(n, 1);
        let (t, v) = outcome.fast_decision.clone().expect("P3 decides fast");
        println!("  {FAST_DECIDER} (group P3) decided {v} at {t} — two message delays");
        println!("  all correct decisions:");
        for (p, time, value) in &outcome.decisions {
            println!("    {p} decided {value} at {time}");
        }
        println!("  disagreement : {}", outcome.disagreement);
        println!("  violations   : {:?}\n", outcome.violations);
        if n == below_bound_n() {
            assert!(
                outcome.disagreement,
                "the attack must succeed below the bound"
            );
        } else {
            assert!(!outcome.disagreement, "the attack must fail at the bound");
            assert!(outcome.violations.is_empty());
        }
    }

    println!("conclusion: the same adversary breaks safety at n = 3f + 2t − 2 and is");
    println!("harmless at n = 3f + 2t − 1 — the paper's bound is tight, executably. ✓");
}
