//! The chaos catalog in virtual time: every catalog scenario at n = 4 and
//! n = 7, each over [`SEEDS`] through
//! [`fastbft_smr::chaos::run_chaos_virtual`], which asserts every gate —
//! the SMR checker finds no violation (agreement, at most once,
//! convergence), liveness returns within the recovery window, the commit
//! path matches the scenario, every promised fault fired — and names the
//! scenario, `n` and the seed of a run that fails one. A run is a pure
//! function of its seed: the keys, the jitter on the links the script
//! leaves alone, and every fate the plan draws. The same catalog runs over
//! real loopback TCP at one seed in `crates/net/tests/chaos_suite.rs`.

use std::ops::RangeInclusive;
use std::path::Path;

use fastbft_runtime::chaos::Scenario;
use fastbft_smr::chaos::run_chaos_virtual;
use fastbft_types::Config;

/// The seeds every (scenario, n) runs under.
const SEEDS: RangeInclusive<u64> = 1..=32;

#[test]
fn every_scenario_passes_every_gate_on_every_seed() {
    let postmortem = Path::new(env!("CARGO_TARGET_TMPDIR")).join("postmortem/chaos_virtual");
    for cfg in [Config::new(7, 2, 1), Config::new(4, 1, 1)] {
        let cfg = cfg.unwrap();
        for scenario in Scenario::catalog(&cfg) {
            for seed in SEEDS {
                run_chaos_virtual(cfg, &scenario, seed, &postmortem);
            }
        }
    }
}
