//! Case execution: configuration, RNG, and the per-test runner.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG handed to strategies (deterministic per test and case).
pub type TestRng = StdRng;

/// Per-test configuration, mirroring the fields of proptest's
/// `ProptestConfig` that the workspace sets.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(256)
    }
}

/// A failed (or rejected) test case.
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Marks the current case as failed with `message`.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }

    /// The failure message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Runs the configured number of cases for one property.
pub struct TestRunner {
    config: ProptestConfig,
}

impl TestRunner {
    /// Creates a runner for `config`.
    pub fn new(config: ProptestConfig) -> Self {
        TestRunner { config }
    }

    /// Runs `body` once per case with a per-case deterministic RNG, panicking
    /// on the first failure.
    ///
    /// Seeds derive from `name` (FNV-1a) and the case index, so every run of
    /// a given test explores the same inputs; `PROPTEST_SEED` perturbs them
    /// when set.
    pub fn run_cases(
        &mut self,
        name: &str,
        mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        let mut base: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            base ^= b as u64;
            base = base.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if let Ok(extra) = std::env::var("PROPTEST_SEED") {
            if let Ok(x) = extra.parse::<u64>() {
                base ^= x;
            }
        }
        for case in 0..self.config.cases {
            let seed = base ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1));
            let mut rng = TestRng::seed_from_u64(seed);
            if let Err(e) = body(&mut rng) {
                panic!(
                    "proptest '{name}': case {case}/{} failed (seed {seed:#x}):\n{}",
                    self.config.cases,
                    e.message()
                );
            }
        }
    }
}
