//! The named workloads and the seeded command generator.
//!
//! A workload fixes everything about a run except the seed: cluster shape,
//! transport, value size, load shape and warm-up length. Nothing here is
//! tuned per workload beyond what the workload *is* — every cluster runs
//! `ReplicaOptions::default()`, adaptive batching with default knobs, the
//! default snapshot interval and a 50 µs tick (see `cluster.rs`).

use std::time::Duration;

use fastbft_smr::{tag_command, KvCommand};
use fastbft_types::wire::Encode;
use fastbft_types::Value;

/// What carries messages between replicas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Link {
    /// Authenticated loopback TCP (`fastbft_net`).
    Tcp,
    /// The in-process channel mesh — bypasses `fastbft_net`.
    Channel,
}

/// How commands are offered to the cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// `outstanding` callers, each submitting its next command when the
    /// previous one is committed.
    Closed { outstanding: usize },
    /// Independent users: one command every `1/rate` seconds regardless of
    /// completions, each timed from when it was due.
    Open { rate: u64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, i.e. whether the driver runs it
    /// and holds later changes to its numbers. `sat4_tcp` is not: what a
    /// saturated cluster commits per second follows the speed of this
    /// shared host, which drifts by a third within minutes. Nor is
    /// `paced4_tcp`: without an injected delay its latency is a chain of
    /// thread wake-ups, whose cost drifts with the host by as much.
    pub gated: bool,
    pub n: usize,
    pub f: usize,
    pub t: usize,
    pub link: Link,
    /// The fixed one-way delay δ a `FaultTransport` around each seat's
    /// transport adds to every delivery, if any.
    pub delta: Option<Duration>,
    /// Trailing seats replaced by `ScriptedActor::silent()`.
    pub silent: usize,
    pub value_bytes: usize,
    /// Distinct keys the generated `Put`s spread over: with the value size
    /// it fixes the store's steady-state size, which is what a snapshot
    /// (every 128 slots, on every replica at once) has to serialize.
    pub keys: u64,
    pub load: Load,
    /// Unmeasured commands of the workload's own load shape that every live
    /// replica must have applied before set-up counts as done.
    pub warmup_cmds: u64,
    /// A command not committed this long after it was due has failed.
    pub commit_timeout: Duration,
}

/// Client identities the generator submits under: the closed loop's callers,
/// and the ids an open loop rotates through.
pub const CALLERS: usize = 256;
/// One-way delay injected on the `wan*` workloads.
pub const WAN_DELTA: Duration = Duration::from_millis(2);

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sat4_tcp",
        why: "n=4 loopback TCP, closed loop of 256 callers: batcher, coalesced frames and MACs carry the load",
        gated: false,
        n: 4,
        f: 1,
        t: 1,
        link: Link::Tcp,
        delta: None,
        silent: 0,
        value_bytes: 16,
        keys: 4096,
        load: Load::Closed { outstanding: CALLERS },
        warmup_cmds: 20_000,
        commit_timeout: Duration::from_secs(2),
    },
    Workload {
        name: "paced4_tcp",
        why: "same cluster, open loop at 500/s: one slot per command, so batching is bypassed and one message delay is measured",
        gated: false,
        n: 4,
        f: 1,
        t: 1,
        link: Link::Tcp,
        delta: None,
        silent: 0,
        value_bytes: 16,
        keys: 4096,
        load: Load::Open { rate: 500 },
        warmup_cmds: 100,
        commit_timeout: Duration::from_secs(2),
    },
    Workload {
        name: "wan4_tcp",
        why: "n=4 f=t=1 loopback TCP with 2 ms one-way delay, 16 B values, open loop 500/s: the fast path's 2 delays on a real transport",
        gated: true,
        n: 4,
        f: 1,
        t: 1,
        link: Link::Tcp,
        delta: Some(WAN_DELTA),
        silent: 0,
        value_bytes: 16,
        keys: 4096,
        load: Load::Open { rate: 500 },
        warmup_cmds: 100,
        commit_timeout: Duration::from_secs(2),
    },
    Workload {
        name: "wan7_fast",
        why: "n=7 f=2 t=1 channel mesh with 2 ms one-way delay, 1 KiB values, open loop 500/s: bypasses net, fast path at 2 delays",
        gated: true,
        n: 7,
        f: 2,
        t: 1,
        link: Link::Channel,
        delta: Some(WAN_DELTA),
        silent: 0,
        value_bytes: 1024,
        keys: 512,
        load: Load::Open { rate: 500 },
        warmup_cmds: 100,
        commit_timeout: Duration::from_secs(2),
    },
    Workload {
        name: "wan7_degraded",
        why: "wan7_fast with two silent seats (more than t, at most f): every commit is slow-path and dead leaders cost view changes",
        gated: true,
        n: 7,
        f: 2,
        t: 1,
        link: Link::Channel,
        delta: Some(WAN_DELTA),
        silent: 2,
        value_bytes: 1024,
        keys: 512,
        load: Load::Open { rate: 500 },
        warmup_cmds: 100,
        commit_timeout: Duration::from_secs(5),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Seats that run a real replica (the leading `n − silent`).
    pub fn live(&self) -> usize {
        self.n - self.silent
    }

    pub fn transport_label(&self) -> &'static str {
        match (self.link, self.delta) {
            (Link::Tcp, None) => "tcp_loopback",
            (Link::Tcp, Some(_)) => "tcp_loopback+fault_delay",
            (Link::Channel, None) => "channel",
            (Link::Channel, Some(_)) => "channel+fault_delay",
        }
    }
}

/// splitmix64: the generator's only source of randomness, so a workload's
/// inputs are a pure function of `--seed`.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seeded stream of `Put` bodies: the `i`-th body depends only on the
/// seed and the workload's value size. Which caller carries a body (its
/// `(client, seq)` tag) is the load generator's business.
#[derive(Clone, Debug)]
pub struct CommandGen {
    rng: SplitMix,
    value_bytes: usize,
    keys: u64,
    scratch: Vec<u8>,
}

impl CommandGen {
    pub fn new(seed: u64, w: &Workload) -> Self {
        CommandGen {
            rng: SplitMix::new(seed),
            value_bytes: w.value_bytes,
            keys: w.keys,
            scratch: Vec::new(),
        }
    }

    /// The next `KvCommand::Put` in wire form.
    pub fn next_body(&mut self) -> &[u8] {
        const ALPHABET: &[u8; 64] =
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
        let key = format!("k{:04}", self.rng.next_u64() % self.keys);
        let mut value = String::with_capacity(self.value_bytes);
        while value.len() < self.value_bytes {
            let mut word = self.rng.next_u64();
            for _ in 0..8.min(self.value_bytes - value.len()) {
                value.push(ALPHABET[(word & 63) as usize] as char);
                word >>= 8;
            }
        }
        self.scratch.clear();
        KvCommand::Put { key, value }.encode(&mut self.scratch);
        &self.scratch
    }

    /// The next body tagged as `(client, seq)` — what gets submitted.
    pub fn next_command(&mut self, client: u64, seq: u64) -> Value {
        let body = self.next_body();
        tag_command(client, seq, body)
    }

    /// The next `count` commands, tagged the way an open loop tags them
    /// (client ids in rotation) — for the probes that need a fixed batch.
    pub fn take(&mut self, count: u64) -> Vec<Value> {
        let callers = CALLERS as u64;
        (0..count)
            .map(|i| self.next_command(i % callers, i / callers + 1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let take = |seed| {
            let mut g = CommandGen::new(seed, &WORKLOADS[0]);
            (0..50).map(|_| g.next_body().to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn bodies_are_well_formed_puts_of_the_stated_size() {
        let mut g = CommandGen::new(1, by_name("wan7_fast").unwrap());
        for _ in 0..20 {
            let cmd = g.next_command(3, 9);
            assert_eq!(fastbft_smr::parse_client_tag(&cmd), Some((3, 9)));
            let body = Value::new(cmd.as_bytes()[20..].to_vec());
            match KvCommand::from_value(&body) {
                Some(KvCommand::Put { key, value }) => {
                    assert_eq!(value.len(), 1024);
                    assert!(key.starts_with('k') && key.len() == 5);
                }
                other => panic!("not a put: {other:?}"),
            }
        }
    }

    #[test]
    fn workload_names_are_unique_and_silent_seats_fit_the_fault_budget() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(w.silent <= w.f, "{}: silent seats exceed f", w.name);
            assert!(fastbft_types::Config::new(w.n, w.f, w.t).is_ok());
        }
    }
}
