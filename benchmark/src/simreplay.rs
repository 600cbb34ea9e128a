//! The paper's claim as exact counts: the first generated commands
//! replayed under the discrete-event simulator, in virtual time.
//!
//! With every message taking exactly Δ, a slot decided on the fast path is
//! applied 2Δ after its proposal went out and a slot decided on the slow
//! path 3Δ after — independent of the machine. These numbers repeat
//! exactly for a seed, so a later change may rest a count claim on them.
//!
//! The nodes are built the way `SmrSimCluster` builds them (`SmrNode::new`
//! with the same options and batching as the wall-clock clusters); the
//! simulation is assembled here instead because the slow-path replay needs
//! two seats to be `ScriptedActor::silent()`, which `SmrSimCluster` cannot
//! express, and because the per-slot times come from the benchmark's own
//! `TracedActor` wrapper.

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_sim::{Network, ScriptedActor, SimDuration, SimTime, Simulation};
use fastbft_smr::{SlotMessage, SmrNode};
use fastbft_types::{Config, ProcessId, Value};

use crate::cluster::{batching, config, idle_command};
use crate::oracle::TaggedKv;
use crate::trace::TraceHub;
use crate::workload::{CommandGen, Workload};

/// Commands replayed.
pub const REPLAY_CMDS: u64 = 256;
/// Virtual-time budget; the slow replay needs a few view changes.
const HORIZON: SimTime = SimTime(SimDuration::DELTA.0 * 20_000);

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimCounts {
    /// Median, over slots, of (first apply − last proposal) / Δ with every
    /// seat live.
    pub fast_delays: f64,
    /// The same with more than `t` seats silent (n=7, f=2, t=1, 2 silent).
    pub slow_delays: f64,
    /// Point-to-point messages per decided slot in the all-live replay.
    pub msgs_per_slot: f64,
}

struct Replay {
    delays: f64,
    msgs_per_slot: f64,
}

fn replay(cfg: Config, silent: usize, commands: &[Value], seed: u64) -> Replay {
    let n = cfg.n();
    let live = n - silent;
    let (pairs, dir) = KeyDirectory::generate(n, seed);
    let hub = TraceHub::new(n);
    let mut sim = Simulation::<SlotMessage>::new(
        Network::synchronous(SimDuration::DELTA),
        seed.wrapping_add(7),
    );
    for (i, pair) in pairs.iter().enumerate() {
        if i >= live {
            sim.add_actor(Box::new(ScriptedActor::silent()));
            continue;
        }
        let node = SmrNode::new(
            cfg,
            pair.clone(),
            dir.clone(),
            TaggedKv::default(),
            commands.to_vec(),
            idle_command(),
        )
        .with_options(ReplicaOptions::default())
        .with_batching(batching());
        sim.add_actor(hub.sim_actor(i, Box::new(node)));
    }
    sim.start();

    let applied = |sim: &Simulation<SlotMessage>| {
        ProcessId::all(live)
            .map(|p| {
                sim.actor(p)
                    .as_any()
                    .and_then(|a| a.downcast_ref::<SmrNode<TaggedKv>>())
                    .map_or(0, SmrNode::commands_applied)
            })
            .min()
            .unwrap_or(0)
    };
    while applied(&sim) < commands.len() as u64 && sim.now() < HORIZON {
        let before = sim.now();
        sim.run_until(before + SimDuration::DELTA);
        if sim.pending_events() == 0 {
            break;
        }
        if sim.now() == before {
            sim.step();
        }
    }

    // Per slot: the last proposal any replica sent for it, and the first
    // apply any replica made while handling one of its messages.
    let mut per_slot: std::collections::BTreeMap<u64, (Option<u64>, Option<u64>)> =
        Default::default();
    let mut msgs = 0;
    for i in 0..live {
        let trace = hub.replica(i);
        msgs += trace.agg.msgs_out;
        for (slot, times) in &trace.slots {
            let entry = per_slot.entry(*slot).or_default();
            entry.0 = entry.0.max(times.proposed);
            entry.1 = match (entry.1, times.applied) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
    }
    let mut delays: Vec<f64> = per_slot
        .values()
        .filter_map(|(proposed, applied)| Some(((*proposed)?, (*applied)?)))
        .filter(|(proposed, applied)| applied >= proposed)
        .map(|(proposed, applied)| (applied - proposed) as f64 / SimDuration::DELTA.0 as f64)
        .collect();
    delays.sort_by(f64::total_cmp);
    let decided = per_slot.values().filter(|(_, a)| a.is_some()).count();
    Replay {
        delays: delays.get(delays.len() / 2).copied().unwrap_or(0.0),
        msgs_per_slot: if decided == 0 {
            0.0
        } else {
            msgs as f64 / decided as f64
        },
    }
}

/// Replays the workload's first [`REPLAY_CMDS`] commands on its own
/// cluster shape with every seat live (fast path), and on the n=7, f=2,
/// t=1 shape with two seats silent (slow path: the minimal n=4 system has
/// `t = f` and therefore no slow path to replay).
pub fn counts(w: &Workload, seed: u64) -> SimCounts {
    let commands = CommandGen::new(seed, w).take(REPLAY_CMDS);
    let fast = replay(config(w), 0, &commands, seed);
    let slow_cfg = Config::new(7, 2, 1).expect("n=7, f=2, t=1 is valid");
    let slow = replay(slow_cfg, 2, &commands, seed);
    SimCounts {
        fast_delays: fast.delays,
        slow_delays: slow.delays,
        msgs_per_slot: fast.msgs_per_slot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn fast_path_is_two_delays_and_slow_path_three() {
        for w in &WORKLOADS[..4] {
            let c = counts(w, 11);
            assert_eq!(c.fast_delays, 2.0, "{}", w.name);
            assert_eq!(c.slow_delays, 3.0, "{}", w.name);
            assert!(c.msgs_per_slot > 0.0);
            assert_eq!(c, counts(w, 11), "counts repeat exactly");
        }
    }
}
