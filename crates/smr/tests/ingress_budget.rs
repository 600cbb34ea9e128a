//! The ingress budget at its edge ([`SmrNode::with_ingress_budget`]):
//! what a node takes in while nothing can settle is its pipeline plus its
//! budget, the rest is shed and counted, and nothing it took in is lost.

use fastbft_core::replica::ReplicaOptions;
use fastbft_sim::{Network, ScriptedActor, SimDuration, SimTime};
use fastbft_smr::{AdaptiveBatch, Batching, CountingMachine, SmrSimCluster};
use fastbft_types::{Config, ProcessId, Value};

const DELTA: u64 = SimDuration::DELTA.0;
const DEPTH: u64 = 4;
const BURST: usize = 20;
const CMD_BYTES: usize = 10;

fn command(i: usize) -> Value {
    Value::new(vec![i as u8 + 1; CMD_BYTES])
}

/// n = 4 with p2 — first leader of slot 0 — silent, a pipeline of
/// [`DEPTH`] slots and a small ingress budget on every live seat, once
/// bound by its command count and once by its bytes. [`BURST`] commands
/// reach every seat in the same instant, before any message moves.
///
/// Slot 0 was opened idle at start, so the window has `DEPTH − 1` = 3
/// slots left. Each submission finds the queue empty and the adaptive
/// target at 1, so the first 3 are drained one per slot, the next 8 fill
/// the budget (8 commands, or 80 bytes of 10-byte commands), and the last
/// 20 − 3 − 8 = 9 are shed: 9 commands, 90 bytes, on every live seat, and
/// not one more for the rest of the run. Slots 1–3 decide at once but
/// cannot be applied before slot 0, which waits out p2's view; until then
/// the queue sits exactly at its budget.
///
/// p1 gets its first three commands in reverse, so command 2 is in flight
/// at p1 in slot 1 and at p3 and p4 in slot 3, and loses both: slot 1
/// decides its leader p3's command 0, slot 3 its leader p1's — command 0
/// again. `advance` puts command 2 back at the head of three queues that
/// are full; were re-queued work subject to the budget it would be dropped
/// everywhere and never commit.
#[test]
fn what_exceeds_pipeline_plus_budget_is_shed_and_nothing_accepted_is_lost() {
    for (max_cmds, max_bytes) in [(8, 1 << 20), (1000, 8 * CMD_BYTES)] {
        let cfg = Config::new(4, 1, 1).unwrap();
        let silent = cfg.with_instance(0).leader(fastbft_types::View::FIRST);
        assert_eq!(silent, ProcessId(2));
        let live: Vec<ProcessId> = cfg.processes().filter(|p| *p != silent).collect();
        let mut cluster = SmrSimCluster::new(
            cfg,
            31,
            CountingMachine::new(),
            vec![Vec::new(); cfg.n()],
            Network::synchronous(SimDuration::DELTA),
            |p, node| {
                if p == silent {
                    Box::new(ScriptedActor::silent())
                } else {
                    Box::new(
                        node.with_batching(Batching::Adaptive(AdaptiveBatch::default()))
                            .with_pipeline_depth(DEPTH)
                            .with_ingress_budget(max_cmds, max_bytes),
                    )
                }
            },
        );
        let sim = cluster.sim_mut();
        let burst_at = SimTime(DELTA);
        for p in &live {
            let mut order: Vec<usize> = (0..BURST).collect();
            if *p == ProcessId(1) {
                order[..DEPTH as usize - 1].reverse();
            }
            for i in order {
                sim.submit_client(*p, command(i), burst_at);
            }
        }
        let shed = |c: &SmrSimCluster<CountingMachine>, p: &ProcessId| {
            let m = c.registry().metrics(p.index());
            (m.ingress_shed_total.get(), m.ingress_shed_bytes_total.get())
        };

        // The burst alone: nothing has been delivered yet.
        sim.run_until(burst_at);
        for p in &live {
            let budget = (max_cmds, max_bytes);
            assert_eq!(shed(&cluster, p), (9, 90), "{p}, budget {budget:?}");
            assert_eq!(cluster.node(*p).pending(), 3 + 8);
            assert_eq!(cluster.node(*p).pending_bytes(), 8 * CMD_BYTES);
        }

        // Through the view change, one event at a time.
        let accepted = BURST as u64 - 9;
        let mut settled_at = None;
        cluster.run_until(SimTime(200 * DELTA), |c| {
            for p in &live {
                let n = c.node(*p);
                assert!(n.pending_bytes() <= max_bytes, "{p} at {}", c.sim().now());
                if settled_at.is_none() && n.applied() > 0 {
                    settled_at = Some(c.sim().now());
                }
            }
            live.iter()
                .all(|p| c.node(*p).commands_applied() == accepted)
        });
        assert!(
            settled_at.expect("slot 0 settled") > SimTime(ReplicaOptions::default().base_timeout.0),
            "nothing may settle before slot 0's view change"
        );

        // Applied (once: `run_until` checked), shed ones never, and the
        // re-queues were neither shed nor counted.
        for p in &live {
            let log = &cluster.logs()[p.index()];
            for i in 0..BURST {
                let applied = log.values().any(|v| *v == command(i));
                assert_eq!(applied, i < accepted as usize, "{p}, command {i}");
            }
            assert_eq!(shed(&cluster, p), (9, 90), "{p} after the view change");
            assert_eq!(cluster.node(*p).pending(), 0);
            let m = cluster.registry().metrics(p.index());
            assert!(m.view_change_total.get() >= 1);
            assert!(m.dedup_dropped_total.get() >= 1, "command 0 won two slots");
        }
    }
}
