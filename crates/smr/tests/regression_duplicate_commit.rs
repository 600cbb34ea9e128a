//! Regression: pipelined slots must never commit the same client command
//! twice (at-most-once execution).
//!
//! The failure mode: `SmrNode` proposed the first `batch_size` commands of
//! its `pending` queue for *every* slot it opened without marking them in
//! flight. A slot opened while an earlier slot was still undecided (which
//! `on_message` does for any in-window slot) therefore re-proposed the same
//! commands, and if both slots decided that proposal, the commands were
//! applied — and logged — twice.

use fastbft_core::message::{Message, WishMsg};
use fastbft_sim::{Network, SimDuration, SimTime};
use fastbft_smr::{CountingMachine, SlotMessage, SmrSimCluster};
use fastbft_types::{Config, ProcessId, Value, View};

/// Drives the overlap deterministically: everything sent to p3 (the leader
/// of slot 1) before `t = 150` crawls, so p3 opens slot 1 — via an injected
/// harmless slot-1 message — while it still believes the shared client
/// command is uncommitted, and proposes it a second time. Everyone else has
/// long since committed that command in slot 0.
#[test]
fn overlapping_slots_never_commit_a_command_twice() {
    let cfg = Config::new(4, 1, 1).unwrap();
    // Standard SMR client model: the command is broadcast to every replica.
    let commands = vec![vec![Value::from_u64(4242)]; 4];
    let delta = SimDuration::DELTA;
    let network = Network::scripted(delta, move |info| {
        if info.to == ProcessId(3) && info.sent_at < SimTime(150) {
            // p3's slot-0 traffic (propose at 0, acks at Δ) arrives long
            // after slot 1 has been decided under its nose.
            SimTime(5_000)
        } else {
            info.sent_at + delta
        }
    });
    let mut cluster = SmrSimCluster::new(
        cfg,
        7,
        CountingMachine::new(),
        commands,
        Value::from_u64(0),
        network,
        |_, node| Box::new(node.with_batch_size(1)),
    );
    // A harmless slot-1 message reaching p3 makes it open slot 1 (it is the
    // slot-1 leader, so it immediately proposes) while slot 0 is still
    // undecided at p3.
    cluster.sim_mut().inject_message(
        ProcessId(1),
        ProcessId(3),
        SlotMessage::Consensus {
            slot: 1,
            inner: Message::Wish(WishMsg { view: View::FIRST }),
        },
        SimTime(150),
    );
    let report = cluster.run_until(SimTime(40_000), |c| c.report().applied_everywhere >= 2);
    assert_eq!(report.commands_everywhere, 1, "{report:?}");
}
