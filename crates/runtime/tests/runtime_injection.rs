//! Runtime integration: external Byzantine drivers via the inject hook, and
//! SMR nodes running on real threads.

use std::time::Duration;

use fastbft_core::message::{AckMsg, Message};
use fastbft_core::payload::ack_payload;
use fastbft_core::replica::Replica;
use fastbft_crypto::KeyDirectory;
use fastbft_runtime::spawn;
use fastbft_sim::Actor;
use fastbft_types::{Config, ProcessId, Value, View};

/// Forged acks injected from outside the cluster (sender ids spoofed by the
/// test) must not produce a wrong decision: the runtime attaches true
/// sender ids for *cluster members*, and the injected ones count at most
/// once per claimed sender — still below the fast quorum for a value nobody
/// proposed.
#[test]
fn injected_acks_cannot_forge_decisions() {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 11);
    let actors: Vec<Box<dyn Actor<Message> + Send>> = (0..4)
        .map(|i| -> Box<dyn Actor<Message> + Send> {
            Box::new(Replica::new(
                cfg,
                pairs[i].clone(),
                dir.clone(),
                Value::from_u64(7),
            ))
        })
        .collect();
    let cluster = spawn(actors, Duration::from_micros(50));

    // Before the protocol can finish, shower p1 with acks for a value that
    // was never proposed, "from" two distinct senders — below the fast
    // quorum of 3, and unforgeable beyond that because inject can only
    // claim each sender once per tally.
    let bogus = Value::from_u64(666);
    for from in [2u32, 3] {
        for _ in 0..10 {
            cluster.inject(
                ProcessId(from),
                ProcessId(1),
                Message::Ack(AckMsg {
                    value: bogus.clone(),
                    view: View::FIRST,
                    share: None,
                }),
            );
        }
    }
    // Also acks carrying forged signature shares (signer p1 ≠ from), from
    // the same two senders so the ack tally stays where it was.
    for from in [2u32, 3] {
        cluster.inject(
            ProcessId(from),
            ProcessId(1),
            Message::Ack(AckMsg {
                value: bogus.clone(),
                view: View::FIRST,
                share: Some(pairs[0].sign(&ack_payload(&bogus, View::FIRST))),
            }),
        );
    }

    let decisions = cluster.await_decisions(4, Duration::from_secs(10));
    cluster.shutdown();
    assert_eq!(decisions.len(), 4);
    for d in &decisions {
        assert_eq!(
            d.value,
            Value::from_u64(7),
            "{:?} decided the forged value",
            d.process
        );
    }
}

/// An SMR node cluster on real threads: commands replicate and stores agree.
#[test]
fn smr_on_threads() {
    use fastbft_smr::{KvCommand, KvStore, SmrNode};

    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 13);
    let queue: Vec<Value> = (0..3)
        .map(|i| {
            KvCommand::Put {
                key: format!("k{i}"),
                value: format!("v{i}"),
            }
            .to_value()
        })
        .collect();
    let actors: Vec<Box<dyn Actor<fastbft_smr::SlotMessage> + Send>> = (0..4)
        .map(|i| -> Box<dyn Actor<fastbft_smr::SlotMessage> + Send> {
            Box::new(SmrNode::new(
                cfg,
                pairs[i].clone(),
                dir.clone(),
                KvStore::new(),
                queue.clone(),
                KvCommand::Noop.to_value(),
            ))
        })
        .collect();
    let cluster = spawn(actors, Duration::from_micros(50));
    // SMR nodes never "decide" at the cluster level (slots are internal);
    // give the pipeline a moment, then stop. Consistency is asserted by the
    // sim-based suites; here we only prove the runtime drives SMR without
    // deadlock or panic.
    std::thread::sleep(Duration::from_millis(300));
    cluster.shutdown();
}
