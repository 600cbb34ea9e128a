//! The replica's quorum counting against a model small enough to check by
//! eye: *the first contribution per `(sender, view)` is the one that
//! counts (beyond the horizon, in the first view the sender names and no
//! other); a value is decided when `n − t` of them agree on `(view, value)`,
//! and certified (the replica's own `Commit`) when `⌈(n+f+1)/2⌉` of them
//! agree and carry a valid share.* Random ack streams — duplicates,
//! equivocation, forged shares, two views beyond the horizon — are fed to a
//! replica one message at a time, and after every message it must have
//! announced exactly what the model announces.

use std::collections::BTreeMap;

use fastbft_core::message::{AckMsg, Message};
use fastbft_core::payload::ack_payload;
use fastbft_core::replica::Replica;
use fastbft_crypto::{KeyDirectory, Signature};
use fastbft_sim::{Actor, Effects, SimTime};
use fastbft_types::{Config, ProcessId, Value, View};
use proptest::prelude::*;

/// One `Ack` on the wire: sender, view, value, and its share — 0 none,
/// 1 the sender's own, 2 another process's relabelled as the sender's.
type Ack = (u32, u64, u64, u8);

/// What the replica announces on receiving one ack: a decision, and the
/// value of the commit certificate it broadcasts.
type Announced = (Option<u64>, Option<u64>);

const CONFIGS: [(usize, usize, usize); 3] = [(4, 1, 1), (7, 2, 1), (9, 2, 2)];

/// The model. The replica under test never leaves view 1, so it admits
/// views up to `1 + n` and, per sender, the first view it names beyond.
fn model(cfg: &Config, stream: &[Ack]) -> Vec<Announced> {
    let mut first: BTreeMap<(u32, u64), (u64, bool)> = BTreeMap::new();
    let mut beyond: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut decided, mut certified) = (None, Vec::new());
    let announce = |&(sender, view, value, share): &Ack| {
        let near = view <= 1 + cfg.n() as u64 || *beyond.entry(sender).or_insert(view) == view;
        if !near || first.contains_key(&(sender, view)) {
            return (None, None);
        }
        let shared = share == 1 && cfg.t() < cfg.f();
        first.insert((sender, view), (value, shared));
        let agreeing = first
            .iter()
            .filter(|((_, v), (x, _))| (*v, *x) == (view, value));
        let shares = agreeing.clone().filter(|(_, (_, shared))| *shared).count();
        let certify = shared && shares >= cfg.slow_quorum() && !certified.contains(&view);
        certified.extend(certify.then_some(view));
        // The first quorum decides. One for the same value says nothing
        // new; one for another value is announced as well, every time (the
        // checker's hook in under-provisioned runs).
        let decide = agreeing.count() >= cfg.fast_quorum() && decided != Some(value);
        decided = decided.or(decide.then_some(value));
        (decide.then_some(value), certify.then_some(value))
    };
    stream.iter().map(announce).collect()
}

/// Feeds `stream` to a fresh p1 and returns what it announced message by
/// message, and what it has decided in the end.
fn replica(cfg: &Config, stream: &[Ack]) -> (Vec<Announced>, Option<u64>) {
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), 3);
    let mut replica = Replica::new(*cfg, pairs[0].clone(), dir, Value::from_u64(99));
    let mut announce = |&(sender, view, value, share): &Ack| {
        let (value, view) = (Value::from_u64(value), View(view));
        let signer = [
            None,
            Some(sender as usize - 1),
            Some(sender as usize % cfg.n()),
        ];
        let share = signer[share as usize].map(|signer| {
            let tag = *pairs[signer].sign(&ack_payload(&value, view)).tag();
            Signature::from_parts(ProcessId(sender), tag)
        });
        let mut fx = Effects::new(ProcessId(1), cfg.n(), SimTime::ZERO);
        let ack = Message::Ack(AckMsg { value, view, share });
        replica.on_message(ProcessId(sender), ack, &mut fx);
        let certified = fx.sent().into_iter().find_map(|(_, m)| match m {
            Message::Commit(c) => c.cert.value.as_u64(),
            _ => None,
        });
        (fx.decision_made().and_then(Value::as_u64), certified)
    };
    let announced = stream.iter().map(&mut announce).collect();
    (announced, replica.decided().and_then(Value::as_u64))
}

/// Strategy: a configuration and up to 80 acks for it — three in four for
/// value 0, five in eight for view 1, two in three with a valid share, so
/// quorums do form; one view in four beyond the horizon.
fn streams() -> impl Strategy<Value = (Config, Vec<Ack>)> {
    let raw = (0u32..9, 0u64..8, 0u64..8, 0u8..6);
    (0usize..3, proptest::collection::vec(raw, 0..80)).prop_map(|(which, raw)| {
        let (n, f, t) = CONFIGS[which];
        let cfg = Config::new(n, f, t).unwrap();
        let ack = |(sender, view, value, share): Ack| {
            let view = [1, 1, 1, 1, 2, 3, n as u64 + 2, n as u64 + 3][view as usize];
            let share = [0, 2, 1, 1, 1, 1][share as usize];
            (1 + sender % n as u32, view, value.saturating_sub(5), share)
        };
        (cfg, raw.into_iter().map(ack).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever arrives, from however many equivocating senders: the
    /// replica announces what the model announces, when it does.
    #[test]
    fn the_replica_decides_and_certifies_exactly_when_the_model_does((cfg, stream) in streams()) {
        let expected = model(&cfg, &stream);
        let (announced, decided) = replica(&cfg, &stream);
        prop_assert_eq!(&announced, &expected);
        prop_assert_eq!(decided, expected.iter().find_map(|(decision, _)| *decision));
    }

    /// With at most `f` equivocating senders — p1 … pf send what they like,
    /// everyone else acknowledges value 0 and nothing else — no second
    /// value is ever decided, and none certified beside it in a view.
    #[test]
    fn f_equivocators_never_get_a_second_value_decided((cfg, stream) in streams()) {
        let honest = |(sender, view, value, share): Ack| {
            let value = if sender as usize > cfg.f() { 0 } else { value };
            (sender, view, value, share)
        };
        let stream: Vec<Ack> = stream.into_iter().map(honest).collect();
        let (announced, decided) = replica(&cfg, &stream);
        prop_assert_eq!(&announced, &model(&cfg, &stream));
        let decisions: Vec<u64> = announced.iter().filter_map(|(d, _)| *d).collect();
        prop_assert!(decisions.len() <= 1 && decisions.first().copied() == decided);
        prop_assert!(announced.iter().all(|(d, c)| d.unwrap_or(0) == 0 && c.unwrap_or(0) == 0));
    }
}
