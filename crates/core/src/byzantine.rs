//! Byzantine seats as data: one move alphabet and one seat.
//!
//! The paper's adversary controls up to `f` processes completely, subject
//! only to cryptography: it signs anything as itself and forges no one
//! else's signature. Here every Byzantine seat is the same thing, a
//! [`Seat`]: honest code whose sends the seat rewrites, turning what the
//! node would send, plus the [`Move`]s in force, into what the seat sends.
//! The moves are the short sequences the fast-path / view-change
//! violations of the literature are made of: split a proposal, let one
//! seat alone hear a message, withhold a kind, sit out a view change, lie
//! in a vote, and replay a signed proposal seen earlier — in this instance
//! or another one (the seat keeps what it saw in a bounded
//! [`ReplayStore`], which outlives a run when the caller hands it on). A
//! crash is no move: it is the simulator's, scheduled by whoever builds
//! the run (`SimCluster::builder` for `Behavior::CrashAt`).
//!
//! The node is anything [`Honest`]: a single-shot [`Replica`], one
//! instance, or the SMR layer's node (`fastbft_smr::byzantine`), one
//! instance per log slot with the moves chosen per slot and one store for
//! every slot. The trait says which instance a frame belongs to and which
//! view each instance is in; what the seat sends goes out in its
//! [`Frame`].
//!
//! A behaviour is a fixed list of moves: `cluster::Behavior` maps each of
//! its variants to one ([`Behavior::moves`](crate::cluster::Behavior::moves)),
//! and [`random_moves`] is a seeded draw from the alphabet. A seat may also
//! make [`Noise`]: malformed evidence on a clock, which the moves — all
//! about well-formed evidence — do not make. The scripted executions of the
//! lower-bound proof stay scripted ([`fastbft_sim::ScriptedActor`]);
//! `hostile_wire`'s byte mutator works below the message level.

use std::collections::{BTreeMap, VecDeque};

use fastbft_crypto::{KeyPair, Signature, SignatureSet};
use fastbft_sim::{Actor, Effects, Outgoing, SimDuration, SimMessage, TimerId};
use fastbft_types::{Config, ProcessId, Value, View};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::certs::{CommitCert, ProgressCert, SignedVote, VoteData};
use crate::message::{AckMsg, CertAckMsg, CommitMsg, Kind, Message, ProposeMsg, VoteMsg, WishMsg};
use crate::payload::{ack_payload, certack_payload, propose_payload};
use crate::replica::Replica;

/// One move of a Byzantine seat. All of a seat's moves are in force at
/// once; the ones that say what the *node* sends act on each of its
/// messages, the others send messages of the seat's own.
#[derive(Clone, Debug, PartialEq)]
pub enum Move {
    /// Equivocate to a split: as the instance enters view 1 the seat
    /// proposes each value of `split` to its seat, in order, under its own
    /// τ and the genesis certificate, and its replica's view-1 proposal
    /// stays home. Only view
    /// 1 can be split: a later proposal needs a certificate, which names
    /// one value.
    Equivocate {
        /// `(recipient, value)`, in send order.
        split: Vec<(ProcessId, Value)>,
    },
    /// Send to exactly one seat: the replica's `kind` messages of `view`
    /// reach `to` only.
    SendToOne {
        /// The kind narrowed.
        kind: Kind,
        /// Its view.
        view: View,
        /// The one recipient.
        to: ProcessId,
    },
    /// Withhold a kind: the replica's messages of this kind reach no one. A
    /// seat built from one list that withholds every kind is silent: it
    /// runs no node, so it keeps no timers ([`Seat::new`]).
    Withhold(Kind),
    /// Stay silent in a view change: the replica's wish, vote,
    /// certification request and CertAck for `view` stay home.
    SilentInViewChange {
        /// The view the seat does not help anyone into.
        view: View,
    },
    /// Lie in a vote: the seat's vote for `view` claims `claim` instead of
    /// what its replica acknowledged — nothing (a nil vote), or the latest
    /// proposal of that value from an earlier view in its store. With no
    /// such proposal held, the vote goes as the replica made it.
    LieInVote {
        /// The destination view of the lying vote.
        view: View,
        /// What it claims.
        claim: Option<Value>,
    },
    /// Replay a proposal seen earlier: when the replica enters `view`, the
    /// seat proposes the latest proposal for `view` in its store — seen in
    /// any instance — under its own τ for this instance, to everyone; the
    /// replica's own proposal and certification requests for `view` stay
    /// home. The certificate travels as it was signed.
    Replay {
        /// The view led with replayed evidence.
        view: View,
    },
}

/// At most this many proposals are kept by a [`ReplayStore`].
pub const REPLAY_STORE_CAP: usize = 16;

/// The proposals a Byzantine seat has seen, newest last: at most
/// [`REPLAY_STORE_CAP`] of them (so at most that many frames' bytes), the
/// oldest evicted first and a repeat kept once.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayStore {
    proposals: VecDeque<ProposeMsg>,
}

impl ReplayStore {
    /// Keeps `p`, evicting the oldest proposal when full.
    pub fn keep(&mut self, p: &ProposeMsg) {
        if self.proposals.contains(p) {
            return;
        }
        if self.proposals.len() == REPLAY_STORE_CAP {
            self.proposals.pop_front();
        }
        self.proposals.push_back(p.clone());
    }

    /// The latest proposal kept that `pick` accepts.
    pub fn latest(&self, pick: impl Fn(&ProposeMsg) -> bool) -> Option<&ProposeMsg> {
        self.proposals.iter().rev().find(|p| pick(p))
    }
}

/// A wire frame that carries one consensus message of an instance: the
/// message itself in a single-shot run, a slot-tagged frame in the SMR
/// layer. What a [`Seat`] and [`Noise`] send goes out in it.
pub trait Frame: SimMessage {
    /// `msg`, as a frame of `instance`.
    fn carry(instance: u64, msg: Message) -> Self;
}

impl Frame for Message {
    fn carry(_instance: u64, msg: Message) -> Self {
        msg
    }
}

/// An honest node a [`Seat`] runs: a single-shot [`Replica`], or the SMR
/// layer's node with one instance per log slot. The seat asks it three
/// things.
pub trait Honest: Actor<Self::Frame> + 'static {
    /// The frame the node speaks.
    type Frame: Frame;

    /// The instance and consensus message `frame` carries, if it carries
    /// one.
    fn consensus<'a>(&self, frame: &'a Self::Frame) -> Option<(u64, &'a Message)>;

    /// The instance a frame that carries no consensus message speaks for,
    /// if it speaks for one (none, unless the node says otherwise).
    fn speaks_for(&self, _frame: &Self::Frame) -> Option<u64> {
        None
    }

    /// The view each open instance is in, by instance.
    fn views(&self) -> BTreeMap<u64, View>;
}

impl Honest for Replica {
    type Frame = Message;

    fn consensus<'a>(&self, frame: &'a Message) -> Option<(u64, &'a Message)> {
        Some((self.config().instance(), frame))
    }

    fn views(&self) -> BTreeMap<u64, View> {
        BTreeMap::from([(self.config().instance(), self.view())])
    }
}

/// The one Byzantine seat: an honest node whose callbacks run into a
/// scratch buffer, and what its keys, moves and store make of the result.
/// Its consensus frames go through the moves of their instance; a frame
/// that speaks for an instance the seat plays moves in stays home; other
/// frames and timers pass through. As an instance enters a view the seat
/// makes its own moves there, in instance order. It reports no decision
/// and forwards no applied event: a faulty seat's outcome counts for
/// nothing. Its [`Noise`], if it makes any, is about the instance it heard
/// from last (at start, the first open one).
pub struct Seat<N: Honest> {
    node: N,
    keys: KeyPair,
    moves: Box<dyn Fn(u64) -> Vec<Move>>,
    store: ReplayStore,
    noise: Option<Noise>,
    /// Runs no node: built from one list that withholds every kind.
    silent: bool,
    /// The view each open instance was in after the last callback.
    views: BTreeMap<u64, View>,
    /// The instance of the last consensus frame received.
    latest: u64,
}

impl<N: Honest> Seat<N> {
    /// Seats `node`, signing with `keys` (its own) and playing `moves` in
    /// every instance. A seat that withholds every kind is silent: it runs
    /// no node, so it keeps no timers, and makes its own moves at start
    /// only.
    pub fn new(node: N, keys: KeyPair, moves: Vec<Move>) -> Self {
        let silent = Kind::ALL
            .iter()
            .all(|k| moves.contains(&Move::Withhold(*k)));
        Seat {
            silent,
            ..Seat::per_instance(node, keys, move |_| moves.clone())
        }
    }

    /// Seats `node`, signing with `keys` (its own) and playing
    /// `moves(instance)` in each instance (no move: honest there). It
    /// always runs the node.
    pub fn per_instance(
        node: N,
        keys: KeyPair,
        moves: impl Fn(u64) -> Vec<Move> + 'static,
    ) -> Self {
        Seat {
            node,
            keys,
            moves: Box::new(moves),
            store: ReplayStore::default(),
            noise: None,
            silent: false,
            views: BTreeMap::new(),
            latest: 0,
        }
    }

    /// Starts from `store`: what the seat saw before this run.
    #[must_use]
    pub fn with_store(mut self, store: ReplayStore) -> Self {
        self.store = store;
        self
    }

    /// Also makes [`Noise`] drawn from `seed`.
    #[must_use]
    pub fn with_noise(mut self, seed: u64) -> Self {
        self.noise = Some(Noise::new(self.keys.clone(), seed));
        self
    }

    /// What the seat has seen, in every instance.
    pub fn store(&self) -> &ReplayStore {
        &self.store
    }

    /// Runs one node callback (unless the seat is silent) into a fresh
    /// buffer and sends what the moves make of it, then the seat's own
    /// moves in every instance that entered a view.
    fn step(
        &mut self,
        fx: &mut Effects<N::Frame>,
        call: impl FnOnce(&mut N, &mut Effects<N::Frame>),
    ) {
        let mut inner = Effects::new(fx.id(), fx.n(), fx.now());
        if !self.silent {
            call(&mut self.node, &mut inner);
        }
        let plays_in = |instance| !(self.moves)(instance).is_empty();
        for out in inner.outgoing() {
            let (to, frame) = match out {
                Outgoing::To(to, frame) => (Some(*to), frame),
                Outgoing::All(frame) => (None, frame),
            };
            if let Some((instance, msg)) = self.node.consensus(frame) {
                self.relay(instance, to, msg, fx);
            } else if self.node.speaks_for(frame).is_some_and(plays_in) {
                // About an instance the seat plays moves in: it stays home.
            } else if let Some(to) = to {
                fx.send(to, frame.clone());
            } else {
                fx.broadcast(frame.clone());
            }
        }
        let views = self.node.views();
        for (instance, view) in &views {
            if self.views.get(instance) != Some(view) {
                self.entered(*instance, *view, fx);
            }
        }
        self.views = views;
        for (delay, timer) in inner.timers_set() {
            fx.set_timer(*delay, *timer);
        }
    }

    /// One message of `instance` from the node, for `to` (everyone if
    /// `None`), after the moves: kept home, or sent (a vote possibly lying)
    /// to its recipients or to the one seat named.
    fn relay(
        &self,
        instance: u64,
        to: Option<ProcessId>,
        msg: &Message,
        fx: &mut Effects<N::Frame>,
    ) {
        let moves = (self.moves)(instance);
        let (kind, view) = msg.kind_and_view();
        if keeps_home(&moves, kind, view) {
            return;
        }
        let msg = N::Frame::carry(instance, self.lie(&moves, instance, msg));
        let only = moves.iter().find_map(|m| match m {
            Move::SendToOne {
                kind: k,
                view: v,
                to,
            } if *k == kind && *v == view => Some(*to),
            _ => None,
        });
        match (only, to) {
            (Some(one), Some(to)) if one != to => {}
            (Some(one), _) | (None, Some(one)) => fx.send(one, msg),
            (None, None) => fx.broadcast(msg),
        }
    }

    /// The node's vote, or the one a [`Move::LieInVote`] makes instead.
    fn lie(&self, moves: &[Move], instance: u64, msg: &Message) -> Message {
        let Message::Vote(vote) = msg else {
            return msg.clone();
        };
        let view = vote.view;
        let claim = moves.iter().find_map(|m| match m {
            Move::LieInVote { view: v, claim } if *v == view => Some(claim),
            _ => None,
        });
        let lie = match claim {
            None => return msg.clone(),
            Some(None) => None,
            Some(Some(x)) => {
                let Some(p) = self.store.latest(|p| p.value == *x && p.view < view) else {
                    return msg.clone();
                };
                Some(VoteData {
                    value: p.value.clone(),
                    view: p.view,
                    progress_cert: p.cert.clone(),
                    leader_sig: p.sig.clone(),
                    commit_cert: None,
                })
            }
        };
        let vote = SignedVote::sign(&self.keys, lie, view, instance);
        Message::Vote(VoteMsg { view, vote })
    }

    /// The seat's own sends as `instance` enters `view`: the split on
    /// entering view 1, a replay on entering the view it names.
    fn entered(&self, instance: u64, view: View, fx: &mut Effects<N::Frame>) {
        let sign = |value: &Value| self.keys.sign(&propose_payload(value, view, instance));
        for m in (self.moves)(instance) {
            match m {
                Move::Equivocate { split } if view == View::FIRST => {
                    for (to, value) in split {
                        let propose = ProposeMsg {
                            sig: sign(&value),
                            value,
                            view,
                            cert: ProgressCert::Genesis,
                        };
                        fx.send(to, N::Frame::carry(instance, Message::Propose(propose)));
                    }
                }
                Move::Replay { view: v } if v == view => {
                    if let Some(p) = self.store.latest(|p| p.view == view) {
                        let propose = ProposeMsg {
                            sig: sign(&p.value),
                            ..p.clone()
                        };
                        fx.broadcast(N::Frame::carry(instance, Message::Propose(propose)));
                    }
                }
                _ => {}
            }
        }
    }
}

/// Whether `moves` keep a node message of `kind` in `view` home.
fn keeps_home(moves: &[Move], kind: Kind, view: View) -> bool {
    let view_change = matches!(
        kind,
        Kind::Wish | Kind::Vote | Kind::CertRequest | Kind::CertAck
    );
    moves.iter().any(|m| match m {
        Move::Withhold(k) => *k == kind,
        Move::SilentInViewChange { view: v } => view_change && *v == view,
        Move::Equivocate { .. } => kind == Kind::Propose && view == View::FIRST,
        Move::Replay { view: v } => matches!(kind, Kind::Propose | Kind::CertRequest) && *v == view,
        _ => false,
    })
}

impl<N: Honest> Actor<N::Frame> for Seat<N> {
    fn on_start(&mut self, fx: &mut Effects<N::Frame>) {
        self.step(fx, |node, inner| node.on_start(inner));
        self.latest = self.views.keys().next().copied().unwrap_or_default();
        if let Some(noise) = &mut self.noise {
            noise.burst(self.latest, fx);
        }
    }

    fn on_message(&mut self, from: ProcessId, frame: N::Frame, fx: &mut Effects<N::Frame>) {
        if let Some((instance, msg)) = self.node.consensus(&frame) {
            self.latest = instance;
            if let Message::Propose(p) = msg {
                self.store.keep(p);
            }
        }
        self.step(fx, |node, inner| node.on_message(from, frame, inner));
        if let Some(noise) = &mut self.noise {
            noise.react(self.latest, fx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<N::Frame>) {
        match &mut self.noise {
            Some(noise) if timer == Noise::TIMER => noise.burst(self.latest, fx),
            _ => self.step(fx, |node, inner| node.on_timer(timer, inner)),
        }
    }

    fn on_client(&mut self, command: Value, fx: &mut Effects<N::Frame>) {
        self.step(fx, |node, inner| node.on_client(command, inner));
    }

    fn label(&self) -> &'static str {
        "byzantine"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// A seeded draw from the alphabet for seat `id` of `cfg`: if it leads view
/// 1, a split of its proposal between even and odd seats, then one to
/// three moves over views 1–4 and the values 0–3.
pub fn random_moves(cfg: &Config, id: ProcessId, seed: u64) -> Vec<Move> {
    let mut rng = StdRng::seed_from_u64(seed);
    let value = |rng: &mut StdRng| Value::from_u64(rng.gen_range(0..4));
    let mut moves = Vec::new();
    if cfg.leader(View::FIRST) == id {
        let (even, odd) = (value(&mut rng), value(&mut rng));
        let split = ProcessId::all(cfg.n())
            .map(|to| (to, if to.0 % 2 == 0 { &even } else { &odd }.clone()))
            .collect();
        moves.push(Move::Equivocate { split });
    }
    for _ in 0..rng.gen_range(1..=3) {
        let view = View(rng.gen_range(1..=4));
        let kind = Kind::ALL[rng.gen_range(0..Kind::ALL.len())];
        moves.push(match rng.gen_range(0..5) {
            0 => Move::SendToOne {
                kind,
                view,
                to: ProcessId(rng.gen_range(1..=cfg.n() as u32)),
            },
            1 => Move::Withhold(kind),
            2 => Move::SilentInViewChange { view },
            3 => Move::LieInVote {
                view,
                claim: rng.gen_bool(0.5).then(|| value(&mut rng)),
            },
            _ => Move::Replay { view },
        });
    }
    moves
}

/// Malformed evidence on a clock: the structurally valid, hostile messages
/// a receiver must refuse, each to a random seat — acks whose share is
/// missing, the seat's own, or relabelled to another signer; a commit
/// certificate of one signature; a proposal under the genesis certificate
/// for any view; nil and fabricated votes; CertAcks and wishes for any
/// view (no CertRequest). Every signature is the seat's own, over
/// statements of the instance it is told. A burst of six goes out at start
/// and every Δ/2 ([`Noise::TIMER`]), and one more for one message received
/// in four.
#[derive(Debug)]
pub struct Noise {
    keys: KeyPair,
    rng: StdRng,
}

impl Noise {
    /// The timer a burst runs on; no replica timer is this (they count
    /// view-timer generations).
    pub const TIMER: TimerId = TimerId(u32::MAX as u64);

    /// Noise signed with `keys`, drawn from `seed`.
    pub fn new(keys: KeyPair, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        Noise { keys, rng }
    }

    /// Six messages about `instance`, and the timer for the next burst.
    pub fn burst<F: Frame>(&mut self, instance: u64, fx: &mut Effects<F>) {
        for _ in 0..6 {
            self.send_one(instance, fx);
        }
        fx.set_timer(SimDuration(SimDuration::DELTA.0 / 2), Self::TIMER);
    }

    /// One message about `instance`, for one call in four (one per message
    /// received).
    pub fn react<F: Frame>(&mut self, instance: u64, fx: &mut Effects<F>) {
        if self.rng.gen_bool(0.25) {
            self.send_one(instance, fx);
        }
    }

    fn send_one<F: Frame>(&mut self, instance: u64, fx: &mut Effects<F>) {
        let seat = |rng: &mut StdRng| ProcessId(rng.gen_range(1..=fx.n() as u32));
        let to = seat(&mut self.rng);
        let value = Value::from_u64(self.rng.gen_range(0..4));
        let view = View(self.rng.gen_range(1..=6));
        let sign = |statement: &[u8]| self.keys.sign(statement);
        let msg = match self.rng.gen_range(0..7) {
            0 => {
                let share = sign(&ack_payload(&value, view, instance));
                let share = match self.rng.gen_range(0..3) {
                    0 => None,
                    1 => Some(share),
                    _ => Some(Signature::from_parts(seat(&mut self.rng), *share.tag())),
                };
                Message::Ack(AckMsg { value, view, share })
            }
            1 => Message::Wish(WishMsg { view }),
            2 => {
                let sigs: SignatureSet = [sign(&ack_payload(&value, view, instance))]
                    .into_iter()
                    .collect();
                let cert = CommitCert { value, view, sigs };
                Message::Commit(CommitMsg { cert })
            }
            3 => Message::Propose(ProposeMsg {
                sig: sign(&propose_payload(&value, view, instance)),
                value,
                view,
                cert: ProgressCert::Genesis,
            }),
            4 => {
                let vote = SignedVote::sign(&self.keys, None, view, instance);
                Message::Vote(VoteMsg { view, vote })
            }
            5 => {
                let led = View(view.0.saturating_sub(1).max(1));
                let vote = VoteData {
                    leader_sig: sign(&propose_payload(&value, led, instance)),
                    value,
                    view: led,
                    progress_cert: ProgressCert::Genesis,
                    commit_cert: None,
                };
                let dest = led.next();
                let vote = SignedVote::sign(&self.keys, Some(vote), dest, instance);
                Message::Vote(VoteMsg { view: dest, vote })
            }
            _ => {
                let sig = sign(&certack_payload(&value, view, instance));
                Message::CertAck(CertAckMsg { view, value, sig })
            }
        };
        fx.send(to, F::carry(instance, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_crypto::KeyDirectory;
    use fastbft_sim::SimTime;

    fn seat(moves: Vec<Move>) -> (Seat<Replica>, KeyDirectory) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(4, 3);
        let keys = pairs[cfg.leader(View::FIRST).index()].clone();
        let replica = Replica::new(cfg, keys.clone(), dir.clone(), Value::from_u64(7));
        (Seat::new(replica, keys, moves), dir)
    }

    fn proposal(value: u64, view: u64) -> ProposeMsg {
        let (pairs, _) = KeyDirectory::generate(4, 3);
        let value = Value::from_u64(value);
        let sig = pairs[0].sign(&propose_payload(&value, View(view), 0));
        let cert = ProgressCert::Genesis;
        let view = View(view);
        ProposeMsg {
            value,
            view,
            cert,
            sig,
        }
    }

    /// The store at its edge: `REPLAY_STORE_CAP` distinct proposals are all
    /// kept, one more evicts the oldest, and a repeat changes nothing.
    #[test]
    fn the_replay_store_keeps_its_cap_and_evicts_the_oldest() {
        let mut store = ReplayStore::default();
        let cap = REPLAY_STORE_CAP as u64;
        for i in 0..cap {
            store.keep(&proposal(i, 1));
        }
        assert_eq!(store.proposals.len(), REPLAY_STORE_CAP);
        assert!(store.latest(|p| p.value.as_u64() == Some(0)).is_some());
        store.keep(&proposal(cap, 1));
        store.keep(&proposal(cap, 1));
        assert_eq!(store.proposals.len(), REPLAY_STORE_CAP);
        assert!(store.latest(|p| p.value.as_u64() == Some(0)).is_none());
        let newest = store.latest(|_| true).unwrap();
        assert_eq!(newest.value.as_u64(), Some(cap));
    }

    /// The split goes out at start, each proposal verifying on its own;
    /// the replica's own proposal (7) and every other kind stay home, and
    /// a seat that withholds every kind sets no timer.
    #[test]
    fn a_split_leaves_at_start_and_nothing_else_does() {
        let split: Vec<_> = ProcessId::all(4)
            .map(|to| (to, Value::from_u64(u64::from(to.0 % 2))))
            .collect();
        let mut moves = vec![Move::Equivocate {
            split: split.clone(),
        }];
        moves.extend(Kind::ALL.map(Move::Withhold));
        let (mut seat, dir) = seat(moves);
        let mut fx = Effects::new(ProcessId(2), 4, SimTime::ZERO);
        seat.on_start(&mut fx);
        assert_eq!(fx.timers_set(), []);
        let sent: Vec<_> = fx.sent();
        assert_eq!(sent.len(), split.len());
        for ((to, m), (want_to, want)) in sent.iter().zip(&split) {
            let Message::Propose(p) = m else {
                panic!("{m:?}")
            };
            assert_eq!((to, &p.value), (want_to, want));
            assert!(dir.verify(&propose_payload(&p.value, p.view, 0), &p.sig));
        }
        let mut fx = Effects::new(ProcessId(2), 4, SimTime(100));
        seat.on_message(
            ProcessId(1),
            Message::Wish(WishMsg { view: View(2) }),
            &mut fx,
        );
        assert!(fx.sent().is_empty());
    }

    /// The moves that narrow what the replica says, on its view-1 proposal
    /// and its view-2 wish: all of it, one seat only, and none.
    #[test]
    fn narrowing_moves_act_on_their_kind_and_view_only() {
        let cases: [(Vec<Move>, usize, usize); 3] = [
            (vec![], 4, 3),
            (
                vec![Move::SendToOne {
                    kind: Kind::Propose,
                    view: View::FIRST,
                    to: ProcessId(3),
                }],
                1,
                3,
            ),
            (vec![Move::SilentInViewChange { view: View(2) }], 4, 0),
        ];
        for (moves, proposals, wishes) in cases {
            let (mut seat, _) = seat(moves.clone());
            let mut fx = Effects::new(ProcessId(2), 4, SimTime::ZERO);
            seat.on_start(&mut fx);
            assert_eq!(fx.sent().len(), proposals, "{moves:?}");
            let timer = fx.timers_set()[0].1;
            let mut fx = Effects::new(ProcessId(2), 4, SimTime(1_000));
            seat.on_timer(timer, &mut fx);
            assert_eq!(fx.sent().len(), wishes, "{moves:?}");
        }
    }

    #[test]
    fn the_draw_is_a_function_of_its_seed_and_reaches_every_move() {
        let cfg = Config::new(4, 1, 1).unwrap();
        let draw = |seed| random_moves(&cfg, ProcessId(2), seed);
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..100 {
            for m in draw(seed) {
                seen.insert(
                    format!("{m:?}")
                        .split([' ', '('])
                        .next()
                        .unwrap()
                        .to_owned(),
                );
            }
        }
        // Every move of the alphabet: there are six.
        assert_eq!(seen.len(), 6, "{seen:?}");
    }

    /// Noise is a function of its seed, makes every kind but a CertRequest,
    /// and its burst re-arms its timer.
    #[test]
    fn noise_is_a_function_of_its_seed_and_makes_six_kinds() {
        let (pairs, _) = KeyDirectory::generate(4, 3);
        let run = |seed| {
            let mut noise = Noise::new(pairs[0].clone(), seed);
            let mut fx = Effects::<Message>::new(ProcessId(1), 4, SimTime::ZERO);
            for _ in 0..100 {
                noise.burst(0, &mut fx);
            }
            assert_eq!(fx.timers_set().len(), 100);
            assert!(fx.timers_set().iter().all(|t| t.1 == Noise::TIMER));
            fx.sent()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let kinds: std::collections::BTreeSet<_> = run(5)
            .iter()
            .map(|(_, m)| m.kind_and_view().0 as u8)
            .collect();
        assert_eq!(kinds.len(), 6, "{kinds:?}");
        assert!(!kinds.contains(&(Kind::CertRequest as u8)));
    }
}
