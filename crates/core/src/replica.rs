//! The replica: one process's complete protocol state machine.
//!
//! Implements the generalized protocol of Appendix A (the vanilla `5f − 1`
//! protocol of §3 is the special case `t = f`, which disables the slow
//! path):
//!
//! * **fast path** — leader proposes; every process acks to everyone;
//!   `n − t` acks for the same `(x, v)` decide `x` (two message delays);
//! * **slow path** — each ack is accompanied by a signature share;
//!   `⌈(n+f+1)/2⌉` shares form a commit certificate, which is broadcast in a
//!   `Commit` message; `⌈(n+f+1)/2⌉` `Commit`s decide (three delays);
//! * **view change** — on entering view `v`, every process sends its signed
//!   vote to `leader(v)`; the leader collects `n − f` valid votes, runs the
//!   selection algorithm, has its choice certified by `f + 1` processes
//!   (bounded certificates) and proposes;
//! * **view synchronization** — the wish/enter synchronizer of
//!   [`crate::sync`], with doubling timeouts, providing the three properties
//!   the paper requires (§3).
//!
//! # One record per view, one place per sender
//!
//! The paper's rules are per sender: a correct process acknowledges at most
//! one proposal per view, and a value is decided on `n − t` acks (or
//! `⌈(n+f+1)/2⌉` `Commit`s) for the same `(x, v)` *from different
//! processes*. The replica's state has that shape: one table,
//! `views: View → ViewRecord`, and in a record one place per sender —
//!
//! | field | paper | holds |
//! |---|---|---|
//! | `proposal` | §3.1 `propose(x̂, v, σ, τ)` | the first *verified* proposal of the view: pending until the view is entered, then the one acknowledged |
//! | `acks` | §3.1 `ack(x, v)`, A.1 `φ_ack` | sender → the value of its first ack and, on the slow path, its verified share; `n − t` senders on one value decide, `⌈(n+f+1)/2⌉` shares on one value make the commit certificate |
//! | `commits` | A.1 `Commit(cc)` | sender → the value of its first *verified* certificate; `⌈(n+f+1)/2⌉` senders on one value decide |
//! | `sent_commit` | A.1 | this replica's own `Commit` for the view went out |
//! | `votes` | §3.2 `vote(vote_q, φ_vote)` | a view this replica leads: sender → its first *valid* vote, the selection algorithm's input |
//! | `leader` | §3.2 CertRequest / CertAck | the current view, if this replica leads it: the value selected and the CertAcks collected |
//!
//! A sender's second ack, `Commit` or vote in a view is refused (and
//! counted: `contribution_refused_total`), so quorums are counted over
//! senders, never over messages, and one sender holds one value per view
//! whatever it sends. A sender takes places in any view up to one leader
//! rotation (`n` views) above the current one — farther than the `≤ f`
//! seats the SMR layer's suspicion table skips — and beyond that horizon
//! in one view at a time, the first it spoke in: a replica that lags more
//! than `n` views still decides on the `n − t` acks of the view its peers
//! decided in, whenever they arrive, and the records above the current
//! view number at most `2n`. What that gives up against holding
//! everything: a *correct* sender that spoke in two views beyond this
//! replica's horizon has the second refused, and these frames are sent
//! once — a replica that far behind can miss a quorum, and single-shot
//! `core` has no retransmission (the SMR layer's `Backfill` is one).
//! Records at or below the current view stay for the life of the instance:
//! the late acks of an abandoned view still decide.
//!
//! **The record is the interner.** A value arriving in a `Propose`, `Ack`
//! or `Commit` that equals one its view's record already holds (the
//! proposal first) is swapped for that instance before any statement is
//! built, so the copies of a hot value share one allocation and one
//! memoized digest; a `CertAck` is checked against the leader's own
//! instance of the value it selected. Not covered: a verifier hashes a
//! `CertRequest`'s value and then the `Propose`'s separately — one SHA-256
//! of the batch per view change. A value that would be a *new* allocation —
//! no verified proposal of its view vouches for it — is held only within
//! its sender's `1/n` share of [`HELD_BYTES_BUDGET`], one byte budget per
//! replica: what one sender says cannot crowd out another's.
//!
//! The replica is an I/O-free [`Actor`]: all effects go through
//! [`Effects`], so the same code runs under the simulator, the thread
//! runtime and the property tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use fastbft_crypto::{KeyDirectory, KeyPair, Signature, SignatureSet};
use fastbft_obs::Metrics;
use fastbft_sim::{Actor, Effects, SimDuration, TimerId};
use fastbft_types::{Config, ProcessId, Value, View};

use crate::certs::{
    sign_counted, verify_counted, CommitCert, ProgressCert, SignedVote, Vote, VoteData,
};
use crate::message::{
    AckMsg, CertAckMsg, CertRequestMsg, CommitMsg, Message, ProposeMsg, VoteMsg, WishMsg,
};
use crate::payload::{ack_payload, certack_payload, propose_payload};
use crate::selection::{select, Outcome};
use crate::sync::{decide, SyncStep, Synchronizer, ViewTimer, BASE_TIMEOUT};

/// Tuning knobs for a [`Replica`].
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// View-1 timeout; doubles on every view change (view synchronizer).
    pub base_timeout: SimDuration,
    /// The block this replica records commit paths, view changes and
    /// signature-check counts into. By default a fresh one of its own;
    /// take seat `i`'s from a [`fastbft_obs::MetricsRegistry`] to scrape
    /// it with the cluster's. Carried by `ReplicaOptions` so it threads
    /// unchanged through every construction path (the SMR multiplexer
    /// clones the options into each per-slot replica).
    pub metrics: Arc<Metrics>,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            base_timeout: BASE_TIMEOUT,
            metrics: Arc::default(),
        }
    }
}

/// Which of the paper's two commit paths decided a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPath {
    /// Two message delays: `n − t` matching acks (§3, the headline path).
    Fast,
    /// Three message delays: a commit certificate of `⌈(n+f+1)/2⌉` shares
    /// followed by a quorum of `Commit`s (Appendix A).
    Slow,
}

/// What one callback learned about a view's leader: the two facts a caller
/// that outlives this instance (the SMR layer's cross-slot suspicion table)
/// cannot read off the effects. See [`Replica::take_leader_signal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaderSignal {
    /// This replica's own view timer expired in `view` without a valid
    /// proposal from its `leader` (never this replica itself).
    TimedOut {
        /// The leader of the view that timed out.
        leader: ProcessId,
        /// The view that timed out.
        view: View,
    },
    /// `leader` sent a proposal for a view it leads — current, future or
    /// stale — that passed signature and certificate verification.
    Proposed {
        /// The sender of the proposal.
        leader: ProcessId,
    },
}

/// How many bytes of values that no verified proposal of their view vouches
/// for a replica holds, over all its view records. Such a value — an `Ack`
/// that overtook its proposal, a `Commit` for a view whose proposal never
/// came, a Byzantine sender's garbage — is held to be counted, at one per
/// sender and view, and charged to that sender: each has a `1/n` share of
/// the budget, and past it a new allocation of *its* is refused as if the
/// link had dropped it, whatever the others hold. A correct sender is
/// charged for a value only until its proposal arrives (a late one, for a
/// view already left, still vouches), so its share is spent only by an ack
/// larger than the share itself or by leaders that withhold proposals.
pub const HELD_BYTES_BUDGET: usize = 4 << 20;

/// Leader-side progress in the view currently led.
#[derive(Debug, Default)]
struct LeaderState {
    /// Value selected and awaiting certification.
    selected: Option<Value>,
    /// Collected CertAck signatures.
    certacks: SignatureSet,
    /// CertRequest already sent.
    requested: bool,
    /// Propose already sent.
    proposed: bool,
}

/// Everything the replica knows about one view, by sender (module docs:
/// the table of fields against the paper). Equal values in a record are
/// one allocation — whatever enters is first swapped for the instance held
/// — so comparing them is a pointer comparison (`Arc`'s, under `Value`).
#[derive(Debug, Default)]
struct ViewRecord {
    /// The first verified proposal of the view: pending until the view is
    /// entered, then the one acknowledged.
    proposal: Option<ProposeMsg>,
    /// Each sender's first ack: its value and, on the slow path, its
    /// verified share.
    acks: BTreeMap<ProcessId, (Value, Option<Signature>)>,
    /// The value of each sender's first verified commit certificate.
    commits: BTreeMap<ProcessId, Value>,
    /// This replica's `Commit` for the view went out.
    sent_commit: bool,
    /// Each sender's first valid vote, if this replica leads the view.
    votes: BTreeMap<ProcessId, SignedVote>,
    /// `Some` in the record of the current view only, and only while this
    /// replica leads it.
    leader: Option<LeaderState>,
}

impl ViewRecord {
    /// The values senders hold a place with, in id order, acks first.
    fn contributed(&self) -> impl Iterator<Item = (ProcessId, &Value)> {
        let acked = self.acks.iter().map(|(from, (value, _))| (*from, value));
        acked.chain(self.commits.iter().map(|(from, value)| (*from, value)))
    }

    /// The value the view's verified proposal vouches for.
    fn vouched(&self) -> Option<&Value> {
        self.proposal.as_ref().map(|p| &p.value)
    }

    /// The instance of `value` the record already holds, the proposal's
    /// first.
    fn held(&self, value: &Value) -> Option<&Value> {
        let contributed = self.contributed().map(|(_, held)| held);
        let mut held = self.vouched().into_iter().chain(contributed);
        held.find(|held| *held == value)
    }

    /// Bytes of the values `from` (every sender, if `None`) holds a place
    /// with that the proposal does not vouch for — counted per place, so an
    /// allocation two places share counts at both.
    fn unvouched_bytes(&self, from: Option<ProcessId>) -> usize {
        let charged = |(sender, value): &(ProcessId, &Value)| {
            from.is_none_or(|from| *sender == from) && Some(*value) != self.vouched()
        };
        let places = self.contributed().filter(charged);
        places.map(|(_, value)| value.len()).sum()
    }

    /// Whether `from` holds a place of any kind in the record.
    fn has(&self, from: ProcessId) -> bool {
        let proposed = self.proposal.as_ref().is_some_and(|p| p.sig.signer == from);
        let said = self.acks.contains_key(&from) || self.commits.contains_key(&from);
        proposed || said || self.votes.contains_key(&from)
    }
}

/// A correct process running the protocol. See module docs.
#[derive(Debug)]
pub struct Replica {
    cfg: Config,
    id: ProcessId,
    keys: KeyPair,
    dir: KeyDirectory,
    input: Value,
    /// Whether the slow path runs: exactly when `t < f` (Appendix A; the
    /// vanilla protocol, `t = f`, has none).
    slow_path: bool,

    view: View,
    /// The paper's `vote_q`: the last proposal acknowledged.
    vote: Vote,
    /// Highest view in which this process acknowledged a proposal.
    acked_view: Option<View>,
    /// Latest commit certificate collected (piggybacked on votes).
    latest_cc: Option<CommitCert>,
    decided: Option<Value>,

    /// What each sender contributed to each view (module docs). The one
    /// view-keyed collection: records exist for views up to one leader
    /// rotation above `view` and for one view per sender beyond that, and
    /// are never removed.
    views: BTreeMap<View, ViewRecord>,

    /// The view synchronizer: every process's highest wish, and ours.
    sync: Synchronizer,
    /// The view timer; a timer from an earlier view is stale.
    timer: ViewTimer,
    /// What the last callback learned about a leader, until the caller
    /// takes it (see [`Replica::take_leader_signal`]).
    leader_signal: Option<LeaderSignal>,

    /// Where this replica records (see [`ReplicaOptions::metrics`]).
    metrics: Arc<Metrics>,
    /// Which path produced the first decision, for path attribution.
    decided_path: Option<CommitPath>,
}

impl Replica {
    /// Creates a replica with default options.
    pub fn new(cfg: Config, keys: KeyPair, dir: KeyDirectory, input: Value) -> Self {
        Replica::with_options(cfg, keys, dir, input, ReplicaOptions::default())
    }

    /// Creates a replica with explicit options.
    pub fn with_options(
        cfg: Config,
        keys: KeyPair,
        dir: KeyDirectory,
        input: Value,
        opts: ReplicaOptions,
    ) -> Self {
        let id = keys.id();
        Replica {
            id,
            cfg,
            keys,
            dir,
            input,
            slow_path: cfg.t() < cfg.f(),
            view: View::FIRST,
            vote: None,
            acked_view: None,
            latest_cc: None,
            decided: None,
            views: BTreeMap::new(),
            sync: Synchronizer::new(id, cfg.f()),
            timer: ViewTimer::new(opts.base_timeout),
            leader_signal: None,
            metrics: opts.metrics,
            decided_path: None,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<&Value> {
        self.decided.as_ref()
    }

    /// The current vote (`vote_q`).
    pub fn vote(&self) -> &Vote {
        &self.vote
    }

    /// Whether the slow path is active.
    pub fn slow_path_enabled(&self) -> bool {
        self.slow_path
    }

    /// Which commit path produced the decision, if this replica decided.
    pub fn decided_path(&self) -> Option<CommitPath> {
        self.decided_path
    }

    /// The configuration this instance runs under (its leader map, for a
    /// caller that rotates first leaders per instance).
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The highest view this replica has broadcast a wish for, if any.
    pub fn wish(&self) -> Option<View> {
        self.sync.wish()
    }

    /// Bytes this replica's senders are charged against
    /// [`HELD_BYTES_BUDGET`], all together (test accessor for the bound).
    #[doc(hidden)]
    pub fn held_bytes(&self) -> usize {
        self.unvouched_bytes(None)
    }

    fn unvouched_bytes(&self, from: Option<ProcessId>) -> usize {
        let records = self.views.values();
        records.map(|record| record.unvouched_bytes(from)).sum()
    }

    /// Raises this replica's wish to `view` (no-op unless that is beyond
    /// its current view and wish), as if its timer had already expired in
    /// every view below. A wish is all it is: the replica stays in its
    /// view, keeps acknowledging that view's proposal, and enters `view`
    /// only with the synchronizer's usual `2f + 1` wishes — so, like any
    /// timer setting, this can cost liveness but never safety.
    pub fn wish_for(&mut self, view: View, fx: &mut Effects<Message>) {
        let steps = self.sync.wish_for(view, self.view);
        self.synchronize(steps, fx);
    }

    /// Takes what the last callback learned about a leader, if anything
    /// (each callback produces at most one signal).
    pub fn take_leader_signal(&mut self) -> Option<LeaderSignal> {
        self.leader_signal.take()
    }

    // -- internals -----------------------------------------------------------

    /// Signs `statement` with this replica's key, counted: every signature
    /// the replica makes is made here.
    fn sign(&self, statement: &[u8]) -> Signature {
        sign_counted(&self.keys, &self.metrics, &[statement])
    }

    /// Signs `vote` for the leader of `dest_view`.
    fn sign_vote(&self, vote: Vote, dest_view: View) -> SignedVote {
        SignedVote::sign_with(vote, dest_view, self.cfg.instance(), |s| self.sign(s))
    }

    /// Counts a contribution refused: a sender's second in a view, its
    /// second view beyond the horizon, or a value past its byte share.
    fn refuse(&self) {
        self.metrics.contribution_refused_total.inc();
    }

    /// Whether `from` may take a place in `view`: any view up to one
    /// leader rotation above the current one, and beyond that horizon one
    /// view at a time, the first it took a place in.
    fn admits(&self, from: ProcessId, view: View) -> bool {
        let beyond = View(self.view.0.saturating_add(self.cfg.n() as u64 + 1));
        let mut out_there = self.views.range(beyond..);
        view < beyond || out_there.all(|(held, record)| *held == view || !record.has(from))
    }

    /// The instance of `value` to build statements on and to hold for
    /// `from` in `view`'s record: the one the record already holds if it
    /// holds an equal one, else `value` itself — unless that new allocation
    /// would not fit `from`'s share of the byte budget.
    fn canonical(&self, from: ProcessId, view: View, value: Value) -> Option<Value> {
        let held = self.views.get(&view).and_then(|record| record.held(&value));
        match held {
            Some(held) => Some(held.clone()),
            None => {
                let charged = self.unvouched_bytes(Some(from)).saturating_add(value.len());
                (charged <= HELD_BYTES_BUDGET / self.cfg.n()).then_some(value)
            }
        }
    }

    fn try_decide(&mut self, value: &Value, path: CommitPath, fx: &mut Effects<Message>) {
        if !decide(&mut self.decided, value, fx) {
            return;
        }
        self.decided_path = Some(path);
        let m = &self.metrics;
        match path {
            CommitPath::Fast => m.commit_fast_total.inc(),
            CommitPath::Slow => m.commit_slow_total.inc(),
        }
        let (p, slot, view) = (self.id.0, self.cfg.instance(), self.view.0);
        m.recorder.record(
            match path {
                CommitPath::Fast => "commit-fast",
                CommitPath::Slow => "commit-slow",
            },
            format!("p{p} decided slot {slot} in view {view}"),
        );
    }

    /// The vote we send to the leader of `dest_view`, with the freshest
    /// eligible commit certificate piggybacked (Appendix A.2).
    fn current_vote_for(&self, dest_view: View) -> Vote {
        let mut vote = self.vote.clone();
        if let Some(vd) = &mut vote {
            vd.commit_cert = self.latest_cc.clone().filter(|cc| cc.view < dest_view);
        }
        vote
    }

    fn enter_view(&mut self, v: View, fx: &mut Effects<Message>) {
        debug_assert!(v > self.view);
        self.metrics.view_change_total.inc();
        let (p, slot, leader) = (self.id.0, self.cfg.instance(), self.cfg.leader(v).0);
        let detail = format!("p{p} slot {slot} entered view {} (leader p{leader})", v.0);
        self.metrics.recorder.record("view-change", detail);
        // The leader-side state of the views left behind (and of the ones
        // skipped) is dead: only the current view's is ever read. What
        // decides — acks, commits, the proposal that vouches for them —
        // stays.
        for (_, left) in self.views.range_mut(self.view..v) {
            left.votes.clear();
            left.leader = None;
        }
        self.view = v;
        self.timer.arm(v, fx);

        // Send our vote to the new leader (§3.2: "Whenever a correct process
        // changes its current view, it sends vote(vote_q, φ_vote)").
        let leader = self.cfg.leader(v);
        let signed = self.sign_vote(self.current_vote_for(v), v);
        if leader == self.id {
            let record = self.views.entry(v).or_default();
            record.votes.insert(self.id, signed);
            record.leader = Some(LeaderState::default());
            self.try_leader_progress(fx);
        } else {
            fx.send(
                leader,
                Message::Vote(VoteMsg {
                    view: v,
                    vote: signed,
                }),
            );
        }

        // A proposal for this view may have arrived while we lagged behind.
        self.acknowledge_proposal(fx);
    }

    /// Acknowledges the verified proposal of the **current** view, if its
    /// record holds one and none was acknowledged in this view yet.
    fn acknowledge_proposal(&mut self, fx: &mut Effects<Message>) {
        if self.acked_view == Some(self.view) {
            return; // only the first proposal per view is acknowledged
        }
        let record = self.views.get(&self.view);
        let Some(p) = record.and_then(|record| record.proposal.as_ref()) else {
            return;
        };
        debug_assert_eq!(p.view, self.view);
        self.acked_view = Some(p.view);
        self.vote = Some(VoteData {
            value: p.value.clone(),
            view: p.view,
            progress_cert: p.cert.clone(),
            leader_sig: p.sig.clone(),
            commit_cert: None,
        });
        // The slow-path share rides inside the ack (one copy of the value
        // on the wire, not two): signing is 49 fixed bytes now, so it no
        // longer needs the separate broadcast that kept it off the fast
        // path (see `AckMsg`).
        let share = self
            .slow_path
            .then(|| self.sign(&ack_payload(&p.value, p.view, self.cfg.instance())));
        fx.broadcast(Message::Ack(AckMsg {
            value: p.value.clone(),
            view: p.view,
            share,
        }));
    }

    fn on_propose(&mut self, from: ProcessId, mut p: ProposeMsg, fx: &mut Effects<Message>) {
        // Authentication and validity (§3.1): correct leader id, valid τ,
        // valid progress certificate for (x̂, v).
        if from != self.cfg.leader(p.view) || p.sig.signer != from {
            return;
        }
        if p.view < View::FIRST {
            return;
        }
        if !self.admits(from, p.view) {
            return self.refuse();
        }
        // Acks that overtook the proposal hold its value already.
        let record = self.views.get(&p.view);
        let held = record.and_then(|record| record.held(&p.value)).cloned();
        let awaited = held.is_some();
        if let Some(held) = held {
            p.value = held;
        }
        let metrics = &self.metrics;
        if !verify_counted(
            &self.dir,
            metrics,
            &propose_payload(&p.value, p.view, self.cfg.instance()),
            &p.sig,
        ) {
            return;
        }
        if !p
            .cert
            .verify(&self.cfg, &self.dir, &p.value, p.view, metrics)
        {
            return;
        }
        self.leader_signal = Some(LeaderSignal::Proposed { leader: from });
        if p.view < self.view && !awaited {
            return; // stale, and no place in its view waits to be vouched for
        }
        // Ahead of us, it waits for the synchronizer to catch us up (the
        // leader sends it exactly once); the first one is the one kept.
        let view = p.view;
        let record = self.views.entry(view).or_default();
        record.proposal.get_or_insert(p);
        if view == self.view {
            self.acknowledge_proposal(fx);
        }
    }

    fn on_ack(&mut self, from: ProcessId, a: AckMsg, fx: &mut Effects<Message>) {
        let record = self.views.get(&a.view);
        if !self.admits(from, a.view) || record.is_some_and(|r| r.acks.contains_key(&from)) {
            return self.refuse();
        }
        let Some(value) = self.canonical(from, a.view, a.value) else {
            return self.refuse();
        };
        // The slow-path share `φ_ack`, kept only if it checks out; the ack
        // counts either way.
        let share = a.share.filter(|sig| {
            let checks = |payload| verify_counted(&self.dir, &self.metrics, payload, sig);
            self.slow_path
                && sig.signer == from
                && checks(&ack_payload(&value, a.view, self.cfg.instance()))
        });
        let shared = share.is_some();
        let record = self.views.entry(a.view).or_default();
        record.acks.insert(from, (value.clone(), share));
        let agreeing = || record.acks.values().filter(|(held, _)| *held == value);
        let shares = || agreeing().filter_map(|(_, share)| share.as_ref());

        let fast = agreeing().count() >= self.cfg.fast_quorum();
        if shared && !record.sent_commit && shares().count() >= self.cfg.slow_quorum() {
            let cert = CommitCert {
                value: value.clone(),
                view: a.view,
                sigs: shares().cloned().collect(),
            };
            record.sent_commit = true;
            self.store_cc(cert.clone());
            fx.broadcast(Message::Commit(CommitMsg { cert }));
        }
        if fast {
            self.try_decide(&value, CommitPath::Fast, fx);
        }
    }

    fn store_cc(&mut self, cc: CommitCert) {
        let newer = self
            .latest_cc
            .as_ref()
            .is_none_or(|have| cc.view > have.view);
        if newer {
            self.latest_cc = Some(cc);
        }
    }

    fn on_commit(&mut self, from: ProcessId, c: CommitMsg, fx: &mut Effects<Message>) {
        if !self.slow_path {
            return;
        }
        let mut cert = c.cert;
        let record = self.views.get(&cert.view);
        if !self.admits(from, cert.view) || record.is_some_and(|r| r.commits.contains_key(&from)) {
            return self.refuse();
        }
        let Some(value) = self.canonical(from, cert.view, cert.value) else {
            return self.refuse();
        };
        cert.value = value.clone();
        if !cert.verify(&self.cfg, &self.dir, &self.metrics) {
            return;
        }
        let record = self.views.entry(cert.view).or_default();
        record.commits.insert(from, value.clone());
        let agreeing = record.commits.values().filter(|held| **held == value);
        let slow = agreeing.count() >= self.cfg.slow_quorum();
        self.store_cc(cert);
        if slow {
            self.try_decide(&value, CommitPath::Slow, fx);
        }
    }

    fn on_vote(&mut self, from: ProcessId, v: VoteMsg, fx: &mut Effects<Message>) {
        if v.vote.voter != from {
            return; // votes travel directly from their signer
        }
        if self.cfg.leader(v.view) != self.id || v.view < self.view {
            return; // not ours to lead, or a view we led and left
        }
        let record = self.views.get(&v.view);
        if !self.admits(from, v.view) || record.is_some_and(|r| r.votes.contains_key(&from)) {
            return self.refuse();
        }
        if !v.vote.is_valid(&self.cfg, &self.dir, v.view, &self.metrics) {
            return;
        }
        let record = self.views.entry(v.view).or_default();
        record.votes.insert(from, v.vote);
        self.try_leader_progress(fx);
    }

    fn try_leader_progress(&mut self, fx: &mut Effects<Message>) {
        let view = self.view;
        let Some(record) = self.views.get(&view) else {
            return;
        };
        if !matches!(&record.leader, Some(ls) if !ls.proposed && !ls.requested) {
            return;
        }
        let Ok(result) = select(&self.cfg, view, &record.votes) else {
            return; // need more votes
        };
        let value = match result.outcome {
            Outcome::Constrained(x) => x,
            Outcome::Free => self.input.clone(),
        };
        let snapshot: Vec<SignedVote> = record.votes.values().cloned().collect();

        // Ask 2f + 1 processes (the smallest ids other than ourself) to
        // confirm the selection; certify it ourselves right away.
        let own = self.sign(&certack_payload(&value, view, self.cfg.instance()));
        let record = self.views.get_mut(&view).expect("looked up above");
        let ls = record.leader.as_mut().expect("checked above");
        ls.selected = Some(value.clone());
        ls.requested = true;
        ls.certacks.insert(own);
        let targets: Vec<ProcessId> = self
            .cfg
            .processes()
            .filter(|p| *p != self.id)
            .take(self.cfg.cert_request_targets())
            .collect();
        for to in targets {
            fx.send(
                to,
                Message::CertRequest(CertRequestMsg {
                    view,
                    value: value.clone(),
                    votes: snapshot.clone(),
                }),
            );
        }
        // f + 1 = 2 can already be satisfied by self + nobody only
        // when f = 0, which Config forbids; still, check.
        self.try_propose_certified(fx);
    }

    fn try_propose_certified(&mut self, fx: &mut Effects<Message>) {
        let view = self.view;
        let record = self.views.get_mut(&view);
        let Some(ls) = record.and_then(|record| record.leader.as_mut()) else {
            return;
        };
        if ls.proposed || !ls.requested {
            return;
        }
        let Some(value) = ls.selected.clone() else {
            return;
        };
        if ls.certacks.len() < self.cfg.cert_quorum() {
            return;
        }
        ls.proposed = true;
        let cert = ProgressCert::Bounded(ls.certacks.clone());
        let sig = self.sign(&propose_payload(&value, view, self.cfg.instance()));
        fx.broadcast(Message::Propose(ProposeMsg {
            value,
            view,
            cert,
            sig,
        }));
    }

    fn on_cert_request(&mut self, from: ProcessId, req: CertRequestMsg, fx: &mut Effects<Message>) {
        // The statement we are asked to sign is self-contained: "the
        // selection algorithm over these (valid, view-v) votes permits x̂".
        // Verifying it does not depend on our current view.
        if from != self.cfg.leader(req.view) {
            return;
        }
        let mut map = BTreeMap::new();
        for sv in &req.votes {
            if !sv.is_valid(&self.cfg, &self.dir, req.view, &self.metrics) {
                return;
            }
            if map.insert(sv.voter, sv.clone()).is_some() {
                return; // duplicate voter: malformed request
            }
        }
        let Ok(result) = select(&self.cfg, req.view, &map) else {
            return;
        };
        let acceptable = match result.outcome {
            Outcome::Constrained(x) => x == req.value,
            Outcome::Free => true,
        };
        if !acceptable {
            return;
        }
        let sig = self.sign(&certack_payload(&req.value, req.view, self.cfg.instance()));
        fx.send(
            from,
            Message::CertAck(CertAckMsg {
                view: req.view,
                value: req.value,
                sig,
            }),
        );
    }

    fn on_cert_ack(&mut self, from: ProcessId, ack: CertAckMsg, fx: &mut Effects<Message>) {
        if ack.view != self.view {
            return;
        }
        let record = self.views.get_mut(&ack.view);
        let Some(ls) = record.and_then(|record| record.leader.as_mut()) else {
            return;
        };
        // Checked against our own instance of the value: its digest is warm
        // from the CertAck we signed ourselves.
        let Some(selected) = ls.selected.as_ref().filter(|x| **x == ack.value) else {
            return;
        };
        if ack.sig.signer != from
            || !verify_counted(
                &self.dir,
                &self.metrics,
                &certack_payload(selected, ack.view, self.cfg.instance()),
                &ack.sig,
            )
        {
            return;
        }
        ls.certacks.insert(ack.sig);
        self.try_propose_certified(fx);
    }

    /// Carries out what the synchronizer asked for, in its order.
    fn synchronize(&mut self, steps: Vec<SyncStep>, fx: &mut Effects<Message>) {
        for step in steps {
            match step {
                SyncStep::Wish(view) => fx.broadcast_others(Message::Wish(WishMsg { view })),
                SyncStep::Enter(view) => self.enter_view(view, fx),
            }
        }
    }
}

impl Actor<Message> for Replica {
    fn on_start(&mut self, fx: &mut Effects<Message>) {
        self.timer.arm(self.view, fx);
        if self.cfg.leader(View::FIRST) == self.id {
            // View 1: any value is safe; propose our input with the trivial
            // certificate (§3.1).
            let value = self.input.clone();
            let sig = self.sign(&propose_payload(&value, View::FIRST, self.cfg.instance()));
            fx.broadcast(Message::Propose(ProposeMsg {
                value,
                view: View::FIRST,
                cert: ProgressCert::Genesis,
                sig,
            }));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Message, fx: &mut Effects<Message>) {
        match msg {
            Message::Propose(p) => self.on_propose(from, p, fx),
            Message::Ack(a) => self.on_ack(from, a, fx),
            Message::Commit(c) => self.on_commit(from, c, fx),
            Message::Vote(v) => self.on_vote(from, v, fx),
            Message::CertRequest(r) => self.on_cert_request(from, r, fx),
            Message::CertAck(a) => self.on_cert_ack(from, a, fx),
            Message::Wish(w) => {
                let steps = self.sync.on_wish(from, w.view, self.view);
                self.synchronize(steps, fx);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<Message>) {
        if !self.timer.is_current(timer) {
            return; // stale timer from an earlier view
        }
        if self.decided.is_some() {
            return; // nothing left to synchronize for
        }
        let leader = self.cfg.leader(self.view);
        let (p, slot, view) = (self.id.0, self.cfg.instance(), self.view.0);
        let detail = format!("p{p} slot {slot} view {view} timed out waiting for {leader}");
        self.metrics.recorder.record("view-timeout", detail);
        // Leading a view and failing to propose in it (too few votes
        // arrived) says nothing about anyone else.
        if leader != self.id && self.acked_view != Some(self.view) {
            self.leader_signal = Some(LeaderSignal::TimedOut {
                leader,
                view: self.view,
            });
        }
        // Timeout: wish to move past the current view.
        let steps = self.sync.on_timeout(self.view);
        self.synchronize(steps, fx);
        // Re-arm so we keep escalating if the next leader stalls too.
        self.timer.arm(self.view, fx);
    }

    fn label(&self) -> &'static str {
        "replica"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_sim::SimMessage;

    fn fixture(n: usize, f: usize, t: usize) -> (Config, Vec<KeyPair>, KeyDirectory) {
        let cfg = Config::new(n, f, t).unwrap();
        let (pairs, dir) = KeyDirectory::generate(n, 7);
        (cfg, pairs, dir)
    }

    fn replica(
        cfg: &Config,
        pairs: &[KeyPair],
        dir: &KeyDirectory,
        i: usize,
        input: u64,
    ) -> Replica {
        Replica::new(*cfg, pairs[i].clone(), dir.clone(), Value::from_u64(input))
    }

    fn fx(id: u32, n: usize) -> Effects<Message> {
        Effects::new(ProcessId(id), n, fastbft_sim::SimTime::ZERO)
    }

    #[test]
    fn leader_of_view_one_proposes_on_start() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let leader_id = cfg.leader(View::FIRST);
        let mut r = replica(&cfg, &pairs, &dir, leader_id.index(), 42);
        let mut buf = fx(leader_id.0, 4);
        r.on_start(&mut buf);
        assert_eq!(r.view(), View::FIRST);
        assert_eq!(r.decided(), None);
        // A propose went to every process (broadcast includes self).
        let proposes = buf
            .sent()
            .iter()
            .filter(|(_, m)| matches!(m, Message::Propose(_)))
            .count();
        assert_eq!(proposes, 4);
        // Non-leaders send nothing at start.
        let mut r2 = replica(&cfg, &pairs, &dir, 0, 1); // p1 ≠ leader(1)
        let mut buf2 = fx(1, 4);
        r2.on_start(&mut buf2);
        assert!(buf2.sent().is_empty());
        assert_eq!(buf2.timers_set().len(), 1);
    }

    #[test]
    fn first_valid_proposal_is_adopted() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let leader = cfg.leader(View::FIRST);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1); // p1, not leader(1)=p2
        let x = Value::from_u64(9);
        let p = ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[leader.index()].sign(&propose_payload(&x, View::FIRST, 0)),
        };
        let mut buf = fx(1, 4);
        r.on_message(leader, Message::Propose(p.clone()), &mut buf);
        assert_eq!(r.vote().as_ref().map(|vd| vd.value.clone()), Some(x));
        // A second (equivocating) proposal in the same view is not adopted.
        let y = Value::from_u64(10);
        let p2 = ProposeMsg {
            value: y.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[leader.index()].sign(&propose_payload(&y, View::FIRST, 0)),
        };
        let mut buf2 = fx(1, 4);
        r.on_message(leader, Message::Propose(p2), &mut buf2);
        assert_ne!(r.vote().as_ref().map(|vd| vd.value.clone()), Some(y));
    }

    #[test]
    fn proposal_from_non_leader_rejected() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(9);
        // p3 is not leader(1); even with its own valid signature the
        // proposal must be ignored.
        let p = ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[2].sign(&propose_payload(&x, View::FIRST, 0)),
        };
        let mut buf = fx(1, 4);
        r.on_message(ProcessId(3), Message::Propose(p), &mut buf);
        assert!(r.vote().is_none());
    }

    #[test]
    fn fast_quorum_of_acks_decides() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(5);
        let mut buf = fx(1, 4);
        for sender in [2u32, 3, 4] {
            r.on_message(
                ProcessId(sender),
                Message::Ack(AckMsg {
                    value: x.clone(),
                    view: View::FIRST,
                    share: None,
                }),
                &mut buf,
            );
        }
        // fast quorum for (4,1,1) is 3.
        assert_eq!(r.decided(), Some(&x));
    }

    #[test]
    fn a_raised_wish_is_broadcast_and_needs_the_usual_quorum() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        r.on_start(&mut buf);
        assert_eq!(r.wish(), None);
        // Wishing for the view we are in is no wish at all.
        r.wish_for(View::FIRST, &mut buf);
        assert!(buf.sent().is_empty());
        r.wish_for(View(2), &mut buf);
        assert_eq!(r.wish(), Some(View(2)));
        let wished = |buf: &Effects<Message>, view: u64| -> Vec<ProcessId> {
            buf.sent()
                .into_iter()
                .filter(|(_, m)| matches!(m, Message::Wish(w) if w.view == View(view)))
                .map(|(to, _)| to)
                .collect()
        };
        assert_eq!(
            wished(&buf, 2),
            vec![ProcessId(2), ProcessId(3), ProcessId(4)]
        );
        // Never lowered, never repeated.
        r.wish_for(View(2), &mut buf);
        assert_eq!(wished(&buf, 2).len(), 3);
        // Still in view 1, with only the view-1 timer armed.
        assert_eq!(r.view(), View::FIRST);
        assert_eq!(
            buf.timers_set(),
            &[(r.timer.timeout_for(View::FIRST), TimerId(1))]
        );
        // Own wish + one more is f + 1: adopted already; the third enters.
        r.on_message(
            ProcessId(2),
            Message::Wish(WishMsg { view: View(2) }),
            &mut buf,
        );
        assert_eq!(r.view(), View::FIRST);
        r.on_message(
            ProcessId(3),
            Message::Wish(WishMsg { view: View(2) }),
            &mut buf,
        );
        assert_eq!(r.view(), View(2));
    }

    #[test]
    fn leader_signals_report_timeouts_and_verified_proposals() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let leader = cfg.leader(View::FIRST);
        let x = Value::from_u64(9);
        let propose = |signer: &KeyPair| {
            Message::Propose(ProposeMsg {
                value: x.clone(),
                view: View::FIRST,
                cert: ProgressCert::Genesis,
                sig: signer.sign(&propose_payload(&x, View::FIRST, 0)),
            })
        };

        // The timer expires in view 1 with nothing from its leader.
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        r.on_start(&mut buf);
        assert_eq!(r.take_leader_signal(), None);
        r.on_timer(TimerId(1), &mut buf);
        assert_eq!(
            r.take_leader_signal(),
            Some(LeaderSignal::TimedOut {
                leader,
                view: View::FIRST
            })
        );
        assert_eq!(r.take_leader_signal(), None, "taken once");

        // A verified proposal is reported; after it the same expiry is
        // silent (the leader did its part, the view failed elsewhere).
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        r.on_start(&mut buf);
        r.on_message(leader, propose(&pairs[leader.index()]), &mut buf);
        assert_eq!(
            r.take_leader_signal(),
            Some(LeaderSignal::Proposed { leader })
        );
        r.on_timer(TimerId(1), &mut buf);
        assert_eq!(r.take_leader_signal(), None);

        // Stale proposals still count: verification precedes the view check.
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        r.enter_view(View(2), &mut buf);
        r.on_message(leader, propose(&pairs[leader.index()]), &mut buf);
        assert_eq!(
            r.take_leader_signal(),
            Some(LeaderSignal::Proposed { leader })
        );
        assert!(r.vote().is_none(), "stale proposal is not acknowledged");

        // The leader's own timer expiring in the view it leads is silent.
        let mut r = replica(&cfg, &pairs, &dir, leader.index(), 1);
        r.on_start(&mut buf);
        r.on_timer(TimerId(1), &mut buf);
        assert_eq!(r.take_leader_signal(), None);

        // A proposal signed by someone else is not a proposal.
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        r.on_message(leader, propose(&pairs[0]), &mut buf);
        assert_eq!(r.take_leader_signal(), None);
    }

    /// A replica built with the default options records into a block of
    /// its own: nothing has to be wired for its flight recorder to hold the
    /// post-mortem of a view that timed out.
    #[test]
    fn a_replica_built_without_a_registry_records() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let opts = ReplicaOptions::default();
        let metrics = Arc::clone(&opts.metrics);
        let mut r = Replica::with_options(cfg, pairs[0].clone(), dir, Value::from_u64(1), opts);
        let mut buf = fx(1, 4);
        r.on_start(&mut buf);
        r.on_timer(TimerId(1), &mut buf);
        let events = metrics.recorder.snapshot();
        let timeouts: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == "view-timeout")
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(timeouts, ["p1 slot 0 view 1 timed out waiting for p2"]);
    }

    #[test]
    fn duplicate_acks_do_not_double_count() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(5);
        let mut buf = fx(1, 4);
        for _ in 0..5 {
            r.on_message(
                ProcessId(2),
                Message::Ack(AckMsg {
                    value: x.clone(),
                    view: View::FIRST,
                    share: None,
                }),
                &mut buf,
            );
        }
        assert_eq!(r.decided(), None);
    }

    #[test]
    fn acks_for_different_values_do_not_mix() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        for (sender, val) in [(2u32, 5u64), (3, 6), (4, 7)] {
            r.on_message(
                ProcessId(sender),
                Message::Ack(AckMsg {
                    value: Value::from_u64(val),
                    view: View::FIRST,
                    share: None,
                }),
                &mut buf,
            );
        }
        assert_eq!(r.decided(), None);
    }

    #[test]
    fn slow_path_disabled_for_vanilla_config() {
        // t = f ⇒ vanilla protocol: no slow path by default.
        let (cfg, pairs, dir) = fixture(9, 2, 2);
        let r = replica(&cfg, &pairs, &dir, 0, 1);
        assert!(!r.slow_path_enabled());
        // t < f ⇒ generalized: slow path on.
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let r = replica(&cfg, &pairs, &dir, 0, 1);
        assert!(r.slow_path_enabled());
    }

    #[test]
    fn sig_shares_assemble_commit_cert() {
        let (cfg, pairs, dir) = fixture(8, 2, 1); // slow quorum ceil(11/2)=6
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(3);
        let mut buf = fx(1, 8);
        for (i, pair) in pairs.iter().enumerate().take(6) {
            let sig = pair.sign(&ack_payload(&x, View::FIRST, 0));
            r.on_message(
                ProcessId::from_index(i),
                Message::Ack(AckMsg {
                    value: x.clone(),
                    view: View::FIRST,
                    share: Some(sig),
                }),
                &mut buf,
            );
        }
        // The replica stored the assembled commit certificate.
        assert!(r.latest_cc.as_ref().is_some_and(|cc| cc.value == x));
    }

    #[test]
    fn forged_sig_share_ignored() {
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(3);
        let mut buf = fx(1, 8);
        for (i, pair) in pairs.iter().enumerate().take(6) {
            // Signature by i but claimed from sender i+1: must be dropped.
            let sig = pair.sign(&ack_payload(&x, View::FIRST, 0));
            r.on_message(
                ProcessId::from_index((i + 1) % 8),
                Message::Ack(AckMsg {
                    value: x.clone(),
                    view: View::FIRST,
                    share: Some(sig),
                }),
                &mut buf,
            );
        }
        assert!(r.latest_cc.is_none());
    }

    #[test]
    fn commit_quorum_decides_slow() {
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(4);
        let cc = CommitCert {
            value: x.clone(),
            view: View::FIRST,
            sigs: pairs[..6]
                .iter()
                .map(|p| p.sign(&ack_payload(&x, View::FIRST, 0)))
                .collect(),
        };
        let mut buf = fx(1, 8);
        for sender in 1..=6u32 {
            r.on_message(
                ProcessId(sender),
                Message::Commit(CommitMsg { cert: cc.clone() }),
                &mut buf,
            );
        }
        assert_eq!(r.decided(), Some(&x));
    }

    #[test]
    fn invalid_commit_cert_rejected() {
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(4);
        // Only 3 shares: below the slow quorum of 6.
        let cc = CommitCert {
            value: x.clone(),
            view: View::FIRST,
            sigs: pairs[..3]
                .iter()
                .map(|p| p.sign(&ack_payload(&x, View::FIRST, 0)))
                .collect(),
        };
        let mut buf = fx(1, 8);
        for sender in 1..=6u32 {
            r.on_message(
                ProcessId(sender),
                Message::Commit(CommitMsg { cert: cc.clone() }),
                &mut buf,
            );
        }
        assert_eq!(r.decided(), None);
    }

    #[test]
    fn future_proposal_buffered_until_view_entered() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(8);
        let v2 = View(2);
        let leader2 = cfg.leader(v2);
        // A valid view-2 proposal needs a progress certificate; build one
        // from f + 1 = 2 CertAck signatures.
        let cert: SignatureSet = pairs[..2]
            .iter()
            .map(|p| p.sign(&certack_payload(&x, v2, 0)))
            .collect();
        let p = ProposeMsg {
            value: x.clone(),
            view: v2,
            cert: ProgressCert::Bounded(cert),
            sig: pairs[leader2.index()].sign(&propose_payload(&x, v2, 0)),
        };
        let mut buf = fx(1, 4);
        r.on_message(leader2, Message::Propose(p), &mut buf);
        assert!(r.vote().is_none(), "not adopted while still in view 1");

        // Drive the synchronizer: 2f + 1 = 3 wishes for view 2.
        let mut buf2 = fx(1, 4);
        for sender in [2u32, 3, 4] {
            r.on_message(
                ProcessId(sender),
                Message::Wish(WishMsg { view: v2 }),
                &mut buf2,
            );
        }
        assert_eq!(r.view(), v2);
        assert_eq!(r.vote().as_ref().map(|vd| vd.value.clone()), Some(x));
    }

    #[test]
    fn wish_quorum_enters_view() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        // f + 1 = 2 wishes adopt, 2f + 1 = 3 enter.
        r.on_message(
            ProcessId(2),
            Message::Wish(WishMsg { view: View(5) }),
            &mut buf,
        );
        assert_eq!(r.view(), View::FIRST);
        r.on_message(
            ProcessId(3),
            Message::Wish(WishMsg { view: View(5) }),
            &mut buf,
        );
        // Now we adopted the wish ourselves (counts as the third).
        assert_eq!(r.view(), View(5));
    }

    #[test]
    fn byzantine_wishes_alone_cannot_move_view() {
        let (cfg, pairs, dir) = fixture(9, 2, 2); // f = 2
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 9);
        // Only f = 2 wishes: below the f + 1 echo threshold.
        for sender in [2u32, 3] {
            r.on_message(
                ProcessId(sender),
                Message::Wish(WishMsg { view: View(9) }),
                &mut buf,
            );
        }
        assert_eq!(r.view(), View::FIRST);
        assert_eq!(r.wish(), None);
    }

    #[test]
    fn message_kind_labels_cover_all_variants() {
        // Exercised here to keep labels stable for the figure renderers.
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let _ = (cfg, dir);
        let x = Value::from_u64(1);
        assert_eq!(
            Message::Ack(AckMsg {
                value: x.clone(),
                view: View(1),
                share: None,
            })
            .kind(),
            "ack"
        );
        assert_eq!(
            Message::Propose(ProposeMsg {
                value: x,
                view: View(1),
                cert: ProgressCert::Genesis,
                sig: pairs[0].sign(b"x"),
            })
            .kind(),
            "propose"
        );
    }

    /// A fresh allocation per frame, as a TCP decode produces, every value
    /// distinct.
    fn blob(i: u64, len: usize) -> Value {
        let mut bytes = vec![i as u8; len];
        bytes[..8].copy_from_slice(&i.to_be_bytes());
        Value::new(bytes)
    }

    fn ack(value: Value, view: u64) -> Message {
        Message::Ack(AckMsg {
            value,
            view: View(view),
            share: None,
        })
    }

    /// The values a replica's records hold a sender's place with.
    fn contributed(r: &Replica) -> usize {
        r.views.values().map(|rec| rec.contributed().count()).sum()
    }

    /// The bound on what a sender can make a replica hold (ARCHITECTURE's
    /// bounds table, last row): one value per view, one view at a time
    /// beyond the horizon, no new allocation past its own share of the byte
    /// budget — and none of it at the expense of what another sender says
    /// or of what a later quorum needs.
    #[test]
    fn a_sender_holds_one_value_per_view_inside_the_horizon_and_the_budget() {
        const SPRAY: u64 = 2_000;
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let share = HELD_BYTES_BUDGET / cfg.n();
        let registry = fastbft_obs::MetricsRegistry::new(4);
        let opts = ReplicaOptions {
            metrics: registry.replica(0),
            ..ReplicaOptions::default()
        };
        let x = Value::from_u64(5);
        let mut r = Replica::with_options(cfg, pairs[0].clone(), dir.clone(), x.clone(), opts);
        let refused = || registry.metrics(0).contribution_refused_total.get();
        let mut buf = fx(1, 4);

        // p4 sprays: a distinct 256 KiB ack for each of views 1 … 2 000,
        // and then a second one for each of them. What stays is what its
        // share pays for, four of the 1 + n values the horizon would admit.
        for i in 0..2 * SPRAY {
            r.on_message(
                ProcessId(4),
                ack(blob(i, 256 << 10), 1 + i % SPRAY),
                &mut buf,
            );
        }
        assert_eq!(contributed(&r), share / (256 << 10));
        assert!(contributed(&r) <= 1 + cfg.n());
        assert_eq!(r.held_bytes(), share);
        assert_eq!(refused(), 2 * SPRAY - 4);

        // The spray cost the others nothing. Two correct acks of view 1
        // overtake their proposal and are held; the replica moves on to
        // view 2, which releases nothing a quorum can still need: the third
        // ack of the abandoned view decides. Its proposal, arriving last of
        // all, still vouches for them.
        for sender in [2, 3] {
            r.on_message(ProcessId(sender), ack(x.clone(), 1), &mut buf);
        }
        let held = r.held_bytes();
        assert_eq!(held, share + 2 * x.len(), "one charge per place");
        r.enter_view(View(2), &mut buf);
        assert_eq!(r.held_bytes(), held);
        assert_eq!(r.decided(), None);
        r.on_message(ProcessId(1), ack(x.clone(), 1), &mut buf);
        assert_eq!(r.decided(), Some(&x));
        let leader = cfg.leader(View::FIRST);
        let propose = Message::Propose(ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[leader.index()].sign(&propose_payload(&x, View::FIRST, 0)),
        });
        r.on_message(leader, propose.clone(), &mut buf);
        assert_eq!(r.held_bytes(), share, "p4's, which nothing vouches for");

        // Small values are bounded by count: views 1 … 1 + n, and the first
        // view beyond them.
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        for i in 0..SPRAY {
            r.on_message(ProcessId(4), ack(Value::from_u64(i), 1 + i), &mut buf);
        }
        assert_eq!(contributed(&r), 1 + cfg.n() + 1);
        assert_eq!(r.views.keys().last(), Some(&View(2 + cfg.n() as u64)));

        // A share, at its edge: one value of exactly that size fits, p4's
        // next new allocation is refused whatever its size — p3's is not —
        // until a verified proposal vouches for the value, after which it
        // costs nothing.
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        r.on_message(ProcessId(4), ack(blob(0, share), 2), &mut buf);
        assert_eq!(r.held_bytes(), share);
        r.on_message(ProcessId(4), ack(x.clone(), 1), &mut buf);
        assert_eq!(contributed(&r), 1, "no room for a new allocation of p4's");
        r.on_message(ProcessId(3), ack(x.clone(), 1), &mut buf);
        assert_eq!(contributed(&r), 2);
        r.on_message(leader, propose, &mut buf);
        r.on_message(ProcessId(4), ack(x.clone(), 1), &mut buf);
        assert_eq!(contributed(&r), 3);
        assert_eq!(r.held_bytes(), share);
    }

    /// A replica more than a leader rotation behind its peers still decides
    /// on the acks of the view they decided in, as they arrive: each sender
    /// has one view at a time beyond the horizon.
    #[test]
    fn a_replica_more_than_a_rotation_behind_decides_on_the_view_it_missed() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let registry = fastbft_obs::MetricsRegistry::new(4);
        let opts = ReplicaOptions {
            metrics: registry.replica(0),
            ..ReplicaOptions::default()
        };
        let x = Value::from_u64(5);
        let mut r = Replica::with_options(cfg, pairs[0].clone(), dir, x.clone(), opts);
        let refused = || registry.metrics(0).contribution_refused_total.get();
        let mut buf = fx(1, 4);
        let missed = cfg.n() as u64 + 3;

        for sender in [2, 3, 4] {
            assert_eq!(r.decided(), None);
            r.on_message(ProcessId(sender), ack(x.clone(), missed), &mut buf);
        }
        assert_eq!((r.decided(), r.view(), refused()), (Some(&x), View(1), 0));

        // A second view out there is refused — until the wishes catch the
        // replica up and it lies within the horizon.
        r.on_message(ProcessId(2), ack(x.clone(), missed + 1), &mut buf);
        assert_eq!(refused(), 1);
        for sender in [2, 3, 4] {
            let wish = Message::Wish(WishMsg { view: View(missed) });
            r.on_message(ProcessId(sender), wish, &mut buf);
        }
        assert_eq!(r.view(), View(missed));
        r.on_message(ProcessId(2), ack(x.clone(), missed + 1), &mut buf);
        assert_eq!(refused(), 1);
        assert!(r.views[&View(missed + 1)].has(ProcessId(2)));
    }

    /// The record is the interner: a value that arrives as a fresh
    /// allocation (here through the wire codec) and equals one the record
    /// holds ends up as that instance — the ack after the proposal, and the
    /// proposal after the ack.
    #[test]
    fn a_decoded_copy_ends_up_holding_the_records_allocation() {
        use fastbft_types::wire::{from_bytes, to_bytes};
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let leader = cfg.leader(View::FIRST);
        let x = blob(7, 1 << 10);
        let propose = Message::Propose(ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[leader.index()].sign(&propose_payload(&x, View::FIRST, 0)),
        });
        let decoded = |m: &Message| from_bytes::<Message>(&to_bytes(m)).expect("round trip");
        let at = |v: &Value| v.as_bytes().as_ptr();
        let mut buf = fx(1, 4);

        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        r.on_message(leader, propose.clone(), &mut buf);
        r.on_message(ProcessId(3), decoded(&ack(x.clone(), 1)), &mut buf);
        let record = &r.views[&View::FIRST];
        assert_eq!(at(&record.acks[&ProcessId(3)].0), at(&x));
        assert_eq!(r.held_bytes(), 0, "the proposal vouches for it");

        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let first = decoded(&ack(x.clone(), 1));
        let Message::Ack(AckMsg { value: copy, .. }) = &first else {
            unreachable!()
        };
        let copy = at(copy);
        assert_ne!(copy, at(&x));
        r.on_message(ProcessId(3), first, &mut buf);
        assert_eq!(r.held_bytes(), x.len());
        r.on_message(leader, decoded(&propose), &mut buf);
        let record = &r.views[&View::FIRST];
        assert_eq!(at(&record.proposal.as_ref().unwrap().value), copy);
        assert_eq!(at(&r.vote().as_ref().unwrap().value), copy);
        assert_eq!(r.held_bytes(), 0);
    }

    /// A vote is checked — its signature, its progress certificate, its
    /// commit certificate — only by the replica that leads the view it is
    /// for: anyone else drops it before the first signature check.
    #[test]
    fn a_vote_for_a_view_led_by_someone_else_is_dropped_unverified() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut buf = fx(1, 4);
        let vote_for = |view: View| {
            Message::Vote(VoteMsg {
                view,
                vote: SignedVote::sign(&pairs[1], None, view, 0),
            })
        };
        let (ours, theirs) = (View(4), View(2));
        assert_eq!(cfg.leader(ours), ProcessId(1));
        assert_ne!(cfg.leader(theirs), ProcessId(1));

        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        r.on_message(ProcessId(2), vote_for(theirs), &mut buf);
        r.on_message(ProcessId(2), vote_for(View::FIRST), &mut buf);
        assert_eq!(r.metrics.sig_memo_miss_total.get(), 0);
        assert!(r.views.is_empty());

        // The honest twin: a nil vote for a view this replica leads costs
        // its one signature check and is held; its repeat costs nothing.
        r.on_message(ProcessId(2), vote_for(ours), &mut buf);
        r.on_message(ProcessId(2), vote_for(ours), &mut buf);
        assert_eq!(r.metrics.sig_memo_miss_total.get(), 1);
        assert_eq!(r.views[&ours].votes.len(), 1);
    }
}
