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
//! * **view synchronization** — a wish/enter synchronizer with doubling
//!   timeouts providing the three properties the paper requires (§3).
//!
//! The replica is an I/O-free [`Actor`]: all effects go through
//! [`Effects`], so the same code runs under the simulator, the thread
//! runtime and the property tests.

use std::collections::{BTreeMap, BTreeSet};

use fastbft_crypto::{KeyDirectory, KeyPair, Signature, SignatureSet};
use fastbft_obs::MetricsHandle;
use fastbft_sim::{Actor, Effects, SimDuration, TimerId};
use fastbft_types::{Config, ProcessId, Value, View};

use crate::certs::{verify_counted, CommitCert, ProgressCert, SignedVote, Vote, VoteData};
use crate::message::{
    AckMsg, CertAckMsg, CertRequestMsg, CommitMsg, Message, ProposeMsg, VoteMsg, WishMsg,
};
use crate::payload::{ack_payload, certack_payload, propose_payload};
use crate::selection::{select, Outcome};

/// Tuning knobs for a [`Replica`].
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// View-1 timeout; doubles on every view change (view synchronizer).
    pub base_timeout: SimDuration,
    /// Observability handle. Disabled by default; wire one up from a
    /// [`fastbft_obs::MetricsRegistry`] to record commit paths, view
    /// changes and signature-check counts. Carried by `ReplicaOptions`
    /// so it threads unchanged through every construction path (the SMR
    /// multiplexer clones the options into each per-slot replica).
    pub metrics: MetricsHandle,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            base_timeout: SimDuration(SimDuration::DELTA.0 * 8),
            metrics: MetricsHandle::none(),
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

/// Leader-side state for the view currently led.
#[derive(Debug)]
struct LeaderState {
    view: View,
    /// Value selected and awaiting certification.
    selected: Option<Value>,
    /// Collected CertAck signatures.
    certacks: SignatureSet,
    /// CertRequest already sent.
    requested: bool,
    /// Propose already sent.
    proposed: bool,
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
    base_timeout: SimDuration,

    view: View,
    /// The paper's `vote_q`: the last proposal acknowledged.
    vote: Vote,
    /// Highest view in which this process acknowledged a proposal.
    acked_view: Option<View>,
    /// Latest commit certificate collected (piggybacked on votes).
    latest_cc: Option<CommitCert>,
    decided: Option<Value>,

    /// Distinct ack senders per `(view, value)`.
    ack_tally: BTreeMap<(View, Value), BTreeSet<ProcessId>>,
    /// Slow path: signature shares per `(view, value)`.
    share_tally: BTreeMap<(View, Value), SignatureSet>,
    /// Slow path: distinct `Commit` senders per `(view, value)`.
    commit_tally: BTreeMap<(View, Value), BTreeSet<ProcessId>>,
    /// `(view, value)` pairs whose `Commit` we already broadcast.
    commit_sent: BTreeSet<(View, Value)>,

    /// Valid proposals for views we have not entered yet.
    pending_proposes: BTreeMap<View, ProposeMsg>,
    /// Votes received per destination view (we may lead that view later).
    votes_in: BTreeMap<View, BTreeMap<ProcessId, SignedVote>>,
    leader: Option<LeaderState>,

    /// View synchronizer: highest wish seen per process.
    wishes: BTreeMap<ProcessId, View>,
    /// Highest wish we have broadcast.
    my_wish: Option<View>,
    /// Timer generation; stale timers are ignored.
    timer_gen: u64,
    /// What the last callback learned about a leader, until the caller
    /// takes it (see [`Replica::take_leader_signal`]).
    leader_signal: Option<LeaderSignal>,

    /// Canonical instances of values seen in messages. Every statement
    /// embeds the value's memoized digest, but a value decoded from the
    /// wire arrives as a fresh allocation with a cold cache — interning
    /// swaps it for the first-seen instance so the bytes are hashed once
    /// per replica (and duplicate copies of a hot value share storage).
    ///
    /// Values land here **before** validation, so the set is bounded
    /// against Byzantine value spray two ways: a count *and* total-bytes
    /// cap (beyond either, new values pass through uninterned), and a
    /// full reset at every view change — hostile garbage is held for at
    /// most one view, and honest traffic re-warms at one hash per value.
    interned: BTreeSet<Value>,
    /// Total bytes held by `interned` (see [`INTERN_BYTES_CAP`]).
    interned_bytes: usize,
    /// Observability handle (see [`ReplicaOptions::metrics`]).
    metrics: MetricsHandle,
    /// Which path produced the first decision, for path attribution.
    decided_path: Option<CommitPath>,
}

/// Backstop bound on the value interner; beyond it new values pass through
/// uninterned (correctness unaffected — their digests are just per-copy).
/// Correct executions see a handful of distinct values per view, so honest
/// traffic sits far below both caps.
const INTERN_CAP: usize = 1024;

/// Total-bytes bound on the value interner: values are interned from
/// messages *before* signature checks, so without a byte cap a Byzantine
/// peer could pin `INTERN_CAP × MAX_FRAME_LEN` of garbage. With it (plus
/// the per-view reset in `enter_view`) hostile spray is bounded to a few
/// MiB for at most one view.
const INTERN_BYTES_CAP: usize = 4 << 20;

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
        Replica {
            id: keys.id(),
            cfg,
            keys,
            dir,
            input,
            slow_path: cfg.t() < cfg.f(),
            base_timeout: opts.base_timeout,
            view: View::FIRST,
            vote: None,
            acked_view: None,
            latest_cc: None,
            decided: None,
            ack_tally: BTreeMap::new(),
            share_tally: BTreeMap::new(),
            commit_tally: BTreeMap::new(),
            commit_sent: BTreeSet::new(),
            pending_proposes: BTreeMap::new(),
            votes_in: BTreeMap::new(),
            leader: None,
            wishes: BTreeMap::new(),
            my_wish: None,
            timer_gen: 0,
            leader_signal: None,
            interned: BTreeSet::new(),
            interned_bytes: 0,
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
        self.my_wish
    }

    /// Raises this replica's wish to `view` (no-op unless that is beyond
    /// its current view and wish), as if its timer had already expired in
    /// every view below. A wish is all it is: the replica stays in its
    /// view, keeps acknowledging that view's proposal, and enters `view`
    /// only with the synchronizer's usual `2f + 1` wishes — so, like any
    /// timer setting, this can cost liveness but never safety.
    pub fn wish_for(&mut self, view: View, fx: &mut Effects<Message>) {
        if view > self.view && self.my_wish.is_none_or(|mine| view > mine) {
            self.my_wish = Some(view);
            self.broadcast_wish(view, fx);
        }
    }

    /// Takes what the last callback learned about a leader, if anything
    /// (each callback produces at most one signal).
    pub fn take_leader_signal(&mut self) -> Option<LeaderSignal> {
        self.leader_signal.take()
    }

    // -- internals -----------------------------------------------------------

    /// Returns the canonical instance of `value` (see the `interned` field).
    fn intern(&mut self, value: Value) -> Value {
        if let Some(canonical) = self.interned.get(&value) {
            return canonical.clone();
        }
        if self.interned.len() < INTERN_CAP
            && self.interned_bytes.saturating_add(value.len()) <= INTERN_BYTES_CAP
        {
            self.interned_bytes += value.len();
            self.interned.insert(value.clone());
        }
        value
    }

    fn timeout_for(&self, view: View) -> SimDuration {
        // Doubling timeouts: after GST some view's timeout exceeds the time a
        // correct leader needs, giving it the paper's required ≥ 5Δ of quiet.
        let exp = (view.0.saturating_sub(1)).min(12) as u32;
        SimDuration(self.base_timeout.0.saturating_mul(1 << exp))
    }

    fn arm_timer(&mut self, fx: &mut Effects<Message>) {
        self.timer_gen += 1;
        fx.set_timer(self.timeout_for(self.view), TimerId(self.timer_gen));
    }

    fn try_decide(&mut self, value: &Value, path: CommitPath, fx: &mut Effects<Message>) {
        match &self.decided {
            None => {
                self.decided = Some(value.clone());
                self.decided_path = Some(path);
                if let Some(m) = self.metrics.get() {
                    match path {
                        CommitPath::Fast => m.commit_fast_total.inc(),
                        CommitPath::Slow => m.commit_slow_total.inc(),
                    }
                    let (p, slot, view) = (self.id.0, self.cfg.leader_offset(), self.view.0);
                    m.recorder.record(
                        match path {
                            CommitPath::Fast => "commit-fast",
                            CommitPath::Slow => "commit-slow",
                        },
                        format!("p{p} decided slot {slot} in view {view}"),
                    );
                }
                fx.decide(value.clone());
            }
            Some(prev) if prev != value => {
                // Should be unreachable for n ≥ 3f + 2t − 1; surfacing the
                // second decision lets the checker catch safety violations in
                // deliberately under-provisioned runs (lower-bound demo).
                fx.decide(value.clone());
            }
            Some(_) => {}
        }
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
        if let Some(m) = self.metrics.get() {
            m.view_change_total.inc();
            let (p, slot, leader) = (self.id.0, self.cfg.leader_offset(), self.cfg.leader(v).0);
            let detail = format!("p{p} slot {slot} entered view {} (leader p{leader})", v.0);
            m.recorder.record("view-change", detail);
        }
        self.view = v;
        self.leader = None;
        // Reset the interner: any Byzantine garbage it absorbed is released
        // here, and the handful of honest hot values re-warm at one hash
        // each (their clones elsewhere keep their memoized digests).
        self.interned.clear();
        self.interned_bytes = 0;
        self.arm_timer(fx);

        // Send our vote to the new leader (§3.2: "Whenever a correct process
        // changes its current view, it sends vote(vote_q, φ_vote)").
        let leader = self.cfg.leader(v);
        let signed = SignedVote::sign(&self.keys, self.current_vote_for(v), v);
        if leader == self.id {
            self.votes_in.entry(v).or_default().insert(self.id, signed);
            self.leader = Some(LeaderState {
                view: v,
                selected: None,
                certacks: SignatureSet::new(),
                requested: false,
                proposed: false,
            });
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
        if let Some(p) = self.pending_proposes.remove(&v) {
            self.accept_proposal(p, fx);
        }
        // Old buffered proposals are useless now.
        self.pending_proposes = self.pending_proposes.split_off(&v);
    }

    /// Handles a verified proposal for the **current** view.
    fn accept_proposal(&mut self, p: ProposeMsg, fx: &mut Effects<Message>) {
        if self.acked_view == Some(self.view) {
            return; // only the first proposal per view is acknowledged
        }
        debug_assert_eq!(p.view, self.view);
        self.acked_view = Some(p.view);
        self.vote = Some(VoteData {
            value: p.value.clone(),
            view: p.view,
            progress_cert: p.cert,
            leader_sig: p.sig,
            commit_cert: None,
        });
        // The slow-path share rides inside the ack (one copy of the value
        // on the wire, not two): signing is 41 fixed bytes now, so it no
        // longer needs the separate broadcast that kept it off the fast
        // path (see `AckMsg`).
        let share = self
            .slow_path
            .then(|| self.keys.sign(&ack_payload(&p.value, p.view)));
        fx.broadcast(Message::Ack(AckMsg {
            value: p.value,
            view: p.view,
            share,
        }));
    }

    fn on_propose(&mut self, from: ProcessId, p: ProposeMsg, fx: &mut Effects<Message>) {
        // Authentication and validity (§3.1): correct leader id, valid τ,
        // valid progress certificate for (x̂, v).
        if from != self.cfg.leader(p.view) || p.sig.signer != from {
            return;
        }
        if p.view < View::FIRST {
            return;
        }
        let metrics = self.metrics.get();
        if !verify_counted(
            &self.dir,
            metrics,
            &propose_payload(&p.value, p.view),
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
        if p.view > self.view {
            // We are behind; keep the proposal for when the synchronizer
            // catches us up (the leader sends it exactly once).
            self.pending_proposes.entry(p.view).or_insert(p);
        } else if p.view == self.view {
            self.accept_proposal(p, fx);
        }
        // p.view < self.view: stale, ignore.
    }

    fn on_ack(&mut self, from: ProcessId, a: AckMsg, fx: &mut Effects<Message>) {
        if let Some(sig) = a.share {
            self.on_share(from, a.value.clone(), a.view, sig, fx);
        }
        let senders = self.ack_tally.entry((a.view, a.value.clone())).or_default();
        senders.insert(from);
        if senders.len() >= self.cfg.fast_quorum() {
            let value = a.value.clone();
            self.try_decide(&value, CommitPath::Fast, fx);
        }
    }

    /// Handles the slow-path share `φ_ack` an ack carried.
    fn on_share(
        &mut self,
        from: ProcessId,
        value: Value,
        view: View,
        sig: Signature,
        fx: &mut Effects<Message>,
    ) {
        if !self.slow_path {
            return;
        }
        let payload = ack_payload(&value, view);
        if sig.signer != from || !verify_counted(&self.dir, self.metrics.get(), &payload, &sig) {
            return;
        }
        let key = (view, value);
        let shares = self.share_tally.entry(key.clone()).or_default();
        shares.insert(sig);
        if shares.len() >= self.cfg.slow_quorum() && !self.commit_sent.contains(&key) {
            self.commit_sent.insert(key.clone());
            let cert = CommitCert {
                value: key.1.clone(),
                view,
                sigs: self.share_tally[&key].clone(),
            };
            self.store_cc(cert.clone());
            fx.broadcast(Message::Commit(CommitMsg { cert }));
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
        if !c.cert.verify(&self.cfg, &self.dir, self.metrics.get()) {
            return;
        }
        self.store_cc(c.cert.clone());
        let senders = self
            .commit_tally
            .entry((c.cert.view, c.cert.value.clone()))
            .or_default();
        senders.insert(from);
        if senders.len() >= self.cfg.slow_quorum() {
            let value = c.cert.value.clone();
            self.try_decide(&value, CommitPath::Slow, fx);
        }
    }

    fn on_vote(&mut self, from: ProcessId, v: VoteMsg, fx: &mut Effects<Message>) {
        if v.vote.voter != from {
            return; // votes travel directly from their signer
        }
        if v.view < self.view && self.cfg.leader(v.view) != self.id {
            return; // stale and not ours to lead
        }
        if !v
            .vote
            .is_valid(&self.cfg, &self.dir, v.view, self.metrics.get())
        {
            return;
        }
        if self.cfg.leader(v.view) != self.id {
            return;
        }
        self.votes_in
            .entry(v.view)
            .or_default()
            .insert(v.vote.voter, v.vote);
        self.try_leader_progress(fx);
    }

    fn try_leader_progress(&mut self, fx: &mut Effects<Message>) {
        let Some(ls) = &self.leader else { return };
        if ls.proposed || ls.requested {
            return;
        }
        let view = ls.view;
        debug_assert_eq!(view, self.view);
        let votes = self.votes_in.entry(view).or_default();
        let Ok(result) = select(&self.cfg, view, votes) else {
            return; // need more votes
        };
        let value = match result.outcome {
            Outcome::Constrained(x) => x,
            Outcome::Free => self.input.clone(),
        };
        let snapshot: Vec<SignedVote> = votes.values().cloned().collect();

        // Ask 2f + 1 processes (the smallest ids other than ourself) to
        // confirm the selection; certify it ourselves right away.
        let ls = self.leader.as_mut().expect("leader state checked above");
        ls.selected = Some(value.clone());
        ls.requested = true;
        let payload = certack_payload(&value, view);
        ls.certacks.insert(self.keys.sign(&payload));
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
        let Some(ls) = &mut self.leader else { return };
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
        let view = ls.view;
        let cert = ProgressCert::Bounded(ls.certacks.clone());
        let sig = self.keys.sign(&propose_payload(&value, view));
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
            if !sv.is_valid(&self.cfg, &self.dir, req.view, self.metrics.get()) {
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
        let sig = self.keys.sign(&certack_payload(&req.value, req.view));
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
        let Some(ls) = &mut self.leader else { return };
        if ls.view != ack.view || ls.selected.as_ref() != Some(&ack.value) {
            return;
        }
        if ack.sig.signer != from
            || !verify_counted(
                &self.dir,
                self.metrics.get(),
                &certack_payload(&ack.value, ack.view),
                &ack.sig,
            )
        {
            return;
        }
        ls.certacks.insert(ack.sig);
        self.try_propose_certified(fx);
    }

    // -- view synchronizer ----------------------------------------------------

    fn on_wish(&mut self, from: ProcessId, w: WishMsg, fx: &mut Effects<Message>) {
        let entry = self.wishes.entry(from).or_insert(w.view);
        if w.view > *entry {
            *entry = w.view;
        }
        self.sync_check(fx);
    }

    /// `k`-th largest wish (1-based) across processes, if at least `k`
    /// processes have wished.
    fn kth_largest_wish(&self, k: usize) -> Option<View> {
        let mut views: Vec<View> = self.wishes.values().copied().collect();
        views.sort_unstable_by(|a, b| b.cmp(a));
        views.get(k - 1).copied()
    }

    fn sync_check(&mut self, fx: &mut Effects<Message>) {
        // Adopt: f + 1 processes wish ≥ W ⇒ at least one is correct, so a
        // correct process timed out; join the wish so laggards cannot stall.
        if let Some(w1) = self.kth_largest_wish(self.cfg.f() + 1) {
            if self.my_wish.is_none_or(|mine| w1 > mine) && w1 > self.view {
                self.my_wish = Some(w1);
                self.broadcast_wish(w1, fx);
            }
        }
        // Enter: 2f + 1 processes wish ≥ W ⇒ f + 1 correct processes agreed
        // to move; entering is safe and all correct processes will follow.
        if let Some(w2) = self.kth_largest_wish(2 * self.cfg.f() + 1) {
            if w2 > self.view {
                self.enter_view(w2, fx);
            }
        }
    }

    fn broadcast_wish(&mut self, view: View, fx: &mut Effects<Message>) {
        // Record our own wish immediately (our broadcast also reaches us,
        // but counting it now avoids an extra Δ of latency).
        let entry = self.wishes.entry(self.id).or_insert(view);
        if view > *entry {
            *entry = view;
        }
        fx.broadcast_others(Message::Wish(WishMsg { view }));
        self.sync_check(fx);
    }
}

impl Actor<Message> for Replica {
    fn on_start(&mut self, fx: &mut Effects<Message>) {
        self.arm_timer(fx);
        if self.cfg.leader(View::FIRST) == self.id {
            // View 1: any value is safe; propose our input with the trivial
            // certificate (§3.1).
            let value = self.input.clone();
            let sig = self.keys.sign(&propose_payload(&value, View::FIRST));
            fx.broadcast(Message::Propose(ProposeMsg {
                value,
                view: View::FIRST,
                cert: ProgressCert::Genesis,
                sig,
            }));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Message, fx: &mut Effects<Message>) {
        // Swap each carried value for its canonical interned instance
        // before handling: statement building needs the value digest, and
        // interning is what makes that digest memoized per replica rather
        // than recomputed for every decoded copy.
        match msg {
            Message::Propose(mut p) => {
                p.value = self.intern(p.value);
                self.on_propose(from, p, fx);
            }
            Message::Ack(mut a) => {
                a.value = self.intern(a.value);
                self.on_ack(from, a, fx);
            }
            Message::Commit(mut c) => {
                c.cert.value = self.intern(c.cert.value);
                self.on_commit(from, c, fx);
            }
            Message::Vote(v) => self.on_vote(from, v, fx),
            Message::CertRequest(mut r) => {
                r.value = self.intern(r.value);
                self.on_cert_request(from, r, fx);
            }
            Message::CertAck(mut a) => {
                a.value = self.intern(a.value);
                self.on_cert_ack(from, a, fx);
            }
            Message::Wish(w) => self.on_wish(from, w, fx),
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<Message>) {
        if timer.0 != self.timer_gen {
            return; // stale timer from an earlier view
        }
        if self.decided.is_some() {
            return; // nothing left to synchronize for
        }
        let leader = self.cfg.leader(self.view);
        if let Some(m) = self.metrics.get() {
            let (p, slot, view) = (self.id.0, self.cfg.leader_offset(), self.view.0);
            let detail = format!("p{p} slot {slot} view {view} timed out waiting for {leader}");
            m.recorder.record("view-timeout", detail);
        }
        // Leading a view and failing to propose in it (too few votes
        // arrived) says nothing about anyone else.
        if leader != self.id && self.acked_view != Some(self.view) {
            self.leader_signal = Some(LeaderSignal::TimedOut {
                leader,
                view: self.view,
            });
        }
        // Timeout: wish to move past the current view.
        let target = self.view.next();
        let wish = match self.my_wish {
            Some(mine) if mine >= target => mine,
            _ => target,
        };
        self.my_wish = Some(wish);
        self.broadcast_wish(wish, fx);
        // Re-arm so we keep escalating if the next leader stalls too.
        self.arm_timer(fx);
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
            sig: pairs[leader.index()].sign(&propose_payload(&x, View::FIRST)),
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
            sig: pairs[leader.index()].sign(&propose_payload(&y, View::FIRST)),
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
            sig: pairs[2].sign(&propose_payload(&x, View::FIRST)),
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
            &[(r.timeout_for(View::FIRST), TimerId(1))]
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
                sig: signer.sign(&propose_payload(&x, View::FIRST)),
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
            let sig = pair.sign(&ack_payload(&x, View::FIRST));
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
            let sig = pair.sign(&ack_payload(&x, View::FIRST));
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
                .map(|p| p.sign(&ack_payload(&x, View::FIRST)))
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
                .map(|p| p.sign(&ack_payload(&x, View::FIRST)))
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
            .map(|p| p.sign(&certack_payload(&x, v2)))
            .collect();
        let p = ProposeMsg {
            value: x.clone(),
            view: v2,
            cert: ProgressCert::Bounded(cert),
            sig: pairs[leader2.index()].sign(&propose_payload(&x, v2)),
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
        assert_eq!(r.my_wish, None);
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

    /// The interner absorbs unvalidated message values, so Byzantine value
    /// spray must be bounded by bytes (not just count) and released at the
    /// next view change.
    #[test]
    fn interner_is_byte_bounded_and_resets_on_view_change() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        // Spray large distinct values: interned bytes must never exceed the
        // cap even though the count cap is far away.
        let big = 1 << 20; // 1 MiB each
        for i in 0..16u8 {
            r.intern(Value::new(vec![i; big]));
        }
        assert!(r.interned_bytes <= INTERN_BYTES_CAP);
        assert!(r.interned.len() < 16, "byte cap did not bite");
        // Values beyond the cap still pass through unharmed.
        let v = Value::new(vec![0xEE; big]);
        assert_eq!(r.intern(v.clone()), v);
        // A view change releases everything.
        let mut buf = fx(1, 4);
        r.enter_view(View(2), &mut buf);
        assert!(r.interned.is_empty());
        assert_eq!(r.interned_bytes, 0);
        // …and the interner works again afterwards.
        let w = Value::from_u64(9);
        r.intern(w.clone());
        assert_eq!(r.interned.len(), 1);
        assert_eq!(r.interned_bytes, 8);
    }
}
