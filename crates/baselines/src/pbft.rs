//! A PBFT-style three-step protocol (Castro & Liskov, OSDI'99) — the
//! classic `n = 3f + 1` baseline the paper contrasts with (§1.1: "it takes
//! three message delays to decide a value, in contrast with just two in
//! Paxos").
//!
//! Single-shot consensus with the canonical phase structure:
//!
//! 1. the leader broadcasts `pre-prepare(x, v)`;
//! 2. on the first valid pre-prepare in a view, processes broadcast a signed
//!    `prepare(x, v)`;
//! 3. on `2f + 1` matching prepares, processes become *prepared* (retaining
//!    the signatures as a prepared certificate) and broadcast
//!    `commit(x, v)`;
//! 4. on `2f + 1` matching commits, processes decide — three message delays
//!    end to end.
//!
//! The view change is a simplified-but-safe rendition of PBFT's: on timeout
//! a process broadcasts a signed `view-change(v+1, prepared-cert?)`; the new
//! leader collects `2f + 1` of them, adopts the prepared value with the
//! highest view (or its own input if none), and broadcasts a `new-view`
//! carrying the view-change messages as justification, which doubles as the
//! pre-prepare for the new view. Checkpoints, watermarks and request
//! batching — PBFT machinery for state-machine replication rather than
//! single-shot consensus — are intentionally absent: one instance decides
//! one value, so there is no log to truncate and nothing to order. The view
//! timer and the decide rule are `fastbft_core::sync`'s, shared with the
//! other two protocols; the view-change counting is PBFT's own.

use std::collections::{BTreeMap, BTreeSet};

use fastbft_core::sync::{decide, ViewTimer, BASE_TIMEOUT};
use fastbft_crypto::{KeyDirectory, KeyPair, Signature, SignatureSet};
use fastbft_sim::{Actor, Effects, SimMessage, TimerId};
use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::{Config, ProcessId, Value, View};

// ---------------------------------------------------------------------------
// Signed statements
// ---------------------------------------------------------------------------

fn preprepare_payload(x: &Value, v: View) -> Vec<u8> {
    let mut buf = vec![0x10];
    x.encode(&mut buf);
    v.encode(&mut buf);
    buf
}

fn prepare_payload(x: &Value, v: View) -> Vec<u8> {
    let mut buf = vec![0x11];
    x.encode(&mut buf);
    v.encode(&mut buf);
    buf
}

fn viewchange_payload(vc: &ViewChangeBody) -> Vec<u8> {
    let mut buf = vec![0x12];
    vc.encode(&mut buf);
    buf
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// `2f + 1` prepare signatures for `(x, v)`: proof the value was prepared.
#[derive(Clone, Debug, PartialEq)]
pub struct PreparedCert {
    /// The prepared value.
    pub value: Value,
    /// The view it was prepared in.
    pub view: View,
    /// The prepare signatures.
    pub sigs: SignatureSet,
}
fastbft_types::impl_wire_struct!(PreparedCert { value, view, sigs });

impl PreparedCert {
    /// Verifies the certificate (`2f + 1` valid prepare signatures).
    pub fn verify(&self, cfg: &Config, dir: &KeyDirectory) -> bool {
        self.sigs.verify(
            &prepare_payload(&self.value, self.view),
            dir,
            2 * cfg.f() + 1,
            &mut 0,
        )
    }
}

/// Body of a view-change message (the part that is signed).
#[derive(Clone, Debug, PartialEq)]
pub struct ViewChangeBody {
    /// The view being moved to.
    pub new_view: View,
    /// The sender's prepared certificate, if it ever prepared.
    pub prepared: Option<PreparedCert>,
}
fastbft_types::impl_wire_struct!(ViewChangeBody { new_view, prepared });

/// A signed view-change message.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedViewChange {
    /// The signer.
    pub sender: ProcessId,
    /// The body.
    pub body: ViewChangeBody,
    /// Signature over the body.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(SignedViewChange { sender, body, sig });

impl SignedViewChange {
    fn sign(keys: &KeyPair, body: ViewChangeBody) -> Self {
        let sig = keys.sign(&viewchange_payload(&body));
        SignedViewChange {
            sender: keys.id(),
            body,
            sig,
        }
    }

    fn is_valid(&self, cfg: &Config, dir: &KeyDirectory) -> bool {
        self.sig.signer == self.sender
            && dir.verify(&viewchange_payload(&self.body), &self.sig)
            && self
                .body
                .prepared
                .as_ref()
                .is_none_or(|cert| cert.view < self.body.new_view && cert.verify(cfg, dir))
    }
}

/// PBFT protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum PbftMessage {
    /// Phase 1: leader's proposal.
    PrePrepare {
        /// Proposed value.
        value: Value,
        /// View.
        view: View,
        /// Leader signature over `(pre-prepare, x, v)`.
        sig: Signature,
    },
    /// Phase 2: signed prepare.
    Prepare {
        /// Value.
        value: Value,
        /// View.
        view: View,
        /// Signature over `(prepare, x, v)` — retained in prepared certs.
        sig: Signature,
    },
    /// Phase 3: commit (channel-authenticated; no signature needed).
    Commit {
        /// Value.
        value: Value,
        /// View.
        view: View,
    },
    /// View change vote.
    ViewChange(SignedViewChange),
    /// New-view announcement; doubles as the pre-prepare of the new view.
    NewView {
        /// The new view.
        view: View,
        /// The value the new leader adopted.
        value: Value,
        /// `2f + 1` signed view-changes justifying the adoption.
        justification: Vec<SignedViewChange>,
        /// Leader signature over `(pre-prepare, x, v)`.
        sig: Signature,
    },
}

impl Encode for PbftMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PbftMessage::PrePrepare { value, view, sig } => {
                buf.push(1);
                value.encode(buf);
                view.encode(buf);
                sig.encode(buf);
            }
            PbftMessage::Prepare { value, view, sig } => {
                buf.push(2);
                value.encode(buf);
                view.encode(buf);
                sig.encode(buf);
            }
            PbftMessage::Commit { value, view } => {
                buf.push(3);
                value.encode(buf);
                view.encode(buf);
            }
            PbftMessage::ViewChange(vc) => {
                buf.push(4);
                vc.encode(buf);
            }
            PbftMessage::NewView {
                view,
                value,
                justification,
                sig,
            } => {
                buf.push(5);
                view.encode(buf);
                value.encode(buf);
                justification.encode(buf);
                sig.encode(buf);
            }
        }
    }
}

impl Decode for PbftMessage {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            1 => PbftMessage::PrePrepare {
                value: Value::decode(r)?,
                view: View::decode(r)?,
                sig: Signature::decode(r)?,
            },
            2 => PbftMessage::Prepare {
                value: Value::decode(r)?,
                view: View::decode(r)?,
                sig: Signature::decode(r)?,
            },
            3 => PbftMessage::Commit {
                value: Value::decode(r)?,
                view: View::decode(r)?,
            },
            4 => PbftMessage::ViewChange(SignedViewChange::decode(r)?),
            5 => PbftMessage::NewView {
                view: View::decode(r)?,
                value: Value::decode(r)?,
                justification: Vec::<SignedViewChange>::decode(r)?,
                sig: Signature::decode(r)?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    tag,
                    context: "PbftMessage",
                })
            }
        })
    }
}

impl SimMessage for PbftMessage {
    fn kind(&self) -> &'static str {
        match self {
            PbftMessage::PrePrepare { .. } => "pre-prepare",
            PbftMessage::Prepare { .. } => "prepare",
            PbftMessage::Commit { .. } => "commit",
            PbftMessage::ViewChange(_) => "view-change",
            PbftMessage::NewView { .. } => "new-view",
        }
    }

    fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// A PBFT replica (single-shot consensus).
#[derive(Debug)]
pub struct PbftReplica {
    cfg: Config,
    keys: KeyPair,
    dir: KeyDirectory,
    id: ProcessId,
    input: Value,

    view: View,
    /// Value pre-prepared in the current view (first valid one).
    preprepared: Option<Value>,
    /// Our prepared certificate with the highest view.
    prepared: Option<PreparedCert>,
    decided: Option<Value>,

    /// Prepare signatures per (view, value).
    prepare_tally: BTreeMap<(View, Value), SignatureSet>,
    /// Commit senders per (view, value).
    commit_tally: BTreeMap<(View, Value), BTreeSet<ProcessId>>,
    /// Whether we broadcast a commit in the current view already.
    committed_in: BTreeSet<View>,
    /// View-change messages per target view.
    view_changes: BTreeMap<View, BTreeMap<ProcessId, SignedViewChange>>,
    /// Views for which we already sent our view-change.
    vc_sent: BTreeSet<View>,
    /// New-view already broadcast (as leader).
    nv_sent: BTreeSet<View>,
    timer: ViewTimer,
}

impl PbftReplica {
    /// Creates a replica. `cfg.t()` is ignored — PBFT has no fast path; only
    /// `n ≥ 3f + 1` matters.
    pub fn new(cfg: Config, keys: KeyPair, dir: KeyDirectory, input: Value) -> Self {
        PbftReplica {
            id: keys.id(),
            cfg,
            keys,
            dir,
            input,
            view: View::FIRST,
            preprepared: None,
            prepared: None,
            decided: None,
            prepare_tally: BTreeMap::new(),
            commit_tally: BTreeMap::new(),
            committed_in: BTreeSet::new(),
            view_changes: BTreeMap::new(),
            vc_sent: BTreeSet::new(),
            nv_sent: BTreeSet::new(),
            timer: ViewTimer::new(BASE_TIMEOUT),
        }
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<&Value> {
        self.decided.as_ref()
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    fn quorum(&self) -> usize {
        2 * self.cfg.f() + 1
    }

    /// Handles a valid proposal for the current view (pre-prepare or the
    /// new-view equivalent).
    fn accept_preprepare(&mut self, value: Value, fx: &mut Effects<PbftMessage>) {
        if self.preprepared.is_some() {
            return;
        }
        self.preprepared = Some(value.clone());
        let sig = self.keys.sign(&prepare_payload(&value, self.view));
        fx.broadcast(PbftMessage::Prepare {
            value,
            view: self.view,
            sig,
        });
    }

    fn on_prepare(
        &mut self,
        from: ProcessId,
        value: Value,
        view: View,
        sig: Signature,
        fx: &mut Effects<PbftMessage>,
    ) {
        if sig.signer != from || !self.dir.verify(&prepare_payload(&value, view), &sig) {
            return;
        }
        let key = (view, value.clone());
        let tally = self.prepare_tally.entry(key).or_default();
        tally.insert(sig);
        if tally.len() >= self.quorum() && view == self.view && !self.committed_in.contains(&view) {
            self.committed_in.insert(view);
            let cert = PreparedCert {
                value: value.clone(),
                view,
                sigs: self.prepare_tally[&(view, value.clone())].clone(),
            };
            let newer = self.prepared.as_ref().is_none_or(|p| cert.view > p.view);
            if newer {
                self.prepared = Some(cert);
            }
            fx.broadcast(PbftMessage::Commit { value, view });
        }
    }

    fn on_commit(
        &mut self,
        from: ProcessId,
        value: Value,
        view: View,
        fx: &mut Effects<PbftMessage>,
    ) {
        let senders = self.commit_tally.entry((view, value.clone())).or_default();
        senders.insert(from);
        if senders.len() >= self.quorum() {
            decide(&mut self.decided, &value, fx);
        }
    }

    fn send_view_change(&mut self, target: View, fx: &mut Effects<PbftMessage>) {
        if self.vc_sent.contains(&target) {
            return;
        }
        self.vc_sent.insert(target);
        let body = ViewChangeBody {
            new_view: target,
            prepared: self.prepared.clone().filter(|cert| cert.view < target),
        };
        let vc = SignedViewChange::sign(&self.keys, body);
        fx.broadcast(PbftMessage::ViewChange(vc));
    }

    fn on_view_change(&mut self, vc: SignedViewChange, fx: &mut Effects<PbftMessage>) {
        if !vc.is_valid(&self.cfg, &self.dir) {
            return;
        }
        let target = vc.body.new_view;
        self.view_changes
            .entry(target)
            .or_default()
            .insert(vc.sender, vc);
        let count = self.view_changes[&target].len();
        // Join a view change once f + 1 processes demand it.
        if count > self.cfg.f() && target > self.view {
            self.send_view_change(target, fx);
        }
        if count >= self.quorum() && target > self.view {
            self.enter_view(target, fx);
        }
        // As the new leader, announce the new view.
        if count >= self.quorum()
            && self.cfg.leader(target) == self.id
            && !self.nv_sent.contains(&target)
            && target >= self.view
        {
            self.nv_sent.insert(target);
            let vcs: Vec<SignedViewChange> = self.view_changes[&target].values().cloned().collect();
            let value = Self::choose_value(&vcs).unwrap_or_else(|| self.input.clone());
            let sig = self.keys.sign(&preprepare_payload(&value, target));
            fx.broadcast(PbftMessage::NewView {
                view: target,
                value,
                justification: vcs,
                sig,
            });
        }
    }

    /// The value a new leader must adopt: the prepared certificate with the
    /// highest view among the justification, if any.
    fn choose_value(vcs: &[SignedViewChange]) -> Option<Value> {
        vcs.iter()
            .filter_map(|vc| vc.body.prepared.as_ref())
            .max_by_key(|cert| cert.view)
            .map(|cert| cert.value.clone())
    }

    fn enter_view(&mut self, target: View, fx: &mut Effects<PbftMessage>) {
        if target <= self.view {
            return;
        }
        self.view = target;
        self.preprepared = None;
        self.timer.arm(target, fx);
    }

    fn on_new_view(
        &mut self,
        from: ProcessId,
        view: View,
        value: Value,
        justification: Vec<SignedViewChange>,
        sig: Signature,
        fx: &mut Effects<PbftMessage>,
    ) {
        if from != self.cfg.leader(view) || sig.signer != from {
            return;
        }
        if !self.dir.verify(&preprepare_payload(&value, view), &sig) {
            return;
        }
        // Justification: 2f + 1 valid view-changes for this view from
        // distinct senders, and the value matches the adoption rule.
        let mut senders = BTreeSet::new();
        for vc in &justification {
            if vc.body.new_view != view || !vc.is_valid(&self.cfg, &self.dir) {
                return;
            }
            senders.insert(vc.sender);
        }
        if senders.len() < self.quorum() {
            return;
        }
        match Self::choose_value(&justification) {
            Some(must) if must != value => return,
            _ => {}
        }
        if view > self.view {
            self.enter_view(view, fx);
        }
        if view == self.view {
            self.accept_preprepare(value, fx);
        }
    }
}

impl Actor<PbftMessage> for PbftReplica {
    fn on_start(&mut self, fx: &mut Effects<PbftMessage>) {
        self.timer.arm(self.view, fx);
        if self.cfg.leader(View::FIRST) == self.id {
            let value = self.input.clone();
            let sig = self.keys.sign(&preprepare_payload(&value, View::FIRST));
            fx.broadcast(PbftMessage::PrePrepare {
                value,
                view: View::FIRST,
                sig,
            });
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: PbftMessage, fx: &mut Effects<PbftMessage>) {
        match msg {
            PbftMessage::PrePrepare { value, view, sig } => {
                if from == self.cfg.leader(view)
                    && sig.signer == from
                    && view == self.view
                    && self.dir.verify(&preprepare_payload(&value, view), &sig)
                {
                    self.accept_preprepare(value, fx);
                }
            }
            PbftMessage::Prepare { value, view, sig } => {
                self.on_prepare(from, value, view, sig, fx)
            }
            PbftMessage::Commit { value, view } => self.on_commit(from, value, view, fx),
            PbftMessage::ViewChange(vc) => self.on_view_change(vc, fx),
            PbftMessage::NewView {
                view,
                value,
                justification,
                sig,
            } => self.on_new_view(from, view, value, justification, sig, fx),
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<PbftMessage>) {
        if !self.timer.is_current(timer) || self.decided.is_some() {
            return;
        }
        let target = self.view.next();
        self.send_view_change(target, fx);
        self.timer.arm(self.view, fx);
    }

    fn label(&self) -> &'static str {
        "pbft-replica"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::ProtocolKind;

    #[test]
    fn prepared_cert_verification() {
        let cfg = ProtocolKind::Pbft.config(4, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(4, 1);
        let x = Value::from_u64(3);
        let v = View(2);
        let good = PreparedCert {
            value: x.clone(),
            view: v,
            sigs: pairs[..3]
                .iter()
                .map(|p| p.sign(&prepare_payload(&x, v)))
                .collect(),
        };
        assert!(good.verify(&cfg, &dir));
        let small = PreparedCert {
            value: x.clone(),
            view: v,
            sigs: pairs[..2]
                .iter()
                .map(|p| p.sign(&prepare_payload(&x, v)))
                .collect(),
        };
        assert!(!small.verify(&cfg, &dir));
    }

    #[test]
    fn messages_roundtrip() {
        let (pairs, _) = KeyDirectory::generate(2, 3);
        let x = Value::from_u64(1);
        let sig = pairs[0].sign(b"m");
        let vc = SignedViewChange::sign(
            &pairs[1],
            ViewChangeBody {
                new_view: View(2),
                prepared: None,
            },
        );
        for msg in [
            PbftMessage::PrePrepare {
                value: x.clone(),
                view: View(1),
                sig: sig.clone(),
            },
            PbftMessage::Prepare {
                value: x.clone(),
                view: View(1),
                sig: sig.clone(),
            },
            PbftMessage::Commit {
                value: x.clone(),
                view: View(1),
            },
            PbftMessage::ViewChange(vc.clone()),
            PbftMessage::NewView {
                view: View(2),
                value: x,
                justification: vec![vc],
                sig,
            },
        ] {
            fastbft_types::wire::roundtrip(&msg);
            assert!(!msg.kind().is_empty());
        }
    }
}
