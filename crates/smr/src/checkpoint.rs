//! Checkpoints and state transfer: what a snapshot is on the wire, who has
//! vouched for one, and when a node asks for one.
//!
//! * **The payload.** [`SnapshotPayload`] is everything a replica needs to
//!   resume applying from a slot boundary. Every constituent is emitted in
//!   sorted order from deterministic state, so replicas that snapshotted at
//!   the same boundary produce byte-identical payloads and one digest names
//!   the snapshot cluster-wide.
//! * **Attestations.** A checkpoint signature covers `(domain, upto, payload
//!   digest)`. Validity is one function, [`valid_signers`]: one pass over
//!   the signatures, each check counted, that returns the distinct signers
//!   whose signature checks. `f + 1` of them pin at least one correct
//!   replica vouching for the bytes; everything that needs the quorum
//!   (serving, installing, [`snapshot_response_valid`]) asks that one
//!   function, once.
//! * **The books** ([`Checkpoints`]): the latest snapshot taken or
//!   installed with the attestations gathered for it, and the committed
//!   tail from its boundary on; attestations that arrived for boundaries
//!   not reached yet, two per signer (a Byzantine signer can only evict its
//!   own); what each requester was sent and when; and the recovery trigger
//!   — the highest slot each peer has demonstrably worked on, and whether a
//!   request is outstanding. Everything kept per peer is keyed by
//!   transport-authenticated sender: `n` entries, whatever is sent.
//! * **The answer** ([`Checkpoints::answer`]) to "what do I lack from slot
//!   `have` on?", asked by a `SnapshotRequest` or a frame about a settled
//!   slot: the latest snapshot if its boundary is past `have` and it holds
//!   f + 1 attestations, then the committed tail from `have`, minus what
//!   that requester was sent; everything again once the last full answer
//!   is a view timeout old (view `k`: full answers since `have` last
//!   moved), since a link may lose it. So one requester draws from one
//!   responder at most one full answer per base timeout, each newly sealed
//!   snapshot once and each newly applied slot once.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use fastbft_core::certs::sign_counted;
use fastbft_core::sync::ViewTimer;
use fastbft_crypto::{Digest, KeyDirectory, KeyPair, Signature};
use fastbft_obs::Metrics;
use fastbft_sim::{SimDuration, SimTime};
use fastbft_types::wire::from_bytes;
use fastbft_types::{ProcessId, Value, View};

use crate::dedup::Dedup;
use crate::multiplex::SLOT_WINDOW;
use crate::schedule::Schedule;
use crate::slot_message::SlotMessage;

/// A node requests state transfer once f+1 distinct peers claim tips at
/// least this many slots ahead of it — far enough that normal pipelining
/// (depth ≤ `SLOT_WINDOW`) never trips it, near enough to ask before its
/// peers' frames run past its window, where it drops them.
pub(crate) const RECOVERY_GAP: u64 = SLOT_WINDOW / 2;

/// Domain-separation prefix for checkpoint attestations (keeps snapshot
/// signatures from colliding with consensus statements).
const SNAPSHOT_DOMAIN: &[u8; 8] = b"fbftSNAP";

/// The checkpoint attestation a process broadcasts after snapshotting at
/// `upto`: a signature over `(domain, upto, payload digest)`, counted in
/// `metrics`. Public so tests can mint attestations for hand-built
/// snapshots.
pub fn checkpoint_signature(
    keys: &KeyPair,
    metrics: &Metrics,
    upto: u64,
    digest: &Digest,
) -> Signature {
    sign_counted(
        keys,
        metrics,
        &[SNAPSHOT_DOMAIN, &upto.to_be_bytes(), digest],
    )
}

/// The valid checkpoint attestations over `(upto, digest)` among `sigs`, by
/// signer: each signature is checked once and counted in `metrics`, and a
/// signer counts once however many it sent.
fn valid_signers<S: Borrow<Signature>>(
    dir: &KeyDirectory,
    metrics: &Metrics,
    upto: u64,
    digest: &Digest,
    sigs: impl IntoIterator<Item = S>,
) -> BTreeMap<ProcessId, S> {
    let statement: [&[u8]; 3] = [SNAPSHOT_DOMAIN, &upto.to_be_bytes(), digest];
    sigs.into_iter()
        .inspect(|_| metrics.sig_memo_miss_total.inc())
        .filter(|sig| dir.verify_parts(&statement, sig.borrow()))
        .map(|sig| (sig.borrow().signer, sig))
        .collect()
}

/// Whether a [`SlotMessage::SnapshotResponse`] carries f+1 valid checkpoint
/// signatures from distinct processes over `payload`'s digest — the
/// quorum-authentication a recovering node demands before installing (f+1
/// distinct signers pin at least one correct replica attesting the bytes).
/// The node additionally requires the payload to parse as a
/// `SnapshotPayload` whose `upto` matches; any single-byte tamper of a
/// response breaks the digest (hence every signature) or the strict codec.
/// `metrics` count the signature checks.
pub fn snapshot_response_valid(
    dir: &KeyDirectory,
    metrics: &Metrics,
    f: usize,
    upto: u64,
    payload: &[u8],
    sigs: &[Signature],
) -> bool {
    valid_signers(dir, metrics, upto, &fastbft_crypto::digest(payload), sigs).len() > f
}

/// The canonical snapshot payload: everything a replica needs to resume
/// applying from slot `upto`.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct SnapshotPayload {
    /// First slot not covered by this snapshot.
    pub(crate) upto: u64,
    /// Commands applied below `upto` (every log entry is one): the log
    /// index of the first entry after the snapshot, which an installing
    /// replica records its next applied command at.
    pub(crate) log_offset: u64,
    /// [`StateMachine::snapshot`](crate::StateMachine::snapshot) bytes.
    pub(crate) machine: Vec<u8>,
    /// The at-most-once state, in its canonical form.
    pub(crate) dedup: Dedup,
    /// The leader schedule from `upto` on.
    pub(crate) schedule: Schedule,
}

fastbft_types::impl_wire_struct!(SnapshotPayload {
    upto,
    log_offset,
    machine,
    dedup,
    schedule
});

/// Opens a [`SlotMessage::SnapshotResponse`]: if `sigs` holds f+1 valid
/// attestations of `bytes` at `upto` and `bytes` is a canonical payload for
/// that same boundary, the parsed payload, its digest and the valid
/// attestations by signer. `metrics` count the signature checks.
pub(crate) fn open_response(
    dir: &KeyDirectory,
    metrics: &Metrics,
    f: usize,
    upto: u64,
    bytes: &[u8],
    sigs: Vec<Signature>,
) -> Option<(SnapshotPayload, Digest, BTreeMap<ProcessId, Signature>)> {
    let digest = fastbft_crypto::digest(bytes);
    let signers = valid_signers(dir, metrics, upto, &digest, sigs);
    if signers.len() <= f {
        return None;
    }
    let payload = from_bytes::<SnapshotPayload>(bytes).ok()?;
    (payload.upto == upto).then_some((payload, digest, signers))
}

/// A snapshot with the attestations gathered for it.
struct Attested {
    upto: u64,
    digest: Digest,
    payload: Vec<u8>,
    /// Checkpoint signatures over `digest`, by signer (own included).
    sigs: BTreeMap<ProcessId, Signature>,
}

/// What [`Checkpoints::answer`] sent one requester since its last full
/// answer (the boundary, the tail slots still held), when that went, `k`
/// and the last ask's `have`.
struct Sent {
    boundary: Option<u64>,
    slots: BTreeSet<u64>,
    full_at: SimTime,
    k: u64,
    have: u64,
}

/// One node's checkpoint and state-transfer books. See the [module
/// docs](self).
#[derive(Default)]
pub(crate) struct Checkpoints {
    /// Snapshot cadence in applied slots.
    interval: u64,
    /// Latest snapshot taken or installed.
    latest: Option<Attested>,
    /// Committed values from the latest boundary on: at most one interval.
    tail: BTreeMap<u64, Value>,
    /// Attestations for boundaries not reached yet: per signer, the last two
    /// `(upto, digest, sig)` triples.
    parked: HashMap<ProcessId, VecDeque<(u64, Digest, Signature)>>,
    /// Per requester, what it was sent and when.
    sent: HashMap<ProcessId, Sent>,
    /// Highest slot each peer has demonstrably worked on.
    peer_tips: HashMap<ProcessId, u64>,
    /// Whether a snapshot request is outstanding (cleared when the retry
    /// timer fires; prevents request spam while behind).
    recovery_armed: bool,
}

impl Checkpoints {
    /// Empty books for a node that snapshots every `interval` slots.
    pub(crate) fn new(interval: u64) -> Self {
        Checkpoints {
            interval,
            ..Checkpoints::default()
        }
    }

    /// The boundary (first uncovered slot) of the latest snapshot, if any.
    pub(crate) fn upto(&self) -> Option<u64> {
        self.latest.as_ref().map(|s| s.upto)
    }

    /// The committed tail, by slot (for the node's test accessors).
    pub(crate) fn tail(&self) -> &BTreeMap<u64, Value> {
        &self.tail
    }

    /// `slot` applied `value`: it joins the committed tail. `true` if the
    /// node is then at a boundary, due for a snapshot.
    pub(crate) fn commit(&mut self, slot: u64, value: Value) -> bool {
        self.tail.insert(slot, value);
        (slot + 1).is_multiple_of(self.interval)
    }

    /// Records the local snapshot `payload` taken at `upto`: merges the
    /// attestations peers sent before this node got here, drops every
    /// parked one at or below the boundary (consumed or stale), and returns
    /// this node's own attestation to broadcast (counted in `metrics`).
    pub(crate) fn seal(
        &mut self,
        keys: &KeyPair,
        metrics: &Metrics,
        upto: u64,
        payload: Vec<u8>,
    ) -> SlotMessage {
        let digest = fastbft_crypto::digest(&payload);
        let mut sigs = BTreeMap::new();
        for queue in self.parked.values_mut() {
            queue.retain(|(at, d, s)| {
                if *at == upto && *d == digest {
                    sigs.insert(s.signer, s.clone());
                }
                *at > upto
            });
        }
        let sig = self.adopt(keys, metrics, upto, digest, payload, sigs);
        SlotMessage::Checkpoint { upto, digest, sig }
    }

    /// Makes `payload` at `upto` this node's latest snapshot, with the valid
    /// attestations `sigs` gathered for it plus this node's own, which is
    /// returned (it now vouches for the state, and can serve it onward);
    /// drops the tail below it. `metrics` count the signature made.
    pub(crate) fn adopt(
        &mut self,
        keys: &KeyPair,
        metrics: &Metrics,
        upto: u64,
        digest: Digest,
        payload: Vec<u8>,
        mut sigs: BTreeMap<ProcessId, Signature>,
    ) -> Signature {
        let own = checkpoint_signature(keys, metrics, upto, &digest);
        sigs.insert(keys.id(), own.clone());
        self.tail = self.tail.split_off(&upto);
        for sent in self.sent.values_mut() {
            sent.slots = sent.slots.split_off(&upto);
        }
        self.latest = Some(Attested {
            upto,
            digest,
            payload,
            sigs,
        });
        own
    }

    /// Handles `from`'s checkpoint attestation: merged into the matching
    /// local snapshot, or parked until this node reaches that boundary.
    /// `metrics` count the signature check.
    pub(crate) fn attest(
        &mut self,
        dir: &KeyDirectory,
        metrics: &Metrics,
        from: ProcessId,
        upto: u64,
        digest: Digest,
        sig: Signature,
    ) {
        if sig.signer != from || valid_signers(dir, metrics, upto, &digest, [&sig]).is_empty() {
            return;
        }
        if let Some(snap) = &mut self.latest {
            if snap.upto == upto {
                // A verified attestation for our boundary with a different
                // digest would mean state divergence; such signatures are
                // simply not collected (they could never help a requester).
                if snap.digest == digest {
                    snap.sigs.insert(from, sig);
                }
                return;
            }
            if upto < snap.upto {
                return; // stale boundary
            }
        }
        let queue = self.parked.entry(from).or_default();
        queue.retain(|(at, _, _)| *at != upto);
        queue.push_back((upto, digest, sig));
        while queue.len() > 2 {
            queue.pop_front();
        }
    }

    /// The answer to `from`'s ask at `have` ([module docs](self)); the wait
    /// is `timeout_for(View(k))` on a view timer from `base`.
    pub(crate) fn answer(
        &mut self,
        from: ProcessId,
        have: u64,
        now: SimTime,
        f: usize,
        base: SimDuration,
    ) -> Vec<SlotMessage> {
        let sent = self.sent.entry(from).or_insert(Sent {
            boundary: None,
            slots: BTreeSet::new(),
            full_at: now,
            k: 1,
            have,
        });
        if sent.have != have {
            (sent.k, sent.have) = (1, have);
        }
        if now.since(sent.full_at) >= ViewTimer::new(base).timeout_for(View(sent.k)) {
            (sent.boundary, sent.slots, sent.full_at) = (None, BTreeSet::new(), now);
            sent.k += 1;
        }
        let mut answer = Vec::new();
        let past = self.latest.as_ref().filter(|snap| snap.upto > have);
        if let Some(snap) = past.filter(|s| s.sigs.len() > f && sent.boundary != Some(s.upto)) {
            sent.boundary = Some(snap.upto);
            answer.push(SlotMessage::SnapshotResponse {
                upto: snap.upto,
                payload: snap.payload.clone(),
                sigs: snap.sigs.values().cloned().collect(),
            });
        }
        for (&slot, value) in self.tail.range(have..) {
            if sent.slots.insert(slot) {
                let value = value.clone();
                answer.push(SlotMessage::Backfill { slot, value });
            }
        }
        answer
    }

    /// Tracks the highest slot `from` has demonstrably worked on. `true` if
    /// the claim is far enough ahead of `applied`, with no request
    /// outstanding, that the recovery trigger is worth checking — which
    /// keeps it off the steady-state hot path: pipelined peers never run
    /// [`RECOVERY_GAP`] ahead of a node they share quorums with.
    pub(crate) fn note_tip(&mut self, from: ProcessId, slot: u64, applied: u64) -> bool {
        let tip = self.peer_tips.entry(from).or_insert(0);
        *tip = slot.max(*tip);
        !self.recovery_armed && slot >= applied + RECOVERY_GAP
    }

    /// The (f+1)-th largest peer-claimed tip: at least one *correct*
    /// replica is really working at or past this slot.
    fn quorum_tip(&self, f: usize) -> u64 {
        let mut tips: Vec<u64> = self.peer_tips.values().copied().collect();
        tips.sort_unstable_by(|a, b| b.cmp(a));
        tips.get(f).copied().unwrap_or(0)
    }

    /// Arms the recovery request if f+1 distinct peers are [`RECOVERY_GAP`]
    /// ahead of `applied` (f alone could be Byzantine fiction) and none is
    /// outstanding; `true` if the caller should now send one. Armed until
    /// [`disarm_recovery`](Self::disarm_recovery), so a behind node asks at
    /// most once per timeout.
    pub(crate) fn arm_recovery(&mut self, applied: u64, f: usize) -> bool {
        if self.recovery_armed || self.quorum_tip(f) < applied + RECOVERY_GAP {
            return false;
        }
        self.recovery_armed = true;
        true
    }

    /// The retry timer fired: the next check may ask again.
    pub(crate) fn disarm_recovery(&mut self) {
        self.recovery_armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::wire::to_bytes;

    const F: usize = 1;
    const P1: ProcessId = ProcessId(1);
    const P2: ProcessId = ProcessId(2);
    const P3: ProcessId = ProcessId(3);
    const P4: ProcessId = ProcessId(4);

    fn keys() -> (Vec<KeyPair>, KeyDirectory) {
        KeyDirectory::generate(4, 5)
    }

    fn payload(upto: u64) -> Vec<u8> {
        to_bytes(&SnapshotPayload {
            upto,
            machine: vec![upto as u8; 3],
            ..SnapshotPayload::default()
        })
    }

    /// `who`'s attestation of `bytes` at `upto`, as its `Checkpoint` fields.
    fn attestation(who: &KeyPair, upto: u64, bytes: &[u8]) -> (u64, Digest, Signature) {
        let digest = fastbft_crypto::digest(bytes);
        (
            upto,
            digest,
            checkpoint_signature(who, &Metrics::new(), upto, &digest),
        )
    }

    fn signers(books: &Checkpoints) -> Vec<ProcessId> {
        let snap = books.latest.as_ref().expect("a snapshot");
        snap.sigs.keys().copied().collect()
    }

    #[test]
    fn attestations_are_collected_parked_or_dropped() {
        let (pairs, dir) = keys();
        let mut books = Checkpoints::new(16);
        let attest =
            |books: &mut Checkpoints, from: ProcessId, who: usize, upto: u64, bytes: &[u8]| {
                let (upto, digest, sig) = attestation(&pairs[who], upto, bytes);
                books.attest(&dir, &Metrics::new(), from, upto, digest, sig);
            };
        // Ahead of any local snapshot: parked, and merged when p1 seals the
        // same bytes at that boundary — p3's, for other bytes, is not.
        attest(&mut books, P2, 1, 16, &payload(16));
        attest(&mut books, P3, 2, 16, b"another state");
        books.seal(&pairs[0], &Metrics::new(), 16, payload(16));
        assert_eq!(signers(&books), [P1, P2]);
        assert!(books.parked.values().all(VecDeque::is_empty), "consumed");
        // For the local boundary: the same digest is collected, another is
        // not, a signature relayed by someone else is not, nor a bad one.
        attest(&mut books, P3, 2, 16, b"another state");
        assert_eq!(signers(&books), [P1, P2]);
        attest(&mut books, P2, 2, 16, &payload(16));
        let (upto, digest, _) = attestation(&pairs[2], 16, &payload(16));
        let forged = Signature::from_parts(P3, [7; 32]);
        books.attest(&dir, &Metrics::new(), P3, upto, digest, forged);
        assert_eq!(signers(&books), [P1, P2]);
        attest(&mut books, P3, 2, 16, &payload(16));
        assert_eq!(signers(&books), [P1, P2, P3]);
        // Stale: below the local boundary, dropped outright.
        books.seal(&pairs[0], &Metrics::new(), 32, payload(32));
        attest(&mut books, P2, 1, 16, &payload(16));
        assert_eq!(signers(&books), [P1]);
        assert!(books.parked.values().all(VecDeque::is_empty));
    }

    #[test]
    fn a_signer_floods_only_its_own_two_parking_slots() {
        let (pairs, dir) = keys();
        let mut books = Checkpoints::new(16);
        let (upto, digest, sig) = attestation(&pairs[2], 48, &payload(48));
        books.attest(&dir, &Metrics::new(), P3, upto, digest, sig);
        for boundary in 1..=100u64 {
            let (upto, digest, sig) = attestation(&pairs[1], 16 * boundary, b"spray");
            books.attest(&dir, &Metrics::new(), P2, upto, digest, sig);
        }
        // Re-attesting a parked boundary replaces, it does not stack.
        let (upto, digest, sig) = attestation(&pairs[1], 1600, b"again");
        books.attest(&dir, &Metrics::new(), P2, upto, digest, sig);
        let parked =
            |p: &ProcessId| -> Vec<u64> { books.parked[p].iter().map(|(at, _, _)| *at).collect() };
        assert_eq!(parked(&P2), [1584, 1600]);
        assert_eq!(parked(&P3), [48], "p3's survives p2's flood");
        assert_eq!(books.parked.len(), 2);
    }

    const BASE: SimDuration = fastbft_core::sync::BASE_TIMEOUT;

    /// `t` Δ into the run.
    fn at(t: u64) -> SimTime {
        SimTime(t * SimDuration::DELTA.0)
    }

    /// What an answer carried: the snapshot boundary, if any, and the tail
    /// slots, in order.
    fn carried(answer: Vec<SlotMessage>) -> (Option<u64>, Vec<u64>) {
        let mut carried = (None, Vec::new());
        for msg in answer {
            match msg {
                SlotMessage::SnapshotResponse { upto, .. } => carried.0 = Some(upto),
                SlotMessage::Backfill { slot, .. } => carried.1.push(slot),
                other => panic!("{other:?} in an answer"),
            }
        }
        carried
    }

    /// Applies the slots `books` has not applied below `to`, sealing at
    /// each boundary; with `quorum`, p2 attests each seal (f + 1 with p1's
    /// own). Returns how many it sealed.
    fn apply_to(books: &mut Checkpoints, to: u64, quorum: bool) -> usize {
        let (pairs, dir) = keys();
        let from = books
            .tail()
            .keys()
            .last()
            .map_or(books.upto().unwrap_or(0), |s| s + 1);
        let mut sealed = 0;
        for slot in from..to {
            if books.commit(slot, Value::from_u64(slot)) {
                books.seal(&pairs[0], &Metrics::new(), slot + 1, payload(slot + 1));
                if quorum {
                    let (upto, digest, sig) = attestation(&pairs[1], slot + 1, &payload(slot + 1));
                    books.attest(&dir, &Metrics::new(), P2, upto, digest, sig);
                }
                sealed += 1;
            }
        }
        sealed
    }

    #[test]
    fn answer_table() {
        // (at Δ, requester, have, applied) → what the answer carries; a
        // snapshot every 16 slots, each with f + 1 attestations.
        let rows = [
            // The first ask: the snapshot past `have`, the tail from it.
            (0, P3, 0, 20, (Some(16), vec![16, 17, 18, 19])),
            // A repeat within the wait draws nothing; so does another
            // `have` below the boundary, the same answer.
            (1, P3, 0, 20, (None, vec![])),
            (2, P3, 4, 20, (None, vec![])),
            (3, P3, 15, 20, (None, vec![])),
            // Another requester has a memo of its own.
            (3, P2, 0, 20, (Some(16), vec![16, 17, 18, 19])),
            // An ask below an earlier one draws what lies between, once:
            // a seat whose view timers fire in another order than its
            // holes still gets every hole.
            (3, P4, 18, 20, (None, vec![18, 19])),
            (3, P4, 17, 20, (None, vec![17])),
            (3, P4, 0, 20, (Some(16), vec![16])),
            // New tail slots and a new boundary go at once, and only they.
            (4, P3, 15, 22, (None, vec![20, 21])),
            (5, P3, 15, 34, (Some(32), vec![32, 33])),
            (6, P3, 15, 34, (None, vec![])),
            // The full answer goes again once the last is 8Δ old (`have`
            // moved at 2Δ and 3Δ: k is 1), then 16Δ, then 32Δ.
            (7, P3, 15, 34, (None, vec![])),
            (8, P3, 15, 34, (Some(32), vec![32, 33])),
            (23, P3, 15, 34, (None, vec![])),
            (24, P3, 15, 34, (Some(32), vec![32, 33])),
            (55, P3, 15, 34, (None, vec![])),
            (56, P3, 15, 34, (Some(32), vec![32, 33])),
            // `have` moves: k returns to 1, 8Δ after the last full answer.
            (57, P3, 33, 34, (None, vec![])),
            (63, P3, 33, 34, (None, vec![])),
            (64, P3, 33, 34, (None, vec![33])),
            // Nothing lacked at or past the apply point.
            (80, P3, 34, 34, (None, vec![])),
        ];
        let mut books = Checkpoints::new(16);
        for (t, from, have, applied, expected) in rows {
            apply_to(&mut books, applied, true);
            let answer = books.answer(from, have, at(t), F, BASE);
            assert_eq!(carried(answer), expected, "{from} at {t}Δ, have {have}");
        }
        assert_eq!(books.sent.len(), 3);
    }

    /// A snapshot with f attestations is not served; once the quorum
    /// forms, a re-ask within the wait draws it, and only it.
    #[test]
    fn f_signers_do_not_serve_and_a_re_ask_after_the_quorum_draws_the_snapshot() {
        let (pairs, dir) = keys();
        let mut books = Checkpoints::new(16);
        apply_to(&mut books, 18, false);
        let ask = |books: &mut Checkpoints, t| books.answer(P3, 0, at(t), F, BASE);
        assert_eq!(carried(ask(&mut books, 0)), (None, vec![16, 17]));
        let (upto, digest, sig) = attestation(&pairs[1], 16, &payload(16));
        books.attest(&dir, &Metrics::new(), P2, upto, digest, sig);
        let answer = ask(&mut books, 1);
        let [SlotMessage::SnapshotResponse {
            upto,
            payload: bytes,
            sigs,
        }] = &answer[..]
        else {
            panic!("the snapshot alone, got {answer:?}");
        };
        assert_eq!((*upto, bytes), (16, &payload(16)));
        assert!(snapshot_response_valid(
            &dir,
            &Metrics::new(),
            F,
            16,
            bytes,
            sigs
        ));
        assert_eq!(carried(ask(&mut books, 2)), (None, vec![]));
    }

    /// The stated bound at its edge. The requester asks every Δ and moves
    /// its `have` every ask, so k never rises; the responder applies a slot
    /// every Δ and seals every 16. Every 8Δ (the base timeout) it draws a
    /// full answer, the snapshot and the whole tail; in between only each
    /// newly sealed snapshot and each newly applied slot, once.
    #[test]
    fn a_hostile_requester_draws_no_more_than_the_stated_bound() {
        const SPAN: u64 = 128;
        let mut books = Checkpoints::new(16);
        apply_to(&mut books, 16, true);
        let (mut fulls, mut seals, mut snapshots, mut backfills) = (0, 0, 0, 0);
        for t in 0..SPAN {
            let sealed = apply_to(&mut books, 17 + t, true) > 0;
            let answer = carried(books.answer(P3, t % 2, at(t), F, BASE));
            let tail = |from| books.tail().range(from..).map(|(s, _)| *s).collect();
            let full = at(t).0.is_multiple_of(BASE.0);
            let expected = if full {
                (books.upto(), tail(0))
            } else {
                (books.upto().filter(|_| sealed), tail(16 + t))
            };
            assert_eq!(answer, expected, "at {t}Δ");
            fulls += usize::from(full);
            seals += usize::from(sealed);
            snapshots += usize::from(answer.0.is_some());
            backfills += answer.1.len();
        }
        assert_eq!((fulls, seals), (16, 8));
        assert_eq!(snapshots, fulls + seals);
        assert!(backfills <= SPAN as usize + fulls * 16, "{backfills}");
    }

    #[test]
    fn a_response_opens_only_with_a_quorum_over_a_payload_for_its_boundary() {
        let (pairs, dir) = keys();
        let open =
            |upto, bytes: &[u8], sigs| open_response(&dir, &Metrics::new(), F, upto, bytes, sigs);
        let sigs_for = |upto: u64, bytes: &[u8], who: &[usize]| -> Vec<Signature> {
            who.iter()
                .map(|i| attestation(&pairs[*i], upto, bytes).2)
                .collect()
        };
        let bytes = payload(32);
        let (parsed, digest, signers) = open(32, &bytes, sigs_for(32, &bytes, &[1, 2]))
            .expect("f + 1 attestations of a payload for 32");
        assert_eq!(parsed.upto, 32);
        assert_eq!(digest, fastbft_crypto::digest(&bytes));
        assert_eq!(signers.keys().copied().collect::<Vec<_>>(), [P2, P3]);
        // f signers, however often; signatures over another boundary.
        assert!(open(32, &bytes, sigs_for(32, &bytes, &[1, 1, 1])).is_none());
        assert!(open(32, &bytes, sigs_for(48, &bytes, &[1, 2])).is_none());
        // A quorum that really signed `(48, bytes)` — but the bytes say 32.
        assert!(open(48, &bytes, sigs_for(48, &bytes, &[1, 2])).is_none());
        // A quorum over bytes that are no payload at all.
        assert!(open(32, b"junk", sigs_for(32, b"junk", &[1, 2])).is_none());
    }

    /// Install checks each signature of the response once, and counts
    /// each check.
    #[test]
    fn an_install_verifies_each_signature_once() {
        use crate::{CountingMachine, SmrNode};
        use fastbft_sim::{Actor, Effects, SimTime};
        use fastbft_types::{Config, Value};

        let (pairs, dir) = keys();
        let cfg = Config::new(4, 1, 1).unwrap();
        let bytes = to_bytes(&SnapshotPayload {
            upto: 32,
            machine: 9u64.to_be_bytes().to_vec(),
            ..SnapshotPayload::default()
        });
        let sigs: Vec<Signature> = (1..4)
            .map(|i| attestation(&pairs[i], 32, &bytes).2)
            .collect();
        let machine = CountingMachine::new();
        let mut node = SmrNode::new(
            cfg,
            pairs[0].clone(),
            dir.clone(),
            machine,
            Vec::new(),
            Value::default(),
        );
        let mut fx = Effects::new(P1, 4, SimTime::ZERO);
        node.on_start(&mut fx);
        let response = SlotMessage::SnapshotResponse {
            upto: 32,
            payload: bytes,
            sigs,
        };
        node.on_message(P2, response, &mut fx);
        assert_eq!((node.applied(), node.snapshot_upto()), (32, Some(32)));
        assert_eq!(node.opts.metrics.sig_memo_miss_total.get(), 3);
    }

    #[test]
    fn recovery_arms_on_f_plus_one_tips_past_the_gap_once_per_timeout() {
        let mut books = Checkpoints::new(16);
        let applied = 10;
        let far = applied + RECOVERY_GAP;
        // Near claims are recorded and not worth a check.
        assert!(!books.note_tip(P2, far - 1, applied));
        assert!(!books.arm_recovery(applied, F));
        // One far claim is worth a check, and f claims are not enough.
        assert!(books.note_tip(P2, far + 100, applied));
        assert!(!books.arm_recovery(applied, F), "f alone could be fiction");
        // A lower claim never lowers a tip.
        books.note_tip(P2, 0, applied);
        assert!(books.note_tip(P3, far, applied));
        assert!(
            books.arm_recovery(applied, F),
            "the (f + 1)-th largest is far"
        );
        // Armed: no second request, and no further checks, until the timer.
        assert!(!books.note_tip(P3, far + 5, applied));
        assert!(!books.arm_recovery(applied, F));
        books.disarm_recovery();
        assert!(books.arm_recovery(applied, F), "still behind: ask again");
        books.disarm_recovery();
        assert!(!books.arm_recovery(far, F), "caught up");
        assert_eq!(books.peer_tips.len(), 2);
    }
}
