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
//!   the signatures that returns the distinct signers whose signature
//!   checks. `f + 1` of them pin at least one correct replica vouching for
//!   the bytes; everything that needs the quorum (serving, installing,
//!   [`snapshot_response_valid`]) asks that one function, once.
//! * **The books** ([`Checkpoints`]): the latest snapshot taken or
//!   installed with the attestations gathered for it; attestations that
//!   arrived for boundaries not reached yet, two per signer (a Byzantine
//!   signer can only evict its own); what each requester was last served,
//!   so an identical request against unchanged state is answered once; and
//!   the recovery trigger — the highest slot each peer has demonstrably
//!   worked on, and whether a request is outstanding. All four are keyed
//!   by transport-authenticated sender: `n` entries each, whatever is sent.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, VecDeque};

use fastbft_crypto::{Digest, KeyDirectory, KeyPair, Signature};
use fastbft_types::wire::from_bytes;
use fastbft_types::ProcessId;

use crate::dedup::Dedup;
use crate::multiplex::SLOT_WINDOW;
use crate::slot_message::SlotMessage;

/// A node requests state transfer once f+1 distinct peers claim tips at
/// least this many slots ahead of it — far enough that normal pipelining
/// (depth ≤ `SLOT_WINDOW`) never trips it, near enough to recover long
/// before the stash horizon drops everything.
pub(crate) const RECOVERY_GAP: u64 = SLOT_WINDOW / 2;

/// Domain-separation prefix for checkpoint attestations (keeps snapshot
/// signatures from colliding with consensus statements).
const SNAPSHOT_DOMAIN: &[u8; 8] = b"fbftSNAP";

/// The checkpoint attestation a process broadcasts after snapshotting at
/// `upto`: a signature over `(domain, upto, payload digest)`. Public so
/// tests can mint attestations for hand-built snapshots.
pub fn checkpoint_signature(keys: &KeyPair, upto: u64, digest: &Digest) -> Signature {
    keys.sign_parts(&[SNAPSHOT_DOMAIN, &upto.to_be_bytes(), digest])
}

/// The valid checkpoint attestations over `(upto, digest)` among `sigs`, by
/// signer: each signature is checked once, and a signer counts once however
/// many it sent.
fn valid_signers<S: Borrow<Signature>>(
    dir: &KeyDirectory,
    upto: u64,
    digest: &Digest,
    sigs: impl IntoIterator<Item = S>,
) -> BTreeMap<ProcessId, S> {
    let statement: [&[u8]; 3] = [SNAPSHOT_DOMAIN, &upto.to_be_bytes(), digest];
    sigs.into_iter()
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
pub fn snapshot_response_valid(
    dir: &KeyDirectory,
    f: usize,
    upto: u64,
    payload: &[u8],
    sigs: &[Signature],
) -> bool {
    valid_signers(dir, upto, &fastbft_crypto::digest(payload), sigs).len() > f
}

/// The canonical snapshot payload: everything a replica needs to resume
/// applying from slot `upto`.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct SnapshotPayload {
    /// First slot not covered by this snapshot.
    pub(crate) upto: u64,
    /// Global log index of the first post-snapshot log entry.
    pub(crate) log_offset: u64,
    /// Client (non-filler) commands applied up to `upto`.
    pub(crate) client_commands: u64,
    /// [`StateMachine::snapshot`](crate::StateMachine::snapshot) bytes.
    pub(crate) machine: Vec<u8>,
    /// The at-most-once state, in its canonical form.
    pub(crate) dedup: Dedup,
}

fastbft_types::impl_wire_struct!(SnapshotPayload {
    upto,
    log_offset,
    client_commands,
    machine,
    dedup
});

/// Opens a [`SlotMessage::SnapshotResponse`]: if `sigs` holds f+1 valid
/// attestations of `bytes` at `upto` and `bytes` is a canonical payload for
/// that same boundary, the parsed payload, its digest and the valid
/// attestations by signer.
pub(crate) fn open_response(
    dir: &KeyDirectory,
    f: usize,
    upto: u64,
    bytes: &[u8],
    sigs: Vec<Signature>,
) -> Option<(SnapshotPayload, Digest, BTreeMap<ProcessId, Signature>)> {
    let digest = fastbft_crypto::digest(bytes);
    let signers = valid_signers(dir, upto, &digest, sigs);
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

/// One node's checkpoint and state-transfer books. See the [module
/// docs](self).
#[derive(Default)]
pub(crate) struct Checkpoints {
    /// Snapshot cadence in applied slots.
    interval: u64,
    /// Latest snapshot taken or installed.
    latest: Option<Attested>,
    /// Attestations for boundaries not reached yet: per signer, the last two
    /// `(upto, digest, sig)` triples.
    parked: HashMap<ProcessId, VecDeque<(u64, Digest, Signature)>>,
    /// Per requester, the `(have, snapshot upto, applied)` it was last
    /// served at.
    served: HashMap<ProcessId, (u64, u64, u64)>,
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

    /// Whether a node that has applied `applied` slots is at a boundary.
    pub(crate) fn due(&self, applied: u64) -> bool {
        applied.is_multiple_of(self.interval)
    }

    /// Records the local snapshot `payload` taken at `upto`: merges the
    /// attestations peers sent before this node got here, drops every
    /// parked one at or below the boundary (consumed or stale), and returns
    /// this node's own attestation to broadcast.
    pub(crate) fn seal(&mut self, keys: &KeyPair, upto: u64, payload: Vec<u8>) -> SlotMessage {
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
        let sig = self.adopt(keys, upto, digest, payload, sigs);
        SlotMessage::Checkpoint { upto, digest, sig }
    }

    /// Makes `payload` at `upto` this node's latest snapshot, with the valid
    /// attestations `sigs` gathered for it plus this node's own, which is
    /// returned (it now vouches for the state, and can serve it onward).
    pub(crate) fn adopt(
        &mut self,
        keys: &KeyPair,
        upto: u64,
        digest: Digest,
        payload: Vec<u8>,
        mut sigs: BTreeMap<ProcessId, Signature>,
    ) -> Signature {
        let own = checkpoint_signature(keys, upto, &digest);
        sigs.insert(keys.id(), own.clone());
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
    pub(crate) fn attest(
        &mut self,
        dir: &KeyDirectory,
        from: ProcessId,
        upto: u64,
        digest: Digest,
        sig: Signature,
    ) {
        if sig.signer != from || valid_signers(dir, upto, &digest, [&sig]).is_empty() {
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

    /// Whether `from`'s request is new: `false` for an identical re-request
    /// against unchanged local state (the amplification bound).
    pub(crate) fn first_ask(&mut self, from: ProcessId, have: u64, applied: u64) -> bool {
        let state = (have, self.upto().unwrap_or(0), applied);
        self.served.insert(from, state) != Some(state)
    }

    /// The response for a requester at `have`: the latest snapshot, if it
    /// covers anything the requester lacks and has f+1 attestations —
    /// without them the requester would reject it, and its retry timer will
    /// re-ask once more checkpoints have arrived here.
    pub(crate) fn response(&self, have: u64, f: usize) -> Option<SlotMessage> {
        let snap = self.latest.as_ref()?;
        (snap.upto > have && snap.sigs.len() > f).then(|| SlotMessage::SnapshotResponse {
            upto: snap.upto,
            payload: snap.payload.clone(),
            sigs: snap.sigs.values().cloned().collect(),
        })
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
        (upto, digest, checkpoint_signature(who, upto, &digest))
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
                books.attest(&dir, from, upto, digest, sig);
            };
        // Ahead of any local snapshot: parked, and merged when p1 seals the
        // same bytes at that boundary — p3's, for other bytes, is not.
        attest(&mut books, P2, 1, 16, &payload(16));
        attest(&mut books, P3, 2, 16, b"another state");
        books.seal(&pairs[0], 16, payload(16));
        assert_eq!(signers(&books), [P1, P2]);
        assert!(books.parked.values().all(VecDeque::is_empty), "consumed");
        // For the local boundary: the same digest is collected, another is
        // not, a signature relayed by someone else is not, nor a bad one.
        attest(&mut books, P3, 2, 16, b"another state");
        assert_eq!(signers(&books), [P1, P2]);
        attest(&mut books, P2, 2, 16, &payload(16));
        let (upto, digest, _) = attestation(&pairs[2], 16, &payload(16));
        let forged = Signature::from_parts(P3, [7; 32]);
        books.attest(&dir, P3, upto, digest, forged);
        assert_eq!(signers(&books), [P1, P2]);
        attest(&mut books, P3, 2, 16, &payload(16));
        assert_eq!(signers(&books), [P1, P2, P3]);
        // Stale: below the local boundary, dropped outright.
        books.seal(&pairs[0], 32, payload(32));
        attest(&mut books, P2, 1, 16, &payload(16));
        assert_eq!(signers(&books), [P1]);
        assert!(books.parked.values().all(VecDeque::is_empty));
    }

    #[test]
    fn a_signer_floods_only_its_own_two_parking_slots() {
        let (pairs, dir) = keys();
        let mut books = Checkpoints::new(16);
        let (upto, digest, sig) = attestation(&pairs[2], 48, &payload(48));
        books.attest(&dir, P3, upto, digest, sig);
        for boundary in 1..=100u64 {
            let (upto, digest, sig) = attestation(&pairs[1], 16 * boundary, b"spray");
            books.attest(&dir, P2, upto, digest, sig);
        }
        // Re-attesting a parked boundary replaces, it does not stack.
        let (upto, digest, sig) = attestation(&pairs[1], 1600, b"again");
        books.attest(&dir, P2, upto, digest, sig);
        let parked =
            |p: &ProcessId| -> Vec<u64> { books.parked[p].iter().map(|(at, _, _)| *at).collect() };
        assert_eq!(parked(&P2), [1584, 1600]);
        assert_eq!(parked(&P3), [48], "p3's survives p2's flood");
        assert_eq!(books.parked.len(), 2);
    }

    #[test]
    fn f_signers_do_not_serve_and_f_plus_one_do_each_request_once() {
        let (pairs, dir) = keys();
        let mut books = Checkpoints::new(16);
        assert!(
            books.first_ask(P3, 0, 5),
            "no snapshot yet, still a request"
        );
        assert!(books.response(0, F).is_none());
        books.seal(&pairs[0], 16, payload(16));
        assert!(books.response(0, F).is_none(), "f signers");
        let (upto, digest, sig) = attestation(&pairs[1], 16, &payload(16));
        books.attest(&dir, P2, upto, digest, sig.clone());
        let Some(SlotMessage::SnapshotResponse {
            upto,
            payload: bytes,
            sigs,
        }) = books.response(0, F)
        else {
            panic!("f + 1 signers serve");
        };
        assert_eq!((upto, bytes), (16, payload(16)));
        assert_eq!(sigs.len(), 2);
        assert!(snapshot_response_valid(&dir, F, 16, &payload(16), &sigs));
        assert!(
            books.response(16, F).is_none(),
            "nothing the requester lacks"
        );

        // The memo: per requester, keyed by its `have` and the local state.
        assert!(books.first_ask(P3, 0, 20));
        assert!(
            !books.first_ask(P3, 0, 20),
            "the same request, unchanged state"
        );
        assert!(books.first_ask(P2, 0, 20), "another requester");
        assert!(books.first_ask(P3, 4, 20), "its `have` moved");
        assert!(books.first_ask(P3, 4, 21), "the local apply point moved");
        books.seal(&pairs[0], 32, payload(32));
        assert!(books.first_ask(P3, 4, 21), "the local snapshot moved");
        assert!(!books.first_ask(P3, 4, 21));
        assert_eq!(books.served.len(), 2);
    }

    #[test]
    fn a_response_opens_only_with_a_quorum_over_a_payload_for_its_boundary() {
        let (pairs, dir) = keys();
        let sigs_for = |upto: u64, bytes: &[u8], who: &[usize]| -> Vec<Signature> {
            who.iter()
                .map(|i| attestation(&pairs[*i], upto, bytes).2)
                .collect()
        };
        let bytes = payload(32);
        let (parsed, digest, signers) =
            open_response(&dir, F, 32, &bytes, sigs_for(32, &bytes, &[1, 2]))
                .expect("f + 1 attestations of a payload for 32");
        assert_eq!(parsed.upto, 32);
        assert_eq!(digest, fastbft_crypto::digest(&bytes));
        assert_eq!(signers.keys().copied().collect::<Vec<_>>(), [P2, P3]);
        // f signers, however often; signatures over another boundary.
        assert!(open_response(&dir, F, 32, &bytes, sigs_for(32, &bytes, &[1, 1, 1])).is_none());
        assert!(open_response(&dir, F, 32, &bytes, sigs_for(48, &bytes, &[1, 2])).is_none());
        // A quorum that really signed `(48, bytes)` — but the bytes say 32.
        assert!(open_response(&dir, F, 48, &bytes, sigs_for(48, &bytes, &[1, 2])).is_none());
        // A quorum over bytes that are no payload at all.
        assert!(open_response(&dir, F, 32, b"junk", sigs_for(32, b"junk", &[1, 2])).is_none());
    }

    /// Install checks each signature of the response once (the counter is
    /// maintained in debug builds only).
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
        let idle = Value::from_u64(0);
        let machine = CountingMachine::new();
        let mut node = SmrNode::new(
            cfg,
            pairs[0].clone(),
            dir.clone(),
            machine,
            Vec::new(),
            idle,
        );
        let mut fx = Effects::new(P1, 4, SimTime::ZERO);
        node.on_start(&mut fx);
        let before = dir.verifications_performed();
        let response = SlotMessage::SnapshotResponse {
            upto: 32,
            payload: bytes,
            sigs,
        };
        node.on_message(P2, response, &mut fx);
        assert_eq!((node.applied(), node.snapshot_upto()), (32, Some(32)));
        if cfg!(debug_assertions) {
            assert_eq!(dir.verifications_performed() - before, 3);
        }
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
