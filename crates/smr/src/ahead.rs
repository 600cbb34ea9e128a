//! The ahead-of-window buffer: what peers say about slots this node has not
//! opened.
//!
//! Two things arrive for such slots and one type holds both: consensus
//! messages beyond the instantiation window, replayed when the window
//! reaches their slot (the *stash*), and [`Backfill`] votes for slots not
//! yet settled, one per sender, counted until `f + 1` agree. Either is
//! bounded in three dimensions whatever a peer sends:
//!
//! * **horizon** — nothing at or past `applied + `[`MAX_STASH_AHEAD`] is
//!   kept: no correct peer's pipeline runs that far ahead of a node it
//!   shares quorums with, so such traffic is hostile, or the node is
//!   hopelessly behind, which state transfer fixes and buffering could not;
//! * **entries** and **bytes** — when either cap is reached the *farthest*
//!   slot's newest entry is evicted to make room, and a newcomer that is
//!   itself the farthest is dropped: the nearest slots are the ones that
//!   unblock the pipeline.
//!
//! Both buffers are best-effort by design: a dropped frame costs its sender
//! a `Wish` round trip or the recovery timer a retry, never liveness.
//!
//! [`Backfill`]: crate::SlotMessage::Backfill

use std::collections::BTreeMap;

use fastbft_core::message::Message;
use fastbft_sim::SimMessage;
use fastbft_types::{ProcessId, Value};

use crate::multiplex::MAX_STASH_AHEAD;

/// Entries either buffer may hold across all slots. The stash reaches it
/// under spray; backfill votes — one per sender per slot of the horizon —
/// cannot below `n = 17`.
pub(crate) const MAX_STASHED_MESSAGES: usize = 4096;

/// Total encoded bytes the stash may hold. A correct peer's frame for a
/// slot beyond the window is a proposal or an ack of one: at most
/// `max_batch_bytes` (1 MiB by default) plus one oversized command, and a
/// few KiB in every workload this repo runs. 32 MiB keeps the nearest 32
/// maximal proposals, or a full 4096-message stash at 8 KiB a message;
/// without it one Byzantine seat could pin 4096 × `MAX_FIELD_LEN` = 64 GiB.
/// The bound holds to within one frame: an entry that alone exceeds the cap
/// is kept while it is the nearest.
pub(crate) const MAX_STASHED_BYTES: usize = 32 << 20;

/// Total value bytes the backfill votes may hold. A recovering node is owed
/// at most one snapshot interval of tail by each peer, nearest slot first,
/// and a slot's votes are freed the moment `f + 1` of them match — so what
/// correct peers send drains from the near end while the cap evicts from
/// the far one, and the next `SnapshotRequest` or `Wish` brings back what
/// was evicted. Without it one Byzantine seat could hold a value per slot
/// of the horizon: 256 × `MAX_FIELD_LEN` = 4 GiB.
pub(crate) const MAX_BACKFILL_BYTES: usize = 32 << 20;

/// One buffered item, who sent it, and the bytes it is accounted at.
#[derive(Debug, PartialEq)]
pub(crate) struct Held<T> {
    pub(crate) from: ProcessId,
    pub(crate) item: T,
    size: usize,
}

/// Entries of type `T` by slot and sender, bounded. See the [module
/// docs](self).
pub(crate) struct AheadBuffer<T> {
    by_slot: BTreeMap<u64, Vec<Held<T>>>,
    len: usize,
    bytes: usize,
    max_bytes: usize,
    size_of: fn(&T) -> usize,
    /// Whether a sender's entry for a slot replaces its earlier one (votes)
    /// or queues behind it (messages).
    one_per_sender: bool,
}

impl AheadBuffer<Message> {
    /// The stash: every message kept, in arrival order per slot.
    pub(crate) fn stash() -> Self {
        let size_of = |msg: &Message| msg.wire_size();
        AheadBuffer::new(MAX_STASHED_BYTES, size_of, false)
    }
}

impl AheadBuffer<Value> {
    /// Backfill votes: one claimed value per sender per slot.
    pub(crate) fn backfill_votes() -> Self {
        let size_of = |value: &Value| value.as_bytes().len();
        AheadBuffer::new(MAX_BACKFILL_BYTES, size_of, true)
    }
}

impl<T> AheadBuffer<T> {
    fn new(max_bytes: usize, size_of: fn(&T) -> usize, one_per_sender: bool) -> Self {
        AheadBuffer {
            by_slot: BTreeMap::new(),
            len: 0,
            bytes: 0,
            max_bytes,
            size_of,
            one_per_sender,
        }
    }

    /// Entries held across all slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes held across all slots.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// What is held for `slot`, oldest first.
    pub(crate) fn at(&self, slot: u64) -> &[Held<T>] {
        self.by_slot.get(&slot).map_or(&[], Vec::as_slice)
    }

    /// The slots below `limit` that hold anything, ascending.
    pub(crate) fn slots_below(&self, limit: u64) -> Vec<u64> {
        self.by_slot.range(..limit).map(|(slot, _)| *slot).collect()
    }

    /// Buffers `item` from `from` for `slot`, as seen by a node whose next
    /// unapplied slot is `applied` — or drops it: past the horizon, or the
    /// farthest entry of a full buffer.
    pub(crate) fn insert(&mut self, applied: u64, slot: u64, from: ProcessId, item: T) {
        if slot >= applied + MAX_STASH_AHEAD {
            return;
        }
        if self.one_per_sender {
            self.remove_where(slot, |held| held.from == from);
        }
        let size = (self.size_of)(&item);
        while self.len >= MAX_STASHED_MESSAGES || self.bytes + size > self.max_bytes {
            match self.by_slot.last_key_value() {
                Some((&farthest, _)) if farthest > slot => {
                    self.remove_where(farthest, |_| true);
                }
                // The newcomer is the farthest: it is the one to go.
                Some(_) => return,
                None => break,
            }
        }
        let held = Held { from, item, size };
        self.by_slot.entry(slot).or_default().push(held);
        self.len += 1;
        self.bytes += size;
    }

    /// Removes the newest entry of `slot` that `matches`, if any.
    fn remove_where(&mut self, slot: u64, matches: impl Fn(&Held<T>) -> bool) {
        let Some(bucket) = self.by_slot.get_mut(&slot) else {
            return;
        };
        if let Some(at) = bucket.iter().rposition(matches) {
            self.len -= 1;
            self.bytes -= bucket.remove(at).size;
            if bucket.is_empty() {
                self.by_slot.remove(&slot);
            }
        }
    }

    /// Removes and returns everything held for `slot`, oldest first.
    pub(crate) fn take(&mut self, slot: u64) -> Vec<Held<T>> {
        let bucket = self.by_slot.remove(&slot).unwrap_or_default();
        self.len -= bucket.len();
        self.bytes -= bucket.iter().map(|held| held.size).sum::<usize>();
        bucket
    }

    /// Drops everything held for slots below `applied`: they are settled,
    /// the entries can never be used, and being the *nearest* they are what
    /// farthest-first eviction would never reclaim.
    pub(crate) fn purge_below(&mut self, applied: u64) {
        while let Some((&stale, _)) = self.by_slot.first_key_value() {
            if stale >= applied {
                break;
            }
            self.take(stale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P2: ProcessId = ProcessId(2);
    const P3: ProcessId = ProcessId(3);

    /// A buffer of byte strings sized by their length.
    fn buffer(max_bytes: usize, one_per_sender: bool) -> AheadBuffer<Vec<u8>> {
        AheadBuffer::new(max_bytes, Vec::len, one_per_sender)
    }

    fn slots(buffer: &AheadBuffer<Vec<u8>>) -> Vec<u64> {
        buffer.slots_below(u64::MAX)
    }

    fn held(from: ProcessId, item: Vec<u8>) -> Held<Vec<u8>> {
        let size = item.len();
        Held { from, item, size }
    }

    #[test]
    fn eviction_is_farthest_first_and_a_farthest_newcomer_is_dropped() {
        let mut b = buffer(40, false);
        for slot in [70, 90, 80, 90] {
            b.insert(0, slot, P2, vec![slot as u8; 10]);
        }
        assert_eq!((b.len(), b.bytes()), (4, 40));
        // Full. Farther than everything held, or level with it: dropped.
        b.insert(0, 95, P2, vec![1; 10]);
        b.insert(0, 90, P2, vec![2; 10]);
        assert_eq!(slots(&b), [70, 80, 90]);
        assert_eq!(b.at(90).len(), 2, "neither newcomer displaced anything");
        // Nearer: the farthest slot's newest entry goes, one at a time.
        b.insert(0, 75, P3, vec![3; 10]);
        assert_eq!(b.at(90), [held(P2, vec![90; 10])]);
        b.insert(0, 65, P3, vec![4; 10]);
        assert_eq!(slots(&b), [65, 70, 75, 80]);
        assert_eq!((b.len(), b.bytes()), (4, 40));
        // A large newcomer evicts as many as it needs; one that alone
        // exceeds the cap is kept while it is the nearest.
        b.insert(0, 60, P2, vec![0; 25]);
        assert_eq!((slots(&b), b.bytes()), (vec![60, 65], 35));
        b.insert(0, 50, P2, vec![0; 64]);
        assert_eq!((slots(&b), b.bytes()), (vec![50], 64));
        b.insert(0, 55, P2, vec![0; 1]);
        assert_eq!(slots(&b), [50], "behind the oversized one: dropped");
        b.insert(0, 45, P2, vec![0; 1]);
        assert_eq!((slots(&b), b.bytes()), (vec![45], 1));
    }

    #[test]
    fn the_entry_cap_binds_the_same_way() {
        let mut b = buffer(usize::MAX, false);
        let per_slot = MAX_STASHED_MESSAGES as u64 / MAX_STASH_AHEAD;
        for i in 0..MAX_STASHED_MESSAGES as u64 {
            b.insert(0, i / per_slot, P2, vec![0; 1]);
        }
        assert_eq!(b.len(), MAX_STASHED_MESSAGES);
        let farthest = MAX_STASH_AHEAD - 1;
        b.insert(0, farthest, P3, vec![0; 1]);
        assert_eq!(b.at(farthest).len() as u64, per_slot, "dropped");
        b.insert(0, 3, P3, vec![0; 1]);
        assert_eq!(b.at(3).len() as u64, per_slot + 1);
        assert_eq!(b.at(farthest).len() as u64, per_slot - 1, "evicted");
        assert_eq!(
            (b.len(), b.bytes()),
            (MAX_STASHED_MESSAGES, MAX_STASHED_MESSAGES)
        );
    }

    #[test]
    fn the_horizon_moves_with_the_apply_point() {
        let mut b = buffer(800, false);
        b.insert(0, MAX_STASH_AHEAD, P2, vec![0; 1]);
        b.insert(0, u64::MAX - 1, P2, vec![0; 1]);
        assert_eq!(b.len(), 0, "at or past the horizon: nothing kept");
        b.insert(0, MAX_STASH_AHEAD - 1, P2, vec![0; 1]);
        b.insert(10, MAX_STASH_AHEAD + 9, P2, vec![0; 1]);
        assert_eq!(slots(&b), [MAX_STASH_AHEAD - 1, MAX_STASH_AHEAD + 9]);
    }

    #[test]
    fn a_vote_replaces_its_senders_earlier_one_and_a_message_does_not() {
        let mut votes = buffer(800, true);
        votes.insert(0, 5, P2, vec![1; 100]);
        votes.insert(0, 5, P3, vec![1; 100]);
        votes.insert(0, 5, P2, vec![2; 30]);
        assert_eq!(votes.at(5), [held(P3, vec![1; 100]), held(P2, vec![2; 30])]);
        assert_eq!((votes.len(), votes.bytes()), (2, 130));
        votes.insert(0, 6, P2, vec![3; 1]);
        assert_eq!(votes.len(), 3, "another slot is another vote");

        let mut stash = buffer(800, false);
        stash.insert(0, 5, P2, vec![1; 100]);
        stash.insert(0, 5, P2, vec![2; 30]);
        assert_eq!((stash.len(), stash.bytes()), (2, 130));
    }

    #[test]
    fn take_and_purge_below_give_back_what_they_remove() {
        let mut b = buffer(1_000, false);
        for (slot, from) in [(3, P2), (3, P3), (4, P2), (9, P2), (12, P3)] {
            b.insert(0, slot, from, vec![slot as u8; slot as usize]);
        }
        assert_eq!((b.len(), b.bytes()), (5, 31));
        assert_eq!(b.slots_below(9), [3, 4]);
        // Arrival order, and the books follow.
        assert_eq!(b.take(3), [held(P2, vec![3; 3]), held(P3, vec![3; 3])]);
        assert!(b.take(3).is_empty());
        assert_eq!((b.len(), b.bytes()), (3, 25));
        b.purge_below(9);
        assert_eq!((slots(&b), b.len(), b.bytes()), (vec![9, 12], 2, 21));
        b.purge_below(9);
        assert_eq!(b.len(), 2, "the slot at the apply point stays");
        b.purge_below(u64::MAX);
        assert_eq!((b.len(), b.bytes()), (0, 0));
        assert!(b.at(9).is_empty());
    }
}
