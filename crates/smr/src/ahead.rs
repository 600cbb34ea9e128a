//! The backfill-vote buffer: each peer's claim of what a slot this node
//! has not settled decided.
//!
//! A [`Backfill`] vote counts until `f + 1` senders agree on a value, and a
//! sender's newer vote for a slot replaces its earlier one. Whatever peers
//! send, the buffer is bounded three ways:
//!
//! * **horizon** — nothing at or past `applied + `[`BACKFILL_HORIZON`] is
//!   kept: a recovering node is owed at most one snapshot interval of tail
//!   past the snapshot it installs;
//! * **votes** and **bytes** — when either cap is reached the *farthest*
//!   slot's newest vote is evicted to make room, and a newcomer that is
//!   itself the farthest is dropped: the nearest slots are the ones that
//!   unblock the apply point.
//!
//! A dropped vote costs its sender's peer a `Wish` round trip or the
//! recovery timer a retry, never liveness.
//!
//! [`Backfill`]: crate::SlotMessage::Backfill

use std::collections::BTreeMap;

use fastbft_types::{ProcessId, Value};

use crate::multiplex::BACKFILL_HORIZON;

/// Votes held across all slots: one per sender per slot of the horizon
/// reaches it only from `n = 17` on.
pub(crate) const MAX_VOTES: usize = 4096;

/// Total value bytes the votes may hold. A recovering node is owed at most
/// one snapshot interval of tail by each peer, nearest slot first, and a
/// slot's votes are freed the moment `f + 1` of them match — so what
/// correct peers send drains from the near end while the cap evicts from
/// the far one, and the next `SnapshotRequest` or `Wish` brings back what
/// was evicted. Without it one Byzantine seat could hold a value per slot
/// of the horizon: 256 × `MAX_FIELD_LEN` = 4 GiB. A value that alone
/// exceeds the cap is kept while it is the nearest.
pub(crate) const MAX_BACKFILL_BYTES: usize = 32 << 20;

/// Backfill votes by slot, `(sender, value)` oldest first, bounded. See
/// the [module docs](self).
pub(crate) struct AheadBuffer {
    by_slot: BTreeMap<u64, Vec<(ProcessId, Value)>>,
    len: usize,
    bytes: usize,
    max_bytes: usize,
}

impl AheadBuffer {
    /// An empty buffer under the [`MAX_BACKFILL_BYTES`] cap.
    pub(crate) fn backfill_votes() -> Self {
        AheadBuffer {
            by_slot: BTreeMap::new(),
            len: 0,
            bytes: 0,
            max_bytes: MAX_BACKFILL_BYTES,
        }
    }

    /// Value bytes held across all slots.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The votes held for `slot`, oldest first.
    pub(crate) fn at(&self, slot: u64) -> &[(ProcessId, Value)] {
        self.by_slot.get(&slot).map_or(&[], Vec::as_slice)
    }

    /// Counts `from`'s vote for `value` in `slot`, replacing its earlier
    /// one, as seen by a node whose next unapplied slot is `applied` — or
    /// drops it: past the horizon, or the farthest vote of a full buffer.
    pub(crate) fn insert(&mut self, applied: u64, slot: u64, from: ProcessId, value: Value) {
        if slot >= applied + BACKFILL_HORIZON {
            return;
        }
        self.remove_where(slot, |(sender, _)| *sender == from);
        let size = value.as_bytes().len();
        while self.len >= MAX_VOTES || self.bytes + size > self.max_bytes {
            match self.by_slot.last_key_value() {
                Some((&farthest, _)) if farthest > slot => self.remove_where(farthest, |_| true),
                // The newcomer is the farthest: it is the one to go.
                Some(_) => return,
                None => break,
            }
        }
        self.by_slot.entry(slot).or_default().push((from, value));
        self.len += 1;
        self.bytes += size;
    }

    /// Removes the newest vote of `slot` that `matches`, if any.
    fn remove_where(&mut self, slot: u64, matches: impl Fn(&(ProcessId, Value)) -> bool) {
        let Some(votes) = self.by_slot.get_mut(&slot) else {
            return;
        };
        if let Some(at) = votes.iter().rposition(matches) {
            self.len -= 1;
            self.bytes -= votes.remove(at).1.as_bytes().len();
            if votes.is_empty() {
                self.by_slot.remove(&slot);
            }
        }
    }

    /// Forgets every vote held for `slot`.
    pub(crate) fn remove(&mut self, slot: u64) {
        for (_, value) in self.by_slot.remove(&slot).unwrap_or_default() {
            self.len -= 1;
            self.bytes -= value.as_bytes().len();
        }
    }

    /// Forgets every vote held for slots below `applied`: they are settled,
    /// the votes can never be used, and being the *nearest* they are what
    /// farthest-first eviction would never reclaim.
    pub(crate) fn purge_below(&mut self, applied: u64) {
        while let Some((&stale, _)) = self.by_slot.first_key_value() {
            if stale >= applied {
                break;
            }
            self.remove(stale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P2: ProcessId = ProcessId(2);
    const P3: ProcessId = ProcessId(3);

    fn value(byte: u8, len: usize) -> Value {
        Value::new(vec![byte; len])
    }

    /// An empty buffer holding at most `max_bytes` of values.
    fn buffer(max_bytes: usize) -> AheadBuffer {
        AheadBuffer {
            max_bytes,
            ..AheadBuffer::backfill_votes()
        }
    }

    fn slots(b: &AheadBuffer) -> Vec<u64> {
        b.by_slot.keys().copied().collect()
    }

    #[test]
    fn eviction_is_farthest_first_and_a_farthest_newcomer_is_dropped() {
        let mut b = buffer(40);
        for (slot, from) in [(70, P2), (90, P2), (80, P2), (90, P3)] {
            b.insert(0, slot, from, value(slot as u8, 10));
        }
        assert_eq!((b.len, b.bytes()), (4, 40));
        // Full. Farther than everything held, or level with it: dropped.
        b.insert(0, 95, P2, value(1, 10));
        b.insert(0, 90, ProcessId(4), value(2, 10));
        assert_eq!(slots(&b), [70, 80, 90]);
        assert_eq!(b.at(90).len(), 2, "neither newcomer displaced anything");
        // Nearer: the farthest slot's newest vote goes, one at a time.
        b.insert(0, 75, P3, value(3, 10));
        assert_eq!(b.at(90), [(P2, value(90, 10))]);
        b.insert(0, 65, P3, value(4, 10));
        assert_eq!(slots(&b), [65, 70, 75, 80]);
        assert_eq!((b.len, b.bytes()), (4, 40));
        // A large newcomer evicts as many as it needs; one that alone
        // exceeds the cap is kept while it is the nearest.
        b.insert(0, 60, P2, value(0, 25));
        assert_eq!((slots(&b), b.bytes()), (vec![60, 65], 35));
        b.insert(0, 50, P2, value(0, 64));
        assert_eq!((slots(&b), b.bytes()), (vec![50], 64));
        b.insert(0, 55, P2, value(0, 1));
        assert_eq!(slots(&b), [50], "behind the oversized one: dropped");
        b.insert(0, 45, P2, value(0, 1));
        assert_eq!((slots(&b), b.bytes()), (vec![45], 1));
    }

    #[test]
    fn the_vote_cap_binds_the_same_way() {
        let mut b = buffer(usize::MAX);
        let per_slot = MAX_VOTES as u64 / BACKFILL_HORIZON;
        for i in 0..MAX_VOTES as u64 {
            let from = ProcessId((i % per_slot) as u32 + 1);
            b.insert(0, i / per_slot, from, value(0, 1));
        }
        assert_eq!(b.len, MAX_VOTES);
        let farthest = BACKFILL_HORIZON - 1;
        b.insert(0, farthest, ProcessId(100), value(0, 1));
        assert_eq!(b.at(farthest).len() as u64, per_slot, "dropped");
        b.insert(0, 3, ProcessId(100), value(0, 1));
        assert_eq!(b.at(3).len() as u64, per_slot + 1);
        assert_eq!(b.at(farthest).len() as u64, per_slot - 1, "evicted");
        assert_eq!((b.len, b.bytes()), (MAX_VOTES, MAX_VOTES));
    }

    #[test]
    fn the_horizon_moves_with_the_apply_point() {
        let mut b = buffer(800);
        b.insert(0, BACKFILL_HORIZON, P2, value(0, 1));
        b.insert(0, u64::MAX - 1, P2, value(0, 1));
        assert_eq!(b.len, 0, "at or past the horizon: nothing kept");
        b.insert(0, BACKFILL_HORIZON - 1, P2, value(0, 1));
        b.insert(10, BACKFILL_HORIZON + 9, P2, value(0, 1));
        assert_eq!(slots(&b), [BACKFILL_HORIZON - 1, BACKFILL_HORIZON + 9]);
    }

    #[test]
    fn a_vote_replaces_its_senders_earlier_one() {
        let mut b = buffer(800);
        b.insert(0, 5, P2, value(1, 100));
        b.insert(0, 5, P3, value(1, 100));
        b.insert(0, 5, P2, value(2, 30));
        assert_eq!(b.at(5), [(P3, value(1, 100)), (P2, value(2, 30))]);
        assert_eq!((b.len, b.bytes()), (2, 130));
        b.insert(0, 6, P2, value(3, 1));
        assert_eq!(b.len, 3, "another slot is another vote");
    }

    #[test]
    fn remove_and_purge_below_keep_the_books() {
        let mut b = buffer(1_000);
        for (slot, from) in [(3, P2), (3, P3), (4, P2), (9, P2), (12, P3)] {
            b.insert(0, slot, from, value(slot as u8, slot as usize));
        }
        assert_eq!((b.len, b.bytes()), (5, 31));
        b.remove(3);
        assert!(b.at(3).is_empty());
        b.remove(3);
        assert_eq!((b.len, b.bytes()), (3, 25));
        b.purge_below(9);
        assert_eq!((slots(&b), b.len, b.bytes()), (vec![9, 12], 2, 21));
        b.purge_below(9);
        assert_eq!(b.len, 2, "the slot at the apply point stays");
        b.purge_below(u64::MAX);
        assert_eq!((b.len, b.bytes()), (0, 0));
        assert!(b.at(9).is_empty());
    }
}
