//! At-most-once state: which client commands this node has executed.
//!
//! A command is named once, by [`CommandId::of`]: a `(client, seq)` tag if
//! it carries one ([`tag_command`](crate::tag::tag_command)), its content
//! digest otherwise. [`Dedup`] answers `contains` / `insert` for either kind
//! and keeps each kind bounded its own way:
//!
//! * **Tagged** commands sit behind a per-client watermark — every sequence
//!   number at or below it has been applied — plus the applied numbers
//!   above it, a set that is non-empty only while commits land out of
//!   submission order and that the watermark prunes as it advances. Exact
//!   over any horizon.
//! * **Untagged** commands are 32-byte digests in two generations,
//!   [`rotate`](Dedup::rotate)d at every snapshot boundary: the identity
//!   window is the last two snapshot intervals, not the whole log. Replicas
//!   rotate at identical boundaries, so what the set refuses is the same
//!   cluster-wide.
//!
//! **The bound on untagged commands.** An untagged command that executed
//! more than two snapshot intervals ago and is still queued on some node
//! is proposed again and executes twice. A node drops what it executes
//! from its queue, and a snapshot install drops what the installed set
//! holds, so this takes a node that did not apply the command itself and
//! holds it past the window: one that recovers by snapshot with commands
//! queued from before it was cut off, or a client's late retry. A client
//! that needs exactly-once across recovery tags its commands, as the
//! benchmark's clients do.
//!
//! The wire form is what a snapshot payload carries and is canonical: both
//! generations' digests as one ascending list, then the clients ascending
//! by id, each with its watermark and ascending `above` list. Two replicas
//! with equal state produce equal bytes whatever order the commands
//! arrived in, and [`Decode`] refuses anything else. A decoded set holds
//! every digest in the previous generation — the state of its encoder
//! right after the rotation a snapshot is taken at.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::mem;

use fastbft_crypto::Digest;
use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::Value;

use crate::tag::parse_client_tag;

/// The at-most-once identity of a client command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CommandId {
    /// The `(client, seq)` of a tagged command.
    Tagged { client: u64, seq: u64 },
    /// The content digest of an untagged one.
    Untagged(Digest),
}

impl CommandId {
    /// Names `cmd`. The digest comes from the value's memo, so a command the
    /// protocol layer already digested is not hashed again.
    pub(crate) fn of(cmd: &Value) -> Self {
        match parse_client_tag(cmd) {
            Some((client, seq)) => CommandId::Tagged { client, seq },
            None => CommandId::Untagged(*fastbft_crypto::value_digest(cmd)),
        }
    }
}

/// One client's applied sequence numbers: everything `<= watermark`, plus
/// `above`.
#[derive(Debug, Default, PartialEq)]
struct ClientWindow {
    watermark: u64,
    above: BTreeSet<u64>,
}

/// The commands already executed. See the [module docs](self).
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Dedup {
    clients: HashMap<u64, ClientWindow>,
    /// Untagged digests applied since the last rotation.
    current: HashSet<Digest>,
    /// Those of the rotation before (dropped at the next).
    previous: HashSet<Digest>,
}

impl Dedup {
    /// Whether the command named `id` was already executed.
    pub(crate) fn contains(&self, id: &CommandId) -> bool {
        match id {
            CommandId::Tagged { client, seq } => self
                .clients
                .get(client)
                .is_some_and(|w| *seq <= w.watermark || w.above.contains(seq)),
            CommandId::Untagged(digest) => {
                self.current.contains(digest) || self.previous.contains(digest)
            }
        }
    }

    /// Records the command named `id` as executed; `false`, and nothing
    /// changes, if it already was. A tagged one advances its client's
    /// watermark over the now contiguous prefix, pruning every entry the
    /// watermark overtakes.
    pub(crate) fn insert(&mut self, id: CommandId) -> bool {
        match id {
            CommandId::Tagged { client, seq } => {
                let window = self.clients.entry(client).or_default();
                if seq <= window.watermark || !window.above.insert(seq) {
                    return false;
                }
                while window.above.remove(&(window.watermark + 1)) {
                    window.watermark += 1;
                }
                true
            }
            CommandId::Untagged(digest) => {
                !self.previous.contains(&digest) && self.current.insert(digest)
            }
        }
    }

    /// Ages the untagged generations by one: the previous one is dropped,
    /// the current one becomes the previous. Tagged state is untouched.
    pub(crate) fn rotate(&mut self) {
        self.previous = mem::take(&mut self.current);
    }

    /// Entries held: untagged digests of both generations plus
    /// above-watermark sequence numbers across clients.
    pub(crate) fn entries(&self) -> usize {
        let above: usize = self.clients.values().map(|w| w.above.len()).sum();
        self.current.len() + self.previous.len() + above
    }
}

impl Encode for Dedup {
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut digests: Vec<Digest> = self.current.iter().chain(&self.previous).copied().collect();
        digests.sort_unstable();
        digests.encode(buf);
        let mut clients: Vec<(&u64, &ClientWindow)> = self.clients.iter().collect();
        clients.sort_unstable_by_key(|(client, _)| **client);
        (clients.len() as u32).encode(buf);
        for (client, window) in clients {
            client.encode(buf);
            window.watermark.encode(buf);
            (window.above.len() as u32).encode(buf);
            for seq in &window.above {
                seq.encode(buf);
            }
        }
    }
}

/// Whether `items` is strictly ascending — the one order an encoder emits.
fn ascending<T: Ord>(items: &[T]) -> bool {
    items.windows(2).all(|pair| pair[0] < pair[1])
}

impl Decode for Dedup {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let digests = Vec::<Digest>::decode(r)?;
        if !ascending(&digests) {
            return Err(WireError::Invalid("dedup digests not ascending"));
        }
        let mut clients = HashMap::new();
        let mut last = None;
        for _ in 0..r.take_len()? {
            let client = u64::decode(r)?;
            let watermark = u64::decode(r)?;
            let above = Vec::<u64>::decode(r)?;
            if last.replace(client) >= Some(client) || !ascending(&above) {
                return Err(WireError::Invalid("dedup clients not ascending"));
            }
            let above = above.into_iter().collect();
            clients.insert(client, ClientWindow { watermark, above });
        }
        Ok(Dedup {
            clients,
            current: HashSet::new(),
            previous: digests.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::tag_command;
    use fastbft_types::wire::{from_bytes, to_bytes};
    use proptest::prelude::*;

    fn untagged(i: u16) -> CommandId {
        CommandId::of(&Value::new(i.to_be_bytes().to_vec()))
    }

    fn tagged(client: u64, seq: u64) -> CommandId {
        CommandId::of(&tag_command(client, seq, b"body"))
    }

    /// One step of a generated history: a tagged or an untagged command,
    /// from a small alphabet so duplicates and gaps both occur.
    fn command((kind, client, seq): (u8, u8, u8)) -> CommandId {
        if kind % 2 == 0 {
            tagged(u64::from(client % 3), u64::from(seq % 12) + 1)
        } else {
            untagged(u16::from(seq))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// A snapshot's dedup bytes decode to the state that wrote them and
        /// re-encode to themselves, wherever in a history of commands and
        /// rotations the snapshot falls.
        #[test]
        fn decode_inverts_encode_at_every_rotation(
            history in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..96),
        ) {
            let mut dedup = Dedup::default();
            for step in history {
                if step.0 % 8 == 7 {
                    dedup.rotate();
                    let bytes = to_bytes(&dedup);
                    let decoded: Dedup = from_bytes(&bytes).expect("canonical bytes decode");
                    prop_assert_eq!(&decoded, &dedup);
                    prop_assert_eq!(to_bytes(&decoded), bytes);
                } else {
                    let id = command(step);
                    let fresh = !dedup.contains(&id);
                    prop_assert_eq!(dedup.insert(id), fresh);
                    prop_assert!(dedup.contains(&id) && !dedup.insert(id));
                }
            }
        }

        /// The bytes are a function of the set of commands applied, not of
        /// the order they were applied in.
        #[test]
        fn encoding_ignores_insertion_order(
            cmds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..64),
            rotation in any::<usize>(),
        ) {
            let mut forward = Dedup::default();
            let mut shuffled = Dedup::default();
            for step in &cmds {
                forward.insert(command(*step));
            }
            let at = rotation % (cmds.len() + 1);
            for step in cmds[at..].iter().chain(&cmds[..at]).rev() {
                shuffled.insert(command(*step));
            }
            prop_assert_eq!(to_bytes(&forward), to_bytes(&shuffled));
            prop_assert_eq!(forward.entries(), shuffled.entries());
        }
    }

    #[test]
    fn decode_refuses_what_no_encoder_writes() {
        let mut dedup = Dedup::default();
        for id in [
            untagged(1),
            untagged(2),
            tagged(4, 3),
            tagged(4, 5),
            tagged(9, 2),
        ] {
            dedup.insert(id);
        }
        let bytes = to_bytes(&dedup);
        assert!(from_bytes::<Dedup>(&bytes).is_ok());
        // Layout: u32 2, two digests; u32 2, then per client id, watermark,
        // u32 count, seqs. Swap the digests, the clients' ids, p4's seqs.
        let swap = |a: usize, b: usize, len: usize| {
            let mut bytes = bytes.clone();
            let (head, tail) = bytes.split_at_mut(b);
            head[a..a + len].swap_with_slice(&mut tail[..len]);
            bytes
        };
        let clients = 4 + 64 + 4;
        for (what, mutant) in [
            ("digests", swap(4, 36, 32)),
            ("clients", swap(clients, clients + 36, 8)),
            ("seqs", swap(clients + 20, clients + 28, 8)),
        ] {
            assert!(
                matches!(from_bytes::<Dedup>(&mutant), Err(WireError::Invalid(_))),
                "{what} out of order"
            );
        }
    }

    #[test]
    fn the_untagged_window_is_exactly_two_rotations() {
        let mut dedup = Dedup::default();
        dedup.insert(untagged(7));
        assert!(dedup.contains(&untagged(7)));
        dedup.rotate();
        dedup.insert(untagged(8));
        assert!(dedup.contains(&untagged(7)) && dedup.contains(&untagged(8)));
        assert_eq!(dedup.entries(), 2);
        dedup.rotate();
        assert!(!dedup.contains(&untagged(7)), "aged out at the second");
        assert!(dedup.contains(&untagged(8)));
        dedup.rotate();
        assert_eq!(dedup.entries(), 0);
        // Tagged state does not rotate.
        dedup.insert(tagged(1, 1));
        dedup.rotate();
        dedup.rotate();
        assert!(dedup.contains(&tagged(1, 1)));
    }

    #[test]
    fn the_watermark_prunes_an_eventually_contiguous_client_to_nothing() {
        let mut dedup = Dedup::default();
        // 2..=40 in a scrambled order, then the 1 that closes the gap.
        let mut held = 0;
        for i in 0..39u64 {
            let seq = 2 + (i * 7) % 39;
            assert!(!dedup.contains(&tagged(5, seq)));
            dedup.insert(tagged(5, seq));
            held += 1;
            assert_eq!(dedup.entries(), held, "nothing contiguous yet");
        }
        dedup.insert(tagged(5, 1));
        assert_eq!(dedup.entries(), 0);
        assert!((1..=40).all(|seq| dedup.contains(&tagged(5, seq))));
        assert!(!dedup.contains(&tagged(5, 41)));
        assert!(!dedup.contains(&tagged(6, 1)), "another client's numbers");
    }

    #[test]
    fn a_tagged_and_an_untagged_command_never_alias() {
        let body = Value::new(b"body".to_vec());
        let framed = tag_command(7, 1, b"body");
        let mut dedup = Dedup::default();
        dedup.insert(CommandId::of(&framed));
        assert!(!dedup.contains(&CommandId::of(&body)));
        dedup.insert(CommandId::of(&body));
        assert!(!dedup.contains(&tagged(7, 2)));
        // Same tag, another body: the same command as far as dedup goes.
        assert!(dedup.contains(&CommandId::of(&tag_command(7, 1, b"other"))));
        // Too short to hold a tag: untagged, named by its bytes.
        let short = Value::new(b"FBC1short".to_vec());
        assert!(matches!(CommandId::of(&short), CommandId::Untagged(_)));
        assert_eq!(dedup.entries(), 1, "one digest; (7, 1) is a watermark");
    }
}
