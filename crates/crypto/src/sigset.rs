//! Multi-signer signature collections.
//!
//! Progress certificates (`f + 1` CertAck signatures, §3.2) and commit
//! certificates (`⌈(n+f+1)/2⌉` ack signatures, Appendix A) are both "at
//! least `k` signatures from *distinct* processes over the same bytes".
//! [`SignatureSet`] captures that shape once.

use std::collections::BTreeMap;

use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::ProcessId;

use crate::{KeyDirectory, Signature};

/// A set of signatures by distinct signers, intended to certify a single
/// logical statement (the caller supplies the statement bytes at
/// verification time).
///
/// Duplicate signers are coalesced on insert — a Byzantine process cannot
/// inflate a certificate by signing twice.
///
/// Nothing marks a signature verified except checking it: every
/// [`verify`](SignatureSet::verify) walks every signature through the
/// directory, so a set means the same at whoever receives it, however it
/// was assembled or delivered.
///
/// ```
/// use fastbft_crypto::{KeyDirectory, SignatureSet};
///
/// let (pairs, dir) = KeyDirectory::generate(4, 1);
/// let mut set = SignatureSet::new();
/// for p in &pairs[..3] {
///     set.insert(p.sign(b"statement"));
/// }
/// assert_eq!(set.len(), 3);
/// let mut checks = 0;
/// assert!(set.verify(b"statement", &dir, 3, &mut checks));
/// assert!(!set.verify(b"statement", &dir, 4, &mut checks)); // threshold not met
/// assert_eq!(checks, 3); // one per signature walked; none below the threshold
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SignatureSet {
    sigs: BTreeMap<ProcessId, Signature>,
}

impl SignatureSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SignatureSet::default()
    }

    /// Builds a set from an iterator of signatures (later duplicates of the
    /// same signer are ignored).
    pub fn from_signatures(sigs: impl IntoIterator<Item = Signature>) -> Self {
        let mut set = SignatureSet::new();
        for s in sigs {
            set.insert(s);
        }
        set
    }

    /// Inserts a signature. Returns `true` if the signer was new.
    pub fn insert(&mut self, sig: Signature) -> bool {
        match self.sigs.entry(sig.signer) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(sig);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Number of distinct signers.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Whether `signer` contributed a signature.
    pub fn contains(&self, signer: ProcessId) -> bool {
        self.sigs.contains_key(&signer)
    }

    /// Iterator over the signers, in id order.
    pub fn signers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.sigs.keys().copied()
    }

    /// Iterator over the signatures, in signer order.
    pub fn iter(&self) -> impl Iterator<Item = &Signature> {
        self.sigs.values()
    }

    /// Verifies the certificate: at least `threshold` distinct signers, every
    /// signature valid over `statement`. Below the threshold nothing is
    /// checked; otherwise the signatures are checked in signer order up to
    /// the first invalid one, and `checks` grows by one per check that ran.
    pub fn verify(
        &self,
        statement: &[u8],
        directory: &KeyDirectory,
        threshold: usize,
        checks: &mut u64,
    ) -> bool {
        self.len() >= threshold
            && self.sigs.values().all(|sig| {
                *checks += 1;
                directory.verify(statement, sig)
            })
    }

    /// Size of the certificate on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        4 + self.len() * Signature::WIRE_SIZE
    }
}

impl FromIterator<Signature> for SignatureSet {
    fn from_iter<I: IntoIterator<Item = Signature>>(iter: I) -> Self {
        SignatureSet::from_signatures(iter)
    }
}

impl Extend<Signature> for SignatureSet {
    fn extend<I: IntoIterator<Item = Signature>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl Encode for SignatureSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.sigs.len() as u32).encode(buf);
        for sig in self.sigs.values() {
            sig.encode(buf);
        }
    }
}

impl Decode for SignatureSet {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_len()?;
        let mut set = SignatureSet::new();
        for _ in 0..len {
            let sig = Signature::decode(r)?;
            // The one order `encode` writes: a duplicate or a disordered
            // signer is not a canonical encoding of any set.
            if set
                .sigs
                .last_key_value()
                .is_some_and(|(last, _)| *last >= sig.signer)
            {
                return Err(WireError::Invalid("signers not strictly ascending"));
            }
            set.sigs.insert(sig.signer, sig);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::wire::{from_bytes, roundtrip, to_bytes};

    fn setup() -> (Vec<crate::KeyPair>, KeyDirectory) {
        KeyDirectory::generate(5, 11)
    }

    #[test]
    fn duplicate_signers_coalesce() {
        let (pairs, _) = setup();
        let mut set = SignatureSet::new();
        assert!(set.insert(pairs[0].sign(b"s")));
        assert!(!set.insert(pairs[0].sign(b"s")));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn threshold_verification() {
        let (pairs, dir) = setup();
        let set: SignatureSet = pairs.iter().take(3).map(|p| p.sign(b"s")).collect();
        assert!(set.verify(b"s", &dir, 1, &mut 0));
        assert!(set.verify(b"s", &dir, 3, &mut 0));
        assert!(!set.verify(b"s", &dir, 4, &mut 0));
        assert!(!set.verify(b"different", &dir, 3, &mut 0));
    }

    #[test]
    fn one_bad_signature_fails_whole_cert() {
        let (pairs, dir) = setup();
        let mut set: SignatureSet = pairs.iter().take(2).map(|p| p.sign(b"s")).collect();
        assert!(set.verify(b"s", &dir, 2, &mut 0));
        // p3 signs the wrong statement.
        set.insert(pairs[2].sign(b"not s"));
        assert_eq!(set.len(), 3);
        assert!(!set.verify(b"s", &dir, 3, &mut 0));
        assert!(!set.verify(b"s", &dir, 3, &mut 0), "and when asked again");
    }

    #[test]
    fn wire_roundtrip_and_size() {
        let (pairs, _) = setup();
        let set: SignatureSet = pairs.iter().map(|p| p.sign(b"s")).collect();
        roundtrip(&set);
        assert_eq!(to_bytes(&set).len(), set.wire_size());
        roundtrip(&SignatureSet::new());
    }

    #[test]
    fn decode_rejects_duplicate_signers() {
        let (pairs, _) = setup();
        let sig = pairs[0].sign(b"s");
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        sig.encode(&mut buf);
        sig.encode(&mut buf);
        assert!(matches!(
            from_bytes::<SignatureSet>(&buf),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn decode_rejects_signers_out_of_order() {
        let (pairs, _) = setup();
        let set: SignatureSet = pairs[..2].iter().map(|p| p.sign(b"s")).collect();
        let ascending = to_bytes(&set);
        assert_eq!(from_bytes::<SignatureSet>(&ascending), Ok(set));
        // The same two signatures, p2's first: what `encode` never writes.
        let (count, sigs) = ascending.split_at(4);
        let (p1, p2) = sigs.split_at(Signature::WIRE_SIZE);
        let swapped = [count, p2, p1].concat();
        assert!(matches!(
            from_bytes::<SignatureSet>(&swapped),
            Err(WireError::Invalid(_))
        ));
    }

    /// One signer's tag relabelled with five ids is five signers but not
    /// five signatures: it never verifies, cloned (what the simulator and
    /// the channel mesh deliver) or not — and an honest set is checked in
    /// full every time it is asked.
    #[test]
    fn relabelled_signatures_never_verify_before_or_after_a_clone() {
        let (pairs, dir) = setup();
        let tag = *pairs[0].sign(b"s").tag();
        let set: SignatureSet = (1..=5)
            .map(|id| Signature::from_parts(ProcessId(id), tag))
            .collect();
        assert_eq!(set.len(), 5);
        for copy in [set.clone(), set.clone().clone(), set] {
            let mut checks = 0;
            assert!(!copy.verify(b"s", &dir, 5, &mut checks));
            // p1's own tag passes; p2's relabelled copy is where it stops.
            assert_eq!(checks, 2);
            assert!(!copy.verify(b"s", &dir, 2, &mut 0), "nor a smaller quorum");
        }
        let honest: SignatureSet = pairs.iter().map(|p| p.sign(b"s")).collect();
        for copy in [honest.clone(), honest] {
            let mut checks = 0;
            assert!(copy.verify(b"s", &dir, 5, &mut checks));
            assert!(copy.verify(b"s", &dir, 5, &mut checks));
            assert_eq!(checks, 10, "a second verification is a second walk");
        }
    }

    #[test]
    fn signers_in_order() {
        let (pairs, _) = setup();
        let set: SignatureSet = [&pairs[3], &pairs[0], &pairs[2]]
            .iter()
            .map(|p| p.sign(b"s"))
            .collect();
        let signers: Vec<u32> = set.signers().map(|p| p.0).collect();
        assert_eq!(signers, vec![1, 3, 4]);
    }
}
