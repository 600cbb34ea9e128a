//! The correctness oracle: every run, traced or not, checks what the
//! replicas report against what a replicated log must guarantee.
//!
//! * per log index, every replica that reports it reports the same command;
//! * each replica reports strictly increasing indexes;
//! * no `(client, seq)` is applied twice at a replica;
//! * every applied command is one the generator submitted;
//! * after the final quiesce no committed command is missing from a live
//!   replica (checked by the load generator, reported here);
//! * after shutdown every live replica's `state_digest()` equals that of a
//!   model store fed the log in index order.
//!
//! Bookkeeping is bounded: an index is forgotten once every live replica
//! has reported it, and per-client sequence sets collapse into a
//! watermark.

use std::collections::{BTreeSet, HashMap};

use fastbft_crypto::Digest;
use fastbft_smr::{parse_client_tag, KvOutput, KvStore, StateMachine};
use fastbft_types::Value;

/// Bytes `tag_command` puts in front of a command body.
const TAG_LEN: usize = 4 + 8 + 8;

/// `KvStore` for tagged commands. `KvStore::apply` decodes the whole value
/// as a `KvCommand`, so a `tag_command`-framed `Put` is a no-op to it; this
/// adapter strips the `(client, seq)` tag first, which is what any
/// application combining the two has to do. It is the state machine of
/// every benchmark cluster and of the oracle's model.
#[derive(Clone, Debug, Default)]
pub struct TaggedKv(KvStore);

impl StateMachine for TaggedKv {
    type Output = KvOutput;

    fn apply(&mut self, command: &Value) -> KvOutput {
        match parse_client_tag(command) {
            Some(_) => self
                .0
                .apply(&Value::new(command.as_bytes()[TAG_LEN..].to_vec())),
            None => self.0.apply(command),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        self.0.restore(bytes)
    }

    fn state_digest(&self) -> Digest {
        self.0.state_digest()
    }
}

impl TaggedKv {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A set of sequence numbers that are eventually contiguous from 1: a
/// watermark plus the few seen above it.
#[derive(Debug, Default)]
struct SeqSet {
    watermark: u64,
    above: BTreeSet<u64>,
}

impl SeqSet {
    /// Inserts `seq`; `false` if it was already present.
    fn insert(&mut self, seq: u64) -> bool {
        if seq <= self.watermark || !self.above.insert(seq) {
            return false;
        }
        while self.above.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        true
    }
}

pub struct Oracle {
    live: usize,
    /// Per log index still awaited from some live replica: the command its
    /// first reporter gave, and how many replicas have reported it.
    indexes: HashMap<u64, (Value, usize)>,
    last_index: Vec<Option<u64>>,
    applied: Vec<HashMap<u64, SeqSet>>,
    model: TaggedKv,
    violations: Vec<String>,
    /// Most indexes tracked at once — shows the bookkeeping stays bounded.
    pub peak_tracked: usize,
    /// `Applied` events observed.
    pub events: u64,
}

impl Oracle {
    pub fn new(n: usize, live: usize) -> Self {
        Oracle {
            live,
            indexes: HashMap::new(),
            last_index: vec![None; n],
            applied: (0..n).map(|_| HashMap::new()).collect(),
            model: TaggedKv::default(),
            violations: Vec::new(),
            peak_tracked: 0,
            events: 0,
        }
    }

    pub fn violation(&mut self, what: String) {
        // The first few tell the story; a broken run can produce millions.
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// One `Applied` event: replica (0-based seat), log index, command, and
    /// its `(client, seq)` tag if it has one.
    pub fn observe(
        &mut self,
        replica: usize,
        index: u64,
        command: &Value,
        tag: Option<(u64, u64)>,
    ) {
        self.events += 1;
        if self.last_index[replica].is_some_and(|last| index <= last) {
            self.violation(format!(
                "p{} reported index {index} after index {}",
                replica + 1,
                self.last_index[replica].unwrap_or(0)
            ));
            return;
        }
        self.last_index[replica] = Some(index);

        match self.indexes.get_mut(&index) {
            None => {
                self.model.apply(command);
                if self.live > 1 {
                    self.indexes.insert(index, (command.clone(), 1));
                    self.peak_tracked = self.peak_tracked.max(self.indexes.len());
                }
            }
            Some((first, count)) => {
                let agrees = first == command;
                *count += 1;
                if *count == self.live {
                    self.indexes.remove(&index);
                }
                if !agrees {
                    self.violation(format!(
                        "log divergence at index {index}: p{} disagrees with the first reporter",
                        replica + 1
                    ));
                }
            }
        }

        if let Some((client, seq)) = tag {
            if !self.applied[replica].entry(client).or_default().insert(seq) {
                self.violation(format!(
                    "p{} applied (client {client}, seq {seq}) twice",
                    replica + 1
                ));
            }
        }
    }

    /// Whether every live replica last reported the same log index. Indexes
    /// are positions in the one agreed log, so equal ends mean equal
    /// prefixes — however a replica got there (a replica that installed a
    /// snapshot skips the events the snapshot covers).
    pub fn converged(&self) -> bool {
        let live = &self.last_index[..self.live];
        live.windows(2).all(|w| w[0] == w[1])
    }

    /// Indexes some live replica has not reported yet.
    #[cfg(test)]
    pub fn tracked(&self) -> usize {
        self.indexes.len()
    }

    /// After shutdown: every live replica's digest must equal the model's.
    pub fn check_digests(&mut self, digests: &[Digest]) {
        let expected = self.model.state_digest();
        for (i, d) in digests.iter().enumerate() {
            if *d != expected {
                self.violation(format!(
                    "p{}'s state digest differs from the model fed the same log",
                    i + 1
                ));
            }
        }
    }

    /// Keys the model store ended with (a sanity figure for the report).
    pub fn model_keys(&self) -> usize {
        self.model.len()
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_smr::{tag_command, KvCommand};

    fn put(client: u64, seq: u64, key: &str, value: &str) -> Value {
        let body = KvCommand::Put {
            key: key.into(),
            value: value.into(),
        }
        .to_value();
        tag_command(client, seq, body.as_bytes())
    }

    fn observe(o: &mut Oracle, replica: usize, index: u64, cmd: &Value) {
        o.observe(replica, index, cmd, parse_client_tag(cmd));
    }

    #[test]
    fn tagged_puts_reach_the_store() {
        let mut kv = TaggedKv::default();
        let empty = kv.state_digest();
        kv.apply(&put(1, 1, "a", "x"));
        assert_eq!(kv.len(), 1);
        assert_ne!(kv.state_digest(), empty);
        // The shipped store alone treats the same bytes as a no-op — the
        // reason this adapter exists.
        let mut plain = KvStore::new();
        plain.apply(&put(1, 1, "a", "x"));
        assert!(plain.is_empty());
    }

    #[test]
    fn agreeing_replicas_pass_and_bookkeeping_is_evicted() {
        let mut o = Oracle::new(4, 3);
        for index in 0..100u64 {
            let cmd = put(index % 5, index / 5 + 1, "k", &index.to_string());
            for replica in 0..3 {
                observe(&mut o, replica, index, &cmd);
            }
        }
        assert!(o.violations().is_empty(), "{:?}", o.violations());
        assert_eq!(o.tracked(), 0);
        assert_eq!(o.peak_tracked, 1);
        let mut model = TaggedKv::default();
        model.apply(&put(4, 20, "k", "99"));
        o.check_digests(&[model.state_digest(); 3]);
        assert!(o.violations().is_empty());
        o.check_digests(&[TaggedKv::default().state_digest()]);
        assert_eq!(o.violations().len(), 1);
    }

    #[test]
    fn divergence_duplicates_and_reordering_are_caught() {
        let mut o = Oracle::new(2, 2);
        observe(&mut o, 0, 0, &put(1, 1, "a", "x"));
        observe(&mut o, 1, 0, &put(1, 1, "a", "y"));
        assert!(o.violations()[0].contains("divergence"));

        let mut o = Oracle::new(2, 2);
        observe(&mut o, 0, 0, &put(1, 1, "a", "x"));
        observe(&mut o, 0, 1, &put(1, 1, "a", "x"));
        assert!(o.violations()[0].contains("twice"));

        let mut o = Oracle::new(2, 2);
        observe(&mut o, 0, 5, &put(1, 1, "a", "x"));
        observe(&mut o, 0, 5, &put(1, 2, "a", "x"));
        assert!(o.violations()[0].contains("after index"));
    }

    #[test]
    fn seq_sets_collapse_into_a_watermark() {
        let mut s = SeqSet::default();
        assert!(s.insert(2));
        assert!(s.insert(3));
        assert_eq!((s.watermark, s.above.len()), (0, 2));
        assert!(s.insert(1));
        assert_eq!((s.watermark, s.above.len()), (3, 0));
        assert!(!s.insert(2));
    }
}
