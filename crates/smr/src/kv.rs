//! A replicated key-value store: the canonical state machine.

use std::collections::BTreeMap;

use fastbft_types::wire::Encode;
use fastbft_types::Value;

use crate::machine::StateMachine;
use crate::tag::command_body;

/// Commands understood by the [`KvStore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvCommand {
    /// Insert or overwrite a key.
    Put {
        /// Key.
        key: String,
        /// Value.
        value: String,
    },
    /// Read a key (a command so reads are linearized through the log).
    Get {
        /// Key.
        key: String,
    },
    /// Remove a key.
    Delete {
        /// Key.
        key: String,
    },
    /// Do nothing: a command like any other, applied at most once.
    Noop,
}

impl KvCommand {
    /// Encodes the command into a consensus [`Value`].
    pub fn to_value(&self) -> Value {
        Value::new(self.to_wire_bytes())
    }

    /// Decodes a command from a decided [`Value`]; `None` for garbage.
    pub fn from_value(value: &Value) -> Option<KvCommand> {
        fastbft_types::wire::from_bytes(value.as_bytes()).ok()
    }
}

fastbft_types::impl_wire_enum!(KvCommand {
    1 => Put { key, value },
    2 => Get { key },
    3 => Delete { key },
    4 => Noop,
});

/// Output of applying one command to the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOutput {
    /// Result of a `Get` / previous value for `Put` and `Delete`.
    Value(Option<String>),
    /// The command was a no-op or unparseable (applied as no-op).
    Noop,
}

/// One `(key, value)` pair of a [`KvStore`] snapshot (the canonical
/// snapshot encoding is the sorted pair list the `BTreeMap` iterates;
/// `snapshot` writes those bytes without building the list).
#[derive(Debug, PartialEq)]
struct KvPair {
    key: String,
    value: String,
}

fastbft_types::impl_wire_struct!(KvPair { key, value });

/// An in-memory ordered key-value store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<String, String>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct read access (for assertions; real reads go through the log).
    pub fn get(&self, key: &str) -> Option<&String> {
        self.map.get(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A digest of the full state, for replica-equality assertions.
    pub fn state_digest(&self) -> fastbft_crypto::Digest {
        let mut hasher = fastbft_crypto::sha256::Sha256::new();
        for (k, v) in &self.map {
            hasher.update(k.as_bytes());
            hasher.update(&[0]);
            hasher.update(v.as_bytes());
            hasher.update(&[1]);
        }
        hasher.finalize()
    }
}

impl StateMachine for KvStore {
    type Output = KvOutput;

    fn apply(&mut self, command: &Value) -> KvOutput {
        // A client-tagged command carries its `(client, seq)` identity in
        // front of the encoded `KvCommand`; the identity is the dedup
        // layer's business, the store executes the body.
        match fastbft_types::wire::from_bytes(command_body(command)) {
            Ok(KvCommand::Put { key, value }) => KvOutput::Value(self.map.insert(key, value)),
            Ok(KvCommand::Get { key }) => KvOutput::Value(self.map.get(&key).cloned()),
            Ok(KvCommand::Delete { key }) => KvOutput::Value(self.map.remove(&key)),
            Ok(KvCommand::Noop) | Err(_) => KvOutput::Noop,
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        // The bytes of `Vec<KvPair>` over the sorted map — canonical because
        // BTreeMap iteration is — written straight from the map: a `u32`
        // count, then each key and value length-prefixed.
        let len: usize = self.map.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
        let mut buf = Vec::with_capacity(4 + len);
        (self.map.len() as u32).encode(&mut buf);
        for (key, value) in &self.map {
            key.encode(&mut buf);
            value.encode(&mut buf);
        }
        buf
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        // Fully parse before touching `self.map`: a malformed snapshot must
        // leave the store unchanged (the trait's atomicity contract).
        let Ok(pairs) = fastbft_types::wire::from_bytes::<Vec<KvPair>>(bytes) else {
            return false;
        };
        self.map = pairs.into_iter().map(|p| (p.key, p.value)).collect();
        true
    }

    fn state_digest(&self) -> fastbft_crypto::Digest {
        KvStore::state_digest(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_roundtrip() {
        for cmd in [
            KvCommand::Put {
                key: "k".into(),
                value: "v".into(),
            },
            KvCommand::Get { key: "k".into() },
            KvCommand::Delete { key: "k".into() },
            KvCommand::Noop,
        ] {
            let v = cmd.to_value();
            assert_eq!(KvCommand::from_value(&v), Some(cmd));
        }
    }

    #[test]
    fn garbage_is_noop() {
        let mut store = KvStore::new();
        assert_eq!(store.apply(&Value::from_u64(0xDEAD)), KvOutput::Noop);
        assert!(store.is_empty());
    }

    #[test]
    fn tagged_commands_execute_their_body() {
        use crate::tag::tag_command;
        let put = KvCommand::Put {
            key: "a".into(),
            value: "1".into(),
        };
        let mut tagged = KvStore::new();
        let mut plain = KvStore::new();
        let framed = tag_command(7, 1, put.to_value().as_bytes());
        assert_eq!(tagged.apply(&framed), KvOutput::Value(None));
        assert_eq!(plain.apply(&put.to_value()), KvOutput::Value(None));
        assert_eq!(tagged.get("a"), Some(&"1".to_string()));
        assert_eq!(tagged.state_digest(), plain.state_digest());
        // A tag in front of garbage is still a no-op.
        assert_eq!(tagged.apply(&tag_command(7, 2, b"junk")), KvOutput::Noop);
        assert_eq!(tagged.len(), 1);
    }

    #[test]
    fn put_get_delete() {
        let mut store = KvStore::new();
        let put = KvCommand::Put {
            key: "a".into(),
            value: "1".into(),
        }
        .to_value();
        assert_eq!(store.apply(&put), KvOutput::Value(None));
        let get = KvCommand::Get { key: "a".into() }.to_value();
        assert_eq!(store.apply(&get), KvOutput::Value(Some("1".into())));
        let del = KvCommand::Delete { key: "a".into() }.to_value();
        assert_eq!(store.apply(&del), KvOutput::Value(Some("1".into())));
        assert!(store.is_empty());
    }

    #[test]
    fn digest_tracks_state() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        assert_eq!(a.state_digest(), b.state_digest());
        a.apply(
            &KvCommand::Put {
                key: "x".into(),
                value: "1".into(),
            }
            .to_value(),
        );
        assert_ne!(a.state_digest(), b.state_digest());
        b.apply(
            &KvCommand::Put {
                key: "x".into(),
                value: "1".into(),
            }
            .to_value(),
        );
        assert_eq!(a.state_digest(), b.state_digest());
    }
}
