//! The `(client, seq)` command tag: how a client names a command so the
//! replicated log executes it at most once (see [`tag_command`]).

use fastbft_types::Value;

/// Magic prefix marking a client-tagged command (see [`tag_command`]).
const CLIENT_TAG_MAGIC: &[u8; 4] = b"FBC1";

/// Bytes [`tag_command`] puts in front of a body: magic, client, seq.
const TAG_LEN: usize = 4 + 8 + 8;

/// Encodes a client command as `(client id, sequence number, body)` — the
/// structured form of "clients tag id+seq for repeats" from the at-most-once
/// semantics. Tagged commands are deduplicated by `(client, seq)` with a
/// per-client **watermark**, so the dedup state a node keeps for a client is
/// bounded by that client's out-of-order window instead of growing with the
/// log (untagged commands fall back to the content-digest generations).
///
/// Sequence numbers start at 1; a client reusing a `(client, seq)` pair for
/// a different body has only itself to hurt (the second body is treated as
/// a duplicate — deterministically, on every replica).
///
/// **Trust model.** The tag is plain bytes inside an opaque command, so a
/// `(client, seq)` identity is only as trustworthy as the proposals that
/// carry it: a Byzantine leader that commits a *forged* body under some
/// `(client, seq)` consumes that identity, and the client's real command
/// with the same pair will dedup against it (deterministically, on every
/// replica — safety is unaffected, but that client's command is censored).
/// Digest dedup did not grant that power, at the cost of unbounded state.
/// The standard remedy — clients *sign* tagged commands and replicas
/// propose only verified ones — needs per-client keys, which this
/// workspace's cluster-only key directory does not model yet; until then,
/// tag commands only where proposers are trusted or censorship of a
/// specific `(client, seq)` is acceptable, and use untagged commands
/// otherwise.
pub fn tag_command(client: u64, seq: u64, body: &[u8]) -> Value {
    let mut bytes = Vec::with_capacity(TAG_LEN + body.len());
    bytes.extend_from_slice(CLIENT_TAG_MAGIC);
    bytes.extend_from_slice(&client.to_be_bytes());
    bytes.extend_from_slice(&seq.to_be_bytes());
    bytes.extend_from_slice(body);
    Value::new(bytes)
}

/// Parses a command produced by [`tag_command`], returning its
/// `(client, seq)` identity. `None` for untagged (plain) commands.
pub fn parse_client_tag(cmd: &Value) -> Option<(u64, u64)> {
    let bytes = cmd.as_bytes();
    if bytes.len() < TAG_LEN || &bytes[..4] != CLIENT_TAG_MAGIC {
        return None;
    }
    let client = u64::from_be_bytes(bytes[4..12].try_into().expect("sized slice"));
    let seq = u64::from_be_bytes(bytes[12..TAG_LEN].try_into().expect("sized slice"));
    Some((client, seq))
}

/// The application command inside `cmd`: the bytes after the
/// `(client, seq)` tag of a [`tag_command`]-framed command, all of them for
/// an untagged one. A state machine fed tagged commands decodes this.
pub fn command_body(cmd: &Value) -> &[u8] {
    let bytes = cmd.as_bytes();
    match parse_client_tag(cmd) {
        Some(_) => &bytes[TAG_LEN..],
        None => bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_is_what_was_tagged() {
        let tagged = tag_command(7, 42, b"payload");
        assert_eq!(parse_client_tag(&tagged), Some((7, 42)));
        assert_eq!(command_body(&tagged), b"payload");
        assert_eq!(command_body(&tag_command(7, 43, b"")), b"");
        // Untagged (including too short to hold a tag): the whole value.
        let plain = Value::new(b"FBC1short".to_vec());
        assert_eq!(parse_client_tag(&plain), None);
        assert_eq!(command_body(&plain), b"FBC1short");
    }
}
