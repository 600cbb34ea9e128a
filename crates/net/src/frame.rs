//! The TCP wire format: length-prefixed frames and the handshake structs.
//!
//! Everything on a socket is a **frame**: a big-endian `u32` length (capped
//! at [`MAX_FRAME_LEN`] *before* any allocation) followed by that many body
//! bytes, which are the canonical [`fastbft_types::wire`] encoding of one
//! struct. Three structs travel this way:
//!
//! ```text
//! ┌──────────┬───────────────────────────────────────────────┐
//! │ u32 len  │ body (canonical wire encoding, ≤ MAX_FRAME_LEN)│
//! └──────────┴───────────────────────────────────────────────┘
//!
//! body of a data frame  = Frame    { sender, seq, payload, mac }
//! body of handshake (→) = Hello    { magic, version, sender, session, sig }
//! body of handshake (←) = HelloAck { magic, version, responder, session, nonce, sig }
//! ```
//!
//! The `payload` of a [`Frame`] is itself the canonical encoding of a
//! protocol message; `mac` is an HMAC-SHA256 session MAC over
//! `(session, seq, payload)` (see [`fastbft_crypto::session`]), which is
//! what makes the link *authenticated*: the receiver accepts a frame only
//! if the MAC verifies under the key of the peer that authenticated at
//! handshake time, so a `sender` field can never be spoofed.
//!
//! Reading is defensive by construction: oversized declared lengths are
//! rejected before allocating, truncated frames and malformed bodies are
//! errors (the caller drops the connection), and EOF exactly on a frame
//! boundary is a clean close.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use fastbft_crypto::session::{hello_preimage, HelloRole};

use fastbft_crypto::{KeyDirectory, KeyPair, Signature};
use fastbft_types::wire::{from_bytes, to_bytes, Decode, Encode, WireError, MAX_FRAME_LEN};
use fastbft_types::ProcessId;

/// Frame magic: `"FBN1"` as a big-endian `u32`. A connection that does not
/// open with a handshake carrying this value is not speaking this protocol.
pub const MAGIC: u32 = 0x4642_4E31;

/// Wire-format version. Bumped on any incompatible frame or handshake
/// change; peers with a different version are rejected at handshake.
/// Version 2 made the data-frame payload a message *batch* (`u32` count
/// followed by that many back-to-back canonical message encodings) so one
/// frame — and one session MAC — carries a writer thread's whole drain.
pub const VERSION: u16 = 2;

/// A data frame: one protocol message from an authenticated peer.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// The sending process. Must match the peer authenticated at handshake
    /// time *and* the MAC's signer — checked, not trusted.
    pub sender: ProcessId,
    /// Connection-local sequence number, strictly increasing from 1.
    pub seq: u64,
    /// The message batch: a `u32` count, then that many back-to-back
    /// canonical message encodings (see [`decode_batch_payload`]).
    pub payload: Vec<u8>,
    /// Session MAC over `(session, seq, payload)`.
    pub mac: Signature,
}
fastbft_types::impl_wire_struct!(Frame {
    sender,
    seq,
    payload,
    mac
});

/// First handshake message, dialer → listener: "I am `sender`, let us speak
/// session `session`".
#[derive(Clone, Debug, PartialEq)]
pub struct Hello {
    /// Must equal [`MAGIC`].
    pub magic: u32,
    /// Must equal [`VERSION`].
    pub version: u16,
    /// The dialing process's claimed identity.
    pub sender: ProcessId,
    /// Fresh session id chosen by the dialer; all frame MACs on this
    /// connection are bound to it.
    pub session: u64,
    /// Signature over the hello preimage — proves the dialer holds
    /// `sender`'s key.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(Hello {
    magic,
    version,
    sender,
    session,
    sig
});

/// Second handshake message, listener → dialer: the mirror-image proof of
/// the listener's identity, echoing the session id and contributing the
/// listener's freshness nonce.
#[derive(Clone, Debug, PartialEq)]
pub struct HelloAck {
    /// Must equal [`MAGIC`].
    pub magic: u32,
    /// Must equal [`VERSION`].
    pub version: u16,
    /// The accepting process's claimed identity.
    pub responder: ProcessId,
    /// Echo of the dialer's session id.
    pub session: u64,
    /// The listener's unpredictable freshness contribution. Frame MACs are
    /// bound to `mix_session(session, nonce)`, so replaying a recorded
    /// connection dies at the first frame: the fresh ack carries a new
    /// nonce and every recorded MAC stops verifying.
    pub nonce: u64,
    /// Signature over the (listener-role) hello preimage, covering both
    /// `session` and `nonce`.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(HelloAck {
    magic,
    version,
    responder,
    session,
    nonce,
    sig
});

/// Why a handshake was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandshakeError {
    /// The magic number was wrong — not this protocol.
    BadMagic {
        /// The value received.
        got: u32,
    },
    /// Incompatible wire-format version.
    BadVersion {
        /// The version received.
        got: u16,
    },
    /// The claimed identity is not a member of this cluster (or is the
    /// receiving process itself).
    UnknownPeer {
        /// The claimed process id.
        claimed: ProcessId,
    },
    /// The signature's signer differs from the claimed identity, or the
    /// signature does not verify — the peer does not hold the claimed key.
    BadSignature,
    /// The ack did not come from the process that was dialed, or echoed a
    /// different session id.
    WrongResponder,
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::BadMagic { got } => write!(f, "bad handshake magic {got:#010x}"),
            HandshakeError::BadVersion { got } => write!(f, "unsupported wire version {got}"),
            HandshakeError::UnknownPeer { claimed } => {
                write!(f, "handshake from unknown peer {claimed}")
            }
            HandshakeError::BadSignature => write!(f, "handshake signature does not verify"),
            HandshakeError::WrongResponder => {
                write!(f, "handshake ack from wrong responder or session")
            }
        }
    }
}

impl Error for HandshakeError {}

impl Hello {
    /// Builds a signed hello for `pair`'s process on session `session`.
    /// The dialer's freshness contribution *is* its session id, so the
    /// preimage nonce slot is zero.
    pub fn signed(pair: &KeyPair, session: u64) -> Hello {
        let sig = pair.sign(&hello_preimage(HelloRole::Dialer, pair.id(), session, 0));
        Hello {
            magic: MAGIC,
            version: VERSION,
            sender: pair.id(),
            session,
            sig,
        }
    }

    /// Verifies this hello as received by process `me` in a cluster whose
    /// keys are in `dir`.
    ///
    /// # Errors
    ///
    /// The first [`HandshakeError`] check that fails.
    pub fn verify(&self, dir: &KeyDirectory, me: ProcessId) -> Result<(), HandshakeError> {
        if self.magic != MAGIC {
            return Err(HandshakeError::BadMagic { got: self.magic });
        }
        if self.version != VERSION {
            return Err(HandshakeError::BadVersion { got: self.version });
        }
        let member = (1..=dir.len() as u32).contains(&self.sender.0);
        if !member || self.sender == me {
            return Err(HandshakeError::UnknownPeer {
                claimed: self.sender,
            });
        }
        let preimage = hello_preimage(HelloRole::Dialer, self.sender, self.session, 0);
        if self.sig.signer != self.sender || !dir.verify(&preimage, &self.sig) {
            return Err(HandshakeError::BadSignature);
        }
        Ok(())
    }
}

impl HelloAck {
    /// Builds a signed ack for `pair`'s process, echoing `session` and
    /// contributing the listener's freshness `nonce`.
    pub fn signed(pair: &KeyPair, session: u64, nonce: u64) -> HelloAck {
        let sig = pair.sign(&hello_preimage(
            HelloRole::Listener,
            pair.id(),
            session,
            nonce,
        ));
        HelloAck {
            magic: MAGIC,
            version: VERSION,
            responder: pair.id(),
            session,
            nonce,
            sig,
        }
    }

    /// Verifies this ack as received by the dialer that dialed `expected`
    /// on session `session`.
    ///
    /// # Errors
    ///
    /// The first [`HandshakeError`] check that fails.
    pub fn verify(
        &self,
        dir: &KeyDirectory,
        expected: ProcessId,
        session: u64,
    ) -> Result<(), HandshakeError> {
        if self.magic != MAGIC {
            return Err(HandshakeError::BadMagic { got: self.magic });
        }
        if self.version != VERSION {
            return Err(HandshakeError::BadVersion { got: self.version });
        }
        if self.responder != expected || self.session != session {
            return Err(HandshakeError::WrongResponder);
        }
        let preimage = hello_preimage(
            HelloRole::Listener,
            self.responder,
            self.session,
            self.nonce,
        );
        if self.sig.signer != self.responder || !dir.verify(&preimage, &self.sig) {
            return Err(HandshakeError::BadSignature);
        }
        Ok(())
    }
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The stream ended mid-frame (mid-length-prefix or mid-body).
    Truncated,
    /// A declared frame length exceeded [`MAX_FRAME_LEN`]; rejected before
    /// allocating.
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// The frame body was not a canonical encoding of the expected struct.
    Malformed(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized { len } => {
                write!(f, "declared frame length {len} exceeds MAX_FRAME_LEN")
            }
            FrameError::Malformed(e) => write!(f, "malformed frame body: {e}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Malformed(e)
    }
}

/// Writes one length-prefixed frame carrying `msg`'s canonical encoding.
///
/// # Errors
///
/// [`FrameError::Oversized`] if the encoding exceeds [`MAX_FRAME_LEN`]
/// (nothing is written), or [`FrameError::Io`] from the socket.
pub fn write_msg<T: Encode>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    write_body(w, &to_bytes(msg))
}

/// Writes one length-prefixed frame from a pre-encoded body — the
/// sibling of [`write_msg`] for a caller that has the encoding already.
///
/// # Errors
///
/// [`FrameError::Oversized`] if `body` exceeds [`MAX_FRAME_LEN`] (nothing
/// is written), or [`FrameError::Io`] from the socket.
pub fn write_body(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len: body.len() });
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Worst-case bytes a data frame adds around its payload: the `u32` length
/// prefix plus the encoded sender id, sequence number, payload length
/// prefix and session MAC. Used to reject oversized payloads *before* they
/// consume a sequence number (a tagged-but-unsent frame would leave a gap
/// the receiver treats as a drop).
pub const FRAME_OVERHEAD: usize = 4 + 4 + 8 + 4 + 40;

/// Appends one complete length-prefixed data frame to `buf` — the
/// coalescing building block of the send pipeline: a writer thread appends
/// every queued frame of a drain into one buffer and hands the whole thing
/// to a single `write_all` (one syscall per drain instead of per frame).
/// Byte-identical to [`write_msg`] of the same [`Frame`] (pinned by a unit
/// test), and `k` appended frames read back as the same `k` frames (pinned
/// by a property test).
///
/// # Errors
///
/// [`FrameError::Oversized`] if the frame body would exceed
/// [`MAX_FRAME_LEN`]; `buf` is left exactly as it was.
pub fn append_frame(
    buf: &mut Vec<u8>,
    sender: ProcessId,
    seq: u64,
    payload: &[u8],
    mac: &Signature,
) -> Result<(), FrameError> {
    if payload.len() + FRAME_OVERHEAD > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            len: payload.len() + FRAME_OVERHEAD,
        });
    }
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]); // length prefix, patched below
    sender.encode(buf);
    seq.encode(buf);
    payload.encode(buf);
    mac.encode(buf);
    let body_len = buf.len() - start - 4;
    if body_len > MAX_FRAME_LEN {
        buf.truncate(start);
        return Err(FrameError::Oversized { len: body_len });
    }
    buf[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
    Ok(())
}

/// Encodes a batch payload into a caller-owned scratch buffer (cleared
/// first): a `u32` count followed by the already-encoded messages back to
/// back. The sender MACs this buffer once per drain.
pub fn encode_batch_payload<B: AsRef<[u8]>>(buf: &mut Vec<u8>, msgs: &[B]) {
    buf.clear();
    (msgs.len() as u32).encode(buf);
    for msg in msgs {
        buf.extend_from_slice(msg.as_ref());
    }
}

/// Decodes a (MAC-verified) batch payload back into its messages. Strict:
/// the count is validated against the remaining bytes before any decoding
/// (every message encodes to ≥ 1 byte), and the payload must be consumed
/// exactly. Round-trip with [`encode_batch_payload`] is pinned by a
/// property test.
///
/// # Errors
///
/// A [`WireError`] if the count lies about the remaining input or any
/// message is malformed.
pub fn decode_batch_payload<M: Decode>(payload: &[u8]) -> Result<Vec<M>, WireError> {
    let mut r = fastbft_types::wire::WireReader::new(payload);
    let count = u32::decode(&mut r)? as usize;
    if count > r.remaining() {
        return Err(WireError::UnexpectedEnd {
            needed: count,
            remaining: r.remaining(),
        });
    }
    let mut msgs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        msgs.push(M::decode(&mut r)?);
    }
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(msgs)
}

/// Reads one length-prefixed frame body into a fresh buffer — see
/// [`read_frame_into`]. `Ok(None)` means the stream closed cleanly on a
/// frame boundary.
///
/// # Errors
///
/// [`FrameError`] on truncation, oversized declarations, or socket errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    // An empty buffer grows to exactly the frame's length.
    let mut body = Vec::new();
    Ok(read_frame_into(r, &mut body)?.map(|_| body))
}

/// Reads one frame and decodes its body as `T`. `Ok(None)` on clean EOF.
///
/// # Errors
///
/// [`FrameError`] on read failure or a non-canonical body.
pub fn read_msg<T: Decode>(r: &mut impl Read) -> Result<Option<T>, FrameError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Ok(Some(from_bytes(&body)?)),
    }
}

/// Reads one length-prefixed frame body into a caller-owned buffer — the
/// per-frame-allocation-free form the reader thread uses. Returns the
/// frame's body length (the frame occupies `body[..len]`), or `None` when
/// the stream closed cleanly on a frame boundary.
///
/// Partial reads are handled (the length prefix and body are both read to
/// completion or diagnosed as [`FrameError::Truncated`]); a declared length
/// above [`MAX_FRAME_LEN`] is rejected before any allocation.
///
/// The buffer is a high-water mark: it grows to the largest frame seen and
/// never shrinks, so once warm there is no per-frame zero-fill or
/// allocation even when small and large frames alternate — `read_exact`
/// overwrites exactly the `len` bytes the caller is handed.
///
/// # Errors
///
/// [`FrameError`] on truncation, oversized declarations, or socket errors.
pub fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> Result<Option<usize>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None), // clean EOF between frames
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    if body.len() < len {
        body.resize(len, 0);
    }
    r.read_exact(&mut body[..len]).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(Some(len))
}

/// A data frame decoded **in place**: `payload` borrows the body buffer
/// instead of copying into an owned `Vec` — together with
/// [`read_frame_into`], the reader thread touches each payload byte only
/// for the MAC and the message decode, with zero per-frame allocations.
#[derive(Debug, PartialEq)]
pub struct FrameRef<'a> {
    /// See [`Frame::sender`].
    pub sender: ProcessId,
    /// See [`Frame::seq`].
    pub seq: u64,
    /// The message batch, borrowed from the frame body.
    pub payload: &'a [u8],
    /// See [`Frame::mac`].
    pub mac: Signature,
}

/// Decodes a data-frame body without copying the payload (see
/// [`FrameRef`]). Strict like every decode: the body must be consumed
/// exactly.
///
/// # Errors
///
/// A [`WireError`] for truncated or non-canonical bodies.
pub fn decode_frame_borrowed(body: &[u8]) -> Result<FrameRef<'_>, WireError> {
    let mut r = fastbft_types::wire::WireReader::new(body);
    let sender = ProcessId::decode(&mut r)?;
    let seq = u64::decode(&mut r)?;
    let len = r.take_len()?;
    let payload = r.take(len)?;
    let mac = Signature::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(FrameRef {
        sender,
        seq,
        payload,
        mac,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::wire::roundtrip;

    fn keys() -> (Vec<KeyPair>, KeyDirectory) {
        KeyDirectory::generate(4, 33)
    }

    #[test]
    fn structs_roundtrip_on_the_wire() {
        let (pairs, _) = keys();
        roundtrip(&Hello::signed(&pairs[0], 7));
        roundtrip(&HelloAck::signed(&pairs[1], 7, 99));
        roundtrip(&Frame {
            sender: ProcessId(2),
            seq: 9,
            payload: vec![1, 2, 3],
            mac: pairs[1].sign(b"x"),
        });
    }

    #[test]
    fn borrowed_frame_decode_matches_owned() {
        let (pairs, _) = keys();
        let frame = Frame {
            sender: ProcessId(2),
            seq: 9,
            payload: vec![1, 2, 3],
            mac: pairs[1].sign(b"x"),
        };
        let body = to_bytes(&frame);
        let fr = decode_frame_borrowed(&body).unwrap();
        assert_eq!(fr.sender, frame.sender);
        assert_eq!(fr.seq, frame.seq);
        assert_eq!(fr.payload, frame.payload.as_slice());
        assert_eq!(fr.mac, frame.mac);
        // Trailing bytes are rejected, same as the owned decode.
        let mut extended = body.clone();
        extended.push(0);
        assert!(decode_frame_borrowed(&extended).is_err());
        // read_frame_into sees the identical body, and clean EOF after.
        let mut wire = Vec::new();
        write_msg(&mut wire, &frame).unwrap();
        let mut cur = io::Cursor::new(wire.clone());
        let mut buf = vec![0xFF; 3]; // dirty: frame bytes must be overwritten
        assert_eq!(
            read_frame_into(&mut cur, &mut buf).unwrap(),
            Some(body.len())
        );
        assert_eq!(&buf[..body.len()], &body[..]);
        assert_eq!(read_frame_into(&mut cur, &mut buf).unwrap(), None);
        // High-water buffer: an oversized dirty buffer keeps its length and
        // only the frame's span is touched.
        let mut cur = io::Cursor::new(wire);
        let mut buf = vec![0xFF; body.len() + 5];
        assert_eq!(
            read_frame_into(&mut cur, &mut buf).unwrap(),
            Some(body.len())
        );
        assert_eq!(&buf[..body.len()], &body[..]);
        assert_eq!(&buf[body.len()..], [0xFF; 5]);
    }

    #[test]
    fn write_read_roundtrip_over_a_buffer() {
        let (pairs, _) = keys();
        let hello = Hello::signed(&pairs[2], 42);
        let mut buf = Vec::new();
        write_msg(&mut buf, &hello).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_msg::<Hello>(&mut r).unwrap(), Some(hello));
        // Clean EOF after the frame.
        assert_eq!(read_msg::<Hello>(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn truncated_prefix_and_body_rejected() {
        // Two bytes of a length prefix.
        let mut r = io::Cursor::new(vec![0u8, 1]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Full prefix declaring 8 bytes, only 3 present.
        let mut bytes = 8u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    #[test]
    fn garbage_body_is_malformed_not_a_panic() {
        let mut bytes = 5u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xFF; 5]);
        let mut r = io::Cursor::new(bytes);
        assert!(matches!(
            read_msg::<Hello>(&mut r),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn hello_verifies_and_rejects_spoofing() {
        let (pairs, dir) = keys();
        let me = ProcessId(1);
        let good = Hello::signed(&pairs[2], 5);
        good.verify(&dir, me).unwrap();

        // Wrong magic / version.
        let mut h = good.clone();
        h.magic = 0xDEAD_BEEF;
        assert!(matches!(
            h.verify(&dir, me),
            Err(HandshakeError::BadMagic { .. })
        ));
        let mut h = good.clone();
        h.version = 99;
        assert!(matches!(
            h.verify(&dir, me),
            Err(HandshakeError::BadVersion { .. })
        ));

        // p3 claiming to be p2: signature binds the claimed identity.
        let mut h = good.clone();
        h.sender = ProcessId(2);
        assert_eq!(h.verify(&dir, me), Err(HandshakeError::BadSignature));

        // Not a cluster member, or the receiver itself.
        let mut h = good.clone();
        h.sender = ProcessId(9);
        assert!(matches!(
            h.verify(&dir, me),
            Err(HandshakeError::UnknownPeer { .. })
        ));
        assert!(matches!(
            good.verify(&dir, ProcessId(3)),
            Err(HandshakeError::UnknownPeer { .. })
        ));

        // Session tampering invalidates the signature.
        let mut h = good.clone();
        h.session = 6;
        assert_eq!(h.verify(&dir, me), Err(HandshakeError::BadSignature));
    }

    #[test]
    fn hello_ack_verifies_and_rejects_substitution() {
        let (pairs, dir) = keys();
        let ack = HelloAck::signed(&pairs[1], 5, 77);
        ack.verify(&dir, ProcessId(2), 5).unwrap();
        // Ack from a different process than the one dialed.
        assert_eq!(
            ack.verify(&dir, ProcessId(3), 5),
            Err(HandshakeError::WrongResponder)
        );
        // Session mismatch.
        assert_eq!(
            ack.verify(&dir, ProcessId(2), 6),
            Err(HandshakeError::WrongResponder)
        );
        // Tampering with the listener nonce invalidates the signature: the
        // freshness contribution cannot be stripped or substituted.
        let mut tampered = ack.clone();
        tampered.nonce = 78;
        assert_eq!(
            tampered.verify(&dir, ProcessId(2), 5),
            Err(HandshakeError::BadSignature)
        );
        // A dialer-role hello signature cannot be replayed as an ack.
        let hello = Hello::signed(&pairs[1], 5);
        let forged = HelloAck {
            magic: MAGIC,
            version: VERSION,
            responder: hello.sender,
            session: 5,
            nonce: 0,
            sig: hello.sig,
        };
        assert_eq!(
            forged.verify(&dir, ProcessId(2), 5),
            Err(HandshakeError::BadSignature)
        );
    }

    #[test]
    fn frame_body_from_parts_matches_struct_encoding() {
        let (pairs, _) = keys();
        let mac = pairs[0].sign(b"m");
        let payload = vec![7u8; 33];
        let body = to_bytes(&Frame {
            sender: ProcessId(3),
            seq: 12,
            payload: payload.clone(),
            mac: mac.clone(),
        });
        let mut wire = Vec::new();
        append_frame(&mut wire, ProcessId(3), 12, &payload, &mac).unwrap();
        assert_eq!(wire[..4], (body.len() as u32).to_be_bytes());
        assert_eq!(wire[4..], body);
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<Box<dyn Error>> = vec![
            Box::new(FrameError::Truncated),
            Box::new(FrameError::Oversized { len: 1 << 30 }),
            Box::new(FrameError::Io(io::Error::other("x"))),
            Box::new(FrameError::Malformed(WireError::Invalid("x"))),
            Box::new(HandshakeError::BadMagic { got: 0 }),
            Box::new(HandshakeError::BadVersion { got: 0 }),
            Box::new(HandshakeError::UnknownPeer {
                claimed: ProcessId(9),
            }),
            Box::new(HandshakeError::BadSignature),
            Box::new(HandshakeError::WrongResponder),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
