//! Property tests for frame coalescing: `k` messages packed by the writer
//! path (batch payload → one MAC → one appended frame, frames concatenated
//! into one write buffer) must read back as exactly the same `k` messages,
//! across frame boundaries and mixed batch sizes.

use std::io::Cursor;

use fastbft_crypto::session::{SessionMac, SessionVerifier};
use fastbft_crypto::KeyDirectory;
use fastbft_net::frame::{
    append_frame, decode_batch_payload, encode_batch_payload, read_msg, Frame,
};
use fastbft_sim::check;
use fastbft_types::wire::to_bytes;
use fastbft_types::{ProcessId, Value};

/// encode → decode of a batch payload is the identity, through a dirty
/// reused scratch buffer.
#[test]
fn batch_payload_roundtrips() {
    check("batch_payload_roundtrips", 64, |c| {
        let msgs = c.vec(0..32, |c| c.bytes(0..128));
        let values: Vec<Value> = msgs.iter().map(|m| Value::new(m.clone())).collect();
        let encoded: Vec<Vec<u8>> = values.iter().map(to_bytes).collect();
        let mut payload = c.bytes(0..32); // reused scratch starts dirty
        encode_batch_payload(&mut payload, &encoded);
        let back: Vec<Value> = decode_batch_payload(&payload).unwrap();
        assert_eq!(back, values);
    });
}

/// The full writer-drain shape: several frames (each carrying a batch,
/// each MAC'd once) appended into ONE write buffer; the reader side
/// (frame reader + session verifier + batch decoder) recovers exactly
/// the original message sequence, in order.
#[test]
fn coalesced_frames_decode_to_the_same_messages() {
    check("coalesced_frames_decode_to_the_same_messages", 64, |c| {
        let batches = c.vec(1..8, |c| c.vec(1..8, |c| c.bytes(0..64)));
        let (pairs, dir) = KeyDirectory::generate(2, 5);
        let mut mac = SessionMac::new(pairs[0].clone(), 77);
        let mut verifier = SessionVerifier::new(dir, pairs[0].id(), 77);

        let all_values: Vec<Value> = batches
            .iter()
            .flatten()
            .map(|m| Value::new(m.clone()))
            .collect();

        // Writer side: one buffer, one frame per batch, one MAC per frame.
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        for batch in &batches {
            let encoded: Vec<Vec<u8>> = batch
                .iter()
                .map(|m| to_bytes(&Value::new(m.clone())))
                .collect();
            encode_batch_payload(&mut payload, &encoded);
            let (seq, tag) = mac.tag_next(&payload);
            append_frame(&mut wire, ProcessId(1), seq, &payload, &tag).unwrap();
        }

        // Reader side: sequential frames off one stream.
        let mut r = Cursor::new(wire);
        let mut recovered: Vec<Value> = Vec::new();
        while let Some(frame) = read_msg::<Frame>(&mut r).unwrap() {
            assert_eq!(frame.sender, ProcessId(1));
            verifier
                .verify(frame.seq, &frame.payload, &frame.mac)
                .unwrap();
            recovered.extend(decode_batch_payload::<Value>(&frame.payload).unwrap());
        }
        assert_eq!(recovered, all_values);
    });
}

/// Tampering with any byte of the coalesced buffer kills the MAC (or
/// the framing) — never yields a different accepted message.
#[test]
fn tampered_coalesced_frames_never_verify() {
    check("tampered_coalesced_frames_never_verify", 64, |c| {
        let msgs = c.vec(1..4, |c| c.bytes(1..32));
        let (flip_pos, flip_xor) = (c.int::<u64>(..), c.int::<u8>(..));
        let (pairs, dir) = KeyDirectory::generate(2, 6);
        let mut mac = SessionMac::new(pairs[0].clone(), 9);
        let encoded: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| to_bytes(&Value::new(m.clone())))
            .collect();
        let mut payload = Vec::new();
        encode_batch_payload(&mut payload, &encoded);
        let (seq, tag) = mac.tag_next(&payload);
        let mut wire = Vec::new();
        append_frame(&mut wire, ProcessId(1), seq, &payload, &tag).unwrap();

        let pos = (flip_pos as usize) % wire.len();
        let xor = if flip_xor == 0 { 1 } else { flip_xor };
        wire[pos] ^= xor;

        let mut verifier = SessionVerifier::new(dir, pairs[0].id(), 9);
        let mut r = Cursor::new(wire);
        // Either the frame no longer parses, or the MAC/sender check fails;
        // under no flip does a *different* payload get accepted.
        if let Ok(Some(frame)) = read_msg::<Frame>(&mut r) {
            if frame.sender == ProcessId(1)
                && verifier
                    .verify(frame.seq, &frame.payload, &frame.mac)
                    .is_ok()
            {
                assert_eq!(
                    &frame.payload, &payload,
                    "accepted frame must be the original"
                );
            }
        }
    });
}
