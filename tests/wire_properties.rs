//! Property tests for the wire codec and signed structures: round trips,
//! canonicity, and decoder robustness against arbitrary bytes.

use fastbft::core::certs::{CommitCert, ProgressCert, SignedVote, VoteData};
use fastbft::core::message::{AckMsg, CertAckMsg, Message, ProposeMsg, VoteMsg, WishMsg};
use fastbft::core::payload::propose_payload;
use fastbft::crypto::KeyDirectory;
use fastbft::obs::Metrics;
use fastbft::smr::SlotMessage;
use fastbft::types::wire::{from_bytes, to_bytes, WireError, MAX_FRAME_LEN};
use fastbft::types::{Config, Value, View};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::new)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// decode(encode(x)) == x and encode is canonical, for random values.
    #[test]
    fn value_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = Value::new(bytes);
        let encoded = to_bytes(&v);
        let decoded: Value = from_bytes(&encoded).unwrap();
        prop_assert_eq!(&decoded, &v);
        prop_assert_eq!(to_bytes(&decoded), encoded);
    }

    /// The decoder never panics on arbitrary bytes, for every message type.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = from_bytes::<Message>(&bytes);
        let _ = from_bytes::<SignedVote>(&bytes);
        let _ = from_bytes::<ProgressCert>(&bytes);
        let _ = from_bytes::<CommitCert>(&bytes);
        let _ = from_bytes::<Value>(&bytes);
        let _ = from_bytes::<View>(&bytes);
    }

    /// Messages round-trip for random payload values and views.
    #[test]
    fn message_roundtrip(value in arb_value(), view in 1u64..1000) {
        let (pairs, _) = KeyDirectory::generate(2, 1);
        let view = View(view);
        let msgs = [
            Message::Ack(AckMsg {
                value: value.clone(),
                view,
                share: None,
            }),
            // The piggybacked slow-path share (`Some` arm) is the only way
            // honest replicas transmit shares — it must round-trip too.
            Message::Ack(AckMsg {
                value: value.clone(),
                view,
                share: Some(pairs[1].sign(b"share")),
            }),
            Message::Wish(WishMsg { view }),
            Message::Propose(ProposeMsg {
                value: value.clone(),
                view,
                cert: ProgressCert::Genesis,
                sig: pairs[0].sign(b"x"),
            }),
            Message::CertAck(CertAckMsg {
                view,
                value: value.clone(),
                sig: pairs[1].sign(b"y"),
            }),
            Message::Vote(VoteMsg {
                view,
                vote: SignedVote::sign(&pairs[0], None, view),
            }),
        ];
        for msg in &msgs {
            let bytes = to_bytes(msg);
            let decoded: Message = from_bytes(&bytes).unwrap();
            prop_assert_eq!(&decoded, msg);
            prop_assert_eq!(to_bytes(&decoded), bytes);
        }
    }

    /// Tampering with any single byte of a signed vote invalidates it
    /// (or at minimum never turns an invalid vote valid in a different
    /// view) — signatures bind the full canonical encoding.
    #[test]
    fn bit_flips_break_vote_signatures(
        flip_at in 0usize..200,
        input in 0u64..1000,
    ) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(4, 5);
        let x = Value::from_u64(input);
        let vd = VoteData {
            value: x.clone(),
            view: View::FIRST,
            progress_cert: ProgressCert::Genesis,
            leader_sig: pairs[cfg.leader(View::FIRST).index()]
                .sign(&propose_payload(&x, View::FIRST)),
            commit_cert: None,
        };
        let sv = SignedVote::sign(&pairs[0], Some(vd), View(2));
        let metrics = Metrics::new();
        prop_assert!(sv.is_valid(&cfg, &dir, View(2), &metrics));

        let mut bytes = to_bytes(&sv);
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 0x01;
        // Either it no longer decodes, or it decodes to an invalid vote.
        if let Ok(tampered) = from_bytes::<SignedVote>(&bytes) {
            if tampered != sv {
                prop_assert!(
                    !tampered.is_valid(&cfg, &dir, View(2), &metrics),
                    "tampered vote accepted (flipped byte {idx})"
                );
            }
        }
    }
}

/// `levels` copies of the 22 bytes that opened one level of the
/// whole-vote-set certificate this codec once accepted under `ProgressCert`
/// tag 2 — `[SignedVote { voter, vote: Some(VoteData { value, view,
/// progress_cert: …` — after which the input simply ends.
fn nested_cert_chain(levels: usize) -> Vec<u8> {
    let mut level = vec![2u8]; // the certificate's tag
    level.extend(1u32.to_be_bytes()); // one vote
    level.extend(1u32.to_be_bytes()); // voter p1
    level.push(1); // Some(VoteData {
    level.extend(0u32.to_be_bytes()); // empty value
    level.extend(1u64.to_be_bytes()); // view 1
    assert_eq!(level.len(), 22);
    level.repeat(levels)
}

/// No wire type can contain itself: a certificate chain nested to any depth
/// the frame cap admits is refused at its first tag, in constant stack, on
/// the kind of thread the TCP reader decodes on. While tag 2 decoded, 2 000
/// levels (44 KB) overflowed that stack in a release build and aborted the
/// process.
#[test]
fn nested_certificate_chains_are_rejected_at_the_first_tag() {
    // Everything a well-formed message encodes before the certificate.
    let vote_head = [
        &1u32.to_be_bytes()[..],
        &[1],
        &0u32.to_be_bytes(),
        &1u64.to_be_bytes(),
    ]
    .concat();
    let propose = [&[1u8][..], &0u32.to_be_bytes(), &1u64.to_be_bytes()].concat();
    let vote = [&[5u8][..], &2u64.to_be_bytes(), &vote_head].concat();
    let cert_request = [
        &[6u8][..],
        &2u64.to_be_bytes(),
        &0u32.to_be_bytes(),
        &1u32.to_be_bytes(),
        &vote_head,
    ]
    .concat();
    let in_slot = [&[1u8][..], &0u64.to_be_bytes()].concat();

    for levels in [100, 2_000, 100_000, 700_000] {
        let chain = nested_cert_chain(levels);
        for head in [&propose, &vote, &cert_request] {
            let bare = [&head[..], &chain].concat();
            let slotted = [&in_slot[..], &bare].concat();
            assert!(slotted.len() <= MAX_FRAME_LEN);
            let decoded = std::thread::spawn(move || {
                (
                    from_bytes::<Message>(&bare).map(drop),
                    from_bytes::<SlotMessage>(&slotted).map(drop),
                )
            })
            .join()
            .expect("the decoding thread returns");
            let refused = Err(WireError::InvalidTag {
                tag: 2,
                context: "ProgressCert",
            });
            assert_eq!(decoded, (refused.clone(), refused), "{levels} levels");
        }
    }
}
