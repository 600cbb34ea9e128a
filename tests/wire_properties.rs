//! Property tests for the wire codec and signed structures: round trips,
//! canonicity, and decoder robustness against arbitrary bytes.

use std::fmt::Debug;

use fastbft::baselines::fab::{FabSignedVote, FabVoteData};
use fastbft::baselines::pbft::{PreparedCert, SignedViewChange, ViewChangeBody};
use fastbft::baselines::{FabMessage, PbftMessage};
use fastbft::core::certs::{CommitCert, ProgressCert, SignedVote, VoteData};
use fastbft::core::message::{
    AckMsg, CertAckMsg, CertRequestMsg, CommitMsg, Message, ProposeMsg, VoteMsg, WishMsg,
};
use fastbft::core::payload::propose_payload;
use fastbft::crypto::{KeyDirectory, SignatureSet};
use fastbft::obs::Metrics;
use fastbft::sim::{check, SimMessage};
use fastbft::smr::{KvCommand, SlotMessage};
use fastbft::types::wire::{from_bytes, to_bytes, Decode, Encode, WireError, MAX_FRAME_LEN};
use fastbft::types::{Config, ProcessId, Value, View};

/// Decodes `bytes` as a `T`; whatever decodes must re-encode to `bytes`.
fn canonical<T: Encode + Decode>(bytes: &[u8]) {
    if let Ok(value) = from_bytes::<T>(bytes) {
        assert_eq!(to_bytes(&value), bytes);
    }
}

/// decode(encode(x)) == x and encode is canonical, for random values.
#[test]
fn value_roundtrip() {
    check("value_roundtrip", 128, |c| {
        let v = Value::new(c.bytes(0..64));
        let encoded = to_bytes(&v);
        let decoded: Value = from_bytes(&encoded).unwrap();
        assert_eq!(&decoded, &v);
        assert_eq!(to_bytes(&decoded), encoded);
    });
}

/// The decoder never panics on arbitrary bytes, for every message type,
/// and whatever it accepts re-encodes to exactly the bytes it read.
#[test]
fn decoder_total_on_garbage() {
    check("decoder_total_on_garbage", 128, |c| {
        let bytes = c.bytes(0..256);
        canonical::<Message>(&bytes);
        canonical::<SignedVote>(&bytes);
        canonical::<ProgressCert>(&bytes);
        canonical::<CommitCert>(&bytes);
        canonical::<Value>(&bytes);
        canonical::<View>(&bytes);
        canonical::<SlotMessage>(&bytes);
        canonical::<FabMessage>(&bytes);
        canonical::<PbftMessage>(&bytes);
        canonical::<KvCommand>(&bytes);
    });
}

/// Messages round-trip for random payload values and views.
#[test]
fn message_roundtrip() {
    check("message_roundtrip", 128, |c| {
        let (value, view) = (Value::new(c.bytes(0..64)), View(c.int(1..1000u64)));
        let (pairs, _) = KeyDirectory::generate(2, 1);
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
                vote: SignedVote::sign(&pairs[0], None, view, 0),
            }),
        ];
        for msg in &msgs {
            let bytes = to_bytes(msg);
            let decoded: Message = from_bytes(&bytes).unwrap();
            assert_eq!(&decoded, msg);
            assert_eq!(to_bytes(&decoded), bytes);
        }
    });
}

/// Tampering with any single byte of a signed vote invalidates it
/// (or at minimum never turns an invalid vote valid in a different
/// view) — signatures bind the full canonical encoding.
#[test]
fn bit_flips_break_vote_signatures() {
    check("bit_flips_break_vote_signatures", 128, |c| {
        let (flip_at, input) = (c.int(0..200usize), c.int(0..1000u64));
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(4, 5);
        let x = Value::from_u64(input);
        let vd = VoteData {
            value: x.clone(),
            view: View::FIRST,
            progress_cert: ProgressCert::Genesis,
            leader_sig: pairs[cfg.leader(View::FIRST).index()].sign(&propose_payload(
                &x,
                View::FIRST,
                0,
            )),
            commit_cert: None,
        };
        let sv = SignedVote::sign(&pairs[0], Some(vd), View(2), 0);
        let metrics = Metrics::new();
        assert!(sv.is_valid(&cfg, &dir, View(2), &metrics));

        let mut bytes = to_bytes(&sv);
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 0x01;
        // Either it no longer decodes, or it decodes to an invalid vote.
        if let Ok(tampered) = from_bytes::<SignedVote>(&bytes) {
            if tampered != sv {
                assert!(
                    !tampered.is_valid(&cfg, &dir, View(2), &metrics),
                    "tampered vote accepted (flipped byte {idx})"
                );
            }
        }
    });
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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Asserts that `value` encodes to exactly the bytes `fields` spell, one
/// piece of hex per field in wire order, and decodes back to itself.
fn pinned<T: Encode + Decode + PartialEq + Debug>(value: &T, fields: &[&str]) {
    let bytes = to_bytes(value);
    assert_eq!(hex(&bytes), fields.concat(), "{value:?}");
    assert_eq!(
        &from_bytes::<T>(&bytes).expect("pinned bytes decode"),
        value
    );
}

/// Asserts that a message the simulator sizes is charged its encoding.
fn sized<T: SimMessage + Encode>(msg: &T) {
    assert_eq!(msg.wire_size(), msg.to_wire_bytes().len(), "{msg:?}");
}

/// Asserts that each of `tags`, read where an enum's tag is expected,
/// is refused with `InvalidTag { tag, context }`.
fn unassigned<T: Decode + Debug>(tags: &[u8], context: &'static str) {
    for &tag in tags {
        assert_eq!(
            from_bytes::<T>(&[tag]).map(drop),
            Err(WireError::InvalidTag { tag, context })
        );
    }
}

/// The tag table of every wire enum, byte for byte: one row per variant of
/// `Message`, `ProgressCert`, `SlotMessage`, `KvCommand`, `FabMessage` and
/// `PbftMessage`, built from the keys of one seed and pinned as hex; the
/// tags next to each range refused by name; and the simulator's size of
/// every message the encoding's length. Replicas sign encodings, so a row
/// that moves is a protocol change, not a refactoring.
#[test]
fn golden_wire_table_pins_every_enum_variant() {
    // Signer, then tag: `pairs[i].sign(b"golden")` is `SIG_P{i + 1}`.
    const SIG_P1: &str = "00000001f86625a7b76fbd8288ed4ed624ec5d1584b316cc24de5e004e4e37e9f4d8dbfb";
    const SIG_P2: &str = "000000023be8e0b6924ffaa6d0f72a3a928eece1d60d1c7a30150810ee23ac5ac8427732";
    const SIG_P3: &str = "000000039b3b666636dbc476ab47b1ed0d3d59b64fad0d8238489348c3faea54742f5bf1";
    const SIG_P4: &str = "000000049344dbff9966044e3c1eaa911f08aafbe13c66b1c2350ec7a155ba38a2bbaa6f";
    const DIGEST: &str = "d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1";
    // p2's nil vote for view 3 of instance 0: voter, `None`, its
    // signature.
    const VOTE: &str = "00000002\
                        00\
                        00000002734d4c0da54914d346984be8f5fd406bb184017f7c1630882118139e58273a8a";
    // p2's FaB vote for `x` in view 1: voter, `Some`, value, view, no
    // certificate, the leader's signature, the voter's.
    const FAB_VOTE: &str = "00000002\
                            01\
                            0000000178\
                            0000000000000001\
                            00\
                            00000001f86625a7b76fbd8288ed4ed624ec5d1584b316cc24de5e004e4e37e9f4d8dbfb\
                            000000023be8e0b6924ffaa6d0f72a3a928eece1d60d1c7a30150810ee23ac5ac8427732";
    // p3's view change to view 3: sender, new view, `Some` prepared
    // certificate (value, view 1, one signature), the sender's signature.
    const VIEW_CHANGE: &str = "00000003\
                               0000000000000003\
                               01\
                               0000000178\
                               0000000000000001\
                               00000001\
                               000000023be8e0b6924ffaa6d0f72a3a928eece1d60d1c7a30150810ee23ac5ac8427732\
                               000000039b3b666636dbc476ab47b1ed0d3d59b64fad0d8238489348c3faea54742f5bf1";

    let (pairs, _) = KeyDirectory::generate(4, 7);
    let x = Value::new(vec![0x78]);
    let v = View(3);
    let sig = |p: usize| pairs[p].sign(b"golden");
    let sigs = |ps: &[usize]| ps.iter().map(|&p| sig(p)).collect::<SignatureSet>();

    let bounded = ProgressCert::Bounded(sigs(&[1, 2]));
    pinned(&ProgressCert::Genesis, &["00"]);
    pinned(&bounded, &["01", "00000002", SIG_P2, SIG_P3]);
    unassigned::<ProgressCert>(&[2, 255], "ProgressCert");

    let vote = SignedVote::sign(&pairs[1], None, v, 0);
    let messages: [(Message, &[&str]); 7] = [
        (
            Message::Propose(ProposeMsg {
                value: x.clone(),
                view: v,
                cert: ProgressCert::Genesis,
                sig: sig(0),
            }),
            &["01", "00000001", "78", "0000000000000003", "00", SIG_P1],
        ),
        (
            Message::Ack(AckMsg {
                value: x.clone(),
                view: v,
                share: Some(sig(1)),
            }),
            &["02", "00000001", "78", "0000000000000003", "01", SIG_P2],
        ),
        (
            Message::Commit(CommitMsg {
                cert: CommitCert {
                    value: x.clone(),
                    view: v,
                    sigs: sigs(&[0, 3]),
                },
            }),
            &[
                "04",
                "00000001",
                "78",
                "0000000000000003",
                "00000002",
                SIG_P1,
                SIG_P4,
            ],
        ),
        (
            Message::Vote(VoteMsg {
                view: v,
                vote: vote.clone(),
            }),
            &["05", "0000000000000003", VOTE],
        ),
        (
            Message::CertRequest(CertRequestMsg {
                view: v,
                value: x.clone(),
                votes: vec![vote.clone()],
            }),
            &["06", "0000000000000003", "00000001", "78", "00000001", VOTE],
        ),
        (
            Message::CertAck(CertAckMsg {
                view: v,
                value: x.clone(),
                sig: sig(2),
            }),
            &["07", "0000000000000003", "00000001", "78", SIG_P3],
        ),
        (
            Message::Wish(WishMsg { view: v }),
            &["08", "0000000000000003"],
        ),
    ];
    for (msg, hex) in &messages {
        pinned(msg, hex);
        sized(msg);
    }
    unassigned::<Message>(&[0, 3, 9, 255], "Message");

    let slot_messages: [(SlotMessage, &[&str]); 5] = [
        (
            SlotMessage::Consensus {
                slot: 9,
                inner: Message::Wish(WishMsg { view: v }),
            },
            &["01", "0000000000000009", "08", "0000000000000003"],
        ),
        (
            SlotMessage::Checkpoint {
                upto: 16,
                digest: [0xd1; 32],
                sig: sig(3),
            },
            &["02", "0000000000000010", DIGEST, SIG_P4],
        ),
        (
            SlotMessage::SnapshotRequest { have: 12 },
            &["03", "000000000000000c"],
        ),
        (
            SlotMessage::SnapshotResponse {
                upto: 16,
                payload: vec![1, 2, 3],
                sigs: vec![sig(0), sig(2)],
            },
            &[
                "04",
                "0000000000000010",
                "00000003",
                "010203",
                "00000002",
                SIG_P1,
                SIG_P3,
            ],
        ),
        (
            SlotMessage::Backfill {
                slot: 13,
                value: x.clone(),
            },
            &["05", "000000000000000d", "00000001", "78"],
        ),
    ];
    for (msg, hex) in &slot_messages {
        pinned(msg, hex);
        sized(msg);
    }
    unassigned::<SlotMessage>(&[0, 6, 255], "SlotMessage");

    let commands: [(KvCommand, &[&str]); 4] = [
        (
            KvCommand::Put {
                key: "k".into(),
                value: "v".into(),
            },
            &["01", "00000001", "6b", "00000001", "76"],
        ),
        (
            KvCommand::Get { key: "k".into() },
            &["02", "00000001", "6b"],
        ),
        (
            KvCommand::Delete { key: "k".into() },
            &["03", "00000001", "6b"],
        ),
        (KvCommand::Noop, &["04"]),
    ];
    for (cmd, hex) in &commands {
        pinned(cmd, hex);
    }
    unassigned::<KvCommand>(&[0, 5, 255], "KvCommand");

    let fab_vote = FabSignedVote {
        voter: ProcessId(2),
        vote: Some(FabVoteData {
            value: x.clone(),
            view: View::FIRST,
            cert: None,
            leader_sig: sig(0),
        }),
        sig: sig(1),
    };
    let fab_messages: [(FabMessage, &[&str]); 4] = [
        (
            FabMessage::Propose {
                value: x.clone(),
                view: v,
                cert: Some(vec![fab_vote.clone()]),
                sig: sig(2),
            },
            &[
                "01",
                "00000001",
                "78",
                "0000000000000003",
                "01",
                "00000001",
                FAB_VOTE,
                SIG_P3,
            ],
        ),
        (
            FabMessage::Ack {
                value: x.clone(),
                view: v,
            },
            &["02", "00000001", "78", "0000000000000003"],
        ),
        (
            FabMessage::Vote {
                view: v,
                vote: fab_vote,
            },
            &["03", "0000000000000003", FAB_VOTE],
        ),
        (FabMessage::Wish { view: v }, &["04", "0000000000000003"]),
    ];
    for (msg, hex) in &fab_messages {
        pinned(msg, hex);
        sized(msg);
    }
    unassigned::<FabMessage>(&[0, 5, 255], "FabMessage");

    let view_change = SignedViewChange {
        sender: ProcessId(3),
        body: ViewChangeBody {
            new_view: v,
            prepared: Some(PreparedCert {
                value: x.clone(),
                view: View::FIRST,
                sigs: sigs(&[1]),
            }),
        },
        sig: sig(2),
    };
    let pbft_messages: [(PbftMessage, &[&str]); 5] = [
        (
            PbftMessage::PrePrepare {
                value: x.clone(),
                view: v,
                sig: sig(0),
            },
            &["01", "00000001", "78", "0000000000000003", SIG_P1],
        ),
        (
            PbftMessage::Prepare {
                value: x.clone(),
                view: v,
                sig: sig(1),
            },
            &["02", "00000001", "78", "0000000000000003", SIG_P2],
        ),
        (
            PbftMessage::Commit {
                value: x.clone(),
                view: v,
            },
            &["03", "00000001", "78", "0000000000000003"],
        ),
        (
            PbftMessage::ViewChange(view_change.clone()),
            &["04", VIEW_CHANGE],
        ),
        (
            PbftMessage::NewView {
                view: v,
                value: x.clone(),
                justification: vec![view_change],
                sig: sig(3),
            },
            &[
                "05",
                "0000000000000003",
                "00000001",
                "78",
                "00000001",
                VIEW_CHANGE,
                SIG_P4,
            ],
        ),
    ];
    for (msg, hex) in &pbft_messages {
        pinned(msg, hex);
        sized(msg);
    }
    unassigned::<PbftMessage>(&[0, 6, 255], "PbftMessage");
}
