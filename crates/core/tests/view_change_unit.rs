//! White-box view-change tests: drive a single replica through the leader
//! and verifier sides of the certification round-trip, exercising the
//! rejection paths that end-to-end runs only hit under live adversaries.

use fastbft_core::certs::{ProgressCert, SignedVote, VoteData};
use fastbft_core::message::{CertAckMsg, CertRequestMsg, Message, VoteMsg, WishMsg};
use fastbft_core::payload::{certack_payload, propose_payload};
use fastbft_core::replica::Replica;
use fastbft_crypto::{KeyDirectory, KeyPair, Signature};
use fastbft_obs::Metrics;
use fastbft_sim::{Actor, Effects, SimTime};
use fastbft_types::{Config, ProcessId, Value, View};

fn fixture() -> (Config, Vec<KeyPair>, KeyDirectory) {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(4, 21);
    (cfg, pairs, dir)
}

fn fx(id: u32) -> Effects<Message> {
    Effects::new(ProcessId(id), 4, SimTime(1000))
}

/// Drives `replica` into view 2 via 2f + 1 wishes.
fn enter_view2(replica: &mut Replica, buf: &mut Effects<Message>) {
    for sender in [1u32, 2, 4] {
        if ProcessId(sender) != replica.id() {
            replica.on_message(
                ProcessId(sender),
                Message::Wish(WishMsg { view: View(2) }),
                buf,
            );
        }
    }
    // Own wish counted via broadcast_wish when f+1 seen; ensure view moved.
    assert_eq!(replica.view(), View(2), "failed to enter view 2");
}

fn nil_vote(pairs: &[KeyPair], voter: usize, dest: View) -> Message {
    Message::Vote(VoteMsg {
        view: dest,
        vote: SignedVote::sign(&pairs[voter], None, dest, 0),
    })
}

fn value_vote(
    cfg: &Config,
    pairs: &[KeyPair],
    voter: usize,
    value: u64,
    view: View,
    dest: View,
) -> Message {
    let x = Value::from_u64(value);
    Message::Vote(VoteMsg {
        view: dest,
        vote: SignedVote::sign(
            &pairs[voter],
            Some(VoteData {
                value: x.clone(),
                view,
                progress_cert: ProgressCert::Genesis,
                leader_sig: pairs[cfg.leader(view).index()].sign(&propose_payload(&x, view, 0)),
                commit_cert: None,
            }),
            dest,
            0,
        ),
    })
}

/// The leader of view 2 (p3 for n = 4) collects votes, self-certifies, asks
/// 2f + 1 others, and proposes once f + 1 CertAcks arrive.
#[test]
fn leader_certification_roundtrip() {
    let (cfg, pairs, dir) = fixture();
    let leader = cfg.leader(View(2));
    assert_eq!(leader, ProcessId(3));
    let mut r = Replica::new(cfg, pairs[2].clone(), dir.clone(), Value::from_u64(30));

    let mut buf = fx(3);
    enter_view2(&mut r, &mut buf);

    // Two more votes complete the n − f = 3 quorum (own vote is automatic).
    let mut buf = fx(3);
    r.on_message(ProcessId(1), nil_vote(&pairs, 0, View(2)), &mut buf);
    r.on_message(ProcessId(4), nil_vote(&pairs, 3, View(2)), &mut buf);

    // CertRequests went out to 2f + 1 = 3 non-self processes.
    let sent = buf.sent();
    let cert_reqs: Vec<ProcessId> = sent
        .iter()
        .filter(|(_, m)| matches!(m, Message::CertRequest(_)))
        .map(|(to, _)| *to)
        .collect();
    assert_eq!(cert_reqs.len(), 3);
    assert!(
        !cert_reqs.contains(&ProcessId(3)),
        "no self request (self-certified)"
    );

    // An invalid CertAck — wrong value — must not complete the certificate.
    let wrong = Value::from_u64(999);
    let mut buf2 = fx(3);
    r.on_message(
        ProcessId(1),
        Message::CertAck(CertAckMsg {
            view: View(2),
            value: wrong.clone(),
            sig: pairs[0].sign(&certack_payload(&wrong, View(2), 0)),
        }),
        &mut buf2,
    );
    assert!(buf2.sent().is_empty(), "wrong-value ack must be ignored");

    // A forged CertAck (signature by someone else) is also ignored.
    let x = Value::from_u64(30); // leader's own input (all votes nil → Free)
    let mut buf3 = fx(3);
    r.on_message(
        ProcessId(1),
        Message::CertAck(CertAckMsg {
            view: View(2),
            value: x.clone(),
            sig: pairs[1].sign(&certack_payload(&x, View(2), 0)), // signer p2 ≠ sender p1
        }),
        &mut buf3,
    );
    assert!(buf3.sent().is_empty(), "forged ack must be ignored");

    // One genuine CertAck reaches f + 1 = 2 with the self-signature →
    // propose broadcast with a Bounded certificate.
    let mut buf4 = fx(3);
    r.on_message(
        ProcessId(1),
        Message::CertAck(CertAckMsg {
            view: View(2),
            value: x.clone(),
            sig: pairs[0].sign(&certack_payload(&x, View(2), 0)),
        }),
        &mut buf4,
    );
    let sent4 = buf4.sent();
    let proposes: Vec<&Message> = sent4
        .iter()
        .map(|(_, m)| m)
        .filter(|m| matches!(m, Message::Propose(_)))
        .collect();
    assert_eq!(proposes.len(), 4, "propose broadcast to all");
    if let Message::Propose(p) = proposes[0] {
        assert_eq!(p.value, x);
        assert_eq!(p.view, View(2));
        assert!(
            p.cert.verify(&cfg, &dir, &x, View(2), &Metrics::new()),
            "certificate must verify"
        );
        assert!(matches!(p.cert, ProgressCert::Bounded(_)));
    }
}

/// Verifier side: CertRequests are answered only when authentic, complete
/// and consistent with the selection algorithm.
#[test]
fn cert_request_verifier_paths() {
    let (cfg, pairs, dir) = fixture();
    // p1 verifies requests for view 2 (leader p3).
    let mut r = Replica::new(cfg, pairs[0].clone(), dir.clone(), Value::from_u64(1));

    let votes: Vec<SignedVote> = vec![
        SignedVote::sign(&pairs[0], None, View(2), 0),
        SignedVote::sign(&pairs[2], None, View(2), 0),
        SignedVote::sign(&pairs[3], None, View(2), 0),
    ];

    // 1. Valid request from the leader: answered with a CertAck.
    let mut buf = fx(1);
    r.on_message(
        ProcessId(3),
        Message::CertRequest(CertRequestMsg {
            view: View(2),
            value: Value::from_u64(5),
            votes: votes.clone(),
        }),
        &mut buf,
    );
    assert_eq!(buf.sent().len(), 1);
    assert!(matches!(buf.sent()[0].1, Message::CertAck(_)));
    assert_eq!(buf.sent()[0].0, ProcessId(3), "reply goes to the requester");

    // 2. Same request from a non-leader: silence.
    let mut buf = fx(1);
    r.on_message(
        ProcessId(4),
        Message::CertRequest(CertRequestMsg {
            view: View(2),
            value: Value::from_u64(5),
            votes: votes.clone(),
        }),
        &mut buf,
    );
    assert!(buf.sent().is_empty());

    // 3. Too few votes: silence.
    let mut buf = fx(1);
    r.on_message(
        ProcessId(3),
        Message::CertRequest(CertRequestMsg {
            view: View(2),
            value: Value::from_u64(5),
            votes: votes[..2].to_vec(),
        }),
        &mut buf,
    );
    assert!(buf.sent().is_empty());

    // 4. Constrained selection with a mismatched value: silence.
    let constrained: Vec<SignedVote> = vec![
        match value_vote(&cfg, &pairs, 0, 7, View::FIRST, View(2)) {
            Message::Vote(v) => v.vote,
            _ => unreachable!(),
        },
        SignedVote::sign(&pairs[2], None, View(2), 0),
        SignedVote::sign(&pairs[3], None, View(2), 0),
    ];
    let mut buf = fx(1);
    r.on_message(
        ProcessId(3),
        Message::CertRequest(CertRequestMsg {
            view: View(2),
            value: Value::from_u64(8), // selection pins 7, not 8
            votes: constrained.clone(),
        }),
        &mut buf,
    );
    assert!(
        buf.sent().is_empty(),
        "must refuse to certify an unsafe value"
    );

    // 5. The same votes with the *pinned* value: certified.
    let mut buf = fx(1);
    r.on_message(
        ProcessId(3),
        Message::CertRequest(CertRequestMsg {
            view: View(2),
            value: Value::from_u64(7),
            votes: constrained,
        }),
        &mut buf,
    );
    assert_eq!(buf.sent().len(), 1);

    // 6. Duplicate voters in the set: silence.
    let dup = vec![votes[0].clone(), votes[0].clone(), votes[1].clone()];
    let mut buf = fx(1);
    r.on_message(
        ProcessId(3),
        Message::CertRequest(CertRequestMsg {
            view: View(2),
            value: Value::from_u64(5),
            votes: dup,
        }),
        &mut buf,
    );
    assert!(buf.sent().is_empty());
}

/// Vote handling on the leader: relayed votes (sender ≠ voter) and invalid
/// signatures never enter the collection.
#[test]
fn leader_rejects_bad_votes() {
    let (cfg, pairs, dir) = fixture();
    let mut r = Replica::new(cfg, pairs[2].clone(), dir.clone(), Value::from_u64(30));
    let mut buf = fx(3);
    enter_view2(&mut r, &mut buf);

    // Relay: p4 forwards p1's genuine vote — rejected (votes travel
    // directly; accepting relays would let Byzantine processes replay).
    let genuine = SignedVote::sign(&pairs[0], None, View(2), 0);
    let mut buf = fx(3);
    r.on_message(
        ProcessId(4),
        Message::Vote(VoteMsg {
            view: View(2),
            vote: genuine,
        }),
        &mut buf,
    );
    // Vote for the wrong destination view: rejected.
    let stale = SignedVote::sign(&pairs[0], None, View(3), 0);
    r.on_message(
        ProcessId(1),
        Message::Vote(VoteMsg {
            view: View(2),
            vote: stale,
        }),
        &mut buf,
    );
    // Tampered signature: rejected.
    let mut forged = SignedVote::sign(&pairs[0], None, View(2), 0);
    forged.sig = Signature::from_parts(ProcessId(1), [9u8; 32]);
    r.on_message(
        ProcessId(1),
        Message::Vote(VoteMsg {
            view: View(2),
            vote: forged,
        }),
        &mut buf,
    );
    // None of those advanced the leader past vote collection: only the
    // leader's own vote is in, so no CertRequest went out.
    assert!(
        !buf.sent()
            .iter()
            .any(|(_, m)| matches!(m, Message::CertRequest(_))),
        "leader must still be waiting for valid votes"
    );
}
