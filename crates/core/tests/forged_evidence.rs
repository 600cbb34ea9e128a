//! Forged evidence is rejected however it was assembled or delivered.
//!
//! The safety argument counts signatures the *receiver* checked: a progress
//! certificate is `f + 1` CertAck signatures "at least one from a correct
//! process" (§3.2), a commit certificate `⌈(n+f+1)/2⌉` shares (App. A).
//! A Byzantine process owns one key, so the evidence it can fabricate is
//! its own tag relabelled with other signers' ids. Here a correct
//! [`Replica`] at n = 7, f = 2, t = 1 is handed such evidence in every
//! message that carries a certificate, once as a clone of the sender's
//! message (what the simulator and a channel-mesh hop deliver) and once
//! through the wire codec (what TCP delivers), and must not act on it.
//! Each case runs next to its honest twin, which must be acted on.

use fastbft_core::certs::{CommitCert, ProgressCert, SignedVote, VoteData};
use fastbft_core::message::{CommitMsg, Message, ProposeMsg, VoteMsg, WishMsg};
use fastbft_core::payload::{ack_payload, certack_payload, propose_payload};
use fastbft_core::replica::Replica;
use fastbft_crypto::{KeyDirectory, KeyPair, Signature, SignatureSet};
use fastbft_sim::{Actor, Effects, SimTime};
use fastbft_types::wire::{from_bytes, to_bytes};
use fastbft_types::{Config, ProcessId, Value, View};

const N: usize = 7;
/// The Byzantine process whose one key signs everything forged here.
const BYZ: usize = 6; // p7

fn fixture() -> (Config, Vec<KeyPair>, KeyDirectory) {
    let cfg = Config::new(N, 2, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(N, 17);
    (cfg, pairs, dir)
}

fn replica(cfg: &Config, pairs: &[KeyPair], dir: &KeyDirectory, id: u32) -> Replica {
    let keys = pairs[id as usize - 1].clone();
    Replica::new(*cfg, keys, dir.clone(), Value::from_u64(u64::from(id)))
}

fn fx(id: u32) -> Effects<Message> {
    Effects::new(ProcessId(id), N, SimTime(1000))
}

/// `quorum` signatures over `statement`: honest ones by p1 ..= p`quorum`,
/// or p7's tag over the very same bytes under those ids.
fn evidence(pairs: &[KeyPair], statement: &[u8], quorum: usize, forged: bool) -> SignatureSet {
    let tag = *pairs[BYZ].sign(statement).tag();
    pairs[..quorum]
        .iter()
        .map(|p| {
            if forged {
                Signature::from_parts(p.id(), tag)
            } else {
                p.sign(statement)
            }
        })
        .collect()
}

/// The two ways a message reaches a replica: a clone of what the sender
/// built, and a fresh decode of its bytes.
fn deliveries(msg: &Message) -> [Message; 2] {
    [msg.clone(), from_bytes(&to_bytes(msg)).expect("round trip")]
}

/// Drives `r` into view 2 with `2f + 1` wishes; returns what it sent.
fn enter_view_2(r: &mut Replica) -> Vec<(ProcessId, Message)> {
    let me = r.id().0;
    let mut buf = fx(me);
    let wishers = (1..=N as u32).filter(|p| *p != me).take(5);
    for p in wishers {
        r.on_message(
            ProcessId(p),
            Message::Wish(WishMsg { view: View(2) }),
            &mut buf,
        );
    }
    assert_eq!(r.view(), View(2));
    buf.sent()
}

fn acks(sent: &[(ProcessId, Message)]) -> usize {
    sent.iter()
        .filter(|(_, m)| matches!(m, Message::Ack(_)))
        .count()
}

/// A view-2 `Propose` with a valid `τ` whose bounded progress certificate
/// is `f + 1` relabelled CertAck signatures is not acknowledged.
#[test]
fn a_proposal_certified_by_relabelled_certacks_is_not_acknowledged() {
    let (cfg, pairs, dir) = fixture();
    let (x, v) = (Value::from_u64(77), View(2));
    let leader = cfg.leader(v);
    for forged in [true, false] {
        let propose = Message::Propose(ProposeMsg {
            value: x.clone(),
            view: v,
            cert: ProgressCert::Bounded(evidence(
                &pairs,
                &certack_payload(&x, v),
                cfg.cert_quorum(),
                forged,
            )),
            sig: pairs[leader.index()].sign(&propose_payload(&x, v)),
        });
        for delivered in deliveries(&propose) {
            let mut r = replica(&cfg, &pairs, &dir, 1);
            enter_view_2(&mut r);
            let mut buf = fx(1);
            r.on_message(leader, delivered, &mut buf);
            if forged {
                assert_eq!(acks(&buf.sent()), 0, "forged certificate acknowledged");
                assert!(r.vote().is_none());
            } else {
                assert_eq!(acks(&buf.sent()), N, "honest twin must be acknowledged");
            }
        }
    }
}

/// `Commit`s from a slow quorum of distinct senders whose certificates are
/// relabelled shares decide nothing, and the certificate is not kept: the
/// vote sent at the next view change piggybacks none.
#[test]
fn commits_carrying_relabelled_shares_decide_nothing_and_are_not_kept() {
    let (cfg, pairs, dir) = fixture();
    let (x, v) = (Value::from_u64(78), View(1));
    let leader = cfg.leader(v);
    for forged in [true, false] {
        let commit = Message::Commit(CommitMsg {
            cert: CommitCert {
                value: x.clone(),
                view: v,
                sigs: evidence(&pairs, &ack_payload(&x, v), cfg.slow_quorum(), forged),
            },
        });
        for delivered in deliveries(&commit) {
            let mut r = replica(&cfg, &pairs, &dir, 1);
            let mut buf = fx(1);
            // Acknowledge x in view 1, so the next vote is not nil.
            r.on_message(
                leader,
                Message::Propose(ProposeMsg {
                    value: x.clone(),
                    view: v,
                    cert: ProgressCert::Genesis,
                    sig: pairs[leader.index()].sign(&propose_payload(&x, v)),
                }),
                &mut buf,
            );
            assert_eq!(acks(&buf.sent()), N);
            for sender in 2..=1 + cfg.slow_quorum() as u32 {
                r.on_message(ProcessId(sender), delivered.clone(), &mut buf);
            }
            let sent = enter_view_2(&mut r);
            let votes: Vec<&VoteMsg> = sent
                .iter()
                .filter_map(|(_, m)| match m {
                    Message::Vote(vote) => Some(vote),
                    _ => None,
                })
                .collect();
            assert_eq!(votes.len(), 1);
            let vote = votes[0].vote.vote.as_ref().expect("acknowledged x");
            if forged {
                assert_eq!(r.decided(), None, "decided on forged certificates");
                assert_eq!(vote.commit_cert, None, "forged certificate kept");
            } else {
                assert_eq!(r.decided(), Some(&x), "honest twin must decide");
                assert!(vote.commit_cert.is_some());
            }
        }
    }
}

/// A `Vote` piggybacking a commit certificate of relabelled shares is not
/// a valid vote: the leader of the view does not count it.
#[test]
fn votes_carrying_relabelled_shares_are_not_counted_by_a_leader() {
    let (cfg, pairs, dir) = fixture();
    let (x, u, v) = (Value::from_u64(79), View(1), View(2));
    let leader = cfg.leader(v);
    for forged in [true, false] {
        let vote_from = |voter: usize| {
            let data = VoteData {
                value: x.clone(),
                view: u,
                progress_cert: ProgressCert::Genesis,
                leader_sig: pairs[cfg.leader(u).index()].sign(&propose_payload(&x, u)),
                commit_cert: Some(CommitCert {
                    value: x.clone(),
                    view: u,
                    sigs: evidence(&pairs, &ack_payload(&x, u), cfg.slow_quorum(), forged),
                }),
            };
            Message::Vote(VoteMsg {
                view: v,
                vote: SignedVote::sign(&pairs[voter], Some(data), v),
            })
        };
        for mode in 0..2 {
            let mut r = replica(&cfg, &pairs, &dir, leader.0);
            enter_view_2(&mut r);
            // With the leader's own vote, four more make n − f = 5.
            let mut buf = fx(leader.0);
            let voters = (0..N).filter(|i| *i != leader.index()).take(4);
            for voter in voters {
                let delivered = deliveries(&vote_from(voter))[mode].clone();
                r.on_message(ProcessId::from_index(voter), delivered, &mut buf);
            }
            let requests = buf
                .sent()
                .iter()
                .filter(|(_, m)| matches!(m, Message::CertRequest(_)))
                .count();
            if forged {
                assert_eq!(requests, 0, "leader selected over forged votes");
            } else {
                assert_eq!(
                    requests,
                    cfg.cert_request_targets(),
                    "honest twin must reach the vote quorum"
                );
            }
        }
    }
}
