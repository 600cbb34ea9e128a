//! Property tests over the whole `(n, f, t)` configuration lattice: every
//! quorum-intersection inequality the correctness proofs rely on must hold
//! for every valid configuration (not just the minimal ones).

use fastbft_sim::{check, Choices};
use fastbft_types::{Config, ProcessId, View};

fn valid_config(c: &mut Choices) -> Config {
    let (f, t_off, extra) = (c.int(1..=8usize), c.int(0..=8usize), c.int(0..=10usize));
    let t = 1 + t_off % f.max(1);
    let t = t.min(f);
    Config::new(Config::min_n(f, t) + extra, f, t).expect("valid by construction")
}

/// (QI1): two (n−f)-quorums intersect in more than f processes.
#[test]
fn qi1_all_valid_configs() {
    check("qi1_all_valid_configs", 256, |c| {
        let cfg = valid_config(c);
        assert!(cfg.qi1_intersection() > cfg.f() as isize, "{cfg}");
    });
}

/// (QI3): an (n−f)-quorum and a 2f-set with ≤ f−1 Byzantine members
/// share a correct process.
#[test]
fn qi3_all_valid_configs() {
    check("qi3_all_valid_configs", 256, |c| {
        let cfg = valid_config(c);
        assert!(cfg.qi3_correct_intersection() >= 1, "{cfg}");
    });
}

/// (QI2), vanilla flavor: for t = f the intersection provides 2f correct
/// processes — this is exactly where n ≥ 5f − 1 is needed.
#[test]
fn qi2_vanilla_configs() {
    check("qi2_vanilla_configs", 256, |c| {
        let (f, extra) = (c.int(1..=8usize), c.int(0..=10usize));
        let cfg = Config::new(Config::min_n(f, f) + extra, f, f).unwrap();
        assert!(cfg.qi2_correct_intersection() >= 2 * f as isize, "{cfg}");
    });
}

/// Appendix A intersection: any (n−f) vote set and (n−t) ack set share
/// at least (f−1) + (f+t) processes, i.e. f+t correct ones.
#[test]
fn generalized_fast_vote_intersection() {
    check("generalized_fast_vote_intersection", 256, |c| {
        let cfg = valid_config(c);
        let inter = (cfg.vote_quorum() + cfg.fast_quorum()) as isize - cfg.n() as isize;
        assert!(
            inter >= (cfg.f() as isize - 1) + cfg.selection_quorum() as isize,
            "{cfg}: intersection {inter}"
        );
    });
}

/// Slow-path quorums: any two slow quorums intersect in a correct
/// process; a slow quorum meets any fast quorum in a correct process;
/// a slow quorum meets any (n−f) vote set in a correct process.
#[test]
fn slow_quorum_intersections() {
    check("slow_quorum_intersections", 256, |c| {
        let cfg = valid_config(c);
        let n = cfg.n() as isize;
        let f = cfg.f() as isize;
        let s = cfg.slow_quorum() as isize;
        assert!(2 * s - n > f, "{cfg}: slow/slow");
        assert!(s + cfg.fast_quorum() as isize - n > f, "{cfg}: slow/fast");
        assert!(s + cfg.vote_quorum() as isize - n > f, "{cfg}: slow/vote");
    });
}

/// The cert-request fan-out always contains f + 1 correct processes.
#[test]
fn cert_request_targets_suffice() {
    check("cert_request_targets_suffice", 256, |c| {
        let cfg = valid_config(c);
        assert!(cfg.cert_request_targets() >= cfg.f() + cfg.cert_quorum());
        assert!(cfg.cert_request_targets() <= cfg.n(), "{cfg}");
    });
}

/// The resilience bound itself: min_n is exactly max(3f+2t−1, 3f+1),
/// one below it is rejected, and FaB's bound is always two higher.
#[test]
fn bound_shape() {
    check("bound_shape", 256, |c| {
        let f = c.int(1..=8usize);
        for t in 1..=f {
            let min = Config::min_n(f, t);
            assert_eq!(min, (3 * f + 2 * t - 1).max(3 * f + 1));
            assert!(Config::new(min, f, t).is_ok());
            assert!(Config::new(min - 1, f, t).is_err());
            assert_eq!(
                fastbft_types::ProtocolKind::FabPaxos.min_n(f, t),
                3 * f + 2 * t + 1
            );
        }
    });
}

/// Leader rotation: every process leads infinitely often (within any
/// window of n consecutive views each process leads exactly once), for
/// any offset.
#[test]
fn leader_round_robin() {
    check("leader_round_robin", 256, |c| {
        let cfg = valid_config(c);
        let (start, offset) = (c.int(1..1000u64), c.int(0..100u64));
        let cfg = cfg.with_instance(offset);
        let leaders: std::collections::BTreeSet<ProcessId> = (start..start + cfg.n() as u64)
            .map(|v| cfg.leader(View(v)))
            .collect();
        assert_eq!(leaders.len(), cfg.n());
    });
}

/// Offsets change only *who* leads, never the quorum arithmetic.
#[test]
fn offset_preserves_quorums() {
    check("offset_preserves_quorums", 256, |c| {
        let cfg = valid_config(c);
        let rotated = cfg.with_instance(c.int(0..1000u64));
        assert_eq!(rotated.vote_quorum(), cfg.vote_quorum());
        assert_eq!(rotated.fast_quorum(), cfg.fast_quorum());
        assert_eq!(rotated.slow_quorum(), cfg.slow_quorum());
        assert_eq!(rotated.cert_quorum(), cfg.cert_quorum());
        assert_eq!(rotated.selection_quorum(), cfg.selection_quorum());
        // offset = n is the identity rotation.
        let full_turn = cfg.with_instance(cfg.n() as u64);
        assert_eq!(full_turn.leader(View(7)), cfg.leader(View(7)));
    });
}

#[test]
fn quorums_are_monotone_in_n() {
    // Growing the system at fixed (f, t) only grows the quorums; never
    // shrinks the safety margin.
    for f in 1..=4 {
        for t in 1..=f {
            let mut last_vote = 0;
            let mut last_fast = 0;
            for extra in 0..6 {
                let cfg = Config::new(Config::min_n(f, t) + extra, f, t).unwrap();
                assert!(cfg.vote_quorum() >= last_vote);
                assert!(cfg.fast_quorum() >= last_fast);
                last_vote = cfg.vote_quorum();
                last_fast = cfg.fast_quorum();
            }
        }
    }
}
