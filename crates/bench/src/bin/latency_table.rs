//! E6 — common-case latency: 2Δ (this paper, FaB) vs 3Δ (PBFT).
//!
//! Every protocol runs at its own minimum process count for each `(f, t)`,
//! on an identical synchronous network, all processes correct, unanimous
//! inputs. Reported: decision latency in message delays and total messages.

use fastbft_baselines::{fab_config, FabReplica, PbftReplica};
use fastbft_bench::{header, row};
use fastbft_core::cluster::{Report, SimCluster};
use fastbft_sim::{Network, SimDuration};
use fastbft_types::{Config, ProtocolKind, Value};

fn summary(n: usize, report: &Report) -> (usize, u64, usize) {
    assert!(report.violations.is_empty() && report.all_decided);
    (n, report.decision_delays_max(), report.stats.messages)
}

fn ktz(f: usize, t: usize) -> (usize, u64, usize) {
    let n = ProtocolKind::Ktz.min_n(f, t);
    let cfg = Config::new(n, f, t).unwrap();
    let mut cluster = SimCluster::builder(cfg).inputs_u64(vec![7; n]).build();
    summary(n, &cluster.run_until_all_decide())
}

fn fab(f: usize, t: usize) -> (usize, u64, usize) {
    let n = ProtocolKind::FabPaxos.min_n(f, t);
    let cfg = fab_config(n, f, t).unwrap();
    let network = Network::synchronous(SimDuration::DELTA);
    let inputs = vec![Value::from_u64(7); n];
    let mut cluster = SimCluster::new(n, 5, network, inputs, [], |_, keys, dir, input| {
        Box::new(FabReplica::new(cfg, keys, dir.clone(), input))
    });
    summary(n, &cluster.run_until_all_decide())
}

fn pbft(f: usize) -> (usize, u64, usize) {
    let n = ProtocolKind::Pbft.min_n(f, 0);
    let cfg = Config::new_unchecked(n, f, 1.min(f));
    let network = Network::synchronous(SimDuration::DELTA);
    let inputs = vec![Value::from_u64(7); n];
    let mut cluster = SimCluster::new(n, 6, network, inputs, [], |_, keys, dir, input| {
        Box::new(PbftReplica::new(cfg, keys, dir.clone(), input))
    });
    summary(n, &cluster.run_until_all_decide())
}

fn main() {
    println!("# E6 — common-case latency across protocols (synchronous, all correct)\n");
    println!(
        "{}",
        header(&[
            "f",
            "t",
            "KTZ21 n",
            "KTZ21 delays",
            "KTZ21 msgs",
            "FaB n",
            "FaB delays",
            "FaB msgs",
            "PBFT n",
            "PBFT delays",
            "PBFT msgs",
        ])
    );
    for f in 1..=3usize {
        for t in 1..=f {
            let (kn, kd, km) = ktz(f, t);
            let (fnn, fd, fm) = fab(f, t);
            let (pn, pd, pm) = pbft(f);
            println!(
                "{}",
                row(&[
                    f.to_string(),
                    t.to_string(),
                    kn.to_string(),
                    kd.to_string(),
                    km.to_string(),
                    fnn.to_string(),
                    fd.to_string(),
                    fm.to_string(),
                    pn.to_string(),
                    pd.to_string(),
                    pm.to_string(),
                ])
            );
            assert_eq!(kd, 2, "KTZ21 is two-step");
            assert_eq!(fd, 2, "FaB is two-step");
            assert_eq!(pd, 3, "PBFT is three-step");
        }
    }
    println!("\nshape check: both fast protocols at 2 delays, PBFT at 3 — at every (f, t),");
    println!("with KTZ21 using two fewer processes than FaB. ✓");
}
