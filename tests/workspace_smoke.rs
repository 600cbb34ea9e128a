//! Workspace smoke test: the `fastbft` facade re-exports every member crate,
//! and the headline configuration's quorum arithmetic matches the paper.
//!
//! This is deliberately shallow — it pins the *shape* of the workspace (the
//! re-export paths future code will import through) and the §2.2/§3 quorum
//! thresholds for `Config::new(4, 1, 1)`, so a manifest or facade regression
//! fails loudly and early.

use fastbft::types::{Config, ProcessId, View};

/// Every facade module resolves and exposes its headline type. Each binding
/// below only compiles if the corresponding re-export exists.
#[test]
fn facade_reexports_resolve() {
    // fastbft::types
    let cfg: fastbft::types::Config = Config::new(4, 1, 1).unwrap();
    let _v: fastbft::types::Value = fastbft::types::Value::from_u64(7);

    // fastbft::crypto
    let (pairs, dir): (Vec<fastbft::crypto::KeyPair>, fastbft::crypto::KeyDirectory) =
        fastbft::crypto::KeyDirectory::generate(cfg.n(), 1);
    assert!(dir.verify(b"m", &pairs[0].sign(b"m")));

    // fastbft::sim
    let _delta: fastbft::sim::SimDuration = fastbft::sim::SimDuration::DELTA;
    let _t0: fastbft::sim::SimTime = fastbft::sim::SimTime(0);

    // fastbft::core
    let mut cluster = fastbft::core::cluster::SimCluster::builder(cfg)
        .inputs_u64([7, 7, 7, 7])
        .build();
    let report = cluster.run_until_all_decide();
    assert!(report.all_decided);

    // fastbft::baselines
    let network = fastbft::sim::Network::synchronous(fastbft::sim::SimDuration::DELTA);
    let inputs = vec![fastbft::types::Value::from_u64(7); 6];
    let kind = fastbft::types::ProtocolKind::FabPaxos;
    let report: fastbft::core::Report =
        fastbft::baselines::run(kind, 1, 1, 1, network, inputs, &[]);
    assert!(report.all_decided, "FaB decides at 3f + 2t + 1 = 6");

    // fastbft::smr
    let _kv: fastbft::smr::KvStore = Default::default();

    // fastbft::runtime (type resolves; threaded runs are covered by the
    // runtime crate's own tests)
    #[allow(unused)]
    fn runtime_spawn_resolves() {
        let _ = fastbft::runtime::spawn::<fastbft::core::Message>;
        let _ = fastbft::runtime::spawn_with::<
            fastbft::core::Message,
            fastbft::runtime::ChannelTransport<fastbft::core::Message>,
        >;
    }

    // fastbft::net (facade path resolves; socket runs are covered by the
    // net crate's own tests). `assert_transport` only compiles if
    // TcpTransport implements the runtime's Transport trait.
    #[allow(unused)]
    fn net_spawn_resolves() {
        fn assert_transport<M: fastbft::sim::SimMessage, T: fastbft::runtime::Transport<M>>() {}
        let _ = fastbft::net::spawn_tcp::<fastbft::core::Message>;
        assert_transport::<
            fastbft::core::Message,
            fastbft::net::TcpTransport<fastbft::core::Message>,
        >();
    }
    let _opts = fastbft::net::TcpOptions::default();
    assert_eq!(fastbft::net::frame::MAGIC, 0x4642_4E31, "\"FBN1\"");
}

/// `Config::new(4, 1, 1)` — the paper's headline `n = 3f + 2t − 1` point —
/// produces exactly the thresholds of §2.2/§3.
#[test]
fn headline_quorum_arithmetic() {
    let cfg = Config::new(4, 1, 1).unwrap();
    assert_eq!(cfg.n(), 4);
    assert_eq!(cfg.f(), 1);
    assert_eq!(cfg.t(), 1);

    assert_eq!(cfg.vote_quorum(), 3, "n - f");
    assert_eq!(cfg.fast_quorum(), 3, "n - t");
    assert_eq!(cfg.slow_quorum(), 3, "ceil((n + f + 1) / 2)");
    assert_eq!(cfg.cert_quorum(), 2, "f + 1");
    assert_eq!(cfg.cert_request_targets(), 3, "2f + 1");
    assert_eq!(cfg.selection_quorum(), 2, "f + t");

    // n = 3f + 2t − 1 is tight: one fewer process is rejected.
    assert_eq!(Config::min_n(1, 1), 4);
    assert!(Config::new(3, 1, 1).is_err());

    // Round-robin leader map: leader(v) = p_((v mod n) + 1).
    assert_eq!(cfg.leader(View::FIRST), ProcessId(2));
    assert_eq!(cfg.leader(View(4)), ProcessId(1));
}
