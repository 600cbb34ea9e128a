//! Hostile-peer isolation: a blackholed replica (its listener accepts TCP
//! connections at the kernel but its process never handshakes or reads)
//! must cost the three correct replicas **nothing** but one writer thread
//! each and some counted frame drops — their decision throughput must not
//! collapse. Before the per-peer send pipeline, every send to the
//! blackholed peer stalled the sender's event loop for up to
//! `connect/handshake` timeouts, freezing timers and multiplying the run
//! time by orders of magnitude.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use fastbft_core::replica::ReplicaOptions;
use fastbft_net::{TcpOptions, TcpTransport};
use fastbft_runtime::chaos::recovery_window;
use fastbft_runtime::NodeSeat;
use fastbft_smr::runtime::{SmrClusterHandle, TICK};
use fastbft_smr::CountingMachine;
use fastbft_types::{Config, ProcessId, Value};

const COMMANDS: u64 = 64;

fn hostile_opts() -> TcpOptions {
    TcpOptions {
        handshake_timeout: Duration::from_millis(300),
        connect_timeout: Duration::from_millis(300),
        redial_cooldown: Duration::from_millis(100),
        // The queue bound stays at its (ample) default: correct links must
        // never shed load — the model makes them reliable. Frames toward
        // the blackholed peer drop via the unreachable/cooldown path and
        // the count proves it; the full-queue drop path is pinned by
        // `send_pipeline.rs`.
        ..TcpOptions::default()
    }
}

/// Wall-clock seconds for the three correct replicas (p1–p3) to commit and
/// apply all commands. When `blackhole` is set, p4's listener is bound but
/// its transport, actor and handlers never exist.
fn run(seed: u64, blackhole: bool) -> (f64, u64) {
    let cfg = Config::new(4, 1, 1).unwrap();
    let queue: Vec<Value> = (0..COMMANDS).map(Value::from_u64).collect();
    let listeners: Vec<TcpListener> = (0..4)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    // In the blackhole run, listeners[3] stays bound (SYNs are accepted by
    // the kernel backlog) but is never served — the worst non-crash shape:
    // dials "succeed", then handshakes hang until timeout.
    let mut stats = Vec::new();
    let mut cluster = SmrClusterHandle::spawn(
        cfg,
        seed,
        CountingMachine::new(),
        vec![queue; cfg.n()],
        |mut actors, pairs, dir, _| {
            if blackhole {
                actors.truncate(3);
            }
            actors
                .into_iter()
                .zip(pairs)
                .zip(&listeners)
                .map(|((actor, pair), listener)| {
                    let (transport, control) = TcpTransport::start(
                        pair,
                        dir.clone(),
                        listener.try_clone().unwrap(),
                        addrs.clone(),
                        hostile_opts(),
                    )
                    .unwrap();
                    stats.push(transport.stats());
                    NodeSeat {
                        actor,
                        transport,
                        control,
                        verify: None,
                    }
                })
                .collect()
        },
        // One command per slot. The blackholed replica *leads* every
        // fourth slot, so those slots must recover via the view
        // synchronizer. The blackhole adds no latency to the live links,
        // so the default view-1 timeout stands — brisk recovery.
        |_, node| Box::new(node.with_batch_size(1)),
    );
    let start = Instant::now();
    let correct = (0..3).map(ProcessId::from_index);
    let ok = cluster.await_commands(correct, COMMANDS, Duration::from_secs(60));
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        ok,
        "correct replicas must keep committing (blackhole: {blackhole})"
    );
    assert_eq!(cluster.violations(), []);
    cluster.shutdown();
    let dropped = stats.iter().map(|s| s.dropped_to(ProcessId(4))).sum();
    (elapsed, dropped)
}

#[test]
fn blackholed_replica_does_not_reduce_correct_replicas_throughput() {
    // Warm run first (page cache, allocator, loopback state), and sanity:
    // the healthy cluster must be quick.
    let (healthy, _) = run(41, false);
    // Budget for the hostile run: the protocol must view-change past the
    // blackholed replica's ~16 dead-leader slots (one view-1 timeout
    // each, overlapping under the 16-deep pipeline) — the chaos plane's
    // recovery window for a fault that injects no delay bounds that
    // comfortably. The *failure mode this guards against* is
    // categorically slower: when sends dialed and handshook on the
    // event-loop thread, every send toward the blackhole froze the
    // sender's timers for up to 600 ms, so dead-leader slots could not
    // even time out promptly and the run took minutes.
    let base_timeout = TICK * u32::try_from(ReplicaOptions::default().base_timeout.0).unwrap();
    let budget = recovery_window(base_timeout, Duration::ZERO).as_secs_f64();
    let (blackholed, dropped) = run(42, true);
    assert!(
        blackholed < budget,
        "blackholed peer must not stall the cluster: healthy {healthy:.3}s, \
         blackholed {blackholed:.3}s, budget {budget:.1}s"
    );
    // The bounded queues shed load toward the blackhole, and counted it.
    assert!(
        dropped > 0,
        "frames toward the blackholed replica must be dropped and counted"
    );
}
