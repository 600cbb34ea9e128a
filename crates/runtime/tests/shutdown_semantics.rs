//! `ClusterHandle::shutdown` must join every thread — even with armed
//! far-future timers and undelivered messages in flight — on the channel
//! transport. (The TCP half of this contract is pinned in
//! `crates/net/tests/tcp_cluster.rs`.)

use std::time::Duration;

use fastbft_runtime::{channel_seats, spawn_with, TICK};
use fastbft_sim::{Actor, Effects, SimDuration, SimMessage, TimerId};
use fastbft_types::ProcessId;

#[derive(Clone, Debug)]
struct Blob(Vec<u8>);

impl SimMessage for Blob {
    fn kind(&self) -> &'static str {
        "blob"
    }
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

/// Floods peers and arms timers that will never fire before shutdown.
struct Flooder {
    echoes_left: u32,
}

impl Actor<Blob> for Flooder {
    fn on_start(&mut self, fx: &mut Effects<Blob>) {
        for _ in 0..100 {
            fx.broadcast(Blob(vec![0; 512]));
        }
        for i in 0..50 {
            // ~minutes away at the 50µs TICK: still pending at
            // shutdown time.
            fx.set_timer(SimDuration(1_000_000_000 + i), TimerId(i));
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: Blob, fx: &mut Effects<Blob>) {
        if self.echoes_left > 0 {
            self.echoes_left -= 1;
            fx.broadcast_others(msg);
        }
    }
}

#[test]
fn shutdown_joins_with_inflight_timers_and_messages_channels() {
    let actors: Vec<Box<dyn Actor<Blob> + Send>> = (0..4)
        .map(|_| -> Box<dyn Actor<Blob> + Send> { Box::new(Flooder { echoes_left: 1000 }) })
        .collect();
    let cluster = spawn_with(channel_seats(actors), TICK);
    // Let traffic build, then tear down mid-flight.
    std::thread::sleep(Duration::from_millis(50));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("channel cluster shutdown deadlocked");
}

/// Immediate shutdown — before any actor has been scheduled — must also
/// join cleanly (covers the race where Shutdown is the first envelope a
/// node ever sees).
#[test]
fn immediate_shutdown_joins() {
    let actors: Vec<Box<dyn Actor<Blob> + Send>> = (0..4)
        .map(|_| -> Box<dyn Actor<Blob> + Send> { Box::new(Flooder { echoes_left: 0 }) })
        .collect();
    let cluster = spawn_with(channel_seats(actors), TICK);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("immediate shutdown deadlocked");
}
