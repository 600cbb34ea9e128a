//! A value's digest is the SHA-256 of its bytes at every receiver, also on
//! the two transports that deliver a clone of the sender's value — the
//! simulator and the channel mesh — where the memo cell travels with it.
//! (Over TCP a receiver decodes a fresh value, which hashes its own bytes.)

use std::sync::{Arc, Mutex};

use fastbft_runtime::{ChannelTransport, Polled, Transport};
use fastbft_sim::{Actor, Effects, Network, SimDuration, SimMessage, SimTime, Simulation};
use fastbft_types::sha256::{Digest, Sha256};
use fastbft_types::{ProcessId, Value};

#[derive(Clone, Debug)]
struct Carry(Value);

impl SimMessage for Carry {
    fn kind(&self) -> &'static str {
        "carry"
    }

    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

/// What the sender sends: a value whose memo it has already filled.
fn sent() -> Value {
    let value = Value::from_u64(1);
    value.digest();
    value
}

/// p1 sends its value to p2, which keeps the digest it reads.
struct Seat(Arc<Mutex<Option<Digest>>>);

impl Actor<Carry> for Seat {
    fn on_start(&mut self, fx: &mut Effects<Carry>) {
        if fx.id() == ProcessId(1) {
            fx.send(ProcessId(2), Carry(sent()));
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: Carry, _fx: &mut Effects<Carry>) {
        *self.0.lock().unwrap() = Some(*msg.0.digest());
    }
}

#[test]
fn a_value_delivered_as_a_clone_reads_the_sha256_of_its_bytes() {
    let honest = Sha256::digest(&1u64.to_be_bytes());
    assert_eq!(honest[..4], [0xcd, 0x26, 0x62, 0x15]);

    let read = Arc::new(Mutex::new(None));
    let mut sim = Simulation::new(Network::synchronous(SimDuration::DELTA), 1);
    for _ in 0..2 {
        sim.add_actor(Box::new(Seat(Arc::clone(&read))));
    }
    sim.start();
    sim.run_until(SimTime(10 * SimDuration::DELTA.0));
    assert_eq!(*read.lock().unwrap(), Some(honest), "simulator");

    let mut mesh = ChannelTransport::<Carry>::mesh(2)
        .into_iter()
        .map(|(t, _)| t);
    let (mut p1, mut p2) = (mesh.next().unwrap(), mesh.next().unwrap());
    p1.send(ProcessId(2), Carry(sent()));
    let Polled::Delivered(from, Carry(value)) = p2.recv(None) else {
        panic!("nothing delivered on the channel mesh");
    };
    assert_eq!(
        (from, *value.digest()),
        (ProcessId(1), honest),
        "channel mesh"
    );
}
