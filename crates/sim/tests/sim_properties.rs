//! Property tests for the simulation kernel: partial-synchrony
//! admissibility, determinism and crash semantics.

use fastbft_sim::{
    Actor, Effects, Network, ScriptedActor, SimDuration, SimMessage, SimTime, Simulation, TimerId,
    TraceEvent,
};
use fastbft_types::ProcessId;
use proptest::prelude::*;

#[derive(Clone, Debug, PartialEq)]
struct Ping(u64);
impl SimMessage for Ping {
    fn kind(&self) -> &'static str {
        "ping"
    }
    fn wire_size(&self) -> usize {
        8
    }
}

/// Gossiper: relays each received ping once with a decremented TTL.
struct Gossip;
impl Actor<Ping> for Gossip {
    fn on_start(&mut self, _fx: &mut Effects<Ping>) {}
    fn on_message(&mut self, _from: ProcessId, msg: Ping, fx: &mut Effects<Ping>) {
        if msg.0 > 0 {
            fx.broadcast_others(Ping(msg.0 - 1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partial synchrony is enforced: every message is delivered by
    /// `max(send_time, GST) + Δ`, never before its send.
    #[test]
    fn delivery_times_admissible(
        seed in any::<u64>(),
        gst in 0u64..2000,
        chaos in 100u64..3000,
        n in 2usize..6,
        ttl in 1u64..4,
    ) {
        let delta = SimDuration(100);
        let mut sim = Simulation::new(
            Network::partially_synchronous(delta, SimTime(gst), SimDuration(chaos)),
            seed,
        );
        for _ in 0..n {
            sim.add_actor(Box::new(Gossip));
        }
        sim.start();
        sim.inject_message(ProcessId(1), ProcessId(2), Ping(ttl), SimTime::ZERO);
        sim.run_to_quiescence();

        // Reconstruct per-send admissibility from the trace.
        for rec in sim.trace().records() {
            if let TraceEvent::Send { deliver_at, .. } = rec.event {
                let sent_at = rec.at;
                prop_assert!(deliver_at >= sent_at, "delivered before send");
                let deadline = sent_at.max(SimTime(gst)) + delta;
                prop_assert!(
                    deliver_at <= deadline,
                    "sent {sent_at}, delivered {deliver_at}, deadline {deadline}"
                );
            }
        }
    }

    /// Bit-for-bit determinism: identical seeds give identical traces, for
    /// any network parameters.
    #[test]
    fn traces_deterministic(
        seed in any::<u64>(),
        gst in 0u64..1000,
        chaos in 100u64..2000,
    ) {
        let run = || {
            let mut sim = Simulation::new(
                Network::partially_synchronous(
                    SimDuration(100),
                    SimTime(gst),
                    SimDuration(chaos),
                ),
                seed,
            );
            for _ in 0..4 {
                sim.add_actor(Box::new(Gossip));
            }
            sim.start();
            sim.inject_message(ProcessId(1), ProcessId(2), Ping(3), SimTime::ZERO);
            sim.run_to_quiescence();
            format!("{}", sim.trace())
        };
        prop_assert_eq!(run(), run());
    }

    /// Every delivery in the trace corresponds to exactly one send with a
    /// matching schedule (reliable channels: no loss, no duplication, no
    /// creation) — for crash-free runs.
    #[test]
    fn sends_and_delivers_one_to_one(seed in any::<u64>(), ttl in 1u64..4) {
        let mut sim = Simulation::new(
            Network::partially_synchronous(SimDuration(100), SimTime(500), SimDuration(700)),
            seed,
        );
        for _ in 0..4 {
            sim.add_actor(Box::new(Gossip));
        }
        sim.start();
        sim.inject_message(ProcessId(1), ProcessId(3), Ping(ttl), SimTime::ZERO);
        sim.run_to_quiescence();
        let sends = sim
            .trace()
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Send { .. }))
            .count();
        let delivers = sim
            .trace()
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Deliver { .. }))
            .count();
        prop_assert_eq!(sends, delivers);
    }

    /// Crashed processes take no further steps: no sends, no deliveries, no
    /// timer firings after the crash instant.
    #[test]
    fn crash_semantics(seed in any::<u64>(), crash_at in 50u64..400) {
        let mut sim = Simulation::new(Network::synchronous(SimDuration(100)), seed);
        for _ in 0..4 {
            sim.add_actor(Box::new(Gossip));
        }
        let victim = ProcessId(2);
        sim.schedule_crash(victim, SimTime(crash_at));
        sim.start();
        sim.inject_message(ProcessId(1), victim, Ping(5), SimTime::ZERO);
        sim.inject_message(ProcessId(1), ProcessId(3), Ping(5), SimTime::ZERO);
        sim.run_to_quiescence();
        for rec in sim.trace().records() {
            if rec.at >= SimTime(crash_at) {
                match rec.event {
                    TraceEvent::Send { from, .. } => {
                        prop_assert_ne!(from, victim, "crashed process sent at {}", rec.at);
                    }
                    TraceEvent::Deliver { to, .. } => {
                        prop_assert_ne!(to, victim, "crashed process received at {}", rec.at);
                    }
                    _ => {}
                }
            }
        }
        prop_assert!(sim.is_crashed(victim));
    }
}

/// Timers fire exactly once, in order, at the requested offsets.
#[test]
fn timer_ordering() {
    struct TimerProbe {
        fired: Vec<u64>,
    }
    impl Actor<Ping> for TimerProbe {
        fn on_start(&mut self, fx: &mut Effects<Ping>) {
            fx.set_timer(SimDuration(300), TimerId(3));
            fx.set_timer(SimDuration(100), TimerId(1));
            fx.set_timer(SimDuration(200), TimerId(2));
        }
        fn on_message(&mut self, _f: ProcessId, _m: Ping, _fx: &mut Effects<Ping>) {}
        fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<Ping>) {
            self.fired.push(timer.0);
            if timer.0 == 1 {
                // A timer set from a timer callback still fires.
                fx.set_timer(SimDuration(50), TimerId(10));
            }
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }
    let mut sim = Simulation::new(Network::synchronous(SimDuration(100)), 0);
    let p = sim.add_actor(Box::new(TimerProbe { fired: Vec::new() }));
    sim.start();
    sim.run_to_quiescence();
    let probe = sim
        .actor(p)
        .as_any()
        .unwrap()
        .downcast_ref::<TimerProbe>()
        .unwrap();
    assert_eq!(probe.fired, vec![1, 10, 2, 3]);
}

/// The silent scripted actor really is inert under fire.
#[test]
fn silent_under_fire() {
    let mut sim = Simulation::new(Network::synchronous(SimDuration(10)), 0);
    sim.add_actor(Box::new(ScriptedActor::<Ping>::silent()));
    sim.add_actor(Box::new(Gossip));
    sim.start();
    for i in 0..10 {
        sim.inject_message(ProcessId(2), ProcessId(1), Ping(i), SimTime(i * 5));
    }
    sim.run_to_quiescence();
    let sends_from_p1 = sim
        .trace()
        .records()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Send { from, .. } if from == ProcessId(1)))
        .count();
    assert_eq!(sends_from_p1, 0);
}
