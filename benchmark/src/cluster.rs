//! Builds a workload's cluster through the public API only:
//! `smr_actors_configured` → `tcp_seats` / `ChannelTransport::mesh` →
//! `wrap_seats` (where the workload states a δ) → `spawn_with` →
//! `SmrClusterHandle`.
//!
//! Every workload runs the system as shipped: `ReplicaOptions::default()`,
//! `Batching::Adaptive(AdaptiveBatch::default())`, the default snapshot
//! interval and a 50 µs tick. The traced run adds the benchmark's wrappers
//! and a `MetricsRegistry`; nothing else differs.

use std::io;
use std::time::Duration;

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::{Digest, KeyDirectory};
use fastbft_net::{tcp_seats, tcp_seats_metered, TcpOptions, TcpStats};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::{
    spawn_with, wrap_seats, wrap_seats_metered, ChannelTransport, ClusterHandle, FaultPlan,
    LinkProfile, NodeSeat, Transport,
};
use fastbft_sim::{Actor, ScriptedActor};
use fastbft_smr::{
    as_smr_node, smr_actors_configured, AdaptiveBatch, Batching, KvCommand, SlotMessage,
    SmrClusterHandle, StateMachine,
};
use fastbft_types::{Config, Value};

use crate::oracle::TaggedKv;
use crate::trace::{TraceHub, TracedMachine};
use crate::workload::{Link, Workload};

/// Wall time of one protocol tick (timers only), as in every other
/// wall-clock harness of the repo.
pub const TICK: Duration = Duration::from_micros(50);

/// What only the traced run has.
pub struct Tracing {
    pub hub: TraceHub,
    pub registry: MetricsRegistry,
    /// Send-side counters of each TCP transport (empty off TCP).
    pub tcp: Vec<TcpStats>,
}

pub struct Cluster {
    pub handle: SmrClusterHandle,
    pub tracing: Option<Tracing>,
    /// The shared fault plan of a cluster with an injected delay (its
    /// default profile is the workload's δ). The benchmark never touches it again;
    /// a test cuts a replica off through it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub plan: Option<FaultPlan>,
}

pub fn config(w: &Workload) -> Config {
    Config::new(w.n, w.f, w.t).expect("workload table holds valid configurations")
}

pub fn idle_command() -> Value {
    KvCommand::Noop.to_value()
}

pub fn batching() -> Batching {
    Batching::Adaptive(AdaptiveBatch::default())
}

type Actors = Vec<Box<dyn Actor<SlotMessage> + Send>>;

fn actors<S: StateMachine + Clone + Send + 'static>(
    w: &Workload,
    seed: u64,
    machine: S,
    registry: Option<&MetricsRegistry>,
) -> (Actors, Vec<fastbft_crypto::KeyPair>, KeyDirectory) {
    let (pairs, dir) = KeyDirectory::generate(w.n, seed);
    let mut actors = smr_actors_configured(
        config(w),
        &pairs,
        &dir,
        machine,
        vec![Vec::new(); w.n],
        idle_command(),
        ReplicaOptions::default(),
        batching(),
        None,
        registry,
    );
    // Silent from the first tick, unlike stopping a spawned seat: no
    // start-up slot can slip through on the fast path.
    for seat in actors.iter_mut().skip(w.live()) {
        *seat = Box::new(ScriptedActor::silent());
    }
    (actors, pairs, dir)
}

fn spawn<T: Transport<SlotMessage>>(
    seats: Vec<NodeSeat<SlotMessage, T>>,
    hub: Option<&TraceHub>,
) -> ClusterHandle<SlotMessage> {
    match hub {
        None => spawn_with(seats, TICK),
        Some(hub) => spawn_with(
            seats
                .into_iter()
                .enumerate()
                .map(|(i, seat)| NodeSeat {
                    actor: seat.actor,
                    transport: hub.transport(i, seat.transport),
                    control: seat.control,
                    verify: seat.verify,
                })
                .collect(),
            TICK,
        ),
    }
}

/// Spawns the seats — behind `FaultTransport`s on one shared plan whose
/// default profile is the workload's δ, if it states one.
fn spawn_delayed<T: Transport<SlotMessage>>(
    seats: Vec<NodeSeat<SlotMessage, T>>,
    w: &Workload,
    seed: u64,
    registry: Option<&MetricsRegistry>,
    hub: Option<&TraceHub>,
) -> (ClusterHandle<SlotMessage>, Option<FaultPlan>) {
    let Some(delta) = w.delta else {
        return (spawn(seats, hub), None);
    };
    let plan = FaultPlan::new();
    plan.set_default(LinkProfile::delayed(delta, Duration::ZERO));
    let inner = match registry {
        None => spawn(wrap_seats(seats, &plan, seed), hub),
        Some(r) => spawn(wrap_seats_metered(seats, &plan, seed, r), hub),
    };
    (inner, Some(plan))
}

/// Keys, listeners, threads: everything up to a running (cold) cluster.
pub fn build(w: &Workload, seed: u64, traced: bool) -> io::Result<Cluster> {
    let tracing = traced.then(|| (TraceHub::new(w.n), MetricsRegistry::new(w.n)));
    let registry = tracing.as_ref().map(|(_, r)| r);
    let (mut actors, pairs, dir) = match &tracing {
        None => actors(w, seed, TaggedKv::default(), None),
        Some(_) => actors(w, seed, TracedMachine(TaggedKv::default()), registry),
    };
    if let Some((hub, _)) = &tracing {
        actors = actors
            .into_iter()
            .enumerate()
            .map(|(i, a)| if i < w.live() { hub.actor(i, a) } else { a })
            .collect();
    }
    let hub = tracing.as_ref().map(|(h, _)| h);

    let mut tcp = Vec::new();
    let (inner, plan) = match w.link {
        Link::Tcp => {
            let (seats, _addrs) = match registry {
                None => tcp_seats(actors, pairs, dir, TcpOptions::default())?,
                Some(r) => tcp_seats_metered(actors, pairs, dir, TcpOptions::default(), r)?,
            };
            if traced {
                tcp = seats.iter().map(|s| s.transport.stats()).collect();
            }
            spawn_delayed(seats, w, seed, registry, hub)
        }
        Link::Channel => {
            let seats = actors
                .into_iter()
                .zip(ChannelTransport::mesh(w.n))
                .map(|(actor, (transport, control))| NodeSeat {
                    actor,
                    transport,
                    control,
                    verify: None,
                })
                .collect();
            spawn_delayed(seats, w, seed, registry, hub)
        }
    };

    let mut handle = SmrClusterHandle::new(inner, w.n, idle_command());
    if let Some(r) = registry {
        handle.attach_metrics(r.clone());
    }
    Ok(Cluster {
        handle,
        tracing: tracing.map(|(hub, registry)| Tracing { hub, registry, tcp }),
        plan,
    })
}

/// Stops the cluster and returns each live replica's `state_digest()`.
pub fn shutdown(cluster: SmrClusterHandle, w: &Workload, traced: bool) -> Vec<Digest> {
    cluster
        .shutdown()
        .iter()
        .take(w.live())
        .map(|actor| {
            let digest = if traced {
                as_smr_node::<TracedMachine<TaggedKv>>(actor.as_ref()).map(|n| n.state_digest())
            } else {
                as_smr_node::<TaggedKv>(actor.as_ref()).map(|n| n.state_digest())
            };
            digest.expect("live seats hold SMR nodes of the machine type they were built with")
        })
        .collect()
}
