//! The fault-injection plane: per-link network shaping behind the
//! [`Transport`] trait.
//!
//! [`FaultTransport`] wraps any transport — the in-process
//! [`ChannelTransport`](crate::ChannelTransport) or `fastbft-net`'s
//! `TcpTransport` — and shapes every *inbound* delivery according to a
//! shared, runtime-togglable [`FaultPlan`]: fixed delay plus jitter,
//! probabilistic loss, duplication, a reordering window, and hard
//! partitions. Chaos scripts (see [`crate::chaos`]) swap the plan's
//! [`LinkRules`] while the cluster runs — heal a partition, un-delay a
//! leader — and every node's wrapper picks the change up on its next
//! delivery. Every injected fault is counted once, in the wrapper's
//! metrics block.
//!
//! The same plan runs in virtual time: [`FaultPlan::network`] is a
//! simulator network that takes every delivery's fate from the same
//! function, so a [`LinkRules`] value is one fault on either clock.
//!
//! # Why shaping happens on the receive side
//!
//! Every directed link `src → dst` has exactly one receiver, so applying
//! the profile where deliveries surface (inside `dst`'s `recv`) covers
//! the whole link matrix with no coordination between nodes and no extra
//! threads: delayed messages sit in a local min-heap and the wrapper
//! simply wakes for whichever comes first — the heap head or the event
//! loop's own deadline. The send side stays untouched, which preserves
//! the TCP transport's encode-once broadcast path.
//!
//! The simulator has no receive side to shape: it decides a delivery's
//! time when the message is sent. [`FaultPlan::network`] therefore takes
//! the fate at send time — the same fate, drawn by the same function for
//! the same `k`-th delivery of the link, since a link delivers in the
//! order it sends on both clocks.
//!
//! Dropped messages are gone for good — there is no retransmission below
//! the protocol. That is exactly the paper's partial-synchrony reading:
//! before GST (while a fault plan is active) messages may be lost or
//! arbitrarily delayed; after GST (once the plan heals) links are
//! reliable again and liveness must return.
//!
//! # Determinism
//!
//! The fate of the `k`-th delivery on link `src → dst` is a pure function
//! of `(profile, seed, src, dst, k)` ([`LinkProfile`]'s `fate`): each
//! delivery draws a fresh splitmix-seeded [`StdRng`] keyed on the last
//! four, so per-link fault sequences are reproducible under a fixed seed
//! regardless of how the runtime interleaves links — thread scheduling can
//! reorder *when* messages arrive, never *which* ones survive. In virtual
//! time the whole run is a function of its seeds.
//!
//! Control-plane events are never shaped: client submissions, shutdown,
//! and self-deliveries (`src == dst`) pass through untouched unless an
//! explicit `(p, p)` pair rule says otherwise — a partitioned node still
//! talks to itself, like a real partition.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fastbft_obs::{Counter, Metrics, MetricsRegistry};
use fastbft_sim::{Network, SimDuration, SimMessage, SimTime};
use fastbft_types::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{ticks, NodeSeat};
use crate::transport::{Polled, Transport};

/// Shaping applied to one directed link (`src → dst`). The default is
/// fully transparent — every field zero/off.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkProfile {
    /// Fixed one-way delay added to every delivery.
    pub delay: Duration,
    /// Uniform random extra delay in `[0, jitter]` per delivery.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that a delivery is dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a delivery is duplicated (the copy
    /// arrives after the original, past the jitter window).
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a delivery draws an extra delay in
    /// `[0, reorder_window]`, letting later messages overtake it.
    pub reorder: f64,
    /// The window for [`reorder`](LinkProfile::reorder) draws.
    pub reorder_window: Duration,
    /// Hard partition: every delivery on this link is dropped.
    pub partitioned: bool,
}

impl LinkProfile {
    /// A profile that only adds `delay` plus uniform `jitter`.
    pub fn delayed(delay: Duration, jitter: Duration) -> Self {
        LinkProfile {
            delay,
            jitter,
            ..LinkProfile::default()
        }
    }

    /// A profile that only drops deliveries with probability `loss`.
    pub fn lossy(loss: f64) -> Self {
        LinkProfile {
            loss,
            ..LinkProfile::default()
        }
    }

    /// A hard partition: everything on the link is dropped.
    pub fn cut() -> Self {
        LinkProfile {
            partitioned: true,
            ..LinkProfile::default()
        }
    }

    /// Adds probabilistic loss to this profile.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Adds probabilistic duplication to this profile.
    pub fn with_duplication(mut self, duplicate: f64) -> Self {
        self.duplicate = duplicate;
        self
    }

    /// Adds a reordering window to this profile.
    pub fn with_reorder(mut self, reorder: f64, window: Duration) -> Self {
        self.reorder = reorder;
        self.reorder_window = window;
        self
    }

    /// Whether this profile changes nothing (the default).
    pub fn is_transparent(&self) -> bool {
        *self == LinkProfile::default()
    }

    /// The worst-case one-way delay this profile can inject.
    pub fn max_delay(&self) -> Duration {
        self.delay + self.jitter + self.reorder_window
    }

    /// The fate of the `k`-th delivery on `src → dst` under this profile,
    /// drawn under `seed` — the one decision both clocks take. A
    /// transparent or partitioned profile draws nothing.
    fn fate(&self, seed: u64, src: ProcessId, dst: ProcessId, k: u64) -> Fate {
        if self.is_transparent() {
            return Fate::Late {
                delay: Duration::ZERO,
                copy: None,
            };
        }
        if self.partitioned {
            return Fate::Cut;
        }
        let mut rng = StdRng::seed_from_u64(link_draw(seed, src, dst, k));
        if self.loss > 0.0 && rng.gen_bool(self.loss.clamp(0.0, 1.0)) {
            return Fate::Lost;
        }
        let mut delay = self.delay;
        if !self.jitter.is_zero() {
            delay += uniform_duration(&mut rng, self.jitter);
        }
        if self.reorder > 0.0
            && !self.reorder_window.is_zero()
            && rng.gen_bool(self.reorder.clamp(0.0, 1.0))
        {
            delay += uniform_duration(&mut rng, self.reorder_window);
        }
        // The copy always trails the original's worst case, so dup and
        // reorder stay distinguishable in tests.
        let copy = (self.duplicate > 0.0 && rng.gen_bool(self.duplicate.clamp(0.0, 1.0)))
            .then(|| delay + self.jitter + self.reorder_window + Duration::from_micros(50));
        Fate::Late { delay, copy }
    }
}

/// What becomes of one delivery.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    /// Dropped by a hard partition.
    Cut,
    /// Dropped by probabilistic loss.
    Lost,
    /// Delivered `delay` late (zero: on time), and once more `copy` late
    /// when a duplicate was drawn.
    Late {
        delay: Duration,
        copy: Option<Duration>,
    },
}

/// A complete set of link rules below a plan's default profile: explicit
/// pairs override per-source wildcards, which override per-destination
/// wildcards. A chaos step (see [`crate::chaos`]) is one of these, swapped
/// in whole by [`FaultPlan::set_rules`]; the empty set is a healed network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkRules {
    /// Directed `src → dst` rules — the only ones that reach a self-link.
    pub pairs: BTreeMap<(ProcessId, ProcessId), LinkProfile>,
    /// Everything a process sends (except its self-delivery).
    pub by_src: BTreeMap<ProcessId, LinkProfile>,
    /// Everything a process receives (except its self-delivery).
    pub by_dst: BTreeMap<ProcessId, LinkProfile>,
}

impl LinkRules {
    /// Every profile the rules name.
    pub(crate) fn profiles(&self) -> impl Iterator<Item = &LinkProfile> {
        self.pairs
            .values()
            .chain(self.by_src.values())
            .chain(self.by_dst.values())
    }
}

/// The resolved rule table: the rules, then the default.
#[derive(Clone, Debug, Default)]
struct PlanTable {
    default: LinkProfile,
    rules: LinkRules,
}

impl PlanTable {
    fn resolve(&self, src: ProcessId, dst: ProcessId) -> LinkProfile {
        let rules = &self.rules;
        if let Some(p) = rules.pairs.get(&(src, dst)) {
            return *p;
        }
        // Self-delivery is exempt from wildcard rules: quorum counting
        // includes the sender, and real partitions never cut loopback.
        if src == dst {
            return LinkProfile::default();
        }
        if let Some(p) = rules.by_src.get(&src) {
            return *p;
        }
        if let Some(p) = rules.by_dst.get(&dst) {
            return *p;
        }
        self.default
    }

    fn rule_count(&self) -> usize {
        self.rules.profiles().count() + usize::from(!self.default.is_transparent())
    }
}

/// One holder's view of a [`FaultPlan`]: the table as of the plan version
/// it last read, and how many fates each link has drawn — what keys the
/// next one. A [`FaultTransport`] holds one for the links into its node,
/// [`FaultPlan::network`] one for the whole matrix.
struct PlanView {
    plan: FaultPlan,
    seed: u64,
    version: u64,
    table: PlanTable,
    drawn: HashMap<(ProcessId, ProcessId), u64>,
}

impl PlanView {
    fn new(plan: FaultPlan, seed: u64) -> Self {
        // The order `refresh` reads in: a mutation landing in between
        // leaves a newer table under an older version, which the next
        // refresh re-reads — never the reverse.
        let version = plan.version();
        let table = plan.snapshot();
        PlanView {
            plan,
            seed,
            version,
            table,
            drawn: HashMap::new(),
        }
    }

    /// Re-reads the table if the plan changed since the last read; whether
    /// it did.
    fn refresh(&mut self) -> bool {
        let v = self.plan.version();
        if v == self.version {
            return false;
        }
        self.version = v;
        self.table = self.plan.snapshot();
        true
    }

    /// The profile of `src → dst` in the table last read, and the fate of
    /// its next delivery. Only a profile that draws counts the delivery.
    fn next(&mut self, src: ProcessId, dst: ProcessId) -> (LinkProfile, Fate) {
        let profile = self.table.resolve(src, dst);
        let k = if profile.is_transparent() || profile.partitioned {
            0
        } else {
            let drawn = self.drawn.entry((src, dst)).or_insert(0);
            *drawn += 1;
            *drawn
        };
        (profile, profile.fate(self.seed, src, dst, k))
    }
}

#[derive(Default)]
struct PlanInner {
    version: AtomicU64,
    table: Mutex<PlanTable>,
}

/// A shared, runtime-togglable fault plan: the single source of truth
/// every [`FaultTransport`] in a cluster consults. Cloning the handle
/// shares the plan; mutations are picked up by each wrapper on its next
/// delivery (a version counter invalidates the wrapper's snapshot). What
/// the wrappers inject is counted once, in their metrics blocks
/// ([`wrap_seats_metered`]).
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// A fresh, fully transparent plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn mutate(&self, f: impl FnOnce(&mut PlanTable)) {
        let mut table = self.inner.table.lock().expect("not poisoned");
        f(&mut table);
        self.inner.version.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn version(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }

    fn snapshot(&self) -> PlanTable {
        self.inner.table.lock().expect("not poisoned").clone()
    }

    /// How the plan shapes `src → dst` right now.
    #[cfg(test)]
    pub(crate) fn resolve(&self, src: ProcessId, dst: ProcessId) -> LinkProfile {
        self.snapshot().resolve(src, dst)
    }

    /// Sets the fallback profile for every link without a more specific
    /// rule.
    pub fn set_default(&self, profile: LinkProfile) {
        self.mutate(|t| t.default = profile);
    }

    /// Replaces every pair and wildcard rule with `rules`, under one
    /// version bump; the default profile stays.
    pub fn set_rules(&self, rules: LinkRules) {
        self.mutate(|t| t.rules = rules);
    }

    /// Cuts `node` off from every peer, both directions (self-delivery
    /// survives).
    pub fn isolate(&self, node: ProcessId) {
        self.mutate(|t| {
            t.rules.by_src.insert(node, LinkProfile::cut());
            t.rules.by_dst.insert(node, LinkProfile::cut());
        });
    }

    /// Drops every rule and the default: the network is whole again.
    pub fn heal(&self) {
        self.mutate(|t| *t = PlanTable::default());
    }

    /// This plan as a simulator network: each send is delivered at
    /// `sent_at + delta` plus what its link's profile adds (one [`TICK`](crate::TICK) of
    /// wall time per tick, rounded up), or never. Every fate is drawn as a
    /// [`FaultTransport`] on the same plan and `seed` draws it, at send
    /// time, and the plan's mutations take effect from the next send on.
    ///
    /// # Panics
    ///
    /// A send on a link whose profile duplicates panics: a simulator
    /// network delivers each send once.
    pub fn network(&self, delta: SimDuration, seed: u64) -> Network {
        let mut view = PlanView::new(self.clone(), seed);
        Network::scripted(delta, move |info| {
            view.refresh();
            let (profile, fate) = view.next(info.from, info.to);
            let once = "a simulator network delivers each send once: no duplication";
            assert!(profile.duplicate == 0.0, "{once}");
            match fate {
                Fate::Cut | Fate::Lost => SimTime::NEVER,
                Fate::Late { delay, .. } => info.sent_at + delta + ticks(delay),
            }
        })
    }
}

/// A delivery held back by the shaper, ordered by due time (insertion
/// order breaks ties, so zero-jitter links stay FIFO).
struct Held<M> {
    due: Instant,
    seq: u64,
    from: ProcessId,
    msg: M,
}

impl<M> PartialEq for Held<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Held<M> {}
impl<M> PartialOrd for Held<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Held<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-delivery RNG key: a pure function of `(seed, src, dst, k)`.
fn link_draw(seed: u64, src: ProcessId, dst: ProcessId, k: u64) -> u64 {
    let mut state = seed;
    let mut acc = splitmix64(&mut state);
    for v in [u64::from(src.0), u64::from(dst.0), k] {
        state ^= v;
        acc ^= splitmix64(&mut state);
    }
    acc
}

fn uniform_duration(rng: &mut StdRng, upto: Duration) -> Duration {
    let nanos = upto.as_nanos().min(u128::from(u64::MAX)) as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    Duration::from_nanos(rng.gen_range(0..=nanos))
}

/// A [`Transport`] wrapper that shapes inbound deliveries according to a
/// shared [`FaultPlan`]. See the module docs for semantics; build a whole
/// cluster's worth with [`wrap_seats`] / [`wrap_seats_metered`].
pub struct FaultTransport<M: SimMessage, T: Transport<M>> {
    inner: T,
    id: ProcessId,
    metrics: Arc<Metrics>,
    view: PlanView,
    held: BinaryHeap<Reverse<Held<M>>>,
    hseq: u64,
}

impl<M: SimMessage, T: Transport<M>> FaultTransport<M, T> {
    /// Wraps `inner` (node `id`'s transport) on `plan`, drawing fault
    /// decisions from `seed`. It counts what it injects into a block of its
    /// own until [`with_metrics`](Self::with_metrics) names another.
    pub fn new(inner: T, id: ProcessId, plan: FaultPlan, seed: u64) -> Self {
        let wrapper = FaultTransport {
            inner,
            id,
            metrics: Arc::default(),
            view: PlanView::new(plan, seed),
            held: BinaryHeap::new(),
            hseq: 0,
        };
        wrapper.publish_rule_count();
        wrapper
    }

    /// Counts injected faults into `metrics` instead (usually the same
    /// per-replica block the node's actor records into), starting with
    /// the rules already in force.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = metrics;
        self.publish_rule_count();
        self
    }

    fn refresh(&mut self) {
        if self.view.refresh() {
            self.publish_rule_count();
        }
    }

    fn publish_rule_count(&self) {
        self.metrics
            .fault_links_shaped
            .set(self.view.table.rule_count() as u64);
    }

    fn count(&self, pick: impl Fn(&Metrics) -> &Counter) {
        pick(&self.metrics).inc();
    }

    fn push_held(&mut self, due: Instant, from: ProcessId, msg: M) {
        self.hseq += 1;
        self.held.push(Reverse(Held {
            due,
            seq: self.hseq,
            from,
            msg,
        }));
    }

    /// Applies the link profile to one delivery: returns it if it passes
    /// through untouched, otherwise queues/drops it and returns `None`.
    fn admit(&mut self, from: ProcessId, msg: M, now: Instant) -> Option<M> {
        let (delay, copy) = match self.view.next(from, self.id).1 {
            Fate::Cut => {
                self.count(|m| &m.fault_partition_drop_total);
                return None;
            }
            Fate::Lost => {
                self.count(|m| &m.fault_drop_injected_total);
                return None;
            }
            Fate::Late { delay, copy } => (delay, copy),
        };
        if let Some(copy) = copy {
            self.push_held(now + copy, from, msg.clone());
            self.count(|m| &m.fault_dup_injected_total);
        }
        if delay.is_zero() {
            return Some(msg);
        }
        self.count(|m| &m.fault_delay_injected_total);
        self.push_held(now + delay, from, msg);
        None
    }

    fn next_due(&self) -> Option<Instant> {
        self.held.peek().map(|h| h.0.due)
    }

    fn pop_due(&mut self, now: Instant) -> Option<(ProcessId, M)> {
        if self.next_due()? <= now {
            let held = self.held.pop().expect("peeked").0;
            return Some((held.from, held.msg));
        }
        None
    }
}

impl<M: SimMessage, T: Transport<M>> Transport<M> for FaultTransport<M, T> {
    fn send(&mut self, to: ProcessId, msg: M) {
        // Shaping is receive-side (see module docs): every directed link
        // is enforced by its receiver's wrapper, so the send path — and
        // the inner transport's encode-once broadcast — stays untouched.
        self.inner.send(to, msg);
    }

    fn broadcast(&mut self, msg: M) {
        self.inner.broadcast(msg);
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Polled<M> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            self.refresh();
            let now = Instant::now();
            if let Some((from, msg)) = self.pop_due(now) {
                return Polled::Delivered(from, msg);
            }
            let wake = match (deadline, self.next_due()) {
                (None, None) => None,
                (Some(d), None) => Some(d),
                (None, Some(u)) => Some(u),
                (Some(d), Some(u)) => Some(d.min(u)),
            };
            let inner_timeout = wake.map(|w| w.saturating_duration_since(now));
            match self.inner.recv(inner_timeout) {
                Polled::Delivered(from, msg) => {
                    let now = Instant::now();
                    if let Some(msg) = self.admit(from, msg, now) {
                        return Polled::Delivered(from, msg);
                    }
                }
                Polled::DeliveredBatch(from, msgs) => {
                    let now = Instant::now();
                    // Shaped per message; what passes through stays in order.
                    let mut kept: Vec<M> = msgs
                        .into_iter()
                        .filter_map(|msg| self.admit(from, msg, now))
                        .collect();
                    match kept.len() {
                        0 => {}
                        1 => return Polled::Delivered(from, kept.remove(0)),
                        _ => return Polled::DeliveredBatch(from, kept),
                    }
                }
                Polled::TimedOut => {
                    let now = Instant::now();
                    if self.next_due().is_some_and(|due| due <= now) {
                        continue;
                    }
                    if deadline.is_none_or(|d| now >= d) {
                        return Polled::TimedOut;
                    }
                    // Woken early for a held head that is not due yet;
                    // keep waiting.
                }
                Polled::Closed => {
                    // Every feeder is gone, but held deliveries must
                    // still surface on time before we report closure.
                    let Some(due) = self.next_due() else {
                        return Polled::Closed;
                    };
                    let now = Instant::now();
                    if let Some(d) = deadline {
                        if now >= d {
                            return Polled::TimedOut;
                        }
                        std::thread::sleep(due.min(d).saturating_duration_since(now));
                    } else {
                        std::thread::sleep(due.saturating_duration_since(now));
                    }
                }
                other => return other,
            }
        }
    }
}

/// Wraps every seat's transport in a [`FaultTransport`] on the shared
/// `plan`. Seat `i` keeps its actor and control sender; its
/// wrapper is keyed to process `pᵢ₊₁` and draws from `seed`.
///
/// Wrap **all** seats of a cluster: each directed link is enforced by its
/// receiver, so an unwrapped seat would receive unshaped traffic.
pub fn wrap_seats<M: SimMessage, T: Transport<M>>(
    seats: Vec<NodeSeat<M, T>>,
    plan: &FaultPlan,
    seed: u64,
) -> Vec<NodeSeat<M, FaultTransport<M, T>>> {
    seats
        .into_iter()
        .enumerate()
        .map(|(i, seat)| NodeSeat {
            actor: seat.actor,
            transport: FaultTransport::new(
                seat.transport,
                ProcessId::from_index(i),
                plan.clone(),
                seed,
            ),
            control: seat.control,
            verify: seat.verify,
        })
        .collect()
}

/// [`wrap_seats`] with a metrics plane: seat `i`'s wrapper reports
/// injected faults into `registry.replica(i)`, alongside the actor's and
/// transport's own counters.
pub fn wrap_seats_metered<M: SimMessage, T: Transport<M>>(
    seats: Vec<NodeSeat<M, T>>,
    plan: &FaultPlan,
    seed: u64,
    registry: &MetricsRegistry,
) -> Vec<NodeSeat<M, FaultTransport<M, T>>> {
    assert!(
        registry.len() >= seats.len(),
        "metrics registry must cover all {} seats",
        seats.len()
    );
    wrap_seats(seats, plan, seed)
        .into_iter()
        .enumerate()
        .map(|(i, seat)| NodeSeat {
            transport: seat.transport.with_metrics(registry.replica(i)),
            ..seat
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::transport::{ChannelTransport, Inbound};
    use crossbeam::channel::Sender;
    use fastbft_sim::{Simulation, TraceEvent};

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl SimMessage for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
        fn wire_size(&self) -> usize {
            1024
        }
    }

    type Wrapped = FaultTransport<Ping, ChannelTransport<Ping>>;
    type PairFixture = (Wrapped, ChannelTransport<Ping>, Sender<Inbound<Ping>>);

    /// A two-node fixture: returns p1's wrapped transport, p2's
    /// raw transport (to send from), and p1's control sender.
    fn pair(plan: &FaultPlan, seed: u64) -> PairFixture {
        let mut mesh = ChannelTransport::<Ping>::mesh(2);
        let (t2, _) = mesh.remove(1);
        let (t1, control) = mesh.remove(0);
        let t1 = FaultTransport::new(t1, ProcessId(1), plan.clone(), seed);
        (t1, t2, control)
    }

    /// What p1's wrapper counted into its metrics block.
    fn counted(t1: &Wrapped, pick: impl Fn(&Metrics) -> &Counter) -> u64 {
        pick(&t1.metrics).get()
    }

    /// Rules shaping everything p2 sends.
    fn from_p2(profile: LinkProfile) -> LinkRules {
        LinkRules {
            by_src: BTreeMap::from([(ProcessId(2), profile)]),
            ..LinkRules::default()
        }
    }

    /// A plan configured before wrapping exports its rules from the start,
    /// not only after its next mutation.
    #[test]
    fn a_metered_wrapper_publishes_the_rules_already_in_force() {
        let plan = FaultPlan::new();
        plan.set_default(LinkProfile::delayed(
            Duration::from_millis(2),
            Duration::ZERO,
        ));
        let (t1, _t2, _control) = pair(&plan, 7);
        let shaped = &t1.metrics.fault_links_shaped;
        assert_eq!(shaped.get(), 1);
    }

    #[test]
    fn transparent_plan_passes_through() {
        let plan = FaultPlan::new();
        let (mut t1, mut t2, _control) = pair(&plan, 7);
        t2.send(ProcessId(1), Ping(1));
        assert!(matches!(
            t1.recv(Some(Duration::from_secs(1))),
            Polled::Delivered(ProcessId(2), Ping(1))
        ));
        assert_eq!(counted(&t1, |m| &m.fault_delay_injected_total), 0);
    }

    #[test]
    fn partition_drops_and_heal_restores() {
        let plan = FaultPlan::new();
        let (mut t1, mut t2, _control) = pair(&plan, 7);
        plan.isolate(ProcessId(2));
        t2.send(ProcessId(1), Ping(1));
        assert!(matches!(
            t1.recv(Some(Duration::from_millis(50))),
            Polled::TimedOut
        ));
        assert_eq!(counted(&t1, |m| &m.fault_partition_drop_total), 1);
        plan.set_rules(LinkRules::default());
        t2.send(ProcessId(1), Ping(2));
        assert!(matches!(
            t1.recv(Some(Duration::from_secs(1))),
            Polled::Delivered(ProcessId(2), Ping(2))
        ));
    }

    #[test]
    fn isolation_spares_self_delivery() {
        let plan = FaultPlan::new();
        let (mut t1, _t2, _control) = pair(&plan, 7);
        plan.isolate(ProcessId(1));
        t1.send(ProcessId(1), Ping(9));
        assert!(matches!(
            t1.recv(Some(Duration::from_secs(1))),
            Polled::Delivered(ProcessId(1), Ping(9))
        ));
    }

    #[test]
    fn delay_holds_messages_until_due() {
        let plan = FaultPlan::new();
        plan.set_rules(from_p2(LinkProfile::delayed(
            Duration::from_millis(60),
            Duration::ZERO,
        )));
        let (mut t1, mut t2, _control) = pair(&plan, 7);
        t2.send(ProcessId(1), Ping(1));
        let start = Instant::now();
        // Not deliverable before the delay elapses…
        assert!(matches!(
            t1.recv(Some(Duration::from_millis(5))),
            Polled::TimedOut
        ));
        // …but arrives once it is due.
        assert!(matches!(
            t1.recv(Some(Duration::from_secs(2))),
            Polled::Delivered(ProcessId(2), Ping(1))
        ));
        assert!(
            start.elapsed() >= Duration::from_millis(55),
            "arrived early"
        );
        assert_eq!(counted(&t1, |m| &m.fault_delay_injected_total), 1);
    }

    #[test]
    fn zero_jitter_delay_preserves_fifo() {
        let plan = FaultPlan::new();
        plan.set_rules(from_p2(LinkProfile::delayed(
            Duration::from_millis(20),
            Duration::ZERO,
        )));
        let (mut t1, mut t2, _control) = pair(&plan, 7);
        for i in 0..5 {
            t2.send(ProcessId(1), Ping(i));
        }
        for i in 0..5 {
            match t1.recv(Some(Duration::from_secs(2))) {
                Polled::Delivered(ProcessId(2), Ping(got)) => assert_eq!(got, i),
                other => panic!("unexpected poll result: {other:?}"),
            }
        }
    }

    /// The fate of a delivery is one function on both clocks: 64 sends on
    /// a lossy, jittered link lose the same deliveries and draw the same
    /// delays, to the tick, through a `FaultTransport` and through
    /// `FaultPlan::network`; another seed draws other fates.
    #[test]
    fn loss_is_deterministic_per_link_sequence() {
        let plan = FaultPlan::new();
        let (ms, zero) = (Duration::from_millis, SimTime::ZERO);
        plan.set_default(LinkProfile::delayed(ms(1), ms(2)).with_loss(0.5));
        // Each send's fate: `None` if lost, else its delay in ticks. Admitted
        // at one instant, a held delivery is late by its due time minus it.
        let wall = |seed: u64| -> Vec<Option<SimDuration>> {
            let (mut t1, _t2, _control) = pair(&plan, seed);
            let at = Instant::now();
            for i in 0..64 {
                assert_eq!(t1.admit(ProcessId(2), Ping(i), at), None, "none is on time");
            }
            let mut fates = vec![None; 64];
            for Reverse(held) in t1.held.drain() {
                fates[held.msg.0 as usize] = Some(ticks(held.due - at));
            }
            fates
        };
        // With no base delay, a send is delivered at its drawn delay.
        let simulated = |seed: u64| -> Vec<Option<SimDuration>> {
            let mut sim = Simulation::new(plan.network(SimDuration::ZERO, seed), 0);
            for i in 0..64 {
                sim.inject_message(ProcessId(2), ProcessId(1), Ping(i), zero);
            }
            let records = sim.trace().records().iter();
            records
                .map(|r| match r.event {
                    TraceEvent::Send { deliver_at, .. } => deliver_at,
                    _ => unreachable!("only sends were traced"),
                })
                .map(|at| (at != SimTime::NEVER).then_some(at.since(zero)))
                .collect()
        };
        let a = wall(42);
        assert_eq!(a, simulated(42), "one fate on both clocks");
        assert_eq!(a, wall(42), "same seed, same fates");
        assert_ne!(a, wall(43), "different seed, different fates");
        let lost = a.iter().filter(|fate| fate.is_none()).count();
        assert!(0 < lost && lost < 64, "loss neither total nor absent");
        let delays: BTreeSet<SimDuration> = a.iter().flatten().copied().collect();
        assert!(delays.len() > 1, "the jitter drew more than one delay");
    }

    #[test]
    #[should_panic(expected = "delivers each send once")]
    fn a_simulator_network_refuses_duplication() {
        let plan = FaultPlan::new();
        plan.set_default(LinkProfile::default().with_duplication(0.5));
        let mut sim = Simulation::new(plan.network(SimDuration::DELTA, 7), 0);
        sim.inject_message(ProcessId(2), ProcessId(1), Ping(0), SimTime::ZERO);
    }

    #[test]
    fn duplication_injects_a_trailing_copy() {
        let plan = FaultPlan::new();
        plan.set_rules(from_p2(LinkProfile::default().with_duplication(1.0)));
        let (mut t1, mut t2, _control) = pair(&plan, 7);
        t2.send(ProcessId(1), Ping(3));
        let mut seen = 0;
        while let Polled::Delivered(ProcessId(2), Ping(3)) =
            t1.recv(Some(Duration::from_millis(200)))
        {
            seen += 1;
        }
        assert_eq!(seen, 2, "original plus exactly one duplicate");
        assert_eq!(counted(&t1, |m| &m.fault_dup_injected_total), 1);
    }

    #[test]
    fn client_and_shutdown_bypass_shaping() {
        let plan = FaultPlan::new();
        plan.set_default(LinkProfile::cut());
        let (mut t1, _t2, control) = pair(&plan, 7);
        control
            .send(Inbound::Client(fastbft_types::Value::from_u64(5)))
            .unwrap();
        assert!(matches!(t1.recv(None), Polled::Client(_)));
        control.send(Inbound::Shutdown).unwrap();
        assert!(matches!(t1.recv(None), Polled::Shutdown));
    }

    #[test]
    fn pair_rule_overrides_wildcards() {
        let plan = FaultPlan::new();
        plan.set_rules(LinkRules {
            pairs: BTreeMap::from([((ProcessId(2), ProcessId(1)), LinkProfile::default())]),
            ..from_p2(LinkProfile::cut())
        });
        let (mut t1, mut t2, _control) = pair(&plan, 7);
        t2.send(ProcessId(1), Ping(4));
        assert!(matches!(
            t1.recv(Some(Duration::from_secs(1))),
            Polled::Delivered(ProcessId(2), Ping(4))
        ));
    }

    #[test]
    fn batches_are_shaped_per_message() {
        let plan = FaultPlan::new();
        plan.set_rules(from_p2(LinkProfile::lossy(1.0)));
        let (mut t1, _t2, control) = pair(&plan, 7);
        control
            .send(Inbound::PeerBatch(
                ProcessId(2),
                vec![Ping(1), Ping(2), Ping(3)],
            ))
            .unwrap();
        assert!(matches!(
            t1.recv(Some(Duration::from_millis(50))),
            Polled::TimedOut
        ));
        assert_eq!(counted(&t1, |m| &m.fault_drop_injected_total), 3);
    }

    #[test]
    fn held_messages_survive_feeder_closure() {
        let plan = FaultPlan::new();
        plan.set_rules(from_p2(LinkProfile::delayed(
            Duration::from_millis(40),
            Duration::ZERO,
        )));
        let (mut t1, mut t2, control) = pair(&plan, 7);
        t2.send(ProcessId(1), Ping(8));
        // Give the queued message a moment to be admitted into the heap.
        assert!(matches!(
            t1.recv(Some(Duration::from_millis(5))),
            Polled::TimedOut
        ));
        drop(t2);
        drop(control);
        t1.inner_mut_clear_peers_for_test();
        assert!(matches!(
            t1.recv(Some(Duration::from_secs(2))),
            Polled::Delivered(ProcessId(2), Ping(8))
        ));
        assert!(matches!(
            t1.recv(Some(Duration::from_millis(10))),
            Polled::Closed
        ));
    }

    impl FaultTransport<Ping, ChannelTransport<Ping>> {
        /// Severs the inner transport's own self-feeder so `recv` reports
        /// `Closed` (mirrors the channel transport's closure test).
        fn inner_mut_clear_peers_for_test(&mut self) {
            self.inner.clear_peers_for_test();
        }
    }
}
