//! Leader suspicion across slots: which seats this node has watched fail
//! as leaders, so it never waits on them again — the next slot they would
//! lead first starts out wishing for the first view with a live leader.
//!
//! Every slot is a fresh [`Replica`] with a rotating first leader and no
//! memory, so a seat that is down costs a full view timeout in every slot
//! it leads first — `f` dead seats cost `f` of every `n` slots a timeout,
//! and in-order apply spreads that over every command. The table is the
//! memory: a small set of seats, fed by the two [`LeaderSignal`]s and
//! consulted after every callback into an instance ([`steer`]).
//!
//! * **Suspect** a seat only when *this node's own* view timer expired in a
//!   view that seat led with no valid proposal from it. Nothing a peer says
//!   can put a seat in the table.
//! * **Clear** it on any verified proposal from that seat for a view it
//!   leads, in any open slot, current or stale.
//! * **Skip**: whenever an instance sits in, or wishes for, a view whose
//!   leader is suspected, raise its wish to the next view whose leader is
//!   not — at slot open (a suspected first leader is never waited for) and
//!   mid-slot (a timeout or an adopted wish that lands on another suspect
//!   moves on at once). At most `f` views are skipped per wish, and none
//!   while more than `f` seats are suspected — at most `f` seats are
//!   faulty, so a longer list means *this node* is the one cut off.
//!
//! * **Revoke**: a skipped first leader still costs its slot a wish-driven
//!   view change — 7 delays against the slow path's 3 — and in-order apply
//!   parks every later slot behind it. So a node whose pipeline overlaps
//!   (two or more of its proposals running in live-led slots) proposes the
//!   empty batch in such a slot, keeping its commands for live-led ones,
//!   and starts those slots as soon as they enter its window
//!   ([`skipped_first_leader`] is the test, `SmrNode::open_slot` the
//!   decision, `SmrNode::revoke_ahead` the loop): by the time the log
//!   reaches them they have decided the empty batch.
//!
//! A view change needs `f + 1` timers to fire before the rest adopt the
//! wish, so one timeout teaches at least `f + 1` correct nodes — not all of
//! them. Skipping on every wish is what makes that enough: the nodes that
//! know a seat wish past it, the rest adopt, and anyone whose adopted wish
//! lands on a seat *it* knows raises again, so no view led by a seat that
//! `f + 1` correct nodes suspect is ever waited out.
//!
//! Safety never depends on the table: all it produces is a `Wish`, exactly
//! what an early timer would have sent, and the view synchronizer is
//! liveness-only; a revoked slot is an ordinary instance started early
//! with the input any idle node proposes. It is local soft state — not
//! in snapshots, empty after a restart or a snapshot install (one timeout
//! per dead seat to re-learn).
//!
//! [`steer`]: SuspicionTable::steer
//! [`skipped_first_leader`]: SuspicionTable::skipped_first_leader

use std::collections::BTreeSet;

use fastbft_core::message::Message;
use fastbft_core::replica::{LeaderSignal, Replica};
use fastbft_obs::Metrics;
use fastbft_sim::Effects;
use fastbft_types::{Config, ProcessId, View};

/// Flight-recorder kind of the `suspect pX (slot s, view v)` / `clear pX` /
/// `revoke slot s (leader pX)` events.
pub(crate) const EVENT_KIND: &str = "leader-suspicion";

/// The seats one node currently suspects. See the module docs for the rule.
#[derive(Debug, Default)]
pub(crate) struct SuspicionTable {
    suspected: BTreeSet<ProcessId>,
}

impl SuspicionTable {
    /// The seats currently suspected, in id order.
    pub(crate) fn suspects(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.suspected.iter().copied()
    }

    /// Whether no seat is suspected (the healthy cluster's one check).
    pub(crate) fn is_empty(&self) -> bool {
        self.suspected.is_empty()
    }

    /// The first leader under `cfg` (a slot's rotated leader map), if an
    /// instance opened now would start out wishing past it.
    pub(crate) fn skipped_first_leader(&self, cfg: &Config) -> Option<ProcessId> {
        (self.first_live_view(cfg, View::FIRST) > View::FIRST).then(|| cfg.leader(View::FIRST))
    }

    /// Call after every callback into `replica`, the instance of `slot`:
    /// takes the callback's [`LeaderSignal`] into the table, then raises
    /// the instance's wish past any suspected leader it would otherwise
    /// wait on (the effects land in `fx`).
    pub(crate) fn steer(
        &mut self,
        slot: u64,
        replica: &mut Replica,
        fx: &mut Effects<Message>,
        metrics: &Metrics,
    ) {
        self.observe(slot, replica.take_leader_signal(), metrics);
        // A decided instance has nothing left to synchronize for.
        if self.suspected.is_empty() || replica.decided().is_some() {
            return;
        }
        let heading = replica.view().max(replica.wish().unwrap_or(View::FIRST));
        let target = self.first_live_view(replica.config(), heading);
        if target > heading {
            metrics.view_skip_total.inc();
            replica.wish_for(target, fx);
        }
    }

    fn observe(&mut self, slot: u64, signal: Option<LeaderSignal>, metrics: &Metrics) {
        match signal {
            Some(LeaderSignal::TimedOut { leader, view }) if self.suspected.insert(leader) => {
                metrics.leader_suspect_total.inc();
                metrics.leader_suspected.set(self.suspected.len() as u64);
                metrics.recorder.record(
                    EVENT_KIND,
                    format!("suspect p{} (slot {slot}, view {})", leader.0, view.0),
                );
            }
            Some(LeaderSignal::Proposed { leader }) if self.suspected.remove(&leader) => {
                self.note_cleared(leader, metrics);
            }
            _ => {}
        }
    }

    /// Forgets everything (snapshot install: a node that needed state
    /// transfer was cut off, and its timeouts say nothing about its peers).
    pub(crate) fn reset(&mut self, metrics: &Metrics) {
        while let Some(seat) = self.suspected.pop_first() {
            self.note_cleared(seat, metrics);
        }
    }

    fn note_cleared(&self, seat: ProcessId, metrics: &Metrics) {
        metrics.leader_clear_total.inc();
        metrics.leader_suspected.set(self.suspected.len() as u64);
        metrics
            .recorder
            .record(EVENT_KIND, format!("clear p{}", seat.0));
    }

    /// The first view at or after `from` whose leader under `cfg` (the
    /// slot's rotated leader map) is not suspected; `from` itself while
    /// more than `f` seats are.
    fn first_live_view(&self, cfg: &Config, from: View) -> View {
        if self.suspected.len() > cfg.f() {
            return from;
        }
        // At most f suspects among the f + 1 distinct leaders of f + 1
        // consecutive views (n > f + 1), so the search always finds one.
        (from.0..=from.0 + cfg.f() as u64)
            .map(View)
            .find(|v| !self.suspected.contains(&cfg.leader(*v)))
            .unwrap_or(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed_out(leader: u32, view: u64) -> Option<LeaderSignal> {
        Some(LeaderSignal::TimedOut {
            leader: ProcessId(leader),
            view: View(view),
        })
    }

    fn proposed(leader: u32) -> Option<LeaderSignal> {
        Some(LeaderSignal::Proposed {
            leader: ProcessId(leader),
        })
    }

    fn suspects(table: &SuspicionTable) -> Vec<u32> {
        table.suspects().map(|p| p.0).collect()
    }

    #[test]
    fn own_timeouts_suspect_and_verified_proposals_clear() {
        let metrics = Metrics::new();
        let mut table = SuspicionTable::default();
        table.observe(4, timed_out(6, 1), &metrics);
        table.observe(4, timed_out(7, 2), &metrics);
        table.observe(4, None, &metrics);
        assert_eq!(suspects(&table), vec![6, 7]);
        // A proposal from an unsuspected seat changes nothing.
        table.observe(9, proposed(2), &metrics);
        assert_eq!(suspects(&table), vec![6, 7]);
        table.observe(9, proposed(6), &metrics);
        assert_eq!(suspects(&table), vec![7]);
        table.reset(&metrics);
        assert!(suspects(&table).is_empty());
    }

    #[test]
    fn skipping_starts_at_the_first_suspected_leader_only() {
        let metrics = Metrics::new();
        let cfg = Config::new(7, 2, 1).unwrap();
        let mut table = SuspicionTable::default();
        // leader(v) under offset o is p_{((v + o) mod 7) + 1}.
        let led_by_6_then_7 = cfg.with_leader_offset(4);
        assert_eq!(led_by_6_then_7.leader(View(1)), ProcessId(6));
        assert_eq!(led_by_6_then_7.leader(View(2)), ProcessId(7));
        assert_eq!(table.first_live_view(&led_by_6_then_7, View(1)), View(1));

        table.observe(4, timed_out(6, 1), &metrics);
        assert_eq!(table.first_live_view(&led_by_6_then_7, View(1)), View(2));
        table.observe(4, timed_out(7, 2), &metrics);
        assert_eq!(table.first_live_view(&led_by_6_then_7, View(1)), View(3));
        // Mid-slot: a wish for view 2 lands on p7 and moves on.
        assert_eq!(table.first_live_view(&led_by_6_then_7, View(2)), View(3));
        assert_eq!(table.first_live_view(&led_by_6_then_7, View(3)), View(3));
        // A view with a live leader is left alone, whoever comes next.
        assert_eq!(
            table.first_live_view(&cfg.with_leader_offset(3), View(1)),
            View(1)
        );
        assert_eq!(
            table.first_live_view(&cfg.with_leader_offset(5), View(1)),
            View(2)
        );
    }

    #[test]
    fn more_than_f_suspects_means_no_skipping() {
        let metrics = Metrics::new();
        let cfg = Config::new(7, 2, 1).unwrap();
        let mut table = SuspicionTable::default();
        for seat in [5, 6, 7] {
            table.observe(0, timed_out(seat, 1), &metrics);
        }
        for offset in 0..7 {
            assert_eq!(
                table.first_live_view(&cfg.with_leader_offset(offset), View(1)),
                View(1),
                "f + 1 suspects: this node is the partitioned one"
            );
        }
        // Back at f the skipping resumes, never past f views.
        table.observe(1, proposed(5), &metrics);
        assert_eq!(
            table.first_live_view(&cfg.with_leader_offset(4), View(1)),
            View(3)
        );
    }

    #[test]
    fn steering_raises_an_instance_wish_and_records_what_it_did() {
        use fastbft_crypto::KeyDirectory;
        use fastbft_sim::{Actor, SimTime};
        use fastbft_types::Value;

        let m = &Metrics::new();
        let cfg = Config::new(7, 2, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(7, 3);
        let mut table = SuspicionTable::default();
        let instance = |offset: u64| {
            Replica::new(
                cfg.with_leader_offset(offset),
                pairs[0].clone(),
                dir.clone(),
                Value::from_u64(1),
            )
        };
        let wishes = |fx: &Effects<Message>| -> Vec<u64> {
            fx.sent()
                .into_iter()
                .filter_map(|(_, m)| match m {
                    Message::Wish(w) => Some(w.view.0),
                    _ => None,
                })
                .collect()
        };

        // The view-1 timer of a slot led by p6 expires: p6 is suspected,
        // and the instance's own wish for view 2 (p7, unknown) stands.
        let mut replica = instance(4);
        let mut fx = Effects::new(ProcessId(1), 7, SimTime::ZERO);
        replica.on_start(&mut fx);
        table.steer(4, &mut replica, &mut fx, m);
        assert!(wishes(&fx).is_empty(), "nothing suspected yet");
        let timer = fx.timers_set()[0].1;
        replica.on_timer(timer, &mut fx);
        table.steer(4, &mut replica, &mut fx, m);
        table.steer(4, &mut replica, &mut fx, m); // idempotent
        assert_eq!(suspects(&table), vec![6]);
        assert_eq!(wishes(&fx), vec![2; 6]);
        assert_eq!(m.leader_suspect_total.get(), 1);
        assert_eq!(m.leader_suspected.get(), 1);
        assert_eq!(m.view_skip_total.get(), 0);

        // The next slot p6 leads first opens wishing for view 2 …
        let mut replica = instance(11);
        let mut fx = Effects::new(ProcessId(1), 7, SimTime::ZERO);
        replica.on_start(&mut fx);
        table.steer(11, &mut replica, &mut fx, m);
        assert_eq!(wishes(&fx), vec![2; 6]);
        assert_eq!(m.view_skip_total.get(), 1);
        // … and a slot led by a live seat opens as ever.
        let mut replica = instance(0);
        let mut fx = Effects::new(ProcessId(1), 7, SimTime::ZERO);
        replica.on_start(&mut fx);
        table.steer(0, &mut replica, &mut fx, m);
        assert!(wishes(&fx).is_empty());
        assert_eq!(m.view_skip_total.get(), 1);

        table.observe(18, proposed(6), m);
        table.observe(19, proposed(6), m); // already clear
        assert_eq!(m.leader_clear_total.get(), 1);
        assert_eq!(m.leader_suspected.get(), 0);
        let details: Vec<String> = m
            .recorder
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EVENT_KIND)
            .map(|e| e.detail)
            .collect();
        assert_eq!(details, vec!["suspect p6 (slot 4, view 1)", "clear p6"]);
    }
}
