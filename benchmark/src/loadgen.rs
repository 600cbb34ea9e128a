//! The load generator and collector: one thread that submits the seeded
//! commands, reads `applied_events()` itself and feeds the oracle.
//!
//! A command counts as **committed** when `f + 1` live replicas have
//! applied it — what a BFT client waits for. Closed-loop latency runs from
//! submission, open-loop latency from when the command was *due*, so a
//! stall of the generator or the cluster is charged to every command it
//! delays, and the open loop never skips a due command.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fastbft_obs::MetricsRegistry;
use fastbft_runtime::Applied;
use fastbft_smr::{parse_client_tag, SmrClusterHandle};

use crate::oracle::Oracle;
use crate::workload::{CommandGen, Load, Workload, CALLERS};

/// Events drained per wake-up before the generator looks at its schedule
/// again: bounds how late a due command can go out behind a burst.
const DRAIN_PER_WAKEUP: usize = 512;
/// How often timeouts are checked and gauges sampled.
const SCAN_EVERY: Duration = Duration::from_millis(20);
/// The window is reported slice by slice (see `Summary` in `main.rs`): a
/// slice's own percentiles and rate, and a low quantile over slices, so
/// that the seconds in which the shared host was busy do not set the run's
/// figures.
pub const SLICE: Duration = Duration::from_secs(1);
/// Warm-up (part of set-up) gives up after this long.
const WARMUP_LIMIT: Duration = Duration::from_secs(30);
/// While waiting for the replicas to converge: how long without any event
/// before the generator starts offering filler commands, and how often.
const NUDGE_AFTER: Duration = Duration::from_millis(200);
const NUDGE_EVERY: Duration = Duration::from_millis(5);
const NUDGES_IN_FLIGHT: u64 = 8;

/// A submitted command that has not reached its commit quorum yet.
struct Pending {
    due: Instant,
    caller: usize,
    measured: bool,
    applied: usize,
    /// Ran out its commit limit: counted as failed, its caller released.
    failed: bool,
}

struct Commit {
    caller: usize,
    due: Instant,
    at: Instant,
    measured: bool,
}

/// What the generator saw during one measured window.
#[derive(Debug, Default)]
pub struct Window {
    pub seconds: f64,
    /// Commands due in the window.
    pub attempted: u64,
    /// Of those, not committed within the workload's limit.
    pub failed: u64,
    /// Commits that happened inside the window.
    pub committed: u64,
    /// From the window's start to the last of those commits.
    pub commit_span: Duration,
    /// Due (or submit) time to commit, for every attempted command that
    /// committed in time, grouped by the [`SLICE`] of the window the command
    /// was due in.
    pub latencies_ns: Vec<Vec<u64>>,
    /// Commits that happened inside each [`SLICE`] of the window.
    pub committed_by_slice: Vec<u64>,
    /// Worst lateness of a submission against its due time.
    pub gen_late_max: Duration,
    /// Longest gap between consecutive commits.
    pub stall_max: Duration,
    /// Peaks of two gauges, sampled every [`SCAN_EVERY`] (traced run).
    pub stash_peak: u64,
    pub apply_queue_peak: u64,
}

/// Open-loop due times: command `i` is due at `start + i / rate`, computed
/// from `i` each time so rounding never accumulates.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub rate: u64,
}

impl Schedule {
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos(i.saturating_mul(1_000_000_000) / self.rate)
    }

    /// Every command due by `now` and before `end`, starting at `*next`:
    /// never skips one, however late the caller is.
    pub fn take_due(&self, next: &mut u64, now: Instant, end: Instant) -> Vec<(u64, Instant)> {
        let mut out = Vec::new();
        loop {
            let due = self.due(*next);
            if due > now || due >= end {
                return out;
            }
            out.push((*next, due));
            *next += 1;
        }
    }
}

pub struct LoadGen<'a> {
    w: &'a Workload,
    gen: CommandGen,
    pub oracle: Oracle,
    pending: HashMap<u64, Pending>,
    next_seq: Vec<u64>,
    quorum: usize,
    /// Submitted commands neither committed nor failed yet.
    in_flight: u64,
    /// The measured ones among them.
    unsettled: u64,
    commits: Vec<Commit>,
    /// Filler commands offered to get a lagging replica to catch up.
    pub nudges: u64,
}

fn key(client: u64, seq: u64) -> u64 {
    (client << 48) | seq
}

impl<'a> LoadGen<'a> {
    pub fn new(w: &'a Workload, seed: u64) -> Self {
        LoadGen {
            w,
            gen: CommandGen::new(seed, w),
            oracle: Oracle::new(w.n, w.live()),
            pending: HashMap::new(),
            next_seq: vec![1; CALLERS],
            quorum: w.f + 1,
            in_flight: 0,
            unsettled: 0,
            commits: Vec::new(),
            nudges: 0,
        }
    }

    /// Submits the next generated command as `caller`'s next request and
    /// returns how late that was against `due`.
    fn submit(
        &mut self,
        cluster: &SmrClusterHandle,
        caller: usize,
        due: Instant,
        measured: bool,
    ) -> Duration {
        let seq = self.next_seq[caller];
        self.next_seq[caller] += 1;
        let command = self.gen.next_command(caller as u64, seq);
        self.pending.insert(
            key(caller as u64, seq),
            Pending {
                due,
                caller,
                measured,
                applied: 0,
                failed: false,
            },
        );
        self.in_flight += 1;
        self.unsettled += u64::from(measured);
        let late = Instant::now().saturating_duration_since(due);
        cluster.submit(command);
        late
    }

    fn handle(&mut self, ev: Applied) {
        let tag = parse_client_tag(&ev.command);
        self.oracle
            .observe(ev.process.index(), ev.index, &ev.command, tag);
        let Some((client, seq)) = tag else {
            return; // idle filler
        };
        let submitted = self
            .next_seq
            .get(client as usize)
            .is_some_and(|next| seq >= 1 && seq < *next);
        if !submitted {
            self.oracle.violation(format!(
                "p{} applied (client {client}, seq {seq}), which was never submitted",
                ev.process.index() + 1
            ));
            return;
        }
        // Already committed: the oracle has seen it, nothing left to time.
        let k = key(client, seq);
        let Some(p) = self.pending.get_mut(&k) else {
            return;
        };
        p.applied += 1;
        if p.applied < self.quorum {
            return;
        }
        if let Some(p) = self.pending.remove(&k) {
            if !p.failed {
                self.in_flight -= 1;
                self.unsettled -= u64::from(p.measured);
                self.commits.push(Commit {
                    caller: p.caller,
                    due: p.due,
                    at: Instant::now(),
                    measured: p.measured,
                });
            }
        }
    }

    /// Waits up to `wait` for an event, then drains what is already queued.
    /// Commits land in `self.commits`.
    fn recv_some(&mut self, cluster: &SmrClusterHandle, wait: Duration) {
        let rx = cluster.inner().applied_events();
        let first = if wait.is_zero() {
            rx.try_recv()
        } else {
            rx.recv_timeout(wait).ok()
        };
        let Some(ev) = first else { return };
        self.handle(ev);
        for _ in 0..DRAIN_PER_WAKEUP {
            match rx.try_recv() {
                Some(ev) => self.handle(ev),
                None => break,
            }
        }
    }

    /// Marks commands past the workload's commit limit as failed and
    /// returns their callers (free again in a closed loop) and how many
    /// of them were measured.
    fn expire(&mut self, now: Instant) -> (Vec<usize>, u64) {
        let mut callers = Vec::new();
        let mut measured = 0;
        for p in self.pending.values_mut() {
            if !p.failed && now.saturating_duration_since(p.due) > self.w.commit_timeout {
                p.failed = true;
                callers.push(p.caller);
                measured += u64::from(p.measured);
            }
        }
        self.in_flight -= callers.len() as u64;
        self.unsettled -= measured;
        (callers, measured)
    }

    /// Waits until every submitted command has committed (or failed) and
    /// every live replica has applied the same log prefix.
    ///
    /// A replica that fell behind while the others decided does not catch
    /// up on an idle cluster: recovery is driven by peers' slot numbers
    /// running ahead. So once nothing has moved for [`NUDGE_AFTER`],
    /// unmeasured filler commands go out every [`NUDGE_EVERY`] until the
    /// replicas agree — a live system's next requests; `nudges` counts them.
    fn settle(&mut self, cluster: &SmrClusterHandle, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        let mut seen = self.oracle.events;
        let mut moved_at = Instant::now();
        let mut nudging = false;
        loop {
            let converged = self.oracle.converged();
            if self.in_flight == 0 && converged {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if self.oracle.events != seen {
                seen = self.oracle.events;
                moved_at = now;
            } else if now.duration_since(moved_at) > NUDGE_AFTER {
                nudging = true;
            }
            if nudging && !converged && self.in_flight < NUDGES_IN_FLIGHT {
                self.submit(cluster, 0, now, false);
                self.nudges += 1;
            }
            self.recv_some(cluster, NUDGE_EVERY);
            self.commits.clear();
            self.expire(Instant::now());
        }
    }

    /// The workload's load shape from `start` on: the callers of a closed
    /// loop (all free), or the schedule of an open one.
    fn shape(&self, start: Instant) -> (Vec<usize>, Option<Schedule>) {
        match self.w.load {
            Load::Closed { outstanding } => ((0..outstanding).collect(), None),
            Load::Open { rate } => (Vec::new(), Some(Schedule { start, rate })),
        }
    }

    /// The warm-up that ends set-up: the first `warmup_cmds` commands of
    /// the workload's own load shape, unmeasured, then [`settle`].
    ///
    /// [`settle`]: LoadGen::settle
    pub fn warm_up(&mut self, cluster: &SmrClusterHandle) -> Result<(), String> {
        let start = Instant::now();
        let deadline = start + WARMUP_LIMIT;
        let total = self.w.warmup_cmds;
        let (mut free, schedule) = self.shape(start);
        let mut next = 0u64;
        while next < total {
            let now = Instant::now();
            if now > deadline {
                return Err(format!("warm-up did not finish in {WARMUP_LIMIT:?}"));
            }
            let wake = match schedule {
                None => {
                    while next < total {
                        let Some(caller) = free.pop() else { break };
                        self.submit(cluster, caller, Instant::now(), false);
                        next += 1;
                    }
                    now + SCAN_EVERY
                }
                Some(s) => {
                    for (i, due) in s.take_due(&mut next, now, s.due(total)) {
                        self.submit(cluster, i as usize % CALLERS, due, false);
                    }
                    s.due(next)
                }
            };
            self.recv_some(cluster, wake.saturating_duration_since(Instant::now()));
            free.extend(self.commits.drain(..).map(|c| c.caller));
        }
        let settled = self.settle(cluster, deadline.saturating_duration_since(Instant::now()));
        let failed = self.pending.values().filter(|p| p.failed).count();
        if failed > 0 {
            return Err(format!(
                "{failed} warm-up commands were not committed within {:?}",
                self.w.commit_timeout
            ));
        }
        if !settled {
            return Err(format!(
                "the live replicas did not converge within {WARMUP_LIMIT:?} of warm-up"
            ));
        }
        Ok(())
    }

    /// One measured window of the workload's own load shape.
    pub fn run_window(
        &mut self,
        cluster: &SmrClusterHandle,
        length: Duration,
        gauges: Option<&MetricsRegistry>,
    ) -> Window {
        let start = Instant::now();
        let end = start + length;
        let slices = (length.as_nanos().div_ceil(SLICE.as_nanos()) as usize).max(1);
        let slice_of = |at: Instant| {
            ((at.saturating_duration_since(start).as_nanos() / SLICE.as_nanos()) as usize)
                .min(slices - 1)
        };
        let mut win = Window {
            seconds: length.as_secs_f64(),
            latencies_ns: vec![Vec::new(); slices],
            committed_by_slice: vec![0; slices],
            ..Window::default()
        };
        let (mut free, schedule) = self.shape(start);
        let mut next = 0u64;
        let mut next_scan = start + SCAN_EVERY;
        let mut last_commit = start;

        loop {
            let now = Instant::now();
            let over = now >= end;
            // Offer load. The open loop issues whatever fell due before the
            // end even if the generator only gets to it afterwards.
            let mut wake = end.min(next_scan);
            match schedule {
                None if over => {}
                None => {
                    while let Some(caller) = free.pop() {
                        self.submit(cluster, caller, Instant::now(), true);
                        win.attempted += 1;
                    }
                }
                Some(s) => {
                    for (i, due) in s.take_due(&mut next, now, end) {
                        let late = self.submit(cluster, i as usize % CALLERS, due, true);
                        win.gen_late_max = win.gen_late_max.max(late);
                        win.attempted += 1;
                    }
                    wake = wake.min(s.due(next));
                }
            }
            if over {
                break;
            }
            // Collect.
            self.recv_some(cluster, wake.saturating_duration_since(Instant::now()));
            for c in self.commits.drain(..) {
                if c.at < end {
                    win.committed += 1;
                    win.committed_by_slice[slice_of(c.at)] += 1;
                    win.stall_max = win
                        .stall_max
                        .max(c.at.saturating_duration_since(last_commit));
                    last_commit = c.at;
                }
                if c.measured {
                    win.latencies_ns[slice_of(c.due)]
                        .push(nanos(c.at.saturating_duration_since(c.due)));
                }
                if schedule.is_none() {
                    free.push(c.caller);
                }
            }
            let now = Instant::now();
            if now >= next_scan {
                next_scan = now + SCAN_EVERY;
                let (callers, failed) = self.expire(now);
                win.failed += failed;
                if schedule.is_none() {
                    free.extend(callers);
                }
                sample_gauges(gauges, &mut win);
            }
        }
        win.stall_max = win
            .stall_max
            .max(end.saturating_duration_since(last_commit));
        win.commit_span = last_commit.saturating_duration_since(start);

        // Commands due in the window that are still in flight: wait until
        // each has committed or run out its limit.
        let settle_by = end + self.w.commit_timeout + Duration::from_secs(1);
        while self.unsettled > 0 && Instant::now() < settle_by {
            self.recv_some(cluster, SCAN_EVERY);
            for c in self.commits.drain(..) {
                if c.measured {
                    win.latencies_ns[slice_of(c.due)]
                        .push(nanos(c.at.saturating_duration_since(c.due)));
                }
            }
            let (_, failed) = self.expire(Instant::now());
            win.failed += failed;
        }
        win
    }

    /// The final quiesce (see [`settle`]). A live replica that still has
    /// not caught up is an oracle violation: a committed command is missing
    /// from it.
    ///
    /// [`settle`]: LoadGen::settle
    pub fn quiesce(&mut self, cluster: &SmrClusterHandle, limit: Duration) -> bool {
        let settled = self.settle(cluster, limit);
        if !settled && !self.oracle.converged() {
            self.oracle.violation(
                "a live replica is still missing committed commands after the final quiesce"
                    .to_string(),
            );
        }
        settled
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn sample_gauges(registry: Option<&MetricsRegistry>, win: &mut Window) {
    let Some(registry) = registry else { return };
    for i in 0..registry.len() {
        let m = registry.metrics(i);
        win.stash_peak = win.stash_peak.max(m.stash_depth.get());
        win.apply_queue_peak = win.apply_queue_peak.max(m.apply_queue_depth.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_never_skips_and_charges_a_stall_to_what_it_delays() {
        let start = Instant::now();
        let s = Schedule { start, rate: 1000 };
        let end = start + Duration::from_secs(1);
        let mut next = 0;
        // On time: exactly the commands due so far.
        let first = s.take_due(&mut next, start + Duration::from_micros(2500), end);
        assert_eq!(first.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 1, 2]);
        // The generator stalls 50 ms: every command that fell due meanwhile
        // is still issued, each with its own due time, so the first of them
        // is charged the whole stall and the last almost none.
        let woke = start + Duration::from_micros(52_500);
        let burst = s.take_due(&mut next, woke, end);
        assert_eq!(burst.len(), 50);
        assert_eq!(burst[0], (3, start + Duration::from_millis(3)));
        assert_eq!(woke - burst[0].1, Duration::from_micros(49_500));
        assert_eq!(woke - burst[49].1, Duration::from_micros(500));
        assert_eq!(next, 53);
        // Nothing is due twice, and nothing at or past the window's end.
        assert!(s.take_due(&mut next, woke, end).is_empty());
        let rest = s.take_due(&mut next, end + Duration::from_secs(1), end);
        assert_eq!(rest.len(), 1000 - 53);
        assert_eq!(rest.last().unwrap().0, 999);
    }

    #[test]
    fn due_times_do_not_drift() {
        let start = Instant::now();
        let s = Schedule { start, rate: 3 };
        assert_eq!(s.due(3_000_000), start + Duration::from_secs(1_000_000));
    }

    /// A replica cut off while the others decide ~100 slots does not catch
    /// up on an idle cluster; the final quiesce must get it there with
    /// filler traffic, and the oracle must accept a replica that skipped
    /// part of the log by installing a snapshot.
    #[test]
    fn a_replica_that_fell_behind_is_nudged_until_it_converges() {
        use crate::cluster;
        use crate::workload::{Link, Workload};
        use fastbft_types::ProcessId;

        const LAGGARD: Workload = Workload {
            name: "test_laggard",
            why: "test",
            gated: false,
            n: 4,
            f: 1,
            t: 1,
            link: Link::Channel,
            delta: Some(Duration::from_micros(200)),
            silent: 0,
            value_bytes: 16,
            keys: 64,
            load: Load::Open { rate: 500 },
            warmup_cmds: 20,
            commit_timeout: Duration::from_secs(5),
        };
        let c = cluster::build(&LAGGARD, 3, false).unwrap();
        let mut gen = LoadGen::new(&LAGGARD, 3);
        gen.warm_up(&c.handle).unwrap();
        assert_eq!(gen.nudges, 0, "a healthy cluster converges by itself");

        let plan = c
            .plan
            .as_ref()
            .expect("clusters with an injected delay have a plan");
        plan.isolate(ProcessId(4));
        let win = gen.run_window(&c.handle, Duration::from_millis(400), None);
        assert_eq!(win.failed, 0, "three of four replicas still commit");
        assert!(!gen.oracle.converged(), "p4 missed the window's slots");
        plan.heal();

        assert!(gen.quiesce(&c.handle, Duration::from_secs(20)));
        assert!(gen.nudges > 0, "only filler traffic gets p4 to recover");
        let digests = cluster::shutdown(c.handle, &LAGGARD, false);
        gen.oracle.check_digests(&digests);
        assert!(
            gen.oracle.violations().is_empty(),
            "{:?}",
            gen.oracle.violations()
        );
    }

    #[test]
    fn keys_do_not_collide_across_callers() {
        assert_ne!(key(1, 2), key(2, 1));
        assert_eq!(key(255, 1 << 40) >> 48, 255);
    }
}
