//! From what the traced run recorded to the per-layer metrics.
//!
//! Three sources, as the README's table says per metric: (a) the
//! benchmark's wrappers at the trait seams (`trace.rs`), (b) the public
//! `MetricsRegistry` / `TcpStats` counters, read at the window's start and
//! end, (c) probes (`probes.rs`, `simreplay.rs`). "Per command" divides by
//! the commands committed in the window.

use fastbft_net::TcpStats;
use fastbft_obs::{Histogram, MetricsRegistry};

use crate::loadgen::Window;
use crate::probes::{Codec, Crypto, Framing, Hop};
use crate::report::{per, Values};
use crate::simreplay::SimCounts;
use crate::stats::Percentiles;
use crate::trace::Agg;
use crate::workload::{Link, Workload};

/// Registry and `TcpStats` counters summed over all seats.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub commit_fast: u64,
    pub commit_slow: u64,
    pub view_change: u64,
    pub cert_hit: u64,
    pub cert_miss: u64,
    pub sig_hit: u64,
    pub sig_miss: u64,
    pub dedup_dropped: u64,
    pub flush_size: u64,
    pub flush_bytes: u64,
    pub flush_quiescence: u64,
    pub flush_timeout: u64,
    pub ingress_shed: u64,
    pub snapshots: u64,
    pub backfill_slots: u64,
    pub frames_out: u64,
    pub bytes_out: u64,
    pub mac_reject: u64,
    pub reconnect: u64,
    pub send_drop: u64,
    /// Peak, not a count: kept as read at the later of the two instants.
    pub writer_queue_peak: u64,
    pub tcp_msgs: u64,
    pub tcp_frames: u64,
}

impl Counters {
    pub fn read(registry: &MetricsRegistry, tcp: &[TcpStats]) -> Counters {
        let writer_queue_peak = (0..registry.len())
            .map(|i| registry.metrics(i).writer_queue_depth_peak.get())
            .max()
            .unwrap_or(0);
        Counters {
            commit_fast: registry.total(|m| &m.commit_fast_total),
            commit_slow: registry.total(|m| &m.commit_slow_total),
            view_change: registry.total(|m| &m.view_change_total),
            cert_hit: registry.total(|m| &m.cert_cache_hit_total),
            cert_miss: registry.total(|m| &m.cert_cache_miss_total),
            sig_hit: registry.total(|m| &m.sig_memo_hit_total),
            sig_miss: registry.total(|m| &m.sig_memo_miss_total),
            dedup_dropped: registry.total(|m| &m.dedup_dropped_total),
            flush_size: registry.total(|m| &m.batch_flush_size_total),
            flush_bytes: registry.total(|m| &m.batch_flush_bytes_total),
            flush_quiescence: registry.total(|m| &m.batch_flush_quiescence_total),
            flush_timeout: registry.total(|m| &m.batch_flush_timeout_total),
            ingress_shed: registry.total(|m| &m.ingress_shed_total),
            snapshots: registry.total(|m| &m.snapshot_taken_total),
            backfill_slots: registry.total(|m| &m.backfill_slots_total),
            frames_out: registry.total(|m| &m.frames_out_total),
            bytes_out: registry.total(|m| &m.bytes_out_total),
            mac_reject: registry.total(|m| &m.mac_reject_total),
            reconnect: registry.total(|m| &m.reconnect_total),
            send_drop: registry.total(|m| &m.send_drop_total)
                + tcp.iter().map(TcpStats::total_dropped).sum::<u64>(),
            writer_queue_peak,
            tcp_msgs: tcp.iter().map(TcpStats::messages_sent).sum(),
            tcp_frames: tcp.iter().map(TcpStats::frames_sent).sum(),
        }
    }

    pub fn minus(&self, earlier: &Counters) -> Counters {
        Counters {
            commit_fast: self.commit_fast - earlier.commit_fast,
            commit_slow: self.commit_slow - earlier.commit_slow,
            view_change: self.view_change - earlier.view_change,
            cert_hit: self.cert_hit - earlier.cert_hit,
            cert_miss: self.cert_miss - earlier.cert_miss,
            sig_hit: self.sig_hit - earlier.sig_hit,
            sig_miss: self.sig_miss - earlier.sig_miss,
            dedup_dropped: self.dedup_dropped - earlier.dedup_dropped,
            flush_size: self.flush_size - earlier.flush_size,
            flush_bytes: self.flush_bytes - earlier.flush_bytes,
            flush_quiescence: self.flush_quiescence - earlier.flush_quiescence,
            flush_timeout: self.flush_timeout - earlier.flush_timeout,
            ingress_shed: self.ingress_shed - earlier.ingress_shed,
            snapshots: self.snapshots - earlier.snapshots,
            backfill_slots: self.backfill_slots - earlier.backfill_slots,
            frames_out: self.frames_out - earlier.frames_out,
            bytes_out: self.bytes_out - earlier.bytes_out,
            mac_reject: self.mac_reject - earlier.mac_reject,
            reconnect: self.reconnect - earlier.reconnect,
            send_drop: self.send_drop - earlier.send_drop,
            writer_queue_peak: self.writer_queue_peak,
            tcp_msgs: self.tcp_msgs - earlier.tcp_msgs,
            tcp_frames: self.tcp_frames - earlier.tcp_frames,
        }
    }
}

/// Medians of the registry's slot-open → decide histograms, fast and slow
/// path, merged over the live replicas. The histograms cannot be reset, so
/// they include the warm-up's slots (a few percent of the samples).
pub fn commit_p50s(registry: &MetricsRegistry, live: usize) -> (f64, f64) {
    let fast = Histogram::new();
    let slow = Histogram::new();
    for i in 0..live {
        fast.merge_from(&registry.metrics(i).commit_latency_fast_us);
        slow.merge_from(&registry.metrics(i).commit_latency_slow_us);
    }
    (fast.quantile(0.5) as f64, slow.quantile(0.5) as f64)
}

pub struct TracedInputs<'a> {
    pub w: &'a Workload,
    pub window: &'a Window,
    pub whole: &'a Percentiles,
    pub cmds_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p90_us: f64,
    /// Window deltas of each live replica's totals.
    pub aggs: &'a [Agg],
    pub counters: &'a Counters,
    pub fast_p50_us: f64,
    pub slow_p50_us: f64,
    pub chan_hop: Hop,
    pub tcp_hop: Option<Hop>,
    pub fault_hop: Option<Hop>,
    pub crypto: Crypto,
    pub codec: Codec,
    pub framing: Framing,
    pub apply_only_cmds_per_s: f64,
    pub sim: SimCounts,
    pub trace_overhead_pct: f64,
    pub rss_peak_mb: f64,
}

pub fn set_crypto(v: &mut Values, c: &Crypto) {
    v.set("crypto.sign_ns", c.sign_ns);
    v.set("crypto.verify_cold_ns", c.verify_cold_ns);
    v.set("crypto.verify_memo_ns", c.verify_memo_ns);
    v.set("crypto.value_digest_ns_per_kib", c.value_digest_ns_per_kib);
    v.set("crypto.session_mac_ns_per_kib", c.session_mac_ns_per_kib);
}

pub fn per_layer(x: &TracedInputs<'_>) -> Values {
    let mut v = Values::default();
    let cmds = x.window.committed as f64;
    let live = x.aggs.len().max(1) as f64;
    let c = x.counters;
    let sum = |pick: fn(&Agg) -> u64| x.aggs.iter().map(pick).sum::<u64>() as f64;
    // Mean over replicas of a per-replica total, per command, ns → µs.
    let us_per_cmd = |total_ns: f64| per(total_ns / live, cmds) / 1e3;

    // One message delay on this workload's links, in µs: a measured
    // loopback TCP hop where the link is TCP, plus the injected δ and what
    // the delay queue adds where there is one.
    let fault_excess = x.fault_hop.map_or(0.0, |h| h.p50_us);
    let tcp_us = match x.w.link {
        Link::Tcp => x.tcp_hop.map_or(0.0, |h| h.p50_us),
        Link::Channel => 0.0,
    };
    let delta_us = x.w.delta.map(|d| d.as_secs_f64() * 1e6);
    let hop_us = tcp_us + delta_us.map_or(0.0, |d| d + fault_excess);
    // The unit the "delays" figures count in: the stated δ, else the hop.
    let delay_us = delta_us.unwrap_or(hop_us);

    // bench
    v.set(
        "bench.failed_frac",
        per(x.window.failed as f64, x.window.attempted as f64),
    );
    v.set("bench.cmds_per_s", x.cmds_per_s);
    v.set("bench.lat_p50_us", x.lat_p50_us);
    v.set("bench.lat_p90_us", x.lat_p90_us);
    v.set("bench.lat_p99_us", x.whole.p99 as f64 / 1e3);
    v.set("bench.lat_max_us", x.whole.max as f64 / 1e3);
    v.set(
        "bench.gen_late_max_ms",
        x.window.gen_late_max.as_secs_f64() * 1e3,
    );
    v.set("bench.stall_max_ms", x.window.stall_max.as_secs_f64() * 1e3);
    v.set("bench.rss_peak_mb", x.rss_peak_mb);
    v.set("bench.trace_overhead_pct", x.trace_overhead_pct);
    let on_client_us = us_per_cmd(sum(|a| a.on_client));
    let handler_us = us_per_cmd(sum(|a| a.handler));
    let apply_us = us_per_cmd(sum(|a| a.apply));
    v.set(
        "bench.unexplained_us_p50",
        x.lat_p50_us - 2.0 * hop_us - on_client_us - handler_us - apply_us,
    );

    // runtime
    let busiest = x.aggs.iter().map(|a| a.busy).max().unwrap_or(0) as f64;
    v.set(
        "runtime.loop_busy_frac",
        per(busiest, x.window.seconds * 1e9),
    );
    v.set(
        "runtime.wakeups_per_cmd",
        per(sum(|a| a.wakeups) / live, cmds),
    );
    v.set(
        "runtime.events_per_wakeup",
        per(sum(|a| a.events), sum(|a| a.wakeups)),
    );
    v.set("runtime.send_call_us_per_cmd", us_per_cmd(sum(|a| a.send)));
    v.set("runtime.chan_hop_us_p50", x.chan_hop.p50_us);
    v.set("runtime.fault_hop_excess_us_p50", fault_excess);

    // net
    v.set("net.frames_per_cmd", per(c.frames_out as f64, cmds));
    v.set("net.bytes_per_cmd", per(c.bytes_out as f64, cmds));
    v.set(
        "net.msgs_per_frame",
        per(c.tcp_msgs as f64, c.tcp_frames as f64),
    );
    v.set("net.writer_queue_peak", c.writer_queue_peak as f64);
    v.set("net.send_drops", c.send_drop as f64);
    v.set("net.reconnects", c.reconnect as f64);
    v.set("net.mac_rejects", c.mac_reject as f64);
    v.set("net.hop_us_p50", x.tcp_hop.map_or(0.0, |h| h.p50_us));
    v.set("net.hop_us_p90", x.tcp_hop.map_or(0.0, |h| h.p90_us));
    v.set("net.seal_ns_per_frame", x.framing.seal_ns_per_frame);
    v.set("net.open_ns_per_frame", x.framing.open_ns_per_frame);

    // crypto
    set_crypto(&mut v, &x.crypto);
    v.set("crypto.sig_verifies_per_cmd", per(c.sig_miss as f64, cmds));
    v.set(
        "crypto.sig_memo_hit_ratio",
        per(c.sig_hit as f64, (c.sig_hit + c.sig_miss) as f64),
    );
    v.set(
        "crypto.cert_cache_hit_ratio",
        per(c.cert_hit as f64, (c.cert_hit + c.cert_miss) as f64),
    );

    // types
    v.set("types.encode_ns_per_msg", x.codec.encode_ns_per_msg);
    v.set("types.decode_ns_per_msg", x.codec.decode_ns_per_msg);
    v.set("types.msg_bytes_mean", x.codec.msg_bytes_mean);

    // core: every live replica decides every slot, so the summed commit
    // counters count each slot `live` times.
    let decided = (c.commit_fast + c.commit_slow) as f64;
    let slots = decided / live;
    v.set("core.fast_share", per(c.commit_fast as f64, decided));
    v.set(
        "core.view_changes_per_kslot",
        per(c.view_change as f64 / live, slots) * 1e3,
    );
    v.set("core.commit_fast_p50_us", x.fast_p50_us);
    v.set("core.commit_slow_p50_us", x.slow_p50_us);
    v.set("core.fast_delays", per(x.fast_p50_us, delay_us));
    v.set("core.slow_delays", per(x.slow_p50_us, delay_us));
    v.set("core.client_delays_p50", per(x.lat_p50_us, delay_us));
    v.set("core.sim_fast_delays", x.sim.fast_delays);
    v.set("core.sim_slow_delays", x.sim.slow_delays);
    v.set("core.sim_msgs_per_slot", x.sim.msgs_per_slot);

    // smr
    let flushes = (c.flush_size + c.flush_bytes + c.flush_quiescence + c.flush_timeout) as f64;
    v.set("smr.cmds_per_slot", per(cmds, slots));
    v.set("smr.flush_size_share", per(c.flush_size as f64, flushes));
    v.set(
        "smr.flush_quiescence_share",
        per(c.flush_quiescence as f64, flushes),
    );
    v.set(
        "smr.flush_timeout_share",
        per(c.flush_timeout as f64, flushes),
    );
    v.set("smr.handler_us_per_cmd", handler_us);
    v.set("smr.on_client_us_per_cmd", on_client_us);
    v.set("smr.apply_us_per_cmd", apply_us);
    v.set("smr.apply_only_cmds_per_s", x.apply_only_cmds_per_s);
    v.set(
        "smr.snapshot_us_mean",
        per(sum(|a| a.snapshot), sum(|a| a.snapshots)) / 1e3,
    );
    v.set("smr.snapshots_taken", c.snapshots as f64);
    v.set("smr.ingress_shed", c.ingress_shed as f64);
    v.set("smr.dedup_dropped", c.dedup_dropped as f64);
    v.set("smr.stash_peak", x.window.stash_peak as f64);
    v.set("smr.apply_queue_peak", x.window.apply_queue_peak as f64);
    v.set("smr.backfill_slots", c.backfill_slots as f64);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;
    use crate::workload::WORKLOADS;
    use std::time::Duration;

    fn inputs<'a>(
        w: &'a Workload,
        window: &'a Window,
        whole: &'a Percentiles,
        aggs: &'a [Agg],
        counters: &'a Counters,
    ) -> TracedInputs<'a> {
        TracedInputs {
            w,
            window,
            whole,
            cmds_per_s: 100.0,
            lat_p50_us: 5000.0,
            lat_p90_us: 6000.0,
            aggs,
            counters,
            fast_p50_us: 4000.0,
            slow_p50_us: 6000.0,
            chan_hop: Hop::default(),
            tcp_hop: Some(Hop {
                p50_us: 100.0,
                p90_us: 150.0,
                samples: 10,
            }),
            fault_hop: Some(Hop {
                p50_us: 60.0,
                p90_us: 90.0,
                samples: 10,
            }),
            crypto: Crypto::default(),
            codec: Codec::default(),
            framing: Framing::default(),
            apply_only_cmds_per_s: 1e6,
            sim: SimCounts::default(),
            trace_overhead_pct: 3.0,
            rss_peak_mb: 20.0,
        }
    }

    #[test]
    fn every_declared_per_layer_metric_is_produced_and_nothing_else() {
        let window = Window::default();
        let whole = Percentiles::of(&mut []);
        for w in &WORKLOADS {
            // Even a window in which nothing happened yields every name,
            // with zeros instead of NaNs.
            let values = per_layer(&inputs(w, &window, &whole, &[], &Counters::default()));
            values.check(PER_LAYER).unwrap();
        }
    }

    #[test]
    fn delays_and_per_command_figures_follow_their_definitions() {
        let w = crate::workload::by_name("wan7_fast").unwrap(); // δ = 2 ms
        let window = Window {
            seconds: 10.0,
            attempted: 1000,
            committed: 1000,
            gen_late_max: Duration::from_millis(3),
            ..Window::default()
        };
        let whole = Percentiles::of(&mut []);
        let agg = Agg {
            handler: 200_000_000,
            on_client: 10_000_000,
            apply: 40_000_000,
            busy: 2_500_000_000,
            wakeups: 4000,
            events: 12_000,
            ..Agg::default()
        };
        let aggs = [agg; 7];
        let counters = Counters {
            commit_fast: 7 * 500,
            sig_miss: 3000,
            sig_hit: 9000,
            ..Counters::default()
        };
        let v = per_layer(&inputs(w, &window, &whole, &aggs, &counters));
        let get = |name| v.get(name).unwrap();
        assert_eq!(get("core.fast_share"), 1.0);
        assert_eq!(get("core.fast_delays"), 2.0);
        assert_eq!(get("core.slow_delays"), 3.0);
        assert_eq!(get("core.client_delays_p50"), 2.5);
        assert_eq!(get("smr.cmds_per_slot"), 2.0);
        assert_eq!(get("smr.handler_us_per_cmd"), 200.0);
        assert_eq!(get("smr.apply_us_per_cmd"), 40.0);
        assert_eq!(get("runtime.loop_busy_frac"), 0.25);
        assert_eq!(get("runtime.events_per_wakeup"), 3.0);
        assert_eq!(get("runtime.wakeups_per_cmd"), 4.0);
        assert_eq!(get("crypto.sig_verifies_per_cmd"), 3.0);
        assert_eq!(get("crypto.sig_memo_hit_ratio"), 0.75);
        // 5000 − 2·(2000 + 60) − 10 − 200 − 40
        assert_eq!(get("bench.unexplained_us_p50"), 630.0);
        assert_eq!(get("bench.gen_late_max_ms"), 3.0);
        assert_eq!(get("net.hop_us_p50"), 100.0);
    }
}
