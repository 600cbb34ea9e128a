//! Per-replica metric blocks and the cluster-wide registry with both
//! exporters.
//!
//! Ownership model: every replica seat records into one [`Metrics`] block,
//! held as an `Arc<Metrics>` by each layer of the seat — threaded through
//! `ReplicaOptions` so it reaches every per-slot `Replica` and the SMR
//! multiplexer, and through the transport constructors to the TCP
//! writer/reader threads and the fault wrapper. A [`MetricsRegistry`] owns
//! one block per seat and hands seat `i`'s out with
//! [`replica`](MetricsRegistry::replica); a seat built without a registry
//! records into a block of its own (`Arc::default()`), which only its
//! holders can read. Every record site is a plain call.
//!
//! Exposition: [`render_text`](MetricsRegistry::render_text) emits
//! Prometheus-style text (counters and gauges as single series,
//! histograms as summaries with `quantile` labels plus `_sum`/`_count`),
//! every series labeled `replica="pN"`; [`render_json`]
//! (MetricsRegistry::render_json) emits one JSON object with the same
//! data plus each replica's flight-recorder tail.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::histogram::Histogram;
use crate::instruments::{Counter, Gauge};
use crate::recorder::FlightRecorder;

/// Every instrument one replica records into, across all layers. Field
/// names are the exposition names minus the `fastbft_` prefix.
#[derive(Debug, Default)]
#[allow(missing_docs)] // each field is documented by its HELP line below
pub struct Metrics {
    // core: commit-path and view-change visibility (the paper's shape).
    pub commit_fast_total: Counter,
    pub commit_slow_total: Counter,
    pub view_change_total: Counter,
    pub contribution_refused_total: Counter,
    // smr: leader suspicion across slots.
    pub view_skip_total: Counter,
    pub slot_revoked_total: Counter,
    pub leader_suspect_total: Counter,
    pub leader_clear_total: Counter,
    pub leader_suspected: Gauge,
    // crypto: what the receiver verified (there is no cache or memo to
    // miss; the names are the ones the frozen `benchmark/` reads).
    pub cert_cache_miss_total: Counter,
    pub sig_memo_miss_total: Counter,
    // Never set and not exported: kept only because the frozen
    // `benchmark/src/layers.rs` reads them (the two `*_hit_ratio`s, always 0).
    pub cert_cache_hit_total: Counter,
    pub sig_memo_hit_total: Counter,
    // smr: the slot multiplexer.
    pub dedup_dropped_total: Counter,
    pub batch_flush_size_total: Counter,
    pub batch_flush_bytes_total: Counter,
    pub batch_flush_quiescence_total: Counter,
    pub batch_flush_timeout_total: Counter,
    pub ingress_shed_total: Counter,
    pub ingress_shed_bytes_total: Counter,
    // Never set and not exported: kept only because the frozen
    // `benchmark/src/loadgen.rs` reads it (`smr.apply_queue_peak`, always 0).
    pub apply_queue_depth: Gauge,
    pub snapshot_taken_total: Counter,
    pub snapshot_installed_total: Counter,
    pub backfill_slots_total: Counter,
    pub stash_depth: Gauge,
    pub batch_size: Histogram,
    pub commit_latency_fast_us: Histogram,
    pub commit_latency_slow_us: Histogram,
    pub apply_latency_us: Histogram,
    // net: the TCP transport.
    pub frames_out_total: Counter,
    pub bytes_out_total: Counter,
    pub frames_in_total: Counter,
    pub bytes_in_total: Counter,
    pub mac_reject_total: Counter,
    pub reconnect_total: Counter,
    pub send_drop_total: Counter,
    pub send_drop_unreachable_total: Counter,
    pub writer_queue_depth_peak: Gauge,
    pub peer_links_down: Gauge,
    // faults: the injection plane (FaultTransport / FaultPlan).
    pub fault_delay_injected_total: Counter,
    pub fault_drop_injected_total: Counter,
    pub fault_dup_injected_total: Counter,
    pub fault_partition_drop_total: Counter,
    pub fault_links_shaped: Gauge,
    /// This replica's flight recorder (rare control-plane events).
    pub recorder: FlightRecorder,
}

impl Metrics {
    /// A fresh block with everything at zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// `(name, help, counter)` for every counter, in exposition order (the
    /// byte counters last).
    fn counters(&self) -> [(&'static str, &'static str, &Counter); 32] {
        [
            (
                "commit_fast_total",
                "Slots committed on the 2-delay fast path (n - t acks).",
                &self.commit_fast_total,
            ),
            (
                "commit_slow_total",
                "Slots committed via the 3-delay slow path (commit certificate).",
                &self.commit_slow_total,
            ),
            (
                "view_change_total",
                "View changes entered (leader replacements).",
                &self.view_change_total,
            ),
            (
                "contribution_refused_total",
                "Acks, Commits, votes and proposals a consensus instance refused to hold: a sender's second in a view, its second view beyond the horizon, a value past its share of the byte budget.",
                &self.contribution_refused_total,
            ),
            (
                "view_skip_total",
                "Wishes raised past a suspected leader instead of waiting for it (at slot open or mid-slot).",
                &self.view_skip_total,
            ),
            (
                "slot_revoked_total",
                "Slots a suspected seat leads first that this node gave the idle filler, most of them started ahead of the pipeline.",
                &self.slot_revoked_total,
            ),
            (
                "leader_suspect_total",
                "Seats newly suspected: own view timer expired with no valid proposal from them.",
                &self.leader_suspect_total,
            ),
            (
                "leader_clear_total",
                "Suspected seats cleared by a verified proposal (or a snapshot install).",
                &self.leader_clear_total,
            ),
            (
                "cert_cache_miss_total",
                "Certificates verified, each by walking its signatures.",
                &self.cert_cache_miss_total,
            ),
            (
                "sig_memo_miss_total",
                "Signature checks that ran (HMAC verifications), inside certificates and outside.",
                &self.sig_memo_miss_total,
            ),
            (
                "dedup_dropped_total",
                "Committed commands skipped by identity dedup (at-most-once).",
                &self.dedup_dropped_total,
            ),
            (
                "batch_flush_size_total",
                "Proposal batches flushed because the adaptive target was reached.",
                &self.batch_flush_size_total,
            ),
            (
                "batch_flush_bytes_total",
                "Proposal batches flushed at the max_batch_bytes cap.",
                &self.batch_flush_bytes_total,
            ),
            (
                "batch_flush_quiescence_total",
                "Proposal batches flushed because the pipeline was idle.",
                &self.batch_flush_quiescence_total,
            ),
            (
                "batch_flush_timeout_total",
                "Proposal batches flushed by the flush-age backstop.",
                &self.batch_flush_timeout_total,
            ),
            (
                "ingress_shed_total",
                "Client commands shed at ingress by the pending-queue budget.",
                &self.ingress_shed_total,
            ),
            (
                "snapshot_taken_total",
                "Canonical snapshots taken at checkpoint boundaries.",
                &self.snapshot_taken_total,
            ),
            (
                "snapshot_installed_total",
                "Attested snapshots installed during far-behind recovery.",
                &self.snapshot_installed_total,
            ),
            (
                "backfill_slots_total",
                "Slots absorbed from quorum-matched backfill frames.",
                &self.backfill_slots_total,
            ),
            (
                "frames_out_total",
                "TCP frames written (one coalesced frame per writer drain).",
                &self.frames_out_total,
            ),
            (
                "frames_in_total",
                "TCP frames read and MAC-verified.",
                &self.frames_in_total,
            ),
            (
                "mac_reject_total",
                "Inbound frames dropped for a bad session MAC or sender.",
                &self.mac_reject_total,
            ),
            (
                "reconnect_total",
                "Peer links re-established after a drop (first dials excluded).",
                &self.reconnect_total,
            ),
            (
                "send_drop_unreachable_total",
                "Outbound messages dropped because the peer link was down or cooling down.",
                &self.send_drop_unreachable_total,
            ),
            (
                "fault_delay_injected_total",
                "Deliveries delayed by the fault plan (delay, jitter, reorder).",
                &self.fault_delay_injected_total,
            ),
            (
                "fault_drop_injected_total",
                "Deliveries dropped by the fault plan's probabilistic loss.",
                &self.fault_drop_injected_total,
            ),
            (
                "fault_dup_injected_total",
                "Duplicate deliveries injected by the fault plan.",
                &self.fault_dup_injected_total,
            ),
            (
                "fault_partition_drop_total",
                "Deliveries dropped by a hard partition in the fault plan.",
                &self.fault_partition_drop_total,
            ),
            (
                "ingress_shed_bytes_total",
                "Command bytes shed at ingress by the pending-queue budget.",
                &self.ingress_shed_bytes_total,
            ),
            (
                "bytes_out_total",
                "Wire bytes written, including frame headers and MACs.",
                &self.bytes_out_total,
            ),
            (
                "bytes_in_total",
                "Wire payload bytes read from verified frames.",
                &self.bytes_in_total,
            ),
            (
                "send_drop_total",
                "Outbound messages dropped (oversized or writer queue full).",
                &self.send_drop_total,
            ),
        ]
    }

    /// `(name, help, gauge)` for every gauge.
    fn gauges(&self) -> [(&'static str, &'static str, &Gauge); 5] {
        [
            (
                "leader_suspected",
                "Seats this node currently suspects as dead leaders.",
                &self.leader_suspected,
            ),
            (
                "stash_depth",
                "Future-slot messages currently stashed (bounded).",
                &self.stash_depth,
            ),
            (
                "writer_queue_depth_peak",
                "High-water mark of any per-peer writer queue, in messages.",
                &self.writer_queue_depth_peak,
            ),
            (
                "peer_links_down",
                "Peer links currently unreachable (writer dialing or cooling down).",
                &self.peer_links_down,
            ),
            (
                "fault_links_shaped",
                "Fault-plan rules active in this node's snapshot (pairs + wildcards).",
                &self.fault_links_shaped,
            ),
        ]
    }

    /// `(name, help, histogram)` for every histogram.
    fn histograms(&self) -> [(&'static str, &'static str, &Histogram); 4] {
        [
            (
                "batch_size",
                "Client commands per proposed slot batch.",
                &self.batch_size,
            ),
            (
                "commit_latency_fast_us",
                "Slot open to fast-path decision, wall-clock microseconds.",
                &self.commit_latency_fast_us,
            ),
            (
                "commit_latency_slow_us",
                "Slot open to slow-path decision, wall-clock microseconds.",
                &self.commit_latency_slow_us,
            ),
            (
                "apply_latency_us",
                "Slot open to state-machine apply, wall-clock microseconds.",
                &self.apply_latency_us,
            ),
        ]
    }
}

/// The cluster-wide metrics plane: one [`Metrics`] block per replica
/// seat, plus the two exporters. Clones share the same blocks, so a
/// bench or test can keep a clone and scrape while the cluster runs.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    replicas: Vec<Arc<Metrics>>,
}

impl MetricsRegistry {
    /// A registry for an `n`-replica cluster.
    pub fn new(n: usize) -> Self {
        MetricsRegistry {
            replicas: (0..n).map(|_| Arc::new(Metrics::new())).collect(),
        }
    }

    /// Number of replica seats.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the registry covers zero seats.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Replica seat `index`'s block, to record into (0-based: seat 0 is
    /// process p1, matching the workspace's actor-vector convention).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replica(&self, index: usize) -> Arc<Metrics> {
        Arc::clone(&self.replicas[index])
    }

    /// Direct access to seat `index`'s block (assertions, scrapes).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn metrics(&self, index: usize) -> &Metrics {
        &self.replicas[index]
    }

    /// Sum of one counter across every replica, selected by closure:
    /// `registry.total(|m| &m.commit_fast_total)`.
    pub fn total(&self, pick: impl Fn(&Metrics) -> &Counter) -> u64 {
        self.replicas.iter().map(|m| pick(m).get()).sum()
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` headers per
    /// family, one `replica="pN"`-labeled series per seat, histograms as
    /// summaries (`quantile` labels + `_sum` + `_count`).
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        let counters: Vec<_> = self.replicas.iter().map(|m| m.counters()).collect();
        write_families(&mut out, "counter", &counters, |out, name, p, c| {
            let _ = writeln!(out, "fastbft_{name}{{replica=\"p{p}\"}} {}", c.get());
        });
        let gauges: Vec<_> = self.replicas.iter().map(|m| m.gauges()).collect();
        write_families(&mut out, "gauge", &gauges, |out, name, p, g| {
            let _ = writeln!(out, "fastbft_{name}{{replica=\"p{p}\"}} {}", g.get());
        });
        let histograms: Vec<_> = self.replicas.iter().map(|m| m.histograms()).collect();
        write_families(&mut out, "summary", &histograms, |out, name, p, h| {
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                let _ = writeln!(
                    out,
                    "fastbft_{name}{{replica=\"p{p}\",quantile=\"{label}\"}} {}",
                    h.quantile(q)
                );
            }
            let _ = writeln!(out, "fastbft_{name}_sum{{replica=\"p{p}\"}} {}", h.sum());
            let _ = writeln!(
                out,
                "fastbft_{name}_count{{replica=\"p{p}\"}} {}",
                h.count()
            );
        });
        out
    }

    /// JSON dump: the same data as the text exposition plus each
    /// replica's flight-recorder tail, as one self-contained object.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("{\"replicas\":[");
        for (i, m) in self.replicas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"replica\":\"p{}\",\"counters\":{{", i + 1);
            let mut first = true;
            for (name, _, c) in m.counters().iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{name}\":{}", c.get());
            }
            out.push_str("},\"gauges\":{");
            for (j, (name, _, g)) in m.gauges().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{}", g.get());
            }
            out.push_str("},\"histograms\":{");
            for (j, (name, _, h)) in m.histograms().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\
                     \"p50\":{},\"p99\":{},\"p999\":{}}}",
                    h.count(),
                    h.sum(),
                    h.max(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.quantile(0.999)
                );
            }
            out.push_str("},\"events\":[");
            for (j, e) in m.recorder.snapshot().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                    e.seq,
                    e.at_us,
                    escape_json(e.kind),
                    escape_json(&e.detail)
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// One `# HELP` / `# TYPE` header of `kind` per family, each followed by
/// `series(out, name, N, instrument)` for every replica `pN`: `lists[i]` is
/// replica `i`'s list, and every list holds the same families in the same
/// order, so a family is paired with each replica's by position.
fn write_families<T, const K: usize>(
    out: &mut String,
    kind: &str,
    lists: &[[(&'static str, &'static str, &T); K]],
    series: impl Fn(&mut String, &str, usize, &T),
) {
    let Some(first) = lists.first() else {
        return;
    };
    for (j, (name, help, _)) in first.iter().enumerate() {
        let _ = writeln!(out, "# HELP fastbft_{name} {help}");
        let _ = writeln!(out, "# TYPE fastbft_{name} {kind}");
        for (i, list) in lists.iter().enumerate() {
            series(out, name, i + 1, list[j].2);
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seat_records_into_the_block_the_registry_renders() {
        let reg = MetricsRegistry::new(2);
        reg.replica(1).commit_fast_total.inc();
        assert_eq!(reg.metrics(1).commit_fast_total.get(), 1);
        assert!(Arc::ptr_eq(&reg.replica(1), &reg.replica(1)));
        assert!(!Arc::ptr_eq(&reg.replica(0), &reg.replica(1)));
    }

    #[test]
    fn text_exposition_shape() {
        let reg = MetricsRegistry::new(2);
        reg.metrics(0).commit_fast_total.inc();
        reg.metrics(1).commit_latency_fast_us.record(250);
        let text = reg.render_text();
        let families: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE fastbft_"))
            .collect();
        assert_eq!(
            families,
            [
                "commit_fast_total counter",
                "commit_slow_total counter",
                "view_change_total counter",
                "contribution_refused_total counter",
                "view_skip_total counter",
                "slot_revoked_total counter",
                "leader_suspect_total counter",
                "leader_clear_total counter",
                "cert_cache_miss_total counter",
                "sig_memo_miss_total counter",
                "dedup_dropped_total counter",
                "batch_flush_size_total counter",
                "batch_flush_bytes_total counter",
                "batch_flush_quiescence_total counter",
                "batch_flush_timeout_total counter",
                "ingress_shed_total counter",
                "snapshot_taken_total counter",
                "snapshot_installed_total counter",
                "backfill_slots_total counter",
                "frames_out_total counter",
                "frames_in_total counter",
                "mac_reject_total counter",
                "reconnect_total counter",
                "send_drop_unreachable_total counter",
                "fault_delay_injected_total counter",
                "fault_drop_injected_total counter",
                "fault_dup_injected_total counter",
                "fault_partition_drop_total counter",
                "ingress_shed_bytes_total counter",
                "bytes_out_total counter",
                "bytes_in_total counter",
                "send_drop_total counter",
                "leader_suspected gauge",
                "stash_depth gauge",
                "writer_queue_depth_peak gauge",
                "peer_links_down gauge",
                "fault_links_shaped gauge",
                "batch_size summary",
                "commit_latency_fast_us summary",
                "commit_latency_slow_us summary",
                "apply_latency_us summary",
            ]
        );
        assert!(text.contains("fastbft_commit_fast_total{replica=\"p1\"} 1"));
        assert!(text.contains("fastbft_commit_fast_total{replica=\"p2\"} 0"));
        assert!(text.contains("fastbft_commit_latency_fast_us{replica=\"p2\",quantile=\"0.99\"}"));
        assert!(text.contains("fastbft_commit_latency_fast_us_count{replica=\"p2\"} 1"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(series.starts_with("fastbft_"), "bad series name: {line}");
            assert!(series.contains("{replica=\"p"), "unlabeled series: {line}");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
        }
    }

    #[test]
    fn propose_pipeline_exposition_shape() {
        // The propose-pipeline instruments: flush-reason counters and
        // ingress shed counters (count + bytes) must surface in both
        // exporters.
        let reg = MetricsRegistry::new(1);
        let m = reg.metrics(0);
        m.batch_flush_size_total.add(4);
        m.batch_flush_quiescence_total.inc();
        m.batch_flush_timeout_total.inc();
        m.ingress_shed_total.add(7);
        m.ingress_shed_bytes_total.add(7 * 64);
        let text = reg.render_text();
        assert!(text.contains("# TYPE fastbft_batch_flush_size_total counter"));
        assert!(text.contains("fastbft_batch_flush_size_total{replica=\"p1\"} 4"));
        assert!(text.contains("fastbft_batch_flush_quiescence_total{replica=\"p1\"} 1"));
        assert!(text.contains("fastbft_batch_flush_bytes_total{replica=\"p1\"} 0"));
        assert!(text.contains("fastbft_batch_flush_timeout_total{replica=\"p1\"} 1"));
        assert!(text.contains("fastbft_ingress_shed_total{replica=\"p1\"} 7"));
        assert!(text.contains("fastbft_ingress_shed_bytes_total{replica=\"p1\"} 448"));
        let json = reg.render_json();
        assert!(json.contains("\"ingress_shed_total\":7"));
        assert!(json.contains("\"ingress_shed_bytes_total\":448"));
        assert!(json.contains("\"batch_flush_size_total\":4"));
    }

    #[test]
    fn leader_suspicion_exposition_shape() {
        // The cross-slot suspicion table's instruments and its
        // flight-recorder events must surface in both exporters.
        let reg = MetricsRegistry::new(1);
        let m = reg.metrics(0);
        m.leader_suspect_total.add(3);
        m.leader_clear_total.inc();
        m.leader_suspected.set(2);
        m.view_skip_total.add(40);
        m.slot_revoked_total.add(12);
        m.recorder
            .record("leader-suspicion", "suspect p6 (slot 4, view 1)".into());
        m.recorder
            .record("leader-suspicion", "revoke slot 11 (leader p6)".into());
        m.recorder.record("leader-suspicion", "clear p6".into());
        let text = reg.render_text();
        assert!(text.contains("# TYPE fastbft_leader_suspect_total counter"));
        assert!(text.contains("fastbft_leader_suspect_total{replica=\"p1\"} 3"));
        assert!(text.contains("fastbft_leader_clear_total{replica=\"p1\"} 1"));
        assert!(text.contains("fastbft_view_skip_total{replica=\"p1\"} 40"));
        assert!(text.contains("# TYPE fastbft_slot_revoked_total counter"));
        assert!(text.contains("fastbft_slot_revoked_total{replica=\"p1\"} 12"));
        assert!(text.contains("# TYPE fastbft_leader_suspected gauge"));
        assert!(text.contains("fastbft_leader_suspected{replica=\"p1\"} 2"));
        let json = reg.render_json();
        assert!(json.contains("\"leader_suspect_total\":3"));
        assert!(json.contains("\"leader_clear_total\":1"));
        assert!(json.contains("\"view_skip_total\":40"));
        assert!(json.contains("\"slot_revoked_total\":12"));
        assert!(json.contains("\"leader_suspected\":2"));
        assert!(json.contains("\"detail\":\"suspect p6 (slot 4, view 1)\""));
        assert!(json.contains("\"detail\":\"revoke slot 11 (leader p6)\""));
        assert!(json.contains("\"detail\":\"clear p6\""));
    }

    #[test]
    fn fault_plane_exposition_shape() {
        // The fault-injection plane and the per-link TCP health metrics
        // must surface in both exporters: injected drops/delays/partitions
        // are attributable without grabbing `TcpStats` before spawn.
        let reg = MetricsRegistry::new(1);
        let m = reg.metrics(0);
        m.fault_delay_injected_total.add(11);
        m.fault_drop_injected_total.add(3);
        m.fault_dup_injected_total.inc();
        m.fault_partition_drop_total.add(9);
        m.fault_links_shaped.set(4);
        m.send_drop_unreachable_total.add(6);
        m.peer_links_down.set(2);
        let text = reg.render_text();
        assert!(text.contains("# TYPE fastbft_fault_delay_injected_total counter"));
        assert!(text.contains("fastbft_fault_delay_injected_total{replica=\"p1\"} 11"));
        assert!(text.contains("fastbft_fault_drop_injected_total{replica=\"p1\"} 3"));
        assert!(text.contains("fastbft_fault_dup_injected_total{replica=\"p1\"} 1"));
        assert!(text.contains("fastbft_fault_partition_drop_total{replica=\"p1\"} 9"));
        assert!(text.contains("# TYPE fastbft_fault_links_shaped gauge"));
        assert!(text.contains("fastbft_fault_links_shaped{replica=\"p1\"} 4"));
        assert!(text.contains("fastbft_send_drop_unreachable_total{replica=\"p1\"} 6"));
        assert!(text.contains("# TYPE fastbft_peer_links_down gauge"));
        assert!(text.contains("fastbft_peer_links_down{replica=\"p1\"} 2"));
        let json = reg.render_json();
        assert!(json.contains("\"fault_delay_injected_total\":11"));
        assert!(json.contains("\"fault_drop_injected_total\":3"));
        assert!(json.contains("\"fault_partition_drop_total\":9"));
        assert!(json.contains("\"fault_links_shaped\":4"));
        assert!(json.contains("\"send_drop_unreachable_total\":6"));
        assert!(json.contains("\"peer_links_down\":2"));
    }

    #[test]
    fn json_dump_is_self_contained() {
        let reg = MetricsRegistry::new(1);
        reg.metrics(0).view_change_total.add(3);
        reg.metrics(0)
            .recorder
            .record("view-change", "entered view 2 \"quoted\"".into());
        let json = reg.render_json();
        assert!(json.contains("\"view_change_total\":3"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.starts_with("{\"replicas\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn total_sums_across_replicas() {
        let reg = MetricsRegistry::new(3);
        reg.metrics(0).commit_fast_total.add(2);
        reg.metrics(2).commit_fast_total.add(5);
        assert_eq!(reg.total(|m| &m.commit_fast_total), 7);
    }
}
