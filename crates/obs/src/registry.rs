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
//! One row per metric: the `metrics!` table below declares each exported
//! instrument once — its kind, its field name (the exposition name minus
//! the `fastbft_` prefix) and its HELP text — and generates from it the
//! `pub` field, documented by that HELP text, and the row both exporters
//! walk. To add a metric, add its row where it should appear in the
//! exposition (the JSON dump groups rows by kind, counters first, and the
//! text exposition prints them in table order, so keep each kind
//! together), record into the new field, and extend the golden exposition
//! (`tests/golden_exposition.rs`). A field that is not exported sits in
//! the block after the rows, and each one there says why: the recorder,
//! printed by the JSON dump as its own list, and the `Vestige:` fields,
//! never set, which only the frozen `benchmark/` still reads.
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

/// Declares [`Metrics`] from one `Kind name: "HELP",` row per exported
/// instrument, in exposition order, then `;` and the fields no exporter
/// reads. Each row becomes a `pub` field documented by its HELP text and
/// an entry of [`Metrics::rows`], whose length the rows give.
macro_rules! metrics {
    (
        $( $kind:ident $name:ident: $help:literal, )*
        ;
        $( $(#[$doc:meta])* $field:ident: $ty:ty, )*
    ) => {
        /// Every instrument one replica records into, across all layers.
        /// Field names are the exposition names minus the `fastbft_` prefix.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $( #[doc = $help] pub $name: $kind, )*
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl Metrics {
            /// How many instruments are exported: one per row.
            const ROWS: usize = [$(stringify!($name)),*].len();

            /// Every exported instrument, in exposition order.
            fn rows(&self) -> [Row<'_>; Self::ROWS] {
                [$( (stringify!($name), $help, Instrument::$kind(&self.$name)) ),*]
            }
        }
    };
}

metrics! {
    // core: commit-path and view-change visibility (the paper's shape).
    Counter commit_fast_total: "Slots committed on the 2-delay fast path (n - t acks).",
    Counter commit_slow_total: "Slots committed via the 3-delay slow path (commit certificate).",
    Counter view_change_total: "View changes entered (leader replacements).",
    Counter contribution_refused_total:
        "Acks, Commits, votes and proposals a consensus instance refused to hold: a sender's \
        second in a view, its second view beyond the horizon, a value past its share of the byte \
        budget.",
    // smr: leader suspicion across slots.
    Counter view_skip_total:
        "Wishes raised past a suspected leader instead of waiting for it (at slot open or \
        mid-slot).",
    Counter slot_revoked_total:
        "Slots a suspected seat leads first that this node gave the empty batch, most of them \
        started ahead of the pipeline.",
    Counter leader_suspect_total:
        "Seats newly suspected: own view timer expired with no valid proposal from them.",
    Counter leader_clear_total:
        "Suspected seats cleared by a verified proposal (or a snapshot install).",
    // crypto: what the receiver verified (there is no cache or memo to
    // miss; the names are the ones the frozen `benchmark/` reads).
    Counter cert_cache_miss_total: "Certificates verified, each by walking its signatures.",
    Counter sig_memo_miss_total:
        "Signature checks that ran (HMAC verifications), inside certificates and outside.",
    // smr: the slot multiplexer.
    Counter dedup_dropped_total: "Committed commands skipped by identity dedup (at-most-once).",
    Counter batch_flush_size_total:
        "Proposal batches flushed because the adaptive target was reached.",
    Counter batch_flush_bytes_total: "Proposal batches flushed at the max_batch_bytes cap.",
    Counter batch_flush_quiescence_total: "Proposal batches flushed because the pipeline was idle.",
    Counter batch_flush_timeout_total: "Proposal batches flushed by the flush-age backstop.",
    Counter ingress_shed_total: "Client commands shed at ingress by the pending-queue budget.",
    Counter snapshot_taken_total: "Canonical snapshots taken at checkpoint boundaries.",
    Counter snapshot_installed_total: "Attested snapshots installed during far-behind recovery.",
    Counter backfill_slots_total: "Slots absorbed from quorum-matched backfill frames.",
    // net: the TCP transport.
    Counter frames_out_total: "TCP frames written (one coalesced frame per writer drain).",
    Counter frames_in_total: "TCP frames read and MAC-verified.",
    Counter mac_reject_total: "Inbound frames dropped for a bad session MAC or sender.",
    Counter reconnect_total: "Peer links re-established after a drop (first dials excluded).",
    Counter send_drop_unreachable_total:
        "Outbound messages dropped because the peer link was down or cooling down.",
    // faults: the injection plane (FaultTransport / FaultPlan).
    Counter fault_delay_injected_total: "Deliveries delayed by the fault plan (delay, jitter).",
    Counter fault_drop_injected_total: "Deliveries dropped by the fault plan's probabilistic loss.",
    Counter fault_partition_drop_total: "Deliveries dropped by a hard partition in the fault plan.",
    // The byte counters, then the transport's other drops.
    Counter ingress_shed_bytes_total: "Command bytes shed at ingress by the pending-queue budget.",
    Counter bytes_out_total: "Wire bytes written, including frame headers and MACs.",
    Counter bytes_in_total: "Wire payload bytes read from verified frames.",
    Counter send_drop_total: "Outbound messages dropped (oversized or writer queue full).",
    // smr: what a slot decided.
    Counter slot_empty_total: "Slots applied that decided the empty batch.",
    // crypto: what the seat signed.
    Counter signatures_made_total:
        "Signatures made: consensus statements, votes and checkpoint attestations.",
    // smr: what applying a command costs the queue.
    Counter pending_compared_total:
        "Pending-queue entries compared while applying commands: the whole queue on a miss, up \
        to the match on a hit.",
    Gauge leader_suspected: "Seats this node currently suspects as dead leaders.",
    Gauge writer_queue_depth_peak: "High-water mark of any per-peer writer queue, in messages.",
    Gauge peer_links_down: "Peer links currently unreachable (writer dialing or cooling down).",
    Gauge fault_links_shaped:
        "Fault-plan rules active in this node's snapshot (pairs + wildcards).",
    Histogram batch_size: "Client commands per proposed slot batch.",
    Histogram commit_latency_fast_us: "Slot open to fast-path decision, wall-clock microseconds.",
    Histogram commit_latency_slow_us: "Slot open to slow-path decision, wall-clock microseconds.",
    Histogram apply_latency_us: "Slot open to state-machine apply, wall-clock microseconds.",
    ;
    /// This replica's flight recorder (rare control-plane events); the
    /// JSON dump prints its tail after the rows.
    recorder: FlightRecorder,
    /// Vestige: never set and not exported. The frozen
    /// `benchmark/src/layers.rs` reads it for `crypto.cert_cache_hit_ratio`,
    /// which therefore reads 0.
    cert_cache_hit_total: Counter,
    /// Vestige: never set and not exported. The frozen
    /// `benchmark/src/layers.rs` reads it for `crypto.sig_memo_hit_ratio`,
    /// which therefore reads 0.
    sig_memo_hit_total: Counter,
    /// Vestige: never set and not exported. The frozen
    /// `benchmark/src/loadgen.rs` reads it for `smr.apply_queue_peak`,
    /// which therefore reads 0.
    apply_queue_depth: Gauge,
    /// Vestige: never set and not exported. The frozen
    /// `benchmark/src/loadgen.rs` reads it for `smr.stash_peak`, which
    /// therefore reads 0: consensus frames beyond the slot window are
    /// dropped.
    stash_depth: Gauge,
}

/// One exported instrument of a seat's block: `(name, help, instrument)`.
type Row<'a> = (&'static str, &'static str, Instrument<'a>);

/// One exported instrument of a seat's block.
#[derive(Clone, Copy)]
enum Instrument<'a> {
    Counter(&'a Counter),
    Gauge(&'a Gauge),
    Histogram(&'a Histogram),
}

impl Instrument<'_> {
    /// The text exposition's `# TYPE`.
    fn type_name(self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "summary",
        }
    }

    /// The JSON dump's section.
    fn section(self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counters",
            Instrument::Gauge(_) => "gauges",
            Instrument::Histogram(_) => "histograms",
        }
    }
}

impl Metrics {
    /// A fresh block with everything at zero.
    pub fn new() -> Self {
        Metrics::default()
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
    /// `registry.total(|m| &m.<counter>)`.
    pub fn total(&self, pick: impl Fn(&Metrics) -> &Counter) -> u64 {
        self.replicas.iter().map(|m| pick(m).get()).sum()
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` headers per
    /// family, one `replica="pN"`-labeled series per seat, histograms as
    /// summaries (`quantile` labels + `_sum` + `_count`).
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        let seats: Vec<_> = self.replicas.iter().map(|m| m.rows()).collect();
        let Some(first) = seats.first() else {
            return out;
        };
        for (j, (name, help, instrument)) in first.iter().enumerate() {
            let _ = writeln!(out, "# HELP fastbft_{name} {help}");
            let _ = writeln!(out, "# TYPE fastbft_{name} {}", instrument.type_name());
            for (i, rows) in seats.iter().enumerate() {
                let p = i + 1;
                let mut series = |suffix: &str, quantile: &str, value: u64| {
                    let _ = writeln!(
                        out,
                        "fastbft_{name}{suffix}{{replica=\"p{p}\"{quantile}}} {value}"
                    );
                };
                match rows[j].2 {
                    Instrument::Counter(c) => series("", "", c.get()),
                    Instrument::Gauge(g) => series("", "", g.get()),
                    Instrument::Histogram(h) => {
                        for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                            series("", &format!(",quantile=\"{label}\""), h.quantile(q));
                        }
                        series("_sum", "", h.sum());
                        series("_count", "", h.count());
                    }
                }
            }
        }
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
            let _ = write!(out, "{{\"replica\":\"p{}\"", i + 1);
            let rows = m.rows();
            for section in ["counters", "gauges", "histograms"] {
                let _ = write!(out, ",\"{section}\":{{");
                let in_section = rows.iter().filter(|row| row.2.section() == section);
                for (j, (name, _, instrument)) in in_section.enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = match instrument {
                        Instrument::Counter(c) => write!(out, "\"{name}\":{}", c.get()),
                        Instrument::Gauge(g) => write!(out, "\"{name}\":{}", g.get()),
                        Instrument::Histogram(h) => write!(
                            out,
                            "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\
                             \"p50\":{},\"p99\":{},\"p999\":{}}}",
                            h.count(),
                            h.sum(),
                            h.max(),
                            h.quantile(0.5),
                            h.quantile(0.99),
                            h.quantile(0.999)
                        ),
                    };
                }
                out.push('}');
            }
            out.push_str(",\"events\":[");
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
