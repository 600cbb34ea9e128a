//! The golden exposition: both exporters of a two-seat registry, with
//! every exported instrument holding a value of its own, pinned byte for
//! byte.
//!
//! Each counter reads its position in the exposition (1–34 at p1, 101–134
//! at p2), each gauge 41–44 (141–144), and each histogram holds four
//! samples scaled by its position, so a family rendered out of order, under
//! another's name, from another seat or not at all changes a line below.
//! One flight-recorder event per seat carries a quote, so the JSON dump's
//! escaping is pinned too; its `at_us` is wall-clock and reads `_` here.
//! A change to either exporter or to the set of exported metrics edits
//! these literals, and nothing else does.

use fastbft_obs::{Metrics, MetricsRegistry};

/// Seat `base / 100 + 1`'s values, every instrument in exposition order.
fn fill(m: &Metrics, base: u64) {
    let counters = [
        &m.commit_fast_total,
        &m.commit_slow_total,
        &m.view_change_total,
        &m.contribution_refused_total,
        &m.view_skip_total,
        &m.slot_revoked_total,
        &m.leader_suspect_total,
        &m.leader_clear_total,
        &m.cert_cache_miss_total,
        &m.sig_memo_miss_total,
        &m.dedup_dropped_total,
        &m.batch_flush_size_total,
        &m.batch_flush_bytes_total,
        &m.batch_flush_quiescence_total,
        &m.batch_flush_timeout_total,
        &m.ingress_shed_total,
        &m.snapshot_taken_total,
        &m.snapshot_installed_total,
        &m.backfill_slots_total,
        &m.frames_out_total,
        &m.frames_in_total,
        &m.mac_reject_total,
        &m.reconnect_total,
        &m.send_drop_unreachable_total,
        &m.fault_delay_injected_total,
        &m.fault_drop_injected_total,
        &m.fault_partition_drop_total,
        &m.ingress_shed_bytes_total,
        &m.bytes_out_total,
        &m.bytes_in_total,
        &m.send_drop_total,
        &m.slot_empty_total,
        &m.signatures_made_total,
        &m.pending_compared_total,
    ];
    for (k, counter) in (1..).zip(counters) {
        counter.add(base + k);
    }
    let gauges = [
        &m.leader_suspected,
        &m.writer_queue_depth_peak,
        &m.peer_links_down,
        &m.fault_links_shaped,
    ];
    for (k, gauge) in (41..).zip(gauges) {
        gauge.set(base + k);
    }
    let histograms = [
        &m.batch_size,
        &m.commit_latency_fast_us,
        &m.commit_latency_slow_us,
        &m.apply_latency_us,
    ];
    for (k, histogram) in (1..).zip(histograms) {
        for sample in [3, 40, 500, 6_000] {
            histogram.record(base + k * sample);
        }
    }
    m.recorder.record(
        "view-change",
        format!("p{} slot 3 entered view 2 (\"quoted\")", base / 100 + 1),
    );
}

/// The JSON dump with every event's wall-clock `"at_us":<digits>` read as
/// `"at_us":_`.
fn masked(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"at_us\":") {
        let (head, tail) = rest.split_at(at + "\"at_us\":".len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn registry() -> MetricsRegistry {
    let registry = MetricsRegistry::new(2);
    fill(registry.metrics(0), 0);
    fill(registry.metrics(1), 100);
    registry
}
/// `render_text()`, byte for byte.
const TEXT: &str = r#"# HELP fastbft_commit_fast_total Slots committed on the 2-delay fast path (n - t acks).
# TYPE fastbft_commit_fast_total counter
fastbft_commit_fast_total{replica="p1"} 1
fastbft_commit_fast_total{replica="p2"} 101
# HELP fastbft_commit_slow_total Slots committed via the 3-delay slow path (commit certificate).
# TYPE fastbft_commit_slow_total counter
fastbft_commit_slow_total{replica="p1"} 2
fastbft_commit_slow_total{replica="p2"} 102
# HELP fastbft_view_change_total View changes entered (leader replacements).
# TYPE fastbft_view_change_total counter
fastbft_view_change_total{replica="p1"} 3
fastbft_view_change_total{replica="p2"} 103
# HELP fastbft_contribution_refused_total Acks, Commits, votes and proposals a consensus instance refused to hold: a sender's second in a view, its second view beyond the horizon, a value past its share of the byte budget.
# TYPE fastbft_contribution_refused_total counter
fastbft_contribution_refused_total{replica="p1"} 4
fastbft_contribution_refused_total{replica="p2"} 104
# HELP fastbft_view_skip_total Wishes raised past a suspected leader instead of waiting for it (at slot open or mid-slot).
# TYPE fastbft_view_skip_total counter
fastbft_view_skip_total{replica="p1"} 5
fastbft_view_skip_total{replica="p2"} 105
# HELP fastbft_slot_revoked_total Slots a suspected seat leads first that this node gave the empty batch, most of them started ahead of the pipeline.
# TYPE fastbft_slot_revoked_total counter
fastbft_slot_revoked_total{replica="p1"} 6
fastbft_slot_revoked_total{replica="p2"} 106
# HELP fastbft_leader_suspect_total Seats newly suspected: own view timer expired with no valid proposal from them.
# TYPE fastbft_leader_suspect_total counter
fastbft_leader_suspect_total{replica="p1"} 7
fastbft_leader_suspect_total{replica="p2"} 107
# HELP fastbft_leader_clear_total Suspected seats cleared by a verified proposal (or a snapshot install).
# TYPE fastbft_leader_clear_total counter
fastbft_leader_clear_total{replica="p1"} 8
fastbft_leader_clear_total{replica="p2"} 108
# HELP fastbft_cert_cache_miss_total Certificates verified, each by walking its signatures.
# TYPE fastbft_cert_cache_miss_total counter
fastbft_cert_cache_miss_total{replica="p1"} 9
fastbft_cert_cache_miss_total{replica="p2"} 109
# HELP fastbft_sig_memo_miss_total Signature checks that ran (HMAC verifications), inside certificates and outside.
# TYPE fastbft_sig_memo_miss_total counter
fastbft_sig_memo_miss_total{replica="p1"} 10
fastbft_sig_memo_miss_total{replica="p2"} 110
# HELP fastbft_dedup_dropped_total Committed commands skipped by identity dedup (at-most-once).
# TYPE fastbft_dedup_dropped_total counter
fastbft_dedup_dropped_total{replica="p1"} 11
fastbft_dedup_dropped_total{replica="p2"} 111
# HELP fastbft_batch_flush_size_total Proposal batches flushed because the adaptive target was reached.
# TYPE fastbft_batch_flush_size_total counter
fastbft_batch_flush_size_total{replica="p1"} 12
fastbft_batch_flush_size_total{replica="p2"} 112
# HELP fastbft_batch_flush_bytes_total Proposal batches flushed at the max_batch_bytes cap.
# TYPE fastbft_batch_flush_bytes_total counter
fastbft_batch_flush_bytes_total{replica="p1"} 13
fastbft_batch_flush_bytes_total{replica="p2"} 113
# HELP fastbft_batch_flush_quiescence_total Proposal batches flushed because the pipeline was idle.
# TYPE fastbft_batch_flush_quiescence_total counter
fastbft_batch_flush_quiescence_total{replica="p1"} 14
fastbft_batch_flush_quiescence_total{replica="p2"} 114
# HELP fastbft_batch_flush_timeout_total Proposal batches flushed by the flush-age backstop.
# TYPE fastbft_batch_flush_timeout_total counter
fastbft_batch_flush_timeout_total{replica="p1"} 15
fastbft_batch_flush_timeout_total{replica="p2"} 115
# HELP fastbft_ingress_shed_total Client commands shed at ingress by the pending-queue budget.
# TYPE fastbft_ingress_shed_total counter
fastbft_ingress_shed_total{replica="p1"} 16
fastbft_ingress_shed_total{replica="p2"} 116
# HELP fastbft_snapshot_taken_total Canonical snapshots taken at checkpoint boundaries.
# TYPE fastbft_snapshot_taken_total counter
fastbft_snapshot_taken_total{replica="p1"} 17
fastbft_snapshot_taken_total{replica="p2"} 117
# HELP fastbft_snapshot_installed_total Attested snapshots installed during far-behind recovery.
# TYPE fastbft_snapshot_installed_total counter
fastbft_snapshot_installed_total{replica="p1"} 18
fastbft_snapshot_installed_total{replica="p2"} 118
# HELP fastbft_backfill_slots_total Slots absorbed from quorum-matched backfill frames.
# TYPE fastbft_backfill_slots_total counter
fastbft_backfill_slots_total{replica="p1"} 19
fastbft_backfill_slots_total{replica="p2"} 119
# HELP fastbft_frames_out_total TCP frames written (one coalesced frame per writer drain).
# TYPE fastbft_frames_out_total counter
fastbft_frames_out_total{replica="p1"} 20
fastbft_frames_out_total{replica="p2"} 120
# HELP fastbft_frames_in_total TCP frames read and MAC-verified.
# TYPE fastbft_frames_in_total counter
fastbft_frames_in_total{replica="p1"} 21
fastbft_frames_in_total{replica="p2"} 121
# HELP fastbft_mac_reject_total Inbound frames dropped for a bad session MAC or sender.
# TYPE fastbft_mac_reject_total counter
fastbft_mac_reject_total{replica="p1"} 22
fastbft_mac_reject_total{replica="p2"} 122
# HELP fastbft_reconnect_total Peer links re-established after a drop (first dials excluded).
# TYPE fastbft_reconnect_total counter
fastbft_reconnect_total{replica="p1"} 23
fastbft_reconnect_total{replica="p2"} 123
# HELP fastbft_send_drop_unreachable_total Outbound messages dropped because the peer link was down or cooling down.
# TYPE fastbft_send_drop_unreachable_total counter
fastbft_send_drop_unreachable_total{replica="p1"} 24
fastbft_send_drop_unreachable_total{replica="p2"} 124
# HELP fastbft_fault_delay_injected_total Deliveries delayed by the fault plan (delay, jitter).
# TYPE fastbft_fault_delay_injected_total counter
fastbft_fault_delay_injected_total{replica="p1"} 25
fastbft_fault_delay_injected_total{replica="p2"} 125
# HELP fastbft_fault_drop_injected_total Deliveries dropped by the fault plan's probabilistic loss.
# TYPE fastbft_fault_drop_injected_total counter
fastbft_fault_drop_injected_total{replica="p1"} 26
fastbft_fault_drop_injected_total{replica="p2"} 126
# HELP fastbft_fault_partition_drop_total Deliveries dropped by a hard partition in the fault plan.
# TYPE fastbft_fault_partition_drop_total counter
fastbft_fault_partition_drop_total{replica="p1"} 27
fastbft_fault_partition_drop_total{replica="p2"} 127
# HELP fastbft_ingress_shed_bytes_total Command bytes shed at ingress by the pending-queue budget.
# TYPE fastbft_ingress_shed_bytes_total counter
fastbft_ingress_shed_bytes_total{replica="p1"} 28
fastbft_ingress_shed_bytes_total{replica="p2"} 128
# HELP fastbft_bytes_out_total Wire bytes written, including frame headers and MACs.
# TYPE fastbft_bytes_out_total counter
fastbft_bytes_out_total{replica="p1"} 29
fastbft_bytes_out_total{replica="p2"} 129
# HELP fastbft_bytes_in_total Wire payload bytes read from verified frames.
# TYPE fastbft_bytes_in_total counter
fastbft_bytes_in_total{replica="p1"} 30
fastbft_bytes_in_total{replica="p2"} 130
# HELP fastbft_send_drop_total Outbound messages dropped (oversized or writer queue full).
# TYPE fastbft_send_drop_total counter
fastbft_send_drop_total{replica="p1"} 31
fastbft_send_drop_total{replica="p2"} 131
# HELP fastbft_slot_empty_total Slots applied that decided the empty batch.
# TYPE fastbft_slot_empty_total counter
fastbft_slot_empty_total{replica="p1"} 32
fastbft_slot_empty_total{replica="p2"} 132
# HELP fastbft_signatures_made_total Signatures made: consensus statements, votes and checkpoint attestations.
# TYPE fastbft_signatures_made_total counter
fastbft_signatures_made_total{replica="p1"} 33
fastbft_signatures_made_total{replica="p2"} 133
# HELP fastbft_pending_compared_total Pending-queue entries compared while applying commands: the whole queue on a miss, up to the match on a hit.
# TYPE fastbft_pending_compared_total counter
fastbft_pending_compared_total{replica="p1"} 34
fastbft_pending_compared_total{replica="p2"} 134
# HELP fastbft_leader_suspected Seats this node currently suspects as dead leaders.
# TYPE fastbft_leader_suspected gauge
fastbft_leader_suspected{replica="p1"} 41
fastbft_leader_suspected{replica="p2"} 141
# HELP fastbft_writer_queue_depth_peak High-water mark of any per-peer writer queue, in messages.
# TYPE fastbft_writer_queue_depth_peak gauge
fastbft_writer_queue_depth_peak{replica="p1"} 42
fastbft_writer_queue_depth_peak{replica="p2"} 142
# HELP fastbft_peer_links_down Peer links currently unreachable (writer dialing or cooling down).
# TYPE fastbft_peer_links_down gauge
fastbft_peer_links_down{replica="p1"} 43
fastbft_peer_links_down{replica="p2"} 143
# HELP fastbft_fault_links_shaped Fault-plan rules active in this node's snapshot (pairs + wildcards).
# TYPE fastbft_fault_links_shaped gauge
fastbft_fault_links_shaped{replica="p1"} 44
fastbft_fault_links_shaped{replica="p2"} 144
# HELP fastbft_batch_size Client commands per proposed slot batch.
# TYPE fastbft_batch_size summary
fastbft_batch_size{replica="p1",quantile="0.5"} 41
fastbft_batch_size{replica="p1",quantile="0.99"} 6143
fastbft_batch_size{replica="p1",quantile="0.999"} 6143
fastbft_batch_size_sum{replica="p1"} 6543
fastbft_batch_size_count{replica="p1"} 4
fastbft_batch_size{replica="p2",quantile="0.5"} 143
fastbft_batch_size{replica="p2",quantile="0.99"} 6143
fastbft_batch_size{replica="p2",quantile="0.999"} 6143
fastbft_batch_size_sum{replica="p2"} 6943
fastbft_batch_size_count{replica="p2"} 4
# HELP fastbft_commit_latency_fast_us Slot open to fast-path decision, wall-clock microseconds.
# TYPE fastbft_commit_latency_fast_us summary
fastbft_commit_latency_fast_us{replica="p1",quantile="0.5"} 83
fastbft_commit_latency_fast_us{replica="p1",quantile="0.99"} 12287
fastbft_commit_latency_fast_us{replica="p1",quantile="0.999"} 12287
fastbft_commit_latency_fast_us_sum{replica="p1"} 13086
fastbft_commit_latency_fast_us_count{replica="p1"} 4
fastbft_commit_latency_fast_us{replica="p2",quantile="0.5"} 183
fastbft_commit_latency_fast_us{replica="p2",quantile="0.99"} 12287
fastbft_commit_latency_fast_us{replica="p2",quantile="0.999"} 12287
fastbft_commit_latency_fast_us_sum{replica="p2"} 13486
fastbft_commit_latency_fast_us_count{replica="p2"} 4
# HELP fastbft_commit_latency_slow_us Slot open to slow-path decision, wall-clock microseconds.
# TYPE fastbft_commit_latency_slow_us summary
fastbft_commit_latency_slow_us{replica="p1",quantile="0.5"} 123
fastbft_commit_latency_slow_us{replica="p1",quantile="0.99"} 18431
fastbft_commit_latency_slow_us{replica="p1",quantile="0.999"} 18431
fastbft_commit_latency_slow_us_sum{replica="p1"} 19629
fastbft_commit_latency_slow_us_count{replica="p1"} 4
fastbft_commit_latency_slow_us{replica="p2",quantile="0.5"} 223
fastbft_commit_latency_slow_us{replica="p2",quantile="0.99"} 18431
fastbft_commit_latency_slow_us{replica="p2",quantile="0.999"} 18431
fastbft_commit_latency_slow_us_sum{replica="p2"} 20029
fastbft_commit_latency_slow_us_count{replica="p2"} 4
# HELP fastbft_apply_latency_us Slot open to state-machine apply, wall-clock microseconds.
# TYPE fastbft_apply_latency_us summary
fastbft_apply_latency_us{replica="p1",quantile="0.5"} 167
fastbft_apply_latency_us{replica="p1",quantile="0.99"} 24575
fastbft_apply_latency_us{replica="p1",quantile="0.999"} 24575
fastbft_apply_latency_us_sum{replica="p1"} 26172
fastbft_apply_latency_us_count{replica="p1"} 4
fastbft_apply_latency_us{replica="p2",quantile="0.5"} 271
fastbft_apply_latency_us{replica="p2",quantile="0.99"} 24575
fastbft_apply_latency_us{replica="p2",quantile="0.999"} 24575
fastbft_apply_latency_us_sum{replica="p2"} 26572
fastbft_apply_latency_us_count{replica="p2"} 4
"#;

/// `render_json()`, byte for byte apart from `"at_us"`, cut at commas.
const JSON: &str = concat!(
    r#"{"replicas":[{"replica":"p1","counters":{"commit_fast_total":1,"#,
    r#""commit_slow_total":2,"view_change_total":3,"contribution_refused_total":4,"#,
    r#""view_skip_total":5,"slot_revoked_total":6,"leader_suspect_total":7,"#,
    r#""leader_clear_total":8,"cert_cache_miss_total":9,"sig_memo_miss_total":10,"#,
    r#""dedup_dropped_total":11,"batch_flush_size_total":12,"batch_flush_bytes_total":13,"#,
    r#""batch_flush_quiescence_total":14,"batch_flush_timeout_total":15,"#,
    r#""ingress_shed_total":16,"snapshot_taken_total":17,"snapshot_installed_total":18,"#,
    r#""backfill_slots_total":19,"frames_out_total":20,"frames_in_total":21,"#,
    r#""mac_reject_total":22,"reconnect_total":23,"send_drop_unreachable_total":24,"#,
    r#""fault_delay_injected_total":25,"fault_drop_injected_total":26,"#,
    r#""fault_partition_drop_total":27,"ingress_shed_bytes_total":28,"#,
    r#""bytes_out_total":29,"bytes_in_total":30,"send_drop_total":31,"#,
    r#""slot_empty_total":32,"signatures_made_total":33,"pending_compared_total":34},"#,
    r#""gauges":{"leader_suspected":41,"writer_queue_depth_peak":42,"#,
    r#""peer_links_down":43,"fault_links_shaped":44},"histograms":{"batch_size":{"count":4,"#,
    r#""sum":6543,"max":6000,"p50":41,"p99":6143,"p999":6143},"commit_latency_fast_us":{"count":4,"#,
    r#""sum":13086,"max":12000,"p50":83,"p99":12287,"p999":12287},"commit_latency_slow_us":{"count":4,"#,
    r#""sum":19629,"max":18000,"p50":123,"p99":18431,"p999":18431},"#,
    r#""apply_latency_us":{"count":4,"sum":26172,"max":24000,"p50":167,"#,
    r#""p99":24575,"p999":24575}},"events":[{"seq":0,"at_us":_,"kind":"view-change","#,
    r#""detail":"p1 slot 3 entered view 2 (\"quoted\")"}]},{"replica":"p2","#,
    r#""counters":{"commit_fast_total":101,"commit_slow_total":102,"#,
    r#""view_change_total":103,"contribution_refused_total":104,"view_skip_total":105,"#,
    r#""slot_revoked_total":106,"leader_suspect_total":107,"leader_clear_total":108,"#,
    r#""cert_cache_miss_total":109,"sig_memo_miss_total":110,"dedup_dropped_total":111,"#,
    r#""batch_flush_size_total":112,"batch_flush_bytes_total":113,"batch_flush_quiescence_total":114,"#,
    r#""batch_flush_timeout_total":115,"ingress_shed_total":116,"snapshot_taken_total":117,"#,
    r#""snapshot_installed_total":118,"backfill_slots_total":119,"frames_out_total":120,"#,
    r#""frames_in_total":121,"mac_reject_total":122,"reconnect_total":123,"#,
    r#""send_drop_unreachable_total":124,"fault_delay_injected_total":125,"#,
    r#""fault_drop_injected_total":126,"fault_partition_drop_total":127,"#,
    r#""ingress_shed_bytes_total":128,"bytes_out_total":129,"bytes_in_total":130,"#,
    r#""send_drop_total":131,"slot_empty_total":132,"signatures_made_total":133,"#,
    r#""pending_compared_total":134},"#,
    r#""gauges":{"leader_suspected":141,"writer_queue_depth_peak":142,"#,
    r#""peer_links_down":143,"fault_links_shaped":144},"#,
    r#""histograms":{"batch_size":{"count":4,"sum":6943,"max":6100,"#,
    r#""p50":143,"p99":6143,"p999":6143},"commit_latency_fast_us":{"count":4,"#,
    r#""sum":13486,"max":12100,"p50":183,"p99":12287,"p999":12287},"#,
    r#""commit_latency_slow_us":{"count":4,"sum":20029,"max":18100,"#,
    r#""p50":223,"p99":18431,"p999":18431},"apply_latency_us":{"count":4,"#,
    r#""sum":26572,"max":24100,"p50":271,"p99":24575,"p999":24575}},"#,
    r#""events":[{"seq":0,"at_us":_,"kind":"view-change","detail":"p2 slot 3 entered view 2 (\"quoted\")"}]}]}"#,
);

#[test]
fn both_exporters_render_every_instrument_as_pinned() {
    let registry = registry();
    assert_eq!(registry.render_text(), TEXT);
    assert_eq!(masked(&registry.render_json()), JSON);
}
