//! Metric names, units and the output format.
//!
//! `BENCHMARK.json` at the repo root declares the same names; a unit test
//! holds the two together. Every run prints an environment block, then
//! every metric by name with its unit, then — as the last line of standard
//! output — one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::workload::Workload;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        higher: true,
    }
}

/// What a user of the system sees; printed by the untraced run. The 90th
/// percentile is not here but under `bench.`: on `paced4_tcp` and
/// `wan7_fast` two sets of runs of one commit disagreed on it by more than
/// any bound worth having (see the README).
pub const END_TO_END: &[Decl] = &[
    lower("setup_s", "s"),
    higher("cmds_per_s", "1/s"),
    lower("lat_p50_us", "us"),
];

/// Single layers; printed by the traced run. The README's table says where
/// each comes from and which end-to-end metric it should move.
pub const PER_LAYER: &[Decl] = &[
    // bench: the generator's own view of the traced run.
    lower("bench.failed_frac", "ratio"),
    higher("bench.cmds_per_s", "1/s"),
    lower("bench.lat_p50_us", "us"),
    lower("bench.lat_p90_us", "us"),
    lower("bench.lat_p99_us", "us"),
    lower("bench.lat_max_us", "us"),
    lower("bench.gen_late_max_ms", "ms"),
    lower("bench.stall_max_ms", "ms"),
    lower("bench.rss_peak_mb", "MB"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.unexplained_us_p50", "us"),
    // runtime
    lower("runtime.loop_busy_frac", "ratio"),
    lower("runtime.wakeups_per_cmd", "count"),
    higher("runtime.events_per_wakeup", "count"),
    lower("runtime.send_call_us_per_cmd", "us"),
    lower("runtime.chan_hop_us_p50", "us"),
    lower("runtime.fault_hop_excess_us_p50", "us"),
    // net
    lower("net.frames_per_cmd", "count"),
    lower("net.bytes_per_cmd", "B"),
    higher("net.msgs_per_frame", "count"),
    lower("net.writer_queue_peak", "count"),
    lower("net.send_drops", "count"),
    lower("net.reconnects", "count"),
    lower("net.mac_rejects", "count"),
    lower("net.hop_us_p50", "us"),
    lower("net.hop_us_p90", "us"),
    lower("net.seal_ns_per_frame", "ns"),
    lower("net.open_ns_per_frame", "ns"),
    // crypto
    lower("crypto.sign_ns", "ns"),
    lower("crypto.verify_cold_ns", "ns"),
    lower("crypto.verify_memo_ns", "ns"),
    lower("crypto.value_digest_ns_per_kib", "ns"),
    lower("crypto.session_mac_ns_per_kib", "ns"),
    lower("crypto.sig_verifies_per_cmd", "count"),
    higher("crypto.sig_memo_hit_ratio", "ratio"),
    higher("crypto.cert_cache_hit_ratio", "ratio"),
    // types
    lower("types.encode_ns_per_msg", "ns"),
    lower("types.decode_ns_per_msg", "ns"),
    lower("types.msg_bytes_mean", "B"),
    // core
    higher("core.fast_share", "ratio"),
    lower("core.view_changes_per_kslot", "count"),
    lower("core.commit_fast_p50_us", "us"),
    lower("core.commit_slow_p50_us", "us"),
    lower("core.fast_delays", "delays"),
    lower("core.slow_delays", "delays"),
    lower("core.client_delays_p50", "delays"),
    lower("core.sim_fast_delays", "delays"),
    lower("core.sim_slow_delays", "delays"),
    lower("core.sim_msgs_per_slot", "count"),
    // smr
    higher("smr.cmds_per_slot", "count"),
    higher("smr.flush_size_share", "ratio"),
    higher("smr.flush_quiescence_share", "ratio"),
    lower("smr.flush_timeout_share", "ratio"),
    lower("smr.handler_us_per_cmd", "us"),
    lower("smr.on_client_us_per_cmd", "us"),
    lower("smr.apply_us_per_cmd", "us"),
    higher("smr.apply_only_cmds_per_s", "1/s"),
    lower("smr.snapshot_us_mean", "us"),
    lower("smr.snapshots_taken", "count"),
    lower("smr.ingress_shed", "count"),
    lower("smr.dedup_dropped", "count"),
    lower("smr.stash_peak", "count"),
    lower("smr.apply_queue_peak", "count"),
    lower("smr.backfill_slots", "count"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        // JSON has no NaN or infinity; a ratio over zero work reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Checks that exactly the declared metrics are present.
    pub fn check(&self, declared: &[Decl]) -> Result<(), String> {
        for d in declared {
            if !self.0.contains_key(d.name) {
                return Err(format!("declared metric {} was not measured", d.name));
            }
        }
        for name in self.0.keys() {
            if !declared.iter().any(|d| d.name == *name) {
                return Err(format!("metric {name} is measured but not declared"));
            }
        }
        Ok(())
    }
}

/// `a / b`, or 0 when there was no `b`.
pub fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The machine-read last line.
pub fn result_line(
    declared: &[Decl],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in declared.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = values.get(d.name).unwrap_or(0.0);
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, v, d.unit
        );
    }
    out.push_str("}}");
    out
}

/// The human-read table: one metric per line, by name, with its unit.
pub fn table(declared: &[Decl], values: &Values) -> String {
    let mut out = String::new();
    for d in declared {
        let v = values.get(d.name).unwrap_or(0.0);
        let _ = writeln!(out, "{:<36} {:>16.4} {}", d.name, v, d.unit);
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Where and on what the numbers were taken — heads every output.
pub fn environment(w: Option<&Workload>, seed: u64, seconds: u64, mode: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = format!(
        "{{\"mode\": \"{mode}\", \"seed\": {seed}, \"seconds\": {seconds}, \"nproc\": {cores}, \"sha_ni\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\"",
        sha_extensions(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    if let Some(w) = w {
        let _ = write!(
            out,
            ", \"workload\": \"{}\", \"gated\": {}, \"transport\": \"{}\", \"n\": {}, \"f\": {}, \"t\": {}, \"silent_seats\": {}, \"delta_us\": {}, \"value_bytes\": {}",
            w.name,
            w.gated,
            w.transport_label(),
            w.n,
            w.f,
            w.t,
            w.silent,
            w.delta.map_or(0, |d| d.as_micros()),
            w.value_bytes
        );
    }
    out.push('}');
    out
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where the kernel
/// does not say.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
pub mod json {
    //! Just enough JSON reading to check the benchmark's own output and
    //! `BENCHMARK.json` in tests.

    use std::collections::BTreeMap;

    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
                _ => &Json::Null,
            }
        }

        pub fn items(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                _ => &[],
            }
        }

        pub fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => "",
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(m) => m.keys().map(String::as_str).collect(),
                _ => Vec::new(),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }

    fn skip(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                skip(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    skip(b, pos);
                    let key = string(b, pos)?;
                    expect(b, pos, b':')?;
                    map.insert(key, value(b, pos)?);
                    skip(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    skip(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end".to_string()),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let start = *pos;
        while *pos < b.len() && b[*pos] != b'"' {
            if b[*pos] == b'\\' {
                return Err("escapes are not used in these files".to_string());
            }
            *pos += 1;
        }
        let s = std::str::from_utf8(&b[start..*pos])
            .map_err(|e| e.to_string())?
            .to_string();
        *pos += 1;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Json};
    use super::*;
    use crate::workload::WORKLOADS;

    fn filled(declared: &[Decl]) -> Values {
        let mut v = Values::default();
        for (i, d) in declared.iter().enumerate() {
            v.set(d.name, 1.5 + i as f64);
        }
        v
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_declared_names() {
        for declared in [END_TO_END, PER_LAYER] {
            let values = filled(declared);
            values.check(declared).unwrap();
            let parsed = parse(&result_line(declared, &values, true, 1000, 3)).unwrap();
            let mut keys = parsed.keys();
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(*parsed.get("correct"), Json::Bool(true));
            assert_eq!(*parsed.get("attempted"), Json::Num(1000.0));
            assert_eq!(*parsed.get("failed"), Json::Num(3.0));
            let metrics = parsed.get("metrics");
            assert_eq!(metrics.keys().len(), declared.len());
            for (i, d) in declared.iter().enumerate() {
                let m = metrics.get(d.name);
                assert_eq!(*m.get("value"), Json::Num(1.5 + i as f64), "{}", d.name);
                assert_eq!(m.get("unit").str(), d.unit);
            }
        }
    }

    #[test]
    fn undeclared_and_missing_metrics_are_refused() {
        let mut values = filled(END_TO_END);
        values.set("bench.made_up", 1.0);
        assert!(values
            .check(END_TO_END)
            .unwrap_err()
            .contains("not declared"));
        let values = filled(&END_TO_END[1..]);
        assert!(values.check(END_TO_END).unwrap_err().contains("setup_s"));
    }

    #[test]
    fn non_finite_values_never_reach_the_output() {
        let mut values = Values::default();
        values.set("setup_s", f64::NAN);
        values.set("cmds_per_s", f64::INFINITY);
        assert_eq!(values.get("setup_s"), Some(0.0));
        assert_eq!(values.get("cmds_per_s"), Some(0.0));
        assert_eq!(per(1.0, 0.0), 0.0);
    }

    /// `BENCHMARK.json` and the tables above name the same workloads and
    /// metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).unwrap();

        let names: Vec<&str> = doc
            .get("workloads")
            .items()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
        let ours: Vec<&str> = gated.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for (w, ours) in doc.get("workloads").items().iter().zip(gated) {
            assert_eq!(w.get("why").str(), ours.why);
        }

        for (section, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = doc.get(section).items();
            assert_eq!(items.len(), declared.len(), "{section}");
            for (item, d) in items.iter().zip(declared) {
                assert_eq!(item.get("name").str(), d.name);
                assert_eq!(item.get("unit").str(), d.unit, "{}", d.name);
                let better = if d.higher { "higher" } else { "lower" };
                assert_eq!(item.get("better").str(), better, "{}", d.name);
            }
        }
        assert!(doc
            .get("paths")
            .items()
            .iter()
            .any(|p| p.str() == "benchmark"));
    }
}
