//! The repo's benchmark: client-visible latency and throughput of the
//! replicated-KV stack on named workloads, and per-layer numbers from
//! a traced run. See `README.md` next to this package.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! benchmark --probe            # hop and crypto probes only
//! benchmark --smoke            # 2 s windows, all workloads, oracle only
//! ```

mod cluster;
mod layers;
mod loadgen;
mod oracle;
mod probes;
mod report;
mod simreplay;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::layers::{Counters, TracedInputs};
use crate::loadgen::{LoadGen, Window};
use crate::report::{Values, END_TO_END, PER_LAYER};
use crate::stats::{median_f64, quiet_f64, Percentiles};
use crate::workload::{Link, Load, Workload, WORKLOADS};

/// Clusters set up (and warmed) per untraced run; `setup_s` is the median.
const SETUPS: usize = 5;
/// How long the final quiesce may take beyond the commit limit.
const QUIESCE_SLACK: Duration = Duration::from_secs(3);
/// A run whose generator fell further behind its schedule than this is
/// flagged invalid: its latencies include the generator's own lateness.
const GEN_LATE_LIMIT_MS: f64 = 100.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    probe: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        traced: false,
        probe: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value("0 or 1")? == "1",
            "--traced" => args.traced = true,
            "--probe" => args.probe = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// The window's figures: whole-window percentiles and rate, and the
/// latency of the window's quiet slices that the end-to-end metrics report.
struct Summary {
    whole: Percentiles,
    /// Commits in the window over the time from its start to the last of
    /// them: a measured span, so the figure keeps all its digits where the
    /// count over the nominal length would read the offered rate exactly.
    cmds_per_s: f64,
    /// The quiet slices' median (90th percentile): [`quiet_f64`] over the
    /// slices' own.
    lat_p50_us: f64,
    lat_p90_us: f64,
    /// Per slice: rate, p50 and p90 — printed so a reader can see how
    /// even the window was.
    slices: Vec<(f64, f64, f64)>,
}

fn summarize(win: &mut Window) -> Summary {
    let slice_s = loadgen::SLICE.as_secs_f64().min(win.seconds);
    let rates: Vec<f64> = win
        .committed_by_slice
        .iter()
        .map(|c| *c as f64 / slice_s)
        .collect();
    let mut all = Vec::new();
    let mut slices = Vec::new();
    for (slice, rate) in win.latencies_ns.iter_mut().zip(&rates) {
        if slice.is_empty() {
            continue;
        }
        let p = Percentiles::of(slice);
        slices.push((*rate, p.p50 as f64 / 1e3, p.p90 as f64 / 1e3));
        all.extend_from_slice(slice);
    }
    let quiet = |pick: fn(&(f64, f64, f64)) -> f64| {
        quiet_f64(&slices.iter().map(pick).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    Summary {
        whole: Percentiles::of(&mut all),
        cmds_per_s: report::per(win.committed as f64, win.commit_span.as_secs_f64()),
        lat_p50_us: quiet(|s| s.1),
        lat_p90_us: quiet(|s| s.2),
        slices,
    }
}

/// What the oracle has to say once a cluster is shut down.
struct Verdict {
    violations: Vec<String>,
    /// Most log indexes the oracle tracked at once (its memory bound).
    peak_tracked: usize,
    /// Keys in the oracle's model store, which every replica's digest
    /// matched.
    model_keys: usize,
    /// Filler commands it took to get every live replica to the same log
    /// end (0 unless a replica had fallen behind when the load stopped).
    nudges: u64,
}

/// One cluster's life after set-up: window, final quiesce, shutdown, oracle.
struct Measured {
    window: Window,
    summary: Summary,
    verdict: Verdict,
    traced: Option<TracedRun>,
}

/// What the traced run keeps from its cluster for the per-layer figures.
struct TracedRun {
    hub: trace::TraceHub,
    aggs: Vec<trace::Agg>,
    counters: Counters,
    fast_p50_us: f64,
    slow_p50_us: f64,
}

/// Builds and warms one cluster; returns it with its load generator and
/// how long that took.
fn set_up<'w>(
    w: &'w Workload,
    seed: u64,
    traced: bool,
) -> Result<(cluster::Cluster, LoadGen<'w>, f64), String> {
    let started = Instant::now();
    let cluster = cluster::build(w, seed, traced).map_err(|e| format!("set-up failed: {e}"))?;
    let mut gen = LoadGen::new(w, seed);
    gen.warm_up(&cluster.handle)?;
    Ok((cluster, gen, started.elapsed().as_secs_f64()))
}

/// Shuts a warmed cluster down and runs the oracle's final checks.
fn tear_down(
    cluster: cluster::Cluster,
    mut gen: LoadGen<'_>,
    w: &Workload,
    quiesced: bool,
) -> Verdict {
    let traced = cluster.tracing.is_some();
    let digests = cluster::shutdown(cluster.handle, w, traced);
    // Replicas only have to agree on state once they have applied the same
    // log; a quiesce that did not get them there is already a violation.
    if quiesced {
        gen.oracle.check_digests(&digests);
    }
    Verdict {
        violations: gen.oracle.violations().to_vec(),
        peak_tracked: gen.oracle.peak_tracked,
        model_keys: gen.oracle.model_keys(),
        nudges: gen.nudges,
    }
}

fn measure(
    cluster: cluster::Cluster,
    mut gen: LoadGen<'_>,
    w: &Workload,
    seconds: u64,
) -> Measured {
    let tracing = cluster.tracing.as_ref();
    if let Some(t) = tracing {
        t.hub.set_capturing(true);
    }
    let before = tracing.map(|t| (t.hub.aggregates(), Counters::read(&t.registry, &t.tcp)));
    let mut window = gen.run_window(
        &cluster.handle,
        Duration::from_secs(seconds),
        tracing.map(|t| &t.registry),
    );
    let traced = tracing.zip(before).map(|(t, (aggs0, counters0))| {
        t.hub.set_capturing(false);
        let aggs = t
            .hub
            .aggregates()
            .iter()
            .zip(&aggs0)
            .take(w.live())
            .map(|(now, then)| now.minus(then))
            .collect();
        let (fast_p50_us, slow_p50_us) = layers::commit_p50s(&t.registry, w.live());
        TracedRun {
            hub: t.hub.clone(),
            aggs,
            counters: Counters::read(&t.registry, &t.tcp).minus(&counters0),
            fast_p50_us,
            slow_p50_us,
        }
    });
    let quiesced = gen.quiesce(&cluster.handle, w.commit_timeout + QUIESCE_SLACK);
    let summary = summarize(&mut window);
    let verdict = tear_down(cluster, gen, w, quiesced);
    Measured {
        window,
        summary,
        verdict,
        traced,
    }
}

fn print_window(w: &Workload, m: &Measured) {
    let s = &m.summary;
    // A percentile is only worth printing with ten samples beyond it.
    let p99 = if s.whole.supports(0.99) {
        format!("{:.1} us", s.whole.p99 as f64 / 1e3)
    } else {
        "not supported by the sample".to_string()
    };
    println!(
        "# window: {} s, {} attempted, {} failed, {} committed in window; whole-window latency over {} samples: p50 {:.1} us, p90 {:.1} us, p99 {p99}, max {:.1} us; generator late by at most {:.3} ms; longest gap between commits {:.3} ms",
        m.window.seconds,
        m.window.attempted,
        m.window.failed,
        m.window.committed,
        s.whole.samples,
        s.whole.p50 as f64 / 1e3,
        s.whole.p90 as f64 / 1e3,
        s.whole.max as f64 / 1e3,
        m.window.gen_late_max.as_secs_f64() * 1e3,
        m.window.stall_max.as_secs_f64() * 1e3,
    );
    let row = |pick: fn(&(f64, f64, f64)) -> f64| {
        let cells: Vec<String> = s.slices.iter().map(|c| format!("{:.0}", pick(c))).collect();
        cells.join(" ")
    };
    println!("# slices: cmds/s [{}]", row(|c| c.0));
    println!("# slices: p50 us [{}]", row(|c| c.1));
    println!("# slices: p90 us [{}]", row(|c| c.2));
    let load = match w.load {
        Load::Closed { outstanding } => format!("closed loop, {outstanding} outstanding"),
        Load::Open { rate } => format!("open loop, {rate}/s, timed from due time"),
    };
    println!(
        "# load: {load}; committed = applied at f+1 = {} of {} live replicas; reported p50/p90 are those of the quiet slices (5th percentile over {} s slices), the rate is commits over the span to the last one",
        w.f + 1,
        w.live(),
        loadgen::SLICE.as_secs_f64()
    );
    println!(
        "# oracle: passed; at most {} log indexes tracked at once; replica digests match a model store of {} keys; {} filler commands offered to get a lagging replica to catch up",
        m.verdict.peak_tracked, m.verdict.model_keys, m.verdict.nudges
    );
}

fn valid(m: &Measured) -> bool {
    m.window.gen_late_max.as_secs_f64() * 1e3 <= GEN_LATE_LIMIT_MS
}

fn report_violations(violations: &[String]) {
    eprintln!("correctness oracle failed:");
    for v in violations {
        eprintln!("  {v}");
    }
}

/// The untraced run: end-to-end metrics only.
fn run_untraced(w: &Workload, seed: u64, seconds: u64, setups: usize) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut rehearsal_nudges = 0;
    for _ in 1..setups {
        // A rehearsal: only its set-up time is wanted, but its log is
        // checked like any other.
        let (cluster, gen, took) = set_up(w, seed, false)?;
        setup_s.push(took);
        let verdict = tear_down(cluster, gen, w, true);
        if !verdict.violations.is_empty() {
            report_violations(&verdict.violations);
            return Err("oracle failed during a set-up rehearsal".to_string());
        }
        rehearsal_nudges += verdict.nudges;
    }
    let (cluster, gen, took) = set_up(w, seed, false)?;
    setup_s.push(took);
    let m = measure(cluster, gen, w, seconds);
    if !m.verdict.violations.is_empty() {
        report_violations(&m.verdict.violations);
        return Err("oracle failed".to_string());
    }
    print_window(w, &m);
    println!(
        "# set-up: {} rounds, {:?} s ({} filler commands in the rehearsals); valid: {}",
        setups,
        setup_s,
        rehearsal_nudges,
        valid(&m)
    );
    let mut values = Values::default();
    values.set("setup_s", median_f64(&setup_s).unwrap_or(0.0));
    values.set("cmds_per_s", m.summary.cmds_per_s);
    values.set("lat_p50_us", m.summary.lat_p50_us);
    values.check(END_TO_END)?;
    print!("{}", report::table(END_TO_END, &values));
    println!(
        "{}",
        report::result_line(
            END_TO_END,
            &values,
            true,
            m.window.attempted,
            m.window.failed
        )
    );
    Ok(m)
}

/// Where traces go: Cargo's target directory (`cargo run` passes both
/// variables on), else `./target`.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("CARGO_MANIFEST_DIR").map(|d| PathBuf::from(d).join("target")))
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("benchmark-traces")
}

/// The traced run: per-layer metrics. An untraced reference window on a
/// second cluster gives the tracing overhead. The traced window is half of
/// `seconds` and the reference a quarter, so that with the probes a traced
/// run takes no longer than an untraced one.
fn run_traced(w: &Workload, seed: u64, seconds: u64) -> Result<(), String> {
    let traced_s = (seconds / 2).max(2);
    let (cluster, gen, _) = set_up(w, seed, true)?;
    let m = measure(cluster, gen, w, traced_s);
    if !m.verdict.violations.is_empty() {
        report_violations(&m.verdict.violations);
        return Err("oracle failed".to_string());
    }
    print_window(w, &m);
    println!("# valid: {}", valid(&m));
    let run = m.traced.as_ref().ok_or("traced run lost its trace")?;

    let reference_s = (seconds / 4).max(2);
    let (cluster, gen, _) = set_up(w, seed, false)?;
    let reference = measure(cluster, gen, w, reference_s);
    if !reference.verdict.violations.is_empty() {
        report_violations(&reference.verdict.violations);
        return Err("oracle failed in the untraced reference window".to_string());
    }
    let overhead_pct = match w.load {
        Load::Closed { .. } => {
            100.0 * (1.0 - report::per(m.summary.cmds_per_s, reference.summary.cmds_per_s))
        }
        Load::Open { .. } => {
            100.0 * (report::per(m.summary.lat_p50_us, reference.summary.lat_p50_us) - 1.0)
        }
    };
    println!(
        "# untraced reference: {} s window, {:.1} cmds/s, p50 {:.1} us",
        reference_s, reference.summary.cmds_per_s, reference.summary.lat_p50_us
    );

    let captured = run.hub.captured();
    let tcp = w.link == Link::Tcp;
    let tcp_hop = if tcp {
        Some(probes::tcp_hop().map_err(|e| format!("tcp hop probe: {e}"))?)
    } else {
        None
    };
    let msgs_per_frame = report::per(run.counters.tcp_msgs as f64, run.counters.tcp_frames as f64);
    let inputs = TracedInputs {
        w,
        window: &m.window,
        whole: &m.summary.whole,
        cmds_per_s: m.summary.cmds_per_s,
        lat_p50_us: m.summary.lat_p50_us,
        lat_p90_us: m.summary.lat_p90_us,
        aggs: &run.aggs,
        counters: &run.counters,
        fast_p50_us: run.fast_p50_us,
        slow_p50_us: run.slow_p50_us,
        chan_hop: probes::channel_hop(),
        tcp_hop,
        fault_hop: w.delta.map(probes::fault_hop_excess),
        crypto: probes::crypto(),
        codec: probes::codec(&captured),
        framing: if tcp {
            probes::framing(&captured, msgs_per_frame)
        } else {
            probes::Framing::default()
        },
        apply_only_cmds_per_s: probes::apply_only(w, seed),
        sim: simreplay::counts(w, seed),
        trace_overhead_pct: overhead_pct,
        rss_peak_mb: report::rss_peak_mb(),
    };
    println!(
        "# probes ran over {} captured messages (frames of {:.0} B); sim replay of {} commands",
        inputs.codec.sample,
        inputs.framing.frame_bytes,
        simreplay::REPLAY_CMDS
    );
    let values = layers::per_layer(&inputs);
    values.check(PER_LAYER)?;

    let dir = trace_dir();
    let path = dir.join(format!("{}.trace.json", w.name));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, run.hub.to_json(w.name)))
    {
        Ok(()) => println!("# trace written to {}", path.display()),
        Err(e) => println!("# trace not written ({}): {e}", path.display()),
    }

    print!("{}", report::table(PER_LAYER, &values));
    println!(
        "{}",
        report::result_line(
            PER_LAYER,
            &values,
            true,
            m.window.attempted,
            m.window.failed
        )
    );
    Ok(())
}

/// `--probe`: the steady-state cost of one message delay on each kind of
/// link, and the crypto primitives, in the traced run's output format.
fn run_probes() -> Result<(), String> {
    let tcp = probes::tcp_hop().map_err(|e| format!("tcp hop probe: {e}"))?;
    let chan = probes::channel_hop();
    let fault = probes::fault_hop_excess(workload::WAN_DELTA);
    let crypto = probes::crypto();
    println!(
        "# hop samples: tcp {}, channel {}, fault {}",
        tcp.samples, chan.samples, fault.samples
    );
    let mut values = Values::default();
    values.set("net.hop_us_p50", tcp.p50_us);
    values.set("net.hop_us_p90", tcp.p90_us);
    values.set("runtime.chan_hop_us_p50", chan.p50_us);
    values.set("runtime.fault_hop_excess_us_p50", fault.p50_us);
    layers::set_crypto(&mut values, &crypto);
    let declared: Vec<report::Decl> = PER_LAYER
        .iter()
        .filter(|d| values.get(d.name).is_some())
        .copied()
        .collect();
    values.check(&declared)?;
    print!("{}", report::table(&declared, &values));
    let attempted = (tcp.samples + chan.samples + fault.samples) as u64;
    println!(
        "{}",
        report::result_line(&declared, &values, true, attempted.max(1), 0)
    );
    Ok(())
}

/// `--smoke`: every workload with a 2 s window and one set-up round; cheap
/// enough for CI, and the oracle runs in full.
fn run_smoke(seed: u64) -> Result<(), String> {
    for w in &WORKLOADS {
        println!("# smoke: {}", w.name);
        let m = run_untraced(w, seed, 2, 1)?;
        if m.window.failed > 0 {
            return Err(format!("{}: {} commands failed", w.name, m.window.failed));
        }
    }
    println!(
        "# smoke: all {} workloads passed the oracle",
        WORKLOADS.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: benchmark --workload <{}> --seed <u64> --seconds <n> --trace <0|1> | --probe | --smoke",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.probe {
        println!(
            "# env: {}",
            report::environment(None, args.seed, 0, "probe")
        );
        run_probes()
    } else if args.smoke {
        println!(
            "# env: {}",
            report::environment(None, args.seed, 2, "smoke")
        );
        run_smoke(args.seed)
    } else {
        let Some(w) = args.workload.as_deref().and_then(workload::by_name) else {
            eprintln!(
                "--workload must be one of: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            );
            return ExitCode::from(2);
        };
        let mode = if args.traced { "traced" } else { "untraced" };
        println!(
            "# env: {}",
            report::environment(Some(w), args.seed, args.seconds, mode)
        );
        println!("# why: {}", w.why);
        if args.traced {
            run_traced(w, args.seed, args.seconds)
        } else {
            run_untraced(w, args.seed, args.seconds, SETUPS).map(|_| ())
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
