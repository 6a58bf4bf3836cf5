//! perfbench — host-time benchmark of the xplacer verbs.
//!
//! ```text
//! perfbench --workload <native|minicu|optimize|replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on one thread: set-up (repeated, median
//! reported), an untimed warm-up, then a timed op list fixed by the seed
//! and the op count. Every time is CPU time of the process, scaled to a
//! reference host speed by a probe read around each timed call
//! ([`clock`]): a run that waits for its CPU, or runs while other guests
//! slow the host, is not counted slower. The op count is `--seconds` times the workload's
//! calibrated op rate, never a function of elapsed time. Each op's
//! outputs are checked by an oracle outside the timed region; an op that
//! fails its oracle, returns `Err` or panics is counted and the run goes
//! on.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records the
//! benchmark's own layer spans, writes them as Chrome trace-event JSON
//! under `perfbench/out/`, and prints the per-layer metrics. The last
//! line of stdout is always the JSON result object. See README.md.

mod clock;
mod minicu;
mod native;
mod opt;
mod replay;
mod rng;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics `--trace 0` prints, in order.
pub const END_TO_END: [&str; 5] = [
    "cpu_s",
    "op_cpu_ms_p50",
    "op_cpu_ms_p90",
    "op_peak_rss_mb_p90",
    "setup_s",
];

/// Per-layer counts a workload accumulates over its timed ops.
pub type Counts = BTreeMap<&'static str, f64>;

/// A printed metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// One benchmark workload: a seeded op list plus its oracle.
pub trait Workload {
    /// What an op hands to its oracle.
    type Done;
    fn op_count(&self) -> usize;
    /// Work the traced run does before op `i`, outside the op span.
    fn traced_prelude(&self, _i: usize) {}
    /// The timed op.
    fn run(&self, i: usize) -> Result<Self::Done, String>;
    /// The op's oracle (untimed). Adds the op's counts on success.
    fn verify(&self, i: usize, done: Self::Done, counts: &mut Counts) -> Result<(), String>;
}

/// How a workload is sized and set up.
struct Plan<W> {
    /// Ops per second of `--seconds`, calibrated on a 2-vCPU x86-64 host.
    ops_per_s: f64,
    /// Set-up repetitions; `setup_s` is their median.
    setup_reps: usize,
    /// Leading ops run once untimed before the timed list.
    warmup: usize,
    /// Layer spans whose self time is the workload's named heavy layer.
    heavy: &'static [&'static str],
    setup: fn(u64, usize) -> W,
}

/// Ops in every run, whatever `--seconds` says: the p90 latency needs at
/// least ten samples beyond it.
const MIN_OPS: usize = 110;

/// Every metric `--trace 1` prints, with its unit.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.setup_ms", "ms"),
    ("hetsim.plain_ms", "ms"),
    ("hetsim.ns_per_access", "ns"),
    ("core.traced_ms", "ms"),
    ("core.trace_overhead_x", "x"),
    ("core.analyze_ms", "ms"),
    ("obs.profile_ms", "ms"),
    ("obs.blame_ms", "ms"),
    ("check.run_ms", "ms"),
    ("check.overhead_x", "x"),
    ("lang.parse_ms", "ms"),
    ("lang.parse_mb_per_s", "MB/s"),
    ("instrument.pass_ms", "ms"),
    ("interp.plain_ms", "ms"),
    ("interp.traced_ms", "ms"),
    ("interp.overhead_x", "x"),
    ("interp.ns_per_access", "ns"),
    ("optimize.program_ms", "ms"),
    ("optimize.workload_ms", "ms"),
    ("optimize.ms_per_eval", "ms"),
    ("obs.trace_load_ms", "ms"),
    ("obs.trace_load_mb_per_s", "MB/s"),
    ("obs.top_ms", "ms"),
    ("obs.diff_ms", "ms"),
    ("obs.serialize_ms", "ms"),
    ("hetsim.accesses", "count"),
    ("hetsim.faults", "count"),
    ("hetsim.migrations", "count"),
    ("hetsim.evictions", "count"),
    ("hetsim.bytes_moved_mb", "MB"),
    ("hetsim.sim_ms", "sim-ms"),
    ("hetsim.events", "count"),
    ("hetsim.events_dropped", "count"),
    ("core.findings", "count"),
    ("check.findings", "count"),
    ("lang.source_kb", "KB"),
    ("optimize.evals", "count"),
    ("optimize.accept_ratio", "ratio"),
    ("optimize.improved_share", "ratio"),
    ("obs.trace_kb", "KB"),
    ("obs.events", "count"),
    ("bench.traced_cpu_s", "s"),
    ("bench.raw_cpu_s", "s"),
    ("bench.host_speed", "ratio"),
    ("bench.wall_per_cpu", "ratio"),
    ("bench.op_ms", "ms"),
    ("bench.glue_share", "ratio"),
    ("bench.heavy_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <native|minicu|optimize|replay> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "native" => measure(&args, native::plan()),
        "minicu" => measure(&args, minicu::plan()),
        "optimize" => measure(&args, opt::plan()),
        "replay" => measure(&args, replay::plan()),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one op under `catch_unwind`, restoring the span stack if it
/// panicked.
fn guarded<W: Workload>(w: &W, i: usize) -> Result<W::Done, String> {
    let depth = spans::open_depth();
    let r = catch_unwind(AssertUnwindSafe(|| w.run(i)));
    spans::close_to(depth);
    r.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// One timed call: CPU seconds as measured, and scaled to the reference
/// host speed by the probes read right before and right after it.
struct Timed {
    raw_s: f64,
    scaled_s: f64,
    probe_ns: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let before = clock::probe_ns();
    let t = clock::cpu_ns();
    let out = f();
    let raw_s = clock::secs(t, clock::cpu_ns());
    let after = clock::probe_ns();
    let timed = Timed {
        raw_s,
        scaled_s: raw_s * clock::scale(before, after),
        probe_ns: (before + after) / 2.0,
    };
    (out, timed)
}

/// Set up, warm up, time the op list, and format the result line.
fn measure<W: Workload>(args: &Args, plan: Plan<W>) -> Result<String, String> {
    let target = ((args.seconds as f64 * plan.ops_per_s).ceil() as usize).max(MIN_OPS);
    if args.trace {
        spans::enable();
    }

    let mut setup_s = Vec::with_capacity(plan.setup_reps);
    let mut work = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(work.take());
        let (w, t) = timed(|| spans::span(spans::SETUP, || (plan.setup)(args.seed, target)));
        setup_s.push(t.scaled_s);
        work = Some(w);
    }
    let work = work.expect("at least one set-up ran");
    let n = work.op_count();

    // Warm-up: the first ops, untimed and unrecorded.
    spans::set_recording(false);
    for i in 0..plan.warmup.min(n) {
        let _ = guarded(&work, i);
    }
    spans::set_recording(true);

    let mut lat_ms = Vec::with_capacity(n);
    let mut rss_mb = Vec::with_capacity(n);
    let mut probes = Vec::with_capacity(n);
    let (mut raw_s, mut wall_s) = (0.0, 0.0);
    let mut counts = Counts::new();
    let mut failed = 0usize;
    for i in 0..n {
        if args.trace {
            work.traced_prelude(i);
        }
        spans::set_op(Some(i));
        reset_peak_rss()?;
        let ((done, wall), t) = timed(|| {
            let wall = Instant::now();
            let done = spans::span(spans::OP, || guarded(&work, i));
            (done, wall.elapsed())
        });
        spans::set_op(None);
        rss_mb.push(peak_rss_mb()?);
        lat_ms.push(t.scaled_s * 1e3);
        probes.push(t.probe_ns);
        raw_s += t.raw_s;
        wall_s += wall.as_secs_f64();
        let verdict = done.and_then(|d| work.verify(i, d, &mut counts));
        if let Err(e) = verdict {
            failed += 1;
            eprintln!("perfbench: {} op {i} failed: {e}", args.workload);
        }
    }

    let cpu_s = lat_ms.iter().sum::<f64>() / 1e3;
    let mut sorted = lat_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let (p50, _) = percentile(&sorted, 0.50);
    let (p90, beyond) = percentile(&sorted, 0.90);
    rss_mb.sort_by(f64::total_cmp);
    let (rss_p90, _) = percentile(&rss_mb, 0.90);
    let rss_max = rss_mb[n - 1];
    let setup_med = median(&mut setup_s);
    let host = Host {
        raw_cpu_s: raw_s,
        wall_s,
        speed: clock::PROBE_REF_NS / median(&mut probes),
    };
    println!(
        "{}: seed {} | {n} ops ({failed} failed) | cpu {cpu_s:.3} s at reference speed \
         ({raw_s:.3} s measured, host speed {:.3}, wall {wall_s:.3} s) \
         | op cpu p50 {p50:.3} ms, p90 {p90:.3} ms ({beyond} samples beyond p90) \
         | set-up cpu {setup_med:.4} s (median of {}) | op peak rss p90 {rss_p90:.1} MB, \
         max {rss_max:.1} MB | fail_ratio {}",
        args.workload,
        args.seed,
        host.speed,
        setup_s.len(),
        failed as f64 / n as f64
    );

    let metrics: Vec<Metric> = if args.trace {
        let all = spans::take();
        let rows = per_layer(&all, &counts, cpu_s, &host, plan.heavy);
        write_trace(args, &all, &rows)?;
        rows
    } else {
        let values = [
            (cpu_s, "s"),
            (p50, "ms"),
            (p90, "ms"),
            (rss_p90, "MB"),
            (setup_med, "s"),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(name, (value, unit))| (*name, value, unit))
            .collect()
    };
    Ok(result_line(failed == 0, n, failed, &metrics))
}

/// What the traced run saw of the host: unscaled CPU and wall seconds of
/// its op list, and the host speed (reference probe time over the median
/// probe time; above 1 is faster than the reference).
struct Host {
    raw_cpu_s: f64,
    wall_s: f64,
    speed: f64,
}

/// Nearest-rank percentile of sorted samples, with the number of samples
/// above it.
fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

extern "C" {
    /// glibc: hand free heap memory back to the OS.
    fn malloc_trim(pad: usize) -> i32;
}

/// Start an op's memory measurement as a fresh `xplacer` process would
/// start: give back the heap memory earlier ops freed, which glibc
/// otherwise keeps resident in amounts that depend on the order of the
/// ops (it moved `native`'s per-op p90 by 13 % between seeds), then reset
/// the peak resident set (`VmHWM`) to the current one.
fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim only releases memory no allocation holds; it
    // may be called at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Per-layer metrics of a traced run, in [`PER_LAYER`] order.
fn per_layer(
    spans: &[spans::Span],
    counts: &Counts,
    traced_cpu_s: f64,
    host: &Host,
    heavy: &[&str],
) -> Vec<Metric> {
    let t = spans::self_times(spans);
    let self_ms = |name: &str| t.get(name).map_or(0.0, |v| v.self_ns as f64 / 1e6);
    let total_ms = |name: &str| t.get(name).map_or(0.0, |v| v.total_ns as f64 / 1e6);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    for name in spans::LAYERS.iter().chain([&spans::SERIALIZE]) {
        v.insert(layer_metric(name), self_ms(name));
    }
    let accesses = count("hetsim.accesses");
    v.insert(
        "hetsim.ns_per_access",
        ratio(self_ms("hetsim.plain") * 1e6, accesses),
    );
    v.insert(
        "core.trace_overhead_x",
        ratio(self_ms("core.traced"), self_ms("hetsim.plain")),
    );
    v.insert(
        "check.overhead_x",
        ratio(
            total_ms("check.run"),
            total_ms("hetsim.plain") + total_ms("interp.plain"),
        ),
    );
    v.insert(
        "lang.parse_mb_per_s",
        ratio(
            count("lang.source_kb") / 1024.0,
            self_ms("lang.parse") / 1e3,
        ),
    );
    v.insert(
        "interp.overhead_x",
        ratio(self_ms("interp.traced"), self_ms("interp.plain")),
    );
    v.insert(
        "interp.ns_per_access",
        ratio(self_ms("interp.plain") * 1e6, accesses),
    );
    v.insert(
        "optimize.ms_per_eval",
        ratio(
            self_ms("optimize.program") + self_ms("optimize.workload"),
            count("optimize.evals"),
        ),
    );
    v.insert(
        "optimize.accept_ratio",
        ratio(count("optimize.accepted"), count("optimize.rows")),
    );
    v.insert(
        "optimize.improved_share",
        ratio(count("optimize.improved"), count("optimize.ops")),
    );
    v.insert(
        "obs.trace_load_mb_per_s",
        ratio(
            count("obs.trace_kb") / 1024.0,
            self_ms("obs.trace_load") / 1e3,
        ),
    );
    let op_ms = total_ms(spans::OP);
    v.insert("bench.traced_cpu_s", traced_cpu_s);
    v.insert("bench.raw_cpu_s", host.raw_cpu_s);
    v.insert("bench.host_speed", host.speed);
    v.insert("bench.wall_per_cpu", ratio(host.wall_s, host.raw_cpu_s));
    v.insert("bench.op_ms", op_ms);
    v.insert("bench.glue_share", ratio(self_ms(spans::OP), op_ms));
    v.insert(
        "bench.heavy_share",
        ratio(heavy.iter().map(|h| self_ms(h)).sum(), op_ms),
    );

    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = v.get(name).copied().unwrap_or_else(|| count(name));
            (*name, value, *unit)
        })
        .collect()
}

/// `hetsim.plain` → `hetsim.plain_ms`.
fn layer_metric(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix("_ms") == Some(span))
        .unwrap_or_else(|| panic!("span `{span}` has no per-layer metric"))
}

/// Write the spans and the per-layer summary to `perfbench/out/`.
fn write_trace(args: &Args, spans: &[spans::Span], rows: &[Metric]) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, spans::chrome_trace(spans, rows))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {}",
        spans.len(),
        path.display()
    );
    for (name, value, unit) in rows {
        if *value != 0.0 {
            eprintln!("  {name:<26} {value:>14.4} {unit}");
        }
    }
    Ok(())
}

/// The result object the benchmark's last stdout line carries.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_samples_beyond() {
        let v: Vec<f64> = (1..=110).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.5), (55.0, 55));
        assert_eq!(percentile(&v, 0.9), (99.0, 11));
        let (_, beyond) = percentile(&vec![0.0; MIN_OPS], 0.9);
        assert!(beyond >= 10, "MIN_OPS leaves {beyond} samples beyond p90");
    }

    #[test]
    fn every_span_maps_to_a_per_layer_metric() {
        for name in spans::LAYERS.iter().chain([&spans::SERIALIZE]) {
            layer_metric(name);
        }
    }

    /// Run the first `ops` ops of `w` traced; return the span names seen
    /// inside ops and the counts the oracles accumulated.
    fn traced_ops<W: Workload>(w: &W, ops: usize) -> (Vec<&'static str>, Counts) {
        spans::enable();
        let mut counts = Counts::new();
        for i in 0..ops {
            w.traced_prelude(i);
            spans::set_op(Some(i));
            let done = spans::span(spans::OP, || w.run(i)).unwrap_or_else(|e| panic!("{e}"));
            spans::set_op(None);
            w.verify(i, done, &mut counts)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        let mut names: Vec<&str> = spans::take()
            .into_iter()
            .filter(|s| s.op.is_some())
            .map(|s| s.name)
            .collect();
        names.sort();
        names.dedup();
        (names, counts)
    }

    #[test]
    fn counts_repeat_and_idle_layers_record_no_spans() {
        let check = |names: &[&str], busy: &[&str], idle: &[&str]| {
            for n in names {
                assert!(
                    *n == spans::OP || spans::LAYERS.contains(n),
                    "span `{n}` maps to no per-layer metric"
                );
                assert!(!idle.iter().any(|p| n.starts_with(p)), "{n} in {names:?}");
            }
            for b in busy {
                assert!(names.contains(b), "{b} missing from {names:?}");
            }
        };
        let (names, counts) = traced_ops(&native::Native::setup(3, 8), 8);
        assert_eq!(counts, traced_ops(&native::Native::setup(3, 8), 8).1);
        check(
            &names,
            &[
                "workloads.setup",
                "hetsim.plain",
                "core.traced",
                "check.run",
            ],
            &[
                "lang.",
                "instrument.",
                "interp.",
                "optimize.",
                "obs.trace_load",
            ],
        );

        let (names, counts) = traced_ops(&minicu::MiniCu::setup(3, 6), 6);
        assert_eq!(counts, traced_ops(&minicu::MiniCu::setup(3, 6), 6).1);
        check(
            &names,
            &["interp.plain", "interp.traced", "check.run"],
            &["hetsim.", "workloads.", "optimize.", "obs."],
        );

        let (names, _) = traced_ops(&replay::Replay::setup(3, 16), 16);
        check(
            &names,
            &["obs.trace_load", "obs.blame", "obs.top", "obs.diff"],
            &[
                "hetsim.",
                "workloads.",
                "core.",
                "check.",
                "lang.",
                "instrument.",
                "interp.",
                "optimize.",
            ],
        );
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = xplacer_obs::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let xplacer_obs::Json::Arr(items) = doc.get(key).expect(key) else {
                panic!("{key} is not an array")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let listed = names("per_layer");
        let printed: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, printed, "per_layer in BENCHMARK.json");
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, END_TO_END, "end_to_end in BENCHMARK.json");
    }
}
