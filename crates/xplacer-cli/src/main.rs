//! `xplacer` — command-line front end for the XPlacer reproduction.
//!
//! ```text
//! xplacer instrument <file.cu>            print the instrumented source
//! xplacer run <file.cu> [options]         instrument + execute, show output
//! xplacer analyze <file.cu> [options]     run traced and report anti-patterns
//! xplacer advise <file.cu> [options]      run traced and print placement advice
//! xplacer demo <workload> [options]       run a built-in workload traced
//! xplacer profile <workload|file.cu>      cost-attribution profile of a run
//! xplacer top <workload|file.cu>          time-series telemetry dashboard
//! xplacer top --replay <events.json>      replay a recorded event trace
//! xplacer check <workload|file.cu>        memory sanitizer + race detector
//! xplacer platforms                       list the simulated platforms
//!
//! options:
//!   --platform <pascal|volta|power9>      target platform (default pascal)
//!   --plain                               run without instrumentation
//!   --stats                               print simulator counters
//!   --trace-out <file>                    write a Chrome Trace Event JSON
//!   --metrics-out <file>                  write a JSON metrics report
//!   --events-out <file>                   write the full event stream JSON
//!                                         (replayable with `xplacer top`)
//!   --timeseries-out <file>               write epoch-bucketed telemetry JSON
//!   --heatmap                             print page x epoch access heatmaps
//!   --json                                machine-readable report on stdout,
//!                                         human text on stderr
//!   --log-level <quiet|info|debug>        progress chatter verbosity (stderr)
//!
//! profile options:
//!   --top <n>                             rows in hot-allocation/cell lists
//!   --folded-out <file>                   write flamegraph folded stacks
//!
//! top options:
//!   --frames <n>                          dashboard frames to render (default 3)
//!   --ascii                               7-bit ASCII sparklines (deterministic)
//!   --epoch-ns <ns>                       initial telemetry epoch width
//!   --buckets <n>                         bucket cap before downsampling
//!
//! check options (exit 0 clean / 1 findings / 2 usage):
//!   --max-errors <n>                      keep at most n findings in the report
//!   --no-bulk                             force per-word checking (parity debug)
//! ```

use std::cell::RefCell;
use std::io::Write;
use std::process::ExitCode;
use std::rc::Rc;

use hetsim::{platform, EventLog, Machine, MeteredHook, Platform, Stats};
use xplacer_core::antipattern::{analyze, AnalysisConfig};
use xplacer_core::{AllocSummary, OnlineAnalyzer, OnlineConfig, Report, Tracer};
use xplacer_interp::{run_source, run_source_on};
use xplacer_lang::parser::parse;
use xplacer_lang::unparse::unparse;
use xplacer_obs::flamegraph::folded_stacks;
use xplacer_obs::timeseries::timeseries_json;
use xplacer_obs::{
    chrome_trace_with_series, diff, events_json, metrics_report, replay, BlameReport, DashOpts,
    EventTrace, HeatmapRecorder, Json, ProfileReport, RunDigest, Telemetry, TelemetryConfig,
};
use xplacer_workloads::register_names;

/// Ring capacity for `xplacer profile`: attribution wants the complete
/// stream, so the profiler uses a much deeper ring than the default.
const PROFILE_RING_CAPACITY: usize = 1 << 21;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xplacer: {msg}");
            // Usage/IO errors exit 2, so CI can tell them apart from the
            // deliberate exit-1 `diff` regression gate (bench convention).
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: xplacer <instrument|run|analyze|advise|optimize|check|demo|profile|top|blame|diff|platforms> [args]\n\
     try `xplacer demo lulesh`, `xplacer profile pathfinder`, `xplacer top lulesh`, \
     `xplacer blame lulesh`, `xplacer diff a.json b.json`, \
     `xplacer optimize lulesh --jobs 4`, `xplacer check examples/mini/alternating.cu`, \
     or `xplacer analyze examples/mini/alternating.cu`"
        .to_string()
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    let ok = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "instrument" => ok(cmd_instrument(rest)),
        "run" => ok(cmd_run(rest, false)),
        "analyze" => ok(cmd_run(rest, true)),
        "advise" => ok(cmd_advise(rest)),
        "optimize" => ok(cmd_optimize(rest)),
        "demo" => ok(cmd_demo(rest)),
        "profile" => ok(cmd_profile(rest)),
        "top" => ok(cmd_top(rest)),
        "blame" => ok(cmd_blame(rest)),
        "diff" => cmd_diff(rest),
        "check" => cmd_check(rest),
        "platforms" => {
            for pf in platform::all_platforms() {
                println!(
                    "{:<14} {:?}  link {:>3.0} GB/s  fault {:>5.0} ns  gpu-mem {} GiB",
                    pf.name,
                    pf.interconnect,
                    pf.link_bw,
                    pf.fault_ns,
                    pf.gpu_mem_bytes >> 30
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// Progress-chatter verbosity, set with `--log-level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LogLevel {
    Quiet,
    Info,
    Debug,
}

/// Output routing for one invocation. All progress chatter goes through
/// here to stderr, gated by the log level; `human()` is the sink for
/// human-readable *results*, which move to stderr under `--json` so
/// stdout carries exactly one JSON document (`xplacer ... --json | jq`).
struct Ui {
    level: LogLevel,
    json: bool,
}

impl Ui {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut level = LogLevel::Info;
        for (i, a) in args.iter().enumerate() {
            if a == "--log-level" {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| "--log-level needs a value".to_string())?;
                level = match v.as_str() {
                    "quiet" => LogLevel::Quiet,
                    "info" => LogLevel::Info,
                    "debug" => LogLevel::Debug,
                    other => {
                        return Err(format!(
                            "unknown log level `{other}` (expected quiet|info|debug)"
                        ))
                    }
                };
            }
        }
        Ok(Ui {
            level,
            json: args.iter().any(|a| a == "--json"),
        })
    }

    /// Sink for human-readable result text.
    fn human(&self) -> Box<dyn Write> {
        if self.json {
            Box::new(std::io::stderr())
        } else {
            Box::new(std::io::stdout())
        }
    }

    /// Progress line (stderr, suppressed by `--log-level quiet`).
    fn info(&self, msg: &str) {
        if self.level >= LogLevel::Info {
            eprintln!("{msg}");
        }
    }

    /// Verbose diagnostics (stderr, `--log-level debug` only).
    fn debug(&self, msg: &str) {
        if self.level >= LogLevel::Debug {
            eprintln!("xplacer[debug]: {msg}");
        }
    }

    /// Problems the user must see regardless of level.
    fn warn(&self, msg: &str) {
        eprintln!("xplacer: WARNING: {msg}");
    }
}

/// Observability flags shared by `run`, `analyze`, and `demo`.
#[derive(Default)]
struct ObsOpts {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    events_out: Option<String>,
    timeseries_out: Option<String>,
    heatmap: bool,
    json: bool,
}

impl ObsOpts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = ObsOpts::default();
        let mut i = 0;
        let path = |args: &[String], i: usize, flag: &str| {
            args.get(i + 1)
                .ok_or_else(|| format!("{flag} needs a path"))
                .cloned()
        };
        while i < args.len() {
            match args[i].as_str() {
                "--trace-out" => {
                    o.trace_out = Some(path(args, i, "--trace-out")?);
                    i += 1;
                }
                "--metrics-out" => {
                    o.metrics_out = Some(path(args, i, "--metrics-out")?);
                    i += 1;
                }
                "--events-out" => {
                    o.events_out = Some(path(args, i, "--events-out")?);
                    i += 1;
                }
                "--timeseries-out" => {
                    o.timeseries_out = Some(path(args, i, "--timeseries-out")?);
                    i += 1;
                }
                "--heatmap" => o.heatmap = true,
                "--json" => o.json = true,
                _ => {}
            }
            i += 1;
        }
        Ok(o)
    }

    /// Does anything need the structured event stream?
    fn wants_events(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.events_out.is_some()
            || self.json
    }

    /// Does anything need the epoch-bucketed telemetry (and the online
    /// episode detectors that ride on it)?
    fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some() || self.timeseries_out.is_some()
    }
}

/// Observer hooks attached for one run; the CLI keeps shared handles so it
/// can read them back after the program finishes.
#[derive(Default)]
struct Observers {
    log: Option<Rc<RefCell<EventLog>>>,
    heat: Option<Rc<RefCell<HeatmapRecorder>>>,
    telemetry: Option<Rc<RefCell<Telemetry>>>,
    online: Option<Rc<RefCell<OnlineAnalyzer>>>,
}

/// Attach the observers `opts` asks for *alongside* whatever hook the
/// machine already carries (the tracer keeps working).
fn attach_observers(m: &mut Machine, opts: &ObsOpts) -> Observers {
    let mut obs = Observers::default();
    if opts.wants_events() {
        let log = Rc::new(RefCell::new(EventLog::new()));
        m.add_hook(log.clone());
        obs.log = Some(log);
    }
    if opts.wants_telemetry() {
        let tele = Rc::new(RefCell::new(Telemetry::new(
            TelemetryConfig::default(),
            m.platform().link_bw,
        )));
        m.add_hook(tele.clone());
        obs.telemetry = Some(tele);
        let online = Rc::new(RefCell::new(OnlineAnalyzer::new(OnlineConfig::default())));
        m.add_hook(online.clone());
        obs.online = Some(online);
    }
    if opts.heatmap {
        let heat = Rc::new(RefCell::new(HeatmapRecorder::new(m.platform().page_size)));
        m.add_hook(heat.clone());
        obs.heat = Some(heat);
    }
    obs
}

/// Loud, unconditional notice when the event ring overflowed: every
/// exporter downstream of a truncated log silently undercounts.
fn warn_if_truncated(ui: &Ui, log: &EventLog) {
    if log.dropped() > 0 {
        ui.warn(&format!(
            "event ring truncated: {} of {} events dropped — \
             trace/metrics/profile outputs UNDERCOUNT this run",
            log.dropped(),
            log.total_recorded()
        ));
    }
}

/// Write/print the requested artifacts after a run.
#[allow(clippy::too_many_arguments)]
fn emit_observability(
    ui: &Ui,
    opts: &ObsOpts,
    obs: &Observers,
    workload: &str,
    pf: &Platform,
    elapsed_ns: f64,
    stats: &Stats,
    allocs: &[AllocSummary],
    report: Option<&Report>,
) -> Result<(), String> {
    if let Some(log) = &obs.log {
        warn_if_truncated(ui, &log.borrow());
    }
    if let Some(path) = &opts.trace_out {
        let log = obs.log.as_ref().expect("event log attached").borrow();
        let tele = obs.telemetry.as_ref().map(|t| t.borrow());
        let text = chrome_trace_with_series(&log, tele.as_deref()).to_string_compact();
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!(
            "wrote chrome trace to {path} ({} events; open in chrome://tracing)",
            log.len()
        ));
    }
    if let Some(path) = &opts.events_out {
        let log = obs.log.as_ref().expect("event log attached").borrow();
        let doc = events_json(&log, workload, elapsed_ns, pf, allocs);
        std::fs::write(path, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!(
            "wrote event stream to {path} ({} events; replay with `xplacer top --replay {path}`)",
            log.len()
        ));
    }
    if let Some(path) = &opts.timeseries_out {
        let tele = obs.telemetry.as_ref().expect("telemetry attached").borrow();
        let episodes = match &obs.online {
            Some(o) => {
                let mut o = o.borrow_mut();
                o.finish();
                o.episodes().to_vec()
            }
            None => Vec::new(),
        };
        let doc = timeseries_json(&tele, workload, pf.name, &episodes);
        std::fs::write(path, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!(
            "wrote timeseries telemetry to {path} ({} buckets, {} episodes)",
            tele.global().len(),
            episodes.len()
        ));
    }
    if opts.metrics_out.is_some() || opts.json {
        let log = obs.log.as_ref().map(|l| l.borrow());
        let doc = metrics_report(
            workload,
            pf.name,
            elapsed_ns,
            stats,
            allocs,
            report,
            log.as_deref(),
        );
        let text = doc.to_string_pretty();
        if let Some(path) = &opts.metrics_out {
            std::fs::write(path, format!("{text}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            ui.info(&format!("wrote metrics report to {path}"));
        }
        if opts.json {
            println!("{text}");
        }
    }
    if let Some(heat) = &obs.heat {
        let _ = write!(ui.human(), "{}", heat.borrow().render_ascii());
    }
    Ok(())
}

fn pick_platform(args: &[String]) -> Result<Platform, String> {
    let mut pf = platform::intel_pascal();
    for (i, a) in args.iter().enumerate() {
        if a == "--platform" {
            let name = args
                .get(i + 1)
                .ok_or_else(|| "--platform needs a value".to_string())?;
            pf = match name.as_str() {
                "pascal" | "intel-pascal" => platform::intel_pascal(),
                "volta" | "intel-volta" => platform::intel_volta(),
                "power9" | "ibm" | "nvlink" => platform::power9_volta(),
                other => return Err(format!("unknown platform `{other}`")),
            };
        }
    }
    Ok(pf)
}

/// Flags that consume the following argument (skipped when scanning for
/// the positional input file).
const VALUE_FLAGS: &[&str] = &[
    "--platform",
    "--trace-out",
    "--metrics-out",
    "--events-out",
    "--timeseries-out",
    "--log-level",
    "--top",
    "--folded-out",
    "--replay",
    "--frames",
    "--epoch-ns",
    "--buckets",
    "--threshold",
    "--jobs",
    "--beam",
    "--out",
    "--bench-out",
    "--max-errors",
];

fn read_file(args: &[String]) -> Result<(String, String), String> {
    let mut skip_next = false;
    let mut path = None;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            path = Some(a.clone());
            break;
        }
    }
    let path = path.ok_or_else(|| "no input file given".to_string())?;
    let src = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok((path, src))
}

/// Value of `--<flag> <value>` if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return args
                .get(i + 1)
                .map(|s| Some(s.as_str()))
                .ok_or_else(|| format!("{flag} needs a value"));
        }
    }
    Ok(None)
}

fn cmd_instrument(args: &[String]) -> Result<(), String> {
    let (_, src) = read_file(args)?;
    let prog = parse(&src).map_err(|e| e.to_string())?;
    let inst = xplacer_instrument::instrument(&prog);
    print!("{}", unparse(&inst.program));
    if !inst.replacements.is_empty() {
        eprintln!("replacements applied:");
        let mut reps: Vec<_> = inst.replacements.iter().collect();
        reps.sort();
        for (from, to) in reps {
            eprintln!("  {from} -> {to}");
        }
    }
    Ok(())
}

fn cmd_run(args: &[String], analyze_after: bool) -> Result<(), String> {
    let (path, src) = read_file(args)?;
    let pf = pick_platform(args)?;
    let ui = Ui::parse(args)?;
    let obs_opts = ObsOpts::parse(args)?;
    let plain = args.iter().any(|a| a == "--plain");
    let instrumented = !plain;
    let mut machine = Machine::new(pf.clone());
    let obs = attach_observers(&mut machine, &obs_opts);
    ui.debug(&format!("running {path} on {}", pf.name));
    let (out, interp) =
        run_source_on(&src, machine, instrumented).map_err(|e| format!("{path}: {e}"))?;
    let mut h = ui.human();
    let _ = write!(h, "{}", out.stdout);
    ui.info(&format!(
        "exit {} | simulated {:.3} ms on {} | faults {} | migrations {}",
        out.exit,
        out.elapsed_ns / 1e6,
        pf.name,
        out.stats.faults(),
        out.stats.migrations()
    ));
    if args.iter().any(|a| a == "--stats") {
        eprintln!("{}", out.stats.summary());
    }
    if analyze_after {
        if plain {
            return Err("analyze requires instrumentation (drop --plain)".into());
        }
        if interp.reports.is_empty() {
            // No diagnostic pragma in the program: analyze final state.
            let report = analyze(&interp.tracer.smt, &AnalysisConfig::default());
            let _ = writeln!(h, "--- anti-pattern report (end of program) ---");
            let _ = write!(h, "{report}");
        } else {
            for (i, report) in interp.reports.iter().enumerate() {
                let _ = writeln!(
                    h,
                    "--- anti-pattern report (diagnostic point {}) ---",
                    i + 1
                );
                let _ = write!(h, "{report}");
            }
        }
    }
    let allocs = xplacer_core::summarize(&interp.tracer.smt, false);
    let report = analyze_after.then(|| analyze(&interp.tracer.smt, &AnalysisConfig::default()));
    emit_observability(
        &ui,
        &obs_opts,
        &obs,
        &path,
        &pf,
        out.elapsed_ns,
        &out.stats,
        &allocs,
        report.as_ref(),
    )
}

/// Run a program traced and print the placement advisor's suggestions
/// (platform-aware) instead of the anti-pattern report.
fn cmd_advise(args: &[String]) -> Result<(), String> {
    let (path, src) = read_file(args)?;
    let pf = pick_platform(args)?;
    let (_, interp) = run_source(&src, pf.clone(), true).map_err(|e| format!("{path}: {e}"))?;
    let suggestions = xplacer_core::suggest_for(&interp.tracer.smt, &pf);
    if suggestions.is_empty() {
        println!(
            "no placement suggestions (nothing traced at end of program — \
                  note that each tracePrint resets the trace; advise works best \
                  on programs without diagnostic pragmas)"
        );
    } else {
        println!("placement suggestions for {}:", pf.name);
        for s in &suggestions {
            println!("  {s}");
        }
    }
    Ok(())
}

const WORKLOADS: &str = xplacer_workloads::WORKLOADS;

/// Run one built-in workload on `m` with `tracer` attached, registering
/// its allocation names. Returns the check value and the name table.
fn run_builtin_workload(
    m: &mut Machine,
    tracer: &Rc<RefCell<Tracer>>,
    which: &str,
) -> Result<(f64, Vec<(hetsim::Addr, String)>), String> {
    xplacer_workloads::run_workload(m, which, |_, names| register_names(tracer, names))
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let Some(which) = args.first() else {
        return Err(format!("demo requires a workload: {WORKLOADS}"));
    };
    let pf = pick_platform(args)?;
    let ui = Ui::parse(&args[1..])?;
    let obs_opts = ObsOpts::parse(&args[1..])?;
    let mut m = Machine::new(pf.clone());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let obs = attach_observers(&mut m, &obs_opts);
    ui.debug(&format!("running demo workload {which} on {}", pf.name));
    let (check, names) = run_builtin_workload(&mut m, &tracer, which)?;

    let elapsed = m.elapsed_ns();
    let mut h = ui.human();
    let _ = writeln!(
        h,
        "{which} on {}: check={check:.4}, simulated {:.3} ms, faults {}, migrations {}",
        pf.name,
        elapsed / 1e6,
        m.stats.faults(),
        m.stats.migrations()
    );
    let summaries = xplacer_core::summarize(&tracer.borrow().smt, true);
    let _ = writeln!(h, "\n--- diagnostic summary (named allocations) ---");
    let _ = write!(h, "{}", xplacer_core::format_fig4(&summaries));
    let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
    let _ = writeln!(h, "--- anti-pattern report ---");
    let _ = write!(h, "{report}");
    if let Some(heat) = &obs.heat {
        let mut h = heat.borrow_mut();
        for (addr, name) in &names {
            h.name(*addr, name);
        }
    }
    let all_allocs = xplacer_core::summarize(&tracer.borrow().smt, false);
    emit_observability(
        &ui,
        &obs_opts,
        &obs,
        which,
        &pf,
        elapsed,
        &m.stats,
        &all_allocs,
        Some(&report),
    )
}

/// Display name of every allocation the tracer saw, named or not: the
/// labels `--events-out` records, so live and replayed reports agree.
fn alloc_names(smt: &xplacer_core::Smt) -> Vec<(u64, String)> {
    xplacer_core::summarize(smt, false)
        .into_iter()
        .map(|s| (s.base, s.name))
        .collect()
}

/// `xplacer profile`: run a workload (or MiniCU program) with a deep
/// event ring and fold the attributed stream into per-kernel /
/// per-allocation cost tables, optionally exporting flamegraph stacks.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let Some(target) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(format!(
            "profile requires a workload ({WORKLOADS}) or a .cu file"
        ));
    };
    let pf = pick_platform(args)?;
    let ui = Ui::parse(args)?;
    let top = match flag_value(args, "--top")? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--top expects a number, got `{v}`"))?,
        None => 10,
    };
    let folded_out = flag_value(args, "--folded-out")?.map(str::to_string);

    let log = Rc::new(RefCell::new(EventLog::with_capacity(PROFILE_RING_CAPACITY)));
    let (workload_name, elapsed, stats, names) = if target.ends_with(".cu") {
        let src =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        let mut machine = Machine::new(pf.clone());
        machine.add_hook(log.clone());
        ui.debug(&format!("profiling program {target} on {}", pf.name));
        let (out, interp) =
            run_source_on(&src, machine, true).map_err(|e| format!("{target}: {e}"))?;
        let names = alloc_names(&interp.tracer.smt);
        (target.clone(), out.elapsed_ns, out.stats, names)
    } else {
        let mut m = Machine::new(pf.clone());
        let tracer = xplacer_core::attach_tracer(&mut m);
        m.add_hook(log.clone());
        ui.debug(&format!("profiling workload {target} on {}", pf.name));
        let (check, _) = run_builtin_workload(&mut m, &tracer, target)?;
        let elapsed = m.elapsed_ns();
        ui.info(&format!(
            "{target} on {}: check={check:.4}, simulated {:.3} ms",
            pf.name,
            elapsed / 1e6
        ));
        let names = alloc_names(&tracer.borrow().smt);
        (target.clone(), elapsed, m.stats.clone(), names)
    };

    let log = log.borrow();
    warn_if_truncated(&ui, &log);
    let report = ProfileReport::build(&workload_name, pf.name, elapsed, &log, &names);
    debug_assert_eq!(report.totals.faults, stats.faults());

    if let Some(path) = &folded_out {
        let text = folded_stacks(pf.name, &log, &names);
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!(
            "wrote folded stacks to {path} ({} frames; render with flamegraph.pl/inferno)",
            text.lines().count()
        ));
    }

    if ui.json {
        println!("{}", report.to_json().to_string_pretty());
        let _ = write!(ui.human(), "{}", report.render_table(top));
    } else {
        let _ = write!(ui.human(), "{}", report.render_table(top));
    }
    Ok(())
}

/// First positional (non-flag) argument, skipping flag values.
fn positional(args: &[String]) -> Option<String> {
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            return Some(a.clone());
        }
    }
    None
}

/// `xplacer optimize`: the closed loop. Trace a baseline, enumerate
/// candidate placement plans from the shadow state, beam-search plan
/// combinations on the deterministic evaluation pool, report the winner.
/// Output is byte-identical for any `--jobs` value.
fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let Some(target) = positional(args) else {
        return Err(format!(
            "optimize requires a workload ({WORKLOADS}) or a .cu file"
        ));
    };
    let pf = pick_platform(args)?;
    let ui = Ui::parse(args)?;
    let parse_num = |flag: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, flag)? {
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("{flag} expects a number >= 1, got `{v}`")),
            None => Ok(default),
        }
    };

    let mut cfg = xplacer_optimize::OptimizeConfig::new(pf.clone());
    cfg.jobs = parse_num("--jobs", 1)?;
    cfg.beam = parse_num("--beam", 2)?;
    cfg.smoke = args.iter().any(|a| a == "--smoke");

    let opt_target = if target.ends_with(".cu") {
        let src =
            std::fs::read_to_string(&target).map_err(|e| format!("cannot read {target}: {e}"))?;
        xplacer_optimize::Target::Program {
            name: target.clone(),
            source: src,
        }
    } else {
        xplacer_optimize::Target::Workload(target.clone())
    };

    ui.debug(&format!(
        "optimizing {target} on {} with {} workers",
        pf.name, cfg.jobs
    ));
    let report = xplacer_optimize::optimize(&opt_target, &cfg)?;

    let doc = report.to_json().to_string_pretty();
    if ui.json {
        println!("{doc}");
    } else {
        let _ = write!(ui.human(), "{}", report.render());
    }
    if let Some(path) = flag_value(args, "--out")? {
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!("wrote optimizer report to {path}"));
    }
    if let Some(path) = flag_value(args, "--bench-out")? {
        let rec = report.bench_record().to_json().to_string_pretty();
        std::fs::write(path, rec).map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!("wrote bench record to {path}"));
    }
    Ok(())
}

/// `xplacer top`: the time-series telemetry dashboard. Live mode runs a
/// workload (or MiniCU program) with the full event ring recording, then
/// renders `--frames` evenly spaced dashboard frames over the simulated
/// timeline; `--replay <events.json>` drives the same pipeline from a
/// trace recorded earlier with `--events-out`. `--frames N --ascii` output
/// is byte-deterministic (golden-snapshot tested).
fn cmd_top(args: &[String]) -> Result<(), String> {
    let ui = Ui::parse(args)?;
    let frames = match flag_value(args, "--frames")? {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("--frames expects a positive number, got `{v}`"))?,
        None => 3,
    };
    let mut cfg = TelemetryConfig::default();
    if let Some(v) = flag_value(args, "--epoch-ns")? {
        cfg.epoch_ns = v
            .parse::<f64>()
            .ok()
            .filter(|e| *e > 0.0)
            .ok_or_else(|| format!("--epoch-ns expects a positive number, got `{v}`"))?;
    }
    if let Some(v) = flag_value(args, "--buckets")? {
        cfg.max_buckets = v
            .parse::<usize>()
            .ok()
            .filter(|b| *b >= 2)
            .ok_or_else(|| format!("--buckets expects a number >= 2, got `{v}`"))?;
    }
    let opts = DashOpts {
        ascii: args.iter().any(|a| a == "--ascii"),
        ..DashOpts::default()
    };
    let timeseries_out = flag_value(args, "--timeseries-out")?.map(str::to_string);

    let trace = match flag_value(args, "--replay")? {
        Some(path) => load_trace(path)?,
        None => record_trace_live(&ui, args)?,
    };

    let out = replay(&trace, cfg, OnlineConfig::default(), frames, &opts);
    let mut h = ui.human();
    for (i, frame) in out.frames.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(h);
        }
        let _ = write!(h, "{frame}");
    }
    drop(h);

    if timeseries_out.is_some() || ui.json {
        let doc = timeseries_json(
            &out.telemetry,
            &trace.workload,
            &trace.platform_name,
            &out.episodes,
        );
        let text = doc.to_string_pretty();
        if let Some(path) = &timeseries_out {
            std::fs::write(path, format!("{text}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            ui.info(&format!("wrote timeseries telemetry to {path}"));
        }
        if ui.json {
            println!("{text}");
        }
    }
    Ok(())
}

/// Run a workload (or MiniCU program) with a deep, wall-clock-metered
/// event ring and package the stream as an in-memory trace for the
/// dashboard pipeline — live mode is replay over a trace recorded seconds
/// ago.
fn record_trace_live(ui: &Ui, args: &[String]) -> Result<EventTrace, String> {
    let Some(target) = positional(args) else {
        return Err(format!(
            "expected a workload ({WORKLOADS}), a .cu file, or --replay <events.json>"
        ));
    };
    let pf = pick_platform(args)?;
    let log = Rc::new(RefCell::new(EventLog::with_capacity(PROFILE_RING_CAPACITY)));
    let (metered, meter) = MeteredHook::new(log.clone());
    let metered: Rc<RefCell<dyn hetsim::MemHook>> = Rc::new(RefCell::new(metered));

    let (elapsed, names) = if target.ends_with(".cu") {
        let src =
            std::fs::read_to_string(&target).map_err(|e| format!("cannot read {target}: {e}"))?;
        let mut machine = Machine::new(pf.clone());
        machine.add_hook(metered);
        ui.debug(&format!("recording {target} on {}", pf.name));
        let (out, interp) =
            run_source_on(&src, machine, true).map_err(|e| format!("{target}: {e}"))?;
        let names = alloc_names(&interp.tracer.smt);
        (out.elapsed_ns, names)
    } else {
        let mut m = Machine::new(pf.clone());
        let tracer = xplacer_core::attach_tracer(&mut m);
        m.add_hook(metered);
        ui.debug(&format!("recording workload {target} on {}", pf.name));
        let (check, _) = run_builtin_workload(&mut m, &tracer, &target)?;
        ui.info(&format!(
            "{target} on {}: check={check:.4}, simulated {:.3} ms",
            pf.name,
            m.elapsed_ns() / 1e6
        ));
        let names = alloc_names(&tracer.borrow().smt);
        (m.elapsed_ns(), names)
    };

    let log = log.borrow();
    warn_if_truncated(ui, &log);
    let mt = meter.borrow();
    // Wall-clock self-overhead goes to stderr only: it is nondeterministic
    // and must never contaminate the replayable artifacts.
    ui.info(&format!(
        "telemetry self-overhead: {} hook calls, {:.3} ms wall ({:.0} ns/call), {} events dropped",
        mt.calls,
        mt.wall_ns as f64 / 1e6,
        mt.mean_ns(),
        log.dropped()
    ));
    Ok(EventTrace::from_recording(
        &target, &pf, elapsed, &log, names,
    ))
}

/// Load and validate a serialized events trace (`--events-out` artifact).
fn load_trace(path: &str) -> Result<EventTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    EventTrace::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `xplacer blame`: critical-path blame analysis. Runs a workload (or
/// MiniCU program) recording the full attributed stream — or replays an
/// `--events-out` artifact — reconstructs the dependency DAG, and charges
/// every nanosecond of elapsed time to a (kernel × allocation ×
/// event-kind) cell, with a per-allocation what-if ranking of the most
/// profitable placement fixes. Output is byte-deterministic.
fn cmd_blame(args: &[String]) -> Result<(), String> {
    let ui = Ui::parse(args)?;
    let top = match flag_value(args, "--top")? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--top expects a number, got `{v}`"))?,
        None => 10,
    };
    let folded_out = flag_value(args, "--folded-out")?.map(str::to_string);
    let trace = match flag_value(args, "--replay")? {
        Some(path) => load_trace(path)?,
        None => record_trace_live(&ui, args)?,
    };
    let report = BlameReport::build(&trace);

    if let Some(path) = &folded_out {
        let text = report.folded();
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!(
            "wrote folded blame stacks to {path} ({} frames; widths are critical-path ns)",
            text.lines().count()
        ));
    }
    if ui.json {
        println!("{}", report.to_json().to_string_pretty());
    }
    let _ = write!(ui.human(), "{}", report.render(top));
    Ok(())
}

/// All positional (non-flag) arguments, skipping flag values.
fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            out.push(a.clone());
        }
    }
    out
}

/// `xplacer check <workload|file.cu>`: memory sanitizer + cross-stream
/// race detector. Exit 0 when clean, 1 on findings, 2 on usage errors.
fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let ui = Ui::parse(args)?;
    let max_errors = match flag_value(args, "--max-errors")? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--max-errors expects a number, got `{v}`"))?,
        None => 0,
    };
    let opts = xplacer_check::CheckOptions {
        bulk: !args.iter().any(|a| a == "--no-bulk"),
        max_errors,
        platform: pick_platform(args)?,
    };
    let inputs = positionals(args);
    let [target] = inputs.as_slice() else {
        return Err(format!(
            "check requires exactly one input: a workload name ({}) or a MiniCU file",
            xplacer_workloads::driver::WORKLOAD_NAMES.join("|")
        ));
    };
    let out = if xplacer_workloads::driver::WORKLOAD_NAMES.contains(&target.as_str()) {
        ui.info(&format!("checking workload {target}"));
        xplacer_check::check_workload(target, &opts)?
    } else {
        let src =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        ui.info(&format!("checking {target}"));
        xplacer_check::check_source(target, &src, &opts)?
    };
    ui.debug(&format!(
        "checker cost: {} shadow bytes held, {} race slots allocated ({} bytes each)",
        out.shadow_bytes,
        out.race_slots,
        std::mem::size_of::<xplacer_check::race::LocState>()
    ));
    if ui.json {
        println!("{}", out.report.to_json().to_string_pretty());
    }
    let _ = write!(ui.human(), "{}", out.report.render());
    if out.report.clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        ui.info("verdict: defects found — exiting 1 for CI gating");
        Ok(ExitCode::FAILURE)
    }
}

/// `xplacer diff`: compare two runs (two `--events-out` traces or two
/// `profile --json` reports), aligned by kernel name / allocation label.
/// Exits 0 on improved/neutral, 1 when the run regressed beyond
/// `--threshold` (so it doubles as a CI gate), 2 on usage/IO errors.
fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let ui = Ui::parse(args)?;
    let threshold = match flag_value(args, "--threshold")? {
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("--threshold expects a non-negative number, got `{v}`"))?,
        None => xplacer_obs::diff::DEFAULT_THRESHOLD,
    };
    let top = match flag_value(args, "--top")? {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--top expects a number, got `{v}`"))?,
        None => 10,
    };
    let inputs = positionals(args);
    let [a_path, b_path] = inputs.as_slice() else {
        return Err(
            "diff requires exactly two inputs: `xplacer diff <a.json> <b.json>` \
             (events traces from --events-out, or profile --json reports)"
                .to_string(),
        );
    };
    let load = |path: &str| -> Result<RunDigest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        RunDigest::from_json(&doc, path)
    };
    let d = diff(load(a_path)?, load(b_path)?, threshold)?;

    if ui.json {
        println!("{}", d.to_json(top).to_string_pretty());
    }
    let _ = write!(ui.human(), "{}", d.render(top));
    if d.regressed() {
        ui.info("verdict: regressed — exiting 1 for CI gating");
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}
