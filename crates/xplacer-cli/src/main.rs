//! `xplacer` — command-line front end for the XPlacer reproduction.
//!
//! Every verb is one entry of [`grammar::VERBS`]: its positionals, its
//! flags with one help line each, and the function that runs it. One
//! parser, [`Verb::parse`], reads each command line against that entry,
//! and the usage text is generated from it: `xplacer` lists the verbs and
//! `xplacer <verb> --help` lists a verb's flags. An unknown or repeated
//! flag, a value flag without its value and a wrong number of positionals
//! each exit 2 with the verb's usage on stderr.

use std::cell::RefCell;
use std::fmt::Display;
use std::io::Write;
use std::ops::{Bound, RangeBounds, RangeInclusive};
use std::process::ExitCode;
use std::rc::Rc;
use std::str::FromStr;

use hetsim::{platform, EventLog, Machine, MemHook, MeteredHook, Platform, Stats};
use xplacer_core::antipattern::{analyze, AnalysisConfig};
use xplacer_core::{AllocSummary, OnlineAnalyzer, OnlineConfig, Report, Tracer};
use xplacer_interp::{run_program_on, Interp, Outcome};
use xplacer_lang::parser::parse;
use xplacer_lang::unparse::unparse;
use xplacer_obs::flamegraph::folded_stacks;
use xplacer_obs::timeseries::timeseries_json;
use xplacer_obs::{
    chrome_trace_with_series, diff, events_json, metrics_report, replay, BlameReport, DashOpts,
    EventTrace, HeatmapRecorder, Json, ProfileReport, RunDigest, Telemetry, TelemetryConfig,
};
use xplacer_optimize::Target;
use xplacer_workloads::{register_names, WORKLOAD_NAMES};

use grammar::{LOG_LEVEL, VERBS};

/// Most frames `top --frames` renders; every rendered frame is held in
/// memory until all are printed.
const MAX_FRAMES: usize = 1000;

/// Largest `top --buckets` cap. Memory grows with the cap once a run
/// spans that many epochs: `top lulesh --epoch-ns 1` peaks at about
/// 10 MB RSS with 4096 buckets, as with the default 256, and at 108 MB
/// with 65536.
const MAX_BUCKETS: usize = 4096;

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

fn run(tokens: &[String]) -> Result<ExitCode, String> {
    let Some((name, rest)) = tokens.split_first() else {
        return Err(usage());
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    let Some(verb) = VERBS.iter().find(|v| v.name == name) else {
        return Err(format!("unknown command `{name}`\n{}", usage()));
    };
    match verb.parse(rest)? {
        Some(args) => (verb.run)(&args, &Ui::new(&args)?),
        None => {
            println!("{}", verb.usage());
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// The verb list, generated from [`VERBS`].
fn usage() -> String {
    let mut s = String::from("usage: xplacer <verb> [args] [flags]\n\nverbs:\n");
    for v in &VERBS {
        s += &format!("  {}\n      {}\n", v.head(), v.about);
    }
    s + "\n`xplacer <verb> --help` lists a verb's flags; an unknown flag exits 2"
}

/// One flag of a verb.
struct Flag {
    name: &'static str,
    /// Placeholder of the value the flag takes; `None` for a switch.
    value: Option<&'static str>,
    help: &'static str,
}

/// One verb: its positionals, its flags besides the shared [`LOG_LEVEL`],
/// and the function that runs a command line parsed against them.
struct Verb {
    name: &'static str,
    synopsis: &'static str,
    /// How many positionals the verb takes.
    arity: RangeInclusive<usize>,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args, &Ui) -> Result<ExitCode, String>,
}

impl Verb {
    /// The verb's own flags, then the shared [`LOG_LEVEL`].
    fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().chain([&LOG_LEVEL])
    }

    /// The verb and its positionals.
    fn head(&self) -> String {
        format!("{} {}", self.name, self.synopsis)
            .trim_end()
            .to_string()
    }

    /// The verb's usage, generated from its entry.
    fn usage(&self) -> String {
        let mut s = format!(
            "usage: xplacer {} [flags]\n{}\n\nflags:\n",
            self.head(),
            self.about
        );
        for f in self.all_flags() {
            let head = format!("{} {}", f.name, f.value.unwrap_or(""));
            s += &format!("  {head:<24}{}\n", f.help);
        }
        s += "  --help                  print this usage";
        if self.synopsis.contains("<workload") {
            s += &format!("\nworkloads: {}", WORKLOAD_NAMES.join("|"));
        }
        s
    }

    /// Read `tokens` against this entry; `Ok(None)` asks for the usage.
    /// Flags and positionals may come in any order.
    fn parse<'a>(&'static self, tokens: &'a [String]) -> Result<Option<Args<'a>>, String> {
        let mut args = Args {
            verb: self,
            positionals: Vec::new(),
            given: Vec::new(),
        };
        let mut tokens = tokens.iter().map(String::as_str);
        while let Some(tok) = tokens.next() {
            if tok == "--help" {
                return Ok(None);
            }
            if !tok.starts_with("--") {
                args.positionals.push(tok);
                continue;
            }
            let Some(flag) = self.all_flags().find(|f| f.name == tok) else {
                return Err(args.usage_error(format!("unknown flag `{tok}`")));
            };
            if args.flag(tok) {
                return Err(args.usage_error(format!("`{tok}` given twice")));
            }
            let value = match flag.value {
                None => None,
                Some(placeholder) => match tokens.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => {
                        return Err(args.usage_error(format!("`{tok}` needs a value {placeholder}")))
                    }
                },
            };
            args.given.push((flag.name, value));
        }
        if let Some(extra) = args.positionals.get(*self.arity.end()) {
            return Err(args.usage_error(format!("unexpected argument `{extra}`")));
        }
        if args.positionals.len() < *self.arity.start() {
            return Err(args.usage_error(format!("missing {}", self.synopsis)));
        }
        Ok(Some(args))
    }
}

/// A command line parsed against its verb's entry: the positionals and
/// the flags given, each declared in that entry.
struct Args<'a> {
    verb: &'static Verb,
    positionals: Vec<&'a str>,
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.given.iter().find(|(n, _)| *n == name)?.1
    }

    /// The value of `name` as a finite number in `range`, or `default`
    /// when the flag is absent.
    fn number<T: FromStr + PartialOrd + Display>(
        &self,
        name: &str,
        default: T,
        range: impl RangeBounds<T>,
    ) -> Result<T, String> {
        let Some(v) = self.value(name) else {
            return Ok(default);
        };
        // Every integer that parses is a finite f64, so this only
        // rejects float spellings of infinity and NaN.
        let finite = v.parse::<f64>().is_ok_and(f64::is_finite);
        match v.parse::<T>() {
            Ok(n) if finite && range.contains(&n) => Ok(n),
            _ => {
                let mut want = format!("`{name}` expects a number");
                if let Bound::Included(min) = range.start_bound() {
                    want += &format!(" >= {min}");
                }
                if let Bound::Included(max) = range.end_bound() {
                    want += &format!(" and <= {max}");
                }
                Err(self.usage_error(format!("{want}, got `{v}`")))
            }
        }
    }

    /// The value of `name` looked up in `choices`, or the first choice
    /// when the flag is absent.
    fn choice<T: Copy>(&self, name: &str, choices: &[(&str, T)]) -> Result<T, String> {
        let v = self.value(name).unwrap_or(choices[0].0);
        match choices.iter().find(|(key, _)| *key == v) {
            Some((_, choice)) => Ok(*choice),
            None => {
                let keys: Vec<&str> = choices.iter().map(|(key, _)| *key).collect();
                let msg = format!("unknown {name} `{v}` (expected {})", keys.join("|"));
                Err(self.usage_error(msg))
            }
        }
    }

    /// Exit-2 message: the verb, what is wrong, then the verb's usage.
    fn usage_error(&self, msg: impl Display) -> String {
        format!("{}: {msg}\n\n{}", self.verb.name, self.verb.usage())
    }
}

/// Every verb's entry and the flags several verbs share, one flag per
/// line.
#[rustfmt::skip]
mod grammar {
    use super::*;

    /// The one flag every verb takes.
    pub const LOG_LEVEL: Flag = Flag { name: "--log-level", value: Some("<level>"),
        help: "progress chatter on stderr: info|quiet|debug (default info)" };

    const PLATFORM: Flag = Flag { name: "--platform", value: Some("<name>"),
        help: "simulated platform: pascal|volta|power9 (default pascal)" };
    const JSON: Flag = Flag { name: "--json", value: None,
        help: "machine-readable report on stdout, human text on stderr" };
    const STATS: Flag = Flag { name: "--stats", value: None, help: "print simulator counters on stderr" };
    const TRACE_OUT: Flag = Flag { name: "--trace-out", value: Some("<file>"),
        help: "write a Chrome Trace Event JSON" };
    const METRICS_OUT: Flag = Flag { name: "--metrics-out", value: Some("<file>"),
        help: "write a JSON metrics report" };
    const EVENTS_OUT: Flag = Flag { name: "--events-out", value: Some("<file>"),
        help: "write the full event stream JSON (replay with top/blame --replay)" };
    const TIMESERIES_OUT: Flag = Flag { name: "--timeseries-out", value: Some("<file>"),
        help: "write epoch-bucketed telemetry JSON" };
    const HEATMAP: Flag = Flag { name: "--heatmap", value: None, help: "print page x epoch access heatmaps" };
    const TOP: Flag = Flag { name: "--top", value: Some("<n>"), help: "rows in each ranked list (default 10)" };
    const FOLDED_OUT: Flag = Flag { name: "--folded-out", value: Some("<file>"),
        help: "write flamegraph folded stacks" };
    const REPLAY: Flag = Flag { name: "--replay", value: Some("<events.json>"),
        help: "fold an --events-out trace instead of running (no target, no --platform)" };

    pub static VERBS: [Verb; 12] = [
        Verb { name: "instrument", synopsis: "<file.cu>", arity: 1..=1, run: cmd_instrument,
            about: "print the instrumented source (the replacements go to stderr)",
            flags: &[] },
        Verb { name: "run", synopsis: "<file.cu>", arity: 1..=1, run: |a, ui| cmd_run(a, ui, false),
            about: "instrument and execute a program, showing its output",
            flags: &[PLATFORM,
                Flag { name: "--plain", value: None, help: "run without instrumentation" },
                STATS, TRACE_OUT, METRICS_OUT, EVENTS_OUT, TIMESERIES_OUT, HEATMAP, JSON] },
        Verb { name: "analyze", synopsis: "<file.cu>", arity: 1..=1, run: |a, ui| cmd_run(a, ui, true),
            about: "run a program traced and report its anti-patterns",
            flags: &[PLATFORM, STATS, TRACE_OUT, METRICS_OUT, EVENTS_OUT, TIMESERIES_OUT, HEATMAP, JSON] },
        Verb { name: "advise", synopsis: "<file.cu>", arity: 1..=1, run: cmd_advise,
            about: "run a program traced and print placement advice for the platform",
            flags: &[PLATFORM] },
        Verb { name: "demo", synopsis: "<workload>", arity: 1..=1, run: cmd_demo,
            about: "run a built-in workload traced and report its anti-patterns",
            flags: &[PLATFORM, TRACE_OUT, METRICS_OUT, EVENTS_OUT, TIMESERIES_OUT, HEATMAP, JSON] },
        Verb { name: "profile", synopsis: "<workload|file.cu>", arity: 1..=1, run: cmd_profile,
            about: "cost-attribution profile of a run per kernel and allocation",
            flags: &[PLATFORM, TOP, FOLDED_OUT, JSON] },
        Verb { name: "top", synopsis: "<workload|file.cu> | --replay <events.json>", arity: 0..=1,
            run: cmd_top,
            about: "time-series telemetry dashboard of a run or a recorded trace",
            flags: &[REPLAY, PLATFORM,
                Flag { name: "--frames", value: Some("<n>"),
                    help: "dashboard frames to render, 1 to 1000 (default 3)" },
                Flag { name: "--ascii", value: None, help: "7-bit ASCII sparklines (deterministic)" },
                Flag { name: "--epoch-ns", value: Some("<ns>"),
                    help: "initial telemetry epoch width, at least 1 (default 1024)" },
                Flag { name: "--buckets", value: Some("<n>"),
                    help: "bucket cap before downsampling, 2 to 4096 (default 256)" },
                TIMESERIES_OUT, JSON] },
        Verb { name: "blame", synopsis: "<workload|file.cu> | --replay <events.json>", arity: 0..=1,
            run: cmd_blame,
            about: "critical-path blame of a run or a recorded trace",
            flags: &[REPLAY, PLATFORM, TOP, FOLDED_OUT, JSON] },
        Verb { name: "diff", synopsis: "<a.json> <b.json>", arity: 2..=2, run: cmd_diff,
            about: "compare two --events-out traces or profile --json reports (exit 1 if regressed)",
            flags: &[
                Flag { name: "--threshold", value: Some("<frac>"),
                    help: "relative change that counts as a regression (default 0.02)" },
                TOP, JSON] },
        Verb { name: "optimize", synopsis: "<workload|file.cu>", arity: 1..=1, run: cmd_optimize,
            about: "search placement plans by re-simulating them and report the winner",
            flags: &[PLATFORM,
                Flag { name: "--jobs", value: Some("<n>"),
                    help: "evaluation workers; any n gives the same report (default 1)" },
                Flag { name: "--beam", value: Some("<n>"), help: "beam width (default 2)" },
                Flag { name: "--smoke", value: None, help: "search one round only" },
                Flag { name: "--out", value: Some("<file>"), help: "write the report JSON" },
                JSON] },
        Verb { name: "check", synopsis: "<workload|file.cu>", arity: 1..=1, run: cmd_check,
            about: "memory sanitizer and race detector (exit 0 clean, 1 findings)",
            flags: &[PLATFORM,
                Flag { name: "--max-errors", value: Some("<n>"),
                    help: "keep at most n findings in the report (default 0: all)" },
                Flag { name: "--no-bulk", value: None, help: "check word by word (bulk-parity debugging)" },
                JSON] },
        Verb { name: "platforms", synopsis: "", arity: 0..=0, run: cmd_platforms,
            about: "list the simulated platforms",
            flags: &[] },
    ];
}

type PlatformFn = fn() -> Platform;

/// `--platform` values, the default first.
const PLATFORMS: [(&str, PlatformFn); 3] = [
    ("pascal", platform::intel_pascal),
    ("volta", platform::intel_volta),
    ("power9", platform::power9_volta),
];

fn platform(args: &Args) -> Result<Platform, String> {
    Ok(args.choice("--platform", &PLATFORMS)?())
}

/// Resolve a `<workload|file.cu>` argument: a `.cu` suffix reads the
/// file, anything else names a built-in workload.
fn target(arg: &str) -> Result<Target, String> {
    Ok(if arg.ends_with(".cu") {
        Target::Program {
            name: arg.to_string(),
            source: read(arg)?,
        }
    } else {
        Target::Workload(arg.to_string())
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Parse and run the MiniCU source read from `path` on `machine`; a
/// parse error and a runtime error both name the file.
fn run_file(
    path: &str,
    src: &str,
    machine: Machine,
    instrumented: bool,
) -> Result<(Outcome, Interp), String> {
    let prog = parse(src).map_err(|e| format!("{path}: {e}"))?;
    run_program_on(prog, machine, instrumented).map_err(|e| format!("{path}: {e}"))
}

/// Progress-chatter verbosity, set with `--log-level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LogLevel {
    Quiet,
    Info,
    Debug,
}

/// `--log-level` values, the default first.
const LOG_LEVELS: [(&str, LogLevel); 3] = [
    ("info", LogLevel::Info),
    ("quiet", LogLevel::Quiet),
    ("debug", LogLevel::Debug),
];

/// Output routing for one invocation. All progress chatter goes through
/// here to stderr, gated by the log level; `human()` is the sink for
/// human-readable *results*, which move to stderr under `--json` so
/// stdout carries exactly one JSON document (`xplacer ... --json | jq`).
struct Ui {
    level: LogLevel,
    json: bool,
}

impl Ui {
    fn new(args: &Args) -> Result<Self, String> {
        Ok(Ui {
            level: args.choice("--log-level", &LOG_LEVELS)?,
            json: args.flag("--json"),
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

/// Observer hooks attached for one run; the CLI keeps shared handles so it
/// can read them back after the program finishes.
#[derive(Default)]
struct Observers {
    log: Option<Rc<RefCell<EventLog>>>,
    heat: Option<Rc<RefCell<HeatmapRecorder>>>,
    telemetry: Option<Rc<RefCell<Telemetry>>>,
    online: Option<Rc<RefCell<OnlineAnalyzer>>>,
}

/// Attach the observers the observability flags ask for *alongside*
/// whatever hook the machine already carries (the tracer keeps working).
fn attach_observers(m: &mut Machine, args: &Args, ui: &Ui) -> Observers {
    let mut obs = Observers::default();
    let trace = args.flag("--trace-out");
    if trace || args.flag("--metrics-out") || args.flag("--events-out") || ui.json {
        let log = Rc::new(RefCell::new(EventLog::new()));
        m.add_hook(log.clone());
        obs.log = Some(log);
    }
    // The epoch-bucketed telemetry, and the online episode detectors
    // that ride on it.
    if trace || args.flag("--timeseries-out") {
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
    if args.flag("--heatmap") {
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
    args: &Args,
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
    if let Some(path) = args.value("--trace-out") {
        let log = obs.log.as_ref().expect("event log attached").borrow();
        let tele = obs.telemetry.as_ref().map(|t| t.borrow());
        let text = chrome_trace_with_series(&log, tele.as_deref()).to_string_compact();
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!(
            "wrote chrome trace to {path} ({} events; open in chrome://tracing)",
            log.len()
        ));
    }
    if let Some(path) = args.value("--events-out") {
        let log = obs.log.as_ref().expect("event log attached").borrow();
        let doc = events_json(&log, workload, elapsed_ns, pf, allocs);
        std::fs::write(path, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!(
            "wrote event stream to {path} ({} events; replay with `xplacer top --replay {path}`)",
            log.len()
        ));
    }
    if let Some(path) = args.value("--timeseries-out") {
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
    let metrics_out = args.value("--metrics-out");
    if metrics_out.is_some() || ui.json {
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
        if let Some(path) = metrics_out {
            std::fs::write(path, format!("{text}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            ui.info(&format!("wrote metrics report to {path}"));
        }
        if ui.json {
            println!("{text}");
        }
    }
    if let Some(heat) = &obs.heat {
        let _ = write!(ui.human(), "{}", heat.borrow().render_ascii());
    }
    Ok(())
}

fn cmd_instrument(args: &Args, ui: &Ui) -> Result<ExitCode, String> {
    let path = args.positionals[0];
    let prog = parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let inst = xplacer_instrument::instrument(&prog);
    print!("{}", unparse(&inst.program));
    if !inst.replacements.is_empty() {
        ui.info("replacements applied:");
        let mut reps: Vec<_> = inst.replacements.iter().collect();
        reps.sort();
        for (from, to) in reps {
            ui.info(&format!("  {from} -> {to}"));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &Args, ui: &Ui, analyze_after: bool) -> Result<ExitCode, String> {
    let pf = platform(args)?;
    let path = args.positionals[0];
    let src = read(path)?;
    let mut machine = Machine::new(pf.clone());
    let obs = attach_observers(&mut machine, args, ui);
    ui.debug(&format!("running {path} on {}", pf.name));
    let (out, interp) = run_file(path, &src, machine, !args.flag("--plain"))?;
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
    if args.flag("--stats") {
        eprintln!("{}", out.stats.summary());
    }
    if analyze_after {
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
        ui,
        args,
        &obs,
        path,
        &pf,
        out.elapsed_ns,
        &out.stats,
        &allocs,
        report.as_ref(),
    )?;
    Ok(ExitCode::SUCCESS)
}

/// Run a program traced and print the placement advisor's suggestions
/// (platform-aware) instead of the anti-pattern report.
fn cmd_advise(args: &Args, _: &Ui) -> Result<ExitCode, String> {
    let pf = platform(args)?;
    let path = args.positionals[0];
    let src = read(path)?;
    let (_, interp) = run_file(path, &src, Machine::new(pf.clone()), true)?;
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_platforms(_: &Args, _: &Ui) -> Result<ExitCode, String> {
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

/// Run one built-in workload on `m` with `tracer` attached, registering
/// its allocation names. Returns the check value and the name table.
fn run_builtin_workload(
    m: &mut Machine,
    tracer: &Rc<RefCell<Tracer>>,
    which: &str,
) -> Result<(f64, Vec<(hetsim::Addr, String)>), String> {
    xplacer_workloads::run_workload(m, which, |_, names| register_names(tracer, names))
}

fn cmd_demo(args: &Args, ui: &Ui) -> Result<ExitCode, String> {
    let pf = platform(args)?;
    let which = args.positionals[0];
    let mut m = Machine::new(pf.clone());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let obs = attach_observers(&mut m, args, ui);
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
        ui,
        args,
        &obs,
        which,
        &pf,
        elapsed,
        &m.stats,
        &all_allocs,
        Some(&report),
    )?;
    Ok(ExitCode::SUCCESS)
}

/// `(base address, display name)` of every allocation of a run.
type Labels = Vec<(u64, String)>;

/// Display name of every allocation the tracer saw, named or not: the
/// labels `--events-out` records, so live and replayed reports agree.
fn alloc_names(smt: &xplacer_core::Smt) -> Labels {
    xplacer_core::summarize(smt, false)
        .into_iter()
        .map(|s| (s.base, s.name))
        .collect()
}

/// Run `target` traced on `pf` with `hook` added, and return the
/// simulated time, the machine's counters and every allocation's label.
fn run_target(
    ui: &Ui,
    target: &Target,
    pf: &Platform,
    hook: Rc<RefCell<dyn MemHook>>,
) -> Result<(f64, Stats, Labels), String> {
    ui.debug(&format!("running {} on {}", target.name(), pf.name));
    let mut m = Machine::new(pf.clone());
    match target {
        Target::Program { name, source } => {
            m.add_hook(hook);
            let (out, interp) = run_file(name, source, m, true)?;
            Ok((out.elapsed_ns, out.stats, alloc_names(&interp.tracer.smt)))
        }
        Target::Workload(w) => {
            let tracer = xplacer_core::attach_tracer(&mut m);
            m.add_hook(hook);
            let (check, _) = run_builtin_workload(&mut m, &tracer, w)?;
            let elapsed = m.elapsed_ns();
            ui.info(&format!(
                "{w} on {}: check={check:.4}, simulated {:.3} ms",
                pf.name,
                elapsed / 1e6
            ));
            let names = alloc_names(&tracer.borrow().smt);
            Ok((elapsed, m.stats.clone(), names))
        }
    }
}

/// `xplacer profile`: run a workload (or MiniCU program) with the
/// event ring and fold the attributed stream into per-kernel /
/// per-allocation cost tables, optionally exporting flamegraph stacks.
fn cmd_profile(args: &Args, ui: &Ui) -> Result<ExitCode, String> {
    let pf = platform(args)?;
    let top = args.number("--top", 10, 0..)?;
    let target = target(args.positionals[0])?;
    let log = Rc::new(RefCell::new(EventLog::new()));
    let (elapsed, stats, names) = run_target(ui, &target, &pf, log.clone())?;

    let log = log.borrow();
    warn_if_truncated(ui, &log);
    let report = ProfileReport::build(target.name(), pf.name, elapsed, &log, &names);
    debug_assert_eq!(report.totals.faults, stats.faults());

    if let Some(path) = args.value("--folded-out") {
        let text = folded_stacks(pf.name, &log, &names);
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!(
            "wrote folded stacks to {path} ({} frames; render with flamegraph.pl/inferno)",
            text.lines().count()
        ));
    }
    if ui.json {
        println!("{}", report.to_json().to_string_pretty());
    }
    let _ = write!(ui.human(), "{}", report.render_table(top));
    Ok(ExitCode::SUCCESS)
}

/// `xplacer optimize`: the closed loop. Trace a baseline, enumerate
/// candidate placement plans from the shadow state, beam-search plan
/// combinations on the deterministic evaluation pool, report the winner.
/// Output is byte-identical for any `--jobs` value.
fn cmd_optimize(args: &Args, ui: &Ui) -> Result<ExitCode, String> {
    let mut cfg = xplacer_optimize::OptimizeConfig::new(platform(args)?);
    cfg.jobs = args.number("--jobs", 1, 1..)?;
    cfg.beam = args.number("--beam", 2, 1..)?;
    cfg.smoke = args.flag("--smoke");
    let target = target(args.positionals[0])?;

    ui.debug(&format!(
        "optimizing {} on {} with {} workers",
        target.name(),
        cfg.platform.name,
        cfg.jobs
    ));
    let report = xplacer_optimize::optimize(&target, &cfg)?;

    let doc = report.to_json().to_string_pretty();
    if ui.json {
        println!("{doc}");
    } else {
        let _ = write!(ui.human(), "{}", report.render());
    }
    if let Some(path) = args.value("--out") {
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        ui.info(&format!("wrote optimizer report to {path}"));
    }
    Ok(ExitCode::SUCCESS)
}

/// `xplacer top`: the time-series telemetry dashboard. Live mode runs a
/// workload (or MiniCU program) with the full event ring recording, then
/// renders `--frames` evenly spaced dashboard frames over the simulated
/// timeline; `--replay <events.json>` drives the same pipeline from a
/// trace recorded earlier with `--events-out`. `--frames N --ascii` output
/// is byte-deterministic (golden-snapshot tested).
fn cmd_top(args: &Args, ui: &Ui) -> Result<ExitCode, String> {
    let frames = args.number("--frames", 3, 1..=MAX_FRAMES)?;
    let mut cfg = TelemetryConfig::default();
    cfg.epoch_ns = args.number("--epoch-ns", cfg.epoch_ns, 1.0..)?;
    cfg.max_buckets = args.number("--buckets", cfg.max_buckets, 2..=MAX_BUCKETS)?;
    let opts = DashOpts {
        ascii: args.flag("--ascii"),
        ..DashOpts::default()
    };
    let trace = trace(ui, args)?;

    let out = replay(&trace, cfg, OnlineConfig::default(), frames, &opts);
    let mut h = ui.human();
    for (i, frame) in out.frames.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(h);
        }
        let _ = write!(h, "{frame}");
    }
    drop(h);

    let timeseries_out = args.value("--timeseries-out");
    if timeseries_out.is_some() || ui.json {
        let doc = timeseries_json(
            &out.telemetry,
            &trace.workload,
            &trace.platform_name,
            &out.episodes,
        );
        let text = doc.to_string_pretty();
        if let Some(path) = timeseries_out {
            std::fs::write(path, format!("{text}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            ui.info(&format!("wrote timeseries telemetry to {path}"));
        }
        if ui.json {
            println!("{text}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The trace `top` and `blame` fold: the `--replay` file, or a live run
/// of the target. `--replay` takes neither a target nor `--platform`.
fn trace(ui: &Ui, args: &Args) -> Result<EventTrace, String> {
    match (args.value("--replay"), args.positionals.first()) {
        (Some(_), Some(extra)) => Err(args.usage_error(format!(
            "unexpected argument `{extra}`: --replay takes no target"
        ))),
        (Some(_), None) if args.flag("--platform") => {
            Err(args.usage_error("`--platform` does not apply to --replay"))
        }
        (Some(path), None) => {
            let text = read(path)?;
            EventTrace::parse(&text).map_err(|e| format!("{path}: {e}"))
        }
        (None, Some(arg)) => record_trace_live(ui, args, arg),
        (None, None) => Err(args.usage_error(format!("missing {}", args.verb.synopsis))),
    }
}

/// Run a workload (or MiniCU program) with a deep, wall-clock-metered
/// event ring and package the stream as an in-memory trace for the
/// dashboard pipeline — live mode is replay over a trace recorded seconds
/// ago.
fn record_trace_live(ui: &Ui, args: &Args, arg: &str) -> Result<EventTrace, String> {
    let pf = platform(args)?;
    let target = target(arg)?;
    let log = Rc::new(RefCell::new(EventLog::new()));
    let (metered, meter) = MeteredHook::new(log.clone());
    let (elapsed, _, names) = run_target(ui, &target, &pf, Rc::new(RefCell::new(metered)))?;

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
        target.name(),
        &pf,
        elapsed,
        &log,
        names,
    ))
}

/// `xplacer blame`: critical-path blame analysis. Runs a workload (or
/// MiniCU program) recording the full attributed stream — or replays an
/// `--events-out` artifact — reconstructs the dependency DAG, and charges
/// every nanosecond of elapsed time to a (kernel × allocation ×
/// event-kind) cell, with a per-allocation what-if ranking of the most
/// profitable placement fixes. Output is byte-deterministic.
fn cmd_blame(args: &Args, ui: &Ui) -> Result<ExitCode, String> {
    let top = args.number("--top", 10, 0..)?;
    let trace = trace(ui, args)?;
    let report = BlameReport::build(&trace);

    if let Some(path) = args.value("--folded-out") {
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
    Ok(ExitCode::SUCCESS)
}

/// `xplacer check <workload|file.cu>`: memory sanitizer + cross-stream
/// race detector. Exit 0 when clean, 1 on findings, 2 on usage errors.
fn cmd_check(args: &Args, ui: &Ui) -> Result<ExitCode, String> {
    let opts = xplacer_check::CheckOptions {
        bulk: !args.flag("--no-bulk"),
        max_errors: args.number("--max-errors", 0, 0..)?,
        platform: platform(args)?,
    };
    let out = match target(args.positionals[0])? {
        Target::Workload(w) => {
            ui.info(&format!("checking workload {w}"));
            xplacer_check::check_workload(&w, &opts)?
        }
        Target::Program { name, source } => {
            ui.info(&format!("checking {name}"));
            xplacer_check::check_source(&name, &source, &opts)?
        }
    };
    ui.debug(&format!(
        "checker cost: {} shadow bytes held, {} race slots allocated ({} bytes each), \
         {} accesses resolved by address",
        out.shadow_bytes,
        out.race_slots,
        std::mem::size_of::<xplacer_check::race::LocState>(),
        out.resolved_by_address
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
fn cmd_diff(args: &Args, ui: &Ui) -> Result<ExitCode, String> {
    let threshold = args.number("--threshold", xplacer_obs::diff::DEFAULT_THRESHOLD, 0.0..)?;
    let top = args.number("--top", 10, 0..)?;
    let load = |path: &str| -> Result<RunDigest, String> {
        let doc = Json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        RunDigest::from_json(&doc, path)
    };
    let d = diff(
        load(args.positionals[0])?,
        load(args.positionals[1])?,
        threshold,
    )?;

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

#[cfg(test)]
mod tests {
    use super::*;

    /// The words after `xplacer` of every command line in the `sh` blocks
    /// of `doc`, run either as `…/xplacer <verb> …` or as
    /// `cargo run … -p xplacer-cli -- <verb> …`.
    fn documented_command_lines(doc: &str) -> Vec<Vec<String>> {
        let mut lines = Vec::new();
        let (mut in_sh, mut line) = (false, String::new());
        for l in doc.lines() {
            if l.starts_with("```") {
                in_sh = l == "```sh";
                continue;
            }
            if !in_sh {
                continue;
            }
            line += l.trim_end_matches('\\');
            line += " ";
            if l.ends_with('\\') {
                continue;
            }
            let words: Vec<&str> = line
                .split_whitespace()
                .take_while(|w| !w.starts_with('#'))
                .collect();
            let binary = if words.contains(&"xplacer-cli") {
                words.iter().position(|w| *w == "--")
            } else {
                words
                    .iter()
                    .position(|w| *w == "xplacer" || w.ends_with("/xplacer"))
            };
            if let Some(at) = binary {
                lines.push(words[at + 1..].iter().map(|w| w.to_string()).collect());
            }
            line.clear();
        }
        lines
    }

    #[test]
    fn documented_command_lines_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).expect("doc is readable");
            let lines = documented_command_lines(&text);
            assert!(!lines.is_empty(), "{doc}: no xplacer command lines");
            for words in lines {
                let (name, rest) = words.split_first().expect("a verb");
                let verb = VERBS.iter().find(|v| v.name == name);
                let parsed = verb.map(|v| v.parse(rest));
                assert!(
                    matches!(parsed, Some(Ok(Some(_)))),
                    "{doc}: `xplacer {}` does not parse: {:?}",
                    words.join(" "),
                    parsed.map(|p| p.err())
                );
            }
        }
    }

    #[test]
    fn flag_tables_are_well_formed() {
        for v in &VERBS {
            let names: Vec<&str> = v.all_flags().map(|f| f.name).collect();
            for (i, name) in names.iter().enumerate() {
                assert!(
                    name.starts_with("--") && *name != "--help",
                    "{}: {name}",
                    v.name
                );
                assert!(!names[..i].contains(name), "{}: {name} twice", v.name);
            }
        }
        // The help lines list the values `choice` accepts.
        let help = |name: &str| {
            let mut flags = VERBS.iter().flat_map(Verb::all_flags);
            flags.find(|f| f.name == name).expect("declared").help
        };
        let platforms: Vec<&str> = PLATFORMS.iter().map(|(key, _)| *key).collect();
        assert!(help("--platform").contains(&platforms.join("|")));
        let levels: Vec<&str> = LOG_LEVELS.iter().map(|(key, _)| *key).collect();
        assert!(help("--log-level").contains(&levels.join("|")));
        // ... and the bounds `number` enforces.
        assert!(help("--frames").contains(&format!("1 to {MAX_FRAMES} ")));
        assert!(help("--buckets").contains(&format!("2 to {MAX_BUCKETS} ")));
    }
}
