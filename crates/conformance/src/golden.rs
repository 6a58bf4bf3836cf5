//! Canonical deterministic runs rendered as stable text documents for the
//! golden-snapshot oracle, plus the lockstep runner for the workload
//! sweep.

use std::cell::RefCell;
use std::rc::Rc;

use hetsim::{platform, EventLog, Machine, MemAdvise, Platform, Stats};
use xplacer_core::{
    analyze, attach_tracer, summarize, AllocSummary, AnalysisConfig, OnlineConfig, Report, Tracer,
};
use xplacer_obs::{
    chrome_trace_with_series, events_json, folded_stacks, metrics_report, replay, BlameReport,
    DashOpts, EventTrace, ProfileReport, Telemetry, TelemetryConfig,
};
use xplacer_workloads as w;

use crate::refmodel::LockstepHook;

/// The 8 workloads of the reproduction, in canonical order, with the
/// configurations the golden snapshots and lockstep sweep pin down.
pub const WORKLOADS: [&str; 8] = [
    "lulesh",
    "smith_waterman",
    "pathfinder",
    "backprop",
    "gaussian",
    "cfd",
    "lud",
    "nn",
];

/// Run workload `name` at its canonical conformance configuration.
/// Configurations follow the canonical runs behind `reproduce_all`'s
/// metrics files (`xplacer_bench::metrics_dump`) where those exist and
/// the integration-test sizes otherwise.
pub fn run_workload(m: &mut Machine, name: &str) {
    match name {
        "lulesh" => {
            let _ = w::lulesh::run_lulesh(
                m,
                w::lulesh::LuleshConfig::new(8, 8),
                w::lulesh::LuleshVariant::Baseline,
            );
        }
        "smith_waterman" => {
            let _ = w::smith_waterman::run_sw(
                m,
                w::smith_waterman::SwConfig::square(128),
                w::smith_waterman::SwVariant::Baseline,
            );
        }
        "pathfinder" => {
            let _ = w::rodinia::pathfinder::run_pathfinder(
                m,
                w::rodinia::pathfinder::PathfinderConfig::new(512, 101, 20),
                w::rodinia::pathfinder::PathfinderVariant::Baseline,
            );
        }
        "backprop" => {
            let _ = w::rodinia::backprop::run_backprop(
                m,
                w::rodinia::backprop::BackpropConfig::new(1024),
            );
        }
        "gaussian" => {
            let _ = w::rodinia::gaussian::run_gaussian(
                m,
                w::rodinia::gaussian::GaussianConfig::new(48),
            );
        }
        "cfd" => {
            let _ = w::rodinia::cfd::run_cfd(m, w::rodinia::cfd::CfdConfig::new(256, 8));
        }
        "lud" => {
            let _ = w::rodinia::lud::run_lud(m, w::rodinia::lud::LudConfig::new(64));
        }
        "nn" => {
            let _ = w::rodinia::nn::run_nn(m, w::rodinia::nn::NnConfig::new(1024));
        }
        other => panic!("unknown conformance workload {other}"),
    }
}

/// Run `name` with tracer + event log attached and render the canonical
/// golden document: simulator counters, anti-pattern report, and the
/// cost-attribution profile table.
pub fn workload_doc(name: &str) -> String {
    let pf = platform::intel_pascal();
    let mut m = Machine::new(pf.clone());
    let tracer = attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    run_workload(&mut m, name);
    let elapsed = m.elapsed_ns();
    let tr = tracer.borrow();
    let report = analyze(&tr.smt, &AnalysisConfig::default());
    let names: Vec<(u64, String)> = summarize(&tr.smt, false)
        .into_iter()
        .map(|a| (a.base, a.name))
        .collect();
    let profile = ProfileReport::build(name, pf.name, elapsed, &log.borrow(), &names);
    format!(
        "workload: {name}\nplatform: {}\n\n== stats ==\n{}\n== report ==\n{}\n== profile ==\n{}",
        pf.name,
        m.stats.summary(),
        report.render(),
        profile.render_table(12),
    )
}

/// Render the oversubscribed runs that exercise eviction: lulesh and sw,
/// as `xplacer demo` sizes them, on the PCIe and NVLink presets with 1, 2
/// and 3 pages of GPU memory, each without and with `SetReadMostly` on
/// every managed allocation. Every run records its simulated time
/// (bit-exact) and counters, so the document pins each victim the
/// seeded-random policy picks.
pub fn eviction_doc() -> String {
    let mut doc = String::new();
    for name in ["lulesh", "sw"] {
        for preset in [platform::intel_pascal(), platform::power9_volta()] {
            for pages in 1..=3 {
                for read_mostly in [false, true] {
                    let mut pf = preset.clone();
                    pf.gpu_mem_bytes = pages * pf.page_size;
                    let mut m = Machine::new(pf);
                    xplacer_workloads::run_workload(&mut m, name, |m, names| {
                        if !read_mostly {
                            return;
                        }
                        for (addr, _) in names {
                            let Ok(a) = m.find_alloc(*addr) else { continue };
                            let (base, size) = (a.base, a.size);
                            let _ = m.try_mem_advise(base, size, MemAdvise::SetReadMostly);
                        }
                    })
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                    doc += &format!(
                        "== {name} on {} with {pages} GPU page(s), read_mostly={read_mostly} ==\n\
                         elapsed_bits: {:#018x}\n{}\n",
                        preset.name,
                        m.elapsed_ns().to_bits(),
                        m.stats.summary(),
                    );
                }
            }
        }
    }
    doc
}

/// The run facts every exporter of the event stream reads besides the
/// stream itself.
struct RunFacts {
    elapsed_ns: f64,
    stats: Stats,
    allocs: Vec<AllocSummary>,
    report: Report,
}

impl RunFacts {
    fn of(elapsed_ns: f64, stats: Stats, tracer: &Tracer) -> Self {
        RunFacts {
            elapsed_ns,
            stats,
            allocs: summarize(&tracer.smt, false),
            report: analyze(&tracer.smt, &AnalysisConfig::default()),
        }
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Run `run` on a `pf` machine that records the event stream and its
/// telemetry, and render one section of [`event_exports_doc`]: the event
/// counts, then the byte length and FNV-1a digest of every exporter's
/// output, each in the form the CLI writes it.
fn exports_section(label: &str, pf: &Platform, run: impl FnOnce(Machine) -> RunFacts) -> String {
    let mut m = Machine::new(pf.clone());
    let log = Rc::new(RefCell::new(EventLog::new()));
    let tele = Rc::new(RefCell::new(Telemetry::new(
        TelemetryConfig::default(),
        pf.link_bw,
    )));
    m.add_hook(log.clone());
    m.add_hook(tele.clone());
    let facts = run(m);
    let (log, tele) = (log.borrow(), tele.borrow());
    let names: Vec<(u64, String)> = facts
        .allocs
        .iter()
        .map(|a| (a.base, a.name.clone()))
        .collect();

    let events = format!(
        "{}\n",
        events_json(&log, label, facts.elapsed_ns, pf, &facts.allocs).to_string_pretty()
    );
    let trace = EventTrace::parse(&events).unwrap_or_else(|e| panic!("{label}: {e}"));
    let live = EventTrace::from_recording(label, pf, facts.elapsed_ns, &log, names.clone());
    let profile = ProfileReport::build(label, pf.name, facts.elapsed_ns, &log, &names);
    let blame = BlameReport::build(&live);
    let dash = DashOpts {
        ascii: true,
        ..DashOpts::default()
    };
    let frames = replay(
        &trace,
        TelemetryConfig::default(),
        OnlineConfig::default(),
        3,
        &dash,
    );
    let exports = [
        ("events_json", events),
        (
            "chrome_trace",
            chrome_trace_with_series(&log, Some(&tele)).to_string_compact(),
        ),
        ("folded_stacks", folded_stacks(pf.name, &log, &names)),
        (
            "metrics",
            metrics_report(
                label,
                pf.name,
                facts.elapsed_ns,
                &facts.stats,
                &facts.allocs,
                Some(&facts.report),
                Some(&log),
            )
            .to_string_pretty(),
        ),
        ("profile_table", profile.render_table(10)),
        ("profile_json", profile.to_json().to_string_pretty()),
        ("blame_table", blame.render(10)),
        ("blame_json", blame.to_json().to_string_pretty()),
        ("replay_frames", frames.frames.join("\n")),
    ];

    let mut kinds = std::collections::BTreeMap::new();
    for ev in log.events() {
        *kinds.entry(ev.event.kind_name()).or_insert(0u64) += 1;
    }
    let kinds: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    let mut doc = format!(
        "== {label} on {} ==\nevents: {} recorded, {} dropped\nkinds: {}\n\
         parsed trace equals the recording: {}\n",
        pf.name,
        log.total_recorded(),
        log.dropped(),
        kinds.join(" "),
        trace.events == live.events,
    );
    for (what, text) in exports {
        doc += &format!(
            "{what}: {} bytes, fnv1a {:#018x}\n",
            text.len(),
            fnv1a(text.as_bytes())
        );
    }
    doc
}

/// Render digests of every exporter of the event stream over runs that
/// together raise all twelve event kinds: lulesh (6, 4) at 3 GPU pages on
/// the PCIe and NVLink presets, without and with `SetReadMostly` on every
/// managed allocation (faults, migrations, evictions, read duplicates,
/// invalidations, advice, frees), pathfinder at `xplacer demo` size
/// (copies), and `tests/corpus/valid/gen_00.cu` (a prefetch). `gen_00`
/// is the program's source text.
pub fn event_exports_doc(gen_00: &str) -> String {
    let mut doc = String::new();
    for preset in [platform::intel_pascal(), platform::power9_volta()] {
        for read_mostly in [false, true] {
            let mut pf = preset.clone();
            pf.gpu_mem_bytes = 3 * pf.page_size;
            let label = format!("lulesh (6, 4) with 3 GPU pages, read_mostly={read_mostly}");
            doc += &exports_section(&label, &pf, |mut m| {
                let tracer = attach_tracer(&mut m);
                let cfg = w::lulesh::LuleshConfig::new(6, 4);
                let mut l =
                    w::lulesh::Lulesh::setup(&mut m, cfg, w::lulesh::LuleshVariant::Baseline);
                let names = l.names();
                w::register_names(&tracer, &names);
                if read_mostly {
                    for (addr, _) in &names {
                        let Ok(a) = m.find_alloc(*addr) else { continue };
                        let (base, size) = (a.base, a.size);
                        let _ = m.try_mem_advise(base, size, MemAdvise::SetReadMostly);
                    }
                }
                l.run(&mut m, cfg.steps, |_, _| {});
                let elapsed = m.elapsed_ns();
                let tracer = tracer.borrow();
                RunFacts::of(elapsed, m.stats, &tracer)
            });
            doc.push('\n');
        }
    }
    doc += &exports_section("pathfinder", &platform::intel_pascal(), |mut m| {
        let tracer = attach_tracer(&mut m);
        w::run_workload(&mut m, "pathfinder", |_, names| {
            w::register_names(&tracer, names)
        })
        .unwrap_or_else(|e| panic!("pathfinder: {e}"));
        let elapsed = m.elapsed_ns();
        let tracer = tracer.borrow();
        RunFacts::of(elapsed, m.stats, &tracer)
    });
    doc.push('\n');
    doc += &exports_section("gen_00.cu", &platform::intel_pascal(), |m| {
        let (out, interp) = xplacer_interp::run_source_on(gen_00, m, true)
            .unwrap_or_else(|e| panic!("gen_00.cu: {e}"));
        RunFacts::of(out.elapsed_ns, out.stats, &interp.tracer)
    });
    doc
}

/// Run workload `name` with the bulk fast path on or off and render a
/// fingerprint covering everything the fast path could perturb: simulated
/// time (bit-exact), simulator counters, the full timed event stream,
/// shadow-flag bytes of every SMT entry, and the rendered anti-pattern
/// report. `workload_bulk_fingerprint(n, true)` must equal
/// `workload_bulk_fingerprint(n, false)` for every workload — the bulk
/// path is an optimisation, never an observable behaviour change.
pub fn workload_bulk_fingerprint(name: &str, bulk: bool) -> String {
    let pf = platform::intel_pascal();
    let mut m = Machine::new(pf);
    m.set_bulk_enabled(bulk);
    let tracer = attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    run_workload(&mut m, name);
    let mut doc = format!(
        "workload: {name}\nelapsed_bits: {:#018x}\n\n== stats ==\n{}",
        m.elapsed_ns().to_bits(),
        m.stats.summary(),
    );
    let log = log.borrow();
    doc.push_str(&format!(
        "\n== events ({} recorded, {} dropped) ==\n",
        log.total_recorded(),
        log.dropped()
    ));
    for ev in log.events() {
        doc.push_str(&format!(
            "t={:#018x} cost={:#018x} {:?} {:?}\n",
            ev.t_ns.to_bits(),
            ev.cost_ns.to_bits(),
            ev.ctx,
            ev.event
        ));
    }
    let tr = tracer.borrow();
    doc.push_str("\n== shadow ==\n");
    for e in tr.smt.iter() {
        doc.push_str(&format!("{:#x}+{} live={} ", e.base, e.size, e.live));
        for w in &e.shadow {
            doc.push_str(&format!("{:02x}", w.0));
        }
        doc.push('\n');
    }
    let report = analyze(&tr.smt, &AnalysisConfig::default());
    doc.push_str(&format!("\n== report ==\n{}", report.render()));
    doc
}

/// Run mini-CUDA source traced and render its golden document: exit code,
/// program stdout (including `tracePrint` diagnostics), every collected
/// report, the final whole-heap report, and the simulator counters.
pub fn mini_doc(label: &str, src: &str) -> Result<String, String> {
    let (out, interp) = xplacer_interp::run_source(src, platform::intel_pascal(), true)
        .map_err(|e| format!("{label}: {e}"))?;
    let mut doc = format!(
        "program: {label}\nexit: {}\n\n== stdout ==\n{}",
        out.exit, out.stdout
    );
    for (i, r) in interp.reports.iter().enumerate() {
        doc.push_str(&format!(
            "\n== diagnostic report {} ==\n{}",
            i + 1,
            r.render()
        ));
    }
    let fin = analyze(&interp.tracer.smt, &AnalysisConfig::default());
    doc.push_str(&format!(
        "\n== final report ==\n{}\n== stats ==\n{}",
        fin.render(),
        out.stats.summary()
    ));
    Ok(doc)
}

/// Outcome of one lockstep workload run.
pub struct LockstepResult {
    pub divergences: Vec<String>,
    pub checked_accesses: u64,
    pub checked_events: u64,
    pub checked_ranges: u64,
}

/// Run workload `name` with a [`LockstepHook`] attached (alongside the
/// tracer, as in production) and cross-check every driver action against
/// the reference model, including final page states.
pub fn lockstep_workload(name: &str) -> LockstepResult {
    lockstep_workload_with(name, true)
}

/// [`lockstep_workload`] with explicit control over the machine's bulk
/// fast path, so the sweep can pin the reference model against both the
/// ranged (one `on_access` per range) and the per-word hook calls.
pub fn lockstep_workload_with(name: &str, bulk: bool) -> LockstepResult {
    let pf = platform::intel_pascal();
    let mut m = Machine::new(pf.clone());
    m.set_bulk_enabled(bulk);
    let hook = Rc::new(RefCell::new(LockstepHook::new(
        pf.page_size,
        pf.cpu_direct_access_gpu,
    )));
    m.add_hook(hook.clone());
    run_workload(&mut m, name);
    let mut h = hook.borrow_mut();
    h.check_final_state(&m);
    LockstepResult {
        divergences: h.divergences.clone(),
        checked_accesses: h.checked_accesses,
        checked_events: h.checked_events,
        checked_ranges: h.checked_ranges,
    }
}
