//! Canonical deterministic runs rendered as stable text documents for the
//! golden-snapshot oracle, plus the lockstep runner for the workload
//! sweep.

use std::cell::RefCell;
use std::rc::Rc;

use hetsim::{platform, EventLog, Machine};
use xplacer_core::{analyze, attach_tracer, summarize, AnalysisConfig};
use xplacer_obs::ProfileReport;
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
/// Configurations follow the `reproduce_all --smoke` canonicals where
/// those exist and the integration-test sizes otherwise.
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
