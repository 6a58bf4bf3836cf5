//! Per-experiment metrics JSON for `reproduce_all`.
//!
//! Every figure/table harness returns a *textual* report; this module runs
//! each experiment's canonical configuration once more with the tracer and
//! an event log attached and serializes the simulator counters, allocation
//! summaries, findings, and event digest through `xplacer-obs`, so the
//! `results/` directory carries machine-readable companions next to the
//! text reports. The runs are deterministic, so these files are stable
//! across invocations and diffable between code revisions.

use std::cell::RefCell;
use std::rc::Rc;

use hetsim::{platform, EventLog, Machine};
use xplacer_core::antipattern::{analyze, AnalysisConfig};
use xplacer_obs::{metrics_report, Json};
use xplacer_workloads as w;

/// Run `work` on a pascal machine with tracer + event log attached and
/// assemble the metrics document.
fn observed_run(workload: &str, work: impl FnOnce(&mut Machine)) -> Json {
    let pf = platform::intel_pascal();
    let mut m = Machine::new(pf.clone());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    work(&mut m);
    let elapsed = m.elapsed_ns();
    let allocs = xplacer_core::summarize(&tracer.borrow().smt, false);
    let report = analyze(&tracer.borrow().smt, &AnalysisConfig::default());
    let log = log.borrow();
    metrics_report(
        workload,
        pf.name,
        elapsed,
        &m.stats,
        &allocs,
        Some(&report),
        Some(&log),
    )
}

/// The canonical observed run backing experiment `name`, or `None` for
/// experiments with no single representative workload (e.g. the API demo
/// or the wall-clock overhead table).
pub fn experiment_metrics(name: &str) -> Option<Json> {
    match name {
        "fig04_lulesh_diagnostic" | "fig05_lulesh_maps" | "fig06_lulesh_speedup" => {
            Some(observed_run("lulesh", |m| {
                let _ = w::lulesh::run_lulesh(
                    m,
                    w::lulesh::LuleshConfig::new(8, 8),
                    w::lulesh::LuleshVariant::Baseline,
                );
            }))
        }
        "fig07_sw_init_maps" | "fig08_sw_diag_maps" | "fig09_sw_speedup" => {
            Some(observed_run("smith-waterman", |m| {
                let _ = w::smith_waterman::run_sw(
                    m,
                    w::smith_waterman::SwConfig::square(128),
                    w::smith_waterman::SwVariant::Baseline,
                );
            }))
        }
        "fig10_pathfinder_maps" | "fig11_pathfinder_speedup" => {
            Some(observed_run("pathfinder", |m| {
                let _ = w::rodinia::pathfinder::run_pathfinder(
                    m,
                    w::rodinia::pathfinder::PathfinderConfig::new(512, 101, 20),
                    w::rodinia::pathfinder::PathfinderVariant::Baseline,
                );
            }))
        }
        "table2_rodinia_findings" => Some(observed_run("backprop", |m| {
            let _ = w::rodinia::backprop::run_backprop(
                m,
                w::rodinia::backprop::BackpropConfig::new(1024),
            );
        })),
        "ablation_page_size" => Some(observed_run("gaussian", |m| {
            let _ = w::rodinia::gaussian::run_gaussian(
                m,
                w::rodinia::gaussian::GaussianConfig::new(48),
            );
        })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lulesh_metrics_document_is_complete_and_deterministic() {
        let a = experiment_metrics("fig04_lulesh_diagnostic").unwrap();
        let b = experiment_metrics("fig04_lulesh_diagnostic").unwrap();
        assert_eq!(a.to_string_pretty(), b.to_string_pretty());
        assert!(
            a.get("stats")
                .unwrap()
                .get("kernel_launches")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        assert!(a.get("events").is_some());
        assert!(a.get("report").is_some());
    }

    /// Every experiment with a canonical run writes the same document
    /// twice: the `results/*.metrics.json` files are diffable across
    /// revisions.
    #[test]
    fn every_canonical_run_is_byte_deterministic() {
        let mut runs = 0;
        for name in crate::EXPERIMENTS {
            if let Some(a) = experiment_metrics(name) {
                let b = experiment_metrics(name).unwrap();
                assert_eq!(a.to_string_pretty(), b.to_string_pretty(), "{name}");
                runs += 1;
            }
        }
        assert_eq!(runs, 10);
    }

    #[test]
    fn experiments_without_a_canonical_run_yield_none() {
        assert!(experiment_metrics("table1_api").is_none());
        assert!(experiment_metrics("table3_overhead").is_none());
    }
}
