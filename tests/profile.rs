//! Attribution conservation across every built-in workload.
//!
//! The cost-attribution profiler is only trustworthy if it loses
//! nothing: with a ring deep enough to hold the whole run, the counter
//! totals reconstructed from the attributed event stream must equal
//! `Machine::stats()` *exactly* — same faults, same migrations, same
//! bytes — for every workload shape the repo ships (managed-memory
//! faulting, explicit device memcpy, streams + prefetch, read-mostly
//! duplication). A profiler that undercounts by one page fault would
//! silently misattribute cost, so these are equality assertions, not
//! tolerances.
//!
//! The workloads are driven through `setup`/`run`/`check` directly (the
//! `run_*` one-shot helpers reset the machine counters mid-run, which
//! would make `Machine::stats()` disagree with the full event stream by
//! construction).

use std::cell::RefCell;
use std::rc::Rc;

use hetsim::{platform, EventLog, Machine};
use xplacer_obs::flamegraph::folded_stacks;
use xplacer_obs::profile::{ProfileFold, ProfileReport, HOST_KERNEL};
use xplacer_workloads as w;

const WORKLOADS: &[&str] = &[
    "lulesh",
    "sw",
    "pathfinder",
    "backprop",
    "gaussian",
    "lud",
    "nn",
    "cfd",
];

/// Run one workload (small config) on a fresh pascal machine with a
/// deep event ring attached; return the machine, the log, and the
/// allocation-name table.
fn run_workload(which: &str) -> (Machine, EventLog, Vec<(hetsim::Addr, String)>) {
    let mut m = Machine::new(platform::intel_pascal());
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    let names: Vec<(hetsim::Addr, String)> = match which {
        "lulesh" => {
            let cfg = w::lulesh::LuleshConfig::new(6, 3);
            let mut l = w::lulesh::Lulesh::setup(&mut m, cfg, w::lulesh::LuleshVariant::Baseline);
            let names = l.names();
            l.run(&mut m, cfg.steps, |_, _| {});
            let _ = l.check(&mut m);
            names
        }
        "sw" => {
            let cfg = w::smith_waterman::SwConfig::square(64);
            let mut s = w::smith_waterman::SmithWaterman::setup(
                &mut m,
                cfg,
                w::smith_waterman::SwVariant::Baseline,
            );
            let names = s.names();
            s.run(&mut m, |_, _| {});
            names
        }
        "pathfinder" => {
            let cfg = w::rodinia::pathfinder::PathfinderConfig::new(256, 51, 10);
            let mut p = w::rodinia::pathfinder::Pathfinder::setup(
                &mut m,
                cfg,
                w::rodinia::pathfinder::PathfinderVariant::Baseline,
            );
            let names = p.names();
            p.run(&mut m, |_, _| {});
            let _ = p.check(&mut m);
            names
        }
        "backprop" => {
            let mut b = w::rodinia::backprop::Backprop::setup(
                &mut m,
                w::rodinia::backprop::BackpropConfig::new(256),
            );
            let names = b.names();
            b.run(&mut m);
            names
        }
        "gaussian" => {
            let mut g = w::rodinia::gaussian::Gaussian::setup(
                &mut m,
                w::rodinia::gaussian::GaussianConfig::new(24),
            );
            let names = g.names();
            g.run(&mut m);
            names
        }
        "lud" => {
            let mut l = w::rodinia::lud::Lud::setup(&mut m, w::rodinia::lud::LudConfig::new(24));
            let names = l.names();
            l.run(&mut m, |_, _| {});
            let _ = l.check(&mut m);
            names
        }
        "nn" => {
            let mut n = w::rodinia::nn::Nn::setup(&mut m, w::rodinia::nn::NnConfig::new(512));
            let names = n.names();
            n.run(&mut m);
            names
        }
        "cfd" => {
            let mut c =
                w::rodinia::cfd::Cfd::setup(&mut m, w::rodinia::cfd::CfdConfig::new(256, 4));
            let names = c.names();
            c.run(&mut m);
            names
        }
        other => panic!("unknown workload {other}"),
    };
    let log = log.borrow().clone();
    (m, log, names)
}

/// Every counter the profiler reconstructs from the stream equals the
/// machine's own accounting, per workload, exactly.
#[test]
fn profile_totals_conserve_machine_stats_for_every_workload() {
    for which in WORKLOADS {
        let (mut m, log, names) = run_workload(which);
        assert_eq!(log.dropped(), 0, "{which}: ring must hold the whole run");
        let elapsed = m.elapsed_ns();
        let p = ProfileReport::build(which, "intel_pascal", elapsed, &log, &names);
        let s = &m.stats;
        assert_eq!(p.totals.faults, s.faults(), "{which}: faults");
        assert_eq!(p.totals.migrations, s.migrations(), "{which}: migrations");
        assert_eq!(
            p.totals.bytes_migrated, s.bytes_migrated,
            "{which}: bytes_migrated"
        );
        assert_eq!(
            p.totals.memcpy_bytes, s.memcpy_bytes,
            "{which}: memcpy_bytes"
        );
        assert_eq!(
            p.totals.duplications, s.duplications,
            "{which}: duplications"
        );
        assert_eq!(
            p.totals.invalidations, s.invalidations,
            "{which}: invalidations"
        );
        assert_eq!(p.totals.evictions, s.evictions, "{which}: evictions");
        assert_eq!(p.totals.allocs, s.allocs, "{which}: allocs");
        assert_eq!(p.totals.frees, s.frees, "{which}: frees");
        assert_eq!(
            p.kernel_launches, s.kernel_launches,
            "{which}: kernel launches"
        );
    }
}

/// Per-kernel rows partition the totals: summing every kernel row (host
/// included) gives back the run totals — no event is double-counted or
/// orphaned by the grouping.
#[test]
fn per_kernel_rows_partition_the_totals() {
    for which in WORKLOADS {
        let (mut m, log, names) = run_workload(which);
        let elapsed = m.elapsed_ns();
        let p = ProfileReport::build(which, "intel_pascal", elapsed, &log, &names);
        let (mut faults, mut migrations, mut bytes) = (0u64, 0u64, 0u64);
        let mut cost_ns = 0.0;
        for k in &p.kernels {
            faults += k.costs.faults;
            migrations += k.costs.migrations;
            bytes += k.costs.bytes_migrated;
            cost_ns += k.costs.cost_ns;
        }
        assert_eq!(faults, p.totals.faults, "{which}: kernel faults partition");
        assert_eq!(
            migrations, p.totals.migrations,
            "{which}: kernel migrations partition"
        );
        assert_eq!(
            bytes, p.totals.bytes_migrated,
            "{which}: kernel bytes partition"
        );
        assert!(
            (cost_ns - p.totals.cost_ns).abs() < 1e-6,
            "{which}: kernel cost partition ({cost_ns} vs {})",
            p.totals.cost_ns
        );
    }
}

/// The acceptance scenario: profiling pathfinder names the allocation
/// with the most moved bytes (the device wall array fed by the bulk H2D
/// copy), with a human label, not a bare address.
#[test]
fn pathfinder_profile_names_the_hottest_allocation() {
    let (mut m, log, names) = run_workload("pathfinder");
    let elapsed = m.elapsed_ns();
    let p = ProfileReport::build("pathfinder", "intel_pascal", elapsed, &log, &names);
    let hot = p.hottest_alloc().expect("pathfinder moves data");
    assert_eq!(hot.label, "gpuWall", "bulk H2D copy target ranks first");
    assert!(hot.costs.bytes_moved() > 0);
    let table = p.render_table(5);
    assert!(
        table.contains("gpuWall"),
        "table names the hot allocation:\n{table}"
    );
}

/// An empty event log folds to an empty-but-valid profile and an empty
/// folded-stacks file — exporters never panic on "nothing happened".
#[test]
fn empty_event_log_yields_empty_but_valid_outputs() {
    let log = EventLog::new();
    let p = ProfileReport::build("nothing", "intel_pascal", 0.0, &log, &[]);
    assert!(p.kernels.is_empty());
    assert!(p.allocs.is_empty());
    assert_eq!(p.totals.faults, 0);
    assert_eq!(p.events_recorded, 0);
    let table = p.render_table(10);
    assert!(table.contains("(none)"), "placeholder rows:\n{table}");
    let json = p.to_json().to_string_pretty();
    assert!(json.contains("xplacer-profile/1"));
    assert_eq!(folded_stacks("intel_pascal", &log, &[]), "");
}

/// Kernel attribution is real: every workload attributes at least one
/// event to a non-host kernel context, and the folded stacks carry the
/// kernel frames.
#[test]
fn kernel_context_attribution_is_present() {
    for which in WORKLOADS {
        let (mut m, log, names) = run_workload(which);
        let elapsed = m.elapsed_ns();
        let p = ProfileReport::build(which, "intel_pascal", elapsed, &log, &names);
        assert!(
            p.kernels.iter().any(|k| k.name != HOST_KERNEL),
            "{which}: kernel rows present"
        );
        let folded = folded_stacks("intel_pascal", &log, &names);
        assert!(
            folded
                .lines()
                .any(|l| !l.starts_with(&format!("intel_pascal;{HOST_KERNEL}"))),
            "{which}: kernel frames in folded stacks"
        );
    }
}

/// The online fold attached as a hook renders exactly what the ring fold
/// renders over the same run, on every workload and both presets.
#[test]
fn online_fold_matches_the_ring_fold_on_every_workload() {
    for pf in [platform::intel_pascal(), platform::power9_volta()] {
        for which in WORKLOADS {
            let mut m = Machine::new(pf.clone());
            let log = Rc::new(RefCell::new(EventLog::new()));
            let fold = Rc::new(RefCell::new(ProfileFold::new()));
            m.add_hook(log.clone());
            m.add_hook(fold.clone());
            let (_, names) = w::run_workload(&mut m, which, |_, _| {}).unwrap();
            let elapsed = m.elapsed_ns();
            let log = log.borrow();
            assert_eq!(log.dropped(), 0, "{which}: the ring must hold the run");
            let ring = ProfileReport::build(which, pf.name, elapsed, &log, &names);
            let online = fold.borrow().finish(which, pf.name, elapsed, &names);
            for top in [3, 1000] {
                assert_eq!(ring.render_table(top), online.render_table(top), "{which}");
            }
            assert_eq!(
                ring.to_json().to_string_pretty(),
                online.to_json().to_string_pretty(),
                "{which} on {}",
                pf.name
            );
        }
    }
}
