//! Observer purity and exporter round-trips.
//!
//! The observability layer must be *pure*: attaching an event log or a
//! heatmap recorder — alone or alongside the tracer — may not
//! change a single simulated nanosecond, counter, or workload result.
//! These tests run real workloads under every observer combination and
//! diff the outcomes, then validate the exported artifacts (Chrome trace,
//! metrics JSON, heatmap CSV) against the machine's own counters.

use std::cell::RefCell;
use std::rc::Rc;

use hetsim::{platform, CountingHook, EventLog, Machine, Stats};
use xplacer_obs::{chrome_trace, metrics_report, stats_json, HeatmapRecorder, Json};
use xplacer_workloads::lulesh::{run_lulesh, LuleshConfig, LuleshVariant};
use xplacer_workloads::rodinia::pathfinder::{run_pathfinder, PathfinderConfig, PathfinderVariant};

/// Outcome triple compared across observer configurations.
#[derive(Debug, PartialEq)]
struct Run {
    now_ns: f64,
    stats: Stats,
    check: f64,
}

enum Observe {
    Bare,
    EventLog,
    TracerAndEventLog,
    Everything, // tracer + event log + heatmap
}

fn lulesh_under(obs: Observe) -> (Run, Option<Rc<RefCell<EventLog>>>) {
    run_under(obs, |m| {
        run_lulesh(m, LuleshConfig::new(6, 4), LuleshVariant::Baseline).check
    })
}

fn pathfinder_under(obs: Observe) -> (Run, Option<Rc<RefCell<EventLog>>>) {
    run_under(obs, |m| {
        run_pathfinder(
            m,
            PathfinderConfig::new(256, 51, 10),
            PathfinderVariant::Baseline,
        )
        .check
    })
}

fn run_under(
    obs: Observe,
    work: impl FnOnce(&mut Machine) -> f64,
) -> (Run, Option<Rc<RefCell<EventLog>>>) {
    let mut m = Machine::new(platform::intel_pascal());
    let mut log_handle = None;
    match obs {
        Observe::Bare => {}
        Observe::EventLog => {
            let log = Rc::new(RefCell::new(EventLog::new()));
            m.add_hook(log.clone());
            log_handle = Some(log);
        }
        Observe::TracerAndEventLog => {
            let _t = xplacer_core::attach_tracer(&mut m);
            let log = Rc::new(RefCell::new(EventLog::new()));
            m.add_hook(log.clone());
            log_handle = Some(log);
        }
        Observe::Everything => {
            let _t = xplacer_core::attach_tracer(&mut m);
            let log = Rc::new(RefCell::new(EventLog::new()));
            m.add_hook(log.clone());
            let heat = Rc::new(RefCell::new(HeatmapRecorder::new(m.platform().page_size)));
            m.add_hook(heat);
            log_handle = Some(log);
        }
    }
    let check = work(&mut m);
    (
        Run {
            now_ns: m.now(),
            stats: m.stats.clone(),
            check,
        },
        log_handle,
    )
}

// ----------------------------------------------------------------------
// Observer purity
// ----------------------------------------------------------------------

#[test]
fn event_log_does_not_perturb_lulesh() {
    let (bare, _) = lulesh_under(Observe::Bare);
    let (logged, log) = lulesh_under(Observe::EventLog);
    assert_eq!(bare, logged, "event log changed the simulation");
    assert!(
        !log.unwrap().borrow().is_empty(),
        "but it did observe events"
    );
}

#[test]
fn tracer_plus_event_log_fanout_does_not_perturb_lulesh() {
    let (bare, _) = lulesh_under(Observe::Bare);
    let (fanned, _) = lulesh_under(Observe::TracerAndEventLog);
    assert_eq!(
        bare, fanned,
        "tracer+event log fanout changed the simulation"
    );
    let (everything, _) = lulesh_under(Observe::Everything);
    assert_eq!(
        bare, everything,
        "full observer stack changed the simulation"
    );
}

#[test]
fn observers_do_not_perturb_pathfinder() {
    let (bare, _) = pathfinder_under(Observe::Bare);
    let (logged, log) = pathfinder_under(Observe::EventLog);
    assert_eq!(bare, logged);
    assert!(!log.unwrap().borrow().is_empty());
    let (everything, _) = pathfinder_under(Observe::Everything);
    assert_eq!(bare, everything);
}

// ----------------------------------------------------------------------
// Hook composition semantics
// ----------------------------------------------------------------------

#[test]
fn added_hooks_each_see_the_whole_run() {
    // Counters before and after the tracer and an event log: every hook
    // on the machine's list sees the same traffic, none displaces another.
    let mut m = Machine::new(platform::intel_pascal());
    let first = Rc::new(RefCell::new(CountingHook::default()));
    m.add_hook(first.clone());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    let last = Rc::new(RefCell::new(CountingHook::default()));
    m.add_hook(last.clone());
    run_lulesh(&mut m, LuleshConfig::new(4, 2), LuleshVariant::Baseline);
    let c = first.borrow().clone();
    assert_eq!(c, *last.borrow());
    assert!(c.allocs > 0 && c.reads > 0 && c.writes > 0 && c.launches > 0);
    assert_eq!(c.launches, c.kernel_ends);
    assert!(tracer.borrow().tracked() > 0);
    assert!(log.borrow().count_of("kernel_end") > 0);
}

// ----------------------------------------------------------------------
// Exporter golden checks
// ----------------------------------------------------------------------

/// A lulesh run with no mid-run `reset_metrics` (unlike `run_lulesh`,
/// which resets counters after its untimed warm-up step — the event log
/// deliberately keeps the full history, so the two would disagree).
fn lulesh_full_history() -> (Stats, Rc<RefCell<EventLog>>) {
    let mut m = Machine::new(platform::intel_pascal());
    let _t = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    let cfg = LuleshConfig::new(6, 2);
    let mut l = xplacer_workloads::lulesh::Lulesh::setup(&mut m, cfg, LuleshVariant::Baseline);
    l.run(&mut m, cfg.steps, |_, _| {});
    let _ = l.check(&mut m);
    (m.stats.clone(), log)
}

#[test]
fn chrome_trace_is_deterministic_and_matches_counters() {
    let (stats_a, log_a) = lulesh_full_history();
    let (_, log_b) = lulesh_full_history();
    let text_a = chrome_trace(&log_a.borrow()).to_string_compact();
    let text_b = chrome_trace(&log_b.borrow()).to_string_compact();
    assert_eq!(text_a, text_b, "trace must be byte-identical across runs");

    let doc = Json::parse(&text_a).expect("trace is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let kernel_spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("cat").and_then(Json::as_str) == Some("kernel")
        })
        .count() as u64;
    assert_eq!(
        kernel_spans, stats_a.kernel_launches,
        "one span per kernel launch"
    );
    let faults = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("i")
                && e.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("fault"))
        })
        .count() as u64;
    assert_eq!(faults, stats_a.faults(), "one instant per page fault");
    // Span timestamps are sane: non-negative start, positive duration.
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            assert!(e.get("dur").unwrap().as_f64().unwrap() > 0.0);
        }
    }
}

#[test]
fn metrics_json_roundtrips_machine_counters() {
    let (run, log) = pathfinder_under(Observe::TracerAndEventLog);
    let log = log.unwrap();
    let doc = metrics_report(
        "pathfinder",
        "Intel+Pascal",
        run.now_ns,
        &run.stats,
        &[],
        None,
        Some(&log.borrow()),
    );
    let text = doc.to_string_pretty();
    let back = Json::parse(&text).expect("metrics report is valid JSON");
    let stats = back.get("stats").unwrap();
    assert_eq!(
        stats.get("gpu_faults").unwrap().as_u64(),
        Some(run.stats.gpu_faults)
    );
    assert_eq!(
        stats.get("kernel_launches").unwrap().as_u64(),
        Some(run.stats.kernel_launches)
    );
    assert_eq!(
        stats.get("bytes_migrated").unwrap().as_u64(),
        Some(run.stats.bytes_migrated)
    );
    assert_eq!(
        stats.get("total_faults").unwrap().as_u64(),
        Some(run.stats.faults())
    );
    // The event digest agrees with the machine too.
    let by_kind = back.get("events").unwrap().get("by_kind").unwrap();
    assert_eq!(
        by_kind.get("kernel_end").and_then(Json::as_u64),
        Some(run.stats.kernel_launches),
        "every launch produced a kernel_end event"
    );
    // And stats_json output is embedded verbatim.
    assert_eq!(
        stats.to_string_compact(),
        Json::parse(&stats_json(&run.stats).to_string_compact())
            .unwrap()
            .to_string_compact()
    );
}

#[test]
fn heatmap_sees_the_workload_and_exports_csv() {
    let mut m = Machine::new(platform::intel_pascal());
    let heat = Rc::new(RefCell::new(HeatmapRecorder::new(m.platform().page_size)));
    m.add_hook(heat.clone());
    let r = run_lulesh(&mut m, LuleshConfig::new(6, 2), LuleshVariant::Baseline);
    assert!(r.check.is_finite());
    let h = heat.borrow();
    assert!(h.alloc_count() > 0, "allocations were registered");
    assert!(h.epoch() > 0, "kernel launches advanced the epoch");
    let csv = h.to_csv();
    assert!(csv.starts_with("alloc,base,page,epoch,accesses\n"));
    assert!(csv.lines().count() > 1, "cells were recorded");
    let art = h.render_ascii();
    assert!(art.contains("page x epoch access heatmap"));
}

#[test]
fn event_timestamps_lie_within_the_simulated_timeline() {
    let mut m = Machine::new(platform::intel_pascal());
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    let _ = run_pathfinder(
        &mut m,
        PathfinderConfig::new(128, 21, 5),
        PathfinderVariant::Baseline,
    );
    // The timeline's full extent: the host clock or the furthest stream
    // tail, whichever reaches later. Events are *recorded* in issue order
    // but *stamped* with simulated completion times, so async completions
    // may carry stamps ahead of later-recorded host events — every stamp
    // must still land inside the simulated range.
    let extent = m.stream_tails().iter().copied().fold(m.now(), f64::max);
    let log = log.borrow();
    assert!(!log.is_empty());
    for ev in log.events() {
        assert!(
            ev.t_ns >= 0.0 && ev.t_ns <= extent + 1e-6,
            "event stamped at {} outside the simulated range [0, {extent}]",
            ev.t_ns
        );
    }
    for &tail in m.stream_tails() {
        assert!(tail >= 0.0 && tail <= extent);
    }
}
