//! Streaming telemetry, online episode detection, and the `xplacer top`
//! dashboard pipeline, end to end.
//!
//! Four properties pin the layer down:
//!
//! * **Purity** — attaching the full telemetry stack (time-series
//!   bucketing, online analyzer, metered event ring) may not change a
//!   single simulated nanosecond, counter, or workload result.
//! * **Determinism** — identical runs produce byte-identical event
//!   traces, time-series JSON, and dashboard frames.
//! * **Conservation** — hierarchical downsampling may merge buckets but
//!   every counter's sum must equal the machine's own totals exactly.
//! * **Detection** — a workload that actually ping-pongs yields an
//!   episode with a nonzero span and attributed cost, visible in both
//!   the JSON and the rendered dashboard.
//!
//! The committed dashboard snapshots under `tests/golden/` are the
//! byte-exact contract of `xplacer top --replay --frames 3 --ascii`;
//! regenerate with `XPLACER_BLESS=1`.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use hetsim::{platform, EventLog, Machine, MeteredHook, Stats};
use xplacer_conformance::snapshot::check_or_bless;
use xplacer_core::{EpisodeKind, OnlineConfig};
use xplacer_obs::dashboard::{replay, DashOpts, ReplayOutcome};
use xplacer_obs::events::{events_json, EventTrace};
use xplacer_obs::timeseries::{timeseries_json, TelemetryConfig};
use xplacer_obs::{events_from_json, Json};
use xplacer_workloads::lulesh::{run_lulesh, Lulesh, LuleshConfig, LuleshVariant};
use xplacer_workloads::rodinia::pathfinder::{run_pathfinder, PathfinderConfig, PathfinderVariant};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}"))
}

/// Run `work` with tracer + deep event ring attached and package the
/// stream as the same in-memory trace `xplacer top` records live.
fn record(name: &str, work: impl FnOnce(&mut Machine)) -> (EventTrace, Stats) {
    let mut m = Machine::new(platform::intel_pascal());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    work(&mut m);
    let names: Vec<(u64, String)> = xplacer_core::summarize(&tracer.borrow().smt, false)
        .into_iter()
        .map(|s| (s.base, s.name))
        .collect();
    let elapsed = m.elapsed_ns();
    let log = log.borrow();
    let trace = EventTrace {
        workload: name.to_string(),
        platform_name: m.platform().name.to_string(),
        page_size: m.platform().page_size,
        link_bw: m.platform().link_bw,
        elapsed_ns: elapsed,
        recorded: log.total_recorded(),
        dropped: log.dropped(),
        names,
        events: log.snapshot(),
    };
    (trace, m.stats.clone())
}

fn lulesh_trace() -> (EventTrace, Stats) {
    record("lulesh", |m| {
        let _ = run_lulesh(m, LuleshConfig::new(6, 4), LuleshVariant::Baseline);
    })
}

fn pathfinder_trace() -> (EventTrace, Stats) {
    record("pathfinder", |m| {
        let _ = run_pathfinder(
            m,
            PathfinderConfig::new(256, 51, 10),
            PathfinderVariant::Baseline,
        );
    })
}

/// A managed array touched by the CPU between every GPU kernel: the
/// canonical ping-pong the online analyzer exists to catch.
fn ping_pong_trace() -> (EventTrace, Stats) {
    record("ping-pong-synthetic", |m| {
        let p = m.alloc_managed::<f64>(16);
        for round in 0..8 {
            m.st(p, 0, round as f64);
            m.launch("bounce", 1, |_, m| {
                let _ = m.ld(p, 0);
            });
        }
    })
}

fn replay3(trace: &EventTrace) -> ReplayOutcome {
    let opts = DashOpts {
        ascii: true,
        ..DashOpts::default()
    };
    replay(
        trace,
        TelemetryConfig::default(),
        OnlineConfig::default(),
        3,
        &opts,
    )
}

// ----------------------------------------------------------------------
// Purity
// ----------------------------------------------------------------------

#[test]
fn telemetry_stack_does_not_perturb_the_simulation() {
    let run = |observed: bool| {
        let mut m = Machine::new(platform::intel_pascal());
        if observed {
            let _t = xplacer_core::attach_tracer(&mut m);
            let link_bw = m.platform().link_bw;
            m.add_hook(Rc::new(RefCell::new(xplacer_obs::Telemetry::new(
                TelemetryConfig::default(),
                link_bw,
            ))));
            m.add_hook(Rc::new(RefCell::new(xplacer_core::OnlineAnalyzer::new(
                OnlineConfig::default(),
            ))));
            let (metered, _meter) = MeteredHook::new(Rc::new(RefCell::new(EventLog::new())));
            m.add_hook(Rc::new(RefCell::new(metered)));
        }
        let out = run_lulesh(&mut m, LuleshConfig::new(6, 4), LuleshVariant::Baseline);
        (m.now(), m.stats.clone(), out.check)
    };
    assert_eq!(
        run(false),
        run(true),
        "telemetry + analyzer + metered ring changed the simulation"
    );
}

// ----------------------------------------------------------------------
// Determinism
// ----------------------------------------------------------------------

#[test]
fn event_trace_and_timeseries_are_byte_identical_across_runs() {
    let (a, _) = lulesh_trace();
    let (b, _) = lulesh_trace();
    let ra = replay3(&a);
    let rb = replay3(&b);
    assert_eq!(ra.frames, rb.frames, "dashboard frames diverged");
    let ja = timeseries_json(&ra.telemetry, &a.workload, &a.platform_name, &ra.episodes)
        .to_string_pretty();
    let jb = timeseries_json(&rb.telemetry, &b.workload, &b.platform_name, &rb.episodes)
        .to_string_pretty();
    assert_eq!(ja, jb, "timeseries JSON diverged");
}

#[test]
fn replay_from_exported_json_matches_replay_from_memory() {
    // Recorded without `run_lulesh`'s untimed-warmup clock reset: a
    // serialized trace must hold one monotonic clock epoch per stream,
    // and `EventTrace::parse` now rejects anything else.
    let mut m = Machine::new(platform::intel_pascal());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::new()));
    m.add_hook(log.clone());
    let cfg = LuleshConfig::new(6, 4);
    let mut l = Lulesh::setup(&mut m, cfg, LuleshVariant::Baseline);
    l.run(&mut m, cfg.steps, |_, _| {});
    let allocs = xplacer_core::summarize(&tracer.borrow().smt, false);
    let elapsed = m.elapsed_ns();
    let text =
        events_json(&log.borrow(), "lulesh", elapsed, m.platform(), &allocs).to_string_pretty();

    let parsed = events_from_json(&Json::parse(&text).unwrap()).unwrap();
    let direct = EventTrace {
        workload: "lulesh".to_string(),
        platform_name: m.platform().name.to_string(),
        page_size: m.platform().page_size,
        link_bw: m.platform().link_bw,
        elapsed_ns: elapsed,
        recorded: log.borrow().total_recorded(),
        dropped: log.borrow().dropped(),
        names: allocs.iter().map(|a| (a.base, a.name.clone())).collect(),
        events: log.borrow().snapshot(),
    };
    assert_eq!(parsed.events.len(), direct.events.len());
    assert_eq!(
        replay3(&parsed).frames,
        replay3(&direct).frames,
        "a round-trip through events.json changed the dashboard"
    );
}

// ----------------------------------------------------------------------
// Conservation
// ----------------------------------------------------------------------

#[test]
fn downsampled_series_conserve_the_machine_totals() {
    // `run_lulesh` resets the machine counters after setup, so the stats
    // cross-check lives on the synthetic trace below; here the machine
    // totals are derived from the full event stream itself.
    let (trace, _) = lulesh_trace();
    // A tiny bucket cap over a fine epoch forces many halving rounds.
    let cfg = TelemetryConfig {
        epoch_ns: 256.0,
        max_buckets: 8,
    };
    let out = replay(
        &trace,
        cfg,
        OnlineConfig::default(),
        1,
        &DashOpts {
            ascii: true,
            ..DashOpts::default()
        },
    );
    let t = &out.telemetry;
    assert!(t.downsamples > 0, "cap of 8 must force downsampling");
    assert!(t.global().len() <= 8);
    let totals = *t.total();
    for (name, get) in xplacer_obs::Sample::FIELDS {
        let sum: u64 = t.global().iter().map(get).sum();
        assert_eq!(sum, get(&totals), "{name} not conserved across merges");
    }
    let event_faults = trace
        .events
        .iter()
        .filter(|e| e.event.kind_name() == "page_fault")
        .count() as u64;
    assert_eq!(totals.faults, event_faults, "faults vs the event stream");
}

#[test]
fn telemetry_totals_match_the_machine_counters() {
    // The synthetic workload never calls `reset_metrics`, so the machine
    // counters cover exactly the events the telemetry saw.
    let (trace, stats) = ping_pong_trace();
    let out = replay3(&trace);
    let totals = *out.telemetry.total();
    assert_eq!(totals.faults, stats.faults(), "faults vs machine counters");
    assert_eq!(
        totals.migrations_h2d + totals.migrations_d2h,
        stats.migrations(),
        "migrations vs machine counters"
    );
    assert!(totals.bytes_moved > 0);
}

// ----------------------------------------------------------------------
// Edge cases
// ----------------------------------------------------------------------

#[test]
fn empty_trace_replays_without_panicking_and_reports_zero() {
    let (trace, _) = record("empty", |_m| {});
    assert!(trace.events.is_empty(), "no work means no events");
    let out = replay3(&trace);
    assert_eq!(out.frames.len(), 3, "frame count is honored even when idle");
    let totals = *out.telemetry.total();
    for (name, get) in xplacer_obs::Sample::FIELDS {
        assert_eq!(get(&totals), 0, "{name} must be zero on an empty trace");
    }
    assert!(out.episodes.is_empty(), "no events, no episodes");
    let json = timeseries_json(
        &out.telemetry,
        &trace.workload,
        &trace.platform_name,
        &out.episodes,
    )
    .to_string_pretty();
    assert!(
        Json::parse(&json).is_ok(),
        "empty-trace timeseries must still serialize"
    );
}

#[test]
fn single_epoch_run_never_downsamples() {
    // An epoch wider than the whole run: every event lands in bucket 0
    // without any halving rounds, and that one bucket carries the totals.
    let (trace, _) = ping_pong_trace();
    let cfg = TelemetryConfig {
        epoch_ns: 1e12,
        max_buckets: 8,
    };
    let out = replay(
        &trace,
        cfg,
        OnlineConfig::default(),
        1,
        &DashOpts {
            ascii: true,
            ..DashOpts::default()
        },
    );
    let t = &out.telemetry;
    assert_eq!(t.downsamples, 0, "one epoch must never trigger a merge");
    assert_eq!(t.global().len(), 1, "all events fold into a single bucket");
    let totals = *t.total();
    for (name, get) in xplacer_obs::Sample::FIELDS {
        assert_eq!(
            get(&t.global()[0]),
            get(&totals),
            "{name}: the single bucket must carry the whole run"
        );
    }
}

#[test]
fn sparkline_folding_to_minimum_buckets_conserves_every_counter() {
    // The opposite extreme: the smallest legal cap (Telemetry requires
    // two buckets to merge) over a very fine epoch forces every halving
    // round the trace can produce, folding the whole run into a
    // two-cell sparkline.
    let (trace, _) = lulesh_trace();
    let cfg = TelemetryConfig {
        epoch_ns: 64.0,
        max_buckets: 2,
    };
    let out = replay(
        &trace,
        cfg,
        OnlineConfig::default(),
        1,
        &DashOpts {
            ascii: true,
            ..DashOpts::default()
        },
    );
    let t = &out.telemetry;
    assert!(
        t.downsamples > 0,
        "a 64 ns epoch over a multi-ms run must fold repeatedly"
    );
    assert!(t.global().len() <= 2, "cap of 2 leaves at most two buckets");
    let totals = *t.total();
    for (name, get) in xplacer_obs::Sample::FIELDS {
        let sum: u64 = t.global().iter().map(get).sum();
        assert_eq!(sum, get(&totals), "{name} lost in the fold");
    }
    let last = out.frames.last().unwrap();
    assert!(last.is_ascii(), "fully folded frame must still render");
}

// ----------------------------------------------------------------------
// Detection
// ----------------------------------------------------------------------

#[test]
fn ping_pong_workload_yields_an_attributed_episode_everywhere() {
    let (trace, _) = ping_pong_trace();
    let out = replay3(&trace);
    let ep = out
        .episodes
        .iter()
        .find(|e| e.kind == EpisodeKind::PingPong)
        .expect("alternating CPU/GPU touches must yield a ping-pong episode");
    assert!(ep.span_ns() > 0.0, "episode must span simulated time");
    assert!(ep.cost_ns > 0.0, "episode must carry attributed cost");
    assert!(ep.trips >= 3, "at least min_flips migrations: {}", ep.trips);

    let last = out.frames.last().unwrap();
    assert!(
        last.contains("ping-pong"),
        "dashboard must show the episode"
    );
    let json = timeseries_json(
        &out.telemetry,
        &trace.workload,
        &trace.platform_name,
        &out.episodes,
    )
    .to_string_pretty();
    let doc = Json::parse(&json).unwrap();
    let eps = doc.get("episodes").and_then(Json::as_arr).unwrap();
    assert!(
        eps.iter().any(|e| {
            e.get("kind").and_then(Json::as_str) == Some("ping-pong")
                && e.get("cost_ns").and_then(Json::as_f64).unwrap_or(0.0) > 0.0
        }),
        "timeseries JSON must carry the costed episode"
    );
}

// ----------------------------------------------------------------------
// Golden dashboard snapshots
// ----------------------------------------------------------------------

fn check_frames(name: &str, trace: &EventTrace) {
    let out = replay3(trace);
    assert!(
        out.frames.iter().all(|f| f.is_ascii()),
        "--ascii frames must be pure ASCII"
    );
    let doc = out.frames.join("\n");
    if let Err(e) = check_or_bless(&golden_path(name), &doc) {
        panic!("{e}");
    }
}

#[test]
fn golden_top_replay_lulesh() {
    check_frames("top_lulesh.golden", &lulesh_trace().0);
}

#[test]
fn golden_top_replay_pathfinder() {
    check_frames("top_pathfinder.golden", &pathfinder_trace().0);
}
