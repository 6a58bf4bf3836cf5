//! Observability exporters for the XPlacer simulator.
//!
//! This crate turns the structured event stream recorded by
//! [`hetsim::EventLog`] — plus the simulator's [`hetsim::Stats`] and the
//! analysis layer's findings — into analysis-ready artifacts:
//!
//! * [`chrome_trace`] — a Chrome Trace Event Format (`trace.json`) writer
//!   whose output loads in `chrome://tracing` or Perfetto, with kernel and
//!   memcpy spans per stream track and counter tracks for GPU-resident
//!   bytes and cumulative faults/migrations;
//! * [`metrics`] — a machine-readable JSON metrics report serializing the
//!   simulator counters, per-allocation access density, and the
//!   anti-pattern findings;
//! * [`heatmap`] — a CUTHERMO-style page×epoch access heatmap per
//!   allocation (ASCII art for terminals, CSV for tooling);
//! * [`profile`] — a cost-attribution profiler folding the attributed
//!   event stream into nvprof-style per-kernel tables, per-(kernel ×
//!   allocation) cells, and hot-allocation rankings, from a recorded
//!   ring or online, as a hook that keeps no events;
//! * [`flamegraph`] — folded-stacks export
//!   (`platform;kernel;alloc;event-kind cost_ns`) for standard flamegraph
//!   renderers;
//! * [`events`] — the full attributed event stream as JSON, the interchange
//!   format behind `xplacer top --replay`;
//! * [`timeseries`] — streaming per-allocation telemetry bucketed into
//!   simulated-time epochs with exact-sum hierarchical downsampling;
//! * [`dashboard`] — the `xplacer top` frame renderer (sparklines,
//!   bandwidth gauge, hottest allocations, anti-pattern episodes);
//! * [`crit_path`] — the causal critical-path blame analyzer behind
//!   `xplacer blame`: reconstructs the dependency DAG from the attributed
//!   stream and charges elapsed time to (kernel × allocation × kind) with
//!   bit-exact conservation plus per-allocation what-if bounds;
//! * [`diff`] — differential trace analysis behind `xplacer diff`: aligns
//!   two runs by stable keys and reports added/removed/changed rows with
//!   deltas and an improved/regressed/neutral verdict.
//!
//! Everything is hand-rolled on purpose: the build environment has no
//! registry access, so the [`json`] module provides the tiny JSON
//! document model the exporters share.

mod cells;
pub mod chrome_trace;
pub mod crit_path;
pub mod dashboard;
pub mod diff;
pub mod events;
pub mod flamegraph;
pub mod heatmap;
pub mod json;
pub mod metrics;
pub mod profile;
#[cfg(test)]
mod reference_folds;
pub mod timeseries;

pub use chrome_trace::{chrome_trace, chrome_trace_with_series};
pub use crit_path::{BlameReport, BLAME_SCHEMA};
pub use dashboard::{render_frame, replay, DashOpts, FrameInfo, ReplayOutcome};
pub use diff::{diff, RunDigest, TraceDiff, Verdict, DIFF_SCHEMA};
pub use events::{events_from_json, events_json, validate_stream_order, EventTrace};
pub use flamegraph::folded_stacks;
pub use heatmap::HeatmapRecorder;
pub use json::Json;
pub use metrics::{metrics_report, stats_json, METRICS_SCHEMA};
pub use profile::{ProfileFold, ProfileReport};
pub use timeseries::{timeseries_json, Sample, Telemetry, TelemetryConfig};
