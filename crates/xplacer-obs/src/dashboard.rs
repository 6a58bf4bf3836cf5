//! The `xplacer top` terminal dashboard: sparklines over the telemetry
//! epochs, a rolling bandwidth gauge, the hottest allocations, and the
//! anti-pattern episodes — rendered as plain text frames.
//!
//! Rendering is a pure function of ([`Telemetry`], episodes, frame info):
//! no wall-clock, no locale, no terminal queries. With `--ascii` the
//! output is 7-bit ASCII, so replay frames are byte-deterministic and can
//! be golden-snapshotted. [`replay`] drives the whole pipeline offline
//! from a recorded [`EventTrace`] — the analysis equivalent of running
//! live, minus the simulator.

use std::fmt::Write as _;

use hetsim::MemHook;
use xplacer_core::{Episode, OnlineAnalyzer, OnlineConfig};

use crate::events::EventTrace;
use crate::timeseries::{Sample, Telemetry, TelemetryConfig};

/// Unicode bar ramp (zero renders as space).
const RAMP_UNICODE: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// ASCII ramp, matching the heatmap's palette.
const RAMP_ASCII: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Width of the bandwidth gauge bar, in cells.
const GAUGE_CELLS: usize = 20;

/// Presentation knobs for a dashboard frame.
#[derive(Debug, Clone)]
pub struct DashOpts {
    /// Use the 7-bit ASCII ramp (golden-snapshot safe).
    pub ascii: bool,
    /// Maximum sparkline width in columns; longer series are chunk-summed.
    pub width: usize,
    /// Number of hottest allocations to list.
    pub top_k: usize,
}

impl Default for DashOpts {
    fn default() -> Self {
        DashOpts {
            ascii: false,
            width: 64,
            top_k: 5,
        }
    }
}

/// Everything a frame shows that is not in the telemetry itself.
#[derive(Debug, Clone)]
pub struct FrameInfo<'a> {
    pub workload: &'a str,
    pub platform: &'a str,
    /// 1-based frame number and the total frame count.
    pub frame: usize,
    pub frames: usize,
    /// Simulated time the frame represents.
    pub now_ns: f64,
    /// Event-stream health (from the recorder).
    pub recorded: u64,
    pub dropped: u64,
    /// Allocation display names, by base address.
    pub names: &'a [(u64, String)],
}

impl FrameInfo<'_> {
    fn label(&self, base: u64) -> String {
        match self.names.iter().find(|(b, _)| *b == base) {
            Some((_, name)) => name.clone(),
            None => format!("0x{base:x}"),
        }
    }
}

/// Fold a bucket series into at most `width` columns by chunk-summing —
/// the same exact-integer merge the telemetry uses, so a sparkline column
/// is itself a conserved sum.
fn fold(buckets: &[Sample], width: usize, get: fn(&Sample) -> u64) -> Vec<u64> {
    if buckets.is_empty() {
        return Vec::new();
    }
    let chunk = buckets.len().div_ceil(width.max(1));
    buckets
        .chunks(chunk)
        .map(|c| c.iter().map(get).sum())
        .collect()
}

fn sparkline(values: &[u64], ramp: &[char]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if v == 0 || max == 0 {
                ramp[0]
            } else {
                // Nonzero values always get at least the first visible glyph.
                let idx = 1 + (v - 1) as usize * (ramp.len() - 2) / max.max(1) as usize;
                ramp[idx.min(ramp.len() - 1)]
            }
        })
        .collect()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Render one dashboard frame as plain text (trailing newline included).
pub fn render_frame(
    t: &Telemetry,
    episodes: &[Episode],
    info: &FrameInfo<'_>,
    opts: &DashOpts,
) -> String {
    let ramp = if opts.ascii { RAMP_ASCII } else { RAMP_UNICODE };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "xplacer top - {} on {}  [frame {}/{}]",
        info.workload, info.platform, info.frame, info.frames
    );
    let _ = writeln!(
        out,
        "sim t={}  epoch={} x {} buckets  downsamples={}  events recorded={} dropped={}",
        fmt_ns(info.now_ns),
        fmt_ns(t.epoch_ns()),
        t.global().len(),
        t.downsamples,
        info.recorded,
        info.dropped
    );

    out.push_str("counters (lifetime total | per-epoch sparkline):\n");
    for (name, get) in Sample::FIELDS {
        let series = fold(t.global(), opts.width, *get);
        let _ = writeln!(
            out,
            "  {:<15} {:>12} |{}|",
            name,
            get(t.total()),
            sparkline(&series, ramp)
        );
    }

    // Rolling bandwidth gauge: the latest epoch's traffic vs. model peak.
    let last = t.global().last().copied().unwrap_or_default();
    let gbps = last.bytes_moved as f64 / t.epoch_ns();
    let frac = t.utilization(&last).clamp(0.0, 1.0);
    let filled = (frac * GAUGE_CELLS as f64).round() as usize;
    let _ = writeln!(
        out,
        "bandwidth [{}{}] {:.2} GB/s of {:.2} GB/s peak ({:.1}%)",
        "#".repeat(filled),
        "-".repeat(GAUGE_CELLS - filled),
        gbps,
        t.peak_bw(),
        t.utilization(&last) * 100.0
    );

    out.push_str("hottest allocations (by bytes moved):\n");
    let mut hot: Vec<_> = t.allocs().collect();
    hot.sort_by(|a, b| {
        b.total
            .bytes_moved
            .cmp(&a.total.bytes_moved)
            .then(b.total.events.cmp(&a.total.events))
            .then(a.base.cmp(&b.base))
    });
    let shown = hot.iter().take(opts.top_k).filter(|a| a.total.events > 0);
    let mut any = false;
    for a in shown {
        any = true;
        let _ = writeln!(
            out,
            "  {:<12} {:<16} {:>10} moved  {:>6} faults  {:>6} migr  {}",
            format!("0x{:x}", a.base),
            info.label(a.base),
            fmt_bytes(a.total.bytes_moved),
            a.total.faults,
            a.total.migrations_h2d + a.total.migrations_d2h,
            if a.live { "live" } else { "freed" }
        );
    }
    if !any {
        out.push_str("  (no allocation activity)\n");
    }

    out.push_str("episodes:\n");
    if episodes.is_empty() {
        out.push_str("  (none detected)\n");
    }
    for e in episodes {
        let target = match e.alloc {
            Some(a) => info.label(a),
            None => "machine-wide".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<19} {:<16} span {:>10}  cost {:>10}  pages {:<5} trips {:<5}{}",
            e.kind.label(),
            target,
            fmt_ns(e.span_ns()),
            fmt_ns(e.cost_ns),
            e.pages,
            e.trips,
            if e.active { " [active]" } else { "" }
        );
    }
    out
}

/// Everything [`replay`] produced: the rendered frames plus the final
/// telemetry and sealed episodes (for `--timeseries-out` alongside).
pub struct ReplayOutcome {
    pub frames: Vec<String>,
    pub telemetry: Telemetry,
    pub episodes: Vec<Episode>,
}

/// Re-run the telemetry + episode pipeline over a recorded trace and
/// render `frames` evenly spaced dashboard frames. Deterministic: same
/// trace, same options, byte-identical frames.
pub fn replay(
    trace: &EventTrace,
    cfg: TelemetryConfig,
    ocfg: OnlineConfig,
    frames: usize,
    opts: &DashOpts,
) -> ReplayOutcome {
    let mut tele = Telemetry::new(cfg, trace.link_bw);
    let mut online = OnlineAnalyzer::new(ocfg);
    let frames = frames.max(1);
    let extent = trace
        .events
        .back()
        .map(|e| e.t_ns)
        .unwrap_or(0.0)
        .max(trace.elapsed_ns)
        .max(1.0);
    let mut rendered = Vec::with_capacity(frames);
    let mut events = trace.events.iter().peekable();
    for f in 1..=frames {
        let boundary = extent * f as f64 / frames as f64;
        while let Some(ev) = events.next_if(|e| e.t_ns <= boundary) {
            MemHook::on_event(&mut tele, ev);
            MemHook::on_event(&mut online, ev);
        }
        let episodes = if f == frames {
            online.finish();
            online.episodes().to_vec()
        } else {
            online.snapshot()
        };
        let info = FrameInfo {
            workload: &trace.workload,
            platform: &trace.platform_name,
            frame: f,
            frames,
            now_ns: boundary,
            recorded: trace.recorded,
            dropped: trace.dropped,
            names: &trace.names,
        };
        rendered.push(render_frame(&tele, &episodes, &info, opts));
    }
    online.finish();
    ReplayOutcome {
        frames: rendered,
        telemetry: tele,
        episodes: online.episodes().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{AttrCtx, Device, Event, TimedEvent};

    fn trace_with_pingpong() -> EventTrace {
        let base = 0x10000u64;
        let mut events = vec![TimedEvent {
            t_ns: 0.0,
            cost_ns: 0.0,
            ctx: AttrCtx::host(),
            event: Event::Alloc {
                base,
                bytes: 1 << 20,
                kind: hetsim::AllocKind::Managed,
            },
        }];
        let mut dir = Device::GPU0;
        for i in 0..8u64 {
            events.push(TimedEvent {
                t_ns: 10_000.0 * (i + 1) as f64,
                cost_ns: 30_000.0,
                ctx: AttrCtx {
                    alloc: Some(base),
                    ..AttrCtx::host()
                },
                event: Event::Migration {
                    page: 16,
                    to: dir,
                    bytes: 65_536,
                },
            });
            dir = if dir == Device::Cpu {
                Device::GPU0
            } else {
                Device::Cpu
            };
        }
        EventTrace {
            workload: "synthetic".to_string(),
            platform_name: "intel_pascal".to_string(),
            page_size: 65_536,
            link_bw: 12.0,
            elapsed_ns: 90_000.0,
            recorded: events.len() as u64,
            dropped: 0,
            names: vec![(base, "data".to_string())],
            events: std::rc::Rc::new(events.into()),
        }
    }

    #[test]
    fn replay_is_byte_deterministic() {
        let trace = trace_with_pingpong();
        let opts = DashOpts {
            ascii: true,
            ..DashOpts::default()
        };
        let run = || {
            replay(
                &trace,
                TelemetryConfig::default(),
                OnlineConfig::default(),
                3,
                &opts,
            )
            .frames
            .join("\n")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn replay_detects_the_ping_pong_episode_and_names_the_alloc() {
        let trace = trace_with_pingpong();
        let out = replay(
            &trace,
            TelemetryConfig::default(),
            OnlineConfig::default(),
            2,
            &DashOpts {
                ascii: true,
                ..DashOpts::default()
            },
        );
        assert_eq!(out.episodes.len(), 1);
        let e = &out.episodes[0];
        assert!(e.span_ns() > 0.0);
        assert!(e.cost_ns > 0.0);
        let last = out.frames.last().unwrap();
        assert!(last.contains("ping-pong"), "episode line missing:\n{last}");
        assert!(last.contains("data"), "alloc display name missing:\n{last}");
        assert!(last.is_ascii(), "ascii mode must emit pure ASCII");
    }

    #[test]
    fn empty_trace_renders_placeholders() {
        let trace = EventTrace {
            workload: "empty".to_string(),
            platform_name: "intel_volta".to_string(),
            page_size: 65_536,
            link_bw: 12.0,
            elapsed_ns: 0.0,
            recorded: 0,
            dropped: 0,
            names: Vec::new(),
            events: Default::default(),
        };
        let out = replay(
            &trace,
            TelemetryConfig::default(),
            OnlineConfig::default(),
            1,
            &DashOpts::default(),
        );
        assert_eq!(out.frames.len(), 1);
        assert!(out.frames[0].contains("(no allocation activity)"));
        assert!(out.frames[0].contains("(none detected)"));
    }

    #[test]
    fn sparkline_fold_conserves_sums() {
        let buckets: Vec<Sample> = (0..100)
            .map(|i| Sample {
                faults: i,
                ..Sample::default()
            })
            .collect();
        let folded = fold(&buckets, 16, |s| s.faults);
        assert!(folded.len() <= 16);
        assert_eq!(folded.iter().sum::<u64>(), (0..100).sum::<u64>());
    }
}
