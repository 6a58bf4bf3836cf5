//! Contiguous-sweep access-path microbenchmark and its CI gate record.
//!
//! Measures host-side simulator throughput (accesses accounted per
//! second of *wall* time) for the same traced contiguous sweep executed
//! two ways on one machine configuration:
//!
//! * **word** — the bulk fast path disabled, so every element runs the
//!   full per-word protocol: one UM-driver resolution, one SMT lookup,
//!   and one shadow update per access;
//! * **bulk** — the fast path enabled, so the driver is resolved once
//!   per page, the hook sees one `on_access` per range, and the tracer does
//!   one SMT lookup per range.
//!
//! The machine carries 64 live managed allocations so SMT lookups pay a
//! realistic search cost, and a tracer is attached throughout (the
//! paper's instrumented-run regime). Absolute ops/sec depends on the
//! host machine, so the regression gate (`bench compare-access`) gates
//! on the dimensionless **speedup** ratio `bulk / word`, which is stable
//! across hosts, plus an absolute floor: the fast path must stay at
//! least [`MIN_SPEEDUP`]× ahead.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hetsim::{platform, Machine};
use xplacer_core::{attach_tracer, OnlineAnalyzer, OnlineConfig};
use xplacer_obs::{Json, Telemetry, TelemetryConfig};

/// Schema tag of `BENCH_access_path.json`.
pub const ACCESS_BENCH_SCHEMA: &str = "xplacer-access-bench/1";

/// The fast path must beat the per-word path by at least this factor;
/// `compare_access` fails the gate when the measured speedup drops below
/// it regardless of the committed baseline.
pub const MIN_SPEEDUP: f64 = 3.0;

/// Telemetry-overhead floor: the bulk sweep with the full streaming
/// telemetry stack attached (time-series bucketing plus the online
/// episode analyzer) must retain at least this fraction of plain bulk
/// throughput. The observers only see discrete events and one range
/// callback per sweep, so a breach means someone made a hot-path
/// callback do per-word work again.
pub const TELEMETRY_MIN_RATIO: f64 = 0.5;

/// Benchmark shape.
#[derive(Debug, Clone, Copy)]
pub struct AccessPathConfig {
    /// Live managed allocations on the machine (SMT size).
    pub allocs: usize,
    /// f64 elements per allocation; the sweep covers one allocation.
    pub elems: usize,
    /// Minimum measured wall time per variant.
    pub min_time: Duration,
}

impl AccessPathConfig {
    /// Full-size run for recording `results/BENCH_access_path.json`.
    pub fn full() -> Self {
        AccessPathConfig {
            allocs: 64,
            elems: 64 * 1024,
            min_time: Duration::from_millis(200),
        }
    }

    /// CI smoke shape: same structure, shorter measurement.
    pub fn smoke() -> Self {
        AccessPathConfig {
            allocs: 64,
            elems: 16 * 1024,
            min_time: Duration::from_millis(50),
        }
    }
}

/// One benchmark run's record, the unit `bench compare-access` diffs.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPathRecord {
    pub name: String,
    /// Live managed allocations during the sweep.
    pub allocs: u64,
    /// Elements per sweep pass (one write sweep + one read sweep).
    pub elems: u64,
    /// Accounted accesses per second, fast path disabled.
    pub ops_per_sec_word: f64,
    /// Accounted accesses per second, fast path enabled.
    pub ops_per_sec_bulk: f64,
    /// Fast path enabled with the streaming telemetry stack attached.
    pub ops_per_sec_telemetry: f64,
    /// `ops_per_sec_bulk / ops_per_sec_word` — the gated metric.
    pub speedup: f64,
    /// `ops_per_sec_telemetry / ops_per_sec_bulk` — gated against
    /// [`TELEMETRY_MIN_RATIO`].
    pub telemetry_ratio: f64,
}

impl AccessPathRecord {
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("schema", ACCESS_BENCH_SCHEMA.into())
            .set("name", self.name.as_str().into())
            .set("allocs", self.allocs.into())
            .set("elems", self.elems.into())
            .set("ops_per_sec_word", Json::Num(self.ops_per_sec_word))
            .set("ops_per_sec_bulk", Json::Num(self.ops_per_sec_bulk))
            .set(
                "ops_per_sec_telemetry",
                Json::Num(self.ops_per_sec_telemetry),
            )
            .set("speedup", Json::Num(self.speedup))
            .set("telemetry_ratio", Json::Num(self.telemetry_ratio));
        j
    }

    pub fn from_json(j: &Json) -> Result<AccessPathRecord, String> {
        if j.get("schema").and_then(Json::as_str) != Some(ACCESS_BENCH_SCHEMA) {
            return Err(format!("not a {ACCESS_BENCH_SCHEMA} document"));
        }
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing field {k}"))
        };
        let int = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing field {k}"))
        };
        Ok(AccessPathRecord {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("missing field name")?
                .to_string(),
            allocs: int("allocs")?,
            elems: int("elems")?,
            ops_per_sec_word: num("ops_per_sec_word")?,
            ops_per_sec_bulk: num("ops_per_sec_bulk")?,
            // Telemetry fields arrived in a later revision of the same
            // schema; baselines recorded before them read as "no
            // overhead" so the speedup gate still applies unchanged.
            ops_per_sec_telemetry: num("ops_per_sec_telemetry")
                .unwrap_or_else(|_| num("ops_per_sec_bulk").unwrap_or(0.0)),
            speedup: num("speedup")?,
            telemetry_ratio: num("telemetry_ratio").unwrap_or(1.0),
        })
    }

    pub fn parse(text: &str) -> Result<AccessPathRecord, String> {
        AccessPathRecord::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// Measure one variant: accounted accesses per wall second of traced
/// contiguous sweeping (alternating full-array write and read passes).
fn sweep_ops_per_sec(cfg: &AccessPathConfig, bulk: bool, telemetry: bool) -> f64 {
    let mut m = Machine::new(platform::intel_pascal());
    let _tracer = attach_tracer(&mut m);
    if telemetry {
        let link_bw = m.platform().link_bw;
        m.add_hook(Rc::new(RefCell::new(Telemetry::new(
            TelemetryConfig::default(),
            link_bw,
        ))));
        m.add_hook(Rc::new(RefCell::new(OnlineAnalyzer::new(
            OnlineConfig::default(),
        ))));
    }
    let ptrs: Vec<_> = (0..cfg.allocs)
        .map(|_| m.alloc_managed::<f64>(cfg.elems))
        .collect();
    let p = ptrs[cfg.allocs / 2];
    m.set_bulk_enabled(bulk);
    let n = cfg.elems as u64;
    // Warm-up pass: fault the pages in and reach the traced steady state,
    // so the timed passes measure the steady access path, not first-touch
    // migration.
    m.write_range(p.addr, 8, n).unwrap();
    m.read_range(p.addr, 8, n).unwrap();
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        m.write_range(p.addr, 8, n).unwrap();
        m.read_range(p.addr, 8, n).unwrap();
        passes += 1;
        if start.elapsed() >= cfg.min_time {
            break;
        }
    }
    (passes * 2 * n) as f64 / start.elapsed().as_secs_f64()
}

/// Run the microbenchmark and build its record.
pub fn run_access_path(cfg: &AccessPathConfig) -> AccessPathRecord {
    let word = sweep_ops_per_sec(cfg, false, false);
    let bulk = sweep_ops_per_sec(cfg, true, false);
    let telemetry = sweep_ops_per_sec(cfg, true, true);
    AccessPathRecord {
        name: "access_path".to_string(),
        allocs: cfg.allocs as u64,
        elems: cfg.elems as u64,
        ops_per_sec_word: word,
        ops_per_sec_bulk: bulk,
        ops_per_sec_telemetry: telemetry,
        speedup: bulk / word,
        telemetry_ratio: telemetry / bulk,
    }
}

/// Gate verdict of one access-path comparison.
#[derive(Debug, Clone)]
pub struct AccessDelta {
    pub baseline_speedup: f64,
    pub current_speedup: f64,
    /// Relative speedup change, `(current - baseline) / baseline`.
    pub ratio: f64,
    /// Speedup fell more than the allowed regression below baseline.
    pub regressed: bool,
    /// Speedup fell below the absolute [`MIN_SPEEDUP`] floor.
    pub below_floor: bool,
    pub baseline_telemetry_ratio: f64,
    pub current_telemetry_ratio: f64,
    /// Telemetry-attached throughput fell below
    /// [`TELEMETRY_MIN_RATIO`] of plain bulk.
    pub telemetry_below_floor: bool,
}

impl AccessDelta {
    pub fn failed(&self) -> bool {
        self.regressed || self.below_floor || self.telemetry_below_floor
    }
}

/// Compare `current` against `baseline`: the speedup ratio may shrink at
/// most `max_regress` (relative) and must stay above [`MIN_SPEEDUP`].
/// Absolute ops/sec is reported informationally only — it depends on the
/// host, the ratio does not. The committed baseline is deliberately
/// conservative (below every observed healthy run) so timing noise never
/// trips the gate while a disabled or broken fast path (speedup ≈ 1x)
/// still fails it decisively.
pub fn compare_access(
    baseline: &AccessPathRecord,
    current: &AccessPathRecord,
    max_regress: f64,
) -> AccessDelta {
    let ratio = if baseline.speedup > 0.0 {
        (current.speedup - baseline.speedup) / baseline.speedup
    } else {
        0.0
    };
    AccessDelta {
        baseline_speedup: baseline.speedup,
        current_speedup: current.speedup,
        ratio,
        regressed: ratio < -max_regress,
        below_floor: current.speedup < MIN_SPEEDUP,
        baseline_telemetry_ratio: baseline.telemetry_ratio,
        current_telemetry_ratio: current.telemetry_ratio,
        telemetry_below_floor: current.telemetry_ratio < TELEMETRY_MIN_RATIO,
    }
}

/// Render the comparison for the CI log.
pub fn render_access_compare(
    baseline: &AccessPathRecord,
    current: &AccessPathRecord,
    delta: &AccessDelta,
    max_regress: f64,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "bench compare-access: {} vs {} (max allowed speedup regression {:.0}%, floor {MIN_SPEEDUP}x)",
        baseline.name,
        current.name,
        max_regress * 100.0
    );
    let _ = writeln!(
        s,
        "  ops/sec word {:>14.0} -> {:>14.0}  (informational)",
        baseline.ops_per_sec_word, current.ops_per_sec_word
    );
    let _ = writeln!(
        s,
        "  ops/sec bulk {:>14.0} -> {:>14.0}  (informational)",
        baseline.ops_per_sec_bulk, current.ops_per_sec_bulk
    );
    let verdict = if delta.below_floor {
        "BELOW FLOOR"
    } else if delta.regressed {
        "REGRESSED"
    } else {
        "ok"
    };
    let _ = writeln!(
        s,
        "  speedup      {:>13.1}x -> {:>13.1}x  {:>+8.2}%  {verdict}",
        delta.baseline_speedup,
        delta.current_speedup,
        delta.ratio * 100.0
    );
    let _ = writeln!(
        s,
        "  telemetry    {:>12.2}x -> {:>12.2}x of bulk (floor {TELEMETRY_MIN_RATIO}x)  {}",
        delta.baseline_telemetry_ratio,
        delta.current_telemetry_ratio,
        if delta.telemetry_below_floor {
            "BELOW FLOOR"
        } else {
            "ok"
        }
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(speedup: f64) -> AccessPathRecord {
        AccessPathRecord {
            name: "access_path".into(),
            allocs: 64,
            elems: 65536,
            ops_per_sec_word: 1e6,
            ops_per_sec_bulk: 1e6 * speedup,
            ops_per_sec_telemetry: 0.9e6 * speedup,
            speedup,
            telemetry_ratio: 0.9,
        }
    }

    #[test]
    fn record_roundtrips_through_json_text() {
        let r = record(12.5);
        let back = AccessPathRecord::parse(&r.to_json().to_string_pretty()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(AccessPathRecord::parse("{\"schema\": \"other/1\"}").is_err());
    }

    #[test]
    fn pre_telemetry_baselines_read_as_no_overhead() {
        let mut j = record(10.0).to_json();
        j.set("ops_per_sec_telemetry", Json::Null)
            .set("telemetry_ratio", Json::Null);
        let back = AccessPathRecord::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(back.ops_per_sec_telemetry, back.ops_per_sec_bulk);
        assert_eq!(back.telemetry_ratio, 1.0);
    }

    #[test]
    fn telemetry_overhead_gates_on_absolute_floor() {
        let base = record(10.0);
        let mut slow = record(10.0);
        slow.telemetry_ratio = TELEMETRY_MIN_RATIO / 2.0;
        let d = compare_access(&base, &slow, 0.20);
        assert!(d.telemetry_below_floor && d.failed());
        assert!(
            !d.regressed && !d.below_floor,
            "only the telemetry floor trips"
        );
    }

    #[test]
    fn compare_passes_within_threshold_and_on_improvement() {
        let base = record(10.0);
        assert!(!compare_access(&base, &record(9.0), 0.20).failed());
        assert!(!compare_access(&base, &record(15.0), 0.20).failed());
    }

    #[test]
    fn compare_fails_beyond_threshold() {
        let base = record(10.0);
        let d = compare_access(&base, &record(6.0), 0.20);
        assert!(d.regressed && d.failed());
    }

    #[test]
    fn compare_fails_below_absolute_floor() {
        // Even a "baseline" that was itself slow cannot excuse dropping
        // under the floor.
        let base = record(3.2);
        let d = compare_access(&base, &record(2.8), 0.20);
        assert!(d.below_floor && d.failed());
        assert!(!d.regressed, "within 20%% of baseline, only floor fails");
    }

    #[test]
    fn measured_fast_path_beats_per_word() {
        // A tiny run: the ratio must comfortably exceed 1 even unoptimized
        // and on a loaded machine; release CI gates the full 3x floor.
        let cfg = AccessPathConfig {
            allocs: 64,
            elems: 4096,
            min_time: Duration::from_millis(20),
        };
        let r = run_access_path(&cfg);
        assert!(
            r.speedup > 1.5,
            "bulk path not faster: {:.2}x (word {:.0}/s, bulk {:.0}/s)",
            r.speedup,
            r.ops_per_sec_word,
            r.ops_per_sec_bulk
        );
    }
}
