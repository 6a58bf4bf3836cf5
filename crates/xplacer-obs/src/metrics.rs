//! Machine-readable JSON metrics report: the simulator's counters, the
//! per-allocation access summaries of the paper's `tracePrint`, the
//! anti-pattern findings, and an event-stream digest, in one document.
//!
//! This is the DINAMITE-style "analysis-ready structured log" counterpart
//! of `Stats::summary()`: the same numbers, but parseable, so downstream
//! tooling (and this repo's own regression tests) can diff runs without
//! scraping text.

use hetsim::{EventLog, Stats};
use xplacer_core::{AllocSummary, Report};

use crate::json::Json;

/// Schema tag of the metrics document. `/2` added the top-level
/// `events_recorded`/`events_dropped` ring-health fields (they shipped
/// unversioned at first; the bump lets `xplacer diff` refuse mismatched
/// inputs by name instead of by missing-field guesswork).
pub const METRICS_SCHEMA: &str = "xplacer-metrics/2";

/// Serialize every [`Stats`] counter plus the derived totals. Field names
/// match the struct fields, so a counter read back from the JSON equals
/// the in-memory value.
pub fn stats_json(s: &Stats) -> Json {
    let mut j = Json::obj();
    j.set("cpu_faults", s.cpu_faults.into())
        .set("gpu_faults", s.gpu_faults.into())
        .set("migrations_h2d", s.migrations_h2d.into())
        .set("migrations_d2h", s.migrations_d2h.into())
        .set("bytes_migrated", s.bytes_migrated.into())
        .set("duplications", s.duplications.into())
        .set("invalidations", s.invalidations.into())
        .set("evictions", s.evictions.into())
        .set("bytes_evicted", s.bytes_evicted.into())
        .set("remote_accesses", s.remote_accesses.into())
        .set("memcpy_h2d", s.memcpy_h2d.into())
        .set("memcpy_d2h", s.memcpy_d2h.into())
        .set("memcpy_bytes", s.memcpy_bytes.into())
        .set("kernel_launches", s.kernel_launches.into())
        .set("cpu_reads", s.cpu_reads.into())
        .set("cpu_writes", s.cpu_writes.into())
        .set("gpu_reads", s.gpu_reads.into())
        .set("gpu_writes", s.gpu_writes.into())
        .set("allocs", s.allocs.into())
        .set("frees", s.frees.into())
        .set("total_faults", s.faults().into())
        .set("total_migrations", s.migrations().into())
        .set("total_accesses", s.accesses().into());
    j
}

/// One allocation's access summary (the Fig. 4 row, structured).
pub fn alloc_summary_json(s: &AllocSummary) -> Json {
    let mut j = Json::obj();
    j.set("name", s.name.as_str().into())
        .set("base", format!("0x{:x}", s.base).into())
        .set("size", s.size.into())
        .set("kind", s.kind.api_name().into())
        .set("named", s.named.into())
        .set("writes_c", s.writes_c.into())
        .set("writes_g", s.writes_g.into())
        .set("r_cc", s.r_cc.into())
        .set("r_cg", s.r_cg.into())
        .set("r_gc", s.r_gc.into())
        .set("r_gg", s.r_gg.into())
        .set("density_pct", Json::Num(s.density_pct))
        .set("alternating", s.alternating.into())
        .set("live", s.live.into());
    j
}

/// The anti-pattern findings, with per-family counts.
pub fn report_json(r: &Report) -> Json {
    let mut counts = Json::obj();
    for (family, n) in r.counts() {
        counts.set(family, n.into());
    }
    let findings = r
        .findings
        .iter()
        .map(|f| {
            let mut j = Json::obj();
            j.set(
                "family",
                match f.kind() {
                    xplacer_core::FindingKind::Alternating => "alternating",
                    xplacer_core::FindingKind::LowDensity => "low-density",
                    xplacer_core::FindingKind::UnnecessaryTransfer => "unnecessary-transfer",
                    xplacer_core::FindingKind::UnusedAllocation => "unused-allocation",
                }
                .into(),
            )
            .set("alloc", f.alloc_name().into())
            .set("message", f.to_string().into())
            .set("remedy", f.remedy().into());
            j
        })
        .collect();
    let mut j = Json::obj();
    j.set("total", r.len().into())
        .set("by_family", counts)
        .set("findings", Json::Arr(findings));
    j
}

/// Digest of an [`EventLog`]: per-kind retained counts plus ring health.
pub fn event_log_json(log: &EventLog) -> Json {
    let mut by_kind = Json::obj();
    for ev in log.events() {
        let kind = ev.event.kind_name();
        let n = by_kind.get(kind).and_then(Json::as_u64).unwrap_or(0);
        by_kind.set(kind, (n + 1).into());
    }
    let mut j = Json::obj();
    j.set("recorded", log.total_recorded().into())
        .set("retained", log.len().into())
        .set("dropped", log.dropped().into())
        .set("truncated", (log.dropped() > 0).into())
        .set("capacity", log.capacity().into())
        .set("by_kind", by_kind);
    j
}

/// Assemble the full metrics report. `allocs` comes from
/// `xplacer_core::summarize`; `report` and `events` are optional layers —
/// pass `None` when the run had no analysis / no event log attached.
pub fn metrics_report(
    workload: &str,
    platform: &str,
    elapsed_ns: f64,
    stats: &Stats,
    allocs: &[AllocSummary],
    report: Option<&Report>,
    events: Option<&EventLog>,
) -> Json {
    let mut j = Json::obj();
    j.set("schema", METRICS_SCHEMA.into())
        .set("workload", workload.into())
        .set("platform", platform.into())
        .set("elapsed_ns", Json::Num(elapsed_ns))
        .set("stats", stats_json(stats))
        .set(
            "allocations",
            Json::Arr(allocs.iter().map(alloc_summary_json).collect()),
        );
    if let Some(r) = report {
        j.set("report", report_json(r));
    }
    if let Some(log) = events {
        // Ring health at the top level too, so dashboards reading only the
        // header learn whether counts are complete.
        j.set("events_recorded", log.total_recorded().into())
            .set("events_dropped", log.dropped().into())
            .set("events", event_log_json(log));
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> Stats {
        Stats {
            cpu_faults: 3,
            gpu_faults: 41,
            migrations_h2d: 17,
            migrations_d2h: 2,
            bytes_migrated: 19 << 16,
            duplications: 5,
            invalidations: 1,
            evictions: 0,
            bytes_evicted: 0,
            remote_accesses: 9,
            memcpy_h2d: 2,
            memcpy_d2h: 1,
            memcpy_bytes: 3 << 20,
            kernel_launches: 7,
            cpu_reads: 100,
            cpu_writes: 50,
            gpu_reads: 800,
            gpu_writes: 400,
            allocs: 4,
            frees: 4,
        }
    }

    #[test]
    fn stats_roundtrip_through_json_text() {
        let s = sample_stats();
        let doc = stats_json(&s);
        let back = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("cpu_faults").unwrap().as_u64(), Some(s.cpu_faults));
    }

    #[test]
    fn stats_json_includes_derived_totals() {
        let j = stats_json(&sample_stats());
        assert_eq!(j.get("total_faults").unwrap().as_u64(), Some(44));
        assert_eq!(j.get("total_migrations").unwrap().as_u64(), Some(19));
        assert_eq!(j.get("total_accesses").unwrap().as_u64(), Some(1350));
    }

    #[test]
    fn full_report_structure() {
        let s = sample_stats();
        let j = metrics_report("lulesh", "intel_pascal", 1.25e9, &s, &[], None, None);
        let text = j.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        assert_eq!(back.get("workload").unwrap().as_str(), Some("lulesh"));
        assert_eq!(back.get("elapsed_ns").unwrap().as_f64(), Some(1.25e9));
        assert!(back.get("report").is_none(), "no report layer requested");
        assert_eq!(
            back.get("stats"),
            Some(&stats_json(&s)),
            "counters in the document equal the in-memory stats"
        );
    }

    #[test]
    fn event_log_digest_counts_by_kind() {
        use hetsim::{AttrCtx, Event, MemHook, TimedEvent};
        let mut log = EventLog::new();
        for i in 0..3 {
            MemHook::on_event(
                &mut log,
                &TimedEvent {
                    t_ns: i as f64,
                    cost_ns: 0.0,
                    ctx: AttrCtx::host().into(),
                    event: Event::Free { base: 0x1000 },
                },
            );
        }
        let j = event_log_json(&log);
        assert_eq!(j.get("recorded").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("truncated").unwrap().as_bool(), Some(false));
        assert_eq!(
            j.get("by_kind").unwrap().get("free").unwrap().as_u64(),
            Some(3)
        );
    }
}
