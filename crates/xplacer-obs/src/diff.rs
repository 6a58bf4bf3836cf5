//! Differential trace analysis: align two runs (event traces or profile
//! reports) by stable keys and report what changed.
//!
//! The alignment keys survive placement changes: kernels align by name
//! (with launch counts compared, so a change in launch count is a
//! *changed* row, not a mis-pair), allocations by display label when the
//! allocation site is named (base addresses shift when allocation order
//! changes) with the hex base as fallback, and (kernel × allocation)
//! cells by the pair. Each aligned row carries absolute and relative
//! deltas on its primary time metric plus the counters that explain it
//! (faults, migrations, bytes moved), and a per-row verdict against the
//! same threshold as the run verdict.
//!
//! Inputs are checked by schema tag: two `xplacer-events/1` documents or
//! two `xplacer-profile/1` documents diff cleanly; anything else — or a
//! mixed pair — is refused by name rather than producing nonsense.

use std::collections::BTreeMap;

use crate::events::{events_from_json, EVENTS_SCHEMA};
use crate::json::Json;
use crate::profile::{ProfileReport, PROFILE_SCHEMA};

/// Schema tag of the diff JSON document.
pub const DIFF_SCHEMA: &str = "xplacer-diff/1";

/// Default relative-change threshold separating neutral from
/// improved/regressed (2%).
pub const DEFAULT_THRESHOLD: f64 = 0.02;

/// Comparison verdict for a row or a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Neutral,
}

impl Verdict {
    /// Classify a time delta: relative change beyond `threshold` of the
    /// baseline decides; a row appearing from nothing is a regression,
    /// one vanishing an improvement (subject to the absolute floor the
    /// caller's threshold implies on a zero baseline).
    fn of(a_ns: f64, b_ns: f64, threshold: f64) -> Verdict {
        let delta = b_ns - a_ns;
        if a_ns == 0.0 && b_ns == 0.0 {
            return Verdict::Neutral;
        }
        if a_ns == 0.0 {
            return Verdict::Regressed;
        }
        let rel = delta / a_ns;
        if rel > threshold {
            Verdict::Regressed
        } else if rel < -threshold {
            Verdict::Improved
        } else {
            Verdict::Neutral
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Neutral => "neutral",
        }
    }
}

/// The comparable metrics of one aligned row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RowMetrics {
    /// Primary time metric: total span time for kernels, attributed cost
    /// for allocations and cells.
    pub ns: f64,
    pub faults: u64,
    pub migrations: u64,
    pub bytes_moved: u64,
    /// Kernel launches (0 for allocation rows).
    pub launches: u64,
}

impl RowMetrics {
    fn is_same(&self, o: &RowMetrics) -> bool {
        self == o
    }
}

/// A digest of one run: everything the diff aligns on, extracted from
/// either an events document or a profile document.
#[derive(Debug, Clone)]
pub struct RunDigest {
    /// Where the digest came from (a path, for rendering).
    pub source: String,
    /// Schema tag of the input document.
    pub schema: String,
    pub workload: String,
    pub platform: String,
    pub elapsed_ns: f64,
    /// Kernel rows by name (includes the `<host>` pseudo-kernel).
    pub kernels: BTreeMap<String, RowMetrics>,
    /// Allocation rows by display label (named label, or hex base).
    pub allocs: BTreeMap<String, RowMetrics>,
    /// (kernel × allocation) cells by `"kernel|label"`.
    pub cells: BTreeMap<String, RowMetrics>,
}

fn digest_of_profile(p: &ProfileReport, source: &str, schema: &str) -> RunDigest {
    let mut kernels = BTreeMap::new();
    for k in &p.kernels {
        kernels.insert(
            k.name.clone(),
            RowMetrics {
                ns: k.total_ns,
                faults: k.costs.faults,
                migrations: k.costs.migrations,
                bytes_moved: k.costs.bytes_moved(),
                launches: k.launches,
            },
        );
    }
    let mut allocs = BTreeMap::new();
    for a in &p.allocs {
        allocs.insert(
            a.label.clone(),
            RowMetrics {
                ns: a.costs.cost_ns,
                faults: a.costs.faults,
                migrations: a.costs.migrations,
                bytes_moved: a.costs.bytes_moved(),
                launches: 0,
            },
        );
    }
    let mut cells = BTreeMap::new();
    for c in &p.cells {
        cells.insert(
            format!("{}|{}", c.kernel, c.label),
            RowMetrics {
                ns: c.costs.cost_ns,
                faults: c.costs.faults,
                migrations: c.costs.migrations,
                bytes_moved: c.costs.bytes_moved(),
                launches: 0,
            },
        );
    }
    RunDigest {
        source: source.to_string(),
        schema: schema.to_string(),
        workload: p.workload.clone(),
        platform: p.platform.clone(),
        elapsed_ns: p.elapsed_ns,
        kernels,
        allocs,
        cells,
    }
}

impl RunDigest {
    /// Digest an in-memory profile report directly, without a JSON
    /// round-trip — the evidence column of the optimizer's report.
    pub fn from_profile(p: &ProfileReport, source: &str) -> RunDigest {
        digest_of_profile(p, source, PROFILE_SCHEMA)
    }

    /// Digest a parsed JSON document, dispatching on its `schema` field.
    /// Events documents are folded through [`ProfileReport::from_trace`];
    /// profile documents are read directly. Unknown or missing schemas
    /// are refused by name.
    pub fn from_json(doc: &Json, source: &str) -> Result<RunDigest, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(EVENTS_SCHEMA) => {
                let trace = events_from_json(doc).map_err(|e| format!("{source}: {e}"))?;
                let p = ProfileReport::from_trace(&trace);
                Ok(digest_of_profile(&p, source, EVENTS_SCHEMA))
            }
            Some(PROFILE_SCHEMA) => Self::from_profile_json(doc, source),
            Some(other) => Err(format!(
                "{source}: cannot diff `{other}` documents (expected {EVENTS_SCHEMA} or {PROFILE_SCHEMA})"
            )),
            None => Err(format!("{source}: document has no `schema` field")),
        }
    }

    /// Read the digest rows out of an `xplacer-profile/1` document.
    fn from_profile_json(doc: &Json, source: &str) -> Result<RunDigest, String> {
        let text = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{source}: missing `{k}`"))
        };
        let costs_metrics = |j: &Json| -> RowMetrics {
            let c = j.get("costs");
            let num = |k: &str| {
                c.and_then(|c| c.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let cnt = |k: &str| c.and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap_or(0);
            RowMetrics {
                ns: num("cost_ns"),
                faults: cnt("faults"),
                migrations: cnt("migrations"),
                bytes_moved: cnt("bytes_migrated") + cnt("memcpy_bytes"),
                launches: 0,
            }
        };
        let mut kernels = BTreeMap::new();
        for k in doc.get("kernels").and_then(Json::as_arr).unwrap_or(&[]) {
            let mut m = costs_metrics(k);
            m.ns = k.get("total_ns").and_then(Json::as_f64).unwrap_or(m.ns);
            m.launches = k.get("launches").and_then(Json::as_u64).unwrap_or(0);
            kernels.insert(text(k, "name")?, m);
        }
        let mut allocs = BTreeMap::new();
        for a in doc.get("hot_allocs").and_then(Json::as_arr).unwrap_or(&[]) {
            allocs.insert(text(a, "label")?, costs_metrics(a));
        }
        let mut cells = BTreeMap::new();
        for c in doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
            let key = format!("{}|{}", text(c, "kernel")?, text(c, "alloc")?);
            cells.insert(key, costs_metrics(c));
        }
        Ok(RunDigest {
            source: source.to_string(),
            schema: PROFILE_SCHEMA.to_string(),
            workload: text(doc, "workload")?,
            platform: text(doc, "platform")?,
            elapsed_ns: doc.get("elapsed_ns").and_then(Json::as_f64).unwrap_or(0.0),
            kernels,
            allocs,
            cells,
        })
    }
}

/// One aligned row of the diff.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Section: `"kernel"`, `"alloc"`, or `"cell"`.
    pub section: &'static str,
    /// Alignment key within the section.
    pub key: String,
    /// `None` on the side the row is absent from.
    pub a: Option<RowMetrics>,
    pub b: Option<RowMetrics>,
    pub verdict: Verdict,
}

impl DiffRow {
    pub fn a_ns(&self) -> f64 {
        self.a.map(|m| m.ns).unwrap_or(0.0)
    }
    pub fn b_ns(&self) -> f64 {
        self.b.map(|m| m.ns).unwrap_or(0.0)
    }
    pub fn delta_ns(&self) -> f64 {
        self.b_ns() - self.a_ns()
    }
    pub fn status(&self) -> &'static str {
        match (&self.a, &self.b) {
            (None, Some(_)) => "added",
            (Some(_), None) => "removed",
            _ => "changed",
        }
    }
}

/// The full comparison of two runs.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    pub a: RunDigest,
    pub b: RunDigest,
    pub threshold: f64,
    /// Run-level verdict, decided by elapsed time.
    pub verdict: Verdict,
    /// Added/removed/changed rows across all sections (rows whose metrics
    /// are identical on both sides are counted in `unchanged`, not
    /// listed).
    pub rows: Vec<DiffRow>,
    pub unchanged: usize,
}

fn align(
    section: &'static str,
    a: &BTreeMap<String, RowMetrics>,
    b: &BTreeMap<String, RowMetrics>,
    threshold: f64,
    rows: &mut Vec<DiffRow>,
    unchanged: &mut usize,
) {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for k in keys {
        let (ma, mb) = (a.get(k).copied(), b.get(k).copied());
        if let (Some(x), Some(y)) = (ma, mb) {
            if x.is_same(&y) {
                *unchanged += 1;
                continue;
            }
        }
        let verdict = Verdict::of(
            ma.map(|m| m.ns).unwrap_or(0.0),
            mb.map(|m| m.ns).unwrap_or(0.0),
            threshold,
        );
        rows.push(DiffRow {
            section,
            key: k.clone(),
            a: ma,
            b: mb,
            verdict,
        });
    }
}

/// Compare two digests. Refuses mismatched input schemas (an events trace
/// diffed against a profile report would silently compare different cost
/// definitions).
pub fn diff(a: RunDigest, b: RunDigest, threshold: f64) -> Result<TraceDiff, String> {
    if a.schema != b.schema {
        return Err(format!(
            "refusing to diff mismatched inputs: {} is {} but {} is {}",
            a.source, a.schema, b.source, b.schema
        ));
    }
    let verdict = Verdict::of(a.elapsed_ns, b.elapsed_ns, threshold);
    let mut rows = Vec::new();
    let mut unchanged = 0usize;
    align(
        "kernel",
        &a.kernels,
        &b.kernels,
        threshold,
        &mut rows,
        &mut unchanged,
    );
    align(
        "alloc",
        &a.allocs,
        &b.allocs,
        threshold,
        &mut rows,
        &mut unchanged,
    );
    align(
        "cell",
        &a.cells,
        &b.cells,
        threshold,
        &mut rows,
        &mut unchanged,
    );
    // Biggest movement first; key order breaks ties deterministically.
    rows.sort_by(|x, y| {
        y.delta_ns()
            .abs()
            .total_cmp(&x.delta_ns().abs())
            .then_with(|| x.section.cmp(y.section))
            .then_with(|| x.key.cmp(&y.key))
    });
    Ok(TraceDiff {
        a,
        b,
        threshold,
        verdict,
        rows,
        unchanged,
    })
}

impl TraceDiff {
    /// True when the run-level verdict is a regression — the CI-gate
    /// signal behind `xplacer diff`'s nonzero exit.
    pub fn regressed(&self) -> bool {
        self.verdict == Verdict::Regressed
    }

    /// True when nothing moved at all (self-diff): elapsed equal bit-for-
    /// bit and every aligned row identical.
    pub fn is_zero(&self) -> bool {
        self.rows.is_empty() && self.a.elapsed_ns == self.b.elapsed_ns
    }

    /// Human-readable report; `top` bounds the "what changed" listing.
    pub fn render(&self, top: usize) -> String {
        let ms = |v: f64| v / 1e6;
        let pct = |a: f64, d: f64| {
            if a == 0.0 {
                "   new".to_string()
            } else {
                format!("{:+6.1}%", d / a * 100.0)
            }
        };
        let mut s = String::new();
        s.push_str(&format!(
            "==== xplacer diff: {} -> {} ====\n",
            self.a.source, self.b.source
        ));
        s.push_str(&format!(
            "workload: {} -> {}   platform: {} -> {}\n",
            self.a.workload, self.b.workload, self.a.platform, self.b.platform
        ));
        let d = self.b.elapsed_ns - self.a.elapsed_ns;
        s.push_str(&format!(
            "elapsed: {:.3} ms -> {:.3} ms   delta {:+.3} ms ({})   verdict: {} (threshold {:.1}%)\n",
            ms(self.a.elapsed_ns),
            ms(self.b.elapsed_ns),
            ms(d),
            pct(self.a.elapsed_ns, d).trim_start(),
            self.verdict.as_str(),
            self.threshold * 100.0
        ));
        let (added, removed, changed) = self.counts();
        s.push_str(&format!(
            "rows: {added} added, {removed} removed, {changed} changed, {} unchanged\n",
            self.unchanged
        ));
        if self.rows.is_empty() {
            s.push_str("\nno differences: the runs are identical at every aligned row.\n");
            return s;
        }
        s.push_str(&format!(
            "\ntop {} changes by |delta|:\n",
            top.min(self.rows.len())
        ));
        s.push_str(&format!(
            "  {:<7} {:<8} {:<34} {:>11} {:>11} {:>11} {:>8} {:>10}\n",
            "section", "status", "key", "a ms", "b ms", "delta ms", "rel", "verdict"
        ));
        for r in self.rows.iter().take(top) {
            s.push_str(&format!(
                "  {:<7} {:<8} {:<34} {:>11.3} {:>11.3} {:>+11.3} {:>8} {:>10}\n",
                r.section,
                r.status(),
                r.key,
                ms(r.a_ns()),
                ms(r.b_ns()),
                ms(r.delta_ns()),
                pct(r.a_ns(), r.delta_ns()).trim_start(),
                r.verdict.as_str()
            ));
        }
        if self.rows.len() > top {
            s.push_str(&format!("  ... {} more rows\n", self.rows.len() - top));
        }
        s
    }

    fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.rows {
            match r.status() {
                "added" => c.0 += 1,
                "removed" => c.1 += 1,
                _ => c.2 += 1,
            }
        }
        c
    }

    /// JSON document (schema [`DIFF_SCHEMA`]).
    pub fn to_json(&self, top: usize) -> Json {
        fn metrics_json(m: &RowMetrics) -> Json {
            let mut j = Json::obj();
            j.set("ns", Json::Num(m.ns))
                .set("faults", m.faults.into())
                .set("migrations", m.migrations.into())
                .set("bytes_moved", m.bytes_moved.into())
                .set("launches", m.launches.into());
            j
        }
        let side = |d: &RunDigest| {
            let mut j = Json::obj();
            j.set("source", d.source.as_str().into())
                .set("schema", d.schema.as_str().into())
                .set("workload", d.workload.as_str().into())
                .set("platform", d.platform.as_str().into())
                .set("elapsed_ns", Json::Num(d.elapsed_ns));
            j
        };
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut j = Json::obj();
                j.set("section", r.section.into())
                    .set("status", r.status().into())
                    .set("key", r.key.as_str().into());
                if let Some(m) = &r.a {
                    j.set("a", metrics_json(m));
                }
                if let Some(m) = &r.b {
                    j.set("b", metrics_json(m));
                }
                j.set("delta_ns", Json::Num(r.delta_ns()))
                    .set("verdict", r.verdict.as_str().into());
                j
            })
            .collect();
        let (added, removed, changed) = self.counts();
        let mut totals = Json::obj();
        totals
            .set("added", (added as u64).into())
            .set("removed", (removed as u64).into())
            .set("changed", (changed as u64).into())
            .set("unchanged", (self.unchanged as u64).into());
        let top_changes = self
            .rows
            .iter()
            .take(top)
            .map(|r| {
                let mut j = Json::obj();
                j.set("section", r.section.into())
                    .set("key", r.key.as_str().into())
                    .set("delta_ns", Json::Num(r.delta_ns()));
                j
            })
            .collect();
        let mut j = Json::obj();
        j.set("schema", DIFF_SCHEMA.into())
            .set("threshold", Json::Num(self.threshold))
            .set("verdict", self.verdict.as_str().into())
            .set("a", side(&self.a))
            .set("b", side(&self.b))
            .set(
                "elapsed_delta_ns",
                Json::Num(self.b.elapsed_ns - self.a.elapsed_ns),
            )
            .set("totals", totals)
            .set("top_changes", Json::Arr(top_changes))
            .set("rows", Json::Arr(rows));
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(elapsed: f64, kernel_ns: f64) -> RunDigest {
        let mut kernels = BTreeMap::new();
        kernels.insert(
            "k".to_string(),
            RowMetrics {
                ns: kernel_ns,
                faults: 3,
                migrations: 2,
                bytes_moved: 1024,
                launches: 1,
            },
        );
        RunDigest {
            source: "x.json".into(),
            schema: EVENTS_SCHEMA.into(),
            workload: "w".into(),
            platform: "p".into(),
            elapsed_ns: elapsed,
            kernels,
            allocs: BTreeMap::new(),
            cells: BTreeMap::new(),
        }
    }

    #[test]
    fn self_diff_is_zero_and_not_regressed() {
        let d = diff(digest(1000.0, 400.0), digest(1000.0, 400.0), 0.02).unwrap();
        assert!(d.is_zero());
        assert!(!d.regressed());
        assert_eq!(d.unchanged, 1);
        assert!(d.render(5).contains("no differences"));
    }

    #[test]
    fn slowdown_beyond_threshold_regresses() {
        let d = diff(digest(1000.0, 400.0), digest(1100.0, 500.0), 0.02).unwrap();
        assert!(d.regressed());
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0].status(), "changed");
        assert_eq!(d.rows[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn speedup_beyond_threshold_improves() {
        let d = diff(digest(1000.0, 400.0), digest(900.0, 300.0), 0.02).unwrap();
        assert_eq!(d.verdict, Verdict::Improved);
        assert!(!d.regressed());
    }

    #[test]
    fn small_drift_within_threshold_is_neutral() {
        let d = diff(digest(1000.0, 400.0), digest(1010.0, 400.0), 0.02).unwrap();
        assert_eq!(d.verdict, Verdict::Neutral);
    }

    #[test]
    fn added_and_removed_rows_are_reported() {
        let mut b = digest(1000.0, 400.0);
        b.kernels.remove("k");
        b.kernels.insert(
            "k2".to_string(),
            RowMetrics {
                ns: 400.0,
                ..RowMetrics::default()
            },
        );
        let d = diff(digest(1000.0, 400.0), b, 0.02).unwrap();
        let (added, removed, _) = d.counts();
        assert_eq!((added, removed), (1, 1));
        let add = d.rows.iter().find(|r| r.status() == "added").unwrap();
        assert_eq!(add.key, "k2");
        assert_eq!(add.verdict, Verdict::Regressed, "new cost is a regression");
    }

    #[test]
    fn mismatched_schemas_are_refused() {
        let mut b = digest(1000.0, 400.0);
        b.schema = PROFILE_SCHEMA.into();
        let err = diff(digest(1000.0, 400.0), b, 0.02).unwrap_err();
        assert!(err.contains("mismatched"), "{err}");
    }

    #[test]
    fn unknown_schema_documents_are_refused_by_name() {
        let mut j = Json::obj();
        j.set("schema", "xplacer-metrics/2".into());
        let err = RunDigest::from_json(&j, "m.json").unwrap_err();
        assert!(err.contains("xplacer-metrics/2"), "{err}");
    }
}
