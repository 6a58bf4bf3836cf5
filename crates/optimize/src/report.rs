//! The optimizer's output: a byte-deterministic report.
//!
//! Nothing in the rendered text or the JSON document depends on wall
//! clock, worker count, or host state — only on the target, the platform
//! model, and the search knobs. That is what lets CI `cmp` two reports
//! produced with different `--jobs` values, and golden-file the whole
//! thing.

use hetsim::Stats;
use xplacer_obs::diff::DEFAULT_THRESHOLD;
use xplacer_obs::{diff, Json};

use crate::eval::EvalOutcome;
use crate::search::SearchResult;

/// Schema tag of the JSON form.
pub const OPTIMIZE_SCHEMA: &str = "xplacer-optimize/1";

/// One evaluated plan as it appears in the report.
#[derive(Debug)]
pub struct ReportRow {
    pub round: usize,
    pub plan_key: String,
    pub plan: String,
    /// `Some` when the plan ran to completion with unchanged results.
    pub simulated_ns: Option<f64>,
    /// Simulated-time delta vs. baseline (negative is faster).
    pub delta_ns: Option<f64>,
    /// Profile-diff evidence vs. the baseline, or the rejection reason.
    pub evidence: String,
}

/// The full report.
#[derive(Debug)]
pub struct OptimizeReport {
    pub workload: String,
    pub platform: String,
    pub beam: usize,
    pub max_rounds: usize,
    pub smoke: bool,
    /// Candidate actions enumerated from the baseline trace.
    pub candidates: usize,
    /// Enumerated candidates the target could not apply.
    pub skipped_candidates: usize,
    pub baseline_ns: f64,
    pub baseline_faults: u64,
    pub baseline_migrations: u64,
    pub rounds_run: usize,
    pub rows: Vec<ReportRow>,
    /// Winning plan, one item per line ("name: action — rationale").
    pub winner_items: Vec<String>,
    pub winner_key: String,
    pub winner: String,
    pub winner_ns: f64,
    /// The winning run's machine counters.
    pub winner_stats: Stats,
}

/// Summarize a profile diff into one evidence cell.
fn evidence_of(baseline: &EvalOutcome, cand: &EvalOutcome) -> String {
    let mut a = baseline.digest.clone();
    let mut b = cand.digest.clone();
    a.source = "baseline".to_string();
    b.source = "candidate".to_string();
    match diff(a, b, DEFAULT_THRESHOLD) {
        Ok(d) => {
            let mut s = format!(
                "{}; {} rows changed, {} same",
                d.verdict.as_str(),
                d.rows.len(),
                d.unchanged
            );
            if let Some(top) = d.rows.first() {
                s.push_str(&format!(
                    "; top {} `{}` {}{:.0} ns",
                    top.section,
                    top.key,
                    if top.delta_ns() >= 0.0 { "+" } else { "" },
                    top.delta_ns()
                ));
            }
            s
        }
        Err(e) => format!("diff unavailable: {e}"),
    }
}

impl OptimizeReport {
    /// Assemble the report from a finished search.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        workload: &str,
        platform: &str,
        beam: usize,
        max_rounds: usize,
        smoke: bool,
        candidates: usize,
        skipped_candidates: usize,
        baseline: &EvalOutcome,
        search: SearchResult,
    ) -> OptimizeReport {
        let rows = search
            .evaluations
            .iter()
            .map(|e| match &e.result {
                Ok(o) => ReportRow {
                    round: e.round,
                    plan_key: e.plan.key(),
                    plan: e.plan.describe(),
                    simulated_ns: Some(o.simulated_ns),
                    delta_ns: Some(o.simulated_ns - baseline.simulated_ns),
                    evidence: evidence_of(baseline, o),
                },
                Err(why) => ReportRow {
                    round: e.round,
                    plan_key: e.plan.key(),
                    plan: e.plan.describe(),
                    simulated_ns: None,
                    delta_ns: None,
                    evidence: why.clone(),
                },
            })
            .collect();
        let winner_items = search
            .best_plan
            .items()
            .iter()
            .map(|i| format!("{i} — {}", i.rationale))
            .collect();
        OptimizeReport {
            workload: workload.to_string(),
            platform: platform.to_string(),
            beam,
            max_rounds,
            smoke,
            candidates,
            skipped_candidates,
            baseline_ns: baseline.simulated_ns,
            baseline_faults: baseline.stats.faults(),
            baseline_migrations: baseline.stats.migrations(),
            rounds_run: search.rounds_run,
            rows,
            winner_items,
            winner_key: search.best_plan.key(),
            winner: search.best_plan.describe(),
            winner_ns: search.best.simulated_ns,
            winner_stats: search.best.stats,
        }
    }

    /// Percentage improvement of the winner over the baseline (≥ 0 by
    /// the search's strict-improvement rule).
    pub fn improvement_pct(&self) -> f64 {
        if self.baseline_ns == 0.0 {
            return 0.0;
        }
        (self.baseline_ns - self.winner_ns) / self.baseline_ns * 100.0
    }

    /// Rendered table. Byte-deterministic.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== xplacer optimize: {} on {} ==",
            self.workload, self.platform
        );
        let _ = writeln!(
            s,
            "baseline: {:.0} ns simulated, {} faults, {} migrations",
            self.baseline_ns, self.baseline_faults, self.baseline_migrations,
        );
        let _ = writeln!(
            s,
            "search: {} candidate actions ({} skipped), beam {}, max rounds {}{}",
            self.candidates,
            self.skipped_candidates,
            self.beam,
            self.max_rounds,
            if self.smoke { ", smoke" } else { "" }
        );
        let _ = writeln!(
            s,
            "evaluated {} plans over {} rounds:",
            self.rows.len(),
            self.rounds_run
        );
        let _ = writeln!(
            s,
            "{:>5}  {:>14}  {:>12}  plan",
            "round", "simulated_ns", "delta_ns"
        );
        for r in &self.rows {
            match (r.simulated_ns, r.delta_ns) {
                (Some(ns), Some(d)) => {
                    let _ = writeln!(s, "{:>5}  {:>14.0}  {:>+12.0}  {}", r.round, ns, d, r.plan);
                    let _ = writeln!(s, "{:20} evidence: {}", "", r.evidence);
                }
                _ => {
                    let _ = writeln!(s, "{:>5}  {:>14}  {:>12}  {}", r.round, "-", "-", r.plan);
                    let _ = writeln!(s, "{:20} {}", "", r.evidence);
                }
            }
        }
        let _ = writeln!(s, "winner: {}", self.winner);
        let _ = writeln!(
            s,
            "  simulated_ns {:.0} (baseline {:.0}, -{:.2}%)",
            self.winner_ns,
            self.baseline_ns,
            self.improvement_pct()
        );
        for item in &self.winner_items {
            let _ = writeln!(s, "  - {item}");
        }
        if self.winner_items.is_empty() {
            let _ = writeln!(s, "  - no plan beat the baseline; leave placement alone");
        }
        s
    }

    /// JSON form (`xplacer-optimize/1`). Excludes worker count and wall
    /// clock by construction.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("schema", OPTIMIZE_SCHEMA.into())
            .set("workload", self.workload.as_str().into())
            .set("platform", self.platform.as_str().into())
            .set("beam", (self.beam as u64).into())
            .set("max_rounds", (self.max_rounds as u64).into())
            .set("smoke", Json::Bool(self.smoke))
            .set("candidates", (self.candidates as u64).into())
            .set(
                "skipped_candidates",
                (self.skipped_candidates as u64).into(),
            )
            .set("baseline_ns", Json::Num(self.baseline_ns))
            .set("rounds_run", (self.rounds_run as u64).into());
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                let mut o = Json::obj();
                o.set("round", (r.round as u64).into())
                    .set("plan", r.plan_key.as_str().into())
                    .set(
                        "simulated_ns",
                        r.simulated_ns.map(Json::Num).unwrap_or(Json::Null),
                    )
                    .set("delta_ns", r.delta_ns.map(Json::Num).unwrap_or(Json::Null))
                    .set("evidence", r.evidence.as_str().into());
                o
            })
            .collect();
        j.set("evaluations", Json::Arr(rows));
        let mut w = Json::obj();
        w.set("plan", self.winner_key.as_str().into())
            .set("simulated_ns", Json::Num(self.winner_ns))
            .set("improvement_pct", Json::Num(self.improvement_pct()))
            .set(
                "items",
                Json::Arr(
                    self.winner_items
                        .iter()
                        .map(|i| i.as_str().into())
                        .collect(),
                ),
            );
        j.set("winner", w);
        j
    }
}
