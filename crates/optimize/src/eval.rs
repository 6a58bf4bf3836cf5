//! Candidate evaluation: run a target under a [`Plan`] on a fresh
//! deterministic [`Machine`] and summarize the result.
//!
//! Every evaluation produces two things:
//!
//! * a *cost view* — simulated time, counters, and a [`RunDigest`] of the
//!   attributed profile (the evidence column of the optimizer report);
//! * a *results view* — a [`ResultsFingerprint`] hashing everything the
//!   program can observe (checksums / exit code / stdout, plus the final
//!   bytes of every traced allocation). Placement hints must never change
//!   the results view; the search rejects any candidate whose fingerprint
//!   differs from the baseline's.
//!
//! A MiniCU program is parsed once per search ([`parse_program`]); each
//! evaluation rewrites that AST and runs it once, instrumented.
//!
//! The machine is *not* `Send`, so evaluations never share one: each call
//! builds its own machine from the (Send + Sync) [`Platform`], which is
//! what lets the worker pool in `xplacer_core::par` parallelize safely.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hetsim::{AllocKind, EventLog, Machine, Platform, Stats, DEFAULT_STREAM};
use xplacer_core::{enumerate_candidates, Plan, PlanAction, PlanItem};
use xplacer_instrument::placement::{
    alloc_sites, apply_plan, AllocSite, SiteKind, SitePlan, SPLIT_SUFFIX,
};
use xplacer_interp::run_program_on;
use xplacer_lang::ast::{Func, Item, Program, Stmt, XplPragma};
use xplacer_obs::{ProfileReport, RunDigest};

/// Event-ring capacity for optimizer evaluations. Smaller than the CLI
/// profiler's ring: candidates only need enough attribution for the
/// evidence diff, and every worker owns one.
const OPT_RING_CAPACITY: usize = 1 << 20;

/// Everything the program can observe about its own execution. Two runs
/// with equal fingerprints computed the same results; placement hints may
/// only change *when pages move*, never this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsFingerprint {
    /// Workloads: the self-check value. Programs: exit code and a hash
    /// of the stdout of the evaluation's one instrumented run. With the
    /// diagnostic pragmas stripped, that is what the program prints; a
    /// source that calls `tracePrint` directly adds its diagnostics, which
    /// can only reject a candidate, never accept one.
    pub check: String,
    /// Final memory contents per traced allocation: `hash/size`, or
    /// `"freed"` for allocations released before the end of the run.
    pub mem: BTreeMap<String, String>,
}

/// The outcome of evaluating one plan.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Simulated wall time of the run.
    pub simulated_ns: f64,
    /// Simulator counters (faults, migrations, traffic).
    pub stats: Stats,
    /// Profile digest, diffable against the baseline's for evidence.
    pub digest: RunDigest,
    /// The results view; must equal the baseline's.
    pub fingerprint: ResultsFingerprint,
}

/// The searchable candidate space, derived from the baseline trace.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// Single-action candidates the search combines into plans.
    pub items: Vec<PlanItem>,
    /// Enumerated candidates dropped because the target cannot apply
    /// them (e.g. `Split` without a rewritable source, or an allocation
    /// that maps to no unconditional source site).
    pub skipped: usize,
    /// For program targets: allocation base → allocation-site index in
    /// `main`, used to turn trace-level plans into source rewrites.
    pub site_of_base: BTreeMap<u64, usize>,
}

/// FNV-1a, the repo's stock dependency-free hash.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Apply a plan's actions to a live machine (workload path). `Split`
/// cannot be expressed as runtime hints — the caller filters it out of
/// workload candidate sets, so hitting one here is an error.
fn apply_plan_to_machine(m: &mut Machine, plan: &Plan) -> Result<(), String> {
    for item in plan.items() {
        match item.action {
            PlanAction::Advise(a) => m
                .try_mem_advise(item.base, item.size, a)
                .map_err(|e| format!("{item}: {e}"))?,
            PlanAction::Prefetch(d) => {
                m.try_mem_prefetch(item.base, item.size, d, DEFAULT_STREAM)
                    .map_err(|e| format!("{item}: {e}"))?;
                m.sync_stream(DEFAULT_STREAM);
            }
            PlanAction::Split => {
                return Err(format!(
                    "{item}: split object requires a source rewrite; \
                     it does not apply to built-in workloads"
                ))
            }
        }
    }
    Ok(())
}

fn hash_alloc(m: &mut Machine, base: u64, size: u64) -> Result<String, String> {
    let mut buf = vec![0u8; size as usize];
    m.peek_bytes(base, &mut buf)
        .map_err(|e| format!("0x{base:x}: {e}"))?;
    Ok(format!("{:016x}/{size}", fnv64(&buf)))
}

/// Evaluate `plan` against a built-in workload. When `want_candidates`
/// is set (the baseline run) the end-of-run shadow state is enumerated
/// into a [`CandidateSet`] with `Split` filtered out.
pub fn eval_workload(
    which: &str,
    pf: &Platform,
    plan: &Plan,
    want_candidates: bool,
) -> Result<(EvalOutcome, Option<CandidateSet>), String> {
    let mut m = Machine::new(pf.clone());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::with_capacity(OPT_RING_CAPACITY)));
    m.add_hook(log.clone());

    let mut apply_err: Option<String> = None;
    let (check, names) = xplacer_workloads::run_workload(&mut m, which, |m, names| {
        xplacer_workloads::register_names(&tracer, names);
        if let Err(e) = apply_plan_to_machine(m, plan) {
            apply_err.get_or_insert(e);
        }
    })?;
    if let Some(e) = apply_err {
        return Err(e);
    }

    let elapsed = m.elapsed_ns();
    let stats = m.stats.clone();

    let mut mem = BTreeMap::new();
    for (addr, name) in &names {
        let (base, size) = {
            let a = m.find_alloc(*addr).map_err(|e| format!("{name}: {e}"))?;
            (a.base, a.size)
        };
        mem.insert(name.clone(), hash_alloc(&mut m, base, size)?);
    }
    let fingerprint = ResultsFingerprint {
        check: format!("check={:016x}", check.to_bits()),
        mem,
    };

    let profile = ProfileReport::build(which, pf.name, elapsed, &log.borrow(), &names);
    let digest = RunDigest::from_profile(
        &profile,
        if plan.is_empty() {
            "baseline"
        } else {
            "candidate"
        },
    );

    let candidates = want_candidates.then(|| {
        let all = enumerate_candidates(&tracer.borrow().smt, pf);
        let total = all.len();
        let items: Vec<PlanItem> = all
            .into_iter()
            .filter(|c| c.action != PlanAction::Split)
            .collect();
        CandidateSet {
            skipped: total - items.len(),
            items,
            site_of_base: BTreeMap::new(),
        }
    });

    Ok((
        EvalOutcome {
            simulated_ns: elapsed,
            stats,
            digest,
            fingerprint,
        },
        candidates,
    ))
}

/// Parse a MiniCU target for the search and strip its diagnostic
/// pragmas; a syntax error names the target.
pub fn parse_program(name: &str, src: &str) -> Result<Program, String> {
    let mut prog = xplacer_lang::parser::parse(src).map_err(|e| format!("{name}: {e}"))?;
    strip_diagnostics(&mut prog);
    Ok(prog)
}

/// Remove `#pragma xpl diagnostic ...` statements from every function
/// body. A diagnostic point calls `Tracer::end_epoch`, which zeroes the
/// shadow state the candidate enumeration reads — a program that ends
/// with a `tracePrint` (most instrumented sources do) would otherwise
/// present an empty access profile and yield no candidates. The optimizer
/// wants the whole-run profile, so it evaluates a pragma-free variant.
/// Without the pragmas the instrumented run prints no diagnostics, so its
/// stdout is what the program prints. Removing pragma statements never
/// removes or reorders allocation statements, so allocation-site indices
/// are those of the source.
fn strip_diagnostics(prog: &mut Program) {
    fn strip(stmts: &mut Vec<Stmt>) {
        stmts.retain_mut(|s| {
            match s {
                Stmt::Pragma(XplPragma::Diagnostic { .. }) => return false,
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    strip(then_branch);
                    strip(else_branch);
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Block(body) => {
                    strip(body)
                }
                _ => {}
            }
            true
        });
    }
    for item in &mut prog.items {
        if let Item::Func(Func {
            body: Some(body), ..
        }) = item
        {
            strip(body);
        }
    }
}

/// Map an smt serial to its source-site variable name, validating that
/// the site's allocation form matches what the trace recorded. A `None`
/// means the program uses an allocation form the site scanner does not
/// model, and serial/site alignment cannot be trusted for this entry.
fn site_var(sites: &[AllocSite], serial: u64, kind: AllocKind) -> Option<&str> {
    let s = sites.get(serial as usize)?;
    let aligned = matches!(
        (s.kind, kind),
        (SiteKind::Managed, AllocKind::Managed)
            | (SiteKind::Device, AllocKind::Device(_))
            | (SiteKind::Host, AllocKind::Host)
    );
    aligned.then_some(s.var.as_str())
}

/// Evaluate `plan` against a MiniCU program from [`parse_program`]:
/// rewrite its AST (advise/prefetch injection, split-object
/// duplication), then instrument and run the rewrite once. That run
/// gives the trace, shadow state and profile, and the exit code and
/// stdout the fingerprint hashes.
pub fn eval_program(
    name: &str,
    prog: &Program,
    pf: &Platform,
    plan: &Plan,
    site_of_base: &BTreeMap<u64, usize>,
    want_candidates: bool,
) -> Result<(EvalOutcome, Option<CandidateSet>), String> {
    let site_plans: Vec<SitePlan> = plan
        .items()
        .iter()
        .map(|it| {
            let site = *site_of_base
                .get(&it.base)
                .ok_or_else(|| format!("{it}: allocation maps to no source site"))?;
            Ok(SitePlan {
                site,
                action: it.action,
                size: it.size,
            })
        })
        .collect::<Result<_, String>>()?;
    let rewritten = apply_plan(prog, &site_plans)?;
    let sites = alloc_sites(&rewritten);

    let log = Rc::new(RefCell::new(EventLog::with_capacity(OPT_RING_CAPACITY)));
    let mut machine = Machine::new(pf.clone());
    machine.add_hook(log.clone());
    // A failing baseline reads as `xplacer run` would report it; a
    // failing candidate names its plan in the report row.
    let (out, mut interp) = run_program_on(rewritten, machine, true).map_err(|e| {
        if plan.is_empty() {
            e.to_string()
        } else {
            format!("plan `{}`: {e}", plan.describe())
        }
    })?;

    let entries: Vec<(u64, u64, u64, AllocKind, bool)> = interp
        .tracer
        .smt
        .iter()
        .map(|e| (e.serial, e.base, e.size, e.kind, e.live))
        .collect();

    // Label every traced allocation with its source variable name. With
    // diagnostics stripped, `tracePrint` never runs to register names, and
    // the source is a better authority anyway: candidate items and profile
    // rows read `data: advise ...` instead of a bare address.
    for &(serial, base, _, kind, _) in &entries {
        if let Some(v) = site_var(&sites, serial, kind) {
            let v = v.to_string();
            interp.tracer.smt.set_label(base, &v);
        }
    }

    let mut mem = BTreeMap::new();
    for &(serial, base, size, kind, live) in &entries {
        let key = match site_var(&sites, serial, kind) {
            // The staging twins our own rewrite introduces are scratch
            // space, not program results.
            Some(v) if v.ends_with(SPLIT_SUFFIX) => continue,
            Some(v) => v.to_string(),
            // Unmodeled allocation form: fall back to the serial. Stable
            // across runs of the same source; a rewrite that inserts
            // allocations shifts it, which the fingerprint comparison
            // then reports as a mismatch — failing closed.
            None => format!("#{serial}"),
        };
        let val = if live {
            hash_alloc(&mut interp.machine, base, size)?
        } else {
            "freed".to_string()
        };
        mem.insert(key, val);
    }
    let fingerprint = ResultsFingerprint {
        check: format!(
            "exit={} stdout={:016x}",
            out.exit,
            fnv64(out.stdout.as_bytes())
        ),
        mem,
    };

    let profile_names: Vec<(u64, String)> = xplacer_core::summarize(&interp.tracer.smt, false)
        .into_iter()
        .map(|s| (s.base, s.name))
        .collect();
    let profile =
        ProfileReport::build(name, pf.name, out.elapsed_ns, &log.borrow(), &profile_names);
    let digest = RunDigest::from_profile(
        &profile,
        if plan.is_empty() {
            "baseline"
        } else {
            "candidate"
        },
    );

    let candidates = if want_candidates {
        let all = enumerate_candidates(&interp.tracer.smt, pf);
        let total = all.len();
        let mut site_of = BTreeMap::new();
        let mut items = Vec::new();
        for c in all {
            // Resolve the candidate's allocation to an unconditional
            // managed site in `main`; candidates we cannot place in the
            // source are skipped, never mis-mapped.
            let serial = entries
                .iter()
                .find(|&&(_, base, ..)| base == c.base)
                .map(|&(serial, ..)| serial);
            let site = serial.and_then(|s| {
                let var = site_var(&sites, s, AllocKind::Managed)?;
                let idx = s as usize;
                (!sites[idx].conditional && !var.ends_with(SPLIT_SUFFIX)).then_some(idx)
            });
            if let Some(idx) = site {
                site_of.insert(c.base, idx);
                items.push(c);
            }
        }
        Some(CandidateSet {
            skipped: total - items.len(),
            items,
            site_of_base: site_of,
        })
    } else {
        None
    };

    Ok((
        EvalOutcome {
            simulated_ns: out.elapsed_ns,
            stats: out.stats,
            digest,
            fingerprint,
        },
        candidates,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::platform;

    const PROG: &str = r#"
        int main() {
            double* a;
            cudaMallocManaged((void**)&a, 4096);
            for (int i = 0; i < 512; i = i + 1) { a[i] = 1.0; }
            kernel<<<1, 64>>>(a);
            double acc = 0.0;
            for (int i = 0; i < 512; i = i + 1) { acc = acc + a[i]; }
            printf("%f\n", acc);
            return 0;
        }
        __global__ void kernel(double* a) {
            int i = threadIdx.x;
            a[i] = a[i] + 1.0;
        }
    "#;

    #[test]
    fn baseline_workload_eval_enumerates_candidates() {
        let pf = platform::intel_pascal();
        let (out, cands) = eval_workload("lulesh", &pf, &Plan::empty(), true).unwrap();
        let cands = cands.unwrap();
        assert!(out.simulated_ns > 0.0);
        assert!(!cands.items.is_empty(), "lulesh should yield candidates");
        assert!(
            cands.items.iter().all(|c| c.action != PlanAction::Split),
            "workload candidates must not contain Split"
        );
        assert!(!out.fingerprint.mem.is_empty());
    }

    #[test]
    fn workload_advice_changes_cost_but_not_results() {
        let pf = platform::intel_pascal();
        let (base, cands) = eval_workload("lulesh", &pf, &Plan::empty(), true).unwrap();
        let cands = cands.unwrap();
        let first = cands.items.first().expect("lulesh yields candidates");
        let plan = Plan::empty().with(first.clone());
        let (hinted, _) = eval_workload("lulesh", &pf, &plan, false).unwrap();
        assert_eq!(base.fingerprint, hinted.fingerprint);
    }

    #[test]
    fn program_eval_roundtrips_and_split_preserves_results() {
        let pf = platform::intel_pascal();
        let prog = parse_program("toy", PROG).unwrap();
        let (base, cands) =
            eval_program("toy", &prog, &pf, &Plan::empty(), &BTreeMap::new(), true).unwrap();
        let cands = cands.unwrap();
        assert!(
            !cands.items.is_empty(),
            "toy program should yield candidates"
        );
        for c in &cands.items {
            let plan = Plan::empty().with(c.clone());
            let (out, _) =
                eval_program("toy", &prog, &pf, &plan, &cands.site_of_base, false).unwrap();
            assert_eq!(
                base.fingerprint,
                out.fingerprint,
                "candidate `{}` changed program results",
                plan.describe()
            );
        }
    }
}
