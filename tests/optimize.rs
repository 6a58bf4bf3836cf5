//! Closed-loop optimizer integration tests (DESIGN.md §17).
//!
//! Four contracts are pinned here:
//!
//! * **Determinism** — the full optimizer report (rendered text and JSON)
//!   is byte-identical for `--jobs 1/2/8` and across repeated runs, and
//!   matches the committed goldens under `tests/golden/` (lulesh, and two
//!   MiniCU programs through the full search).
//! * **Regression guard** — the winning plan for `lulesh` is never worse
//!   than the unhinted baseline, and with the current cost model it is
//!   strictly better.
//! * **Plan application is results-neutral** — applying any
//!   optimizer-enumerated plan (singly or combined) never changes what a
//!   target computes: workload self-checks and final memory bytes, and
//!   generated-program exit/stdout/memory, all match the un-advised run.
//! * **One run per evaluation is enough** — a program's fingerprint takes
//!   its exit code and stdout from the instrumented run the optimizer
//!   makes anyway; a plain, uninstrumented run of the source must agree.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hetsim::platform;
use proptest::{Strategy, TestRng};
use xplacer_conformance::generator::ArbProgram;
use xplacer_conformance::{conformance_cases, snapshot};
use xplacer_core::Plan;
use xplacer_interp::run_source;
use xplacer_lang::unparse::unparse;
use xplacer_optimize::eval::{eval_program, eval_workload, parse_program};
use xplacer_optimize::{optimize, EvalOutcome, OptimizeConfig, OptimizeReport, Target};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}"))
}

/// The source of a file given by its path from the repository root.
fn repo_source(path: &str) -> String {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(path);
    std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn smoke_cfg(jobs: usize) -> OptimizeConfig {
    let mut cfg = OptimizeConfig::new(platform::intel_pascal());
    cfg.smoke = true;
    cfg.jobs = jobs;
    cfg
}

const PROGRAM: &str = "int main() {\n\
    int* a;\n\
    cudaMallocManaged((void**)&a, 256 * sizeof(int));\n\
    for (int i = 0; i < 256; i++) { a[i] = i; }\n\
    double_all<<<1, 256>>>(a);\n\
    int sum = 0;\n\
    for (int i = 0; i < 256; i++) { sum = sum + a[i]; }\n\
    printf(\"%d\\n\", sum);\n\
    return 0;\n\
}\n\
__global__ void double_all(int* a) {\n\
    int i = threadIdx.x;\n\
    a[i] = a[i] * 2;\n\
}\n";

// =====================================================================
// Determinism + golden + lulesh regression guard.
// =====================================================================

/// Optimizes `target` with each of `jobs`, requires the reports to
/// render byte-identically, and returns the first with its text and JSON.
fn jobs_invariant_report(
    target: &Target,
    jobs: &[usize],
    cfg: impl Fn(usize) -> OptimizeConfig,
) -> (OptimizeReport, String, String) {
    let mut reports: Vec<_> = jobs
        .iter()
        .map(|&jobs| optimize(target, &cfg(jobs)).unwrap())
        .collect();

    let text = reports[0].render();
    let json = reports[0].to_json().to_string_pretty();
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            text,
            r.render(),
            "{}: rendered report differs at jobs index {i}",
            target.name()
        );
        assert_eq!(
            json,
            r.to_json().to_string_pretty(),
            "{}: json report differs at jobs index {i}",
            target.name()
        );
    }
    (reports.swap_remove(0), text, json)
}

/// Compares the rendered and JSON reports with `<stem>.golden` and
/// `<stem>.json.golden`.
fn check_goldens(stem: &str, text: &str, json: &str) {
    let mut failures = Vec::new();
    for (name, doc) in [
        (format!("{stem}.golden"), text),
        (format!("{stem}.json.golden"), json),
    ] {
        if let Err(e) = snapshot::check_or_bless(&golden_path(&name), doc) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The report must not depend on the worker count, and the winning plan
/// must strictly beat the unhinted lulesh baseline (the paper's headline
/// claim, closed-loop).
#[test]
fn optimize_lulesh_is_jobs_invariant_golden_and_improving() {
    let target = Target::Workload("lulesh".into());
    let (r, text, json) = jobs_invariant_report(&target, &[1, 2, 8], smoke_cfg);

    // Regression guard: never worse, and currently strictly better.
    assert!(r.winner_ns <= r.baseline_ns, "winner worse than baseline");
    assert!(
        r.winner_ns < r.baseline_ns,
        "expected a strictly improving plan for lulesh"
    );
    // The winner's counters; its simulated time is in the JSON golden.
    let s = &r.winner_stats;
    let bytes_moved = s.bytes_migrated + s.memcpy_bytes;
    assert_eq!(
        (s.faults(), s.migrations(), bytes_moved),
        (49, 48, 3_145_728)
    );

    check_goldens("optimize_lulesh", &text, &json);
}

/// The MiniCU path of the full search, pinned the same way. The report
/// names the target by its path from the repository root, as
/// `xplacer optimize` run there does, so `ci.sh` can `cmp` the binary's
/// output with the text golden.
/// - `smith_waterman.cu`: advise, prefetch and split rows; no plan beats
///   the baseline.
/// - `gen_00.cu`: two rounds; the winner combines two splits.
#[test]
fn optimize_programs_are_jobs_invariant_and_golden() {
    let full_cfg = |jobs| {
        let mut cfg = OptimizeConfig::new(platform::intel_pascal());
        cfg.jobs = jobs;
        cfg
    };
    for (path, stem) in [
        ("examples/mini/smith_waterman.cu", "optimize_smith_waterman"),
        ("tests/corpus/valid/gen_00.cu", "optimize_gen_00"),
    ] {
        let target = Target::Program {
            name: path.into(),
            source: repo_source(path),
        };
        let (_, text, json) = jobs_invariant_report(&target, &[1, 2, 8], full_cfg);
        check_goldens(stem, &text, &json);
    }
}

/// The workload path of the full search: `sw` on both presets, the op
/// perfbench's `optimize` workload times.
#[test]
fn optimize_sw_full_search_is_jobs_invariant_and_golden() {
    for (pf, stem) in [
        (platform::intel_pascal(), "optimize_sw"),
        (platform::power9_volta(), "optimize_sw_power9"),
    ] {
        let cfg = |jobs| {
            let mut cfg = OptimizeConfig::new(pf.clone());
            cfg.jobs = jobs;
            cfg
        };
        let (_, text, json) = jobs_invariant_report(&Target::Workload("sw".into()), &[1, 2], cfg);
        check_goldens(stem, &text, &json);
    }
}

/// Same job count, two runs: still byte-identical (no hidden global
/// state). Uses a small program target to keep it cheap.
#[test]
fn optimize_program_repeat_runs_are_identical() {
    let target = Target::Program {
        name: "double_all.cu".into(),
        source: PROGRAM.into(),
    };
    let a = optimize(&target, &smoke_cfg(2)).unwrap();
    let b = optimize(&target, &smoke_cfg(2)).unwrap();
    assert_eq!(a.render(), b.render());
    assert_eq!(
        a.to_json().to_string_pretty(),
        b.to_json().to_string_pretty()
    );
    assert!(a.winner_ns <= a.baseline_ns);
}

/// Allocations map to `main`'s sites by the position of the statement
/// that made them. `helper_alloc.cu` allocates `a`, then `h` inside a
/// helper function, then `d`: `h` is no site of `main` and gets no
/// candidate, and `d`'s candidates are `d`'s own, placed at `d`'s site.
#[test]
fn allocations_map_to_main_sites_by_statement_position() {
    const H: u64 = 0x11_0000;
    const D: u64 = 0x12_0000;
    let pf = platform::intel_pascal();
    let path = "tests/corpus/optimize/helper_alloc.cu";
    let prog = parse_program(path, &repo_source(path)).unwrap();
    let (base, cands) =
        eval_program(path, &prog, &pf, &Plan::empty(), &BTreeMap::new(), true).unwrap();
    let cands = cands.unwrap();
    assert!(
        !cands.items.is_empty(),
        "`d` ping-pongs, so it has candidates"
    );
    for c in &cands.items {
        assert_eq!((c.name.as_str(), c.base), ("d", D), "{c}");
    }
    assert_eq!(cands.site_of_base, BTreeMap::from([(D, 1)]));
    // The profile names the site allocations and leaves `h` at its address.
    let allocs: Vec<&str> = base.digest.allocs.keys().map(String::as_str).collect();
    assert_eq!(
        allocs,
        [format!("0x{H:x} (cudaMallocManaged)").as_str(), "a", "d"]
    );
    for c in &cands.items {
        let plan = Plan::empty().with(c.clone());
        let (out, _) = eval_program(path, &prog, &pf, &plan, &cands.site_of_base, false).unwrap();
        assert_eq!(base.fingerprint, out.fingerprint, "{}", plan.describe());
    }
}

/// Candidates run without the tracer: on every workload and both
/// presets, an untraced evaluation of the empty plan matches the traced
/// baseline bit for bit, down to the digest and the fingerprint.
#[test]
fn untraced_evaluations_match_the_traced_baseline() {
    for pf in [platform::intel_pascal(), platform::power9_volta()] {
        for which in xplacer_workloads::WORKLOAD_NAMES {
            let what = format!("{which} on {}", pf.name);
            let (traced, cands) = eval_workload(which, &pf, &Plan::empty(), true).unwrap();
            let (plain, none) = eval_workload(which, &pf, &Plan::empty(), false).unwrap();
            assert!(cands.is_some() && none.is_none(), "{what}");
            assert_eq!(
                traced.simulated_ns.to_bits(),
                plain.simulated_ns.to_bits(),
                "{what}"
            );
            assert_eq!(traced.stats, plain.stats, "{what}");
            assert_eq!(
                format!("{:?}", traced.digest),
                format!("{:?}", plain.digest),
                "{what}"
            );
            assert_eq!(traced.fingerprint, plain.fingerprint, "{what}");
        }
    }
}

// =====================================================================
// Property: applying optimizer plans never changes results.
// =====================================================================

/// Every candidate plan (and the largest compatible combination) applied
/// to every built-in workload leaves the self-check value and the final
/// bytes of every named allocation untouched.
#[test]
fn workload_plans_preserve_results_on_all_workloads() {
    let pf = platform::intel_pascal();
    let mut candidates_seen = 0usize;
    for which in xplacer_workloads::WORKLOAD_NAMES {
        let (base, cands) = eval_workload(which, &pf, &Plan::empty(), true)
            .unwrap_or_else(|e| panic!("{which}: {e}"));
        let cands = cands.unwrap();
        candidates_seen += cands.items.len();
        let mut combined = Plan::empty();
        for c in &cands.items {
            let plan = Plan::empty().with(c.clone());
            let (out, _) = eval_workload(which, &pf, &plan, false)
                .unwrap_or_else(|e| panic!("{which} `{}`: {e}", plan.describe()));
            assert_eq!(
                base.fingerprint,
                out.fingerprint,
                "{which}: plan `{}` changed results",
                plan.describe()
            );
            if combined.allows(c) {
                combined = combined.with(c.clone());
            }
        }
        if combined.items().len() > 1 {
            let (out, _) = eval_workload(which, &pf, &combined, false)
                .unwrap_or_else(|e| panic!("{which} combined: {e}"));
            assert_eq!(
                base.fingerprint,
                out.fingerprint,
                "{which}: combined plan `{}` changed results",
                combined.describe()
            );
        }
    }
    // The managed-memory workloads must actually exercise the property.
    assert!(candidates_seen > 10, "too few candidates enumerated");
}

/// The generated-program half of the property: for `conformance_cases()`
/// random well-typed MiniCU programs, every candidate plan — including
/// advise/prefetch injections and the split-object rewrite — leaves
/// exit code, stdout, and the final bytes of every allocation equal to
/// the un-advised run, whose exit code and stdout a plain run confirms.
#[test]
fn generated_program_plans_preserve_results() {
    let pf = platform::intel_pascal();
    let cases = conformance_cases();
    let no_sites = BTreeMap::new();
    let mut with_candidates = 0u64;
    let mut plans_checked = 0u64;
    for i in 0..cases {
        let mut rng = TestRng::deterministic(&format!("xplacer-optimize-prop-{i}"));
        let prog = ArbProgram.generate(&mut rng);
        let src = unparse(&prog);
        let prog = parse_program("gen.cu", &src).unwrap();
        let (base, cands) = eval_program("gen.cu", &prog, &pf, &Plan::empty(), &no_sites, true)
            .unwrap_or_else(|e| panic!("case {i} baseline: {e}\n---- program ----\n{src}"));
        assert_plain_run_agrees(&format!("case {i}"), &src, &base);
        let cands = cands.unwrap();
        if cands.items.is_empty() {
            continue;
        }
        with_candidates += 1;
        let mut combined = Plan::empty();
        for c in &cands.items {
            let plan = Plan::empty().with(c.clone());
            let (out, _) = eval_program("gen.cu", &prog, &pf, &plan, &cands.site_of_base, false)
                .unwrap_or_else(|e| {
                    panic!(
                        "case {i} plan `{}`: {e}\n---- program ----\n{src}",
                        plan.describe()
                    )
                });
            assert_eq!(
                base.fingerprint,
                out.fingerprint,
                "case {i}: plan `{}` changed program results\n---- program ----\n{src}",
                plan.describe()
            );
            plans_checked += 1;
            if combined.allows(c) {
                combined = combined.with(c.clone());
            }
        }
        if combined.items().len() > 1 {
            let (out, _) =
                eval_program("gen.cu", &prog, &pf, &combined, &cands.site_of_base, false)
                    .unwrap_or_else(|e| {
                        panic!(
                            "case {i} combined `{}`: {e}\n---- program ----\n{src}",
                            combined.describe()
                        )
                    });
            assert_eq!(
                base.fingerprint,
                out.fingerprint,
                "case {i}: combined plan `{}` changed program results\n---- program ----\n{src}",
                combined.describe()
            );
            plans_checked += 1;
        }
    }
    assert!(
        with_candidates * 4 >= cases,
        "only {with_candidates}/{cases} generated programs were optimizable \
         ({plans_checked} plans checked) — generator or enumeration drifted"
    );
}

// =====================================================================
// Reference: a plain run agrees with the fingerprint's `check`.
// =====================================================================

/// FNV-1a, written out here so the reference does not share the
/// optimizer's code.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// A plain (uninstrumented) run of `src` returns the exit code and
/// prints the stdout that `base`, the optimizer's baseline evaluation of
/// the same source, hashed into its fingerprint.
fn assert_plain_run_agrees(what: &str, src: &str, base: &EvalOutcome) {
    let (plain, _) = run_source(src, platform::intel_pascal(), false)
        .unwrap_or_else(|e| panic!("{what}: plain run: {e}"));
    let check = format!(
        "exit={} stdout={:016x}",
        plain.exit,
        fnv1a(plain.stdout.as_bytes())
    );
    assert_eq!(base.fingerprint.check, check, "{what}\n{}", plain.stdout);
}

/// The checked-in programs the optimizer serves: the MiniCU examples and
/// the valid corpus, most of which carry diagnostic pragmas.
#[test]
fn plain_runs_agree_with_the_program_fingerprint() {
    let pf = platform::intel_pascal();
    let mut files = Vec::new();
    for dir in ["examples/mini", "tests/corpus/valid"] {
        let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(dir);
        for entry in std::fs::read_dir(abs).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.ends_with(".cu") {
                files.push(format!("{dir}/{name}"));
            }
        }
    }
    files.sort();
    assert!(files.len() >= 12, "{files:?}");
    for path in files {
        let src = repo_source(&path);
        let prog = parse_program(&path, &src).unwrap();
        let (base, _) = eval_program(&path, &prog, &pf, &Plan::empty(), &BTreeMap::new(), false)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_plain_run_agrees(&path, &src, &base);
    }
}
