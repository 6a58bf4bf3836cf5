//! `xplacer check` end-to-end: the bug-injection corpus produces its
//! golden diagnostics, clean programs and all 8 workloads produce zero
//! findings, and the bulk fast path is bit-identical to the per-word
//! fallback (DESIGN.md §18).

use std::fs;
use std::path::{Path, PathBuf};

use proptest::{Strategy, TestRng};
use xplacer_check::{check_source, check_workload, CheckOptions};
use xplacer_conformance::generator::CleanProgram;
use xplacer_conformance::{conformance_cases, snapshot};
use xplacer_lang::unparse::unparse;
use xplacer_workloads::driver::WORKLOAD_NAMES;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The `.cu` programs of a directory: `(name, source)` in file order.
fn cu_programs(rel: &str) -> Vec<(String, String)> {
    let dir = repo_path(rel);
    let mut names: Vec<_> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cu"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|p| {
            (
                p.file_stem().unwrap().to_string_lossy().into_owned(),
                fs::read_to_string(&p).unwrap(),
            )
        })
        .collect()
}

/// The committed buggy corpus.
fn buggy_corpus() -> Vec<(String, String)> {
    cu_programs("corpus/buggy")
}

/// Render one corpus check the way the golden files store it: the table,
/// then the JSON document.
fn render_check(name: &str, src: &str, bulk: bool) -> String {
    let opts = CheckOptions {
        bulk,
        ..CheckOptions::default()
    };
    let out = check_source(&format!("{name}.cu"), src, &opts)
        .unwrap_or_else(|e| panic!("{name}: checker refused the program: {e}"));
    format!(
        "{}---- json ----\n{}\n",
        out.report.render(),
        out.report.to_json().to_string_pretty()
    )
}

// =====================================================================
// Bug-injection corpus: every program produces exactly its golden
// diagnostic (class, span, allocation).
// =====================================================================

#[test]
fn buggy_corpus_matches_goldens() {
    let corpus = buggy_corpus();
    assert!(
        corpus.len() >= 10,
        "bug-injection corpus must cover all defect classes, found {}",
        corpus.len()
    );
    for (name, src) in &corpus {
        let got = render_check(name, src, true);
        if let Err(e) = snapshot::check_or_bless(
            &repo_path(&format!("corpus/buggy/{name}.check.golden")),
            &got,
        ) {
            panic!("{name}: {e}");
        }
    }
}

#[test]
fn every_buggy_program_has_findings() {
    for (name, src) in buggy_corpus() {
        let out = check_source(&format!("{name}.cu"), &src, &CheckOptions::default()).unwrap();
        assert!(
            !out.report.clean(),
            "{name} is in the buggy corpus but produced no findings"
        );
    }
}

// =====================================================================
// False-positive property: clean inputs produce zero findings.
// =====================================================================

#[test]
fn all_workloads_are_clean() {
    for which in WORKLOAD_NAMES {
        let out = check_workload(which, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{which}: {e}"));
        assert!(
            out.report.clean(),
            "workload {which} produced findings:\n{}",
            out.report.render()
        );
    }
}

#[test]
fn generated_clean_programs_are_clean() {
    let cases = conformance_cases().max(64);
    for i in 0..cases {
        let mut rng = TestRng::deterministic(&format!("xplacer-check-clean-{i}"));
        let prog = CleanProgram.generate(&mut rng);
        let src = unparse(&prog);
        let out = check_source("generated.cu", &src, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("case {i}: checker refused: {e}\n---- program ----\n{src}"));
        assert!(
            out.report.clean(),
            "case {i}: clean generated program produced findings:\n{}\n---- program ----\n{src}",
            out.report.render()
        );
    }
}

// =====================================================================
// Bulk-vs-per-word parity: findings and shadow state byte-identical.
// =====================================================================

#[test]
fn bulk_and_per_word_agree_on_corpus() {
    // The shipped examples are where the interpreter's sweep fast path
    // engages, and `--no-bulk` turns it off.
    let examples = cu_programs("../examples/mini");
    for (name, src) in buggy_corpus().into_iter().chain(examples) {
        let bulk = render_check(&name, &src, true);
        let word = render_check(&name, &src, false);
        assert_eq!(bulk, word, "{name}: bulk vs per-word reports differ");
        let ob = check_source(
            &format!("{name}.cu"),
            &src,
            &CheckOptions {
                bulk: true,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        let ow = check_source(
            &format!("{name}.cu"),
            &src,
            &CheckOptions {
                bulk: false,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            ob.shadow_digest, ow.shadow_digest,
            "{name}: shadow state diverged between bulk and per-word"
        );
    }
}

#[test]
fn bulk_and_per_word_agree_on_generated_programs() {
    let cases = (conformance_cases() / 4).max(16);
    for i in 0..cases {
        let mut rng = TestRng::deterministic(&format!("xplacer-check-parity-{i}"));
        let prog = CleanProgram.generate(&mut rng);
        let src = unparse(&prog);
        let run = |bulk: bool| {
            check_source(
                "generated.cu",
                &src,
                &CheckOptions {
                    bulk,
                    ..CheckOptions::default()
                },
            )
            .unwrap()
        };
        let (b, w) = (run(true), run(false));
        assert_eq!(b.report, w.report, "case {i}\n---- program ----\n{src}");
        assert_eq!(b.shadow_digest, w.shadow_digest, "case {i}");
    }
}

#[test]
fn bulk_and_per_word_agree_on_workloads() {
    // The full sweep is covered by ci.sh; here the two workloads with the
    // richest access mix (bulk sweeps + async streams) pin the property.
    for which in ["lulesh", "pathfinder"] {
        let run = |bulk: bool| {
            check_workload(
                which,
                &CheckOptions {
                    bulk,
                    ..CheckOptions::default()
                },
            )
            .unwrap()
        };
        let (b, w) = (run(true), run(false));
        assert_eq!(b.report, w.report, "{which}: reports differ");
        assert_eq!(b.shadow_digest, w.shadow_digest, "{which}: shadow differs");
    }
}

// =====================================================================
// Determinism: repeat runs are byte-identical.
// =====================================================================

#[test]
fn check_output_is_deterministic() {
    for (name, src) in buggy_corpus().into_iter().take(3) {
        let a = render_check(&name, &src, true);
        let b = render_check(&name, &src, true);
        assert_eq!(a, b, "{name}: repeat check runs differ");
    }
    let w1 = check_workload("pathfinder", &CheckOptions::default()).unwrap();
    let w2 = check_workload("pathfinder", &CheckOptions::default()).unwrap();
    assert_eq!(w1.report.render(), w2.report.render());
    assert_eq!(
        w1.report.to_json().to_string_pretty(),
        w2.report.to_json().to_string_pretty()
    );
}

// =====================================================================
// Defensive behavior: the checker rejects, never panics.
// =====================================================================

#[test]
fn parse_errors_are_usage_errors_not_findings() {
    let e = check_source("broken.cu", "int main( {", &CheckOptions::default()).unwrap_err();
    assert!(e.contains("line "), "parse error keeps its span: {e}");
}

#[test]
fn max_errors_truncates_but_stays_dirty() {
    // The leak program with several allocations exercises truncation.
    let src = "
int main() {
  int* a = (int*)malloc(16 * sizeof(int));
  int* b = (int*)malloc(16 * sizeof(int));
  int* c = (int*)malloc(16 * sizeof(int));
  a[0] = 1; b[0] = 1; c[0] = 1;
  return 0;
}
";
    let out = check_source(
        "leaky.cu",
        src,
        &CheckOptions {
            max_errors: 1,
            ..CheckOptions::default()
        },
    )
    .unwrap();
    assert_eq!(out.report.findings.len(), 1);
    assert_eq!(out.report.truncated, 2);
    assert!(!out.report.clean());
    assert!(out.report.render().contains("suppressed by --max-errors"));
}
