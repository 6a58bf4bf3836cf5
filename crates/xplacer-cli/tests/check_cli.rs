//! `xplacer check` through the real binary: exit-code contract
//! (0 clean / 1 findings / 2 usage), stdout purity under
//! `--log-level quiet`, and `--json` stream separation.

use std::path::PathBuf;

mod common;
use common::{repo_path, run, stdout};

#[test]
fn clean_file_exits_zero() {
    // The mini examples deliberately leak (demo style), so a minimal
    // init-use-free program pins the clean path.
    let dir = std::env::temp_dir().join("xplacer_check_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("clean.cu");
    std::fs::write(
        &f,
        "int main() {\n\
         \x20   int* a;\n\
         \x20   cudaMallocManaged((void**)&a, 16 * sizeof(int));\n\
         \x20   for (int i = 0; i < 16; i++) { a[i] = i; }\n\
         \x20   printf(\"a0=%d\\n\", a[0]);\n\
         \x20   cudaFree(a);\n\
         \x20   return 0;\n\
         }\n",
    )
    .unwrap();
    let out = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("clean"));
}

#[test]
fn buggy_file_exits_one() {
    let f = repo_path("tests/corpus/buggy/double_free.cu");
    let out = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("double-free"));
}

#[test]
fn usage_errors_exit_two() {
    // No input at all.
    let out = run(&["check"]);
    assert_eq!(out.status.code(), Some(2));
    // Unreadable input.
    let out = run(&["check", "no_such_file.cu"]);
    assert_eq!(out.status.code(), Some(2));
    // A parse error is a usage-level failure, not a finding.
    let dir = std::env::temp_dir().join("xplacer_check_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let broken = dir.join("broken.cu");
    std::fs::write(&broken, "int main( {").unwrap();
    let out = run(&["check", broken.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn quiet_stdout_carries_exactly_the_report() {
    // Under --log-level quiet, stdout is the rendered report and nothing
    // else — repeat runs must be byte-identical (ci.sh cmp's this same
    // stream against the committed goldens).
    let f = repo_path("tests/corpus/buggy/leak.cu");
    let a = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
    let b = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
    assert_eq!(a.stdout, b.stdout, "repeat runs differ");
    let text = stdout(&a);
    assert!(
        text.starts_with("== xplacer check:"),
        "chatter on stdout: {text}"
    );
    assert!(a.stderr.is_empty(), "quiet run wrote to stderr");
}

#[test]
fn json_mode_emits_one_document_on_stdout() {
    let f = repo_path("tests/corpus/buggy/uninit_read.cu");
    let out = run(&[
        "check",
        f.to_str().unwrap(),
        "--json",
        "--log-level",
        "quiet",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    // One JSON object, parseable, carrying the schema tag; the human
    // table moved to stderr.
    assert!(text.trim_start().starts_with('{'), "stdout: {text}");
    assert!(text.contains("\"schema\": \"xplacer-check/1\""));
    assert!(!text.contains("== xplacer check:"));
}

#[test]
fn workload_target_resolves_by_name() {
    let out = run(&["check", "gaussian", "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("gaussian"));
}

#[test]
fn debug_cost_counters_go_to_stderr_only() {
    // `--log-level debug` adds the checker's cost counters on stderr; the
    // table and the --json document on stdout stay byte-identical.
    let buggy = repo_path("tests/corpus/buggy/race_bytes.cu");
    let line = |shadow: u64, slots: u64| {
        format!(
            "xplacer[debug]: checker cost: {shadow} shadow bytes held, {slots} race slots \
             allocated (36 bytes each)\n"
        )
    };
    for (target, cost) in [
        ("pathfinder", line(417_792, 104_448)),
        (buggy.to_str().unwrap(), line(128, 80)),
    ] {
        for json in [false, true] {
            let mut args = vec!["check", target];
            if json {
                args.push("--json");
            }
            let plain = run(&args);
            args.extend(["--log-level", "debug"]);
            let debug = run(&args);
            assert_eq!(plain.status.code(), debug.status.code(), "{target}");
            assert_eq!(plain.stdout, debug.stdout, "{target} json={json}");
            let err = String::from_utf8_lossy(&debug.stderr);
            assert!(err.contains(&cost), "{target}: {err}");
            assert!(!String::from_utf8_lossy(&plain.stderr).contains("race slots"));
        }
    }
}

/// Writes `int main() { <body> return 0; }` to a temporary file.
fn program(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xplacer_check_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join(name);
    std::fs::write(&f, format!("int main() {{\n{body}\n    return 0;\n}}\n")).unwrap();
    f
}

#[test]
fn wrapping_addresses_and_sizes_are_findings() {
    // Each wrapped `addr + len` or an allocation span around 64 bits in
    // the simulated address space, which panicked.
    let h = "    double* h = (double*)malloc(4 * sizeof(double));\n";
    for (name, body, class) in [
        (
            "wrap_index.cu",
            format!("{h}    h[0] = 1.0;\n    printf(\"%f\\n\", h[-131073]);"),
            "out-of-bounds",
        ),
        (
            "wrap_memcpy.cu",
            format!(
                "{h}    double* d;\n    cudaMalloc((void**)&d, 4 * sizeof(double));\n\
                 \x20   cudaMemcpy(d, h, -1, cudaMemcpyHostToDevice);"
            ),
            "out-of-bounds",
        ),
        (
            "wrap_malloc.cu",
            "    double* a = (double*)malloc(-1);".to_string(),
            "other",
        ),
        // More bytes than any host can back: an abort, not a finding,
        // before the allocation was reserved fallibly.
        (
            "huge_malloc.cu",
            "    char* p = (char*)malloc(4611686018427387904);".to_string(),
            "other",
        ),
    ] {
        let f = program(name, &body);
        let out = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
        let report = stdout(&out);
        let row = report.lines().nth(2).unwrap_or_default();
        assert!(row.starts_with(class), "{name}: {report}");
        assert!(report.contains("1 finding"), "{name}: {report}");
    }
}

#[test]
fn pointer_arithmetic_overflow_exits_two() {
    // Wrapping the element offset aliased `a[0]`; like a null
    // dereference, the program cannot go on.
    let f = program(
        "overflow_index.cu",
        "    double* a = (double*)malloc(4 * sizeof(double));\n    a[0] = 1.0;\n\
         \x20   printf(\"%f\\n\", a[4611686018427387904]);",
    );
    let out = run(&["check", f.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("pointer arithmetic overflows"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
