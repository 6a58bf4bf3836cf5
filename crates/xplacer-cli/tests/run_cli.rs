//! `xplacer run` and `xplacer analyze` through the real binary: exit-code
//! contract (0 ok / 2 runtime or usage error), stdout purity under
//! `--log-level quiet`, and `--json` stream separation.

use std::path::{Path, PathBuf};

use xplacer_obs::json::Json;

mod common;
use common::{run, text};

fn mini_examples() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/mini");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("examples/mini exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cu"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    files
}

#[test]
fn quiet_stdout_is_program_output_then_report() {
    for f in mini_examples() {
        let path = f.to_str().unwrap();
        let src = std::fs::read_to_string(&f).unwrap();
        // `run` instruments by default; its stdout is exactly what the
        // program printed.
        let (expected, _) =
            xplacer_interp::run_source(&src, hetsim::platform::intel_pascal(), true)
                .unwrap_or_else(|e| panic!("{path}: {e}"));
        let plain = run(&["run", path, "--log-level", "quiet"]);
        assert_eq!(
            plain.status.code(),
            Some(0),
            "{path}: {}",
            text(&plain.stderr)
        );
        assert_eq!(text(&plain.stdout), expected.stdout, "{path}");
        assert!(plain.stderr.is_empty(), "{path}: quiet run wrote to stderr");
        // `analyze` prints the same, then only the anti-pattern report.
        let analyzed = run(&["analyze", path, "--log-level", "quiet"]);
        assert_eq!(analyzed.status.code(), Some(0), "{path}");
        assert!(
            analyzed.stderr.is_empty(),
            "{path}: quiet analyze wrote to stderr"
        );
        let report = text(&analyzed.stdout)
            .strip_prefix(&expected.stdout)
            .unwrap_or_else(|| panic!("{path}: analyze output does not start with the program's"))
            .to_string();
        assert!(
            report.starts_with("--- anti-pattern report"),
            "{path}: {report}"
        );
    }
}

#[test]
fn json_mode_emits_one_document_on_stdout() {
    let f = &mini_examples()[0];
    let out = run(&["run", f.to_str().unwrap(), "--json", "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let doc = Json::parse(&text(&out.stdout)).expect("stdout is one JSON document");
    assert!(matches!(doc, Json::Obj(_)), "{doc:?}");
}

#[test]
fn failures_exit_two_naming_the_file() {
    let dir = std::env::temp_dir().join("xplacer_run_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let div = dir.join("div_zero.cu");
    std::fs::write(&div, "int main() { int z = 0; return 1 / z; }\n").unwrap();
    let missing = dir.join("no_such_file.cu");
    for verb in ["run", "analyze"] {
        for (f, why) in [(&div, "division by zero"), (&missing, "cannot read")] {
            let path = f.to_str().unwrap();
            let out = run(&[verb, path, "--log-level", "quiet"]);
            assert_eq!(out.status.code(), Some(2), "{verb} {path}");
            assert!(
                out.stdout.is_empty(),
                "{verb} {path}: {}",
                text(&out.stdout)
            );
            let err = text(&out.stderr);
            assert!(err.contains(path) && err.contains(why), "{verb}: {err}");
        }
    }
}

/// Every verb that reads a `.cu` file prints a parse error, nesting past
/// the parser's bound included (the links of a long `+` chain count as
/// nesting), and every verb that runs one prints a runtime error, as one
/// line naming the file.
#[test]
fn every_verb_names_the_file_in_its_errors() {
    // The verbs that read a `.cu` file; all but `instrument` run it.
    const READS: [&str; 9] = [
        "instrument",
        "run",
        "analyze",
        "advise",
        "profile",
        "top",
        "blame",
        "optimize",
        "check",
    ];
    let overflow = program(
        "index_overflow.cu",
        "    int* a;\n    cudaMallocManaged((void**)&a, 16 * sizeof(int));\n    \
         a[4611686018427387904] = 1;",
    );
    // The node has one GPU: ordinal 1 indexed past it and panicked.
    let prefetch = program(
        "prefetch_gpu1.cu",
        "    int* a;\n    cudaMallocManaged((void**)&a, 16 * sizeof(int));\n    \
         cudaMemPrefetchAsync(a, 16 * sizeof(int), 1);",
    );
    let broken = overflow.with_file_name("unclosed_params.cu");
    std::fs::write(&broken, "int main( {").unwrap();
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let too_deep = |at| format!("parse error at line {at}: nesting deeper than 64 levels");
    let cases: [(PathBuf, String, &[&str]); 7] = [
        (
            broken,
            "parse error at line 1:11: expected identifier, found `{`".into(),
            &READS,
        ),
        (
            corpus.join("invalid/deep_parens.cu"),
            too_deep("4:75"),
            &READS,
        ),
        (
            corpus.join("invalid/deep_blocks.cu"),
            too_deep("4:69"),
            &READS,
        ),
        (
            corpus.join("invalid/long_sum.cu"),
            too_deep("5:137"),
            &READS,
        ),
        (
            overflow,
            "runtime error: pointer arithmetic overflows".into(),
            &READS[1..],
        ),
        (
            prefetch,
            "runtime error: invalid device ordinal 1".into(),
            &READS[1..],
        ),
        (
            corpus.join("buggy/double_free.cu"),
            "runtime error: double free of 0x100000".into(),
            &["run", "optimize"],
        ),
    ];
    for (file, why, verbs) in cases {
        let path = file.to_str().unwrap();
        for verb in verbs {
            let out = run(&[verb, path, "--log-level", "quiet"]);
            assert_eq!(out.status.code(), Some(2), "{verb} {path}");
            assert!(out.stdout.is_empty(), "{verb}: {}", text(&out.stdout));
            assert_eq!(
                text(&out.stderr),
                format!("xplacer: {path}: {why}\n"),
                "{verb}"
            );
        }
    }
}

/// Writes `int main() { <body> return 0; }` to a temporary file.
fn program(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xplacer_run_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join(name);
    std::fs::write(&f, format!("int main() {{\n{body}\n    return 0;\n}}\n")).unwrap();
    f
}

/// Runs `run` on each `(file, body, expected stderr)` program and
/// requires exit 2 with that message and no panic.
fn assert_runtime_errors(cases: &[(&str, &str, &str)]) {
    for (name, body, why) in cases {
        let f = program(name, body);
        let out = run(&["run", f.to_str().unwrap()]);
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.contains(why), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
    }
}

#[test]
fn wrapping_addresses_and_sizes_are_runtime_errors() {
    // Each wrapped `addr + len` or an allocation span around 64 bits in
    // the simulated address space, which panicked.
    let h = "    double* h = (double*)malloc(4 * sizeof(double));\n";
    assert_runtime_errors(&[
        (
            "wrap_index.cu",
            &format!("{h}    h[0] = 1.0;\n    printf(\"%f\\n\", h[-131073]);"),
            "unallocated address 0xfffffffffffffff8",
        ),
        (
            "wrap_memcpy.cu",
            &format!(
                "{h}    double* d;\n    cudaMalloc((void**)&d, 4 * sizeof(double));\n\
                 \x20   cudaMemcpy(d, h, -1, cudaMemcpyHostToDevice);"
            ),
            "access of 18446744073709551615 bytes",
        ),
        (
            "wrap_malloc.cu",
            "    double* a = (double*)malloc(-1);",
            "out of memory: cannot allocate 18446744073709551615 bytes",
        ),
        // 2^62 bytes fit the simulated address space, but no host can
        // back them: the allocation used to abort the process.
        (
            "huge_malloc.cu",
            "    char* p = (char*)malloc(4611686018427387904);",
            "out of memory: cannot allocate 4611686018427387904 bytes",
        ),
    ]);
}

#[test]
fn device_ordinals_the_node_lacks_are_runtime_errors() {
    // As an `AccessedBy` target, ordinal 15 shifted a device bit mask out
    // of range: a panic in this debug build, and in a release build a host
    // mapping nobody asked for. Ordinals past 255 wrapped.
    let a = "    int* a;\n    cudaMallocManaged((void**)&a, 64);\n    cudaMem";
    for n in [1, 15, 300] {
        let why = format!("runtime error: invalid device ordinal {n}");
        for call in [
            "PrefetchAsync(a, 64, ",
            "Advise(a, 64, 3, ",
            "Advise(a, 64, 5, ",
            "Advise(a, 64, 6, ",
        ] {
            assert_runtime_errors(&[("ordinal.cu", &format!("{a}{call}{n});"), &why)]);
        }
    }
    // CUDA reads no device for `SetReadMostly`.
    let f = program("read_mostly_7.cu", &format!("{a}Advise(a, 64, 1, 7);"));
    let out = run(&["run", f.to_str().unwrap(), "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
}

#[test]
fn pointer_arithmetic_overflow_is_a_runtime_error() {
    // The element offset overflows `i64` in an index, in pointer ± int
    // and in `++`; wrapping aliased `a[0]` and printed its value.
    let a = "    double* a = (double*)malloc(4 * sizeof(double));\n    a[0] = 1.0;\n";
    let why = "pointer arithmetic overflows";
    assert_runtime_errors(&[
        (
            "overflow_index.cu",
            &format!("{a}    printf(\"%f\\n\", a[4611686018427387904]);"),
            why,
        ),
        (
            "overflow_add.cu",
            &format!("{a}    double* p = 4611686018427387904 + a;\n    printf(\"%f\\n\", *p);"),
            why,
        ),
        (
            "overflow_sub.cu",
            &format!("{a}    double* p = a - 4611686018427387904;\n    printf(\"%f\\n\", *p);"),
            why,
        ),
        (
            "overflow_inc.cu",
            &format!(
                "{a}    double* p = a + 1152921504606715903;\n    p++;\n    printf(\"%f\\n\", *p);"
            ),
            why,
        ),
    ]);
}
