//! `xplacer run` and `xplacer analyze` through the real binary: exit-code
//! contract (0 ok / 2 runtime or usage error), stdout purity under
//! `--log-level quiet`, and `--json` stream separation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use xplacer_obs::json::Json;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xplacer"))
        .args(args)
        .output()
        .expect("xplacer binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("output is UTF-8")
}

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
