//! `reproduce_all --only <id>` through the real binary: one experiment's
//! report on stdout and in `results/`, without the map images; exit 2
//! with the usage for an unknown id, any other argument or one that is
//! not UTF-8; and the CLI's write contract on a closed or full stdout.

use std::ffi::OsStr;
use std::fs::File;
use std::os::unix::ffi::OsStrExt;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Run the binary in a fresh directory of its own, since it writes
/// `results/` into its working directory, with stdout on `stdout`.
fn run_with(dir: &str, args: &[&OsStr], stdout: Stdio) -> (PathBuf, Output) {
    let cwd = std::env::temp_dir().join(format!("reproduce_all_{dir}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(args)
        .current_dir(&cwd)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("reproduce_all runs");
    (cwd, out)
}

fn run_in(dir: &str, args: &[&str]) -> (PathBuf, Output) {
    let args: Vec<&OsStr> = args.iter().map(OsStr::new).collect();
    run_with(dir, &args, Stdio::piped())
}

#[test]
fn only_runs_one_experiment() {
    let (cwd, out) = run_in("one", &["--only", "fig05_lulesh_maps"]);
    assert_eq!(out.status.code(), Some(0));
    let results = cwd.join("results");
    let report = std::fs::read_to_string(results.join("fig05_lulesh_maps.txt")).expect("report");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        format!("{report}\n")
    );
    let mut files: Vec<String> = std::fs::read_dir(&results)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(
        files,
        ["fig05_lulesh_maps.metrics.json", "fig05_lulesh_maps.txt"]
    );
    let _ = std::fs::remove_dir_all(cwd);
}

#[test]
fn unknown_ids_and_smoke_exit_two() {
    for (dir, args) in [
        ("bad", &["--only", "fig99"][..]),
        ("none", &["--only"][..]),
        ("only_smoke", &["--only", "table1_api", "--smoke"][..]),
        ("smoke", &["--smoke"][..]),
        ("typo", &["--quik"][..]),
    ] {
        let (cwd, out) = run_in(dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("reproduce_all: usage:"), "{args:?}: {err}");
        assert!(err.contains("table3_overhead"), "ids listed: {err}");
        assert!(!cwd.join("results").exists(), "{args:?} wrote results");
        let _ = std::fs::remove_dir_all(cwd);
    }
}

#[test]
fn an_argument_that_is_not_utf8_exits_two_with_the_usage() {
    let bad = OsStr::from_bytes(b"--only\xff");
    let (cwd, out) = run_with("not_utf8", &[OsStr::new("--quick"), bad], Stdio::piped());
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.starts_with("reproduce_all: argument 2 is not valid UTF-8\nusage: reproduce_all"),
        "{err}"
    );
    assert!(!cwd.join("results").exists(), "wrote results");
    let _ = std::fs::remove_dir_all(cwd);
}

#[test]
fn a_closed_stdout_keeps_the_exit_code_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let args = [OsStr::new("--only"), OsStr::new("table1_api")];
    let (cwd, out) = run_with("closed_pipe", &args, writer.into());
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{err}");
    // The progress line only: a closed pipe is not reported.
    assert!(
        err.starts_with("[table1_api: ") && err.lines().count() == 1,
        "{err}"
    );
    assert!(cwd.join("results/table1_api.txt").exists());
    let _ = std::fs::remove_dir_all(cwd);
}

#[test]
fn a_stdout_write_error_exits_two_and_says_so() {
    let Ok(full) = File::options().write(true).open("/dev/full") else {
        eprintln!("skipped: no /dev/full");
        return;
    };
    let args = [OsStr::new("--only"), OsStr::new("table1_api")];
    let (cwd, out) = run_with("dev_full", &args, full.into());
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("reproduce_all: cannot write to stdout: "),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_dir_all(cwd);
}
