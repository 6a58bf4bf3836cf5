//! `reproduce_all --only <id>` through the real binary: one experiment's
//! report on stdout and in `results/`, without the map images, and exit 2
//! with the usage for an unknown id or any other argument.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run the binary in a fresh directory of its own, since it writes
/// `results/` into its working directory.
fn run_in(dir: &str, args: &[&str]) -> (PathBuf, Output) {
    let cwd = std::env::temp_dir().join(format!("reproduce_all_{dir}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("reproduce_all runs");
    (cwd, out)
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
