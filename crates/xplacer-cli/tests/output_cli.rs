//! The output contract of every verb through the real binary: a reader
//! that closes stdout early is not a crash and leaves the exit code as it
//! is, any other stdout write error exits 2 and says so, and a failed
//! stderr write is dropped.

use std::fs::File;
use std::process::{Output, Stdio};

mod common;
use common::{repo_path, run, text, xplacer};

/// Runs `args` with stdout on a pipe whose read end is closed before
/// anything is read.
fn into_closed_pipe(args: &[&str]) -> Output {
    let mut child = xplacer()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("xplacer binary runs");
    drop(child.stdout.take());
    child.wait_with_output().expect("xplacer exits")
}

/// `/dev/full` opened for writing: every write to it fails with "no space
/// left on device". `None` where the system has none.
fn dev_full() -> Option<File> {
    File::options().write(true).open("/dev/full").ok()
}

#[test]
fn a_closed_stdout_keeps_the_exit_code_without_a_panic() {
    for verb in ["profile", "top", "blame"] {
        let args = [verb, "lulesh", "--json"];
        // More than a 64 KiB pipe holds, so a write fails whatever the
        // timing.
        let whole = run(&args);
        assert!(whole.stdout.len() > 64 << 10, "{verb}: output too small");
        let out = into_closed_pipe(&args);
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{verb}: {err}");
        assert!(!err.contains("panicked"), "{verb}: {err}");
    }
}

#[test]
fn a_stdout_write_error_exits_two_and_says_so() {
    if dev_full().is_none() {
        eprintln!("skipped: no /dev/full");
        return;
    }
    let alt = repo_path("examples/mini/alternating.cu");
    let alt = alt.to_str().unwrap();
    let dir = std::env::temp_dir().join("xplacer_output_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("pathfinder_events.json");
    let trace = trace.to_str().unwrap();
    let recorded = run(&[
        "demo",
        "pathfinder",
        "--log-level",
        "quiet",
        "--events-out",
        trace,
    ]);
    assert_eq!(
        recorded.status.code(),
        Some(0),
        "{}",
        text(&recorded.stderr)
    );
    for args in [
        vec!["instrument", alt],
        vec!["run", alt],
        vec!["analyze", alt],
        vec!["advise", alt],
        vec!["demo", "pathfinder"],
        vec!["profile", "pathfinder"],
        vec!["top", "pathfinder"],
        vec!["blame", "pathfinder"],
        vec!["diff", trace, trace],
        vec!["optimize", alt, "--smoke"],
        vec!["check", "pathfinder"],
        vec!["platforms"],
        vec!["--help"],
        vec!["check", "--help"],
    ] {
        let out = xplacer()
            .args(&args)
            .stdout(dev_full().unwrap())
            .output()
            .expect("xplacer binary runs");
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("cannot write to stdout"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn a_stderr_write_error_is_dropped() {
    let Some(full) = dev_full() else {
        eprintln!("skipped: no /dev/full");
        return;
    };
    let leak = repo_path("tests/corpus/buggy/leak.cu");
    let args = ["check", leak.to_str().unwrap(), "--json"];
    let captured = run(&args);
    assert_eq!(
        captured.status.code(),
        Some(1),
        "{}",
        text(&captured.stderr)
    );
    let out = xplacer()
        .args(args)
        .stderr(full)
        .output()
        .expect("xplacer binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(text(&out.stdout), text(&captured.stdout));
}
