//! Helpers the command-line tests share: run the real `xplacer` binary
//! and read what it printed. Each test file uses its own subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The `xplacer` binary under test.
pub fn xplacer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xplacer"))
}

/// `rel`, a path relative to the repository root.
pub fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Run `xplacer` with `args` and collect its output.
pub fn run(args: &[&str]) -> Output {
    xplacer().args(args).output().expect("xplacer binary runs")
}

pub fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("output is UTF-8")
}

pub fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("stdout is UTF-8")
}
