//! `xplacer profile` through the real binary: exit-code contract
//! (0 ok / 2 usage or IO error), stdout purity under `--log-level quiet`,
//! and `--json` stream separation.

use std::path::Path;

use xplacer_obs::json::Json;

mod common;
use common::{run, text};

fn alternating() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/mini/alternating.cu")
        .to_string_lossy()
        .into_owned()
}

#[test]
fn quiet_stdout_carries_exactly_the_report() {
    for target in ["pathfinder".to_string(), alternating()] {
        let args = ["profile", target.as_str(), "--log-level", "quiet"];
        let (a, b) = (run(&args), run(&args));
        assert_eq!(a.status.code(), Some(0), "{target}: {}", text(&a.stderr));
        assert!(a.stderr.is_empty(), "{target}: quiet run wrote to stderr");
        assert_eq!(a.stdout, b.stdout, "{target}: repeat runs differ");
        let out = text(&a.stdout);
        assert!(
            out.starts_with("==== xplacer profile: "),
            "{target}: chatter on stdout: {out}"
        );
    }
}

#[test]
fn json_mode_emits_one_document_on_stdout() {
    let out = run(&["profile", "pathfinder", "--json", "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let doc = Json::parse(&text(&out.stdout)).expect("stdout is one JSON document");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("xplacer-profile/1")
    );
    // The human table moved to stderr.
    assert!(text(&out.stderr).starts_with("==== xplacer profile: "));
}

#[test]
fn usage_errors_exit_two_with_empty_stdout() {
    let missing = std::env::temp_dir().join("xplacer_profile_cli_no_such_file.cu");
    let missing = missing.to_str().unwrap();
    for (args, names) in [
        (vec!["profile", "pathfinder", "--top", "x"], "--top"),
        (vec!["profile", "nosuch"], "nosuch"),
        (vec!["profile", missing], missing),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", text(&out.stdout));
        let err = text(&out.stderr);
        assert!(err.contains(names), "{args:?}: {err}");
    }
}
