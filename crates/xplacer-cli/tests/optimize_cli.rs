//! `xplacer optimize` through the real binary: exit-code contract
//! (0 ok / 2 usage or IO error), stdout purity under `--log-level quiet`,
//! and `--json` stream separation.

use std::path::Path;

use xplacer_obs::json::Json;
use xplacer_optimize::{optimize, OptimizeConfig, Target};

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
    let path = alternating();
    let out = run(&["optimize", &path, "--smoke", "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(out.stderr.is_empty(), "quiet run wrote to stderr");
    // Exactly the library's rendering of the same search (the CLI's
    // defaults: one worker, beam 2).
    let mut cfg = OptimizeConfig::new(hetsim::platform::intel_pascal());
    cfg.smoke = true;
    let target = Target::Program {
        name: path.clone(),
        source: std::fs::read_to_string(&path).unwrap(),
    };
    let report = optimize(&target, &cfg).expect("the example optimizes");
    assert_eq!(text(&out.stdout), report.render());
}

#[test]
fn json_mode_emits_one_document_on_stdout() {
    let path = alternating();
    let out = run(&[
        "optimize",
        &path,
        "--smoke",
        "--json",
        "--log-level",
        "quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let doc = Json::parse(&text(&out.stdout)).expect("stdout is one JSON document");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("xplacer-optimize/1")
    );
}

#[test]
fn usage_errors_exit_two_with_empty_stdout() {
    let missing = std::env::temp_dir().join("xplacer_optimize_cli_no_such_file.cu");
    let missing = missing.to_str().unwrap();
    for (args, names) in [
        (vec!["optimize", "lulesh", "--jobs", "0"], "--jobs"),
        (vec!["optimize", "nosuch", "--smoke"], "nosuch"),
        (vec!["optimize", missing, "--smoke"], missing),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", text(&out.stdout));
        let err = text(&out.stderr);
        assert!(err.contains(names), "{args:?}: {err}");
    }
}
