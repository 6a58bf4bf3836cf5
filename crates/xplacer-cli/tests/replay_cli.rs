//! The replay verbs through the real binary: `blame --replay`,
//! `top --replay` and `diff` read recorded `--events-out` traces.
//! Exit-code contract (0 ok / 1 regressed `diff` / 2 unreadable input),
//! stdout purity under `--log-level quiet`, and error messages that name
//! the file (and, for parse errors, the byte offset).

use std::process::{Command, Output};
use std::sync::OnceLock;

use xplacer_obs::json::MAX_DEPTH;
use xplacer_obs::Json;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xplacer"))
        .args(args)
        .output()
        .expect("xplacer binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("output is UTF-8")
}

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("xplacer_replay_cli");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

/// Event traces of a cheap (pathfinder) and a costly (lulesh) run,
/// recorded once through `demo --events-out`.
fn traces() -> &'static (String, String) {
    static TRACES: OnceLock<(String, String)> = OnceLock::new();
    TRACES.get_or_init(|| {
        let record = |workload: &str| {
            let path = temp_path(&format!("{workload}_events.json"));
            let out = run(&[
                "demo",
                workload,
                "--log-level",
                "quiet",
                "--events-out",
                &path,
            ]);
            assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
            path
        };
        (record("pathfinder"), record("lulesh"))
    })
}

/// The cheap trace with the cost of its second event (a host-side
/// allocation) replaced by `cost`.
fn with_second_cost(cost: &str) -> String {
    let text = std::fs::read_to_string(&traces().0).unwrap();
    let key = "\"cost\": ";
    let at = text.match_indices(key).nth(1).expect("two events").0 + key.len();
    let end = at + text[at..].find(',').expect("cost is not the last field");
    format!("{}{cost}{}", &text[..at], &text[end..])
}

/// Broken inputs, each with the text its error must carry besides the
/// path: truncated and too deeply nested JSON (parse errors, so a byte
/// offset), a file that is not UTF-8, one that does not exist, and an
/// event with a negative cost.
fn broken_inputs() -> Vec<(String, String)> {
    let trace = std::fs::read(&traces().0).unwrap();
    let write = |name: &str, bytes: &[u8]| {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        path
    };
    vec![
        (
            write("negative_cost.json", with_second_cost("-5").as_bytes()),
            "event 1 (kind `alloc`): invalid cost -5 ns".to_string(),
        ),
        (
            write("truncated.json", &trace[..trace.len() / 2]),
            "at byte ".to_string(),
        ),
        (
            write("deep.json", &[b'['; 100_000]),
            format!("at byte {MAX_DEPTH}:"),
        ),
        (
            write("not_utf8.json", b"{\"schema\": \"\xff\xfe\"}"),
            "UTF-8".to_string(),
        ),
        (temp_path("missing.json"), "cannot read".to_string()),
    ]
}

#[test]
fn replay_verbs_exit_zero_with_only_the_report_on_stdout() {
    let trace = traces().0.as_str();
    let cases: [(Vec<&str>, &str); 3] = [
        (vec!["blame", "--replay", trace], "==== xplacer blame:"),
        (
            vec!["top", "--replay", trace, "--frames", "2", "--ascii"],
            "xplacer top - ",
        ),
        (vec!["diff", trace, trace], "==== xplacer diff:"),
    ];
    for (mut args, header) in cases {
        args.extend(["--log-level", "quiet"]);
        let a = run(&args);
        let b = run(&args);
        assert_eq!(a.status.code(), Some(0), "{args:?}: {}", text(&a.stderr));
        assert!(
            text(&a.stdout).starts_with(header),
            "{args:?}: chatter on stdout: {}",
            text(&a.stdout)
        );
        assert!(a.stderr.is_empty(), "{args:?}: quiet run wrote to stderr");
        assert_eq!(a.stdout, b.stdout, "{args:?}: repeat runs differ");
    }
}

#[test]
fn regressed_diff_exits_one() {
    let (cheap, costly) = traces();
    let out = run(&["diff", cheap, costly, "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("verdict: regressed"));
    // The reverse direction is an improvement.
    let out = run(&["diff", costly, cheap, "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
}

#[test]
fn unreadable_inputs_exit_two_with_the_path_on_stderr() {
    let good = &traces().0;
    for (bad, detail) in broken_inputs() {
        for args in [
            vec!["blame", "--replay", &bad],
            vec!["top", "--replay", &bad],
            vec!["diff", good, &bad],
        ] {
            let out = run(&args);
            let err = text(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
            assert!(out.stdout.is_empty(), "{args:?}: wrote to stdout");
            assert!(
                err.contains(&bad) && err.contains(&detail),
                "{args:?}: stderr must name {bad} and `{detail}`: {err}"
            );
        }
    }
}

#[test]
fn a_huge_cost_is_blamed_without_overflow() {
    let path = temp_path("huge_cost.json");
    std::fs::write(&path, with_second_cost("1e300")).unwrap();
    let out = run(&["blame", "--replay", &path, "--json", "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let doc = Json::parse(&text(&out.stdout)).expect("blame JSON on stdout");
    let ticks: u64 = doc
        .get("rows")
        .and_then(Json::as_arr)
        .expect("rows")
        .iter()
        .map(|r| r.get("blame_ticks").and_then(Json::as_u64).expect("ticks"))
        .sum();
    let path_ns = doc.get("path_ns").and_then(Json::as_f64).expect("path_ns");
    assert!(path_ns > 0.0);
    assert_eq!(ticks as f64, path_ns * 1024.0, "rows must sum to the path");
}
