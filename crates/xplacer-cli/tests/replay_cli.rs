//! The replay verbs through the real binary: `blame --replay`,
//! `top --replay` and `diff` read recorded `--events-out` traces.
//! Exit-code contract (0 ok / 1 regressed `diff` / 2 unreadable input),
//! stdout purity under `--log-level quiet`, and error messages that name
//! the file (and, for parse errors, the byte offset).

use std::sync::OnceLock;

use xplacer_obs::json::MAX_DEPTH;
use xplacer_obs::Json;

mod common;
use common::{run, text};

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

/// The trace at `path` with the value of its `nth` field named `key`
/// replaced by `value`.
fn with_field(path: &str, key: &str, nth: usize, value: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let key = format!("\"{key}\": ");
    let at = text.match_indices(&key).nth(nth).expect("field present").0 + key.len();
    let end = at + text[at..].find([',', '\n']).expect("the field ends");
    format!("{}{value}{}", &text[..at], &text[end..])
}

/// The cheap trace with an evict of one page inserted as its second
/// event, `writeback_pages` of it written back.
fn with_evict(writeback_pages: u64) -> String {
    let mut doc = Json::parse(&std::fs::read_to_string(&traces().0).unwrap()).unwrap();
    let mut events = doc.get("events").and_then(Json::as_arr).unwrap().to_vec();
    let mut evict = Json::obj();
    evict
        .set("t", events[0].get("t").unwrap().clone())
        .set("cost", Json::Num(0.0))
        .set("kind", "evict".into())
        .set("pages", 1u64.into())
        .set("bytes", 65_536u64.into())
        .set("writeback_pages", writeback_pages.into())
        .set("writeback_bytes", 65_536u64.into());
    events.insert(1, evict);
    doc.set("events", Json::Arr(events));
    doc.to_string_pretty()
}

/// Broken inputs, each with the text its error must carry besides the
/// path: truncated and too deeply nested JSON (parse errors, so a byte
/// offset), a file that is not UTF-8, one that does not exist, an event
/// with a negative cost, a page count past `u32`, a context field that
/// does not read, and a GPU the node does not have.
fn broken_inputs() -> Vec<(String, String)> {
    let trace = std::fs::read(&traces().0).unwrap();
    let write = |name: &str, bytes: &[u8]| {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        path
    };
    vec![
        (
            write(
                "negative_cost.json",
                with_field(&traces().0, "cost", 1, "-5").as_bytes(),
            ),
            "event 1 (kind `alloc`): invalid cost -5 ns".to_string(),
        ),
        (
            write(
                "writeback_overflow.json",
                with_evict(1 << 32 | 1).as_bytes(),
            ),
            "event 1: `writeback_pages` out of range".to_string(),
        ),
        (
            write(
                "bad_seq.json",
                with_field(&traces().0, "seq", 0, "-1").as_bytes(),
            ),
            "`seq` not a u64".to_string(),
        ),
        (
            write(
                "gpu1.json",
                with_field(&traces().1, "dev", 0, "\"gpu1\"").as_bytes(),
            ),
            "bad device `gpu1`".to_string(),
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
fn a_page_count_that_fits_u32_is_read() {
    // `writeback_overflow.json` but for the count, which the reader used
    // to wrap to this one without a word.
    let path = temp_path("writeback_one.json");
    std::fs::write(&path, with_evict(1)).unwrap();
    let good = traces().0.as_str();
    for args in [vec!["blame", "--replay", &path], vec!["diff", good, &path]] {
        let out = run(&[&args[..], &["--log-level", "quiet"]].concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            text(&out.stderr)
        );
    }
}

#[test]
fn a_huge_cost_is_blamed_without_overflow() {
    let path = temp_path("huge_cost.json");
    std::fs::write(&path, with_field(&traces().0, "cost", 1, "1e300")).unwrap();
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

#[test]
fn events_out_keeps_every_event_a_live_verb_sees() {
    // More events than a 65 536-event ring holds: `run --events-out`
    // records all of them, so replaying the file blames exactly what live
    // `blame` blames.
    let program = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/events/ring_overflow.cu"
    );
    let events = temp_path("ring_overflow_events.json");
    let out = run(&["run", program, "--events-out", &events]);
    let err = text(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("truncated"), "{err}");
    let doc = Json::parse(&std::fs::read_to_string(&events).unwrap()).unwrap();
    let held = doc.get("events").and_then(Json::as_arr).expect("events");
    assert!(held.len() > 65_536, "{} events", held.len());
    assert_eq!(doc.get("dropped").and_then(Json::as_u64), Some(0));
    let live = run(&["blame", program, "--log-level", "quiet"]);
    let replay = run(&["blame", "--replay", &events, "--log-level", "quiet"]);
    assert_eq!(live.status.code(), Some(0), "{}", text(&live.stderr));
    assert_eq!(replay.status.code(), Some(0), "{}", text(&replay.stderr));
    assert_eq!(text(&live.stdout), text(&replay.stdout));
}
