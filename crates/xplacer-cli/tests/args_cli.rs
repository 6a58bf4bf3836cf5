//! The command-line grammar of every verb through the real binary: a
//! misspelled, repeated or value-less flag and a wrong number of
//! positionals exit 2 with empty stdout and the offending token on
//! stderr; `<verb> --help` lists the verb's flags; a flag gives the same
//! output before the target as after it.

use std::process::Output;

mod common;
use common::text;

const ALT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/mini/alternating.cu"
);
const PF: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/mini/pathfinder.cu"
);

/// Runs a command line given as its words, with `ALT` and `PF` standing
/// for the alternating and pathfinder example programs.
fn run(line: &str) -> Output {
    let words: Vec<&str> = line
        .split_whitespace()
        .map(|w| match w {
            "ALT" => ALT,
            "PF" => PF,
            w => w,
        })
        .collect();
    common::run(&words)
}

/// Every verb with the flags it declares besides `--log-level` and
/// `--help`.
const FLAGS: [(&str, &str); 12] = [
    ("instrument", ""),
    (
        "run",
        "--platform --plain --stats --trace-out --metrics-out --events-out --timeseries-out \
         --heatmap --json",
    ),
    (
        "analyze",
        "--platform --stats --trace-out --metrics-out --events-out --timeseries-out --heatmap \
         --json",
    ),
    ("advise", "--platform"),
    (
        "demo",
        "--platform --trace-out --metrics-out --events-out --timeseries-out --heatmap --json",
    ),
    ("profile", "--platform --top --folded-out --json"),
    (
        "top",
        "--replay --platform --frames --ascii --epoch-ns --buckets --timeseries-out --json",
    ),
    ("blame", "--replay --platform --top --folded-out --json"),
    ("diff", "--threshold --top --json"),
    ("optimize", "--platform --jobs --beam --smoke --out --json"),
    ("check", "--platform --max-errors --no-bulk --json"),
    ("platforms", ""),
];

/// Requires exit 2, empty stdout, and `token` plus the verb's usage on
/// stderr.
fn assert_usage_error(line: &str, token: &str) {
    let out = run(line);
    let err = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{line}: {err}");
    assert!(out.stdout.is_empty(), "{line}: {}", text(&out.stdout));
    assert!(
        err.contains(token),
        "{line}: stderr must name `{token}`: {err}"
    );
    let verb = line.split(' ').next().unwrap();
    let usage = format!("usage: xplacer {verb}");
    assert!(err.contains(&usage), "{line}: no usage on stderr: {err}");
}

#[test]
fn misspelled_flags_exit_two_naming_the_flag() {
    for line in [
        "instrument ALT --plain",
        "run ALT --jsonn",
        "analyze ALT --platfrom power9",
        // `--plain` is a `run` flag only; `analyze` refuses it before
        // running the program.
        "analyze PF --plain",
        "advise ALT --json",
        "demo nn --stats",
        "profile nn --topp 3",
        "top nn --frame 2",
        "blame nn --replay-out x.json",
        "diff a.json b.json --treshold 0.1",
        "optimize nn --job 2",
        "check nn --no-bulkk",
        "platforms --json",
    ] {
        let flag = line.split(' ').find(|w| w.starts_with("--")).unwrap();
        assert_usage_error(line, &format!("unknown flag `{flag}`"));
    }
}

#[test]
fn missing_values_extra_positionals_and_repeats_exit_two() {
    for (line, token) in [
        // A value flag at the end, or followed by another flag.
        ("run ALT --trace-out", "`--trace-out` needs a value"),
        ("run ALT --trace-out --json", "`--trace-out` needs a value"),
        ("profile nn --top", "`--top` needs a value"),
        (
            "check nn --max-errors --json",
            "`--max-errors` needs a value",
        ),
        ("demo nn --log-level", "`--log-level` needs a value"),
        // One positional too many, or too few.
        ("run ALT PF", PF),
        ("instrument ALT extra", "unexpected argument `extra`"),
        ("demo nn extra", "unexpected argument `extra`"),
        ("check nn gaussian", "unexpected argument `gaussian`"),
        ("diff a.json b.json c.json", "unexpected argument `c.json`"),
        ("platforms extra", "unexpected argument `extra`"),
        ("diff a.json", "missing <a.json> <b.json>"),
        ("advise", "missing <file.cu>"),
        ("top", "missing <workload|file.cu>"),
        // Any repeated flag.
        ("profile nn --top 3 --top 5", "`--top` given twice"),
        ("run ALT --json --json", "`--json` given twice"),
        (
            "demo nn --platform volta --platform power9",
            "`--platform` given twice",
        ),
        (
            "check nn --log-level quiet --log-level debug",
            "`--log-level` given twice",
        ),
        // Values out of range, non-finite ones included.
        (
            "top nn --epoch-ns inf",
            "`--epoch-ns` expects a number >= 1",
        ),
        ("top nn --buckets 1", "`--buckets` expects a number >= 2"),
        // ... and above the bounds that keep `top`'s memory small.
        (
            "top nn --frames 18446744073709551615",
            "`--frames` expects a number >= 1 and <= 1000",
        ),
        (
            "top lulesh --epoch-ns 1 --buckets 100000000",
            "`--buckets` expects a number >= 2 and <= 4096",
        ),
        (
            "diff a.json b.json --threshold NaN",
            "`--threshold` expects",
        ),
        ("optimize nn --beam 0", "`--beam` expects a number >= 1"),
        ("blame nn --top -1", "`--top` expects a number >= 0"),
        (
            "demo nn --log-level loud",
            "`loud` (expected info|quiet|debug)",
        ),
        // `--replay` takes neither a target nor a platform.
        ("top nn --replay f.json", "unexpected argument `nn`"),
        ("blame --replay f.json --platform volta", "`--platform`"),
    ] {
        assert_usage_error(line, token);
    }
}

#[test]
fn help_lists_every_flag_of_the_verb() {
    for (verb, flags) in FLAGS {
        let flags: Vec<&str> = flags.split_whitespace().collect();
        for line in [format!("{verb} --help"), format!("{verb} nn --help")] {
            let out = run(&line);
            assert_eq!(out.status.code(), Some(0), "{line}");
            assert!(out.stderr.is_empty(), "{line}: {}", text(&out.stderr));
            let help = text(&out.stdout);
            assert!(help.starts_with(&format!("usage: xplacer {verb}")));
            let listed: Vec<&str> = help
                .lines()
                .filter_map(|l| l.strip_prefix("  --"))
                .map(|l| l.split(' ').next().unwrap())
                .collect();
            let expected: Vec<String> = flags
                .iter()
                .chain(&["--log-level", "--help"])
                .map(|f| f[2..].to_string())
                .collect();
            assert_eq!(listed, expected, "{help}");
        }
    }
    // The verb list names every verb and where to find its flags.
    let list = text(&run("--help").stdout);
    for (verb, _) in FLAGS {
        assert!(list.contains(&format!("\n  {verb}")), "{verb}: {list}");
    }
    assert!(list.contains("`xplacer <verb> --help`"), "{list}");
}

#[test]
fn a_flag_before_the_target_acts_as_after_it() {
    for (verb, flags, target) in [
        ("instrument", "", "ALT"),
        ("run", "--plain", "PF"),
        ("analyze", "--platform power9", "ALT"),
        ("advise", "--platform volta", "ALT"),
        ("demo", "--platform volta", "lulesh"),
        ("profile", "--platform volta", "nn"),
        ("top", "--frames 2 --ascii", "pathfinder"),
        ("blame", "--top 3", "nn"),
        ("optimize", "--smoke", "ALT"),
        ("check", "--json", "nn"),
    ] {
        let before = format!("{verb} --log-level quiet {flags} {target}");
        let after = format!("{verb} {target} {flags} --log-level quiet");
        let (a, b) = (run(&before), run(&after));
        assert_eq!(a.status.code(), Some(0), "{before}: {}", text(&a.stderr));
        assert_eq!(b.status.code(), Some(0), "{after}: {}", text(&b.stderr));
        assert!(!a.stdout.is_empty(), "{before}");
        assert_eq!(text(&a.stdout), text(&b.stdout), "{before} vs {after}");
    }
}

#[test]
fn platform_names_the_accepted_values() {
    let out = run("demo pathfinder --platform power9 --log-level quiet");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).starts_with("pathfinder on IBM+Volta:"));
    assert_usage_error(
        "demo pathfinder --platform p100",
        "unknown --platform `p100` (expected pascal|volta|power9)",
    );
    let help = text(&run("demo --help").stdout);
    assert!(help.contains("pascal|volta|power9"), "{help}");
}

#[test]
fn a_target_is_a_file_exactly_when_it_ends_in_cu() {
    // `smith-waterman` names the `sw` workload for every verb.
    let out = run("check smith-waterman --log-level quiet");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("clean"));
    // Any other name is a workload, never a file.
    for verb in ["check", "profile", "optimize", "top", "blame"] {
        let out = run(&format!("{verb} prog.txt --log-level quiet"));
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb}: {err}");
        assert!(out.stdout.is_empty(), "{verb}: {}", text(&out.stdout));
        let expected = "unknown workload `prog.txt` (expected lulesh|sw|pathfinder|";
        assert!(err.contains(expected), "{verb}: {err}");
    }
}

#[test]
fn instrument_reports_its_replacements_at_info_level() {
    let out = run("instrument ALT");
    assert_eq!(out.status.code(), Some(0));
    assert!(text(&out.stderr).starts_with("replacements applied:\n"));
    let quiet = run("instrument ALT --log-level quiet");
    assert_eq!(quiet.status.code(), Some(0));
    assert!(quiet.stderr.is_empty(), "{}", text(&quiet.stderr));
    assert_eq!(quiet.stdout, out.stdout);
}

#[test]
fn an_argument_that_is_not_utf8_exits_two_naming_it() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;
    let bad = OsStr::from_bytes(b"\xff");
    for args in [vec![bad], vec![OsStr::new("check"), OsStr::new("nn"), bad]] {
        let out = common::xplacer()
            .args(&args)
            .output()
            .expect("xplacer binary runs");
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", text(&out.stdout));
        let n = args.len();
        assert!(
            err.starts_with(&format!(
                "xplacer: argument {n} is not valid UTF-8\nusage: xplacer <verb>"
            )),
            "{args:?}: {err}"
        );
    }
}
