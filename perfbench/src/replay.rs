//! `replay`: set-up records event traces of seeded `native` instances and
//! serializes them as `--events-out` does; one op answers
//! `blame --replay`, `top --replay` and `diff` for one trace, the diff
//! against a sibling trace of the same workload on the other platform or
//! with the read-mostly hint flipped. Only xplacer-obs's reader and folds
//! run inside an op.
//!
//! Every op gets a trace of its own, so sizes are continuous: set-up
//! records each configuration once with a deep event ring, then keeps a
//! seeded share of its events per op by replaying the stream into a
//! smaller ring — the bound `--events-out` also has. Shares are
//! stratified over 3–100 % per configuration, so sizes spread evenly over
//! a few KB to ~150 KB for every seed. Only lulesh and sw are recorded:
//! the other workloads' full traces are 2–40 KB and would pile up at the
//! small end.

use std::cell::RefCell;
use std::rc::Rc;

use hetsim::{platform, EventLog, Machine, MemAdvise, MemHook, Platform};
use xplacer_core::{AllocSummary, OnlineConfig};
use xplacer_obs::diff::DEFAULT_THRESHOLD;
use xplacer_obs::{
    diff, events_json, replay, BlameReport, DashOpts, EventTrace, Json, RunDigest, TelemetryConfig,
};
use xplacer_workloads::{register_names, run_workload};

use crate::rng::Rng;
use crate::{spans, Counts, Plan, Workload};

pub fn plan() -> Plan<Replay> {
    Plan {
        ops_per_s: 9.5,
        setup_reps: 5,
        warmup: CONFIGS,
        heavy: &["obs.trace_load", "obs.blame", "obs.top", "obs.diff"],
        setup: Replay::setup,
    }
}

const WORKLOADS: [&str; 2] = ["lulesh", "sw"];
/// Workload × platform × hint.
const CONFIGS: usize = WORKLOADS.len() * 4;
/// Frames rendered per `top --replay`.
const FRAMES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    pub workload: &'static str,
    pub nvlink: bool,
    pub read_mostly: bool,
}

impl Config {
    fn of(c: usize) -> Config {
        Config {
            workload: WORKLOADS[c % 2],
            nvlink: c & 2 != 0,
            read_mostly: c & 4 != 0,
        }
    }

    /// The trace `diff` compares against: lulesh with the hint flipped,
    /// sw on the other platform.
    fn sibling(c: usize) -> usize {
        if Config::of(c).workload == "lulesh" {
            c ^ 4
        } else {
            c ^ 2
        }
    }
}

/// One configuration run with `Tracer` + a deep `EventLog`.
struct Recording {
    config: Config,
    platform: Platform,
    elapsed_ns: f64,
    log: EventLog,
    allocs: Vec<AllocSummary>,
}

fn record(config: Config) -> Recording {
    let platform = if config.nvlink {
        platform::power9_volta()
    } else {
        platform::intel_pascal()
    };
    let mut m = Machine::new(platform.clone());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::with_capacity(usize::MAX >> 1)));
    m.add_hook(log.clone());
    run_workload(&mut m, config.workload, |m, names| {
        register_names(&tracer, names);
        if config.read_mostly {
            for (addr, _) in names {
                let Ok(a) = m.find_alloc(*addr) else { continue };
                let (base, size) = (a.base, a.size);
                let _ = m.try_mem_advise(base, size, MemAdvise::SetReadMostly);
            }
        }
    })
    .unwrap_or_else(|e| panic!("recording {config:?}: {e}"));
    let elapsed_ns = m.elapsed_ns();
    let allocs = xplacer_core::summarize(&tracer.borrow().smt, false);
    let log = log.borrow().clone();
    Recording {
        config,
        platform,
        elapsed_ns,
        log,
        allocs,
    }
}

impl Recording {
    /// The last `keep` of the stream, as a ring of that size would have
    /// kept it, serialized as `--events-out` does; plus the in-memory
    /// trace of the same events.
    fn truncated(&self, keep: f64) -> (String, EventTrace) {
        let mut log = EventLog::with_capacity(((self.log.len() as f64 * keep) as usize).max(1));
        for ev in self.log.events() {
            log.on_event(ev);
        }
        let w = self.config.workload;
        let text = spans::span(spans::SERIALIZE, || {
            let doc = events_json(&log, w, self.elapsed_ns, &self.platform, &self.allocs);
            format!("{}\n", doc.to_string_pretty())
        });
        let names = self
            .allocs
            .iter()
            .map(|s| (s.base, s.name.clone()))
            .collect();
        let trace = EventTrace::from_recording(w, &self.platform, self.elapsed_ns, &log, names);
        (text, trace)
    }
}

/// The trace one op replays, its sibling, and the blame computed from the
/// in-memory trace.
pub struct OpTrace {
    pub config: Config,
    pub keep: f64,
    pub text: String,
    pub sibling: String,
    blame_json: String,
}

/// Configuration and kept share of each op: `n` rounded up to whole rounds
/// of the configurations, each configuration's shares stratified.
pub fn op_shapes(seed: u64, n: usize) -> Vec<(usize, f64)> {
    let mut rng = Rng::new(seed, "replay");
    let per = n.div_ceil(CONFIGS);
    let mut shapes: Vec<(usize, f64)> = (0..CONFIGS)
        .flat_map(|c| {
            rng.strata(per)
                .into_iter()
                .map(move |u| (c, 0.03 + 0.97 * u))
                .collect::<Vec<_>>()
        })
        .collect();
    rng.shuffle(&mut shapes);
    shapes
}

pub struct Replay {
    pub ops: Vec<OpTrace>,
}

impl Replay {
    pub fn setup(seed: u64, n: usize) -> Replay {
        let recordings: Vec<Recording> = (0..CONFIGS).map(|c| record(Config::of(c))).collect();
        let ops = op_shapes(seed, n)
            .into_iter()
            .map(|(c, keep)| {
                let (text, trace) = recordings[c].truncated(keep);
                OpTrace {
                    config: Config::of(c),
                    keep,
                    text,
                    sibling: recordings[Config::sibling(c)].truncated(keep).0,
                    blame_json: BlameReport::build(&trace).to_json().to_string_compact(),
                }
            })
            .collect();
        Replay { ops }
    }
}

pub struct Done {
    events: usize,
    blame: BlameReport,
    digest: RunDigest,
    frames: usize,
}

impl Workload for Replay {
    type Done = Done;

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn run(&self, i: usize) -> Result<Done, String> {
        let rec = &self.ops[i];
        let trace = spans::span("obs.trace_load", || EventTrace::parse(&rec.text))?;
        let blame = spans::span("obs.blame", || {
            let b = BlameReport::build(&trace);
            std::hint::black_box(b.render(10));
            b
        });
        let frames = spans::span("obs.top", || {
            let opts = DashOpts {
                ascii: true,
                ..DashOpts::default()
            };
            let out = replay(
                &trace,
                TelemetryConfig::default(),
                OnlineConfig::default(),
                FRAMES,
                &opts,
            );
            out.frames.len()
        });
        let digest = spans::span("obs.diff", || -> Result<RunDigest, String> {
            let load = |text: &str, source: &str| -> Result<RunDigest, String> {
                let doc = Json::parse(text).map_err(|e| e.to_string())?;
                RunDigest::from_json(&doc, source)
            };
            let a = load(&rec.text, "a.json")?;
            let b = load(&rec.sibling, "b.json")?;
            let d = diff(a.clone(), b, DEFAULT_THRESHOLD)?;
            std::hint::black_box(d.render(10));
            Ok(a)
        })?;
        Ok(Done {
            events: trace.events.len(),
            blame,
            digest,
            frames,
        })
    }

    fn verify(&self, i: usize, d: Done, counts: &mut Counts) -> Result<(), String> {
        let rec = &self.ops[i];
        let what = (rec.config, rec.keep);
        if d.blame.to_json().to_string_compact() != rec.blame_json {
            return Err(format!(
                "{what:?}: blame of the parsed trace differs from the recording's"
            ));
        }
        if !diff(d.digest.clone(), d.digest, DEFAULT_THRESHOLD)?.is_zero() {
            return Err(format!("{what:?}: self-diff is not zero"));
        }
        if d.frames != FRAMES {
            return Err(format!("{what:?}: {} frames rendered", d.frames));
        }
        *counts.entry("obs.trace_kb").or_default() += rec.text.len() as f64 / 1024.0;
        *counts.entry("obs.events").or_default() += d.events as f64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seeded_and_every_op_verifies() {
        let shapes = op_shapes(2, 16);
        assert_eq!(shapes, op_shapes(2, 16));
        assert_ne!(shapes, op_shapes(3, 16));
        let w = Replay::setup(2, 16);
        let same = Replay::setup(2, 16);
        for (x, y) in w.ops.iter().zip(&same.ops) {
            assert_eq!(x.text, y.text, "same seed, byte-identical traces");
        }
        let kb: Vec<usize> = w.ops.iter().map(|t| t.text.len() >> 10).collect();
        assert!(
            kb.iter().min() < Some(&40) && kb.iter().max() > Some(&60),
            "{kb:?}"
        );
        let mut counts = Counts::new();
        for i in 0..w.op_count() {
            let done = w.run(i).unwrap_or_else(|e| panic!("{e}"));
            w.verify(i, done, &mut counts)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
