//! The benchmark's own span recorder — unrelated to XPlacer's `Tracer`,
//! which traces the *simulated* program. These spans wrap the
//! benchmark's calls into each layer's public functions and measure host
//! CPU time ([`crate::clock`]), the clock of the end-to-end metrics. They
//! stay in memory and are written out once, at exit.
//!
//! Off (the untraced run), [`span`] costs one thread-local flag test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock;

/// The root span of one timed op; every layer span of the op is its
/// descendant, so layer self-times partition the op's time up to the
/// op span's own self time (benchmark glue).
pub const OP: &str = "op";
/// Root span of the set-up phase (only `obs.serialize` runs inside it).
pub const SETUP: &str = "setup";

/// Every layer span the benchmark records, with the per-layer metric its
/// summed self time feeds (`<name>_ms`).
pub const LAYERS: [&str; 16] = [
    "workloads.setup",
    "hetsim.plain",
    "core.traced",
    "core.analyze",
    "obs.profile",
    "obs.blame",
    "check.run",
    "lang.parse",
    "instrument.pass",
    "interp.plain",
    "interp.traced",
    "optimize.program",
    "optimize.workload",
    "obs.trace_load",
    "obs.top",
    "obs.diff",
];
/// Layer span recorded only inside [`SETUP`].
pub const SERIALIZE: &str = "obs.serialize";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the timed op this span belongs to (`None` outside ops).
    pub op: Option<usize>,
}

struct Recorder {
    /// CPU time at [`enable`]; span times are offsets from it.
    t0: u64,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn enable() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: clock::cpu_ns(),
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        })
    });
}

/// Pause or resume an enabled recorder; the time base is kept.
pub fn set_recording(on: bool) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.on = on;
        }
    });
}

/// Stop recording and hand back every span, in start order.
pub fn take() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Open a span named `name` under the innermost open one.
pub fn begin(name: &'static str) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut().filter(|rec| rec.on) {
            let now = clock::cpu_ns() - rec.t0;
            let idx = rec.spans.len();
            rec.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: rec.open.last().copied(),
                op: rec.op,
            });
            rec.open.push(idx);
        }
    });
}

/// Close the innermost open span.
pub fn end() {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut().filter(|rec| rec.on) {
            let now = clock::cpu_ns() - rec.t0;
            if let Some(idx) = rec.open.pop() {
                rec.spans[idx].end_ns = now;
            }
        }
    });
}

/// Close spans until only `depth` remain open — after a caught panic
/// unwound through `end` calls that never ran.
pub fn close_to(depth: usize) {
    while depth < open_depth() {
        end();
    }
}

pub fn open_depth() -> usize {
    REC.with(|r| {
        r.borrow()
            .as_ref()
            .filter(|rec| rec.on)
            .map_or(0, |rec| rec.open.len())
    })
}

/// Run `f` inside a span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    begin(name);
    let out = f();
    end();
    out
}

/// Tag spans opened from now on with op `id` (`None` ends the op).
pub fn set_op(id: Option<usize>) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = id;
        }
    });
}

/// Summed duration and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the part its
/// children cover. Children never outlive their parent, so the child
/// durations can simply be subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(kids);
    }
    out
}

/// Chrome trace-event JSON (the format `xplacer --trace-out` writes):
/// one complete ("X") event per span, plus a `perLayer` object holding
/// the self-time summary, which trace viewers ignore.
pub fn chrome_trace(spans: &[Span], per_layer: &[crate::Metric]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"op\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            sp.name,
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.op.map_or("null".to_string(), |o| o.to_string()),
        );
    }
    s.push_str("\n],\"perLayer\":{");
    for (i, (name, value, unit)) in per_layer.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," }
        );
    }
    s.push_str("\n}}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_spans_off_cost_nothing() {
        // Off: nothing recorded, the closure still runs.
        assert_eq!(span("x", || 5), 5);
        assert!(take().is_empty());

        enable();
        set_op(Some(0));
        span(OP, || {
            span("hetsim.plain", || {
                let t = clock::cpu_ns();
                while clock::cpu_ns() - t < 2_000_000 {}
            });
            span("check.run", || span("workloads.setup", || ()));
        });
        set_op(None);
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == Some(0)));
        assert_eq!(spans[3].parent, Some(2));
        let t = self_times(&spans);
        let op = t[OP];
        let sum: u64 = t.values().map(|v| v.self_ns).sum();
        assert_eq!(sum, op.total_ns, "self times partition the root span");
        assert!(t["hetsim.plain"].self_ns >= 2_000_000);
    }

    #[test]
    fn close_to_recovers_from_an_unwound_span() {
        enable();
        let depth = open_depth();
        let r = std::panic::catch_unwind(|| span("core.traced", || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(open_depth(), depth + 1);
        close_to(depth);
        assert_eq!(open_depth(), depth);
        assert_eq!(take().len(), 1);
    }
}
