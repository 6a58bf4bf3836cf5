//! Chrome Trace Event Format exporter: turns an [`EventLog`] into a
//! `trace.json` document loadable in `chrome://tracing` or Perfetto.
//!
//! Layout: one process ("hetsim") with one thread track per stream (kernel,
//! memcpy, and prefetch spans land on the stream they executed on), a
//! "um driver" track of instant events (faults, migrations, duplications,
//! invalidations, evictions, allocation lifecycle), and counter tracks for
//! GPU-resident bytes and cumulative faults/migrations.
//!
//! Timestamps: the simulator clock is in nanoseconds; the trace format
//! wants microseconds, so every `ts`/`dur` is `ns / 1000`.

use hetsim::{Device, Event, EventLog, KernelSpan, MemcpySpan, PrefetchSpan, TimedEvent};

use crate::json::Json;
use crate::timeseries::Telemetry;

/// Process id used for all tracks.
const PID: u64 = 1;
/// Thread id of the instant-event track; stream `s` maps to tid `s + 1`.
const DRIVER_TID: u64 = 0;

fn us(ns: f64) -> Json {
    Json::Num(ns / 1000.0)
}

fn meta(name: &str, tid: u64, value: &str) -> Json {
    let mut args = Json::obj();
    args.set("name", value.into());
    let mut j = Json::obj();
    j.set("ph", "M".into())
        .set("pid", PID.into())
        .set("tid", tid.into())
        .set("name", name.into())
        .set("args", args);
    j
}

fn span(name: &str, cat: &str, tid: u64, start_ns: f64, end_ns: f64, args: Json) -> Json {
    let mut j = Json::obj();
    j.set("ph", "X".into())
        .set("pid", PID.into())
        .set("tid", tid.into())
        .set("name", name.into())
        .set("cat", cat.into())
        .set("ts", us(start_ns))
        .set("dur", us(end_ns - start_ns))
        .set("args", args);
    j
}

fn instant(name: &str, cat: &str, t_ns: f64, args: Json) -> Json {
    let mut j = Json::obj();
    j.set("ph", "i".into())
        .set("pid", PID.into())
        .set("tid", DRIVER_TID.into())
        .set("name", name.into())
        .set("cat", cat.into())
        .set("ts", us(t_ns))
        .set("s", "t".into())
        .set("args", args);
    j
}

fn counter(name: &str, t_ns: f64, value: f64) -> Json {
    let mut args = Json::obj();
    args.set("value", Json::Num(value));
    let mut j = Json::obj();
    j.set("ph", "C".into())
        .set("pid", PID.into())
        .set("tid", DRIVER_TID.into())
        .set("name", name.into())
        .set("ts", us(t_ns))
        .set("args", args);
    j
}

/// Running state for the counter tracks.
#[derive(Default)]
struct Counters {
    gpu_resident: f64,
    faults: u64,
    migrations: u64,
}

impl Counters {
    /// Apply one event; returns which counters changed.
    fn apply(&mut self, ev: &Event) -> (bool, bool, bool) {
        let mut resident = false;
        let mut faults = false;
        let mut migrations = false;
        match ev {
            Event::PageFault { .. } => {
                self.faults += 1;
                faults = true;
            }
            Event::Migration { to, bytes, .. } => {
                self.migrations += 1;
                migrations = true;
                match to {
                    Device::Gpu => self.gpu_resident += *bytes as f64,
                    Device::Cpu => self.gpu_resident -= *bytes as f64,
                }
                resident = true;
            }
            Event::ReadDup {
                to: Device::Gpu,
                bytes,
                ..
            } => {
                self.gpu_resident += *bytes as f64;
                resident = true;
            }
            Event::Evict { bytes, .. } => {
                self.gpu_resident -= *bytes as f64;
                resident = true;
            }
            Event::Prefetch(p) => {
                // `bytes_moved` is the traffic the prefetch actually
                // caused (pages already at the destination don't move).
                match p.to {
                    Device::Gpu => self.gpu_resident += p.bytes_moved as f64,
                    Device::Cpu => self.gpu_resident -= p.bytes_moved as f64,
                }
                resident = true;
            }
            _ => {}
        }
        self.gpu_resident = self.gpu_resident.max(0.0);
        (resident, faults, migrations)
    }
}

/// Render the full trace document. Event order (and therefore output) is
/// deterministic: it follows the log's recording order.
pub fn chrome_trace(log: &EventLog) -> Json {
    chrome_trace_with_series(log, None)
}

/// [`chrome_trace`] plus per-epoch counter lanes from the telemetry
/// series: interconnect bandwidth (GB/s) and fault rate (faults/epoch),
/// one `"ph":"C"` sample per epoch, so Perfetto shows the time-resolved
/// lanes alongside the kernel spans.
pub fn chrome_trace_with_series(log: &EventLog, series: Option<&Telemetry>) -> Json {
    let mut events = Vec::new();
    events.push(meta("process_name", DRIVER_TID, "hetsim"));
    events.push(meta("thread_name", DRIVER_TID, "um driver"));
    // Name a stream track the first time a span lands on it.
    let mut named_streams: Vec<u64> = Vec::new();
    let mut name_stream = |events: &mut Vec<Json>, s: u64| {
        if !named_streams.contains(&s) {
            named_streams.push(s);
            events.push(meta("thread_name", s + 1, &format!("stream {s}")));
        }
    };

    let mut counters = Counters::default();
    for TimedEvent { t_ns, event, .. } in log.events() {
        let t = *t_ns;
        match event {
            Event::KernelEnd(kernel) => {
                let KernelSpan {
                    name,
                    stream,
                    start_ns,
                    end_ns,
                } = &**kernel;
                let tid = stream.0 as u64;
                name_stream(&mut events, tid);
                events.push(span(
                    name,
                    "kernel",
                    tid + 1,
                    *start_ns,
                    *end_ns,
                    Json::obj(),
                ));
            }
            Event::Memcpy(copy) => {
                let MemcpySpan {
                    bytes,
                    kind,
                    stream,
                    start_ns,
                    end_ns,
                    ..
                } = &**copy;
                let tid = stream.0 as u64;
                name_stream(&mut events, tid);
                let mut args = Json::obj();
                args.set("bytes", (*bytes).into());
                events.push(span(
                    &format!("memcpy {kind:?}"),
                    "memcpy",
                    tid + 1,
                    *start_ns,
                    *end_ns,
                    args,
                ));
            }
            Event::Prefetch(prefetch) => {
                let PrefetchSpan {
                    addr,
                    bytes,
                    to,
                    stream,
                    start_ns,
                    end_ns,
                    ..
                } = &**prefetch;
                let tid = stream.0 as u64;
                name_stream(&mut events, tid);
                let mut args = Json::obj();
                args.set("addr", format!("0x{addr:x}").into())
                    .set("bytes", (*bytes).into())
                    .set("to", to.to_string().into());
                events.push(span(
                    &format!("prefetch→{to}"),
                    "um",
                    tid + 1,
                    *start_ns,
                    *end_ns,
                    args,
                ));
            }
            Event::PageFault { dev, page, write } => {
                let mut args = Json::obj();
                args.set("page", (*page).into())
                    .set("write", (*write).into());
                events.push(instant(&format!("fault {dev}"), "um", t, args));
            }
            Event::Migration { page, to, bytes } => {
                let mut args = Json::obj();
                args.set("page", (*page).into())
                    .set("bytes", (*bytes).into());
                events.push(instant(&format!("migrate→{to}"), "um", t, args));
            }
            Event::ReadDup { page, to, bytes } => {
                let mut args = Json::obj();
                args.set("page", (*page).into())
                    .set("bytes", (*bytes).into());
                events.push(instant(&format!("dup→{to}"), "um", t, args));
            }
            Event::Invalidate { page, copies } => {
                let mut args = Json::obj();
                args.set("page", (*page).into())
                    .set("copies", (*copies as u64).into());
                events.push(instant("invalidate", "um", t, args));
            }
            Event::Evict { pages, bytes, .. } => {
                let mut args = Json::obj();
                args.set("pages", (*pages as u64).into())
                    .set("bytes", (*bytes).into());
                events.push(instant("evict", "um", t, args));
            }
            Event::Alloc { base, bytes, kind } => {
                let mut args = Json::obj();
                args.set("base", format!("0x{base:x}").into())
                    .set("bytes", (*bytes).into())
                    .set("kind", kind.api_name().into());
                events.push(instant("alloc", "mem", t, args));
            }
            Event::Free { base } => {
                let mut args = Json::obj();
                args.set("base", format!("0x{base:x}").into());
                events.push(instant("free", "mem", t, args));
            }
            Event::Advise {
                addr,
                bytes,
                advice,
            } => {
                let mut args = Json::obj();
                args.set("addr", format!("0x{addr:x}").into())
                    .set("bytes", (*bytes).into())
                    .set("advice", format!("{advice:?}").into());
                events.push(instant("memAdvise", "um", t, args));
            }
            Event::KernelBegin { name } => {
                events.push(instant(&format!("launch {name}"), "kernel", t, Json::obj()));
            }
        }
        let (resident, faults, migrations) = counters.apply(event);
        if resident {
            events.push(counter("gpu_resident_bytes", t, counters.gpu_resident));
        }
        if faults {
            events.push(counter("cum_faults", t, counters.faults as f64));
        }
        if migrations {
            events.push(counter("cum_migrations", t, counters.migrations as f64));
        }
    }

    if let Some(t) = series {
        for (i, s) in t.global().iter().enumerate() {
            let at = i as f64 * t.epoch_ns();
            events.push(counter(
                "epoch_bandwidth_gbps",
                at,
                s.bytes_moved as f64 / t.epoch_ns(),
            ));
            events.push(counter("epoch_faults", at, s.faults as f64));
        }
    }

    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ns".into());
    if log.dropped() > 0 {
        doc.set("droppedEvents", log.dropped().into());
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{platform, Machine, MemAdvise};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn demo_log() -> EventLog {
        let mut m = Machine::new(platform::intel_pascal());
        let log = Rc::new(RefCell::new(EventLog::new()));
        m.add_hook(log.clone());
        let p = m.alloc_managed::<f64>(4096);
        m.mem_advise(p, MemAdvise::SetReadMostly);
        for i in 0..p.len {
            m.st(p, i, 1.0);
        }
        m.launch("sum", p.len, |t, m| {
            let _ = m.ld(p, t);
        });
        m.free(p);
        let log = log.borrow().clone();
        log
    }

    #[test]
    fn trace_is_valid_json_with_expected_tracks() {
        let log = demo_log();
        let text = chrome_trace(&log).to_string_compact();
        let doc = Json::parse(&text).expect("trace must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"M"), "metadata events present");
        assert!(phases.contains(&"X"), "kernel span present");
        assert!(phases.contains(&"i"), "instant events present");
        assert!(phases.contains(&"C"), "counter tracks present");
        // Exactly one kernel span for the one launch.
        let spans = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .count();
        assert_eq!(spans, 1);
    }

    #[test]
    fn output_is_deterministic() {
        let a = chrome_trace(&demo_log()).to_string_compact();
        let b = chrome_trace(&demo_log()).to_string_compact();
        assert_eq!(a, b);
    }

    #[test]
    fn counter_tracks_move() {
        let log = demo_log();
        let doc = chrome_trace(&log);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let resident: Vec<f64> = events
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() == Some("C")
                    && e.get("name").unwrap().as_str() == Some("gpu_resident_bytes")
            })
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("value")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert!(!resident.is_empty());
        assert!(resident.iter().any(|&v| v > 0.0), "GPU gained residency");
    }

    #[test]
    fn telemetry_series_adds_epoch_counter_lanes() {
        use crate::timeseries::TelemetryConfig;
        use hetsim::MemHook;
        let log = demo_log();
        let mut t = Telemetry::new(TelemetryConfig::default(), 12.0);
        for ev in log.events() {
            MemHook::on_event(&mut t, ev);
        }
        let doc = chrome_trace_with_series(&log, Some(&t));
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let lane = |name: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("ph").unwrap().as_str() == Some("C")
                        && e.get("name").unwrap().as_str() == Some(name)
                })
                .count()
        };
        assert_eq!(lane("epoch_bandwidth_gbps"), t.global().len());
        assert_eq!(lane("epoch_faults"), t.global().len());
        // Without a series the lanes are absent (back-compat).
        let plain = chrome_trace(&log);
        let plain_events = plain.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!plain_events
            .iter()
            .any(|e| e.get("name").unwrap().as_str() == Some("epoch_bandwidth_gbps")));
    }

    #[test]
    fn span_durations_are_positive_microseconds() {
        let log = demo_log();
        let doc = chrome_trace(&log);
        for e in doc.get("traceEvents").unwrap().as_arr().unwrap() {
            if e.get("ph").unwrap().as_str() == Some("X") {
                assert!(e.get("dur").unwrap().as_f64().unwrap() > 0.0);
                assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
    }
}
