//! Full event-stream export: the attributed [`TimedEvent`] sequence as a
//! self-describing JSON document, and the parser that reads it back.
//!
//! Where [`crate::metrics`] digests the stream (per-kind counts), this
//! module preserves it: every retained event with its timestamp, cost, and
//! attribution context, plus enough platform metadata (page size, link
//! bandwidth) to re-derive time-series and episodes offline. It is the
//! interchange format behind `xplacer top --replay` — record once, replay
//! the dashboard any number of times, deterministically.
//!
//! Timestamps are `f64` simulated ns serialized shortest-roundtrip, so a
//! parsed trace is bit-identical to the recorded one.

use std::collections::VecDeque;
use std::rc::Rc;

use hetsim::{
    AllocKind, AttrCtx, CopyKind, Device, Event, EventLog, MemAdvise, Platform, StreamId,
    TimedEvent,
};
use xplacer_core::AllocSummary;

use crate::json::Json;

/// Schema tag of the document this module writes.
pub const EVENTS_SCHEMA: &str = "xplacer-events/1";

fn hex(addr: u64) -> Json {
    format!("0x{addr:x}").into()
}

fn parse_hex(j: &Json) -> Option<u64> {
    let s = j.as_str()?;
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn device_str(d: Device) -> Json {
    d.to_string().into()
}

fn parse_device(s: &str) -> Option<Device> {
    if s == "cpu" {
        return Some(Device::Cpu);
    }
    s.strip_prefix("gpu")?.parse::<u8>().ok().map(Device::Gpu)
}

fn alloc_kind_str(k: AllocKind) -> String {
    match k {
        AllocKind::Managed => "managed".to_string(),
        AllocKind::Device(g) => format!("device{g}"),
        AllocKind::Host => "host".to_string(),
    }
}

fn parse_alloc_kind(s: &str) -> Option<AllocKind> {
    match s {
        "managed" => Some(AllocKind::Managed),
        "host" => Some(AllocKind::Host),
        _ => s
            .strip_prefix("device")?
            .parse::<u8>()
            .ok()
            .map(AllocKind::Device),
    }
}

fn copy_kind_str(k: CopyKind) -> &'static str {
    match k {
        CopyKind::HostToDevice => "h2d",
        CopyKind::DeviceToHost => "d2h",
        CopyKind::DeviceToDevice => "d2d",
        CopyKind::HostToHost => "h2h",
    }
}

fn parse_copy_kind(s: &str) -> Option<CopyKind> {
    match s {
        "h2d" => Some(CopyKind::HostToDevice),
        "d2h" => Some(CopyKind::DeviceToHost),
        "d2d" => Some(CopyKind::DeviceToDevice),
        "h2h" => Some(CopyKind::HostToHost),
        _ => None,
    }
}

fn advice_str(a: MemAdvise) -> String {
    match a {
        MemAdvise::SetReadMostly => "set_read_mostly".to_string(),
        MemAdvise::UnsetReadMostly => "unset_read_mostly".to_string(),
        MemAdvise::SetPreferredLocation(d) => format!("set_preferred_location:{d}"),
        MemAdvise::UnsetPreferredLocation => "unset_preferred_location".to_string(),
        MemAdvise::SetAccessedBy(d) => format!("set_accessed_by:{d}"),
        MemAdvise::UnsetAccessedBy(d) => format!("unset_accessed_by:{d}"),
    }
}

fn parse_advice(s: &str) -> Option<MemAdvise> {
    match s {
        "set_read_mostly" => return Some(MemAdvise::SetReadMostly),
        "unset_read_mostly" => return Some(MemAdvise::UnsetReadMostly),
        "unset_preferred_location" => return Some(MemAdvise::UnsetPreferredLocation),
        _ => {}
    }
    let (verb, dev) = s.split_once(':')?;
    let d = parse_device(dev)?;
    match verb {
        "set_preferred_location" => Some(MemAdvise::SetPreferredLocation(d)),
        "set_accessed_by" => Some(MemAdvise::SetAccessedBy(d)),
        "unset_accessed_by" => Some(MemAdvise::UnsetAccessedBy(d)),
        _ => None,
    }
}

fn event_body(out: &mut Json, ev: &Event) {
    match ev {
        Event::Alloc { base, bytes, kind } => {
            out.set("base", hex(*base))
                .set("bytes", (*bytes).into())
                .set("mem", alloc_kind_str(*kind).into());
        }
        Event::Free { base } => {
            out.set("base", hex(*base));
        }
        Event::PageFault { dev, page, write } => {
            out.set("dev", device_str(*dev))
                .set("page", (*page).into())
                .set("write", (*write).into());
        }
        Event::Migration { page, to, bytes } | Event::ReadDup { page, to, bytes } => {
            out.set("page", (*page).into())
                .set("to", device_str(*to))
                .set("bytes", (*bytes).into());
        }
        Event::Invalidate { page, copies } => {
            out.set("page", (*page).into())
                .set("copies", u64::from(*copies).into());
        }
        Event::Evict {
            pages,
            bytes,
            writeback_pages,
            writeback_bytes,
        } => {
            out.set("pages", u64::from(*pages).into())
                .set("bytes", (*bytes).into())
                .set("writeback_pages", u64::from(*writeback_pages).into())
                .set("writeback_bytes", (*writeback_bytes).into());
        }
        Event::Memcpy {
            dst,
            src,
            bytes,
            kind,
            stream,
            start_ns,
            end_ns,
        } => {
            out.set("dst", hex(*dst))
                .set("src", hex(*src))
                .set("bytes", (*bytes).into())
                .set("copy", copy_kind_str(*kind).into())
                .set("stream", stream.0.into())
                .set("start", Json::Num(*start_ns))
                .set("end", Json::Num(*end_ns));
        }
        Event::Advise {
            addr,
            bytes,
            advice,
        } => {
            out.set("addr", hex(*addr))
                .set("bytes", (*bytes).into())
                .set("advice", advice_str(*advice).into());
        }
        Event::Prefetch {
            addr,
            bytes,
            pages,
            bytes_moved,
            to,
            stream,
            start_ns,
            end_ns,
        } => {
            out.set("addr", hex(*addr))
                .set("bytes", (*bytes).into())
                .set("pages", u64::from(*pages).into())
                .set("bytes_moved", (*bytes_moved).into())
                .set("to", device_str(*to))
                .set("stream", stream.0.into())
                .set("start", Json::Num(*start_ns))
                .set("end", Json::Num(*end_ns));
        }
        Event::KernelBegin { name } => {
            out.set("name", name.as_str().into());
        }
        Event::KernelEnd {
            name,
            stream,
            start_ns,
            end_ns,
        } => {
            out.set("name", name.as_str().into())
                .set("stream", stream.0.into())
                .set("start", Json::Num(*start_ns))
                .set("end", Json::Num(*end_ns));
        }
    }
}

fn event_json(ev: &TimedEvent) -> Json {
    let mut j = Json::obj();
    j.set("t", Json::Num(ev.t_ns))
        .set("cost", Json::Num(ev.cost_ns))
        .set("kind", ev.event.kind_name().into());
    if let Some(k) = ev.ctx.kernel_name() {
        j.set("kernel", k.into())
            .set("seq", ev.ctx.launch_seq.into());
    }
    if ev.ctx.stream.0 != 0 {
        j.set("ctx_stream", ev.ctx.stream.0.into());
    }
    if let Some(a) = ev.ctx.alloc {
        j.set("alloc", hex(a));
    }
    event_body(&mut j, &ev.event);
    j
}

/// Serialize the retained event stream plus the platform facts replay
/// needs. `allocs` supplies the display names shown by the dashboard.
pub fn events_json(
    log: &EventLog,
    workload: &str,
    elapsed_ns: f64,
    platform: &Platform,
    allocs: &[AllocSummary],
) -> Json {
    let mut pf = Json::obj();
    pf.set("name", platform.name.into())
        .set("page_size", platform.page_size.into())
        .set("link_bw", Json::Num(platform.link_bw));
    let names = allocs
        .iter()
        .map(|a| {
            let mut j = Json::obj();
            j.set("base", hex(a.base))
                .set("name", a.name.as_str().into());
            j
        })
        .collect();
    let mut j = Json::obj();
    j.set("schema", EVENTS_SCHEMA.into())
        .set("workload", workload.into())
        .set("elapsed_ns", Json::Num(elapsed_ns))
        .set("platform", pf)
        .set("recorded", log.total_recorded().into())
        .set("dropped", log.dropped().into())
        .set("allocs", Json::Arr(names))
        .set("events", Json::Arr(log.events().map(event_json).collect()));
    j
}

/// A parsed events document: everything `xplacer top --replay` needs.
#[derive(Debug, Clone)]
pub struct EventTrace {
    pub workload: String,
    pub platform_name: String,
    pub page_size: u64,
    /// Interconnect bandwidth in bytes/ns (the model peak for utilization).
    pub link_bw: f64,
    pub elapsed_ns: f64,
    /// Events recorded over the run (including ones the ring dropped).
    pub recorded: u64,
    pub dropped: u64,
    /// Allocation display names, by base address.
    pub names: Vec<(u64, String)>,
    /// The event stream, oldest first. A trace packaged from a live
    /// recording shares the [`EventLog`]'s ring ([`EventLog::snapshot`]),
    /// so packaging costs no copy.
    pub events: Rc<VecDeque<TimedEvent>>,
}

impl EventTrace {
    /// Parse a serialized events document, validating stream-order
    /// monotonicity ([`validate_stream_order`]). This is the canonical
    /// text → trace entry point for `--replay`, `diff`, and `blame`.
    pub fn parse(text: &str) -> Result<EventTrace, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        events_from_json(&doc)
    }

    /// Package a live recording as the same trace `--replay` would parse
    /// from disk: the machine's platform facts plus the retained stream,
    /// shared with `log` in O(1).
    pub fn from_recording(
        workload: &str,
        platform: &Platform,
        elapsed_ns: f64,
        log: &EventLog,
        names: Vec<(u64, String)>,
    ) -> EventTrace {
        EventTrace {
            workload: workload.to_string(),
            platform_name: platform.name.to_string(),
            page_size: platform.page_size,
            link_bw: platform.link_bw,
            elapsed_ns,
            recorded: log.total_recorded(),
            dropped: log.dropped(),
            names,
            events: log.snapshot(),
        }
    }
}

/// Reject event sequences whose simulated timestamps run backwards within
/// a stream (or carry non-finite/negative stamps or costs, or inverted
/// spans).
///
/// The simulator never produces such a stream — each stream's stamps are
/// non-decreasing by construction — so a violation means the document was
/// hand-edited, truncated, or spliced from two runs. Catching it here
/// gives a spanned `event N` error instead of confusing replay output
/// (buckets silently swallowing out-of-order events) or a bogus blame DAG.
pub fn validate_stream_order(events: &[TimedEvent]) -> Result<(), String> {
    let mut last: std::collections::BTreeMap<usize, (f64, usize)> =
        std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let kind = ev.event.kind_name();
        if !ev.t_ns.is_finite() || ev.t_ns < 0.0 {
            return Err(format!(
                "event {i} (kind `{kind}`): invalid timestamp {} ns",
                ev.t_ns
            ));
        }
        if !ev.cost_ns.is_finite() || ev.cost_ns < 0.0 {
            return Err(format!(
                "event {i} (kind `{kind}`): invalid cost {} ns",
                ev.cost_ns
            ));
        }
        if let Some((s, e)) = ev.event.span() {
            if !s.is_finite() || !e.is_finite() || e < s {
                return Err(format!(
                    "event {i} (kind `{kind}`): inverted span [{s}, {e}] ns"
                ));
            }
        }
        let stream = ev.effective_stream().0;
        if let Some(&(prev_t, prev_i)) = last.get(&stream) {
            if ev.t_ns < prev_t {
                return Err(format!(
                    "event {i} (kind `{kind}`, stream {stream}): timestamp {} ns goes \
                     backwards past event {prev_i} at {prev_t} ns",
                    ev.t_ns
                ));
            }
        }
        last.insert(stream, (ev.t_ns, i));
    }
    Ok(())
}

fn parse_event(j: &Json) -> Result<TimedEvent, String> {
    let field = |k: &str| j.get(k).ok_or_else(|| format!("missing field `{k}`"));
    let num =
        |k: &str| field(k).and_then(|v| v.as_f64().ok_or_else(|| format!("`{k}` not a number")));
    let uint =
        |k: &str| field(k).and_then(|v| v.as_u64().ok_or_else(|| format!("`{k}` not a u64")));
    let text =
        |k: &str| field(k).and_then(|v| v.as_str().ok_or_else(|| format!("`{k}` not a string")));
    let addr =
        |k: &str| field(k).and_then(|v| parse_hex(v).ok_or_else(|| format!("`{k}` not hex")));
    let dev =
        |k: &str| text(k).and_then(|s| parse_device(s).ok_or_else(|| format!("bad device `{s}`")));
    let stream = || Ok::<_, String>(StreamId(uint("stream")? as usize));

    let kind = text("kind")?;
    let event = match kind {
        "alloc" => Event::Alloc {
            base: addr("base")?,
            bytes: uint("bytes")?,
            kind: text("mem")
                .and_then(|s| parse_alloc_kind(s).ok_or_else(|| format!("bad alloc kind `{s}`")))?,
        },
        "free" => Event::Free {
            base: addr("base")?,
        },
        "page_fault" => Event::PageFault {
            dev: dev("dev")?,
            page: uint("page")?,
            write: field("write")?.as_bool().ok_or("`write` not a bool")?,
        },
        "migration" => Event::Migration {
            page: uint("page")?,
            to: dev("to")?,
            bytes: uint("bytes")?,
        },
        "read_dup" => Event::ReadDup {
            page: uint("page")?,
            to: dev("to")?,
            bytes: uint("bytes")?,
        },
        "invalidate" => Event::Invalidate {
            page: uint("page")?,
            copies: uint("copies")? as u32,
        },
        "evict" => Event::Evict {
            pages: uint("pages")? as u32,
            bytes: uint("bytes")?,
            writeback_pages: uint("writeback_pages")? as u32,
            writeback_bytes: uint("writeback_bytes")?,
        },
        "memcpy" => Event::Memcpy {
            dst: addr("dst")?,
            src: addr("src")?,
            bytes: uint("bytes")?,
            kind: text("copy")
                .and_then(|s| parse_copy_kind(s).ok_or_else(|| format!("bad copy kind `{s}`")))?,
            stream: stream()?,
            start_ns: num("start")?,
            end_ns: num("end")?,
        },
        "advise" => Event::Advise {
            addr: addr("addr")?,
            bytes: uint("bytes")?,
            advice: text("advice")
                .and_then(|s| parse_advice(s).ok_or_else(|| format!("bad advice `{s}`")))?,
        },
        "prefetch" => Event::Prefetch {
            addr: addr("addr")?,
            bytes: uint("bytes")?,
            pages: uint("pages")? as u32,
            bytes_moved: uint("bytes_moved")?,
            to: dev("to")?,
            stream: stream()?,
            start_ns: num("start")?,
            end_ns: num("end")?,
        },
        "kernel_begin" => Event::KernelBegin {
            name: text("name")?.to_string(),
        },
        "kernel_end" => Event::KernelEnd {
            name: text("name")?.to_string(),
            stream: stream()?,
            start_ns: num("start")?,
            end_ns: num("end")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };

    let ctx = AttrCtx {
        kernel: j.get("kernel").and_then(Json::as_str).map(Into::into),
        launch_seq: j.get("seq").and_then(Json::as_u64).unwrap_or(0),
        stream: StreamId(j.get("ctx_stream").and_then(Json::as_u64).unwrap_or(0) as usize),
        alloc: j.get("alloc").and_then(parse_hex),
    };
    Ok(TimedEvent {
        t_ns: num("t")?,
        cost_ns: num("cost")?,
        ctx,
        event,
    })
}

/// Parse an [`events_json`] document back into an [`EventTrace`].
pub fn events_from_json(doc: &Json) -> Result<EventTrace, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(EVENTS_SCHEMA) {
        return Err(format!("not an {EVENTS_SCHEMA} document"));
    }
    let pf = doc.get("platform").ok_or("missing `platform`")?;
    let names = doc
        .get("allocs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|a| {
            Some((
                a.get("base").and_then(parse_hex)?,
                a.get("name")?.as_str()?.to_string(),
            ))
        })
        .collect();
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing `events`")?
        .iter()
        .enumerate()
        .map(|(i, e)| parse_event(e).map_err(|m| format!("event {i}: {m}")))
        .collect::<Result<Vec<_>, _>>()?;
    validate_stream_order(&events)?;
    Ok(EventTrace {
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        platform_name: pf
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        page_size: pf.get("page_size").and_then(Json::as_u64).unwrap_or(65_536),
        link_bw: pf
            .get("link_bw")
            .and_then(Json::as_f64)
            .filter(|b| *b > 0.0)
            .unwrap_or(12.0),
        elapsed_ns: doc.get("elapsed_ns").and_then(Json::as_f64).unwrap_or(0.0),
        recorded: doc.get("recorded").and_then(Json::as_u64).unwrap_or(0),
        dropped: doc.get("dropped").and_then(Json::as_u64).unwrap_or(0),
        names,
        events: Rc::new(events.into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::MAX_DEPTH;
    use hetsim::{platform, MemHook, DEFAULT_STREAM};

    fn sample_events() -> Vec<TimedEvent> {
        let ctx_k = AttrCtx {
            kernel: Some("sweep".into()),
            launch_seq: 3,
            stream: StreamId(2),
            alloc: Some(0x10000),
        };
        vec![
            TimedEvent {
                t_ns: 0.0,
                cost_ns: 100.0,
                ctx: AttrCtx::host(),
                event: Event::Alloc {
                    base: 0x10000,
                    bytes: 1 << 20,
                    kind: AllocKind::Managed,
                },
            },
            TimedEvent {
                t_ns: 125.5,
                cost_ns: 25_000.0,
                ctx: ctx_k.clone(),
                event: Event::PageFault {
                    dev: Device::GPU0,
                    page: 1,
                    write: true,
                },
            },
            TimedEvent {
                t_ns: 125.5,
                cost_ns: 30_000.0,
                ctx: ctx_k,
                event: Event::Migration {
                    page: 1,
                    to: Device::GPU0,
                    bytes: 65_536,
                },
            },
            TimedEvent {
                t_ns: 200.0,
                cost_ns: 0.0,
                ctx: AttrCtx::host(),
                event: Event::Advise {
                    addr: 0x10000,
                    bytes: 4096,
                    advice: MemAdvise::SetAccessedBy(Device::GPU0),
                },
            },
            TimedEvent {
                t_ns: 300.25,
                cost_ns: 50.0,
                ctx: AttrCtx::host(),
                event: Event::Memcpy {
                    dst: 0x20000,
                    src: 0x10000,
                    bytes: 4096,
                    kind: CopyKind::HostToDevice,
                    stream: DEFAULT_STREAM,
                    start_ns: 250.25,
                    end_ns: 300.25,
                },
            },
            TimedEvent {
                t_ns: 400.0,
                cost_ns: 10.0,
                ctx: AttrCtx::host(),
                event: Event::Evict {
                    pages: 4,
                    bytes: 262_144,
                    writeback_pages: 2,
                    writeback_bytes: 131_072,
                },
            },
            TimedEvent {
                t_ns: 500.0,
                cost_ns: 80.0,
                ctx: AttrCtx::host(),
                event: Event::KernelEnd {
                    name: "sweep".to_string(),
                    stream: StreamId(2),
                    start_ns: 420.0,
                    end_ns: 500.0,
                },
            },
        ]
    }

    #[test]
    fn stream_roundtrips_bit_exactly() {
        let mut log = EventLog::new();
        for ev in sample_events() {
            MemHook::on_event(&mut log, &ev);
        }
        let doc = events_json(&log, "demo", 1234.5, &platform::intel_pascal(), &[]);
        let text = doc.to_string_pretty();
        let trace = events_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(trace.workload, "demo");
        assert_eq!(trace.platform_name, "Intel+Pascal");
        assert_eq!(trace.elapsed_ns, 1234.5);
        assert_eq!(trace.recorded, 7);
        assert_eq!(trace.dropped, 0);
        assert_eq!(*trace.events, sample_events());
    }

    #[test]
    fn serialization_is_deterministic() {
        let mut log = EventLog::new();
        for ev in sample_events() {
            MemHook::on_event(&mut log, &ev);
        }
        let a = events_json(&log, "demo", 0.0, &platform::intel_volta(), &[]).to_string_pretty();
        let b = events_json(&log, "demo", 0.0, &platform::intel_volta(), &[]).to_string_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn advice_strings_roundtrip() {
        for a in [
            MemAdvise::SetReadMostly,
            MemAdvise::UnsetReadMostly,
            MemAdvise::SetPreferredLocation(Device::Cpu),
            MemAdvise::UnsetPreferredLocation,
            MemAdvise::SetAccessedBy(Device::Gpu(1)),
            MemAdvise::UnsetAccessedBy(Device::GPU0),
        ] {
            assert_eq!(parse_advice(&advice_str(a)), Some(a));
        }
        assert!(parse_advice("set_frobnication").is_none());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut j = Json::obj();
        j.set("schema", "xplacer-metrics/2".into());
        assert!(events_from_json(&j).is_err());
    }

    #[test]
    fn backwards_timestamps_within_a_stream_are_rejected_with_a_span() {
        let mut log = EventLog::new();
        for mut ev in sample_events() {
            // Rewind the advise stamp behind the alloc on the same stream.
            if ev.event.kind_name() == "advise" {
                ev.t_ns = -0.5;
            }
            MemHook::on_event(&mut log, &ev);
        }
        let doc = events_json(&log, "demo", 1234.5, &platform::intel_pascal(), &[]);
        let err = EventTrace::parse(&doc.to_string_pretty()).unwrap_err();
        assert!(
            err.contains("event 3") && err.contains("advise"),
            "error must name the offending event: {err}"
        );

        // Backwards relative to an earlier event (not just negative).
        let mut log = EventLog::new();
        for mut ev in sample_events() {
            if ev.event.kind_name() == "evict" {
                ev.t_ns = 250.0; // memcpy on the same stream stamped 300.25
            }
            MemHook::on_event(&mut log, &ev);
        }
        let doc = events_json(&log, "demo", 1234.5, &platform::intel_pascal(), &[]);
        let err = EventTrace::parse(&doc.to_string_pretty()).unwrap_err();
        assert!(
            err.contains("event 5") && err.contains("goes") && err.contains("event 4"),
            "error must point at both events: {err}"
        );
    }

    #[test]
    fn deep_nesting_is_a_parse_error_with_an_offset() {
        let mut log = EventLog::new();
        for ev in sample_events() {
            MemHook::on_event(&mut log, &ev);
        }
        let text =
            events_json(&log, "demo", 0.0, &platform::intel_pascal(), &[]).to_string_compact();
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let text = text.replacen(r#""events":"#, &format!(r#""junk":{deep},"events":"#), 1);
        // The document object is the first level, so the `[` at index
        // MAX_DEPTH - 1 of the run is the one too deep.
        let at = text.find(r#""junk":"#).unwrap() + r#""junk":"#.len() + MAX_DEPTH - 1;
        let err = EventTrace::parse(&text).unwrap_err();
        assert!(
            err.contains("nesting") && err.contains(&format!("at byte {at}:")),
            "{err}"
        );
    }

    #[test]
    fn distinct_streams_are_ordered_independently() {
        // Stream 2's kernel events interleave with older stream-0 stamps;
        // that is legal (streams progress independently).
        assert!(validate_stream_order(&sample_events()).is_ok());
    }

    #[test]
    fn inverted_spans_are_rejected() {
        let ev = TimedEvent {
            t_ns: 10.0,
            cost_ns: 5.0,
            ctx: AttrCtx::host(),
            event: Event::KernelEnd {
                name: "k".into(),
                stream: DEFAULT_STREAM,
                start_ns: 20.0,
                end_ns: 10.0,
            },
        };
        let err = validate_stream_order(&[ev]).unwrap_err();
        assert!(err.contains("inverted span"), "{err}");
    }

    #[test]
    fn non_finite_or_negative_costs_are_rejected() {
        for cost in [-5.0, f64::INFINITY, f64::NAN] {
            let mut events = sample_events();
            events[2].cost_ns = cost;
            let err = validate_stream_order(&events).unwrap_err();
            assert!(
                err.starts_with("event 2 (kind `migration`): invalid cost"),
                "{err}"
            );
        }
    }
}
