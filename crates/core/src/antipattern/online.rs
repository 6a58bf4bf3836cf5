//! Online (streaming) anti-pattern *episode* detectors.
//!
//! The batch detectors in this module's siblings diagnose final shadow
//! totals: "this allocation alternated at some point". This module folds
//! the time axis back in — it consumes the attributed event stream
//! ([`hetsim::TimedEvent`]) as a [`MemHook`] and emits [`Episode`]s with
//! simulated-ns start/end spans, the pages involved, and the driver cost
//! attributed to the pathology while it was happening. A ping-pong phase
//! that starts and stops mid-run becomes a bounded interval instead of a
//! run-wide boolean.
//!
//! Three detectors run side by side, bounded-memory, single pass:
//!
//! * **ping-pong** — per allocation, on-demand migration *direction
//!   flips* (a page that just moved host→device moving device→host, or
//!   vice versa). [`OnlineConfig::min_flips`] flips open an episode; it
//!   absorbs every fault/migration/invalidation cost charged to the
//!   allocation while open and closes after
//!   [`OnlineConfig::quiet_ns`] of silence.
//! * **eviction thrash** — a burst of oversubscription evictions
//!   ([`OnlineConfig::min_evictions`] evict events without a quiet gap):
//!   the working set does not fit and the driver is churning pages.
//! * **redundant transfer** — two explicit copies in the same direction
//!   touching the same allocation with *no kernel launch in between*: the
//!   first H2D copy was overwritten before any kernel could read it (or
//!   the second D2H copy re-fetched data no kernel could have changed).

use std::collections::{BTreeMap, BTreeSet};

use hetsim::{Addr, CopyKind, Event, MemHook, TimedEvent};

/// Tunable thresholds of the streaming detectors.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Migration direction flips (per allocation) that open a ping-pong
    /// episode.
    pub min_flips: u32,
    /// Simulated-ns of inactivity that closes an open episode (and
    /// expires pending evidence that never reached a threshold).
    pub quiet_ns: f64,
    /// Evict events in one burst that open an eviction-thrash episode.
    pub min_evictions: u32,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            min_flips: 3,
            quiet_ns: 2_000_000.0,
            min_evictions: 4,
        }
    }
}

/// Which pathology an episode describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeKind {
    PingPong,
    EvictionThrash,
    RedundantTransfer,
}

impl EpisodeKind {
    /// Stable lowercase tag for serialization and display.
    pub fn label(self) -> &'static str {
        match self {
            EpisodeKind::PingPong => "ping-pong",
            EpisodeKind::EvictionThrash => "eviction-thrash",
            EpisodeKind::RedundantTransfer => "redundant-transfer",
        }
    }
}

/// One bounded interval of pathological behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    pub kind: EpisodeKind,
    /// Allocation the episode concerns (`None` for machine-wide thrash).
    pub alloc: Option<Addr>,
    /// Simulated time the first contributing event fired.
    pub start_ns: f64,
    /// Simulated time of the last contributing event.
    pub end_ns: f64,
    /// Distinct pages involved (0 when the evidence is not page-granular).
    pub pages: u64,
    /// Kind-specific trigger count: direction flips, evicted pages, or
    /// redundant copies.
    pub trips: u64,
    /// Events absorbed while the episode was open.
    pub events: u64,
    /// Simulated driver cost (`TimedEvent::cost_ns`) attributed to the
    /// episode.
    pub cost_ns: f64,
    /// Bytes moved by the absorbed events.
    pub bytes: u64,
    /// Still open when the snapshot was taken (always `false` after
    /// [`OnlineAnalyzer::finish`]).
    pub active: bool,
}

impl Episode {
    /// Simulated duration of the episode.
    pub fn span_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// An episode being accumulated.
#[derive(Debug, Clone)]
struct Build {
    kind: EpisodeKind,
    alloc: Option<Addr>,
    start_ns: f64,
    end_ns: f64,
    pages: BTreeSet<u64>,
    trips: u64,
    events: u64,
    cost_ns: f64,
    bytes: u64,
}

impl Build {
    fn new(kind: EpisodeKind, alloc: Option<Addr>, t: f64) -> Build {
        Build {
            kind,
            alloc,
            start_ns: t,
            end_ns: t,
            pages: BTreeSet::new(),
            trips: 0,
            events: 0,
            cost_ns: 0.0,
            bytes: 0,
        }
    }

    fn absorb(&mut self, t: f64, cost: f64, page: Option<u64>, bytes: u64) {
        self.end_ns = self.end_ns.max(t);
        self.events += 1;
        self.cost_ns += cost;
        self.bytes += bytes;
        if let Some(p) = page {
            self.pages.insert(p);
        }
    }

    fn seal(self, active: bool) -> Episode {
        Episode {
            kind: self.kind,
            alloc: self.alloc,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            pages: self.pages.len() as u64,
            trips: self.trips,
            events: self.events,
            cost_ns: self.cost_ns,
            bytes: self.bytes,
            active,
        }
    }
}

/// Evidence for one not-yet-open episode: (t, cost, page, bytes).
type Pending = Vec<(f64, f64, Option<u64>, u64)>;

/// Per-allocation ping-pong state.
#[derive(Debug, Default)]
struct PingState {
    /// Page → currently resident on a GPU (as far as on-demand migrations
    /// have told us).
    on_gpu: BTreeMap<u64, bool>,
    pending: Pending,
    open: Option<Build>,
}

/// Per-(allocation × direction) redundant-transfer state: the last copy
/// seen and the kernel sequence number at that time.
#[derive(Debug)]
struct CopyState {
    last_t: f64,
    last_cost: f64,
    kernel_seq: u64,
    open: Option<Build>,
}

/// Streaming analyzer: attach with `Machine::add_hook` (alongside the
/// tracer and any other observer), call [`finish`](Self::finish) after
/// the run, then read [`episodes`](Self::episodes). Purely observational.
#[derive(Debug, Default)]
pub struct OnlineAnalyzer {
    cfg: OnlineConfig,
    /// base → size, from Alloc events (resolves memcpy endpoints).
    allocs: BTreeMap<Addr, u64>,
    ping: BTreeMap<Addr, PingState>,
    thrash_pending: Pending,
    thrash_open: Option<Build>,
    copies: BTreeMap<(Addr, bool), CopyState>,
    kernel_seq: u64,
    done: Vec<Episode>,
    finished: bool,
}

impl OnlineAnalyzer {
    pub fn new(cfg: OnlineConfig) -> Self {
        OnlineAnalyzer {
            cfg,
            ..Default::default()
        }
    }

    /// Closed episodes, sorted by start time (stable across runs). Call
    /// [`finish`](Self::finish) first to seal episodes still open at the
    /// end of the run.
    pub fn episodes(&self) -> &[Episode] {
        &self.done
    }

    /// Closed episodes plus clones of the still-open ones (marked
    /// `active`) — the dashboard's live view.
    pub fn snapshot(&self) -> Vec<Episode> {
        let mut out = self.done.clone();
        for st in self.ping.values() {
            if let Some(b) = &st.open {
                out.push(b.clone().seal(true));
            }
        }
        if let Some(b) = &self.thrash_open {
            out.push(b.clone().seal(true));
        }
        for st in self.copies.values() {
            if let Some(b) = &st.open {
                out.push(b.clone().seal(true));
            }
        }
        sort_episodes(&mut out);
        out
    }

    /// Seal every open episode. Idempotent; call once the run is over.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let builds: Vec<Build> = self
            .ping
            .values_mut()
            .filter_map(|st| st.open.take())
            .chain(self.thrash_open.take())
            .chain(self.copies.values_mut().filter_map(|st| st.open.take()))
            .collect();
        for b in builds {
            self.done.push(b.seal(false));
        }
        sort_episodes(&mut self.done);
    }

    /// Resolve an address to the base of the live allocation containing it.
    fn alloc_of(&self, addr: Addr) -> Option<Addr> {
        let (&base, &size) = self.allocs.range(..=addr).next_back()?;
        (addr < base + size).then_some(base)
    }

    fn ingest(&mut self, ev: &TimedEvent) {
        let t = ev.t_ns;
        let quiet = self.cfg.quiet_ns;
        match &ev.event {
            Event::Alloc { base, bytes, .. } => {
                self.allocs.insert(*base, (*bytes).max(1));
            }
            Event::Free { base } => {
                self.allocs.remove(base);
            }
            Event::Migration { page, to, bytes } => {
                let Some(alloc) = ev.ctx.alloc else { return };
                let dir = to.is_gpu();
                let st = self.ping.entry(alloc).or_default();
                let flip = st.on_gpu.insert(*page, dir).is_some_and(|prev| prev != dir);
                // Expire stale state before absorbing new evidence.
                if st.open.as_ref().is_some_and(|b| t - b.end_ns > quiet) {
                    self.done.push(st.open.take().unwrap().seal(false));
                }
                if st.pending.last().is_some_and(|&(pt, ..)| t - pt > quiet) {
                    st.pending.clear();
                }
                if let Some(b) = &mut st.open {
                    b.absorb(t, ev.cost_ns, Some(*page), *bytes);
                    if flip {
                        b.trips += 1;
                    }
                } else if flip {
                    st.pending.push((t, ev.cost_ns, Some(*page), *bytes));
                    if st.pending.len() as u32 >= self.cfg.min_flips {
                        let mut b = Build::new(EpisodeKind::PingPong, Some(alloc), st.pending[0].0);
                        for &(pt, pc, pp, pb) in &st.pending {
                            b.absorb(pt, pc, pp, pb);
                            b.trips += 1;
                        }
                        st.pending.clear();
                        st.open = Some(b);
                    }
                }
            }
            Event::PageFault { page, .. } | Event::Invalidate { page, .. } => {
                // Overhead charged to an allocation mid-episode belongs to
                // the episode (the ping-pong cost is mostly fault service).
                let Some(alloc) = ev.ctx.alloc else { return };
                if let Some(st) = self.ping.get_mut(&alloc) {
                    if st.open.as_ref().is_some_and(|b| t - b.end_ns > quiet) {
                        self.done.push(st.open.take().unwrap().seal(false));
                    } else if let Some(b) = &mut st.open {
                        b.absorb(t, ev.cost_ns, Some(*page), 0);
                    }
                }
            }
            Event::Evict {
                pages,
                writeback_bytes,
                ..
            } => {
                if self
                    .thrash_open
                    .as_ref()
                    .is_some_and(|b| t - b.end_ns > quiet)
                {
                    self.done.push(self.thrash_open.take().unwrap().seal(false));
                }
                if self
                    .thrash_pending
                    .last()
                    .is_some_and(|&(pt, ..)| t - pt > quiet)
                {
                    self.thrash_pending.clear();
                }
                if let Some(b) = &mut self.thrash_open {
                    b.absorb(t, ev.cost_ns, None, *writeback_bytes);
                    b.trips += *pages as u64;
                } else {
                    self.thrash_pending
                        .push((t, ev.cost_ns, None, *writeback_bytes));
                    if self.thrash_pending.len() as u32 >= self.cfg.min_evictions {
                        let mut b =
                            Build::new(EpisodeKind::EvictionThrash, None, self.thrash_pending[0].0);
                        for &(pt, pc, pp, pb) in &self.thrash_pending {
                            b.absorb(pt, pc, pp, pb);
                            b.trips += 1;
                        }
                        // Pending entries each counted one evict event; keep
                        // trips in evicted-page units from here on.
                        self.thrash_pending.clear();
                        self.thrash_open = Some(b);
                    }
                }
            }
            Event::Memcpy {
                dst,
                src,
                bytes,
                kind,
                start_ns,
                end_ns,
                ..
            } => {
                let (endpoint, h2d) = match kind {
                    CopyKind::HostToDevice => (*dst, true),
                    CopyKind::DeviceToHost => (*src, false),
                    _ => return,
                };
                let Some(alloc) = self.alloc_of(endpoint) else {
                    return;
                };
                let cost = ev.cost_ns;
                let seq = self.kernel_seq;
                let key = (alloc, h2d);
                let repeat = self.copies.get(&key).is_some_and(|st| st.kernel_seq == seq);
                if repeat {
                    // Second same-direction copy with no kernel between:
                    // redundant. Open (or extend) the episode from the
                    // *first* copy of the pair.
                    let st = self.copies.get_mut(&key).unwrap();
                    let (first_t, first_cost) = (st.last_t, st.last_cost);
                    let b = st.open.get_or_insert_with(|| {
                        let mut b =
                            Build::new(EpisodeKind::RedundantTransfer, Some(alloc), first_t);
                        b.absorb(first_t, first_cost, None, 0);
                        b
                    });
                    b.absorb(*end_ns, cost, None, *bytes);
                    b.trips += 1;
                    st.last_t = *start_ns;
                    st.last_cost = cost;
                } else {
                    // Direction/allocation seen fresh (or a kernel ran
                    // since): previous open episode, if any, is over.
                    if let Some(st) = self.copies.get_mut(&key) {
                        if let Some(b) = st.open.take() {
                            self.done.push(b.seal(false));
                        }
                    }
                    self.copies.insert(
                        key,
                        CopyState {
                            last_t: *start_ns,
                            last_cost: cost,
                            kernel_seq: seq,
                            open: None,
                        },
                    );
                }
            }
            Event::KernelBegin { .. } => {
                self.kernel_seq += 1;
                // A kernel ends every open redundant-transfer episode: the
                // data is (potentially) consumed/recomputed now.
                let builds: Vec<Build> = self
                    .copies
                    .values_mut()
                    .filter_map(|st| st.open.take())
                    .collect();
                for b in builds {
                    self.done.push(b.seal(false));
                }
            }
            _ => {}
        }
    }
}

fn sort_episodes(eps: &mut [Episode]) {
    eps.sort_by(|a, b| {
        a.start_ns
            .total_cmp(&b.start_ns)
            .then(a.kind.label().cmp(b.kind.label()))
            .then(a.alloc.cmp(&b.alloc))
    });
}

impl MemHook for OnlineAnalyzer {
    // The analyzer listens only to the structured stream.
    fn on_event(&mut self, ev: &TimedEvent) {
        self.ingest(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{AllocKind, AttrCtx, Device};

    fn ctx(alloc: Addr) -> AttrCtx {
        AttrCtx {
            alloc: Some(alloc),
            ..AttrCtx::host()
        }
    }

    fn ev(t: f64, cost: f64, ctx: AttrCtx, event: Event) -> TimedEvent {
        TimedEvent {
            t_ns: t,
            cost_ns: cost,
            ctx,
            event,
        }
    }

    fn migrate(t: f64, alloc: Addr, page: u64, to: Device) -> TimedEvent {
        ev(
            t,
            30_000.0,
            ctx(alloc),
            Event::Migration {
                page,
                to,
                bytes: 65_536,
            },
        )
    }

    #[test]
    fn ping_pong_episode_opens_after_min_flips_and_spans_the_flips() {
        let mut a = OnlineAnalyzer::new(OnlineConfig::default());
        let base = 0x10_0000;
        // First placement (no flip), then 4 direction flips 10 µs apart.
        let mut t = 0.0;
        let mut dir = Device::GPU0;
        for _ in 0..5 {
            MemHook::on_event(&mut a, &migrate(t, base, 7, dir));
            t += 10_000.0;
            dir = if dir == Device::Cpu {
                Device::GPU0
            } else {
                Device::Cpu
            };
        }
        a.finish();
        let eps = a.episodes();
        assert_eq!(eps.len(), 1);
        let e = &eps[0];
        assert_eq!(e.kind, EpisodeKind::PingPong);
        assert_eq!(e.alloc, Some(base));
        assert_eq!(e.start_ns, 10_000.0, "episode starts at the first flip");
        assert_eq!(e.end_ns, 40_000.0);
        assert!(e.span_ns() > 0.0);
        assert_eq!(e.trips, 4);
        assert_eq!(e.pages, 1);
        assert_eq!(e.cost_ns, 4.0 * 30_000.0);
        assert!(!e.active);
    }

    #[test]
    fn quiet_gap_splits_episodes_and_two_flips_never_open_one() {
        let cfg = OnlineConfig {
            min_flips: 2,
            quiet_ns: 50_000.0,
            ..OnlineConfig::default()
        };
        let mut a = OnlineAnalyzer::new(cfg);
        let base = 0x10_0000;
        // Burst one: 3 flips. Long silence. Burst two: 3 flips.
        let mut dir = Device::GPU0;
        for (i, t) in [0.0, 1e4, 2e4, 3e4, 1e6, 1.01e6, 1.02e6, 1.03e6]
            .iter()
            .enumerate()
        {
            let _ = i;
            MemHook::on_event(&mut a, &migrate(*t, base, 3, dir));
            dir = if dir == Device::Cpu {
                Device::GPU0
            } else {
                Device::Cpu
            };
        }
        a.finish();
        assert_eq!(a.episodes().len(), 2, "silence closed the first episode");
        assert!(a.episodes().iter().all(|e| e.kind == EpisodeKind::PingPong));

        // A single flip below the threshold never opens an episode.
        let mut b = OnlineAnalyzer::new(OnlineConfig::default());
        MemHook::on_event(&mut b, &migrate(0.0, base, 3, Device::GPU0));
        MemHook::on_event(&mut b, &migrate(1e4, base, 3, Device::Cpu));
        b.finish();
        assert!(b.episodes().is_empty());
    }

    #[test]
    fn faults_inside_an_open_episode_are_charged_to_it() {
        let mut a = OnlineAnalyzer::new(OnlineConfig::default());
        let base = 0x10_0000;
        let mut dir = Device::GPU0;
        for i in 0..4 {
            MemHook::on_event(&mut a, &migrate(i as f64 * 1e4, base, 1, dir));
            dir = if dir == Device::Cpu {
                Device::GPU0
            } else {
                Device::Cpu
            };
        }
        // Episode is open (3 flips); a fault on the allocation adds cost.
        MemHook::on_event(
            &mut a,
            &ev(
                4e4,
                25_000.0,
                ctx(base),
                Event::PageFault {
                    dev: Device::GPU0,
                    page: 2,
                    write: false,
                },
            ),
        );
        a.finish();
        let e = &a.episodes()[0];
        assert_eq!(e.cost_ns, 3.0 * 30_000.0 + 25_000.0);
        assert_eq!(e.pages, 2);
    }

    #[test]
    fn eviction_burst_becomes_a_thrash_episode() {
        let mut a = OnlineAnalyzer::new(OnlineConfig::default());
        for i in 0..6u32 {
            MemHook::on_event(
                &mut a,
                &ev(
                    i as f64 * 5_000.0,
                    8_000.0,
                    AttrCtx::host(),
                    Event::Evict {
                        pages: 2,
                        bytes: 131_072,
                        writeback_pages: 1,
                        writeback_bytes: 65_536,
                    },
                ),
            );
        }
        a.finish();
        let eps: Vec<_> = a
            .episodes()
            .iter()
            .filter(|e| e.kind == EpisodeKind::EvictionThrash)
            .collect();
        assert_eq!(eps.len(), 1);
        assert!(eps[0].span_ns() > 0.0);
        assert!(eps[0].trips >= 4);
        assert_eq!(eps[0].alloc, None);
    }

    #[test]
    fn back_to_back_h2d_copies_without_kernel_are_redundant() {
        let mut a = OnlineAnalyzer::new(OnlineConfig::default());
        let dev_base = 0x20_0000u64;
        MemHook::on_event(
            &mut a,
            &ev(
                0.0,
                0.0,
                AttrCtx::host(),
                Event::Alloc {
                    base: dev_base,
                    bytes: 4096,
                    kind: AllocKind::Device(0),
                },
            ),
        );
        let copy = |t: f64| {
            ev(
                t,
                12_000.0,
                AttrCtx::host(),
                Event::Memcpy {
                    dst: dev_base,
                    src: 0x30_0000,
                    bytes: 4096,
                    kind: CopyKind::HostToDevice,
                    stream: hetsim::DEFAULT_STREAM,
                    start_ns: t,
                    end_ns: t + 12_000.0,
                },
            )
        };
        MemHook::on_event(&mut a, &copy(0.0));
        MemHook::on_event(&mut a, &copy(20_000.0));
        a.finish();
        let eps = a.episodes();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].kind, EpisodeKind::RedundantTransfer);
        assert_eq!(eps[0].alloc, Some(dev_base));
        assert_eq!(eps[0].trips, 1);
        assert!(eps[0].span_ns() > 0.0);

        // With a kernel launch between the copies: no episode.
        let mut b = OnlineAnalyzer::new(OnlineConfig::default());
        MemHook::on_event(
            &mut b,
            &ev(
                0.0,
                0.0,
                AttrCtx::host(),
                Event::Alloc {
                    base: dev_base,
                    bytes: 4096,
                    kind: AllocKind::Device(0),
                },
            ),
        );
        MemHook::on_event(&mut b, &copy(0.0));
        MemHook::on_event(
            &mut b,
            &ev(
                15_000.0,
                0.0,
                AttrCtx::host(),
                Event::KernelBegin { name: "k".into() },
            ),
        );
        MemHook::on_event(&mut b, &copy(20_000.0));
        b.finish();
        assert!(b.episodes().is_empty());
    }

    #[test]
    fn snapshot_reports_open_episodes_as_active() {
        let mut a = OnlineAnalyzer::new(OnlineConfig::default());
        let base = 0x10_0000;
        let mut dir = Device::GPU0;
        for i in 0..4 {
            MemHook::on_event(&mut a, &migrate(i as f64 * 1e4, base, 1, dir));
            dir = if dir == Device::Cpu {
                Device::GPU0
            } else {
                Device::Cpu
            };
        }
        let snap = a.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].active);
        assert!(a.episodes().is_empty(), "not sealed yet");
        a.finish();
        assert_eq!(a.episodes().len(), 1);
        assert!(!a.episodes()[0].active);
        a.finish(); // idempotent
        assert_eq!(a.episodes().len(), 1);
    }
}
