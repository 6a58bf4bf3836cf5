//! # hetsim — a deterministic heterogeneous CPU/GPU node simulator
//!
//! Substrate for the XPlacer reproduction: a cost-model simulator of a
//! CPU + GPU compute node with CUDA-style unified memory, standing in for
//! the Intel+Pascal, Intel+Volta, and IBM Power9+Volta testbeds of the
//! paper's evaluation (§IV).
//!
//! What it models:
//!
//! * a shared virtual address space with real backing bytes (workloads
//!   compute verifiable results);
//! * `cudaMallocManaged` / `cudaMalloc` / host-heap allocation families;
//! * a page-granular unified-memory driver: on-demand migration,
//!   read-duplication, remote mappings, and all four `cudaMemAdvise`
//!   policies (§II-B);
//! * finite GPU physical memory with eviction (oversubscription);
//! * explicit `cudaMemcpy` (sync and async) and streams whose work
//!   overlaps, plus a kernel-launch cost model;
//! * an instrumentation [`hook`] seam where the XPlacer runtime attaches —
//!   the simulated analogue of the paper's source-instrumented binary.
//!
//! ```
//! use hetsim::{Machine, platform, MemAdvise};
//!
//! let mut m = Machine::new(platform::intel_pascal());
//! let data = m.alloc_managed::<f64>(1024);
//! m.mem_advise(data, MemAdvise::SetReadMostly);
//! for i in 0..1024 {
//!     m.st(data, i, i as f64); // host initializes
//! }
//! m.launch("sum", 1024, |t, m| {
//!     let _ = m.ld(data, t); // GPU reads (duplicates pages, no ping-pong)
//! });
//! println!("simulated time: {} ns, faults: {}", m.elapsed_ns(), m.stats.faults());
//! ```

pub mod alloc;
pub mod clock;
pub mod error;
pub mod event;
pub mod gpumem;
pub mod hook;
pub mod machine;
pub mod platform;
pub mod stats;
pub mod types;
pub mod unified;

pub use clock::{StreamId, DEFAULT_STREAM};
pub use error::{SimError, SimResult};
pub use event::{AttrCtx, Event, EventLog, KernelSpan, MemcpySpan, PrefetchSpan, TimedEvent};
pub use hook::{CountingHook, HookMeter, MemHook, MeteredHook, Op};
pub use machine::Machine;
pub use platform::{Interconnect, Platform};
pub use stats::Stats;
pub use types::{
    AccessKind, Addr, AllocKind, CopyKind, Device, DeviceSet, MemAdvise, Scalar, SimTime, TPtr,
};
