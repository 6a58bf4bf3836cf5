//! Error type for simulated memory operations.

use crate::types::{Addr, Device};

/// Failure modes of the simulated memory system. These mirror the bugs a
/// real CUDA program would hit (illegal address, host dereference of a
/// `cudaMalloc` pointer, double free, ...), so the interpreter can surface
/// them as program errors instead of crashing the tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Address does not fall inside any live allocation.
    Unallocated { addr: Addr },
    /// Address belongs to an allocation that was already freed.
    UseAfterFree { addr: Addr },
    /// `free` called twice on the same base address.
    DoubleFree { base: Addr },
    /// `free` called with a pointer that is not an allocation base.
    BadFree { addr: Addr },
    /// Access runs past the end of its allocation.
    OutOfBounds { addr: Addr, size: u64 },
    /// A device touched memory it has no path to (e.g. CPU dereferencing a
    /// `cudaMalloc` pointer, or a GPU dereferencing host heap memory).
    IllegalAccess { device: Device, addr: Addr },
    /// `cudaMemAdvise` on memory that is not managed.
    AdviseOnUnmanaged { addr: Addr },
    /// A `memcpy` whose direction does not match the allocation kinds of
    /// its operands.
    BadCopyDirection { dst: Addr, src: Addr },
    /// An allocation that neither the simulated address space nor the
    /// host's memory can hold.
    OutOfMemory { requested: u64 },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unallocated { addr } => {
                write!(f, "access to unallocated address 0x{addr:x}")
            }
            SimError::UseAfterFree { addr } => {
                write!(f, "use after free at 0x{addr:x}")
            }
            SimError::DoubleFree { base } => write!(f, "double free of 0x{base:x}"),
            SimError::BadFree { addr } => {
                write!(f, "free of 0x{addr:x} which is not an allocation base")
            }
            SimError::OutOfBounds { addr, size } => {
                write!(f, "access of {size} bytes at 0x{addr:x} runs out of bounds")
            }
            SimError::IllegalAccess { device, addr } => {
                write!(f, "{device} has no access path to 0x{addr:x}")
            }
            SimError::AdviseOnUnmanaged { addr } => {
                write!(f, "cudaMemAdvise on non-managed memory at 0x{addr:x}")
            }
            SimError::BadCopyDirection { dst, src } => write!(
                f,
                "memcpy direction does not match operands (dst=0x{dst:x}, src=0x{src:x})"
            ),
            SimError::OutOfMemory { requested } => {
                write!(f, "out of memory: cannot allocate {requested} bytes")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias.
pub type SimResult<T> = Result<T, SimError>;
