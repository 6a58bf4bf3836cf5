//! Core identifier and value types shared across the simulator.

use std::marker::PhantomData;

/// A simulated virtual address. Address 0 is the null pointer and never
/// backs an allocation.
pub type Addr = u64;

/// Simulated time in nanoseconds.
pub type SimTime = f64;

/// A processing element of the simulated node: the host CPU or the
/// node's one GPU. Every testbed the paper measures pairs a host with a
/// single GPU, so the GPU needs no ordinal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    /// The host CPU (all cores are modeled as one clock domain).
    Cpu,
    /// The GPU, CUDA device ordinal 0.
    Gpu,
}

impl Device {
    /// Whether this device is the GPU.
    #[inline]
    pub fn is_gpu(self) -> bool {
        self == Device::Gpu
    }

    /// The node's other device.
    pub fn other(self) -> Device {
        match self {
            Device::Cpu => Device::Gpu,
            Device::Gpu => Device::Cpu,
        }
    }

    /// The name reports and the events document use: `cpu` or `gpu0`.
    pub fn name(self) -> &'static str {
        match self {
            Device::Cpu => "cpu",
            Device::Gpu => "gpu0",
        }
    }

    #[inline]
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Spells the GPU `Gpu(0)`, with its CUDA ordinal: advice reaches the
/// optimizer and advisor reports, the Chrome trace and the optimize
/// goldens through `{:?}` (`SetPreferredLocation(Gpu(0))`).
impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Cpu => f.write_str("Cpu"),
            Device::Gpu => f.debug_tuple("Gpu").field(&0u8).finish(),
        }
    }
}

/// A set of the node's devices, stored as a bitmask (bit 0 = CPU, bit 1 =
/// GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct DeviceSet(u8);

impl DeviceSet {
    /// The empty set.
    pub const EMPTY: DeviceSet = DeviceSet(0);

    /// A set containing a single device.
    #[inline]
    pub fn single(d: Device) -> Self {
        DeviceSet(d.bit())
    }

    /// Insert `d`.
    #[inline]
    pub fn insert(&mut self, d: Device) {
        self.0 |= d.bit();
    }

    /// Remove `d`.
    #[inline]
    pub fn remove(&mut self, d: Device) {
        self.0 &= !d.bit();
    }

    /// Whether `d` is in the set.
    #[inline]
    pub fn contains(self, d: Device) -> bool {
        self.0 & d.bit() != 0
    }

    /// Number of devices in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over the devices in the set, CPU first.
    pub fn iter(self) -> impl Iterator<Item = Device> {
        [Device::Cpu, Device::Gpu]
            .into_iter()
            .filter(move |&d| self.contains(d))
    }
}

/// How an allocation was obtained. Mirrors the CUDA allocation families the
/// paper's runtime distinguishes (§III-A pattern descriptions key off it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// `cudaMallocManaged`: unified memory, accessible from every device,
    /// managed by the on-demand paging driver.
    Managed,
    /// `cudaMalloc`: device memory resident on the GPU; the host may only
    /// reach it through explicit `memcpy`.
    Device,
    /// `malloc`/`new` on the host heap; the GPU may only reach it through
    /// explicit `memcpy`.
    Host,
}

impl AllocKind {
    /// Printable name matching the originating CUDA/C API.
    pub fn api_name(self) -> &'static str {
        match self {
            AllocKind::Managed => "cudaMallocManaged",
            AllocKind::Device => "cudaMalloc",
            AllocKind::Host => "malloc",
        }
    }
}

/// The flavour of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
    /// A read-modify-write (e.g. `++`, `+=`): counted as both a read and a
    /// write, and treated as a write by the coherence machinery.
    ReadWrite,
}

impl AccessKind {
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::ReadWrite)
    }

    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::ReadWrite)
    }
}

/// Direction of an explicit `cudaMemcpy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyKind {
    HostToDevice,
    DeviceToHost,
    DeviceToDevice,
    HostToHost,
}

impl CopyKind {
    /// Whether the copy crosses the CPU/GPU interconnect.
    pub fn crosses_interconnect(self) -> bool {
        matches!(self, CopyKind::HostToDevice | CopyKind::DeviceToHost)
    }
}

/// `cudaMemAdvise` advice values (§II-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAdvise {
    /// Data is mostly read; the driver may create read-only copies per
    /// device. A write invalidates all other copies.
    SetReadMostly,
    UnsetReadMostly,
    /// Prefer keeping the data on the given device; faults elsewhere try to
    /// map the data remotely instead of migrating it.
    SetPreferredLocation(Device),
    UnsetPreferredLocation,
    /// Keep the data mapped in the given device's page tables so that its
    /// accesses never fault (they go remote instead).
    SetAccessedBy(Device),
    UnsetAccessedBy(Device),
}

/// Plain-old-data value types that can live in simulated memory.
///
/// Everything is stored little-endian in the backing bytes so results are
/// deterministic and byte-level tools (shadow maps, memcpy) see exactly what
/// a real machine would.
pub trait Scalar: Copy + PartialEq + std::fmt::Debug + Default + 'static {
    /// Size of the value in bytes.
    const SIZE: usize;
    /// Serialize into `out` (little endian); `out.len() == Self::SIZE`.
    fn store_le(self, out: &mut [u8]);
    /// Deserialize from `b` (little endian); `b.len() == Self::SIZE`.
    fn load_le(b: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn store_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn load_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("scalar width"))
            }
        }
    )*};
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// A typed pointer to an array of `T` in simulated memory.
///
/// This is the handle workloads and the interpreter pass around; it is
/// `Copy` so kernels can capture it by value, exactly like a raw device
/// pointer in CUDA.
pub struct TPtr<T> {
    /// Base address of element 0.
    pub addr: Addr,
    /// Number of `T` elements.
    pub len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for TPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TPtr<T> {}

impl<T> std::fmt::Debug for TPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TPtr(0x{:x}, len={})", self.addr, self.len)
    }
}

impl<T: Scalar> TPtr<T> {
    /// Wrap a raw base address and element count.
    pub fn new(addr: Addr, len: usize) -> Self {
        TPtr {
            addr,
            len,
            _marker: PhantomData,
        }
    }

    /// The null pointer.
    pub fn null() -> Self {
        Self::new(0, 0)
    }

    /// Address of element `i` (unchecked against `len`; the address space
    /// does the bounds check at access time, like real hardware would).
    #[inline]
    pub fn at(self, i: usize) -> Addr {
        self.addr + (i * T::SIZE) as Addr
    }

    /// Size of the pointed-to array in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        (self.len * T::SIZE) as u64
    }

    /// A sub-array starting at element `offset` with `len` elements.
    pub fn slice(self, offset: usize, len: usize) -> Self {
        assert!(offset + len <= self.len, "TPtr::slice out of range");
        TPtr::new(self.at(offset), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_set_insert_remove() {
        let mut s = DeviceSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Device::Cpu);
        s.insert(Device::Cpu);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(Device::Gpu));
        s.insert(Device::Gpu);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Device::Cpu) && s.contains(Device::Gpu));
        s.remove(Device::Cpu);
        s.remove(Device::Cpu);
        assert_eq!(s, DeviceSet::single(Device::Gpu));
    }

    #[test]
    fn device_set_iter_order() {
        let mut s = DeviceSet::single(Device::Gpu);
        assert_eq!(s.iter().collect::<Vec<_>>(), [Device::Gpu]);
        s.insert(Device::Cpu);
        assert_eq!(s.iter().collect::<Vec<_>>(), [Device::Cpu, Device::Gpu]);
    }

    #[test]
    fn access_kind_read_write_flags() {
        assert!(AccessKind::Read.reads() && !AccessKind::Read.writes());
        assert!(!AccessKind::Write.reads() && AccessKind::Write.writes());
        assert!(AccessKind::ReadWrite.reads() && AccessKind::ReadWrite.writes());
    }

    #[test]
    fn scalar_roundtrip_f64() {
        let mut buf = [0u8; 8];
        (1234.5678f64).store_le(&mut buf);
        assert_eq!(f64::load_le(&buf), 1234.5678);
    }

    #[test]
    fn scalar_roundtrip_i32() {
        let mut buf = [0u8; 4];
        (-42i32).store_le(&mut buf);
        assert_eq!(i32::load_le(&buf), -42);
    }

    #[test]
    fn tptr_addressing() {
        let p: TPtr<f64> = TPtr::new(0x1000, 16);
        assert_eq!(p.at(0), 0x1000);
        assert_eq!(p.at(3), 0x1000 + 24);
        assert_eq!(p.bytes(), 128);
        let s = p.slice(4, 4);
        assert_eq!(s.addr, 0x1000 + 32);
        assert_eq!(s.len, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tptr_slice_oob_panics() {
        let p: TPtr<u32> = TPtr::new(0x1000, 4);
        let _ = p.slice(2, 3);
    }

    #[test]
    fn copy_kind_interconnect() {
        assert!(CopyKind::HostToDevice.crosses_interconnect());
        assert!(CopyKind::DeviceToHost.crosses_interconnect());
        assert!(!CopyKind::HostToHost.crosses_interconnect());
        assert!(!CopyKind::DeviceToDevice.crosses_interconnect());
    }
}
