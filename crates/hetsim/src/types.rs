//! Core identifier and value types shared across the simulator.

use std::marker::PhantomData;

/// A simulated virtual address. Address 0 is the null pointer and never
/// backs an allocation.
pub type Addr = u64;

/// Simulated time in nanoseconds.
pub type SimTime = f64;

/// A processing element of the simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    /// The host CPU (all cores are modeled as one clock domain).
    Cpu,
    /// A GPU, identified by its CUDA-style device ordinal.
    Gpu(u8),
}

impl Device {
    /// The first (and usually only) GPU of the node.
    pub const GPU0: Device = Device::Gpu(0);

    /// Whether this device is a GPU.
    #[inline]
    pub fn is_gpu(self) -> bool {
        matches!(self, Device::Gpu(_))
    }

    #[inline]
    fn bit(self) -> u16 {
        match self {
            Device::Cpu => 0,
            Device::Gpu(g) => 1 + g as u16,
        }
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Cpu => write!(f, "cpu"),
            Device::Gpu(g) => write!(f, "gpu{g}"),
        }
    }
}

/// A small set of devices, stored as a bitmask (bit 0 = CPU, bit `1+g` =
/// GPU `g`). Sixteen bits comfortably cover one CPU plus 15 GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct DeviceSet(u16);

impl DeviceSet {
    /// The empty set.
    pub const EMPTY: DeviceSet = DeviceSet(0);

    /// A set containing a single device.
    #[inline]
    pub fn single(d: Device) -> Self {
        DeviceSet(1 << d.bit())
    }

    /// Insert `d`; returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, d: Device) -> bool {
        let m = 1 << d.bit();
        let added = self.0 & m == 0;
        self.0 |= m;
        added
    }

    /// Remove `d`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, d: Device) -> bool {
        let m = 1 << d.bit();
        let had = self.0 & m != 0;
        self.0 &= !m;
        had
    }

    /// Whether `d` is in the set.
    #[inline]
    pub fn contains(self, d: Device) -> bool {
        self.0 & (1 << d.bit()) != 0
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

    /// Remove every device from the set.
    #[inline]
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Iterate over the devices in the set, CPU first then GPUs in
    /// ascending ordinal.
    pub fn iter(self) -> impl Iterator<Item = Device> {
        (0u16..16).filter_map(move |b| {
            if self.0 & (1 << b) != 0 {
                Some(if b == 0 {
                    Device::Cpu
                } else {
                    Device::Gpu((b - 1) as u8)
                })
            } else {
                None
            }
        })
    }
}

impl FromIterator<Device> for DeviceSet {
    fn from_iter<T: IntoIterator<Item = Device>>(iter: T) -> Self {
        let mut s = DeviceSet::EMPTY;
        for d in iter {
            s.insert(d);
        }
        s
    }
}

/// How an allocation was obtained. Mirrors the CUDA allocation families the
/// paper's runtime distinguishes (§III-A pattern descriptions key off it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// `cudaMallocManaged`: unified memory, accessible from every device,
    /// managed by the on-demand paging driver.
    Managed,
    /// `cudaMalloc`: device memory resident on the given GPU; the host may
    /// only reach it through explicit `memcpy`.
    Device(u8),
    /// `malloc`/`new` on the host heap; the GPU may only reach it through
    /// explicit `memcpy`.
    Host,
}

impl AllocKind {
    /// Printable name matching the originating CUDA/C API.
    pub fn api_name(self) -> &'static str {
        match self {
            AllocKind::Managed => "cudaMallocManaged",
            AllocKind::Device(_) => "cudaMalloc",
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
        assert!(s.insert(Device::Cpu));
        assert!(!s.insert(Device::Cpu));
        assert!(s.insert(Device::Gpu(0)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Device::Cpu));
        assert!(s.contains(Device::Gpu(0)));
        assert!(!s.contains(Device::Gpu(1)));
        assert!(s.remove(Device::Cpu));
        assert!(!s.remove(Device::Cpu));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn device_set_iter_order() {
        let s: DeviceSet = [Device::Gpu(2), Device::Cpu, Device::Gpu(0)]
            .into_iter()
            .collect();
        let v: Vec<Device> = s.iter().collect();
        assert_eq!(v, vec![Device::Cpu, Device::Gpu(0), Device::Gpu(2)]);
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
