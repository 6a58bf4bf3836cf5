//! The node's one GPU: managed pages bouncing between it and the host,
//! `cudaMemAdviseSetAccessedBy` keeping the host mapped across a
//! migration (§II-B), and device-to-device copies.

use hetsim::{platform, CopyKind, Device, Machine, MemAdvise};

#[test]
fn managed_page_bounces_between_host_and_gpu() {
    let mut m = Machine::new(platform::intel_pascal());
    let p = m.alloc_managed::<f64>(8);
    m.st(p, 0, 1.0); // CPU-owned

    // The GPU touches it: migrates there.
    m.launch("g0", 1, |_, m| {
        let _ = m.ld(p, 0);
    });
    assert_eq!(m.page_state(p.addr).owner, Device::Gpu);

    // The CPU pulls it back (PCIe system), then the GPU again.
    let _ = m.ld(p, 0);
    assert_eq!(m.page_state(p.addr).owner, Device::Cpu);
    m.launch("g0b", 1, |_, m| m.st(p, 0, 2.0));
    assert_eq!(m.page_state(p.addr).owner, Device::Gpu);
    assert!(m.stats.migrations() >= 3);
}

#[test]
fn accessed_by_keeps_the_host_mapped() {
    let mut m = Machine::new(platform::intel_pascal());
    let p = m.alloc_managed::<f64>(8);
    m.st(p, 0, 1.0);
    // Advise: the host always keeps a mapping.
    m.mem_advise(p, MemAdvise::SetAccessedBy(Device::Cpu));
    // The GPU takes the page.
    m.launch("g0", 1, |_, m| m.st(p, 0, 2.0));
    assert_eq!(m.page_state(p.addr).owner, Device::Gpu);
    // The host's mapping survived the migration (§II-B: "the mapping will
    // be updated if the data is migrated").
    assert!(m.page_state(p.addr).mapped.contains(Device::Cpu));
}

#[test]
fn device_to_device_copy_stays_on_the_gpu() {
    let mut m = Machine::new(platform::intel_pascal());
    let h = m.alloc_host::<i32>(64);
    let d0 = m.alloc_device::<i32>(64);
    let d1 = m.alloc_device::<i32>(64);
    for i in 0..64 {
        m.poke(h, i, i as i32);
    }
    m.memcpy(d0, h, 64, CopyKind::HostToDevice);
    let t0 = m.now();
    m.memcpy(d1, d0, 64, CopyKind::DeviceToDevice);
    let d2d = m.now() - t0;
    // A device-to-device copy does not cross the host interconnect:
    // cheaper than the H2D copy's fixed latency.
    assert!(d2d < m.platform().memcpy_latency_ns);
    assert_eq!(m.peek(d1, 63), 63);
    assert_eq!(m.stats.memcpy_h2d, 1);
}
