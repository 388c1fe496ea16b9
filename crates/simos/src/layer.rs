//! The per-node OS state and the `OsWorld` capability trait.
//!
//! [`NodeOs`] bundles one node's CPU, physical memory, address spaces and
//! page-cache. [`OsLayer`] holds all nodes. Address-space mutations go
//! through the free functions at the bottom of this module so that every
//! change emits a VMA SPY notification through [`OsWorld::vma_event`].

use std::collections::BTreeMap;

use knet_simcore::{SimTime, SimWorld};

use crate::addr::{Asid, NodeId, PhysSeg, VirtAddr, PAGE_SIZE};
use crate::cpu::{Cpu, CpuModel};
use crate::error::OsError;
use crate::pagecache::PageCache;
use crate::phys::{FrameIdx, FrameState, PhysMem};
use crate::space::{AddressSpace, Prot};
use crate::spy::VmaEvent;

/// Default installed memory: 64k frames = 256 MB (contents are lazy, so this
/// is cheap; the paper's nodes had 2 GB).
pub const DEFAULT_MEM_FRAMES: u32 = 65_536;

/// One node's operating system state.
pub struct NodeOs {
    pub node: NodeId,
    pub cpu: Cpu,
    pub mem: PhysMem,
    pub page_cache: PageCache,
    spaces: BTreeMap<u32, AddressSpace>,
    next_asid: u32,
}

impl NodeOs {
    pub fn new(node: NodeId, model: CpuModel, mem_frames: u32) -> Self {
        NodeOs {
            node,
            cpu: Cpu::new(model),
            mem: PhysMem::new(mem_frames),
            page_cache: PageCache::new(),
            spaces: BTreeMap::new(),
            next_asid: 1, // ASID 0 is the kernel
        }
    }

    /// Create a user process (a fresh address space); returns its ASID.
    pub fn create_process(&mut self) -> Asid {
        let asid = Asid(self.next_asid);
        self.next_asid += 1;
        self.spaces.insert(asid.0, AddressSpace::new());
        asid
    }

    pub fn space(&self, asid: Asid) -> Result<&AddressSpace, OsError> {
        self.spaces.get(&asid.0).ok_or(OsError::NoSuchSpace)
    }

    pub fn space_mut(&mut self, asid: Asid) -> Result<&mut AddressSpace, OsError> {
        self.spaces.get_mut(&asid.0).ok_or(OsError::NoSuchSpace)
    }

    pub fn live_processes(&self) -> usize {
        self.spaces.len()
    }

    /// Allocate `len` bytes of physically contiguous, implicitly pinned
    /// kernel memory; returns its kernel-virtual (direct map) address.
    pub fn kalloc(&mut self, len: u64) -> Result<VirtAddr, OsError> {
        let pages = len.div_ceil(PAGE_SIZE).max(1) as u32;
        let first = self.mem.alloc_contig(pages, FrameState::Kernel)?;
        Ok(first.base().to_kernel_virt())
    }

    /// Free kernel memory allocated with [`NodeOs::kalloc`].
    pub fn kfree(&mut self, addr: VirtAddr, len: u64) -> Result<(), OsError> {
        let phys = addr.kernel_to_phys().ok_or(OsError::WrongAddressClass)?;
        if phys.page_offset() != 0 {
            return Err(OsError::BadRange);
        }
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        for i in 0..pages {
            self.mem
                .free(FrameIdx::from_phys(phys.add(i * PAGE_SIZE)))?;
        }
        Ok(())
    }

    /// Translate a virtual range into physical segments. Kernel addresses use
    /// the direct map (one contiguous segment); user addresses walk the page
    /// table of `asid`.
    pub fn translate_range(
        &self,
        asid: Asid,
        addr: VirtAddr,
        len: u64,
    ) -> Result<Vec<PhysSeg>, OsError> {
        if addr.is_kernel() {
            let p = addr.kernel_to_phys().expect("checked kernel");
            Ok(vec![PhysSeg::new(p, len)])
        } else if asid.is_kernel() {
            Err(OsError::WrongAddressClass)
        } else {
            self.space(asid)?.translate_range(addr, len)
        }
    }

    /// Read from a virtual range (kernel direct map or user space).
    pub fn read_virt(&self, asid: Asid, addr: VirtAddr, buf: &mut [u8]) -> Result<(), OsError> {
        if addr.is_kernel() {
            let p = addr.kernel_to_phys().expect("checked kernel");
            self.mem.read(p, buf)
        } else {
            self.space(asid)?.read(&self.mem, addr, buf)
        }
    }

    /// Write to a virtual range (kernel direct map or user space).
    pub fn write_virt(&mut self, asid: Asid, addr: VirtAddr, data: &[u8]) -> Result<(), OsError> {
        if addr.is_kernel() {
            let p = addr.kernel_to_phys().expect("checked kernel");
            self.mem.write(p, data)
        } else {
            let space = self.spaces.get(&asid.0).ok_or(OsError::NoSuchSpace)?;
            space.write(&mut self.mem, addr, data)
        }
    }

    /// Pin the user pages backing `[addr, addr+len)`; returns their frames.
    /// Kernel direct-map memory needs no pinning and returns an empty list.
    pub fn pin_range(
        &mut self,
        asid: Asid,
        addr: VirtAddr,
        len: u64,
    ) -> Result<Vec<FrameIdx>, OsError> {
        if addr.is_kernel() {
            return Ok(Vec::new());
        }
        let space = self.spaces.get(&asid.0).ok_or(OsError::NoSuchSpace)?;
        let mut frames = Vec::new();
        for (page, _, _) in crate::addr::page_slices(addr, len) {
            frames.push(space.frame_of(page)?);
        }
        for &f in &frames {
            self.mem.pin(f)?;
        }
        Ok(frames)
    }

    /// Pin the one user page containing `addr` and return its frame: the
    /// single-page [`pin_range`](Self::pin_range), with no list to allocate.
    pub fn pin_page(&mut self, asid: Asid, addr: VirtAddr) -> Result<FrameIdx, OsError> {
        let space = self.spaces.get(&asid.0).ok_or(OsError::NoSuchSpace)?;
        let frame = space.frame_of(addr)?;
        self.mem.pin(frame)?;
        Ok(frame)
    }

    /// Unpin previously pinned frames.
    pub fn unpin_frames(&mut self, frames: &[FrameIdx]) -> Result<(), OsError> {
        for &f in frames {
            self.mem.unpin(f)?;
        }
        Ok(())
    }

    /// `mmap` anonymous memory without emitting a VMA SPY event. Mapping
    /// *creation* never invalidates cached translations, so no notification
    /// is needed — this is also why the world-level [`mmap_anon`] exists
    /// only for symmetry with the notifying mutators.
    pub fn map_anon(&mut self, asid: Asid, len: u64, prot: Prot) -> Result<VirtAddr, OsError> {
        let mut space = std::mem::take(self.space_mut(asid)?);
        let r = space.map_anon(&mut self.mem, len, prot);
        *self.space_mut(asid)? = space;
        r
    }
}

/// All nodes' OS state.
#[derive(Default)]
pub struct OsLayer {
    nodes: Vec<NodeOs>,
}

impl OsLayer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, model: CpuModel, mem_frames: u32) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeOs::new(id, model, mem_frames));
        id
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn node(&self, id: NodeId) -> &NodeOs {
        &self.nodes[id.0 as usize]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeOs {
        &mut self.nodes[id.0 as usize]
    }

    pub fn try_node(&self, id: NodeId) -> Result<&NodeOs, OsError> {
        self.nodes.get(id.0 as usize).ok_or(OsError::NoSuchNode)
    }
}

/// Capability trait: a world containing the OS layer.
///
/// `vma_event` is the VMA SPY notifier chain; the default implementation
/// drops notifications (fine for worlds without registration caches — the
/// composed `ClusterWorld` routes them to every subscribed cache).
pub trait OsWorld: SimWorld {
    fn os(&self) -> &OsLayer;
    fn os_mut(&mut self) -> &mut OsLayer;

    /// VMA SPY hook: called after every address-space modification.
    fn vma_event(&mut self, _node: NodeId, _ev: VmaEvent) {}
}

/// Reserve `dur` of CPU time on `node` starting now; returns the instant the
/// work completes. Concurrent host work on one node serializes through this.
pub fn cpu_charge<W: OsWorld>(w: &mut W, node: NodeId, dur: SimTime) -> SimTime {
    let now = knet_simcore::now(w);
    let (_, end) = w.os_mut().node_mut(node).cpu.busy.acquire(now, dur);
    end
}

/// Reserve CPU time, then run `f` when it completes. The continuation is a
/// node-local event on `node`.
pub fn cpu_run<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    dur: SimTime,
    f: impl FnOnce(&mut W) + Send + 'static,
) {
    let end = cpu_charge(w, node, dur);
    knet_simcore::call_at(w, node.0, end, f);
}

/// `mmap` anonymous memory in a process.
pub fn mmap_anon<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    asid: Asid,
    len: u64,
) -> Result<VirtAddr, OsError> {
    w.os_mut().node_mut(node).map_anon(asid, len, Prot::RW)
}

/// `munmap`: unmap and notify the VMA SPY chain.
pub fn munmap<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    asid: Asid,
    start: VirtAddr,
    len: u64,
) -> Result<(), OsError> {
    {
        let os = w.os_mut().node_mut(node);
        let mut space = std::mem::take(os.space_mut(asid)?);
        let r = space.unmap(&mut os.mem, start, len);
        *os.space_mut(asid)? = space;
        r?;
    }
    w.vma_event(node, VmaEvent::unmap(asid, start, len));
    Ok(())
}

/// `mprotect`: change protection and notify the VMA SPY chain.
pub fn mprotect<W: OsWorld>(
    w: &mut W,
    node: NodeId,
    asid: Asid,
    start: VirtAddr,
    len: u64,
    prot: Prot,
) -> Result<(), OsError> {
    w.os_mut()
        .node_mut(node)
        .space_mut(asid)?
        .protect(start, len, prot)?;
    w.vma_event(node, VmaEvent::protect(asid, start, len));
    Ok(())
}

/// `fork`: duplicate the address space; returns the child's ASID and
/// notifies the VMA SPY chain.
pub fn fork<W: OsWorld>(w: &mut W, node: NodeId, asid: Asid) -> Result<Asid, OsError> {
    let child = {
        let os = w.os_mut().node_mut(node);
        let space = std::mem::take(os.space_mut(asid)?);
        let cloned = space.fork_clone(&mut os.mem);
        *os.space_mut(asid)? = space;
        let cloned = cloned?;
        let child = os.create_process();
        *os.space_mut(child)? = cloned;
        child
    };
    w.vma_event(node, VmaEvent::fork(asid, child));
    Ok(child)
}

/// Process exit: release the address space and notify the VMA SPY chain.
pub fn exit_process<W: OsWorld>(w: &mut W, node: NodeId, asid: Asid) -> Result<(), OsError> {
    {
        let os = w.os_mut().node_mut(node);
        let mut space = std::mem::take(os.space_mut(asid)?);
        space.clear(&mut os.mem);
        os.spaces.remove(&asid.0);
    }
    w.vma_event(node, VmaEvent::exit(asid));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use knet_simcore::Scheduler;

    struct TestWorld {
        sched: Scheduler<TestWorld>,
        os: OsLayer,
        spied: Vec<(NodeId, VmaEvent)>,
    }

    impl SimWorld for TestWorld {
        type Ev = knet_simcore::BoxEvent<Self>;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }

    impl OsWorld for TestWorld {
        fn os(&self) -> &OsLayer {
            &self.os
        }
        fn os_mut(&mut self) -> &mut OsLayer {
            &mut self.os
        }
        fn vma_event(&mut self, node: NodeId, ev: VmaEvent) {
            self.spied.push((node, ev));
        }
    }

    fn world() -> (TestWorld, NodeId) {
        let mut w = TestWorld {
            sched: Scheduler::new(),
            os: OsLayer::new(),
            spied: Vec::new(),
        };
        let n = w.os.add_node(CpuModel::xeon_2600(), 1024);
        (w, n)
    }

    #[test]
    fn kalloc_is_direct_mapped_and_contiguous() {
        let (mut w, n) = world();
        let va = w.os.node_mut(n).kalloc(3 * PAGE_SIZE).unwrap();
        assert!(va.is_kernel());
        let segs =
            w.os.node(n)
                .translate_range(Asid::KERNEL, va, 3 * PAGE_SIZE)
                .unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 3 * PAGE_SIZE);
        w.os.node_mut(n).kfree(va, 3 * PAGE_SIZE).unwrap();
        assert_eq!(w.os.node(n).mem.allocated_frames(), 0);
    }

    #[test]
    fn kernel_rw_through_direct_map() {
        let (mut w, n) = world();
        let va = w.os.node_mut(n).kalloc(PAGE_SIZE).unwrap();
        w.os.node_mut(n)
            .write_virt(Asid::KERNEL, va.add(100), b"kernel bytes")
            .unwrap();
        let mut buf = [0u8; 12];
        w.os.node(n)
            .read_virt(Asid::KERNEL, va.add(100), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"kernel bytes");
    }

    #[test]
    fn user_rw_through_layer() {
        let (mut w, n) = world();
        let asid = w.os.node_mut(n).create_process();
        let va = mmap_anon(&mut w, n, asid, 2 * PAGE_SIZE).unwrap();
        w.os.node_mut(n)
            .write_virt(asid, va.add(10), b"user bytes")
            .unwrap();
        let mut buf = [0u8; 10];
        w.os.node(n).read_virt(asid, va.add(10), &mut buf).unwrap();
        assert_eq!(&buf, b"user bytes");
    }

    #[test]
    fn munmap_emits_spy_event() {
        let (mut w, n) = world();
        let asid = w.os.node_mut(n).create_process();
        let va = mmap_anon(&mut w, n, asid, PAGE_SIZE).unwrap();
        munmap(&mut w, n, asid, va, PAGE_SIZE).unwrap();
        assert_eq!(w.spied.len(), 1);
        assert_eq!(w.spied[0].1, VmaEvent::unmap(asid, va, PAGE_SIZE));
    }

    #[test]
    fn failed_munmap_emits_nothing() {
        let (mut w, n) = world();
        let asid = w.os.node_mut(n).create_process();
        let r = munmap(&mut w, n, asid, VirtAddr::new(0x5000), PAGE_SIZE);
        assert_eq!(r, Err(OsError::Fault));
        assert!(w.spied.is_empty());
    }

    #[test]
    fn fork_emits_spy_event_and_creates_space() {
        let (mut w, n) = world();
        let asid = w.os.node_mut(n).create_process();
        let va = mmap_anon(&mut w, n, asid, PAGE_SIZE).unwrap();
        w.os.node_mut(n).write_virt(asid, va, b"abc").unwrap();
        let child = fork(&mut w, n, asid).unwrap();
        assert_ne!(child, asid);
        assert_eq!(w.spied.last().unwrap().1, VmaEvent::fork(asid, child));
        let mut buf = [0u8; 3];
        w.os.node(n).read_virt(child, va, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        // Same virtual address, different physical page.
        let pp = w.os.node(n).space(asid).unwrap().translate(va).unwrap();
        let cp = w.os.node(n).space(child).unwrap().translate(va).unwrap();
        assert_ne!(pp.pfn(), cp.pfn());
    }

    #[test]
    fn exit_releases_memory_and_notifies() {
        let (mut w, n) = world();
        let asid = w.os.node_mut(n).create_process();
        mmap_anon(&mut w, n, asid, 4 * PAGE_SIZE).unwrap();
        exit_process(&mut w, n, asid).unwrap();
        assert_eq!(w.os.node(n).mem.allocated_frames(), 0);
        assert_eq!(w.spied.last().unwrap().1, VmaEvent::exit(asid));
        assert!(w.os.node(n).space(asid).is_err());
    }

    #[test]
    fn cpu_charges_serialize() {
        let (mut w, n) = world();
        let t1 = cpu_charge(&mut w, n, SimTime::from_micros(10));
        let t2 = cpu_charge(&mut w, n, SimTime::from_micros(5));
        assert_eq!(t1, SimTime::from_micros(10));
        assert_eq!(t2, SimTime::from_micros(15));
    }

    #[test]
    fn pin_range_pins_each_page() {
        let (mut w, n) = world();
        let asid = w.os.node_mut(n).create_process();
        let va = mmap_anon(&mut w, n, asid, 3 * PAGE_SIZE).unwrap();
        let frames =
            w.os.node_mut(n)
                .pin_range(asid, va.add(100), 2 * PAGE_SIZE)
                .unwrap();
        assert_eq!(frames.len(), 3, "unaligned 2-page range spans 3 pages");
        for &f in &frames {
            assert_eq!(w.os.node(n).mem.pin_count(f), 1);
        }
        w.os.node_mut(n).unpin_frames(&frames).unwrap();
        assert_eq!(w.os.node(n).mem.pin_count(frames[0]), 0);
    }

    #[test]
    fn kernel_addresses_need_no_pin() {
        let (mut w, n) = world();
        let va = w.os.node_mut(n).kalloc(PAGE_SIZE).unwrap();
        let frames =
            w.os.node_mut(n)
                .pin_range(Asid::KERNEL, va, PAGE_SIZE)
                .unwrap();
        assert!(frames.is_empty());
    }

    #[test]
    fn translate_range_rejects_kernel_asid_for_user_addr() {
        let (w, n) = world();
        let r =
            w.os.node(n)
                .translate_range(Asid::KERNEL, VirtAddr::new(0x1000), 16);
        assert_eq!(r.map(|_| ()), Err(OsError::WrongAddressClass));
    }
}
