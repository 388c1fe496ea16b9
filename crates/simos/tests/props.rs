//! Property tests on the memory substrate: address spaces never leak
//! frames, translation is consistent with data access, and the page
//! utilities tile ranges exactly.

use knet_simos::{page_slices, pages_spanned, CpuModel, NodeId, NodeOs, Prot, VirtAddr, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    #[test]
    fn page_slices_tile_any_range(addr in 0u64..1 << 30, len in 0u64..1 << 20) {
        let slices: Vec<_> = page_slices(VirtAddr::new(addr), len).collect();
        let total: u64 = slices.iter().map(|s| s.2).sum();
        prop_assert_eq!(total, len);
        prop_assert_eq!(slices.len() as u64, pages_spanned(VirtAddr::new(addr), len));
        // Slices are contiguous and in order.
        let mut cursor = addr;
        for (page, off, n) in slices {
            prop_assert_eq!(page.raw() + off, cursor);
            prop_assert!(off < PAGE_SIZE);
            prop_assert!(n <= PAGE_SIZE - off);
            cursor += n;
        }
        prop_assert_eq!(cursor, addr + len);
    }

    #[test]
    fn map_write_read_unmap_never_leaks(
        sizes in prop::collection::vec(1u64..40 * PAGE_SIZE, 1..10),
        touch in prop::collection::vec((0.0f64..1.0, 1usize..5000), 1..20),
    ) {
        let mut node = NodeOs::new(NodeId(0), CpuModel::xeon_2600(), 4096);
        let asid = node.create_process();
        let mut maps = Vec::new();
        for len in sizes {
            let addr = node.map_anon(asid, len, Prot::RW).unwrap();
            maps.push((addr, len.div_ceil(PAGE_SIZE) * PAGE_SIZE));
        }
        // Random writes/reads inside random mappings round-trip.
        for (frac, len) in touch {
            let (base, mlen) = maps[(frac * maps.len() as f64) as usize % maps.len()];
            let off = ((frac * mlen as f64) as u64).min(mlen - 1);
            let n = (len as u64).min(mlen - off);
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            node.write_virt(asid, base.add(off), &data).unwrap();
            let mut back = vec![0u8; n as usize];
            node.read_virt(asid, base.add(off), &mut back).unwrap();
            prop_assert_eq!(back, data);
        }
        // Translation agrees with contents: write through the space, read
        // through the physical address.
        let (base, _) = maps[0];
        node.write_virt(asid, base, b"xlate").unwrap();
        let segs = node.translate_range(asid, base, 5).unwrap();
        let mut out = [0u8; 5];
        node.mem.gather(&segs, &mut out).unwrap();
        prop_assert_eq!(&out, b"xlate");
        // Tear everything down: all frames come back.
        for (addr, mlen) in maps {
            let space = node.space_mut(asid).unwrap();
            let mut s = std::mem::take(space);
            s.unmap(&mut node.mem, addr, mlen).unwrap();
            *node.space_mut(asid).unwrap() = s;
        }
        prop_assert_eq!(node.mem.allocated_frames(), 0);
    }

    #[test]
    fn pin_unpin_balances(count in 1u64..30) {
        let mut node = NodeOs::new(NodeId(0), CpuModel::xeon_2600(), 1024);
        let asid = node.create_process();
        let addr = node.map_anon(asid, count * PAGE_SIZE, Prot::RW).unwrap();
        let frames = node.pin_range(asid, addr, count * PAGE_SIZE).unwrap();
        prop_assert_eq!(frames.len() as u64, count);
        // Double pin then release both.
        let frames2 = node.pin_range(asid, addr, count * PAGE_SIZE).unwrap();
        node.unpin_frames(&frames).unwrap();
        for &f in &frames2 {
            prop_assert_eq!(node.mem.pin_count(f), 1);
        }
        node.unpin_frames(&frames2).unwrap();
        for &f in &frames2 {
            prop_assert_eq!(node.mem.pin_count(f), 0);
        }
    }

    /// Fork isolation: child writes never appear in the parent, at any
    /// offset.
    #[test]
    fn fork_isolation(off in 0u64..8 * PAGE_SIZE, val in any::<u8>()) {
        let mut node = NodeOs::new(NodeId(0), CpuModel::xeon_2600(), 1024);
        let asid = node.create_process();
        let len = 8 * PAGE_SIZE + PAGE_SIZE;
        let addr = node.map_anon(asid, len, Prot::RW).unwrap();
        node.write_virt(asid, addr.add(off), &[0xAA]).unwrap();
        // Clone by hand (layer::fork needs a world; NodeOs-level clone).
        let parent_space = std::mem::take(node.space_mut(asid).unwrap());
        let child_space = parent_space.fork_clone(&mut node.mem).unwrap();
        *node.space_mut(asid).unwrap() = parent_space;
        let child = node.create_process();
        *node.space_mut(child).unwrap() = child_space;
        node.write_virt(child, addr.add(off), &[val]).unwrap();
        let mut got = [0u8; 1];
        node.read_virt(asid, addr.add(off), &mut got).unwrap();
        prop_assert_eq!(got[0], 0xAA, "parent unchanged");
        node.read_virt(child, addr.add(off), &mut got).unwrap();
        prop_assert_eq!(got[0], val, "child sees its write");
    }
}
