//! Differential test of the two quarantines: the real-memory allocator's
//! intrusive FIFO against the simulated backend's [`Quarantine`], fed the
//! same seeded sequence of use-after-free-patched frees under the same
//! byte quota. Both implement the paper's deferred-free policy, so after
//! every free they must hold the same blocks and bytes and have evicted
//! the same number of blocks.
//!
//! No `unsafe` here: each free goes through the safe
//! [`throughput`](heaptherapy_plus::hardened_alloc::throughput) driver.

use heaptherapy_plus::defense::quarantine::{Quarantine, QuarantinedBlock};
use heaptherapy_plus::hardened_alloc::{throughput, HardenedAlloc, PatchEntry};
use heaptherapy_plus::patch::{AllocFn, VulnFlags};

const UAF_SITE: u64 = 0xD1FF;

/// A seeded 64-bit LCG (Knuth's MMIX constants), high bits out.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn run(seed: u64, quota: usize, frees: usize) {
    let a = HardenedAlloc::new();
    a.set_quarantine_quota(quota);
    let installed = a.install(&[PatchEntry::new(
        AllocFn::Malloc,
        throughput::site_ccid(UAF_SITE),
        VulnFlags::USE_AFTER_FREE,
    )]);
    assert_eq!(installed, 1);
    let mut model = Quarantine::new(quota as u64);
    let mut rng = Lcg(seed);
    for i in 0..frees {
        let size = 16 + (rng.next() % (16 * 1024 - 16 + 1)) as usize;
        throughput::hardened_pairs(&a, 1, size, Some(UAF_SITE), 1);
        let _evicted = model.push(QuarantinedBlock {
            inner_ptr: i as u64,
            size: size as u64,
        });
        let st = a.stats();
        assert_eq!(
            a.quarantine_usage(),
            (model.len(), model.bytes() as usize),
            "seed {seed} quota {quota}: held blocks/bytes diverge after free {i} ({size} B)"
        );
        assert_eq!(
            st.evictions,
            model.evictions(),
            "seed {seed} quota {quota}: evictions diverge after free {i} ({size} B)"
        );
    }
    let st = a.stats();
    assert_eq!(st.quarantined, frees as u64);
    assert_eq!(
        st.quarantined_bytes,
        st.evicted_bytes + model.bytes(),
        "deferred bytes either evicted or still held"
    );
    assert_eq!((st.fail_open, st.misuse), (0, 0));
}

#[test]
fn hardened_fifo_matches_the_simulated_quarantine() {
    // 64 KiB holds blocks far larger than an eighth of the quota; 12 KiB is
    // smaller than many blocks, which must pass straight through; 8 MiB
    // ends up holding about a thousand blocks at once.
    for (seed, quota) in [(1, 64 * 1024), (2, 12 * 1024), (3, 8 * 1024 * 1024)] {
        run(seed, quota, 2000);
    }
}
