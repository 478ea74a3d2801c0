//! Safe allocation-throughput drivers for the multi-threaded scaling
//! benchmark (`reproduce scaling`).
//!
//! The benchmark crate is `#![forbid(unsafe_code)]`, so the raw
//! [`GlobalAlloc`] loops live here: each function performs `pairs`
//! allocate–touch–free round trips of `size` bytes on the calling thread
//! and returns the number of pairs completed. The bench harness runs them
//! from N threads at once and divides by wall time.

use crate::ccid;
use crate::galloc::HardenedAlloc;
use std::alloc::{GlobalAlloc, Layout, System};

fn layout(size: usize) -> Layout {
    Layout::from_size_align(size.max(1), 8).expect("valid bench layout")
}

/// Allocate/touch/free `pairs` times straight against the system allocator
/// (the "native" series).
pub fn native_pairs(pairs: u64, size: usize) -> u64 {
    let l = layout(size);
    for i in 0..pairs {
        unsafe {
            // black_box the pointer: Rust allocator calls are elidable, and
            // LLVM happily removes the whole pair otherwise.
            let p = std::hint::black_box(System.alloc(l));
            assert!(!p.is_null());
            p.write((i as u8).wrapping_add(1));
            std::hint::black_box(p.read());
            System.dealloc(std::hint::black_box(p), l);
        }
    }
    pairs
}

/// Allocate/touch/free `pairs` times through `a`.
///
/// When `patched_site` is set, every `patched_every`-th pair enters that
/// instrumented call site first, so the allocation's `(FUN, CCID)` probes
/// hot in the patch table — the "N-patch" series of Fig. 8, but threaded.
pub fn hardened_pairs(
    a: &HardenedAlloc,
    pairs: u64,
    size: usize,
    patched_site: Option<u64>,
    patched_every: u64,
) -> u64 {
    let l = layout(size);
    let every = patched_every.max(1);
    for i in 0..pairs {
        unsafe {
            let patched = patched_site.filter(|_| i % every == 0);
            let p = match patched {
                Some(site) => {
                    let _scope = ccid::CallScope::enter(site);
                    a.alloc(l)
                }
                None => a.alloc(l),
            };
            assert!(!p.is_null());
            p.write((i as u8).wrapping_add(1));
            std::hint::black_box(p.read());
            a.dealloc(p, l);
        }
    }
    pairs
}

/// Allocates `count` buffers of `size` bytes inside patched call site
/// `site`, writes a per-buffer tag, then verifies every tag and frees in
/// allocation order. Returns the number of tag mismatches (0 = no buffer
/// was lost or corrupted while many patched allocations were live at once).
pub fn hardened_batch(a: &HardenedAlloc, count: usize, size: usize, site: u64) -> usize {
    let l = layout(size);
    let _scope = ccid::CallScope::enter(site);
    let mut ptrs = Vec::with_capacity(count);
    for i in 0..count {
        unsafe {
            let p = a.alloc(l);
            assert!(!p.is_null());
            p.write((i as u8) ^ 0x5A);
            ptrs.push(p);
        }
    }
    let mut corrupt = 0;
    for (i, p) in ptrs.into_iter().enumerate() {
        unsafe {
            if p.read() != (i as u8) ^ 0x5A {
                corrupt += 1;
            }
            a.dealloc(p, l);
        }
    }
    corrupt
}

/// The patched call sites [`guarded_churn`] allocates in, one per guarded
/// allocation path.
#[derive(Debug, Clone, Copy)]
pub struct GuardedSites {
    /// Patched OF on malloc.
    pub malloc: u64,
    /// Patched OF|UR on malloc.
    pub malloc_ur: u64,
    /// Patched OF on calloc.
    pub calloc: u64,
    /// Patched OF on realloc.
    pub realloc: u64,
}

/// For each round and each of `sizes`, allocates four guarded buffers and
/// holds them live together: malloc (OF), malloc (OF|UR), calloc (OF), and
/// an unpatched half-size buffer grown by realloc (OF). Each is checked,
/// filled with `tag`, re-checked once all four are filled, then freed.
///
/// Returns the number of defects: a buffer that does not end within its
/// alignment of its guard page, a nonzero byte between its end and the
/// guard or anywhere in a calloc or UR buffer, a realloc that lost its
/// contents, or a tag that changed while the buffer was live.
pub fn guarded_churn(
    a: &HardenedAlloc,
    rounds: usize,
    sizes: &[usize],
    sites: GuardedSites,
    tag: u8,
) -> usize {
    let mut defects = 0;
    for _ in 0..rounds {
        for &size in sizes {
            let l = layout(size);
            let half = layout(size / 2);
            // SAFETY: every buffer comes from `a` (`old` with `half`, the
            // others with `l`), is checked non-null before use, is only
            // touched within its size (or, past its end, up to its guard
            // page, which is mapped), and is freed exactly once.
            unsafe {
                let old = a.alloc(half);
                assert!(!old.is_null());
                std::ptr::write_bytes(old, tag, half.size());
                let grown = ccid::with_site(sites.realloc, || a.realloc(old, half, size));
                assert!(!grown.is_null());
                if !holds(grown, half.size(), tag) {
                    defects += 1;
                }
                let bufs = [
                    (ccid::with_site(sites.malloc, || a.alloc(l)), false),
                    (ccid::with_site(sites.malloc_ur, || a.alloc(l)), true),
                    (ccid::with_site(sites.calloc, || a.alloc_zeroed(l)), true),
                    (grown, false),
                ];
                assert!(bufs.iter().all(|(p, _)| !p.is_null()));
                for &(p, zeroed) in &bufs {
                    let Some(guard) = a.guard_page_of(p) else {
                        defects += 1;
                        continue;
                    };
                    let end = p as usize + size;
                    let from = if zeroed { p as usize } else { end };
                    if guard < end
                        || guard - end >= l.align()
                        || !holds(from as *mut u8, guard - from, 0)
                    {
                        defects += 1;
                    }
                    std::ptr::write_bytes(p, tag, size);
                }
                for (p, _) in bufs {
                    if !holds(p, size, tag) {
                        defects += 1;
                    }
                    a.dealloc(p, l);
                }
            }
        }
    }
    defects
}

/// Whether all `len` bytes at `p` equal `byte`.
///
/// # Safety
///
/// The bytes must be readable.
unsafe fn holds(p: *const u8, len: usize, byte: u8) -> bool {
    std::slice::from_raw_parts(p, len)
        .iter()
        .all(|&b| b == byte)
}

/// The CCID observed from inside instrumented site `site` on this thread —
/// what a patch targeting that site must carry.
pub fn site_ccid(site: u64) -> u64 {
    ccid::with_site(site, ccid::current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::galloc::PatchEntry;
    use ht_patch::{AllocFn, VulnFlags};

    #[test]
    fn native_loop_completes() {
        assert_eq!(native_pairs(100, 64), 100);
    }

    #[test]
    fn batch_holds_live_buffers_without_corruption() {
        let a = HardenedAlloc::new();
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            site_ccid(0xBA7C),
            VulnFlags::OVERFLOW,
        )]);
        assert_eq!(hardened_batch(&a, 100, 64, 0xBA7C), 0);
        let st = a.stats();
        assert_eq!(st.table_hits, 100);
        assert_eq!(st.interposed_allocs, st.interposed_frees);
        assert_eq!(a.registry_stats().live(), 0);
    }

    #[test]
    fn hardened_loop_unpatched_is_pass_through() {
        let a = HardenedAlloc::new();
        assert_eq!(hardened_pairs(&a, 50, 64, None, 1), 50);
        let st = a.stats();
        assert_eq!(st.interposed_allocs, 50);
        assert_eq!(st.interposed_frees, 50);
        assert_eq!(st.table_hits, 0);
    }

    #[test]
    fn hardened_loop_hits_the_patched_context() {
        let a = HardenedAlloc::new();
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            site_ccid(0x5CA1),
            VulnFlags::OVERFLOW,
        )]);
        assert_eq!(hardened_pairs(&a, 64, 64, Some(0x5CA1), 16), 64);
        let st = a.stats();
        assert_eq!(st.table_hits, 4, "every 16th pair probes hot");
        assert_eq!(st.guard_pages, 4);
    }
}
