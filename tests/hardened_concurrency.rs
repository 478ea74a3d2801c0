//! Threaded stress and property coverage for the hardened allocator: with
//! 8 threads hammering patched and unpatched contexts, no live buffer is
//! lost or corrupted, and the striped counters conserve (allocs = frees,
//! tagged inserts = removes + live, quarantined bytes = evicted bytes +
//! bytes still held) — including under eviction-heavy quarantine quotas
//! and with telemetry armed.
//!
//! Everything goes through the public API plus the safe
//! [`throughput`](heaptherapy_plus::hardened_alloc::throughput) drivers —
//! no `unsafe` in this file.

use heaptherapy_plus::hardened_alloc::{throughput, HardenedAlloc, PatchEntry};
use heaptherapy_plus::patch::{AllocFn, VulnFlags};
use proptest::prelude::*;

/// Distinct instrumented call sites, one per vulnerability class.
const OVERFLOW_SITE: u64 = 0xF100;
const UAF_SITE: u64 = 0xF200;
const UR_SITE: u64 = 0xF300;

fn patched_alloc() -> Box<HardenedAlloc> {
    let a = Box::new(HardenedAlloc::new());
    let installed = a.install(&[
        PatchEntry::new(
            AllocFn::Malloc,
            throughput::site_ccid(OVERFLOW_SITE),
            VulnFlags::OVERFLOW,
        ),
        PatchEntry::new(
            AllocFn::Malloc,
            throughput::site_ccid(UAF_SITE),
            VulnFlags::USE_AFTER_FREE,
        ),
        PatchEntry::new(
            AllocFn::Malloc,
            throughput::site_ccid(UR_SITE),
            VulnFlags::UNINIT_READ,
        ),
    ]);
    assert_eq!(installed, 3);
    a.freeze();
    a
}

/// 8 threads × alternating vulnerability classes, every 4th allocation in a
/// patched context: exact counter conservation at the end.
#[test]
fn threaded_pairs_conserve_every_counter() {
    const THREADS: usize = 8;
    const PAIRS: u64 = 2000; // divisible by EVERY
    const EVERY: u64 = 4;
    let a = patched_alloc();

    let sites = [OVERFLOW_SITE, UAF_SITE, UR_SITE];
    ht_par::par_spawn(THREADS, |i| {
        let done =
            throughput::hardened_pairs(&a, PAIRS, 32 + i * 8, Some(sites[i % sites.len()]), EVERY);
        assert_eq!(done, PAIRS);
    });

    let st = a.stats();
    let total = THREADS as u64 * PAIRS;
    let patched_per_thread = PAIRS / EVERY;
    assert_eq!(st.interposed_allocs, total);
    assert_eq!(st.interposed_frees, total);
    assert_eq!(st.table_hits, THREADS as u64 * patched_per_thread);
    // Thread i uses sites[i % 3]: overflow on 0,3,6 (3 threads), UAF on
    // 1,4,7 (3 threads), UR on 2,5 (2 threads).
    assert_eq!(st.guard_pages, 3 * patched_per_thread);
    assert_eq!(st.quarantined, 3 * patched_per_thread);
    assert_eq!(st.zero_fills, 2 * patched_per_thread);
    assert!(st.evictions <= st.quarantined);
    assert_eq!(st.fail_open, 0, "the patch table never filled up");
    assert_eq!(st.misuse, 0);

    // Tagged-buffer conservation: every guarded or quarantine-bound
    // allocation was counted in exactly once and out exactly once (UR-only
    // buffers are zeroed, not tagged; quarantined blocks count out when
    // their free is deferred).
    let rs = a.registry_stats();
    assert_eq!(rs.inserts, rs.removes + rs.live());
    assert_eq!(rs.live(), 0, "no patched pointer leaked");
    assert_eq!(
        rs.inserts,
        st.guard_pages + st.quarantined,
        "each guarded/deferred allocation registered once"
    );
}

/// 8 threads each hold a large batch of patched allocations live at once,
/// then verify their buffers byte-for-byte before freeing.
#[test]
fn threaded_batches_never_lose_or_corrupt_live_pointers() {
    const THREADS: usize = 8;
    const COUNT: usize = 96;
    let a = patched_alloc();

    ht_par::par_spawn(THREADS, |i| {
        for round in 0..4 {
            let corrupt = throughput::hardened_batch(&a, COUNT, 64 + round * 32, OVERFLOW_SITE);
            assert_eq!(corrupt, 0, "thread {i} round {round}: corrupted buffer");
        }
    });

    let st = a.stats();
    assert_eq!(st.interposed_allocs, st.interposed_frees);
    assert_eq!(st.fail_open, 0);
    assert_eq!(st.guard_pages, (THREADS * 4 * COUNT) as u64);
    let rs = a.registry_stats();
    assert_eq!(rs.live(), 0);
    assert_eq!(rs.inserts, (THREADS * 4 * COUNT) as u64);
}

/// 8 threads of use-after-free frees against a deliberately tiny quarantine
/// quota: blocks cycle through quarantine and back out to the system
/// allocator, the byte ledger conserves exactly, and armed telemetry
/// counts every patched allocation and files the UAF report exactly once.
#[test]
fn eviction_heavy_quarantine_conserves_bytes_and_reports_once() {
    const THREADS: usize = 8;
    const PAIRS: u64 = 512;
    const SIZE: usize = 128;
    const QUOTA: usize = 1024; // eight 128 B blocks
    let a = patched_alloc();
    a.set_quarantine_quota(QUOTA);
    a.set_telemetry(true);

    ht_par::par_spawn(THREADS, |_| {
        throughput::hardened_pairs(&a, PAIRS, SIZE, Some(UAF_SITE), 1);
    });

    let st = a.stats();
    let total = THREADS as u64 * PAIRS;
    assert_eq!(st.quarantined, total, "every free was deferred");
    assert!(st.evictions > 0, "tiny quota must evict: {st:?}");
    let (_, held_bytes) = a.quarantine_usage();
    assert!(held_bytes <= QUOTA, "usage {held_bytes} over quota {QUOTA}");
    assert_eq!(
        st.quarantined_bytes,
        st.evicted_bytes + held_bytes as u64,
        "deferred bytes either evicted or still held"
    );

    let snap = a.telemetry_snapshot();
    // Striped counters are exact even though the 1024-slot ring overflowed.
    assert_eq!(snap.per_patch.iter().map(|p| p.hits).sum::<u64>(), total);
    assert_eq!(
        snap.per_patch.iter().map(|p| p.bytes).sum::<u64>(),
        total * SIZE as u64
    );
    // Ring accounting is exact too: per pair one patch-hit and one defer
    // event, plus one evict event per eviction and the single UAF report.
    assert!(
        snap.dropped > 0,
        "workload must overflow the ring: {snap:?}"
    );
    assert_eq!(
        snap.delivered + snap.dropped,
        2 * total + st.evictions + 1,
        "every event either delivered or counted as dropped"
    );
    assert_eq!(snap.reports.len(), 1, "one UAF report, filed exactly once");
}

/// 10 000 UAF-patched buffers live at once are all tagged and all deferred
/// on free: per-buffer headers have no capacity limit to fail open at.
#[test]
fn ten_thousand_live_uaf_buffers_are_all_deferred() {
    const COUNT: usize = 10_000;
    let a = patched_alloc();
    assert_eq!(throughput::hardened_batch(&a, COUNT, 64, UAF_SITE), 0);
    let st = a.stats();
    assert_eq!(st.fail_open, 0);
    assert_eq!(st.quarantined, COUNT as u64);
    assert_eq!(st.evictions, 0, "the default quota holds them all");
    assert_eq!(a.quarantine_usage(), (COUNT, COUNT * 64));
    let rs = a.registry_stats();
    assert_eq!((rs.inserts, rs.live()), (COUNT as u64, 0));
}

/// 8 threads churn guarded buffers through the guard cache across several
/// page classes (and one body above the largest, which is unmapped on
/// free), on every guarded path: OF malloc, OF|UR malloc, calloc and
/// realloc under OF. Every buffer ends at its guard, reads zero where it
/// must and keeps its tag while live; no free is refused.
#[test]
fn threaded_guarded_churn_recycles_regions_safely() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 16;
    // Bodies of 1, 1, 2, 3, 5 and 18 pages.
    const SIZES: [usize; 6] = [24, 3000, 5000, 9001, 20_000, 70_001];
    let sites = throughput::GuardedSites {
        malloc: 0xF400,
        malloc_ur: 0xF500,
        calloc: 0xF600,
        realloc: 0xF700,
    };
    let a = Box::new(HardenedAlloc::new());
    let of = VulnFlags::OVERFLOW;
    let installed = a.install(&[
        PatchEntry::new(AllocFn::Malloc, throughput::site_ccid(sites.malloc), of),
        PatchEntry::new(
            AllocFn::Malloc,
            throughput::site_ccid(sites.malloc_ur),
            of | VulnFlags::UNINIT_READ,
        ),
        PatchEntry::new(AllocFn::Calloc, throughput::site_ccid(sites.calloc), of),
        PatchEntry::new(AllocFn::Realloc, throughput::site_ccid(sites.realloc), of),
    ]);
    assert_eq!(installed, 4);
    a.freeze();

    ht_par::par_spawn(THREADS, |i| {
        let defects = throughput::guarded_churn(&a, ROUNDS, &SIZES, sites, 1 + i as u8);
        assert_eq!(defects, 0, "thread {i}");
    });

    let st = a.stats();
    let of_allocs = (THREADS * ROUNDS * SIZES.len() * 4) as u64;
    assert_eq!(st.guard_pages, of_allocs);
    assert!(
        st.guard_maps < st.guard_pages,
        "regions were recycled: {st:?}"
    );
    assert_eq!(st.zero_fills, of_allocs / 4);
    assert_eq!(st.misuse, 0);
    assert_eq!(a.registry_stats().live(), 0);
}

/// One thread's mixed workload, used as the proptest unit below.
#[derive(Debug, Clone, Copy)]
struct Workload {
    pairs: u64,
    size: usize,
    site: Option<u64>,
    every: u64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (1u64..200, 1usize..512, 0usize..4, 1u64..8).prop_map(|(pairs, size, site, every)| Workload {
        pairs,
        size,
        site: [None, Some(OVERFLOW_SITE), Some(UAF_SITE), Some(UR_SITE)][site],
        every,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever mix of patched/unpatched workloads runs on however many
    /// threads — under the default quota or an eviction-heavy tiny one,
    /// with telemetry armed or off — the allocator's books balance
    /// afterwards, down to the byte.
    #[test]
    fn stats_conservation_holds_for_arbitrary_threaded_workloads(
        workloads in proptest::collection::vec(arb_workload(), 1..6),
        quota in prop_oneof![
            Just(usize::MAX),    // effectively unlimited: nothing evicts
            512usize..4096,      // eviction-heavy: most deferred frees cycle out
        ],
        telemetry in any::<bool>(),
    ) {
        let a = patched_alloc();
        a.set_quarantine_quota(quota);
        a.set_telemetry(telemetry);
        let expected_allocs: u64 = workloads.iter().map(|w| w.pairs).sum();
        let expected_hits: u64 = workloads
            .iter()
            .filter(|w| w.site.is_some())
            .map(|w| w.pairs.div_ceil(w.every))
            .sum();
        let expected_patched_bytes: u64 = workloads
            .iter()
            .filter(|w| w.site.is_some())
            .map(|w| w.pairs.div_ceil(w.every) * w.size as u64)
            .sum();
        // UR-only buffers are zeroed in place, never registered.
        let expected_registered: u64 = workloads
            .iter()
            .filter(|w| matches!(w.site, Some(OVERFLOW_SITE) | Some(UAF_SITE)))
            .map(|w| w.pairs.div_ceil(w.every))
            .sum();

        ht_par::par_spawn(workloads.len(), |i| {
            let w = workloads[i];
            throughput::hardened_pairs(&a, w.pairs, w.size, w.site, w.every);
        });

        let st = a.stats();
        prop_assert_eq!(st.interposed_allocs, expected_allocs);
        prop_assert_eq!(st.interposed_frees, expected_allocs);
        prop_assert_eq!(st.table_hits, expected_hits);
        prop_assert_eq!(
            st.guard_pages + st.quarantined + st.zero_fills,
            expected_hits
        );
        prop_assert!(st.evictions <= st.quarantined);
        prop_assert_eq!(st.fail_open, 0);
        prop_assert_eq!(st.misuse, 0);
        // Byte conservation: whatever the quota forced out plus whatever is
        // still held is exactly what was deferred.
        let (_, held_bytes) = a.quarantine_usage();
        prop_assert_eq!(st.quarantined_bytes, st.evicted_bytes + held_bytes as u64);
        if quota != usize::MAX {
            prop_assert!(held_bytes <= quota);
        } else {
            prop_assert_eq!(st.evictions, 0);
        }

        let rs = a.registry_stats();
        prop_assert_eq!(rs.inserts, rs.removes + rs.live());
        prop_assert_eq!(rs.live(), 0);
        prop_assert_eq!(rs.inserts, expected_registered);

        // Telemetry's striped counters are exact (the ring may drop under
        // load; the counters never do), and disabled telemetry sees nothing.
        let snap = a.telemetry_snapshot();
        if telemetry {
            prop_assert_eq!(
                snap.per_patch.iter().map(|p| p.hits).sum::<u64>(),
                expected_hits
            );
            prop_assert_eq!(
                snap.per_patch.iter().map(|p| p.bytes).sum::<u64>(),
                expected_patched_bytes
            );
        } else {
            prop_assert!(snap.is_empty());
        }
    }
}
