//! Striped counters: a scalar [`StripedCounter`] and per-patch hit/byte
//! counters ([`PatchStripes`]).
//!
//! Both keep concurrent increments contention-free the same way: 16
//! independent cache-line-padded lanes, with each thread hashing once to
//! one lane. The frozen patch table gives every patch a stable slot index,
//! and [`PatchStripes`] is a dense per-slot vector per lane. Counts are
//! exact; reads sum the lanes and are only momentarily racy, as with any
//! relaxed counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counter stripes.
pub const TELEMETRY_STRIPES: usize = 16;

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const ZERO_WORD: AtomicU64 = AtomicU64::new(0);

/// One stripe: a private hits/bytes vector starting on its own cache line.
#[repr(align(64))]
struct Lane<const SLOTS: usize> {
    hits: [AtomicU64; SLOTS],
    bytes: [AtomicU64; SLOTS],
}

impl<const SLOTS: usize> Lane<SLOTS> {
    #[allow(clippy::declare_interior_mutable_const)] // used once per lane
    const NEW: Lane<SLOTS> = Lane {
        hits: [ZERO_WORD; SLOTS],
        bytes: [ZERO_WORD; SLOTS],
    };
}

thread_local! {
    /// Per-thread lane index, derived once from the thread id.
    static LANE: usize = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(&std::thread::current().id(), &mut h);
        (std::hash::Hasher::finish(&h) as usize) % TELEMETRY_STRIPES
    };
}

/// This thread's lane. `try_with` so counting keeps working during thread
/// teardown, when the thread-local may already be destroyed.
#[inline]
fn lane() -> usize {
    LANE.try_with(|&l| l).unwrap_or(0)
}

/// One cache-line-padded counter cell, so neighbouring lanes never
/// false-share.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedU64(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const ZERO_CELL: PaddedU64 = PaddedU64(AtomicU64::new(0));

/// A scalar statistics counter striped over cache lines, `const`-
/// constructible so it can embed in a `static` allocator.
#[derive(Debug)]
pub struct StripedCounter {
    cells: [PaddedU64; TELEMETRY_STRIPES],
}

impl Default for StripedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl StripedCounter {
    /// A zero counter.
    pub const fn new() -> Self {
        Self {
            cells: [ZERO_CELL; TELEMETRY_STRIPES],
        }
    }

    /// Adds `n` on this thread's lane.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[lane()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The sum over all lanes.
    pub fn load(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// Merged hit/byte counts of one patch slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchCounts {
    /// Allocations that hit the patch.
    pub hits: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// Striped per-patch-slot hit/byte counters, `const`-constructible so they
/// can embed in a `static` allocator.
pub struct PatchStripes<const SLOTS: usize> {
    lanes: [Lane<SLOTS>; TELEMETRY_STRIPES],
}

impl<const SLOTS: usize> std::fmt::Debug for PatchStripes<SLOTS> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchStripes")
            .field("slots", &SLOTS)
            .finish_non_exhaustive()
    }
}

impl<const SLOTS: usize> Default for PatchStripes<SLOTS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const SLOTS: usize> PatchStripes<SLOTS> {
    /// All-zero counters.
    pub const fn new() -> Self {
        Self {
            lanes: [Lane::NEW; TELEMETRY_STRIPES],
        }
    }

    /// Records one hit of `bytes` bytes against patch slot `slot`.
    /// Out-of-range slots are ignored (cannot happen through the public
    /// wiring; keeps the hot path panic-free).
    #[inline]
    pub fn record(&self, slot: usize, bytes: u64) {
        if slot >= SLOTS {
            return;
        }
        let lane = &self.lanes[lane()];
        lane.hits[slot].fetch_add(1, Ordering::Relaxed);
        lane.bytes[slot].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Merged counts for one slot.
    pub fn counts(&self, slot: usize) -> PatchCounts {
        let mut c = PatchCounts::default();
        if slot >= SLOTS {
            return c;
        }
        for lane in &self.lanes {
            c.hits += lane.hits[slot].load(Ordering::Relaxed);
            c.bytes += lane.bytes[slot].load(Ordering::Relaxed);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn record_and_merge_single_thread() {
        let s: PatchStripes<8> = PatchStripes::new();
        s.record(0, 64);
        s.record(0, 32);
        s.record(7, 1);
        assert_eq!(s.counts(0), PatchCounts { hits: 2, bytes: 96 });
        assert_eq!(s.counts(7), PatchCounts { hits: 1, bytes: 1 });
        assert_eq!(s.counts(3), PatchCounts::default());
    }

    #[test]
    fn out_of_range_slot_is_ignored() {
        let s: PatchStripes<4> = PatchStripes::new();
        s.record(4, 100);
        s.record(usize::MAX, 100);
        assert!((0..4).all(|slot| s.counts(slot).hits == 0));
        assert_eq!(s.counts(99), PatchCounts::default());
    }

    #[test]
    fn striped_counter_is_exact_across_threads() {
        let c = Arc::new(StripedCounter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.incr();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(), 80_000);
    }

    #[test]
    fn counts_are_exact_across_threads() {
        let s: Arc<PatchStripes<4>> = Arc::new(PatchStripes::new());
        let mut handles = Vec::new();
        for t in 0..8usize {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.record(t % 4, 8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for slot in 0..4 {
            let c = s.counts(slot);
            assert_eq!(c.hits, 20_000, "slot {slot}");
            assert_eq!(c.bytes, 160_000, "slot {slot}");
        }
    }
}
