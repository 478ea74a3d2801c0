//! The frozen online patch table.

use crate::{AllocFn, Patch, VulnFlags};

/// The hash table the online defense probes on every allocation.
///
/// Built once at program initialization from the configuration file and then
/// frozen (the paper `mprotect`s its pages read-only; here immutability is
/// enforced by the type: there is no mutating method). The backing store is
/// a flat open-addressing probe array at ≤ 1/8 load — the hot lookup is a
/// multiply, a shift and, for the common miss, almost always one empty
/// cell, with no `HashMap` bucket indirection and no SipHash.
///
/// Duplicate keys merge their vulnerability bits — an input exploiting
/// multiple vulnerabilities of one buffer yields one entry with several bits
/// set (paper Section V, "How to handle multiple vulnerabilities").
///
/// [`PatchTable::iter`] yields entries sorted by `(FUN, CCID)`, so every
/// report or configuration file derived from a table is byte-identical
/// across runs. A patch's position in that order is its *slot*: the dense
/// index both defense backends key their telemetry by.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchTable {
    /// Probe array; `None` = empty cell. Power-of-two length.
    slots: Vec<Option<Cell>>,
    /// The merged entries, sorted by `(FUN, CCID)`.
    entries: Vec<(AllocFn, u64, VulnFlags)>,
}

/// One probe-array cell: a key, its merged bits and its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    ccid: u64,
    fun: AllocFn,
    vuln: VulnFlags,
    slot: u32,
}

/// The first probe cell of a key in an array of `2^bits` cells: the top
/// bits of a multiplicative hash (the low bits of the product depend only
/// on the low bits of the CCID).
#[inline]
fn home(fun: AllocFn, ccid: u64, bits: u32) -> usize {
    ((ccid ^ ((fun as u64) << 56)).wrapping_mul(0x9E3779B97F4A7C15) >> (64 - bits)) as usize
}

impl PatchTable {
    /// The most patches a table keyed into telemetry holds: the range of
    /// the real heap's 9-bit meta-word slot field. The hardened allocator
    /// fails open past it; a telemetry-armed simulator refuses more.
    pub const CAPACITY: usize = 512;

    /// An empty table (no buffer is considered vulnerable).
    pub const fn new() -> Self {
        Self {
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Builds a table from patches, merging duplicates.
    pub fn from_patches<I: IntoIterator<Item = Patch>>(patches: I) -> Self {
        let mut entries: Vec<(AllocFn, u64, VulnFlags)> = patches
            .into_iter()
            .map(|p| (p.alloc_fn, p.ccid, p.vuln))
            .collect();
        entries.sort_by_key(|&(f, c, _)| (f, c));
        entries.dedup_by(|later, earlier| {
            if (earlier.0, earlier.1) == (later.0, later.1) {
                earlier.2 |= later.2;
                true
            } else {
                false
            }
        });
        // The probe array at ≤ 1/8 load: a miss, the common case, rarely
        // probes a second cell.
        let cap = (entries.len() * 8).next_power_of_two().max(64);
        let mut slots = vec![None; cap];
        for (slot, &(fun, ccid, vuln)) in entries.iter().enumerate() {
            let mut s = home(fun, ccid, cap.trailing_zeros());
            while slots[s].is_some() {
                s = (s + 1) & (cap - 1);
            }
            slots[s] = Some(Cell {
                ccid,
                fun,
                vuln,
                slot: slot as u32,
            });
        }
        Self { slots, entries }
    }

    /// O(1) probe: is a buffer allocated via `fun` under context `ccid`
    /// vulnerable, and to what?
    #[inline]
    pub fn lookup(&self, fun: AllocFn, ccid: u64) -> Option<VulnFlags> {
        self.lookup_slot(fun, ccid).map(|(_, vuln)| vuln)
    }

    /// [`Self::lookup`] that also returns the patch's slot: its position in
    /// the sorted entry list, resolved back by [`Self::entry`].
    #[inline]
    pub fn lookup_slot(&self, fun: AllocFn, ccid: u64) -> Option<(usize, VulnFlags)> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut s = home(fun, ccid, self.slots.len().trailing_zeros());
        while let Some(c) = self.slots[s] {
            if c.ccid == ccid && c.fun == fun {
                return Some((c.slot as usize, c.vuln));
            }
            s = (s + 1) & mask;
        }
        None
    }

    /// The entry in slot `i`.
    pub fn entry(&self, i: usize) -> Option<(AllocFn, u64, VulnFlags)> {
        self.entries.get(i).copied()
    }

    /// Number of distinct `(FUN, CCID)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no patches.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in ascending `(FUN, CCID)` order — slot order,
    /// a deterministic order, so derived output is stable across runs.
    pub fn iter(&self) -> impl Iterator<Item = (AllocFn, u64, VulnFlags)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_and_misses() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
            Patch::new(AllocFn::Calloc, 2, VulnFlags::UNINIT_READ),
        ]);
        assert_eq!(t.lookup(AllocFn::Malloc, 1), Some(VulnFlags::OVERFLOW));
        assert_eq!(t.lookup(AllocFn::Calloc, 2), Some(VulnFlags::UNINIT_READ));
        assert_eq!(t.lookup(AllocFn::Malloc, 2), None, "key includes FUN");
        assert_eq!(t.lookup(AllocFn::Calloc, 1), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicates_merge_bits() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Malloc, 9, VulnFlags::OVERFLOW),
            Patch::new(AllocFn::Malloc, 9, VulnFlags::UNINIT_READ),
        ]);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(AllocFn::Malloc, 9),
            Some(VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ)
        );
    }

    #[test]
    fn empty_table() {
        let t = PatchTable::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(AllocFn::Malloc, 0), None);
    }

    #[test]
    fn iter_yields_all_entries_sorted() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Realloc, 2, VulnFlags::ALL),
            Patch::new(AllocFn::Malloc, 5, VulnFlags::USE_AFTER_FREE),
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
        ]);
        let got: Vec<_> = t.iter().collect();
        assert_eq!(
            got,
            vec![
                (AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
                (AllocFn::Malloc, 5, VulnFlags::USE_AFTER_FREE),
                (AllocFn::Realloc, 2, VulnFlags::ALL),
            ],
            "iteration order is sorted (FUN, CCID), not hash order"
        );
    }

    #[test]
    fn lookup_slot_returns_the_sorted_position() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Realloc, 2, VulnFlags::ALL),
            Patch::new(AllocFn::Malloc, 5, VulnFlags::USE_AFTER_FREE),
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
        ]);
        assert_eq!(t.lookup_slot(AllocFn::Malloc, 2), None);
        assert_eq!(
            t.entry(2),
            Some((AllocFn::Realloc, 2, VulnFlags::ALL)),
            "entry() resolves the slot back to the patch"
        );
        assert_eq!(t.entry(3), None);
        for (i, (f, c, v)) in t.iter().enumerate() {
            assert_eq!(t.lookup_slot(f, c), Some((i, v)));
        }
    }

    #[test]
    fn dense_tables_probe_correctly() {
        // Enough keys to force wraparound probes.
        let patches: Vec<Patch> = (0..300)
            .map(|i| Patch::new(AllocFn::Malloc, i * 3 + 1, VulnFlags::OVERFLOW))
            .collect();
        let t = PatchTable::from_patches(patches);
        assert_eq!(t.len(), 300);
        for i in 0..300u64 {
            assert_eq!(
                t.lookup(AllocFn::Malloc, i * 3 + 1),
                Some(VulnFlags::OVERFLOW)
            );
            assert_eq!(t.lookup(AllocFn::Malloc, i * 3 + 2), None);
        }
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = PatchTable::from_patches([
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
            Patch::new(AllocFn::Calloc, 2, VulnFlags::UNINIT_READ),
        ]);
        let b = PatchTable::from_patches([
            Patch::new(AllocFn::Calloc, 2, VulnFlags::UNINIT_READ),
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
        ]);
        assert_eq!(a, b);
    }
}
