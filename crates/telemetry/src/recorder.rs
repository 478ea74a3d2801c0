//! The per-patch bookkeeping both defense backends share.
//!
//! A [`Recorder`] holds the event ring, the striped per-patch hit/byte
//! counters and one once-word per `(slot, T)`, all keyed by the frozen
//! [`PatchTable`]'s slot index. The simulated backend and the hardened
//! allocator feed it the same calls, so the same script yields the same
//! snapshot on both.

use crate::{
    AttackReport, Event, EventKind, EventRing, PatchCounterRow, PatchStripes, TelemetrySnapshot,
    NO_SLOT,
};
use ht_patch::{AllocFn, PatchTable, VulnFlags};
use std::sync::atomic::{AtomicU64, Ordering};

const SLOTS: usize = PatchTable::CAPACITY;

/// Set in a filed once-word; the low bits hold the size of the first
/// activation.
const FILED: u64 = 1 << 63;

#[allow(clippy::declare_interior_mutable_const)] // used once per slot
const UNFILED: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Telemetry state of one defended heap: allocation-free on every recording
/// path and `const`-constructible, so it embeds in a `static` allocator.
pub struct Recorder {
    ring: EventRing,
    hits: PatchStripes<SLOTS>,
    /// Per slot and `T` (in bit order: OF, UAF, UR): 0 until the first
    /// activation claims it with a CAS.
    once: [[AtomicU64; 3]; SLOTS],
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Nothing recorded yet.
    pub const fn new() -> Self {
        Self {
            ring: EventRing::new(),
            hits: PatchStripes::new(),
            once: [UNFILED; SLOTS],
        }
    }

    /// Records an allocation of `size` bytes with defenses `vuln` that hit
    /// table slot `slot` ([`NO_SLOT`]: defended without a table hit): the
    /// hit, one `guard-install` / `zero-init` event per allocation-time
    /// defense, and the first OF and UR report of the slot. UAF reports
    /// file on the free path, where the quarantine runs.
    pub fn alloc(&self, fun: AllocFn, ccid: u64, vuln: VulnFlags, slot: u32, size: u64) {
        if slot != NO_SLOT {
            self.hits.record(slot as usize, size);
            self.emit(EventKind::PatchHit, fun, vuln, slot, ccid, size);
        }
        for (t, kind) in [
            (VulnFlags::OVERFLOW, EventKind::GuardInstall),
            (VulnFlags::UNINIT_READ, EventKind::ZeroInit),
        ] {
            if vuln.contains(t) {
                self.emit(kind, fun, t, slot, ccid, size);
                self.report_once(fun, ccid, t, slot, size);
            }
        }
    }

    /// Records a `quarantine-defer` or `quarantine-evict` of a `size`-byte
    /// UAF block allocated under slot `slot` of `table`; the slot's first
    /// defer files its UAF report.
    pub fn quarantine(&self, table: &PatchTable, kind: EventKind, slot: u32, size: u64) {
        let (fun, ccid) = table
            .entry(slot as usize)
            .map_or((AllocFn::Malloc, 0), |(f, c, _)| (f, c));
        let uaf = VulnFlags::USE_AFTER_FREE;
        self.emit(kind, fun, uaf, slot, ccid, size);
        if kind == EventKind::QuarantineDefer {
            self.report_once(fun, ccid, uaf, slot, size);
        }
    }

    /// Files the `attack-reported` event of `(slot, t)` on its first
    /// activation: the once-word is claimed by a load, then a CAS, so later
    /// activations cost one load.
    fn report_once(&self, fun: AllocFn, ccid: u64, t: VulnFlags, slot: u32, size: u64) {
        let Some(once) = self.once.get(slot as usize) else {
            return;
        };
        let word = &once[t.bits().trailing_zeros() as usize];
        if word.load(Ordering::Relaxed) == 0
            && word
                .compare_exchange(0, FILED | size, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.emit(EventKind::AttackReported, fun, t, slot, ccid, size);
        }
    }

    /// Enqueues one event (a full ring counts a drop).
    pub fn push(&self, ev: Event) -> bool {
        self.ring.push(ev)
    }

    /// Enqueues the event of `kind` attributed to `slot`.
    fn emit(
        &self,
        kind: EventKind,
        fun: AllocFn,
        vuln: VulnFlags,
        slot: u32,
        ccid: u64,
        size: u64,
    ) {
        self.ring.push(Event {
            seq: 0,
            kind,
            fun,
            vuln,
            slot,
            ccid,
            size,
        });
    }

    /// Drains the event ring (observer API; allocates).
    pub fn drain_events(&self) -> Vec<Event> {
        self.ring.drain_vec()
    }

    /// Drains the ring and resolves the counters and once-words of `table`'s
    /// slots. Events are delivered once; per-patch rows and reports are
    /// cumulative and rebuilt from state the ring cannot drop, so a report
    /// filed while the ring was full still appears.
    pub fn snapshot(&self, table: &PatchTable) -> TelemetrySnapshot {
        let events = self.drain_events();
        let mut per_patch = Vec::new();
        let mut reports = Vec::new();
        for (slot, (fun, ccid, vuln)) in table.iter().enumerate().take(SLOTS) {
            let c = self.hits.counts(slot);
            if c.hits > 0 {
                per_patch.push(PatchCounterRow {
                    slot,
                    fun,
                    ccid,
                    vuln,
                    hits: c.hits,
                    bytes: c.bytes,
                });
            }
            for (bit, word) in self.once[slot].iter().enumerate() {
                let w = word.load(Ordering::Relaxed);
                if w != 0 {
                    reports.push(AttackReport {
                        fun,
                        ccid,
                        vuln: VulnFlags::from_bits_truncate(1 << bit),
                        slot: slot as u32,
                        size: w & !FILED,
                        call_chain: Vec::new(),
                    });
                }
            }
        }
        TelemetrySnapshot {
            events,
            delivered: self.ring.delivered(),
            dropped: self.ring.dropped(),
            per_patch,
            reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_patch::Patch;

    fn table() -> PatchTable {
        PatchTable::from_patches([
            Patch::new(AllocFn::Malloc, 0xA, VulnFlags::ALL),
            Patch::new(AllocFn::Calloc, 0xB, VulnFlags::UNINIT_READ),
        ])
    }

    #[test]
    fn reports_file_once_per_slot_and_type_with_the_first_size() {
        let (t, r) = (table(), Recorder::new());
        for size in [100, 200] {
            r.alloc(AllocFn::Malloc, 0xA, VulnFlags::ALL, 0, size);
            r.quarantine(&t, EventKind::QuarantineDefer, 0, size);
            r.quarantine(&t, EventKind::QuarantineEvict, 0, size);
        }
        let snap = r.snapshot(&t);
        let got: Vec<_> = snap.reports.iter().map(|r| (r.vuln, r.size)).collect();
        assert_eq!(
            got,
            [
                (VulnFlags::OVERFLOW, 100),
                (VulnFlags::USE_AFTER_FREE, 100),
                (VulnFlags::UNINIT_READ, 100)
            ]
        );
        let filed = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::AttackReported)
            .count();
        assert_eq!(filed, 3);
        assert_eq!(snap.per_patch.len(), 1);
        assert_eq!((snap.per_patch[0].hits, snap.per_patch[0].bytes), (2, 300));
        // Cumulative: a second snapshot repeats rows and reports, not events.
        let again = r.snapshot(&t);
        assert!(again.events.is_empty());
        assert_eq!(
            (again.reports, again.per_patch),
            (snap.reports, snap.per_patch)
        );
    }

    #[test]
    fn reports_survive_a_full_ring() {
        let (t, r) = (table(), Recorder::new());
        for _ in 0..crate::RING_CAPACITY {
            r.push(Event::unattributed(
                EventKind::GuardTrip,
                AllocFn::Malloc,
                1,
            ));
        }
        r.alloc(AllocFn::Calloc, 0xB, VulnFlags::UNINIT_READ, 1, 64);
        let snap = r.snapshot(&t);
        assert_eq!(snap.dropped, 3, "hit, zero-init and report events dropped");
        assert_eq!(snap.reports.len(), 1);
        assert_eq!(
            (
                snap.reports[0].fun,
                snap.reports[0].slot,
                snap.reports[0].size
            ),
            (AllocFn::Calloc, 1, 64)
        );
    }

    #[test]
    fn unattributed_defenses_file_no_report() {
        let (t, r) = (table(), Recorder::new());
        r.alloc(AllocFn::Malloc, 0x99, VulnFlags::OVERFLOW, NO_SLOT, 8);
        let snap = r.snapshot(&t);
        assert_eq!(snap.events.len(), 1, "guard-install only");
        assert!(snap.reports.is_empty() && snap.per_patch.is_empty());
    }
}
