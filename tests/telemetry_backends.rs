//! One telemetry script, two defense backends: the simulated
//! `DefendedBackend` and the real-memory `HardenedAlloc` share the patch
//! table and the telemetry recorder, so the same allocations must yield the
//! same snapshots — events, per-patch rows and attack reports — on both.

use heaptherapy_plus::callgraph::FuncId;
use heaptherapy_plus::defense::{DefendedBackend, DefenseConfig};
use heaptherapy_plus::encoding::Ccid;
use heaptherapy_plus::hardened_alloc::{ccid, HardenedAlloc};
use heaptherapy_plus::patch::{AllocFn, Patch, PatchTable, VulnFlags};
use heaptherapy_plus::simprog::{AllocRequest, HeapBackend};
use heaptherapy_plus::telemetry::{EventKind, TelemetryConfig, TelemetrySnapshot, RING_CAPACITY};
use std::alloc::{GlobalAlloc, Layout};

/// The `malloc` patch of each `(site, T)`, keyed by the CCID the site has
/// on the real heap.
fn patches(sites: &[(u64, VulnFlags)]) -> Vec<Patch> {
    sites
        .iter()
        .map(|&(site, vuln)| {
            Patch::new(AllocFn::Malloc, ccid::with_site(site, ccid::current), vuln)
        })
        .collect()
}

/// Runs `script` — `(site, size)` allocations, each freed at once — on the
/// simulated backend; returns two snapshots taken one after the other.
fn on_sim(
    patches: &[Patch],
    quota: u64,
    script: &[(u64, u64)],
) -> (TelemetrySnapshot, TelemetrySnapshot) {
    let mut d = DefendedBackend::new(DefenseConfig {
        quarantine_quota: quota,
        telemetry: TelemetryConfig::enabled(),
        ..DefenseConfig::with_table(PatchTable::from_patches(patches.to_vec()))
    });
    for &(site, size) in script {
        let req = AllocRequest {
            fun: AllocFn::Malloc,
            size,
            align: 16,
            ccid: Ccid(ccid::with_site(site, ccid::current)),
            target: FuncId(0),
            old_ptr: None,
        };
        let p = d.alloc(&req).expect("simulated allocation");
        assert!(d.free(p).is_ok());
    }
    let first = d.telemetry_snapshot().expect("telemetry armed");
    (first, d.telemetry_snapshot().expect("telemetry armed"))
}

/// [`on_sim`] on the real heap.
fn on_real(
    patches: &[Patch],
    quota: u64,
    script: &[(u64, u64)],
) -> (TelemetrySnapshot, TelemetrySnapshot) {
    let a = HardenedAlloc::new();
    assert_eq!(a.install(patches), patches.len());
    a.set_quarantine_quota(quota as usize);
    a.set_telemetry(true);
    for &(site, size) in script {
        let l = Layout::from_size_align(size as usize, 16).unwrap();
        // SAFETY: the buffer comes from `a` and is freed once.
        unsafe {
            let p = {
                let _site = ccid::CallScope::enter(site);
                a.alloc(l)
            };
            assert!(!p.is_null());
            a.dealloc(p, l);
        }
    }
    assert_eq!(a.stats().misuse, 0);
    (a.telemetry_snapshot(), a.telemetry_snapshot())
}

fn count(snap: &TelemetrySnapshot, kind: EventKind) -> usize {
    snap.events.iter().filter(|e| e.kind == kind).count()
}

/// Asserts both backends produced the same pair of snapshots and returns
/// the first.
fn same_on_both(
    sites: &[(u64, VulnFlags)],
    quota: u64,
    script: &[(u64, u64)],
) -> TelemetrySnapshot {
    let patches = patches(sites);
    let (sim, sim_again) = on_sim(&patches, quota, script);
    let (real, real_again) = on_real(&patches, quota, script);
    for (s, r) in [(&sim, &real), (&sim_again, &real_again)] {
        assert_eq!(s.events, r.events);
        assert_eq!((s.delivered, s.dropped), (r.delivered, r.dropped));
        assert_eq!(s.per_patch, r.per_patch);
        assert_eq!(s.reports, r.reports);
        for kind in EventKind::ALL {
            assert_eq!(count(s, kind), count(r, kind), "{kind}");
        }
    }
    // Events drain once; rows and reports are cumulative.
    assert!(sim_again.events.is_empty());
    assert_eq!(sim_again.per_patch, sim.per_patch);
    assert_eq!(sim_again.reports, sim.reports);
    sim
}

#[test]
fn both_backends_file_the_same_reports_and_counts() {
    const SITE: u64 = 0x5101;
    // Three pairs fill the 600-byte quota; the fourth free evicts the
    // oldest block.
    let script = [(SITE, 200), (SITE, 200), (SITE, 200), (SITE, 100)];
    let snap = same_on_both(&[(SITE, VulnFlags::ALL)], 600, &script);
    let reports: Vec<_> = snap
        .reports
        .iter()
        .map(|r| (r.vuln, r.slot, r.size))
        .collect();
    assert_eq!(
        reports,
        [
            (VulnFlags::OVERFLOW, 0, 200),
            (VulnFlags::USE_AFTER_FREE, 0, 200),
            (VulnFlags::UNINIT_READ, 0, 200)
        ]
    );
    assert_eq!(snap.per_patch.len(), 1);
    assert_eq!((snap.per_patch[0].hits, snap.per_patch[0].bytes), (4, 700));
    for (kind, n) in [
        (EventKind::PatchHit, 4),
        (EventKind::GuardInstall, 4),
        (EventKind::ZeroInit, 4),
        (EventKind::QuarantineDefer, 4),
        (EventKind::QuarantineEvict, 1),
        (EventKind::AttackReported, 3),
    ] {
        assert_eq!(count(&snap, kind), n, "{kind}");
    }
    assert_eq!(snap.dropped, 0);
}

#[test]
fn no_report_is_lost_to_ring_overflow() {
    const OF_SITE: u64 = 0x5102;
    const UR_SITE: u64 = 0x5103;
    // Two events per overflow-patched pair, none drained: the ring is full
    // long before the first uninit-read activation.
    let mut script = vec![(OF_SITE, 64); RING_CAPACITY];
    script.push((UR_SITE, 48));
    let snap = same_on_both(
        &[
            (OF_SITE, VulnFlags::OVERFLOW),
            (UR_SITE, VulnFlags::UNINIT_READ),
        ],
        1 << 20,
        &script,
    );
    assert!(snap.dropped > 0, "the ring overflowed");
    assert_eq!(snap.delivered, RING_CAPACITY as u64);
    let ur: Vec<_> = snap
        .reports
        .iter()
        .filter(|r| r.vuln == VulnFlags::UNINIT_READ)
        .collect();
    assert_eq!(ur.len(), 1, "the report outlives its dropped event");
    assert_eq!(ur[0].size, 48);
    let row = snap
        .per_patch
        .iter()
        .find(|p| p.slot == ur[0].slot as usize);
    assert_eq!(row.map(|p| (p.hits, p.bytes)), Some((1, 48)));
    assert_eq!(snap.reports.len(), 2, "one OF and one UR report");
}
