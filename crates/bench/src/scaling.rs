//! Multi-threaded allocation-throughput scaling of the hardened allocator.
//!
//! Not a paper artifact — the paper evaluates single-threaded SPEC and
//! multi-process services — but the property it probes is the paper's
//! central engineering claim: the online defense adds *no global lock* to
//! the allocation path (the patch table is frozen read-only and free
//! dispatches on the buffer's own header), so throughput should scale with
//! threads like the native allocator does.
//!
//! Four series, each at 1/2/4/8 threads (capped by `--threads`):
//!
//! * **native** — the system allocator, the ceiling,
//! * **interpose** — [`HardenedAlloc`] with an empty patch table (the
//!   paper's "interposition only" bar),
//! * **hardened** — [`HardenedAlloc`] with 5 patches installed and frozen,
//!   one patched context exercised every 64th allocation (guard page +
//!   quarantine traffic on the patched slice),
//! * **hardened+telemetry** — the same configuration with attack telemetry
//!   armed (event ring + striped per-patch counters), probing the claim
//!   that telemetry-off costs nothing and telemetry-on stays within noise.
//!
//! Workers start behind a [`Barrier`] and time only their own work loop, so
//! thread-spawn cost is excluded; a series' wall time is the slowest
//! worker's. Ops/sec counts allocate–touch–free *pairs* per second summed
//! over threads.

use ht_hardened_alloc::{throughput, HardenedAlloc, PatchEntry};
use ht_jsonio::Json;
use ht_patch::{AllocFn, VulnFlags};
use std::sync::Barrier;
use std::time::Instant;

/// Allocation size used by every series (a small-object workload).
pub const ALLOC_SIZE: usize = 64;
/// On the hardened series, every `PATCHED_EVERY`-th pair enters a patched
/// calling context.
pub const PATCHED_EVERY: u64 = 64;
/// The instrumented call sites the 5 patches target.
pub const PATCHED_SITES: [u64; 5] = [0xA1, 0xA2, 0xA3, 0xA4, 0xA5];

/// Throughput of the three series at one thread count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Number of concurrent worker threads.
    pub threads: usize,
    /// System-allocator pairs/sec (summed over threads).
    pub native_ops: f64,
    /// Empty-table hardened-allocator pairs/sec.
    pub interpose_ops: f64,
    /// 5-patch frozen-table hardened-allocator pairs/sec.
    pub hardened_ops: f64,
    /// The hardened series with attack telemetry armed.
    pub telemetry_ops: f64,
}

impl ScalingRow {
    /// Hardened throughput relative to this row's native throughput.
    pub fn hardened_vs_native(&self) -> f64 {
        if self.native_ops <= 0.0 {
            return 0.0;
        }
        self.hardened_ops / self.native_ops
    }

    /// Telemetry-armed throughput relative to the telemetry-off hardened
    /// series (1.0 = telemetry is free).
    pub fn telemetry_vs_hardened(&self) -> f64 {
        if self.hardened_ops <= 0.0 {
            return 0.0;
        }
        self.telemetry_ops / self.hardened_ops
    }
}

/// A heap-allocated empty-table allocator (the "interpose" configuration).
fn empty_alloc() -> Box<HardenedAlloc> {
    Box::new(HardenedAlloc::new())
}

/// The thread counts a `--threads max` run exercises.
pub fn thread_counts(max: usize) -> Vec<usize> {
    [1, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max.max(1))
        .collect()
}

/// Runs `work` on `n` barrier-synchronized threads and returns total
/// pairs/sec, charged to the slowest worker.
fn run_series<F: Fn(usize) -> u64 + Sync>(n: usize, work: F) -> f64 {
    let barrier = Barrier::new(n);
    let results = ht_par::par_spawn(n, |i| {
        barrier.wait();
        let t0 = Instant::now();
        let pairs = work(i);
        (pairs, t0.elapsed().as_secs_f64())
    });
    let total_pairs: u64 = results.iter().map(|&(p, _)| p).sum();
    let slowest = results.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
    if slowest <= 0.0 {
        return 0.0;
    }
    total_pairs as f64 / slowest
}

/// A hardened allocator with the 5 scaling patches installed and the table
/// frozen (the configuration the "hardened" series runs against).
///
/// Boxed: a `HardenedAlloc` embeds its patch table, event ring, and
/// striped counters (a few hundred KiB), which in unoptimized builds would
/// otherwise occupy a fresh stack slot per temporary.
pub fn patched_alloc() -> Box<HardenedAlloc> {
    let a = empty_alloc();
    let patches: Vec<PatchEntry> = PATCHED_SITES
        .iter()
        .map(|&site| {
            PatchEntry::new(
                AllocFn::Malloc,
                throughput::site_ccid(site),
                VulnFlags::OVERFLOW,
            )
        })
        .collect();
    let installed = a.install(&patches);
    assert_eq!(installed, patches.len(), "scaling patches must install");
    a.freeze();
    a
}

/// Measures all three series at each thread count in
/// [`thread_counts`]`(max_threads)`, `pairs_per_thread` allocate–touch–free
/// round trips per worker.
pub fn rows(max_threads: usize, pairs_per_thread: u64) -> Vec<ScalingRow> {
    let interpose = empty_alloc();
    let hardened = patched_alloc();
    let telemetry = patched_alloc();
    telemetry.set_telemetry(true);
    thread_counts(max_threads)
        .into_iter()
        .map(|n| {
            let native_ops = run_series(n, |_| {
                throughput::native_pairs(pairs_per_thread, ALLOC_SIZE)
            });
            let interpose_ops = run_series(n, |_| {
                throughput::hardened_pairs(&interpose, pairs_per_thread, ALLOC_SIZE, None, 1)
            });
            let hardened_ops = run_series(n, |i| {
                throughput::hardened_pairs(
                    &hardened,
                    pairs_per_thread,
                    ALLOC_SIZE,
                    Some(PATCHED_SITES[i % PATCHED_SITES.len()]),
                    PATCHED_EVERY,
                )
            });
            let telemetry_ops = run_series(n, |i| {
                throughput::hardened_pairs(
                    &telemetry,
                    pairs_per_thread,
                    ALLOC_SIZE,
                    Some(PATCHED_SITES[i % PATCHED_SITES.len()]),
                    PATCHED_EVERY,
                )
            });
            // Keep the ring from saturating its drop counter across rows.
            telemetry.drain_events();
            ScalingRow {
                threads: n,
                native_ops,
                interpose_ops,
                hardened_ops,
                telemetry_ops,
            }
        })
        .collect()
}

/// The committed-baseline JSON shape (`BENCH_scaling.json`): ops/sec
/// rounded to integers, since the wire format is integer-only, with the
/// cores and commit the rows were measured on.
pub fn to_json(rows: &[ScalingRow], pairs_per_thread: u64) -> Json {
    Json::Obj(vec![
        ("nproc".into(), Json::U64(crate::nproc())),
        ("commit".into(), Json::Str(crate::git_commit())),
        ("alloc_size".into(), Json::U64(ALLOC_SIZE as u64)),
        ("pairs_per_thread".into(), Json::U64(pairs_per_thread)),
        ("patched_every".into(), Json::U64(PATCHED_EVERY)),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("threads".into(), Json::U64(r.threads as u64)),
                            ("native_ops".into(), Json::U64(r.native_ops as u64)),
                            ("interpose_ops".into(), Json::U64(r.interpose_ops as u64)),
                            ("hardened_ops".into(), Json::U64(r.hardened_ops as u64)),
                            ("telemetry_ops".into(), Json::U64(r.telemetry_ops as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_the_requested_thread_range() {
        assert_eq!(thread_counts(1), vec![1]);
        assert_eq!(thread_counts(2), vec![1, 2]);
        assert_eq!(thread_counts(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_counts(5), vec![1, 2, 4]);
        assert_eq!(thread_counts(0), vec![1], "clamped to one thread");
    }

    #[test]
    fn series_produce_positive_throughput() {
        let rows = rows(2, 500);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.native_ops > 0.0, "{r:?}");
            assert!(r.interpose_ops > 0.0, "{r:?}");
            assert!(r.hardened_ops > 0.0, "{r:?}");
            assert!(r.telemetry_ops > 0.0, "{r:?}");
        }
    }

    #[test]
    fn telemetry_series_records_its_patch_hits() {
        let a = patched_alloc();
        a.set_telemetry(true);
        throughput::hardened_pairs(&a, 128, ALLOC_SIZE, Some(PATCHED_SITES[0]), PATCHED_EVERY);
        let snap = a.telemetry_snapshot();
        assert!(
            snap.per_patch.iter().any(|p| p.hits > 0),
            "patched slice of the workload was counted: {snap:?}"
        );
    }

    #[test]
    fn patched_alloc_is_frozen_and_hits_its_contexts() {
        let a = patched_alloc();
        assert!(a.is_frozen());
        // A frozen table rejects further installs.
        assert_eq!(
            a.install(&[PatchEntry::new(AllocFn::Malloc, 99, VulnFlags::OVERFLOW)]),
            0
        );
        throughput::hardened_pairs(&a, PATCHED_EVERY, ALLOC_SIZE, Some(PATCHED_SITES[0]), 1);
        let st = a.stats();
        assert_eq!(st.table_hits, PATCHED_EVERY, "every pair was patched");
        assert_eq!(st.guard_pages, PATCHED_EVERY);
    }

    #[test]
    fn json_round_trips() {
        let rs = [ScalingRow {
            threads: 2,
            native_ops: 1234.7,
            interpose_ops: 1000.2,
            hardened_ops: 900.9,
            telemetry_ops: 880.0,
        }];
        let j = to_json(&rs, 500);
        let parsed = Json::parse(&j.to_pretty()).expect("self-emitted JSON parses");
        assert_eq!(parsed, j);
        assert!(j.req_u64("nproc").unwrap() > 0, "the machine is recorded");
        assert!(!j.req_str("commit").unwrap().is_empty());
    }
}
