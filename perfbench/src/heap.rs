//! Real-heap workloads: closed-loop requests against a `HardenedAlloc` with
//! eight patches installed and frozen.
//!
//! A request enters a seeded chain of one to three instrumented call sites
//! (`ccid::CallScope`), then performs [`OPS_PER_REQUEST`] allocate–touch–free
//! operations against a per-worker FIFO of [`LIVE_FIFO`] live buffers. A
//! patched operation additionally enters the vulnerable site of one patch,
//! so its allocation-time CCID is that patch's key.

use crate::rng::{Fnv, Rng};
use crate::stats::Hist;
use crate::trace::{Call, Metric, Probe};
use ht_hardened_alloc::{ccid::CallScope, HardenedAlloc, HardenedStats, PatchEntry};
use ht_patch::{AllocFn, VulnFlags};
use std::alloc::{GlobalAlloc, Layout};
use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Allocate–touch–free operations per request.
pub const OPS_PER_REQUEST: usize = 32;
/// Live buffers each worker keeps before it frees the oldest.
pub const LIVE_FIFO: usize = 256;
/// Handler chains requests start from; chain 0 reaches the vulnerable code.
const CHAINS: usize = 6;
const ALIGN: usize = 16;
const NO_PATCH: u8 = u8::MAX;

/// Shape of one heap workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapSpec {
    /// Closed-loop workers (threads) sharing the allocator.
    pub workers: usize,
    /// Whether traffic enters patched contexts (1 op in 8).
    pub patched: bool,
    /// Largest buffer, bytes (the smallest is 16).
    pub max_size: usize,
    /// Telemetry armed, with worker 0 draining events as a monitor would.
    pub telemetry: bool,
}

/// Worker 0 runs its observer calls every this many requests.
const OBSERVE_EVERY: u64 = 16;
/// Quarantine quota, bytes: small enough that the quarantine evicts all
/// the time under patched traffic.
const QUOTA: usize = 256 * 1024;
/// Requests generated per worker; longer runs cycle through them.
const TRACE_REQUESTS: usize = 2048;

/// `heap-unpatched`: the paper's untargeted-buffer path.
pub const UNPATCHED: HeapSpec = HeapSpec {
    workers: 1,
    patched: false,
    max_size: 512,
    telemetry: false,
};

/// `heap-patched`: dense patching across the page size, two workers.
pub const PATCHED: HeapSpec = HeapSpec {
    workers: 2,
    patched: true,
    max_size: 16 * 1024,
    telemetry: true,
};

/// The installed patches. Indices 0..3 guard (OF), 3..6 defer frees (UAF),
/// 6..8 zero-fill (UR); index 2 is OF|UR.
pub fn patches() -> [(AllocFn, VulnFlags); 8] {
    use VulnFlags as V;
    [
        (AllocFn::Malloc, V::OVERFLOW),
        (AllocFn::Realloc, V::OVERFLOW),
        (AllocFn::Malloc, V::OVERFLOW | V::UNINIT_READ),
        (AllocFn::Malloc, V::USE_AFTER_FREE),
        (AllocFn::Calloc, V::USE_AFTER_FREE),
        (AllocFn::Realloc, V::USE_AFTER_FREE),
        (AllocFn::Malloc, V::UNINIT_READ),
        (AllocFn::Realloc, V::UNINIT_READ),
    ]
}

/// Patch indices of each defense class: OF, UAF, UR.
const CLASSES: [std::ops::Range<usize>; 3] = [0..3, 3..6, 6..8];

/// The defense a buffer gets, which decides its histogram and free path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Unpatched,
    Of,
    Uaf,
    Ur,
}

impl Class {
    fn of(vuln: VulnFlags) -> Self {
        if vuln.contains(VulnFlags::OVERFLOW) {
            Class::Of
        } else if vuln.contains(VulnFlags::USE_AFTER_FREE) {
            Class::Uaf
        } else if vuln.contains(VulnFlags::UNINIT_READ) {
            Class::Ur
        } else {
            Class::Unpatched
        }
    }

    fn alloc_metric(self) -> Metric {
        match self {
            Class::Unpatched => Metric::AllocUnpatched,
            Class::Of => Metric::AllocOf,
            Class::Uaf => Metric::AllocUaf,
            Class::Ur => Metric::AllocUr,
        }
    }

    fn free_metric(self) -> Metric {
        match self {
            Class::Unpatched => Metric::FreeUnpatched,
            Class::Of => Metric::FreeOf,
            Class::Uaf => Metric::FreeUaf,
            Class::Ur => Metric::FreeUr,
        }
    }
}

/// PCC's `V = 3V + c` folded over a chain of site constants.
fn fold(from: u64, sites: &[u64]) -> u64 {
    sites
        .iter()
        .fold(from, |v, &c| v.wrapping_mul(3).wrapping_add(c))
}

/// Instrumented call sites: handler chains and the patches' vulnerable sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contexts {
    chains: Vec<Vec<u64>>,
    vuln_sites: [u64; 8],
}

impl Contexts {
    /// Seeded site constants, redrawn until no benign context collides with
    /// a patch key and the patch keys are distinct.
    pub fn generate(rng: &mut Rng) -> Self {
        loop {
            let mut site = || 1 + rng.below(1 << 20);
            let mut chains = Vec::with_capacity(CHAINS);
            for _ in 0..CHAINS {
                let len = 1 + (site() % 3) as usize;
                chains.push((0..len).map(|_| site()).collect());
            }
            let vuln_sites = std::array::from_fn(|_| site());
            let c = Self { chains, vuln_sites };
            if c.collision_free() {
                return c;
            }
        }
    }

    fn collision_free(&self) -> bool {
        let keys: Vec<(AllocFn, u64)> = (0..8).map(|k| self.patch_key(k)).collect();
        let benign = (0..CHAINS).flat_map(|i| {
            [AllocFn::Malloc, AllocFn::Calloc, AllocFn::Realloc].map(|f| (f, self.chain_ccid(i)))
        });
        let distinct = keys.iter().enumerate().all(|(i, k)| !keys[..i].contains(k));
        distinct && benign.into_iter().all(|b| !keys.contains(&b))
    }

    /// CCID inside handler chain `i`.
    pub fn chain_ccid(&self, i: usize) -> u64 {
        fold(0, &self.chains[i])
    }

    /// `(FUN, CCID)` key of patch `k`: its vulnerable site under chain 0.
    pub fn patch_key(&self, k: usize) -> (AllocFn, u64) {
        (
            patches()[k].0,
            fold(self.chain_ccid(0), &[self.vuln_sites[k]]),
        )
    }

    /// The patch entries to install.
    pub fn entries(&self) -> Vec<PatchEntry> {
        (0..8)
            .map(|k| {
                let (fun, ccid) = self.patch_key(k);
                PatchEntry::new(fun, ccid, patches()[k].1)
            })
            .collect()
    }
}

/// One allocate–touch–free operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Allocation API.
    pub fun: AllocFn,
    /// Buffer size, bytes.
    pub size: u32,
    /// Index of the patch whose context the op enters, or `NO_PATCH`.
    pub patch: u8,
    /// Fill byte written into the buffer and checked before it is freed.
    pub tag: u8,
}

/// One worker's generated requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Handler chain of each request.
    pub chains: Vec<u8>,
    /// `OPS_PER_REQUEST` operations per request.
    pub ops: Vec<Op>,
}

impl Trace {
    /// Generates `requests` requests. Patched traffic sends half of the
    /// requests through chain 0, where one op in four enters a patched
    /// context, split evenly over OF, UAF and UR.
    pub fn generate(spec: &HeapSpec, rng: &mut Rng, requests: usize) -> Self {
        let mut chains = Vec::with_capacity(requests);
        let mut ops = Vec::with_capacity(requests * OPS_PER_REQUEST);
        for _ in 0..requests {
            let chain = if !spec.patched {
                rng.below(CHAINS as u64) as u8
            } else if rng.below(2) == 0 {
                0
            } else {
                1 + rng.below(CHAINS as u64 - 1) as u8
            };
            chains.push(chain);
            for _ in 0..OPS_PER_REQUEST {
                let size = rng.log_uniform(16, spec.max_size) as u32;
                let tag = rng.next_u64() as u8 | 1;
                let op = if spec.patched && chain == 0 && rng.below(4) == 0 {
                    let class = &CLASSES[rng.below(3) as usize];
                    let k = class.start + rng.below(class.len() as u64) as usize;
                    Op {
                        fun: patches()[k].0,
                        size,
                        patch: k as u8,
                        tag,
                    }
                } else {
                    let fun = match rng.below(20) {
                        0..=13 => AllocFn::Malloc,
                        14..=16 => AllocFn::Calloc,
                        _ => AllocFn::Realloc,
                    };
                    Op {
                        fun,
                        size,
                        patch: NO_PATCH,
                        tag,
                    }
                };
                ops.push(op);
            }
        }
        Self { chains, ops }
    }

    /// Number of generated requests.
    pub fn requests(&self) -> usize {
        self.chains.len()
    }

    fn digest(&self, h: &mut Fnv) {
        for &c in &self.chains {
            h.word(u64::from(c));
        }
        for op in &self.ops {
            h.word(op.fun as u64 | u64::from(op.size) << 8 | u64::from(op.patch) << 40);
            h.word(u64::from(op.tag));
        }
    }
}

/// Everything set-up builds: the allocator with patches installed and
/// frozen, and the seeded op traces.
#[derive(Debug)]
pub struct HeapSetup {
    /// The workload.
    pub spec: HeapSpec,
    /// The allocator under test.
    pub alloc: Box<HardenedAlloc>,
    /// Instrumented sites.
    pub contexts: Contexts,
    /// One trace per worker.
    pub traces: Vec<Trace>,
    /// Patch entries the allocator accepted.
    pub installed: usize,
    /// FNV-1a digest of the contexts and traces.
    pub digest: u64,
}

/// Builds the allocator, installs and freezes the patches, and generates
/// the op traces from `seed`.
pub fn setup(spec: &HeapSpec, seed: u64) -> HeapSetup {
    let contexts = Contexts::generate(&mut Rng::new(seed, 0));
    let traces: Vec<Trace> = (0..spec.workers)
        .map(|w| Trace::generate(spec, &mut Rng::new(seed, 1 + w as u64), TRACE_REQUESTS))
        .collect();
    let alloc = Box::new(HardenedAlloc::new());
    alloc.set_quarantine_quota(QUOTA);
    alloc.set_telemetry(spec.telemetry);
    let installed = alloc.install(&contexts.entries());
    alloc.freeze();
    let mut h = Fnv::default();
    for k in 0..8 {
        h.word(contexts.patch_key(k).1);
    }
    for t in &traces {
        t.digest(&mut h);
    }
    HeapSetup {
        spec: *spec,
        alloc,
        contexts,
        traces,
        installed,
        digest: h.finish(),
    }
}

/// When a worker stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this long.
    After(Duration),
    /// After this many requests.
    Requests(u64),
}

/// What the workers did, for the conservation checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Issued {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed a check (null, tag, zero-read).
    pub failed: u64,
    /// Allocations made inside a patched context.
    pub patched_allocs: u64,
    /// Of those, allocations under an OF patch.
    pub of_allocs: u64,
    /// Frees of UAF-patched buffers.
    pub uaf_frees: u64,
}

impl Issued {
    fn add(&mut self, o: &Issued) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.patched_allocs += o.patched_allocs;
        self.of_allocs += o.of_allocs;
        self.uaf_frees += o.uaf_frees;
    }
}

/// What the monitor saw through the observer calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed {
    /// Events drained by the periodic `drain_events` calls.
    pub drained: u64,
    /// Largest live-registry size seen.
    pub live_peak: u64,
    /// Events the ring accepted over the run.
    pub delivered: u64,
    /// Events the ring dropped over the run.
    pub dropped: u64,
}

/// Result of one heap run.
#[derive(Debug)]
pub struct HeapRun<P> {
    /// Requests completed by each worker.
    pub requests: Vec<u64>,
    /// Wall-clock seconds from the first worker's start to the last's end.
    pub wall_s: f64,
    /// Request latency of a timed run, all workers.
    pub latency: Option<Hist>,
    /// Merged operation counts.
    pub issued: Issued,
    /// Monitor observations.
    pub observed: Observed,
    /// Allocator counters after the FIFOs were drained.
    pub stats: HardenedStats,
    /// Bytes held in the quarantine at the end.
    pub held_bytes: u64,
    /// Conservation checks: name and whether it held.
    pub checks: Vec<(&'static str, bool)>,
    /// Each worker's probe, returned for its histograms and spans.
    pub probes: Vec<P>,
}

impl<P> HeapRun<P> {
    /// Operations plus conservation checks.
    pub fn attempted(&self) -> u64 {
        self.issued.ops + self.checks.len() as u64
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> u64 {
        self.issued.failed + self.checks.iter().filter(|c| !c.1).count() as u64
    }

    /// Requests over all workers.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }
}

struct Live {
    ptr: *mut u8,
    layout: Layout,
    tag: u8,
    class: Class,
}

/// Enters a call site, timed as a child span.
fn enter(probe: &mut impl Probe, site: u64) -> CallScope {
    let t = probe.begin(Call::ScopeEnter);
    let s = CallScope::enter(site);
    let d = probe.end(t);
    probe.record(Metric::Scope, d);
    s
}

/// Leaves a call site, timed as a child span.
fn leave(probe: &mut impl Probe, scope: CallScope) {
    let t = probe.begin(Call::ScopeDrop);
    drop(scope);
    let d = probe.end(t);
    probe.record(Metric::Scope, d);
}

/// Times one allocator call into `metric`.
fn timed<P: Probe, R>(probe: &mut P, call: Call, metric: Metric, f: impl FnOnce() -> R) -> R {
    let t = probe.begin(call);
    let r = f();
    let d = probe.end(t);
    probe.record(metric, d);
    r
}

/// Whether all `len` bytes at `p` equal `byte`.
///
/// # Safety
///
/// `p` must point to `len` initialized bytes that stay live and unwritten
/// for the call.
unsafe fn all_equal(p: *const u8, len: usize, byte: u8) -> bool {
    // SAFETY: guaranteed by the caller.
    unsafe { std::slice::from_raw_parts(p, len) }
        .iter()
        .all(|&b| b == byte)
}

struct Worker<'a, P> {
    alloc: &'a HardenedAlloc,
    contexts: &'a Contexts,
    fifo: VecDeque<Live>,
    issued: Issued,
    probe: P,
}

impl<P: Probe> Worker<'_, P> {
    fn request(&mut self, chain: usize, ops: &[Op]) {
        let mut scopes: [Option<CallScope>; 3] = [None, None, None];
        for (slot, &c) in scopes.iter_mut().zip(&self.contexts.chains[chain]) {
            *slot = Some(enter(&mut self.probe, c));
        }
        for op in ops {
            self.op(op);
        }
        for s in scopes.into_iter().rev().flatten() {
            leave(&mut self.probe, s);
        }
    }

    fn op(&mut self, op: &Op) {
        let a = self.alloc;
        self.issued.ops += 1;
        let vuln = if op.patch == NO_PATCH {
            VulnFlags::NONE
        } else {
            patches()[op.patch as usize].1
        };
        let class = Class::of(vuln);
        let size = op.size as usize;
        let layout = Layout::from_size_align(size, ALIGN).expect("sizes are small");
        let site = (op.patch != NO_PATCH).then(|| self.contexts.vuln_sites[op.patch as usize]);
        // Bytes from `zero_from` on must read zero at allocation.
        let (ptr, zero_from) = match op.fun {
            AllocFn::Realloc => {
                let old = (size / 2).max(8);
                let old_layout = Layout::from_size_align(old, ALIGN).expect("sizes are small");
                let probe = &mut self.probe;
                // SAFETY: `old_layout` has a non-zero size.
                let src = timed(probe, Call::Alloc, Metric::AllocUnpatched, || unsafe {
                    a.alloc(old_layout)
                });
                if src.is_null() {
                    self.issued.failed += 1;
                    return;
                }
                // SAFETY: `src` is a fresh allocation of `old` bytes.
                unsafe { src.write_bytes(op.tag, old) };
                let scope = site.map(|c| enter(&mut self.probe, c));
                // SAFETY: `src` was allocated by `a` with `old_layout`, and
                // `size` is non-zero and fits `isize` at this alignment.
                let p = timed(&mut self.probe, Call::Realloc, Metric::Realloc, || unsafe {
                    a.realloc(src, old_layout, size)
                });
                if let Some(s) = scope {
                    leave(&mut self.probe, s);
                }
                if p.is_null() {
                    // SAFETY: a failed realloc leaves `src` allocated.
                    unsafe { a.dealloc(src, old_layout) };
                    self.issued.failed += 1;
                    return;
                }
                // SAFETY: `p` is a live allocation of `size >= old` bytes
                // whose first `old` bytes realloc copied from `src`.
                if !unsafe { all_equal(p, old, op.tag) } {
                    self.issued.failed += 1;
                }
                (p, vuln.contains(VulnFlags::UNINIT_READ).then_some(old))
            }
            fun => {
                let zeroed = fun == AllocFn::Calloc;
                let (call, metric) = if zeroed {
                    (Call::AllocZeroed, class.alloc_metric())
                } else {
                    (Call::Alloc, class.alloc_metric())
                };
                let scope = site.map(|c| enter(&mut self.probe, c));
                // SAFETY: `layout` has a non-zero size.
                let p = timed(&mut self.probe, call, metric, || unsafe {
                    if zeroed {
                        a.alloc_zeroed(layout)
                    } else {
                        a.alloc(layout)
                    }
                });
                if let Some(s) = scope {
                    leave(&mut self.probe, s);
                }
                if p.is_null() {
                    self.issued.failed += 1;
                    return;
                }
                let must_zero = zeroed || vuln.contains(VulnFlags::UNINIT_READ);
                (p, must_zero.then_some(0))
            }
        };
        if let Some(from) = zero_from {
            // SAFETY: `ptr` is a live allocation of `size` bytes; calloc,
            // the guard-page mmap or the UR defense wrote every byte from
            // `from` on, which this check confirms.
            if !unsafe { all_equal(ptr.add(from), size - from, 0) } {
                self.issued.failed += 1;
            }
        }
        if op.patch != NO_PATCH {
            self.issued.patched_allocs += 1;
            if class == Class::Of {
                self.issued.of_allocs += 1;
            }
        }
        // SAFETY: `ptr` is a live allocation of `size` bytes.
        unsafe { ptr.write_bytes(op.tag, size) };
        self.fifo.push_back(Live {
            ptr,
            layout,
            tag: op.tag,
            class,
        });
        if self.fifo.len() > LIVE_FIFO {
            let oldest = self.fifo.pop_front().expect("fifo is over capacity");
            self.free(oldest);
        }
    }

    fn free(&mut self, b: Live) {
        let n = b.layout.size();
        // SAFETY: `b.ptr` is live with `n` bytes.
        let tag_ok = unsafe { [0, n / 2, n - 1].iter().all(|&i| *b.ptr.add(i) == b.tag) };
        if !tag_ok {
            self.issued.failed += 1;
        }
        if b.class == Class::Uaf {
            self.issued.uaf_frees += 1;
        }
        let a = self.alloc;
        // SAFETY: `b.ptr` was allocated by `a` with `b.layout` and is freed
        // exactly once, here.
        timed(
            &mut self.probe,
            Call::Dealloc,
            b.class.free_metric(),
            || unsafe { a.dealloc(b.ptr, b.layout) },
        );
    }

    /// The monitor's periodic calls: the telemetry drain, and in a traced
    /// run the counter and occupancy snapshots.
    fn observe(&mut self, telemetry: bool, observed: &mut Observed) {
        let a = self.alloc;
        let p = &mut self.probe;
        if telemetry {
            let events = timed(p, Call::DrainEvents, Metric::Drain, || a.drain_events());
            observed.drained += events.len() as u64;
        }
        if P::TRACED {
            std::hint::black_box(timed(p, Call::Stats, Metric::Observer, || a.stats()));
            let reg = timed(p, Call::RegistryStats, Metric::Observer, || {
                a.registry_stats()
            });
            observed.live_peak = observed.live_peak.max(reg.live());
            std::hint::black_box(timed(p, Call::QuarantineUsage, Metric::Observer, || {
                a.quarantine_usage()
            }));
        }
    }

    fn drain_fifo(&mut self) {
        while let Some(b) = self.fifo.pop_front() {
            self.free(b);
        }
    }
}

struct WorkerOut<P> {
    requests: u64,
    start: Instant,
    end: Instant,
    latency: Option<Hist>,
    issued: Issued,
    observed: Observed,
    probe: P,
}

fn run_worker<P: Probe>(
    s: &HeapSetup,
    w: usize,
    stop: Stop,
    probe: P,
    barrier: &Barrier,
) -> WorkerOut<P> {
    let trace = &s.traces[w];
    let mut worker = Worker {
        alloc: &s.alloc,
        contexts: &s.contexts,
        fifo: VecDeque::with_capacity(LIVE_FIFO + 1),
        issued: Issued::default(),
        probe,
    };
    let mut observed = Observed::default();
    let monitor = w == 0;
    barrier.wait();
    let start = Instant::now();
    let (deadline, limit, mut latency) = match stop {
        Stop::After(d) => (Some(start + d), u64::MAX, Some(Hist::default())),
        Stop::Requests(n) => (None, n, None),
    };
    let mut req = 0u64;
    let mut now = start;
    while req < limit && deadline.is_none_or(|d| now < d) {
        worker.probe.select(req);
        if monitor && req > 0 && req.is_multiple_of(OBSERVE_EVERY) {
            worker.observe(s.spec.telemetry, &mut observed);
        }
        let r = req as usize % trace.requests();
        let ops = &trace.ops[r * OPS_PER_REQUEST..(r + 1) * OPS_PER_REQUEST];
        let t0 = Instant::now();
        let span = worker.probe.request_begin();
        worker.request(usize::from(trace.chains[r]), ops);
        worker.probe.request_end(span);
        now = Instant::now();
        if let Some(h) = &mut latency {
            h.record((now - t0).as_nanos() as u64);
        }
        req += 1;
    }
    let end = now;
    worker.drain_fifo();
    WorkerOut {
        requests: req,
        start,
        end,
        latency,
        issued: worker.issued,
        observed,
        probe: worker.probe,
    }
}

/// Runs every worker of `s` until `stops[w]`, then drains the FIFOs and
/// checks that the allocator's counters add up.
pub fn run<P: Probe + Send>(s: &HeapSetup, stops: &[Stop], probes: Vec<P>) -> HeapRun<P> {
    let barrier = Barrier::new(s.spec.workers);
    let outs: Vec<WorkerOut<P>> = std::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .into_iter()
            .enumerate()
            .map(|(w, p)| {
                let (stop, barrier) = (stops[w], &barrier);
                scope.spawn(move || run_worker(s, w, stop, p, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("heap worker panicked"))
            .collect()
    });
    let first = outs.iter().map(|o| o.start).min().expect("one worker");
    let last = outs.iter().map(|o| o.end).max().expect("one worker");
    let mut latency: Option<Hist> = None;
    let mut issued = Issued::default();
    let mut observed = Observed::default();
    for o in &outs {
        match (&mut latency, &o.latency) {
            (Some(all), Some(h)) => all.merge(h),
            (None, h) => latency.clone_from(h),
            _ => {}
        }
        issued.add(&o.issued);
        observed.drained += o.observed.drained;
        observed.live_peak = observed.live_peak.max(o.observed.live_peak);
    }
    let a = &s.alloc;
    if s.spec.telemetry {
        let snap = a.telemetry_snapshot();
        observed.drained += snap.events.len() as u64;
        observed.delivered = snap.delivered;
        observed.dropped = snap.dropped;
    }
    let stats = a.stats();
    let held_bytes = a.quarantine_usage().1 as u64;
    let checks = vec![
        ("all 8 patches installed", s.installed == 8),
        (
            "table_hits == patched allocations",
            stats.table_hits == issued.patched_allocs,
        ),
        (
            "guard_pages + fail_open == OF allocations",
            stats.guard_pages + stats.fail_open == issued.of_allocs,
        ),
        ("fail_open == 0", stats.fail_open == 0),
        (
            "quarantined == UAF frees",
            stats.quarantined == issued.uaf_frees,
        ),
        (
            "quarantined_bytes == evicted_bytes + held bytes",
            stats.quarantined_bytes == stats.evicted_bytes + held_bytes,
        ),
        (
            "registry live == 0 after drain",
            a.registry_stats().live() == 0,
        ),
        (
            "telemetry drained == delivered",
            !s.spec.telemetry || observed.drained == observed.delivered,
        ),
    ];
    HeapRun {
        requests: outs.iter().map(|o| o.requests).collect(),
        wall_s: (last - first).as_secs_f64(),
        latency,
        issued,
        observed,
        stats,
        held_bytes,
        checks,
        probes: outs.into_iter().map(|o| o.probe).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NoProbe, Tracer};

    #[test]
    fn generator_is_deterministic() {
        for spec in [UNPATCHED, PATCHED] {
            let (a, b, c) = (setup(&spec, 42), setup(&spec, 42), setup(&spec, 43));
            assert_eq!(a.contexts, b.contexts);
            assert_eq!(a.traces, b.traces);
            assert_eq!(a.digest, b.digest);
            assert_ne!(a.digest, c.digest);
        }
    }

    #[test]
    fn unpatched_traffic_never_enters_a_patched_context() {
        let s = setup(&UNPATCHED, 1);
        assert!(s.traces[0].ops.iter().all(|op| op.patch == NO_PATCH));
        assert!(s.traces[0]
            .ops
            .iter()
            .all(|op| (16..=512).contains(&op.size)));
    }

    #[test]
    fn patched_traffic_is_about_one_op_in_eight() {
        let s = setup(&PATCHED, 5);
        let ops = &s.traces[0].ops;
        let patched = ops.iter().filter(|op| op.patch != NO_PATCH).count();
        let share = patched as f64 / ops.len() as f64;
        assert!((0.11..0.14).contains(&share), "share {share}");
        assert!(ops.iter().any(|op| op.size > 4096));
    }

    #[test]
    fn smoke_runs_pass_the_gate() {
        for spec in [UNPATCHED, PATCHED] {
            let s = setup(&spec, 9);
            let stops = vec![Stop::Requests(40); spec.workers];
            let run = run(&s, &stops, vec![NoProbe; spec.workers]);
            assert_eq!(run.failed(), 0, "{:?}", run.checks);
            assert_eq!(run.total_requests(), 40 * spec.workers as u64);
            assert_eq!(
                run.issued.ops,
                run.total_requests() * OPS_PER_REQUEST as u64
            );
            if spec.patched {
                assert!(run.stats.guard_pages > 0 && run.stats.quarantined > 0);
                assert!(run.stats.zero_fills > 0);
            } else {
                assert_eq!(run.stats.table_hits, 0);
            }
        }
    }

    #[test]
    fn traced_smoke_run_keeps_span_arithmetic() {
        let s = setup(&PATCHED, 3);
        let epoch = Instant::now();
        let probes = (0..2).map(|_| Tracer::new(epoch, 4, 10_000)).collect();
        let run = run(&s, &[Stop::Requests(20); 2], probes);
        assert_eq!(run.failed(), 0, "{:?}", run.checks);
        let t = &run.probes[0];
        let check = crate::trace::check_requests(t.spans());
        assert_eq!(check.requests, 5);
        assert_eq!(check.max_gap_ns, 0);
        assert!(t.hist(Metric::AllocUnpatched).count() > 0);
        assert_eq!(t.hist(Metric::SelfTime).count(), 20);
    }
}
