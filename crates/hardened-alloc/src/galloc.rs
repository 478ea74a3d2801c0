//! The hardened global allocator.

use crate::ccid;
use ht_patch::{AllocFn, Patch, VulnFlags};
use ht_telemetry::{
    AttackReport, Event, EventKind, EventRing, PatchCounterRow, PatchStripes, StripedCounter,
    TelemetrySnapshot,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// One installed patch, allocation-free representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchEntry {
    /// Allocation API the patch applies to.
    pub fun: AllocFn,
    /// Allocation-time CCID (from [`ccid::current`] at the patched site).
    pub ccid: u64,
    /// Defenses to apply.
    pub vuln: VulnFlags,
}

impl PatchEntry {
    /// A new patch entry.
    pub fn new(fun: AllocFn, ccid: u64, vuln: VulnFlags) -> Self {
        Self { fun, ccid, vuln }
    }
}

impl From<&Patch> for PatchEntry {
    fn from(p: &Patch) -> Self {
        Self::new(p.alloc_fn, p.ccid, p.vuln)
    }
}

/// Snapshot of the allocator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardenedStats {
    /// Allocation-family calls intercepted.
    pub interposed_allocs: u64,
    /// Deallocations intercepted.
    pub interposed_frees: u64,
    /// Patch-table hits (vulnerable buffers recognized).
    pub table_hits: u64,
    /// Guarded allocations: one guard page in front of each, whether its
    /// region was freshly mapped or recycled from the guard cache.
    pub guard_pages: u64,
    /// Guarded regions actually `mmap`ped. The other
    /// `guard_pages - guard_maps` guarded allocations reused a cached
    /// region without a system call.
    pub guard_maps: u64,
    /// Buffers zero-filled for UR defenses.
    pub zero_fills: u64,
    /// Blocks pushed into the quarantine.
    pub quarantined: u64,
    /// Blocks evicted from the quarantine back to the system.
    pub evictions: u64,
    /// Bytes ever pushed into the quarantine.
    pub quarantined_bytes: u64,
    /// Bytes evicted from the quarantine back to the system.
    pub evicted_bytes: u64,
    /// Patches [`HardenedAlloc::install`] rejected because the table was
    /// full or frozen (fail-open).
    pub fail_open: u64,
    /// Frees refused as heap misuse: a second free of a still-quarantined
    /// block, or a pointer whose header check fails (already released, or
    /// never returned by this allocator). The block is left alone.
    pub misuse: u64,
}

/// Counters over the header-tagged patched buffers whose free carries a
/// defense (guarded or use-after-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Tagged buffers ever allocated.
    pub inserts: u64,
    /// Tagged buffers ever freed (unmapped or deferred).
    pub removes: u64,
}

impl RegistryStats {
    /// Tagged buffers currently live (conservation: inserts = removes +
    /// live).
    pub fn live(&self) -> u64 {
        self.inserts - self.removes
    }
}

/// Minimal spin lock (no parking, no allocation).
#[derive(Debug, Default)]
struct SpinLock {
    locked: AtomicBool,
}

impl SpinLock {
    const fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> SpinGuard<'_> {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        SpinGuard { lock: self }
    }
}

struct SpinGuard<'a> {
    lock: &'a SpinLock,
}

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

const PATCH_SLOTS: usize = 512;

/// One published patch slot. `meta` packs
/// `READY | fun << FUN_SHIFT | reported << REPORTED_SHIFT | vuln`; `ccid`
/// holds the key's context ID. The `reported` field mirrors the vuln bit
/// layout and carries the telemetry once-bits: bit `REPORTED_SHIFT + t` is
/// set the first time the `T = 1 << t` defense of this patch fires, so the
/// runtime files exactly one attack report per `(FUN, CCID, T)` without a
/// lock.
struct PatchSlot {
    meta: AtomicU64,
    ccid: AtomicU64,
}

const READY: u64 = 1 << 63;
const FUN_SHIFT: u32 = 32;
const REPORTED_SHIFT: u32 = 8;

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const EMPTY_SLOT: PatchSlot = PatchSlot {
    meta: AtomicU64::new(0),
    ccid: AtomicU64::new(0),
};

/// The online patch table: a fixed open-addressing probe whose **lookups
/// take no lock and touch no shared mutable state** — the hot path's common
/// case (table miss) is one Acquire load per probed slot.
///
/// Writes (rare: patch installation at startup) serialize on a spin lock
/// and publish each slot by storing `ccid` first, then the `meta` word with
/// `READY` set (Release). A reader that observes `READY` (Acquire)
/// therefore sees the matching `ccid`. Keys are never deleted, so probe
/// sequences are stable forever; merged vulnerability bits only ever grow
/// (`fetch_or`), so a racing reader sees a valid past or present value.
///
/// [`PatchSet::freeze`] seals the table against further installs — the
/// moral equivalent of the paper `mprotect`-ing its table read-only after
/// the configuration file is loaded. The telemetry once-bits (see
/// [`PatchSlot`]) are the one field that still mutates after freeze; they
/// are purely observational and masked out of every lookup.
struct PatchSet {
    lock: SpinLock,
    frozen: AtomicBool,
    slots: [PatchSlot; PATCH_SLOTS],
}

impl PatchSet {
    const fn new() -> Self {
        Self {
            lock: SpinLock::new(),
            frozen: AtomicBool::new(false),
            slots: [EMPTY_SLOT; PATCH_SLOTS],
        }
    }

    fn slot_of(fun: AllocFn, ccid: u64) -> usize {
        let key = ccid ^ ((fun as u64) << 56);
        (key.wrapping_mul(0x9E3779B97F4A7C15) >> (64 - 9)) as usize // log2(512)
    }

    fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Returns whether the entry fit (false: table full or frozen).
    fn insert(&self, e: PatchEntry) -> bool {
        let _g = self.lock.lock();
        if self.is_frozen() {
            return false;
        }
        let start = Self::slot_of(e.fun, e.ccid);
        for i in 0..PATCH_SLOTS {
            let s = (start + i) % PATCH_SLOTS;
            let slot = &self.slots[s];
            // The lock holder is the only writer, so Relaxed reads suffice
            // here; publication to readers happens via the Release below.
            let meta = slot.meta.load(Ordering::Relaxed);
            if meta & READY == 0 {
                slot.ccid.store(e.ccid, Ordering::Relaxed);
                slot.meta.store(
                    READY | ((e.fun as u64) << FUN_SHIFT) | u64::from(e.vuln.bits()),
                    Ordering::Release,
                );
                return true;
            }
            if (meta >> FUN_SHIFT) & 0xFF == e.fun as u64
                && slot.ccid.load(Ordering::Relaxed) == e.ccid
            {
                slot.meta
                    .fetch_or(u64::from(e.vuln.bits()), Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Lock-free probe (see the type-level comment for the protocol).
    /// Returns the vulnerability bits and the slot index of the hit.
    #[inline]
    fn lookup_slot(&self, fun: AllocFn, ccid: u64) -> Option<(usize, VulnFlags)> {
        let start = Self::slot_of(fun, ccid);
        for i in 0..PATCH_SLOTS {
            let s = (start + i) % PATCH_SLOTS;
            let slot = &self.slots[s];
            let meta = slot.meta.load(Ordering::Acquire);
            if meta & READY == 0 {
                return None;
            }
            if (meta >> FUN_SHIFT) & 0xFF == fun as u64 && slot.ccid.load(Ordering::Relaxed) == ccid
            {
                return Some((s, VulnFlags::from_bits_truncate(meta as u8)));
            }
        }
        None
    }

    #[cfg(test)]
    fn lookup(&self, fun: AllocFn, ccid: u64) -> VulnFlags {
        self.lookup_slot(fun, ccid)
            .map_or(VulnFlags::NONE, |(_, v)| v)
    }

    /// The published patch in slot `s`, if any.
    fn entry_at(&self, s: usize) -> Option<PatchEntry> {
        let slot = self.slots.get(s)?;
        let meta = slot.meta.load(Ordering::Acquire);
        if meta & READY == 0 {
            return None;
        }
        let fun = *AllocFn::ALL.get(((meta >> FUN_SHIFT) & 0xFF) as usize)?;
        Some(PatchEntry::new(
            fun,
            slot.ccid.load(Ordering::Relaxed),
            VulnFlags::from_bits_truncate(meta as u8),
        ))
    }

    /// Sets the once-bit for vulnerability type `t` (a single bit) in slot
    /// `s`. Returns `true` exactly once per `(slot, t)` — the caller files
    /// the attack report on `true`.
    fn report_once(&self, s: usize, t: VulnFlags) -> bool {
        let bit = u64::from(t.bits()) << REPORTED_SHIFT;
        let prev = self.slots[s].meta.fetch_or(bit, Ordering::Relaxed);
        prev & bit == 0
    }
}

const PAGE: usize = 4096;

fn page_up(n: usize) -> usize {
    (n + PAGE - 1) & !(PAGE - 1)
}

// The per-buffer header: paper Fig. 6's metadata word plus a check word,
// in the `max(16, align)` bytes before the user pointer (`max(32, align)`
// for UAF buffers, which also carry their size and the quarantine link).
// Word offsets count back from the user pointer in 8-byte steps.

/// The meta word: vuln bits, quarantined bit, patch slot, guard page, align.
const META: usize = 1;
/// `seal(user, meta)`: binds the meta word to the buffer address.
const CHECK: usize = 2;
/// User size (UAF buffers only; needed when the quarantine evicts).
const SIZE: usize = 3;
/// Next-younger quarantined block (UAF buffers only; 0 ends the FIFO).
const LINK: usize = 4;

const VULN_MASK: u64 = 0b111;
const QUARANTINED: u64 = 1 << 3;
/// Patch-table slot (telemetry attribution), 9 bits.
const SLOT_SHIFT: u32 = 4;
/// Guard page number (`addr >> 12`), 36 bits: a 48-bit address space.
const GUARD_SHIFT: u32 = 16;
const GUARD_MASK: u64 = (1 << 36) - 1;
/// `log2(align)`, 6 bits.
const ALIGN_SHIFT: u32 = 58;

/// Reads header word `w` of `user`. Unaligned: a guarded byte buffer ends
/// exactly at its guard page, so its header need not be 8-byte aligned.
///
/// # Safety
///
/// The 8 bytes of word `w` below `user` must be readable.
#[inline]
unsafe fn read_word(user: usize, w: usize) -> u64 {
    ((user - 8 * w) as *const u64).read_unaligned()
}

/// Writes header word `w` of `user`.
///
/// # Safety
///
/// The 8 bytes of word `w` below `user` must be writable and owned by the
/// caller (or by the quarantine lock it holds).
#[inline]
unsafe fn write_word(user: usize, w: usize, v: u64) {
    ((user - 8 * w) as *mut u64).write_unaligned(v)
}

/// The check word for `meta` at `user`; never 0, the released state.
#[inline]
fn seal(user: usize, meta: u64) -> u64 {
    ((meta ^ 0x4854_2b48_6561_7021).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ user as u64) | 1
}

/// Header bytes in front of a buffer: a multiple of `align`, so the user
/// pointer keeps the caller's alignment.
#[inline]
fn header_len(align: usize, vuln: VulnFlags) -> usize {
    let words = if vuln.contains(VulnFlags::USE_AFTER_FREE) {
        LINK
    } else {
        CHECK
    };
    align.max(8 * words)
}

fn meta_vuln(meta: u64) -> VulnFlags {
    VulnFlags::from_bits_truncate((meta & VULN_MASK) as u8)
}

fn meta_align(meta: u64) -> usize {
    1 << (meta >> ALIGN_SHIFT)
}

/// The `System` block layout behind an unguarded buffer.
fn block_layout(size: usize, align: usize, hdr: usize) -> Option<Layout> {
    Layout::from_size_align(size.checked_add(hdr)?, align.max(16)).ok()
}

/// Bytes of a guarded region below its guard page: room for the header,
/// the buffer and the alignment slack.
fn guard_body(size: usize, align: usize, hdr: usize) -> usize {
    page_up(size + hdr + align)
}

/// # Safety
///
/// `user` must have a header of at least [`CHECK`] words.
#[inline]
unsafe fn write_header(user: usize, meta: u64) {
    write_word(user, META, meta);
    write_word(user, CHECK, seal(user, meta));
}

/// Body page counts the guard cache keeps: bodies of 1 to 8 pages. The
/// benchmark's 16 B to 16 KiB buffers have bodies of 1 to 5 pages.
const CACHE_CLASSES: usize = 8;
/// Body pages one bin holds at most: the bin of `p`-page bodies keeps
/// `CACHE_BIN_PAGES / p` regions, and the whole cache at most
/// `CACHE_CLASSES * CACHE_BIN_PAGES` pages (512 KiB). Under the benchmark's
/// `heap-patched` traffic, 79% of guarded bodies are one page, and the
/// freed, not yet reused regions peak at about 45 one-page and at most 12
/// larger bodies per class. With 16 pages per bin about 5% of guarded
/// allocations still `mmap` (8 regions per bin: 14%); 32 pages per bin
/// cut that to 0.2% but hold 60-70% more idle memory.
const CACHE_BIN_PAGES: usize = 16;

/// Freed guarded regions kept for reuse, binned by body page count (paper
/// Fig. 7 recycles a guarded block rather than unmapping it). A cached
/// region keeps its `PROT_NONE` guard page, so reusing it takes no system
/// call. The region addresses live here, out of band: nothing is linked
/// through region memory, so a dangling write into a cached region cannot
/// corrupt the cache.
struct GuardCache {
    lock: SpinLock,
    bins: UnsafeCell<Bins>,
}

struct Bins {
    /// Region base addresses; class `c` (bodies of `c + 1` pages) holds
    /// `len[c]` of them.
    regions: [[usize; CACHE_BIN_PAGES]; CACHE_CLASSES],
    len: [usize; CACHE_CLASSES],
}

// SAFETY: `bins` is only read or written with `lock` held; `lock` itself is
// atomic.
unsafe impl Sync for GuardCache {}

impl GuardCache {
    const fn new() -> Self {
        Self {
            lock: SpinLock::new(),
            bins: UnsafeCell::new(Bins {
                regions: [[0; CACHE_BIN_PAGES]; CACHE_CLASSES],
                len: [0; CACHE_CLASSES],
            }),
        }
    }

    /// The bin of a `body`-byte region (a nonzero page multiple), if any.
    fn class(body: usize) -> Option<usize> {
        let pages = body / PAGE;
        (pages <= CACHE_CLASSES).then(|| pages - 1)
    }

    /// Regions the bin of `body`-byte bodies holds at most.
    const fn depth(body: usize) -> usize {
        CACHE_BIN_PAGES / (body / PAGE)
    }

    /// Takes a cached region with a `body`-byte body; returns its base.
    fn pop(&self, body: usize) -> Option<usize> {
        let c = Self::class(body)?;
        let _g = self.lock.lock();
        // SAFETY: the lock is held.
        let b = unsafe { &mut *self.bins.get() };
        if b.len[c] == 0 {
            return None;
        }
        b.len[c] -= 1;
        Some(b.regions[c][b.len[c]])
    }

    /// Keeps the region at `region` with a `body`-byte body for reuse.
    /// Returns `false` when its class is above the largest or its bin is
    /// full: the caller then unmaps it.
    fn push(&self, region: usize, body: usize) -> bool {
        let Some(c) = Self::class(body) else {
            return false;
        };
        let _g = self.lock.lock();
        // SAFETY: the lock is held.
        let b = unsafe { &mut *self.bins.get() };
        if b.len[c] == Self::depth(body) {
            return false;
        }
        b.regions[c][b.len[c]] = region;
        b.len[c] += 1;
        true
    }
}

/// One spin-locked intrusive FIFO of deferred frees, linked through the
/// [`LINK`] words of the quarantined blocks, with a pure byte quota: push
/// at the tail, then evict from the head while the bytes exceed the quota
/// (a block larger than the quota therefore passes straight through) — the
/// semantics of the simulated backend's quarantine.
struct Quarantine {
    lock: SpinLock,
    fifo: UnsafeCell<Fifo>,
}

/// Oldest and youngest block (user addresses, 0 = empty) and occupancy.
struct Fifo {
    head: usize,
    tail: usize,
    blocks: usize,
    bytes: usize,
}

// SAFETY: `fifo` and the link words of the blocks it queues are only read
// or written with `lock` held; `lock` itself is atomic.
unsafe impl Sync for Quarantine {}

impl Quarantine {
    const fn new() -> Self {
        Self {
            lock: SpinLock::new(),
            fifo: UnsafeCell::new(Fifo {
                head: 0,
                tail: 0,
                blocks: 0,
                bytes: 0,
            }),
        }
    }

    /// Appends `user` (a UAF buffer whose [`SIZE`] word is `size`) and
    /// unlinks the blocks the quota evicts. Returns the oldest of them —
    /// a chain through [`LINK`] ending in 0 — for the caller to release
    /// after the lock is dropped.
    ///
    /// # Safety
    ///
    /// `user` must be a live UAF buffer of this allocator, owned by the
    /// caller and not already queued.
    unsafe fn push(&self, user: usize, size: usize, quota: usize) -> usize {
        write_word(user, LINK, 0);
        let _g = self.lock.lock();
        let q = &mut *self.fifo.get();
        if q.tail == 0 {
            q.head = user;
        } else {
            write_word(q.tail, LINK, user as u64);
        }
        q.tail = user;
        q.blocks += 1;
        q.bytes += size;
        if q.bytes <= quota {
            return 0;
        }
        let evicted = q.head;
        let mut last = 0;
        while q.bytes > quota && q.head != 0 {
            last = q.head;
            q.head = read_word(last, LINK) as usize;
            q.blocks -= 1;
            q.bytes -= read_word(last, SIZE) as usize;
        }
        write_word(last, LINK, 0);
        if q.head == 0 {
            q.tail = 0;
        }
        evicted
    }

    /// Empties the FIFO and returns its oldest block: a chain through
    /// [`LINK`] ending in 0.
    fn take_all(&mut self) -> usize {
        let q = self.fifo.get_mut();
        let head = q.head;
        (q.head, q.tail, q.blocks, q.bytes) = (0, 0, 0, 0);
        head
    }

    fn usage(&self) -> (usize, usize) {
        let _g = self.lock.lock();
        // SAFETY: the lock is held.
        let q = unsafe { &*self.fifo.get() };
        (q.blocks, q.bytes)
    }

    fn contains(&self, user: usize) -> bool {
        let _g = self.lock.lock();
        // SAFETY: the lock is held.
        let mut b = unsafe { (*self.fifo.get()).head };
        while b != 0 && b != user {
            // SAFETY: a queued block stays allocated, with its header, while
            // the lock is held.
            b = unsafe { read_word(b, LINK) } as usize;
        }
        b != 0
    }
}

impl std::fmt::Debug for GuardCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardCache").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Quarantine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quarantine").finish_non_exhaustive()
    }
}

/// The HeapTherapy+ hardened allocator over the system allocator.
///
/// Usable as a `static` (all state is fixed-size and allocation-free) and
/// therefore as `#[global_allocator]`. Defenses are driven by the patch set
/// installed with [`HardenedAlloc::install`]; unpatched allocations pay one
/// table probe and a 16-byte header, and otherwise go straight to
/// [`System`].
///
/// Every returned buffer carries a header (paper Fig. 6): a meta word
/// recording the defenses applied, and a check word binding it to the
/// buffer's address. `dealloc` dispatches on the verified header — no
/// lock, no lookup — and refuses a free whose header is quarantined or
/// fails the check (counted in [`HardenedStats::misuse`]).
#[derive(Debug)]
pub struct HardenedAlloc {
    patches: PatchSet,
    quarantine: Quarantine,
    guard_cache: GuardCache,
    quota: AtomicUsize,
    interposed_allocs: StripedCounter,
    interposed_frees: StripedCounter,
    table_hits: StripedCounter,
    guard_pages: StripedCounter,
    guard_maps: StripedCounter,
    zero_fills: StripedCounter,
    quarantined: StripedCounter,
    evictions: StripedCounter,
    quarantined_bytes: StripedCounter,
    evicted_bytes: StripedCounter,
    fail_open: StripedCounter,
    misuse: StripedCounter,
    tagged_allocs: StripedCounter,
    tagged_frees: StripedCounter,
    /// Telemetry arm switch. Checked only on defense-relevant paths (table
    /// hit, patched free), never on the unpatched fast path — disabled
    /// telemetry therefore costs zero atomics per ordinary allocation.
    telemetry_on: AtomicBool,
    /// Defense-activation events (telemetry; lock-free, allocation-free).
    events: EventRing,
    /// Per-patch-slot hit/byte counters (telemetry).
    patch_counters: PatchStripes<PATCH_SLOTS>,
}

impl std::fmt::Debug for PatchSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchSet").finish_non_exhaustive()
    }
}

impl Default for HardenedAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl HardenedAlloc {
    /// A hardened allocator with an empty patch set and a 64 MiB quarantine
    /// quota.
    pub const fn new() -> Self {
        Self {
            patches: PatchSet::new(),
            quarantine: Quarantine::new(),
            guard_cache: GuardCache::new(),
            quota: AtomicUsize::new(64 * 1024 * 1024),
            interposed_allocs: StripedCounter::new(),
            interposed_frees: StripedCounter::new(),
            table_hits: StripedCounter::new(),
            guard_pages: StripedCounter::new(),
            guard_maps: StripedCounter::new(),
            zero_fills: StripedCounter::new(),
            quarantined: StripedCounter::new(),
            evictions: StripedCounter::new(),
            quarantined_bytes: StripedCounter::new(),
            evicted_bytes: StripedCounter::new(),
            fail_open: StripedCounter::new(),
            misuse: StripedCounter::new(),
            tagged_allocs: StripedCounter::new(),
            tagged_frees: StripedCounter::new(),
            telemetry_on: AtomicBool::new(false),
            events: EventRing::new(),
            patch_counters: PatchStripes::new(),
        }
    }

    /// Installs patches (idempotent per `(FUN, CCID)`; bits merge).
    ///
    /// Returns how many entries were accepted (the fixed table holds 512;
    /// a [frozen](Self::freeze) table accepts none). Each rejected entry
    /// counts in [`HardenedStats::fail_open`].
    pub fn install(&self, patches: &[PatchEntry]) -> usize {
        patches
            .iter()
            .filter(|&&p| {
                let ok = self.patches.insert(p);
                if !ok {
                    self.fail_open.incr();
                }
                ok
            })
            .count()
    }

    /// Seals the patch table: further [`Self::install`] calls accept
    /// nothing. The paper `mprotect`s its table read-only once the
    /// configuration file is loaded; this is the same promise — after
    /// `freeze`, the table is immutable and every lookup is a pure read.
    pub fn freeze(&self) {
        self.patches.freeze();
    }

    /// Whether [`Self::freeze`] has been called.
    pub fn is_frozen(&self) -> bool {
        self.patches.is_frozen()
    }

    /// Counters over the live header-tagged patched buffers — those whose
    /// free carries a defense (guarded or UAF). A buffer leaves the count
    /// when it is freed, whether its free unmaps it or defers it.
    /// Conservation: `inserts == removes + live()` at any quiescent point.
    pub fn registry_stats(&self) -> RegistryStats {
        RegistryStats {
            inserts: self.tagged_allocs.load(),
            removes: self.tagged_frees.load(),
        }
    }

    /// Installs patches from a configuration file in the standard text
    /// format (`FUN CCID TYPE`, see [`ht_patch::from_config_text`]) — the
    /// online defense generator's startup step on real memory.
    ///
    /// Returns how many entries were accepted.
    ///
    /// # Errors
    ///
    /// Propagates [`ht_patch::ConfigError`] for malformed input.
    pub fn install_from_config(&self, text: &str) -> Result<usize, ht_patch::ConfigError> {
        let patches = ht_patch::from_config_text(text)?;
        let entries: Vec<PatchEntry> = patches.iter().map(PatchEntry::from).collect();
        Ok(self.install(&entries))
    }

    /// Sets the quarantine quota in bytes.
    pub fn set_quarantine_quota(&self, bytes: usize) {
        self.quota.store(bytes, Ordering::Relaxed);
    }

    /// Counter snapshot. Byte conservation: at any quiescent point,
    /// `quarantined_bytes == evicted_bytes + quarantine_usage().1` — bytes
    /// deferred either went back to the system (eviction) or are still
    /// held.
    pub fn stats(&self) -> HardenedStats {
        HardenedStats {
            interposed_allocs: self.interposed_allocs.load(),
            interposed_frees: self.interposed_frees.load(),
            table_hits: self.table_hits.load(),
            guard_pages: self.guard_pages.load(),
            guard_maps: self.guard_maps.load(),
            zero_fills: self.zero_fills.load(),
            quarantined: self.quarantined.load(),
            evictions: self.evictions.load(),
            quarantined_bytes: self.quarantined_bytes.load(),
            evicted_bytes: self.evicted_bytes.load(),
            fail_open: self.fail_open.load(),
            misuse: self.misuse.load(),
        }
    }

    /// Arms or disarms telemetry recording. Off by default; switching is
    /// safe at any time (events race benignly around the flip).
    pub fn set_telemetry(&self, on: bool) {
        self.telemetry_on.store(on, Ordering::Relaxed);
    }

    /// Whether telemetry recording is armed.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry_on.load(Ordering::Relaxed)
    }

    /// Records a table hit plus the defenses about to be applied, files
    /// one-time attack reports per newly fired `(FUN, CCID, T)` with
    /// `T != UAF` (the UAF report files on the free path, where the
    /// quarantine defense actually runs).
    #[inline]
    fn note_patch_hit(&self, fun: AllocFn, ccid: u64, vuln: VulnFlags, slot: usize, size: usize) {
        if !self.telemetry_on.load(Ordering::Relaxed) {
            return;
        }
        let size = size as u64;
        self.patch_counters.record(slot, size);
        let slot32 = slot as u32;
        self.events.push(Event::patched(
            EventKind::PatchHit,
            fun,
            vuln,
            slot32,
            ccid,
            size,
        ));
        for (t, kind) in [
            (VulnFlags::OVERFLOW, EventKind::GuardInstall),
            (VulnFlags::UNINIT_READ, EventKind::ZeroInit),
        ] {
            if vuln.contains(t) {
                self.events
                    .push(Event::patched(kind, fun, t, slot32, ccid, size));
                if self.patches.report_once(slot, t) {
                    self.events.push(Event::patched(
                        EventKind::AttackReported,
                        fun,
                        t,
                        slot32,
                        ccid,
                        size,
                    ));
                }
            }
        }
    }

    /// Records a quarantine defer/evict of a UAF buffer with meta word
    /// `meta`, filing the one-time UAF attack report on the first defer of
    /// its patch.
    #[inline]
    fn note_quarantine(&self, kind: EventKind, meta: u64, size: usize) {
        if !self.telemetry_on.load(Ordering::Relaxed) {
            return;
        }
        let slot = (meta >> SLOT_SHIFT) as usize % PATCH_SLOTS;
        let Some(p) = self.patches.entry_at(slot) else {
            return;
        };
        let (slot32, size) = (slot as u32, size as u64);
        let uaf = VulnFlags::USE_AFTER_FREE;
        self.events
            .push(Event::patched(kind, p.fun, uaf, slot32, p.ccid, size));
        if kind == EventKind::QuarantineDefer && self.patches.report_once(slot, uaf) {
            self.events.push(Event::patched(
                EventKind::AttackReported,
                p.fun,
                uaf,
                slot32,
                p.ccid,
                size,
            ));
        }
    }

    /// Drains the event ring (observer API — allocates, so never call it
    /// from inside an allocation).
    pub fn drain_events(&self) -> Vec<Event> {
        self.events.drain_vec()
    }

    /// Drains the ring and merges the per-patch counters into a full
    /// telemetry snapshot. Attack reports are rebuilt from the drained
    /// `attack-reported` events (call chains stay undecoded here — the
    /// allocator has no encoding plan; `heaptherapy-core` decodes).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let events = self.drain_events();
        let reports = events
            .iter()
            .filter(|e| e.kind == EventKind::AttackReported)
            .map(|e| AttackReport {
                fun: e.fun,
                ccid: e.ccid,
                vuln: e.vuln,
                slot: e.slot,
                size: e.size,
                call_chain: Vec::new(),
            })
            .collect();
        let merged = self.patch_counters.merge();
        let per_patch = merged
            .iter()
            .enumerate()
            .filter(|(_, c)| c.hits > 0)
            .filter_map(|(slot, c)| {
                let p = self.patches.entry_at(slot)?;
                Some(PatchCounterRow {
                    slot,
                    fun: p.fun,
                    ccid: p.ccid,
                    vuln: p.vuln,
                    hits: c.hits,
                    bytes: c.bytes,
                })
            })
            .collect();
        TelemetrySnapshot {
            events,
            delivered: self.events.delivered(),
            dropped: self.events.dropped(),
            per_patch,
            reports,
        }
    }

    /// Whether `ptr` is currently in the deferred-free quarantine.
    pub fn is_quarantined(&self, ptr: *mut u8) -> bool {
        self.quarantine.contains(ptr as usize)
    }

    /// Current quarantine usage: (blocks, bytes).
    pub fn quarantine_usage(&self) -> (usize, usize) {
        self.quarantine.usage()
    }

    /// The guard-page address of a guarded allocation, read from its
    /// header; `None` for an unguarded one.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live allocation of this allocator (or one still in
    /// its quarantine): the header in front of it is read.
    pub unsafe fn guard_page_of(&self, ptr: *mut u8) -> Option<usize> {
        let meta = read_word(ptr as usize, META);
        let page = (meta >> GUARD_SHIFT) & GUARD_MASK;
        (page != 0).then(|| (page as usize) * PAGE)
    }

    /// `mmap`s a region of `body` bytes plus a trailing `PROT_NONE` guard
    /// page. Returns its base address, or 0 when the mapping fails.
    unsafe fn map_guarded(&self, body: usize) -> usize {
        let total = body + PAGE;
        let region = libc::mmap(
            std::ptr::null_mut(),
            total,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        );
        if region == libc::MAP_FAILED {
            return 0;
        }
        let region = region as usize;
        let guard = region + body;
        // The meta word keeps 36 bits of guard page number.
        if guard / PAGE > GUARD_MASK as usize
            || libc::mprotect(guard as *mut libc::c_void, PAGE, libc::PROT_NONE) != 0
        {
            libc::munmap(region as *mut libc::c_void, total);
            return 0;
        }
        self.guard_maps.incr();
        region
    }

    /// Places a guarded buffer so its end abuts the guard page (modulo
    /// alignment), with its header in front of it, in a region recycled
    /// from the guard cache or else freshly mapped. `zeroed` asks for the
    /// whole buffer to read zero (calloc or UR); otherwise only the slack
    /// between the buffer's end and the guard is zeroed, so an overread
    /// stopped at the guard never sees a previous occupant's bytes.
    unsafe fn guarded_alloc(&self, layout: Layout, hdr: usize, meta: u64, zeroed: bool) -> *mut u8 {
        let (size, align) = (layout.size(), layout.align());
        let body = guard_body(size, align, hdr);
        let recycled = self.guard_cache.pop(body);
        let region = match recycled {
            Some(region) => region,
            None => self.map_guarded(body),
        };
        if region == 0 {
            return std::ptr::null_mut();
        }
        let guard = region + body;
        let user = (guard - size) & !(align - 1);
        debug_assert!(user - hdr >= region);
        if recycled.is_some() {
            // A fresh mapping reads zero; a recycled one holds stale bytes.
            let from = if zeroed { user } else { user + size };
            std::ptr::write_bytes(from as *mut u8, 0, guard - from);
        }
        if meta_vuln(meta).contains(VulnFlags::USE_AFTER_FREE) {
            write_word(user, SIZE, size as u64);
        }
        write_header(user, meta | ((guard / PAGE) as u64) << GUARD_SHIFT);
        self.guard_pages.incr();
        self.tagged_allocs.incr();
        user as *mut u8
    }

    unsafe fn alloc_with(&self, fun: AllocFn, layout: Layout, zeroed: bool) -> *mut u8 {
        self.interposed_allocs.incr();
        let ccid = ccid::current();
        let (slot, vuln) = self
            .patches
            .lookup_slot(fun, ccid)
            .unwrap_or((0, VulnFlags::NONE));
        if !vuln.is_empty() {
            self.table_hits.incr();
            self.note_patch_hit(fun, ccid, vuln, slot, layout.size());
        }
        let (size, align) = (layout.size(), layout.align());
        let hdr = header_len(align, vuln);
        let meta = u64::from(vuln.bits())
            | (slot as u64) << SLOT_SHIFT
            | u64::from(align.trailing_zeros()) << ALIGN_SHIFT;
        if vuln.contains(VulnFlags::OVERFLOW) {
            let ur = vuln.contains(VulnFlags::UNINIT_READ);
            if ur {
                self.zero_fills.incr();
            }
            return self.guarded_alloc(layout, hdr, meta, zeroed || ur);
        }
        let Some(block) = block_layout(size, align, hdr) else {
            return std::ptr::null_mut();
        };
        let p = if zeroed {
            System.alloc_zeroed(block)
        } else {
            System.alloc(block)
        };
        if p.is_null() {
            return p;
        }
        let user = p.add(hdr);
        if vuln.contains(VulnFlags::UNINIT_READ) && !zeroed {
            std::ptr::write_bytes(user, 0, size);
            self.zero_fills.incr();
        }
        if vuln.contains(VulnFlags::USE_AFTER_FREE) {
            write_word(user as usize, SIZE, size as u64);
            self.tagged_allocs.incr();
        }
        write_header(user as usize, meta);
        user
    }

    /// Returns a buffer's memory: a guarded one to the guard cache (or
    /// `munmap` when the cache does not take it), any other to [`System`].
    /// The check word is cleared first, so a later free of the same pointer
    /// fails the header check instead of freeing again.
    ///
    /// # Safety
    ///
    /// `user` must be a buffer of this allocator with meta word `meta` and
    /// user size `size`, owned by the caller and not queued.
    unsafe fn release(&self, user: usize, meta: u64, size: usize) {
        let align = meta_align(meta);
        let hdr = header_len(align, meta_vuln(meta));
        write_word(user, CHECK, 0);
        let guard = ((meta >> GUARD_SHIFT) & GUARD_MASK) as usize * PAGE;
        if guard != 0 {
            let body = guard_body(size, align, hdr);
            let region = guard - body;
            if !self.guard_cache.push(region, body) {
                libc::munmap(region as *mut libc::c_void, body + PAGE);
            }
        } else {
            // SAFETY: the same layout was valid when the buffer was allocated.
            let block = block_layout(size, align, hdr).unwrap_unchecked();
            System.dealloc((user - hdr) as *mut u8, block);
        }
    }

    /// Quarantines a UAF buffer and releases whatever the quota evicts.
    ///
    /// # Safety
    ///
    /// As for [`Self::release`], and `meta` must carry the UAF bit.
    unsafe fn defer(&self, user: usize, meta: u64, size: usize) {
        self.quarantined.incr();
        self.quarantined_bytes.add(size as u64);
        self.note_quarantine(EventKind::QuarantineDefer, meta, size);
        write_header(user, meta | QUARANTINED);
        let quota = self.quota.load(Ordering::Relaxed);
        self.evict(self.quarantine.push(user, size, quota));
    }

    /// Releases the quarantined blocks of chain `b` (linked through
    /// [`LINK`], ending in 0), oldest first.
    ///
    /// # Safety
    ///
    /// The chain must have been unlinked from the quarantine by the caller.
    unsafe fn evict(&self, mut b: usize) {
        while b != 0 {
            let next = read_word(b, LINK) as usize;
            let (meta, size) = (read_word(b, META), read_word(b, SIZE) as usize);
            self.evictions.incr();
            self.evicted_bytes.add(size as u64);
            self.note_quarantine(EventKind::QuarantineEvict, meta, size);
            self.release(b, meta, size);
            b = next;
        }
    }
}

impl Drop for HardenedAlloc {
    /// Releases every block the quarantine still holds, then unmaps every
    /// cached guarded region. Live buffers are the caller's to free first.
    fn drop(&mut self) {
        let held = self.quarantine.take_all();
        // SAFETY: `&mut self` excludes every other call on this allocator;
        // `held` was just unlinked from the quarantine, and each cached
        // region is owned by the cache alone until popped.
        unsafe {
            self.evict(held);
            for pages in 1..=CACHE_CLASSES {
                let body = pages * PAGE;
                while let Some(region) = self.guard_cache.pop(body) {
                    libc::munmap(region as *mut libc::c_void, body + PAGE);
                }
            }
        }
    }
}

unsafe impl GlobalAlloc for HardenedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.alloc_with(AllocFn::Malloc, layout, false)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.alloc_with(AllocFn::Calloc, layout, true)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.interposed_frees.incr();
        let user = ptr as usize;
        let meta = read_word(user, META);
        if read_word(user, CHECK) != seal(user, meta) || meta & QUARANTINED != 0 {
            self.misuse.incr();
            return;
        }
        let vuln = meta_vuln(meta);
        if vuln.contains(VulnFlags::OVERFLOW) || vuln.contains(VulnFlags::USE_AFTER_FREE) {
            self.tagged_frees.incr();
        }
        if vuln.contains(VulnFlags::USE_AFTER_FREE) {
            self.defer(user, meta, layout.size());
        } else {
            self.release(user, meta, layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Interpose as the realloc API: the *realloc-time* context decides
        // the defense (paper Section V).
        let Ok(new_layout) = Layout::from_size_align(new_size, layout.align()) else {
            return std::ptr::null_mut();
        };
        let new_ptr = self.alloc_with(AllocFn::Realloc, new_layout, false);
        if new_ptr.is_null() {
            return new_ptr;
        }
        std::ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
        self.dealloc(ptr, layout);
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    /// Reads /proc/self/maps and returns the permission string covering
    /// `addr`, e.g. `"---p"`.
    fn perms_at(addr: usize) -> Option<String> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        for line in maps.lines() {
            let (range, rest) = line.split_once(' ')?;
            let (lo, hi) = range.split_once('-')?;
            let lo = usize::from_str_radix(lo, 16).ok()?;
            let hi = usize::from_str_radix(hi, 16).ok()?;
            if addr >= lo && addr < hi {
                return Some(rest.split(' ').next()?.to_string());
            }
        }
        None
    }

    #[test]
    fn unpatched_allocations_pass_through() {
        let a = HardenedAlloc::new();
        unsafe {
            let l = layout(128, 8);
            let p = a.alloc(l);
            assert!(!p.is_null());
            std::ptr::write_bytes(p, 0xAB, 128);
            assert_eq!(*p.add(127), 0xAB);
            a.dealloc(p, l);
        }
        let st = a.stats();
        assert_eq!(st.interposed_allocs, 1);
        assert_eq!(st.interposed_frees, 1);
        assert_eq!(st.table_hits, 0);
        assert_eq!(st.guard_pages, 0);
    }

    #[test]
    fn guard_page_is_mapped_inaccessible() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x0F, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Malloc, here, VulnFlags::OVERFLOW)]);
        // A size no other test guards, so a concurrent guarded allocation
        // cannot refill the freed region in time to fool the last check.
        // Odd, at alignment 1: the buffer ends exactly at the guard and its
        // header is not 8-byte aligned.
        let size = 70_001;
        unsafe {
            let _site = ccid::CallScope::enter(0x0F);
            let l = layout(size, 1);
            let p = a.alloc(l);
            assert!(!p.is_null());
            // Whole buffer writable.
            std::ptr::write_bytes(p, 0x55, size);
            // The guard page directly follows and is PROT_NONE.
            let guard = a.guard_page_of(p).expect("guarded allocation");
            assert_eq!(guard, p as usize + size, "end abuts the guard");
            assert_eq!(perms_at(guard).as_deref(), Some("---p"));
            assert_eq!(perms_at(p as usize).as_deref(), Some("rw-p"));
            a.dealloc(p, l);
            assert_eq!(perms_at(p as usize), None, "region unmapped on free");
        }
        assert_eq!(a.stats().guard_pages, 1);
        assert_eq!(a.stats().table_hits, 1);
        assert_eq!(a.registry_stats().live(), 0);
    }

    #[test]
    fn ur_patch_zero_fills_real_memory() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x11, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::UNINIT_READ,
        )]);
        unsafe {
            // Warm the system allocator with dirty blocks.
            let l = layout(512, 16);
            for _ in 0..8 {
                let p = a.alloc(l);
                std::ptr::write_bytes(p, 0xEE, 512);
                a.dealloc(p, l);
            }
            let _site = ccid::CallScope::enter(0x11);
            let p = a.alloc(l);
            let buf = std::slice::from_raw_parts(p, 512);
            assert!(buf.iter().all(|&b| b == 0), "patched context zero-filled");
            a.dealloc(p, l);
        }
        assert_eq!(a.stats().zero_fills, 1);
    }

    #[test]
    fn uaf_patch_quarantines_real_frees() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x22, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        unsafe {
            let l = layout(256, 16);
            let p = {
                let _site = ccid::CallScope::enter(0x22);
                a.alloc(l)
            };
            std::ptr::write_bytes(p, 0x11, 256);
            a.dealloc(p, l);
            assert!(a.is_quarantined(p), "free deferred");
            // The memory is still mapped and carries the stale bytes.
            assert_eq!(*p, 0x11);
            assert_eq!(a.quarantine_usage(), (1, 256));
        }
        assert_eq!(a.stats().quarantined, 1);
        assert_eq!(a.stats().evictions, 0);
    }

    #[test]
    fn quarantine_quota_evicts_to_system() {
        let a = HardenedAlloc::new();
        a.set_quarantine_quota(600);
        let here = ccid::with_site(0x33, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        unsafe {
            let l = layout(256, 16);
            for _ in 0..4 {
                let p = {
                    let _site = ccid::CallScope::enter(0x33);
                    a.alloc(l)
                };
                a.dealloc(p, l);
            }
        }
        let st = a.stats();
        assert_eq!(st.quarantined, 4);
        assert!(st.evictions >= 2, "quota forces evictions: {st:?}");
        assert!(a.quarantine_usage().1 <= 600);
    }

    #[test]
    fn realloc_probes_realloc_context() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x44, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Realloc, here, VulnFlags::OVERFLOW)]);
        unsafe {
            let l = layout(64, 8);
            let p = a.alloc(l);
            std::ptr::write_bytes(p, 0x77, 64);
            let q = {
                let _site = ccid::CallScope::enter(0x44);
                a.realloc(p, l, 256)
            };
            assert!(!q.is_null());
            // Contents preserved.
            assert!(std::slice::from_raw_parts(q, 64).iter().all(|&b| b == 0x77));
            // New buffer is guarded.
            assert!(a.guard_page_of(q).is_some());
            a.dealloc(q, layout(256, 8));
        }
    }

    #[test]
    fn alloc_zeroed_probes_calloc() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x55, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Calloc, here, VulnFlags::OVERFLOW)]);
        unsafe {
            let l = layout(100, 8);
            let _site = ccid::CallScope::enter(0x55);
            let p = a.alloc_zeroed(l);
            assert!(a.guard_page_of(p).is_some(), "calloc patch hit");
            assert!(std::slice::from_raw_parts(p, 100).iter().all(|&b| b == 0));
            a.dealloc(p, l);
        }
    }

    #[test]
    fn different_context_same_site_constant_misses() {
        let a = HardenedAlloc::new();
        let patched = ccid::with_site(1, || ccid::with_site(2, ccid::current));
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            patched,
            VulnFlags::OVERFLOW,
        )]);
        unsafe {
            let l = layout(64, 8);
            // Same leaf site (2) under a different caller (3): different
            // CCID, no defense.
            let p = ccid::with_site(3, || ccid::with_site(2, || a.alloc(l)));
            assert!(a.guard_page_of(p).is_none());
            a.dealloc(p, l);
        }
    }

    #[test]
    fn install_from_config_text() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x77, ccid::current);
        let text = format!("malloc {here:#x} UR|UAF  # from-disk\nbogus-line-free\n");
        assert!(a.install_from_config(&text).is_err(), "malformed rejected");
        let text = format!("malloc {here:#x} UR|UAF  # from-disk\n");
        assert_eq!(a.install_from_config(&text).unwrap(), 1);
        unsafe {
            let l = layout(64, 8);
            let p = {
                let _site = ccid::CallScope::enter(0x77);
                a.alloc(l)
            };
            assert!(
                std::slice::from_raw_parts(p, 64).iter().all(|&b| b == 0),
                "UR bit from the config applied"
            );
            a.dealloc(p, l);
            assert!(a.is_quarantined(p), "UAF bit from the config applied");
        }
    }

    #[test]
    fn patch_entry_from_patch() {
        let p = Patch::new(AllocFn::Malloc, 7, VulnFlags::ALL);
        let e = PatchEntry::from(&p);
        assert_eq!(e.ccid, 7);
        assert_eq!(e.vuln, VulnFlags::ALL);
    }

    #[test]
    fn install_merges_duplicate_keys() {
        let a = HardenedAlloc::new();
        assert_eq!(
            a.install(&[
                PatchEntry::new(AllocFn::Malloc, 9, VulnFlags::OVERFLOW),
                PatchEntry::new(AllocFn::Malloc, 9, VulnFlags::UNINIT_READ),
            ]),
            2
        );
        assert_eq!(
            a.patches.lookup(AllocFn::Malloc, 9),
            VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ
        );
    }

    #[test]
    fn concurrent_allocation_stress() {
        use std::sync::Arc;
        let a = Arc::new(HardenedAlloc::new());
        let here = ccid::with_site(0x66, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || unsafe {
                let l = layout(64, 8);
                for i in 0..200 {
                    let p = if i % 3 == 0 {
                        let _site = ccid::CallScope::enter(0x66);
                        a.alloc(l)
                    } else {
                        a.alloc(l)
                    };
                    assert!(!p.is_null());
                    std::ptr::write_bytes(p, t, 64);
                    assert_eq!(*p.add(63), t);
                    a.dealloc(p, l);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let st = a.stats();
        assert_eq!(st.interposed_allocs, 800);
        assert_eq!(st.interposed_frees, 800);
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x88, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Malloc, here, VulnFlags::ALL)]);
        unsafe {
            let l = layout(128, 8);
            let p = {
                let _site = ccid::CallScope::enter(0x88);
                a.alloc(l)
            };
            a.dealloc(p, l);
        }
        assert!(!a.telemetry_enabled());
        let snap = a.telemetry_snapshot();
        assert!(snap.is_empty(), "disabled telemetry observed {snap:?}");
        assert_eq!(snap.delivered, 0);
    }

    #[test]
    fn telemetry_records_defenses_and_files_one_report_per_t() {
        let a = HardenedAlloc::new();
        a.set_telemetry(true);
        let here = ccid::with_site(0x99, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Malloc, here, VulnFlags::ALL)]);
        a.freeze();
        unsafe {
            let l = layout(200, 8);
            for _ in 0..3 {
                let p = {
                    let _site = ccid::CallScope::enter(0x99);
                    a.alloc(l)
                };
                a.dealloc(p, l);
            }
        }
        let snap = a.telemetry_snapshot();
        // 3 hits of one ALL-patch: OF + UR report at first alloc, UAF
        // report at first defer — exactly one report per (FUN, CCID, T).
        assert_eq!(snap.reports.len(), 3, "{:?}", snap.reports);
        let mut types: Vec<VulnFlags> = snap.reports.iter().map(|r| r.vuln).collect();
        types.sort();
        assert_eq!(
            types,
            vec![
                VulnFlags::OVERFLOW,
                VulnFlags::USE_AFTER_FREE,
                VulnFlags::UNINIT_READ
            ]
        );
        for r in &snap.reports {
            assert_eq!(r.fun, AllocFn::Malloc);
            assert_eq!(r.ccid, here);
            assert_eq!(r.size, 200);
        }
        // Per-patch counters: 3 hits x 200 bytes against the one patch.
        assert_eq!(snap.per_patch.len(), 1);
        assert_eq!(snap.per_patch[0].hits, 3);
        assert_eq!(snap.per_patch[0].bytes, 600);
        assert_eq!(snap.per_patch[0].ccid, here);
        // Events: per round one patch-hit + guard-install + zero-init +
        // quarantine-defer, plus the 3 one-time attack reports.
        let count = |k: EventKind| snap.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::PatchHit), 3);
        assert_eq!(count(EventKind::GuardInstall), 3);
        assert_eq!(count(EventKind::ZeroInit), 3);
        assert_eq!(count(EventKind::QuarantineDefer), 3);
        assert_eq!(count(EventKind::AttackReported), 3);
        assert_eq!(snap.dropped, 0);
        // A second snapshot delivers no stale events and no new reports.
        let again = a.telemetry_snapshot();
        assert!(again.events.is_empty(), "events delivered exactly once");
        assert!(again.reports.is_empty());
    }

    #[test]
    fn telemetry_eviction_events_attribute_the_patch() {
        let a = HardenedAlloc::new();
        a.set_telemetry(true);
        a.set_quarantine_quota(600);
        let here = ccid::with_site(0xAA, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        unsafe {
            let l = layout(256, 16);
            for _ in 0..4 {
                let p = {
                    let _site = ccid::CallScope::enter(0xAA);
                    a.alloc(l)
                };
                a.dealloc(p, l);
            }
        }
        let snap = a.telemetry_snapshot();
        let evicts: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::QuarantineEvict)
            .collect();
        assert!(!evicts.is_empty(), "quota forces evictions");
        for e in evicts {
            assert_eq!(e.ccid, here, "eviction attributed to its patch");
            assert_eq!(e.size, 256);
        }
        let st = a.stats();
        assert_eq!(st.quarantined_bytes, 4 * 256);
        assert_eq!(
            st.quarantined_bytes,
            st.evicted_bytes + a.quarantine_usage().1 as u64,
            "byte conservation through evictions"
        );
    }

    /// One UAF-patched allocator with the given quarantine quota.
    fn uaf_alloc(site: u64, quota: usize) -> HardenedAlloc {
        let a = patched(&[(AllocFn::Malloc, site, VulnFlags::USE_AFTER_FREE)]);
        a.set_quarantine_quota(quota);
        a
    }

    unsafe fn alloc_at(a: &HardenedAlloc, site: u64, l: Layout) -> *mut u8 {
        let _site = ccid::CallScope::enter(site);
        let p = a.alloc(l);
        assert!(!p.is_null());
        p
    }

    #[test]
    fn quarantine_is_one_fifo_with_a_pure_byte_quota() {
        let a = uaf_alloc(0xBB, 1000);
        unsafe {
            for (size, usage, evictions) in [
                (600, (1, 600), 0),
                (300, (2, 900), 0),
                // Over quota: the oldest block (600) goes.
                (200, (2, 500), 1),
                // Larger than the quota: flushes everything, itself too.
                (2000, (0, 0), 4),
                (64, (1, 64), 4),
            ] {
                let l = layout(size, 16);
                a.dealloc(alloc_at(&a, 0xBB, l), l);
                assert_eq!(a.quarantine_usage(), usage, "after freeing {size}");
                assert_eq!(a.stats().evictions, evictions, "after freeing {size}");
            }
        }
        let st = a.stats();
        assert_eq!(st.quarantined_bytes, 3164);
        assert_eq!(st.quarantined_bytes, st.evicted_bytes + 64);
    }

    #[test]
    fn double_free_of_a_held_block_is_refused() {
        let a = uaf_alloc(0xCC, 1 << 20);
        unsafe {
            let l = layout(96, 16);
            let p = alloc_at(&a, 0xCC, l);
            a.dealloc(p, l);
            assert_eq!(a.quarantine_usage(), (1, 96));
            a.dealloc(p, l);
            assert_eq!(a.quarantine_usage(), (1, 96), "second free changed nothing");
            assert!(a.is_quarantined(p));
            // The block was never handed back to the system, so the next
            // same-size allocation cannot reuse it.
            let q = a.alloc(l);
            assert_ne!(q, p);
            a.dealloc(q, l);
        }
        let st = a.stats();
        assert_eq!(st.misuse, 1);
        assert_eq!((st.quarantined, st.evictions), (1, 0));
        assert_eq!(a.registry_stats().live(), 0);
    }

    #[test]
    fn double_free_after_eviction_is_refused() {
        // The quota is smaller than the block: the first free evicts it at
        // once, so the second free meets a released header.
        let a = uaf_alloc(0xDD, 64);
        unsafe {
            let l = layout(128, 16);
            let p = alloc_at(&a, 0xDD, l);
            a.dealloc(p, l);
            assert_eq!(a.quarantine_usage(), (0, 0));
            assert_eq!(a.stats().evictions, 1);
            a.dealloc(p, l);
        }
        let st = a.stats();
        assert_eq!(st.misuse, 1);
        assert_eq!((st.quarantined, st.evictions), (1, 1));
    }

    #[test]
    fn frees_of_released_or_foreign_pointers_are_refused() {
        let a = HardenedAlloc::new();
        unsafe {
            let l = layout(48, 8);
            let p = a.alloc(l);
            a.dealloc(p, l);
            a.dealloc(p, l);
            // A pointer the allocator never returned.
            let mut foreign = [0u64; 8];
            a.dealloc(foreign.as_mut_ptr().add(4).cast(), l);
        }
        assert_eq!(a.stats().misuse, 2);
        assert_eq!(a.stats().interposed_frees, 3);
    }

    #[test]
    fn headers_keep_large_alignments() {
        let a = uaf_alloc(0xEE, 1 << 20);
        unsafe {
            for align in [1, 8, 16, 32, 64, 4096] {
                let l = layout(40, align);
                for p in [a.alloc(l), alloc_at(&a, 0xEE, l)] {
                    assert_eq!(p as usize % align, 0, "align {align}");
                    std::ptr::write_bytes(p, 0x5A, 40);
                    a.dealloc(p, l);
                }
            }
        }
        assert_eq!(a.stats().misuse, 0);
        assert_eq!(a.quarantine_usage(), (6, 6 * 40));
    }

    #[test]
    fn quarantine_conserves_bytes_under_concurrent_churn() {
        use std::sync::Arc;
        let a = Arc::new(uaf_alloc(0x77, 16 * 1024));
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || unsafe {
                    for i in 0..2000usize {
                        let l = layout(16 + (t * 2000 + i) % 200, 8);
                        a.dealloc(alloc_at(&a, 0x77, l), l);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = a.stats();
        let (_, held) = a.quarantine_usage();
        assert_eq!(st.quarantined, 16_000);
        assert_eq!(
            st.quarantined_bytes,
            st.evicted_bytes + held as u64,
            "bytes pushed = bytes evicted + bytes held"
        );
        assert!(held <= 16 * 1024);
        assert!(held + 216 > 16 * 1024, "the quota is filled: {held}");
        assert_eq!(st.misuse, 0);
    }

    /// An allocator with one patch per `(fun, site, vuln)`, keyed by the
    /// CCID seen inside `site`.
    fn patched(patches: &[(AllocFn, u64, VulnFlags)]) -> HardenedAlloc {
        let a = HardenedAlloc::new();
        let entries: Vec<PatchEntry> = patches
            .iter()
            .map(|&(fun, site, vuln)| {
                PatchEntry::new(fun, ccid::with_site(site, ccid::current), vuln)
            })
            .collect();
        assert_eq!(a.install(&entries), entries.len());
        a
    }

    /// The guard page right after a guarded buffer of `size` bytes at
    /// alignment 8 or less, checked against the header.
    unsafe fn guard_after(a: &HardenedAlloc, p: *mut u8, size: usize) -> usize {
        let guard = a.guard_page_of(p).expect("guarded allocation");
        assert!(
            guard - (p as usize + size) < 8,
            "the buffer ends at its guard"
        );
        assert_eq!(perms_at(guard).as_deref(), Some("---p"));
        guard
    }

    #[test]
    fn recycled_region_keeps_its_guard_and_maps_once() {
        let a = patched(&[(AllocFn::Malloc, 0x101, VulnFlags::OVERFLOW)]);
        // 2-page body.
        let (size, l) = (5000, layout(5000, 1));
        // SAFETY: buffers come from `a`, are written only inside their
        // regions and are freed once.
        unsafe {
            let first = alloc_at(&a, 0x101, l);
            a.dealloc(first, l);
            for _ in 0..50 {
                let p = alloc_at(&a, 0x101, l);
                assert_eq!(p, first, "the cached region is reused");
                assert_eq!(guard_after(&a, p, size), p as usize + size);
                std::ptr::write_bytes(p, 0x55, size);
                a.dealloc(p, l);
            }
        }
        let st = a.stats();
        assert_eq!((st.guard_pages, st.guard_maps), (51, 1));
        assert_eq!(st.misuse, 0);
        assert_eq!(a.registry_stats().live(), 0);
    }

    #[test]
    fn recycled_regions_read_zero_where_promised() {
        let a = patched(&[
            (AllocFn::Malloc, 0x102, VulnFlags::OVERFLOW),
            (AllocFn::Calloc, 0x102, VulnFlags::OVERFLOW),
            (
                AllocFn::Malloc,
                0x103,
                VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ,
            ),
        ]);
        // 3-page body; 7 bytes of slack before the guard at alignment 8.
        let (size, l) = (9001, layout(9001, 8));
        // SAFETY: buffers come from `a`, are written only inside their
        // regions and are freed once.
        unsafe {
            // Fills the buffer and its slack up to the guard, then frees it
            // into the cache.
            let dirty_free = |p: *mut u8| {
                let guard = guard_after(&a, p, size);
                std::ptr::write_bytes(p, 0xEE, guard - p as usize);
                a.dealloc(p, l);
            };
            let zero = |from: *mut u8, to: usize| {
                std::slice::from_raw_parts(from, to - from as usize)
                    .iter()
                    .all(|&b| b == 0)
            };
            dirty_free(alloc_at(&a, 0x102, l));
            let p = {
                let _site = ccid::CallScope::enter(0x102);
                a.alloc_zeroed(l)
            };
            assert!(zero(p, guard_after(&a, p, size)), "calloc reads zero");
            dirty_free(p);
            let p = alloc_at(&a, 0x103, l);
            assert!(zero(p, guard_after(&a, p, size)), "OF|UR reads zero");
            dirty_free(p);
            let p = alloc_at(&a, 0x102, l);
            assert!(
                zero(p.add(size), guard_after(&a, p, size)),
                "OF slack reads zero"
            );
            a.dealloc(p, l);
        }
        let st = a.stats();
        assert_eq!((st.guard_pages, st.guard_maps), (4, 1));
        assert_eq!(st.zero_fills, 1);
        assert_eq!(st.misuse, 0);
    }

    /// Whether the 8 bytes at `addr` still read `canary`. Read through
    /// `/proc/self/mem`, which fails instead of faulting where nothing is
    /// mapped. A region another thread maps at the same address afterwards
    /// reads zero, so a `false` here means the region really was unmapped.
    fn still_holds(addr: usize, canary: u64) -> bool {
        use std::io::{Read, Seek, SeekFrom};
        let mut mem = std::fs::File::open("/proc/self/mem").expect("/proc/self/mem opens");
        mem.seek(SeekFrom::Start(addr as u64))
            .expect("/proc/self/mem seeks");
        let mut buf = [0u8; 8];
        mem.read_exact(&mut buf).is_ok() && u64::from_ne_bytes(buf) == canary
    }

    #[test]
    fn a_full_bin_unmaps_what_it_cannot_hold() {
        // (body pages, regions its bin keeps): 16 body pages per bin, and
        // nothing above the largest class.
        for (pages, depth) in [(1, 16), (4, 4), (8, 2), (9, 0)] {
            let a = patched(&[(AllocFn::Malloc, 0x104, VulnFlags::OVERFLOW)]);
            let l = layout(pages * PAGE - 64, 8);
            let n = depth + 3;
            let canary = |i: usize| 0x5EED_0000_0000_0000 | i as u64;
            let batch = |a: &HardenedAlloc| -> Vec<*mut u8> {
                (0..n)
                    // SAFETY: only allocates from `a`.
                    .map(|_| unsafe { alloc_at(a, 0x104, l) })
                    .collect()
            };
            // SAFETY: buffers come from `a`, are written only inside their
            // regions and are freed once.
            unsafe {
                let ptrs = batch(&a);
                for (i, &p) in ptrs.iter().enumerate() {
                    p.cast::<u64>().write(canary(i));
                    a.dealloc(p, l);
                }
                for (i, &p) in ptrs.iter().enumerate() {
                    let mapped = still_holds(p as usize, canary(i));
                    assert_eq!(
                        mapped,
                        i < depth,
                        "{pages} pages: buffer {i} mapped: {mapped}"
                    );
                }
                assert_eq!(a.stats().guard_maps, n as u64);
                // Reusing them all maps only the 3 the bin did not hold; the
                // cached ones come back newest first.
                let again = batch(&a);
                assert_eq!(a.stats().guard_maps, n as u64 + 3, "{pages} pages");
                let kept: Vec<*mut u8> = ptrs[..depth].iter().rev().copied().collect();
                assert_eq!(again[..depth], kept[..], "{pages} pages");
                for p in again {
                    a.dealloc(p, l);
                }
            }
        }
    }

    #[test]
    fn dangling_writes_into_a_cached_region_are_harmless() {
        let a = patched(&[(AllocFn::Malloc, 0x106, VulnFlags::OVERFLOW)]);
        // 5-page body.
        let (size, l) = (20_000, layout(20_000, 8));
        // SAFETY: buffers come from `a`; the dangling write stays inside the
        // cached region, which the cache keeps mapped.
        unsafe {
            let p = alloc_at(&a, 0x106, l);
            let guard = guard_after(&a, p, size);
            a.dealloc(p, l);
            // A dangling write over the whole cached body, header included.
            std::ptr::write_bytes((guard - 5 * PAGE) as *mut u8, 0xFF, 5 * PAGE);
            let q = alloc_at(&a, 0x106, l);
            assert_eq!(guard_after(&a, q, size), guard, "the region was reused");
            std::ptr::write_bytes(q, 0x11, size);
            a.dealloc(q, l);
        }
        let st = a.stats();
        assert_eq!((st.guard_pages, st.guard_maps), (2, 1));
        assert_eq!(st.misuse, 0);
        assert_eq!(a.registry_stats().live(), 0);
    }

    #[test]
    fn double_free_of_a_cached_guarded_buffer_is_refused() {
        let a = patched(&[(AllocFn::Malloc, 0x107, VulnFlags::OVERFLOW)]);
        // 7-page body.
        let l = layout(25_000, 8);
        // SAFETY: buffers come from `a`; the second free reads the header of
        // a region the cache keeps mapped.
        unsafe {
            let p = alloc_at(&a, 0x107, l);
            a.dealloc(p, l);
            a.dealloc(p, l);
            assert_eq!(a.stats().misuse, 1);
            // The region was cached once, so two live buffers get two.
            let (q, r) = (alloc_at(&a, 0x107, l), alloc_at(&a, 0x107, l));
            assert_ne!(a.guard_page_of(q), a.guard_page_of(r));
            assert_eq!(a.stats().guard_maps, 2);
            a.dealloc(q, l);
            a.dealloc(r, l);
        }
        assert_eq!(a.stats().misuse, 1);
    }

    #[test]
    fn drop_unmaps_cached_regions_and_releases_the_quarantine() {
        let a = patched(&[
            (AllocFn::Malloc, 0x108, VulnFlags::OVERFLOW),
            (
                AllocFn::Malloc,
                0x109,
                VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE,
            ),
        ]);
        // 6-page bodies: one cached, one held by the quarantine.
        let l = layout(22_000, 8);
        // SAFETY: buffers come from `a` and are freed once; each canary is
        // written inside its buffer before the free.
        let (cached, held) = unsafe {
            let (p, q) = (alloc_at(&a, 0x108, l), alloc_at(&a, 0x109, l));
            p.cast::<u64>().write(0xCAC4E);
            q.cast::<u64>().write(0x4E1D);
            a.dealloc(p, l);
            a.dealloc(q, l);
            (p as usize, q as usize)
        };
        assert!(a.is_quarantined(held as *mut u8));
        assert_eq!(perms_at(cached).as_deref(), Some("rw-p"));
        assert_eq!(perms_at(held).as_deref(), Some("rw-p"));
        assert!(still_holds(cached, 0xCAC4E) && still_holds(held, 0x4E1D));
        drop(a);
        assert!(
            !still_holds(cached, 0xCAC4E),
            "cached region unmapped on drop"
        );
        assert!(
            !still_holds(held, 0x4E1D),
            "quarantined region released on drop"
        );
    }

    #[test]
    fn spinlock_mutual_exclusion() {
        use std::sync::Arc;
        let lock = Arc::new(SpinLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = lock.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let _g = lock.lock();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }
}
