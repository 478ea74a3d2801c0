//! The sparse, permission-checked address space.
//!
//! Cost follows the pages a run *touches*, not the pages it maps:
//!
//! - `map` records one region (a run of pages and its permission) in an
//!   ordered table, whatever its length. A page gets its own entry only when
//!   it is first written or `protect` gives it its own permission.
//! - A page's bytes are materialized on first write. Until then reads see
//!   one shared static zero page, exactly what anonymous `mmap` memory reads
//!   as. A page is resident (counted in [`SpaceStats::rss_bytes`]) exactly
//!   when it is materialized.

use crate::hash::FastMap;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Simulated page size: 4 KiB, matching the paper's guard-page math
/// (a guard page is 2¹²-byte aligned; 48 − 12 = 36 bits locate it).
pub const PAGE_SIZE: u64 = 4096;

/// A simulated virtual address.
pub type Addr = u64;

/// Page protection, the subset of `mprotect` flags the defenses need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Perm {
    /// Inaccessible (`PROT_NONE`) — guard pages, red zones, freed blocks.
    None,
    /// Read-only (`PROT_READ`) — e.g. the frozen patch table.
    Read,
    /// Read/write (`PROT_READ|PROT_WRITE`) — ordinary heap memory.
    ReadWrite,
}

impl Perm {
    fn allows_read(self) -> bool {
        !matches!(self, Perm::None)
    }
    fn allows_write(self) -> bool {
        matches!(self, Perm::ReadWrite)
    }
}

/// The reason an access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The page is not mapped at all (wild pointer).
    Unmapped,
    /// The page is mapped but not readable.
    ReadProtected,
    /// The page is mapped but not writable.
    WriteProtected,
}

/// A simulated memory fault — the SIGSEGV of this substrate.
///
/// Accesses perform partial work up to the faulting byte, exactly like a real
/// CPU: an overflowing `memcpy` corrupts everything before the guard page and
/// then traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// First faulting address.
    pub addr: Addr,
    /// Why the access faulted.
    pub kind: FaultKind,
    /// Bytes successfully transferred before the fault.
    pub completed: u64,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault at {:#x} ({:?}) after {} bytes",
            self.addr, self.kind, self.completed
        )
    }
}

impl std::error::Error for MemFault {}

/// A fault during [`AddressSpace::copy`] or [`AddressSpace::copy_raw`]:
/// the source is checked whole before any byte moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyFault {
    /// The source has a byte that cannot be read; nothing was written.
    Read(MemFault),
    /// The source is readable but the destination is not; its first
    /// `completed` bytes were written, as a `memmove` of that prefix.
    Write(MemFault),
}

impl CopyFault {
    /// The fault, whichever side it hit.
    pub fn fault(self) -> MemFault {
        match self {
            CopyFault::Read(f) | CopyFault::Write(f) => f,
        }
    }
}

impl fmt::Display for CopyFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = match self {
            CopyFault::Read(_) => "source",
            CopyFault::Write(_) => "destination",
        };
        write!(f, "copy {side}: {}", self.fault())
    }
}

impl std::error::Error for CopyFault {}

/// What every unwritten page reads as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// A mapped run of pages `[first, end)` (page numbers; `first` is the
/// table key) and the permission `map` gave them.
#[derive(Debug, Clone, Copy)]
struct Region {
    end: u64,
    perm: Perm,
}

/// A page that was written or given its own permission.
#[derive(Debug, Clone)]
struct Page {
    /// Overrides the region's permission.
    perm: Perm,
    /// `None` until first written; materialized ⇔ resident.
    data: Option<Box<[u8]>>,
}

/// The region covering page `pno`, if it is mapped.
fn region_at(regions: &BTreeMap<u64, Region>, pno: u64) -> Option<Region> {
    regions
        .range(..=pno)
        .next_back()
        .map(|(_, r)| *r)
        .filter(|r| pno < r.end)
}

/// Usage statistics for an [`AddressSpace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Currently mapped bytes (virtual size).
    pub mapped_bytes: u64,
    /// Currently dirtied bytes (the RSS proxy).
    pub rss_bytes: u64,
    /// High-water mark of `rss_bytes`.
    pub peak_rss_bytes: u64,
    /// Total `map` calls.
    pub maps: u64,
    /// Total `protect` calls.
    pub protects: u64,
}

/// A sparse, paged, permission-checked 64-bit address space.
///
/// Regions are handed out by a bump pointer starting high (like `mmap`
/// placements) so simulated heap addresses never collide with zero.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// Disjoint mapped regions keyed by first page number. A page is mapped
    /// exactly when a region covers it.
    regions: BTreeMap<u64, Region>,
    /// Pages with their own state, each inside a region.
    pages: FastMap<u64, Page>,
    next_map: Addr,
    stats: SpaceStats,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Base of the simulated mapping area.
    pub const MAP_BASE: Addr = 0x7f00_0000_0000;

    /// An empty address space.
    pub fn new() -> Self {
        Self {
            regions: BTreeMap::new(),
            pages: FastMap::default(),
            next_map: Self::MAP_BASE,
            stats: SpaceStats::default(),
        }
    }

    /// Maps `len` bytes (rounded up to whole pages) with permission `perm`
    /// and returns the page-aligned base address.
    ///
    /// Fresh pages are zero-filled, like anonymous `mmap`.
    pub fn map(&mut self, len: u64, perm: Perm) -> Addr {
        let len = crate::align_up(len.max(1), PAGE_SIZE);
        let base = self.next_map;
        self.next_map += len + PAGE_SIZE; // leave an unmapped gap between regions
        let first = base / PAGE_SIZE;
        self.regions.insert(
            first,
            Region {
                end: first + len / PAGE_SIZE,
                perm,
            },
        );
        self.stats.mapped_bytes += len;
        self.stats.maps += 1;
        base
    }

    /// Unmaps `len` bytes starting at the page containing `addr`.
    ///
    /// Unmapping pages that are not mapped is a no-op (like `munmap`).
    pub fn unmap(&mut self, addr: Addr, len: u64) {
        let len = crate::align_up(len.max(1), PAGE_SIZE);
        let (first, end) = (addr / PAGE_SIZE, (addr + len) / PAGE_SIZE);
        // Regions are disjoint and sorted, so the overlapping ones are the
        // last few starting below `end`; the pieces left outside
        // `[first, end)` no longer overlap and end the loop.
        while let Some((start, r)) = self
            .regions
            .range(..end)
            .next_back()
            .map(|(&s, &r)| (s, r))
            .filter(|(_, r)| r.end > first)
        {
            self.regions.remove(&start);
            if start < first {
                self.regions.insert(start, Region { end: first, ..r });
            }
            if r.end > end {
                self.regions.insert(end, r);
            }
            self.stats.mapped_bytes -= (r.end.min(end) - start.max(first)) * PAGE_SIZE;
        }
        for pno in first..end {
            if let Some(Page { data: Some(_), .. }) = self.pages.remove(&pno) {
                self.stats.rss_bytes -= PAGE_SIZE;
            }
        }
    }

    /// Changes the protection of the pages covering `[addr, addr+len)`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] with [`FaultKind::Unmapped`] if any page in the
    /// range is not mapped (like `mprotect` returning `ENOMEM`).
    pub fn protect(&mut self, addr: Addr, len: u64, perm: Perm) -> Result<(), MemFault> {
        let len = crate::align_up(len.max(1), PAGE_SIZE);
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        if let Some(pno) = self.first_unmapped(first, last + 1) {
            return Err(MemFault {
                addr: pno * PAGE_SIZE,
                kind: FaultKind::Unmapped,
                completed: 0,
            });
        }
        for pno in first..=last {
            let page = self.pages.entry(pno).or_insert(Page { perm, data: None });
            page.perm = perm;
        }
        self.stats.protects += 1;
        Ok(())
    }

    /// The protection of the page containing `addr`, if mapped.
    pub fn perm_at(&self, addr: Addr) -> Option<Perm> {
        self.page(addr / PAGE_SIZE).map(|(perm, _)| perm)
    }

    /// Permission and bytes of page `pno`, if mapped.
    fn page(&self, pno: u64) -> Option<(Perm, &[u8])> {
        match self.pages.get(&pno) {
            Some(p) => Some((p.perm, p.data.as_deref().unwrap_or(&ZERO_PAGE))),
            None => region_at(&self.regions, pno).map(|r| (r.perm, &ZERO_PAGE[..])),
        }
    }

    /// The bytes of the page containing `a` for writing, materialized on its
    /// first write; `done` is the fault's `completed`. With `checked`, a
    /// page that is mapped but not writable faults.
    fn page_mut(&mut self, a: Addr, done: u64, checked: bool) -> Result<&mut [u8], MemFault> {
        let pno = a / PAGE_SIZE;
        let fault = |kind| MemFault {
            addr: a,
            kind,
            completed: done,
        };
        let page = match self.pages.entry(pno) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let r = region_at(&self.regions, pno).ok_or(fault(FaultKind::Unmapped))?;
                v.insert(Page {
                    perm: r.perm,
                    data: None,
                })
            }
        };
        if checked && !page.perm.allows_write() {
            return Err(fault(FaultKind::WriteProtected));
        }
        let stats = &mut self.stats;
        Ok(&mut page.data.get_or_insert_with(|| {
            stats.rss_bytes += PAGE_SIZE;
            stats.peak_rss_bytes = stats.peak_rss_bytes.max(stats.rss_bytes);
            vec![0u8; PAGE_SIZE as usize].into_boxed_slice()
        })[..])
    }

    /// Hands `get` each page's slice of `[addr, addr+len)`, in address
    /// order; with `checked`, a mapped but unreadable page faults. Pages
    /// before a fault were handed over.
    fn read_pages(
        &self,
        addr: Addr,
        len: u64,
        checked: bool,
        mut get: impl FnMut(&[u8]),
    ) -> Result<(), MemFault> {
        let mut done = 0u64;
        while done < len {
            let a = addr + done;
            let fault = |kind| MemFault {
                addr: a,
                kind,
                completed: done,
            };
            let (perm, bytes) = self.page(a / PAGE_SIZE).ok_or(fault(FaultKind::Unmapped))?;
            if checked && !perm.allows_read() {
                return Err(fault(FaultKind::ReadProtected));
            }
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE - a % PAGE_SIZE).min(len - done) as usize;
            get(&bytes[off..off + n]);
            done += n as u64;
        }
        Ok(())
    }

    /// Copies `[addr, addr+buf.len())` into `buf`.
    fn read_buf(&self, addr: Addr, buf: &mut [u8], checked: bool) -> Result<(), MemFault> {
        let mut at = 0;
        self.read_pages(addr, buf.len() as u64, checked, |src| {
            buf[at..at + src.len()].copy_from_slice(src);
            at += src.len();
        })
    }

    /// Appends `[addr, addr+len)` to `out` page slice by page slice, or
    /// with `None` only checks it.
    fn append_pages(
        &self,
        addr: Addr,
        len: u64,
        mut out: Option<&mut Vec<u8>>,
        checked: bool,
    ) -> Result<(), MemFault> {
        self.read_pages(addr, len, checked, |src| {
            if let Some(out) = out.as_deref_mut() {
                out.extend_from_slice(src);
            }
        })
    }

    /// Hands `put` each page's slice of `[addr, addr+len)` with the offset
    /// into the range it starts at. Pages before a fault keep what `put`
    /// wrote.
    fn write_pages(
        &mut self,
        addr: Addr,
        len: u64,
        checked: bool,
        mut put: impl FnMut(&mut [u8], usize),
    ) -> Result<(), MemFault> {
        let mut done = 0u64;
        while done < len {
            let a = addr + done;
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE - a % PAGE_SIZE).min(len - done) as usize;
            put(
                &mut self.page_mut(a, done, checked)?[off..off + n],
                done as usize,
            );
            done += n as u64;
        }
        Ok(())
    }

    /// Permission-checked read into `buf`.
    ///
    /// # Errors
    ///
    /// Faults at the first unreadable byte; `completed` bytes were copied.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.read_buf(addr, buf, true)
    }

    /// Permission-checked read of `len` bytes, appended to `out` straight
    /// from the pages; with `None` the range is only checked.
    ///
    /// # Errors
    ///
    /// Faults at the first unreadable byte; the `completed` bytes before it
    /// were appended.
    pub fn read_append(
        &self,
        addr: Addr,
        len: u64,
        out: Option<&mut Vec<u8>>,
    ) -> Result<(), MemFault> {
        self.append_pages(addr, len, out, true)
    }

    /// Privileged [`AddressSpace::read_append`] that ignores permissions.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages; the bytes before the fault were
    /// appended.
    pub fn read_append_raw(
        &self,
        addr: Addr,
        len: u64,
        out: Option<&mut Vec<u8>>,
    ) -> Result<(), MemFault> {
        self.append_pages(addr, len, out, false)
    }

    /// Permission-checked write of `data`.
    ///
    /// # Errors
    ///
    /// Faults at the first unwritable byte; `completed` bytes were written
    /// (partial writes persist — a trapped overflow has already corrupted the
    /// bytes before the guard page, as on real hardware).
    pub fn write(&mut self, addr: Addr, data: &[u8]) -> Result<(), MemFault> {
        self.write_pages(addr, data.len() as u64, true, |dst, at| {
            dst.copy_from_slice(&data[at..at + dst.len()]);
        })
    }

    /// Permission-checked fill of `len` bytes with `byte`.
    ///
    /// # Errors
    ///
    /// Same semantics as [`AddressSpace::write`].
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), MemFault> {
        self.write_pages(addr, len, true, |dst, _| dst.fill(byte))
    }

    /// Privileged fill of `len` bytes with `byte`, ignoring permissions
    /// (kernel/analyzer view) — `memset` without materializing a buffer.
    ///
    /// # Errors
    ///
    /// Same semantics as [`AddressSpace::write_raw`]: faults only on
    /// unmapped pages, bytes before the fault persist.
    pub fn fill_raw(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), MemFault> {
        self.write_pages(addr, len, false, |dst, _| dst.fill(byte))
    }

    /// Reads a little-endian `u64`, permission-checked.
    ///
    /// # Errors
    ///
    /// Same semantics as [`AddressSpace::read`].
    pub fn read_u64(&self, addr: Addr) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`, permission-checked.
    ///
    /// # Errors
    ///
    /// Same semantics as [`AddressSpace::write`].
    pub fn write_u64(&mut self, addr: Addr, v: u64) -> Result<(), MemFault> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Privileged read that ignores permissions (kernel/allocator view).
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn read_raw(&self, addr: Addr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.read_buf(addr, buf, false)
    }

    /// Privileged write that ignores permissions (kernel/allocator view).
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn write_raw(&mut self, addr: Addr, data: &[u8]) -> Result<(), MemFault> {
        self.write_pages(addr, data.len() as u64, false, |dst, at| {
            dst.copy_from_slice(&data[at..at + dst.len()]);
        })
    }

    /// Privileged `u64` read (ignores permissions).
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn read_u64_raw(&self, addr: Addr) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.read_raw(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Privileged `u64` write (ignores permissions).
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn write_u64_raw(&mut self, addr: Addr, v: u64) -> Result<(), MemFault> {
        self.write_raw(addr, &v.to_le_bytes())
    }

    /// First unmapped page in `[first, end)`, found by walking regions.
    fn first_unmapped(&self, first: u64, end: u64) -> Option<u64> {
        let mut pno = first;
        while pno < end {
            pno = match region_at(&self.regions, pno) {
                Some(r) => r.end,
                None => return Some(pno),
            };
        }
        None
    }

    /// The first byte of `[addr, addr+len)` a write would fault on: an
    /// unmapped page, or with `checked` one that is not writable.
    fn first_unwritable(&self, addr: Addr, len: u64, checked: bool) -> Option<MemFault> {
        let mut a = addr;
        while a < addr + len {
            let kind = match self.page(a / PAGE_SIZE) {
                None => Some(FaultKind::Unmapped),
                Some((perm, _)) if checked && !perm.allows_write() => {
                    Some(FaultKind::WriteProtected)
                }
                Some(_) => None,
            };
            if let Some(kind) = kind {
                return Some(MemFault {
                    addr: a,
                    kind,
                    completed: a - addr,
                });
            }
            a = (a / PAGE_SIZE + 1) * PAGE_SIZE;
        }
        None
    }

    /// Moves `n` bytes from `s` to `d` (mapped, and neither run crossing a
    /// page boundary) straight from the source page into the destination
    /// page.
    fn move_chunk(&mut self, s: Addr, d: Addr, n: usize) {
        let (spno, dpno) = (s / PAGE_SIZE, d / PAGE_SIZE);
        let (soff, doff) = ((s % PAGE_SIZE) as usize, (d % PAGE_SIZE) as usize);
        let dst = self.page_mut(d, 0, false).expect("destination is mapped");
        if spno == dpno {
            dst.copy_within(soff..soff + n, doff);
            return;
        }
        let [sp, dp] = self.pages.get_disjoint_mut([&spno, &dpno]);
        let dst = dp
            .and_then(|p| p.data.as_deref_mut())
            .expect("materialized above");
        let src = sp.and_then(|p| p.data.as_deref()).unwrap_or(&ZERO_PAGE);
        dst[doff..doff + n].copy_from_slice(&src[soff..soff + n]);
    }

    /// The loop behind [`AddressSpace::copy`] and
    /// [`AddressSpace::copy_raw`]: checks the whole source, finds the
    /// destination's first unwritable byte, then moves the prefix before
    /// it page chunk by page chunk, backwards when `dst` overlaps above
    /// `src` (`memmove`).
    fn copy_pages(
        &mut self,
        src: Addr,
        dst: Addr,
        len: u64,
        checked: bool,
    ) -> Result<(), CopyFault> {
        self.read_pages(src, len, checked, |_| {})
            .map_err(CopyFault::Read)?;
        let fault = self.first_unwritable(dst, len, checked);
        let len = fault.map_or(len, |f| f.completed);
        if dst > src && dst - src < len {
            let mut i = len;
            while i > 0 {
                let s_room = (src + i - 1) % PAGE_SIZE + 1;
                let d_room = (dst + i - 1) % PAGE_SIZE + 1;
                let n = s_room.min(d_room).min(i);
                i -= n;
                self.move_chunk(src + i, dst + i, n as usize);
            }
        } else {
            let mut i = 0;
            while i < len {
                let s_room = PAGE_SIZE - (src + i) % PAGE_SIZE;
                let d_room = PAGE_SIZE - (dst + i) % PAGE_SIZE;
                let n = s_room.min(d_room).min(len - i);
                self.move_chunk(src + i, dst + i, n as usize);
                i += n;
            }
        }
        fault.map_or(Ok(()), |f| Err(CopyFault::Write(f)))
    }

    /// Permission-checked `memcpy`/`memmove` of `len` bytes, with the
    /// semantics of reading the whole source and then writing it: no
    /// `len`-byte buffer is ever made.
    ///
    /// # Errors
    ///
    /// [`CopyFault::Read`] at the first unreadable source byte, with nothing
    /// written; otherwise [`CopyFault::Write`] at the first unwritable
    /// destination byte, with the bytes before it written.
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), CopyFault> {
        self.copy_pages(src, dst, len, true)
    }

    /// Privileged [`AddressSpace::copy`] that ignores permissions — used by
    /// `realloc` internally.
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::copy`], faulting only on unmapped pages.
    pub fn copy_raw(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), CopyFault> {
        self.copy_pages(src, dst, len, false)
    }

    /// Current usage statistics.
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }

    /// Dirtied bytes — the resident-set-size proxy.
    pub fn rss_bytes(&self) -> u64 {
        self.stats.rss_bytes
    }

    /// Mapped bytes (virtual size).
    pub fn mapped_bytes(&self) -> u64 {
        self.stats.mapped_bytes
    }

    /// Number of pages whose bytes exist — every page written since it was
    /// mapped. Mapping and `protect` materialize nothing, so this times
    /// [`PAGE_SIZE`] equals [`AddressSpace::rss_bytes`].
    pub fn materialized_pages(&self) -> usize {
        self.pages.values().filter(|p| p.data.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_page_aligned_zeroed_memory() {
        let mut s = AddressSpace::new();
        let a = s.map(100, Perm::ReadWrite);
        assert_eq!(a % PAGE_SIZE, 0);
        let mut buf = [1u8; 16];
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(s.mapped_bytes(), PAGE_SIZE);
    }

    #[test]
    fn regions_do_not_touch() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        let b = s.map(PAGE_SIZE, Perm::ReadWrite);
        assert!(b >= a + 2 * PAGE_SIZE, "guard gap between mappings");
        // The gap is unmapped.
        assert!(s.read_u64(a + PAGE_SIZE).is_err());
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        let data: Vec<u8> = (0..=255).collect();
        // Straddle the page boundary.
        s.write(a + PAGE_SIZE - 100, &data).unwrap();
        let mut back = vec![0u8; 256];
        s.read(a + PAGE_SIZE - 100, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unmapped_access_faults() {
        let s = AddressSpace::new();
        let mut b = [0u8; 1];
        let err = s.read(0xdead_0000, &mut b).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.completed, 0);
    }

    #[test]
    fn protect_none_blocks_reads_and_writes() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        s.protect(a, PAGE_SIZE, Perm::None).unwrap();
        let mut b = [0u8; 1];
        assert_eq!(
            s.read(a, &mut b).unwrap_err().kind,
            FaultKind::ReadProtected
        );
        assert_eq!(
            s.write(a, &[1]).unwrap_err().kind,
            FaultKind::WriteProtected
        );
        // Raw access still works (allocator view).
        s.write_raw(a, &[7]).unwrap();
        s.read_raw(a, &mut b).unwrap();
        assert_eq!(b[0], 7);
    }

    #[test]
    fn read_only_blocks_writes_only() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        s.write(a, &[42]).unwrap();
        s.protect(a, PAGE_SIZE, Perm::Read).unwrap();
        let mut b = [0u8; 1];
        s.read(a, &mut b).unwrap();
        assert_eq!(b[0], 42);
        assert_eq!(
            s.write(a, &[1]).unwrap_err().kind,
            FaultKind::WriteProtected
        );
    }

    #[test]
    fn partial_write_persists_up_to_fault() {
        // Two pages: RW then PROT_NONE (a guard). A 16-byte write starting 8
        // bytes before the guard writes 8 bytes and then traps — exactly the
        // paper's "overflow stopped at the guard page".
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        let guard = a + PAGE_SIZE;
        s.protect(guard, PAGE_SIZE, Perm::None).unwrap();
        let err = s.write(guard - 8, &[0xAA; 16]).unwrap_err();
        assert_eq!(err.kind, FaultKind::WriteProtected);
        assert_eq!(err.completed, 8);
        assert_eq!(err.addr, guard);
        let mut b = [0u8; 8];
        s.read(guard - 8, &mut b).unwrap();
        assert_eq!(b, [0xAA; 8]);
    }

    #[test]
    fn fill_and_u64_helpers() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.fill(a, PAGE_SIZE + 10, 0x5A).unwrap();
        let mut b = [0u8; 1];
        s.read(a + PAGE_SIZE + 9, &mut b).unwrap();
        assert_eq!(b[0], 0x5A);
        s.write_u64(a, 0xDEADBEEF).unwrap();
        assert_eq!(s.read_u64(a).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn fill_reports_total_completed_on_fault() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.protect(a + PAGE_SIZE, PAGE_SIZE, Perm::None).unwrap();
        let err = s.fill(a, 2 * PAGE_SIZE, 1).unwrap_err();
        assert_eq!(err.completed, PAGE_SIZE);
    }

    #[test]
    fn fill_raw_ignores_permissions_and_reports_fault() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.protect(a, PAGE_SIZE, Perm::None).unwrap();
        // Privileged: fills through PROT_NONE, straddling the boundary.
        s.fill_raw(a + PAGE_SIZE - 4, 8, 0x7E).unwrap();
        let mut b = [0u8; 8];
        s.read_raw(a + PAGE_SIZE - 4, &mut b).unwrap();
        assert_eq!(b, [0x7E; 8]);
        assert_eq!(s.rss_bytes(), 2 * PAGE_SIZE, "both pages dirtied");
        // Runs off the end of the mapping: faults with completed count.
        let err = s.fill_raw(a + PAGE_SIZE, 2 * PAGE_SIZE, 1).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.completed, PAGE_SIZE);
        assert_eq!(err.addr, a + 2 * PAGE_SIZE);
    }

    #[test]
    fn copy_raw_overlapping_is_memmove_both_directions() {
        let mut s = AddressSpace::new();
        let a = s.map(4 * PAGE_SIZE, Perm::ReadWrite);
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        // Forward-overlapping (dst above src), straddling a page boundary.
        let src = a + PAGE_SIZE - 80;
        s.write(src, &data).unwrap();
        s.copy_raw(src, src + 50, 200).unwrap();
        let mut back = vec![0u8; 200];
        s.read(src + 50, &mut back).unwrap();
        assert_eq!(back, data, "dst got the ORIGINAL src bytes");
        // Backward-overlapping (dst below src).
        let src2 = a + 3 * PAGE_SIZE - 60;
        s.write(src2, &data).unwrap();
        s.copy_raw(src2, src2 - 50, 200).unwrap();
        s.read(src2 - 50, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn copy_raw_faults_on_unmapped_pages() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        let b = s.map(PAGE_SIZE, Perm::ReadWrite);
        s.fill(a + PAGE_SIZE - 8, 8, 0x5A).unwrap();
        // Source runs off its mapping: src fault reported, nothing copied.
        let err = s.copy_raw(a + PAGE_SIZE - 4, b, 8).unwrap_err();
        assert_eq!(
            err,
            CopyFault::Read(MemFault {
                addr: a + PAGE_SIZE,
                kind: FaultKind::Unmapped,
                completed: 4,
            })
        );
        assert_eq!(s.read_u64(b).unwrap(), 0);
        // Destination runs off: dst fault reported after the prefix landed.
        let err = s
            .copy_raw(a + PAGE_SIZE - 8, b + PAGE_SIZE - 4, 8)
            .unwrap_err();
        assert_eq!(
            err,
            CopyFault::Write(MemFault {
                addr: b + PAGE_SIZE,
                kind: FaultKind::Unmapped,
                completed: 4,
            })
        );
        let mut back = [0u8; 4];
        s.read(b + PAGE_SIZE - 4, &mut back).unwrap();
        assert_eq!(back, [0x5A; 4]);
    }

    #[test]
    fn copy_checks_permissions_source_first() {
        let mut s = AddressSpace::new();
        let a = s.map(3 * PAGE_SIZE, Perm::ReadWrite);
        s.fill(a, PAGE_SIZE, 0x11).unwrap();
        s.protect(a + PAGE_SIZE, PAGE_SIZE, Perm::Read).unwrap();
        s.protect(a + 2 * PAGE_SIZE, PAGE_SIZE, Perm::None).unwrap();
        // A PROT_NONE source byte faults as a read before any byte moves,
        // even though the destination is read-only too.
        let err = s.copy(a + 2 * PAGE_SIZE - 4, a + PAGE_SIZE, 8).unwrap_err();
        assert_eq!(
            err,
            CopyFault::Read(MemFault {
                addr: a + 2 * PAGE_SIZE,
                kind: FaultKind::ReadProtected,
                completed: 4,
            })
        );
        // A read-only destination keeps the prefix before it.
        let err = s.copy(a, a + PAGE_SIZE - 16, 32).unwrap_err();
        assert_eq!(err.fault().kind, FaultKind::WriteProtected);
        assert_eq!(
            (err.fault().addr, err.fault().completed),
            (a + PAGE_SIZE, 16)
        );
        assert!(matches!(err, CopyFault::Write(_)));
        assert_eq!(
            s.read_u64(a + PAGE_SIZE - 8).unwrap(),
            0x1111_1111_1111_1111
        );
        // The privileged copy writes through both.
        s.copy_raw(a, a + PAGE_SIZE, 8).unwrap();
        assert_eq!(s.read_u64(a + PAGE_SIZE).unwrap(), 0x1111_1111_1111_1111);
    }

    #[test]
    fn read_append_appends_the_prefix_before_a_fault() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.fill(a + PAGE_SIZE - 3, 3, 7).unwrap();
        s.protect(a + PAGE_SIZE, PAGE_SIZE, Perm::None).unwrap();
        let mut out = vec![1];
        let err = s
            .read_append(a + PAGE_SIZE - 5, 10, Some(&mut out))
            .unwrap_err();
        assert_eq!((err.kind, err.completed), (FaultKind::ReadProtected, 5));
        assert_eq!(out, [1, 0, 0, 7, 7, 7], "appended after what was there");
        assert_eq!(s.read_append(a + PAGE_SIZE - 5, 10, None), Err(err));
        s.read_append_raw(a + PAGE_SIZE - 1, 2, Some(&mut out))
            .unwrap();
        assert_eq!(out, [1, 0, 0, 7, 7, 7, 7, 0]);
        assert_eq!(s.materialized_pages(), 1, "reads materialize nothing");
    }

    #[test]
    fn rss_counts_dirty_pages_only() {
        let mut s = AddressSpace::new();
        let a = s.map(4 * PAGE_SIZE, Perm::ReadWrite);
        assert_eq!(s.rss_bytes(), 0, "mapping alone is not resident");
        s.write(a, &[1]).unwrap();
        assert_eq!(s.rss_bytes(), PAGE_SIZE);
        s.write(a + 1, &[2]).unwrap();
        assert_eq!(s.rss_bytes(), PAGE_SIZE, "same page stays one page");
        s.write(a + 3 * PAGE_SIZE, &[3]).unwrap();
        assert_eq!(s.rss_bytes(), 2 * PAGE_SIZE);
        assert_eq!(s.stats().peak_rss_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn only_written_pages_are_materialized() {
        let mut s = AddressSpace::new();
        let a = s.map(1 << 30, Perm::ReadWrite);
        assert_eq!(s.mapped_bytes(), 1 << 30);
        assert_eq!((s.materialized_pages(), s.rss_bytes()), (0, 0));
        let mut b = [1u8; 8];
        s.read(a + (1 << 29), &mut b).unwrap();
        assert_eq!(b, [0; 8], "unwritten pages read as zero");
        s.protect(a + PAGE_SIZE, 3 * PAGE_SIZE, Perm::None).unwrap();
        assert_eq!(s.materialized_pages(), 0, "protect materializes nothing");
        s.write(a + 5 * PAGE_SIZE + 7, &[9]).unwrap();
        assert_eq!(s.materialized_pages(), 1);
        assert_eq!(s.rss_bytes(), PAGE_SIZE);
        s.unmap(a, 1 << 30);
        assert_eq!((s.materialized_pages(), s.rss_bytes()), (0, 0));
        assert_eq!(s.mapped_bytes(), 0);
    }

    #[test]
    fn unmap_releases_rss_and_mapping() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.write(a, &[1]).unwrap();
        s.unmap(a, 2 * PAGE_SIZE);
        assert_eq!(s.rss_bytes(), 0);
        assert_eq!(s.mapped_bytes(), 0);
        assert!(s.read_u64(a).is_err());
    }

    #[test]
    fn protect_unmapped_range_errors() {
        let mut s = AddressSpace::new();
        let err = s.protect(0x1000, PAGE_SIZE, Perm::None).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
    }

    #[test]
    fn perm_at_reports_current_permission() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        assert_eq!(s.perm_at(a), Some(Perm::ReadWrite));
        s.protect(a, PAGE_SIZE, Perm::None).unwrap();
        assert_eq!(s.perm_at(a), Some(Perm::None));
        assert_eq!(s.perm_at(0x42), None);
    }

    #[test]
    fn fault_display_mentions_address() {
        let f = MemFault {
            addr: 0x1234,
            kind: FaultKind::Unmapped,
            completed: 3,
        };
        let s = f.to_string();
        assert!(s.contains("0x1234") && s.contains("3 bytes"), "{s}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn write_read_round_trip(
                off in 0u64..8192,
                data in proptest::collection::vec(any::<u8>(), 1..512),
            ) {
                let mut s = AddressSpace::new();
                let a = s.map(4 * PAGE_SIZE, Perm::ReadWrite);
                s.write(a + off, &data).unwrap();
                let mut back = vec![0u8; data.len()];
                s.read(a + off, &mut back).unwrap();
                prop_assert_eq!(back, data);
            }

            #[test]
            fn rss_never_exceeds_mapped(
                writes in proptest::collection::vec((0u64..16384, any::<u8>()), 1..64),
            ) {
                let mut s = AddressSpace::new();
                let a = s.map(8 * PAGE_SIZE, Perm::ReadWrite);
                for (off, byte) in writes {
                    let off = off % (8 * PAGE_SIZE);
                    s.write(a + off, &[byte]).unwrap();
                    prop_assert!(s.rss_bytes() <= s.mapped_bytes());
                }
            }
        }
    }
}
