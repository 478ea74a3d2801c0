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

    /// Copies `[addr, addr+buf.len())` into `buf` page by page; with
    /// `checked`, a mapped but unreadable page faults.
    fn read_pages(&self, addr: Addr, buf: &mut [u8], checked: bool) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let fault = |kind| MemFault {
                addr: a,
                kind,
                completed: done as u64,
            };
            let (perm, bytes) = self.page(a / PAGE_SIZE).ok_or(fault(FaultKind::Unmapped))?;
            if checked && !perm.allows_read() {
                return Err(fault(FaultKind::ReadProtected));
            }
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&bytes[off..off + n]);
            done += n;
        }
        Ok(())
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
        self.read_pages(addr, buf, true)
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
        self.read_pages(addr, buf, false)
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

    /// First unmapped byte in `[addr, addr+len)`, as the fault `read_raw`
    /// (src) or `write_raw` (dst) would report for that range.
    fn find_unmapped(&self, addr: Addr, len: u64) -> Option<MemFault> {
        if len == 0 {
            return None;
        }
        let pno = self.first_unmapped(addr / PAGE_SIZE, (addr + len - 1) / PAGE_SIZE + 1)?;
        let a = addr.max(pno * PAGE_SIZE);
        Some(MemFault {
            addr: a,
            kind: FaultKind::Unmapped,
            completed: a - addr,
        })
    }

    /// Copies `len` bytes between (possibly overlapping) mapped ranges with
    /// `memmove` semantics, ignoring permissions — used by `realloc`
    /// internally. Chunked page-to-page (direction-aware for overlap), so it
    /// never materializes a `len`-byte buffer.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages (src reported before dst, like the
    /// read-then-write it replaces); both ranges are validated up front, so
    /// a faulting copy transfers nothing.
    pub fn copy_raw(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), MemFault> {
        if let Some(f) = self
            .find_unmapped(src, len)
            .or_else(|| self.find_unmapped(dst, len))
        {
            return Err(f);
        }
        let backward = dst > src && dst - src < len;
        let mut tmp = [0u8; PAGE_SIZE as usize];
        let mut copy_chunk = |this: &mut Self, s: Addr, d: Addr, n: usize| {
            let chunk = &mut tmp[..n];
            this.read_pages(s, chunk, false).expect("validated");
            let doff = (d % PAGE_SIZE) as usize;
            this.page_mut(d, 0, false).expect("validated")[doff..doff + n].copy_from_slice(chunk);
        };
        if backward {
            let mut i = len;
            while i > 0 {
                let s_room = (src + i - 1) % PAGE_SIZE + 1;
                let d_room = (dst + i - 1) % PAGE_SIZE + 1;
                let n = s_room.min(d_room).min(i);
                i -= n;
                copy_chunk(self, src + i, dst + i, n as usize);
            }
        } else {
            let mut i = 0;
            while i < len {
                let s_room = PAGE_SIZE - (src + i) % PAGE_SIZE;
                let d_room = PAGE_SIZE - (dst + i) % PAGE_SIZE;
                let n = s_room.min(d_room).min(len - i);
                copy_chunk(self, src + i, dst + i, n as usize);
                i += n;
            }
        }
        Ok(())
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
        // Source runs off its mapping: src fault reported, nothing copied.
        let err = s.copy_raw(a + PAGE_SIZE - 4, b, 8).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.addr, a + PAGE_SIZE);
        assert_eq!(err.completed, 4);
        // Destination runs off: dst fault reported.
        let err = s.copy_raw(a, b + PAGE_SIZE - 4, 8).unwrap_err();
        assert_eq!(err.addr, b + PAGE_SIZE);
        assert_eq!(err.completed, 4);
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
