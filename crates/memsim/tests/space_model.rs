//! Differential test: `AddressSpace` against a naive eager model.
//!
//! The model maps every page up front as a zeroed `Vec<u8>` with its own
//! permission and dirty bit, and moves one byte at a time, so each fault's
//! `addr`/`completed` follows directly from the definitions. Random op
//! sequences run on both; after every op the results (appended read
//! prefixes and faults included), the bytes of the pages it touched,
//! `perm_at` over the whole touched area, every `SpaceStats` field and the
//! materialized page count must agree.

use ht_memsim::{Addr, AddressSpace, CopyFault, FaultKind, MemFault, Perm, SpaceStats, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::HashMap;

struct ModelPage {
    perm: Perm,
    bytes: Vec<u8>,
    dirty: bool,
}

/// Eager reference: one zeroed page per mapped page, byte-at-a-time access.
struct Model {
    pages: HashMap<u64, ModelPage>,
    next_map: Addr,
    stats: SpaceStats,
}

impl Model {
    fn new() -> Self {
        Self {
            pages: HashMap::new(),
            next_map: AddressSpace::MAP_BASE,
            stats: SpaceStats::default(),
        }
    }

    fn pages_of(addr: Addr, len: u64) -> std::ops::Range<u64> {
        let len = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        addr / PAGE_SIZE..(addr + len) / PAGE_SIZE
    }

    fn map(&mut self, len: u64, perm: Perm) -> Addr {
        let len = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let base = self.next_map;
        self.next_map += len + PAGE_SIZE;
        for pno in Self::pages_of(base, len) {
            let bytes = vec![0; PAGE_SIZE as usize];
            let dirty = false;
            self.pages.insert(pno, ModelPage { perm, bytes, dirty });
        }
        self.stats.mapped_bytes += len;
        self.stats.maps += 1;
        base
    }

    fn unmap(&mut self, addr: Addr, len: u64) {
        for pno in Self::pages_of(addr, len) {
            if let Some(p) = self.pages.remove(&pno) {
                self.stats.mapped_bytes -= PAGE_SIZE;
                if p.dirty {
                    self.stats.rss_bytes -= PAGE_SIZE;
                }
            }
        }
    }

    fn protect(&mut self, addr: Addr, len: u64, perm: Perm) -> Result<(), MemFault> {
        let len = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let pages = addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE;
        if let Some(pno) = pages.clone().find(|p| !self.pages.contains_key(p)) {
            return Err(fault(pno * PAGE_SIZE, FaultKind::Unmapped, 0));
        }
        for pno in pages {
            self.pages.get_mut(&pno).unwrap().perm = perm;
        }
        self.stats.protects += 1;
        Ok(())
    }

    fn perm_at(&self, addr: Addr) -> Option<Perm> {
        self.pages.get(&(addr / PAGE_SIZE)).map(|p| p.perm)
    }

    fn read(&self, addr: Addr, buf: &mut [u8], checked: bool) -> Result<(), MemFault> {
        for (i, out) in buf.iter_mut().enumerate() {
            let a = addr + i as u64;
            let p = self.pages.get(&(a / PAGE_SIZE));
            match p {
                None => return Err(fault(a, FaultKind::Unmapped, i as u64)),
                Some(p) if checked && p.perm == Perm::None => {
                    return Err(fault(a, FaultKind::ReadProtected, i as u64))
                }
                Some(p) => *out = p.bytes[(a % PAGE_SIZE) as usize],
            }
        }
        Ok(())
    }

    fn write(&mut self, addr: Addr, data: &[u8], checked: bool) -> Result<(), MemFault> {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            let p = match self.pages.get_mut(&(a / PAGE_SIZE)) {
                None => return Err(fault(a, FaultKind::Unmapped, i as u64)),
                Some(p) if checked && p.perm != Perm::ReadWrite => {
                    return Err(fault(a, FaultKind::WriteProtected, i as u64))
                }
                Some(p) => p,
            };
            p.bytes[(a % PAGE_SIZE) as usize] = b;
            if !p.dirty {
                p.dirty = true;
                self.stats.rss_bytes += PAGE_SIZE;
                self.stats.peak_rss_bytes = self.stats.peak_rss_bytes.max(self.stats.rss_bytes);
            }
        }
        Ok(())
    }

    /// Byte-at-a-time read appended to `out`, if any.
    fn read_append(
        &self,
        addr: Addr,
        len: u64,
        out: Option<&mut Vec<u8>>,
        checked: bool,
    ) -> Result<(), MemFault> {
        let mut buf = vec![0; len as usize];
        let r = self.read(addr, &mut buf, checked);
        let done = r.err().map_or(len, |f| f.completed);
        if let Some(out) = out {
            out.extend_from_slice(&buf[..done as usize]);
        }
        r
    }

    /// Whole-buffer `memmove`: read the whole source, then write it until
    /// the first byte of the destination that cannot take it.
    fn copy(&mut self, src: Addr, dst: Addr, len: u64, checked: bool) -> Result<(), CopyFault> {
        let mut tmp = vec![0; len as usize];
        self.read(src, &mut tmp, checked).map_err(CopyFault::Read)?;
        self.write(dst, &tmp, checked).map_err(CopyFault::Write)
    }

    fn materialized_pages(&self) -> usize {
        self.pages.values().filter(|p| p.dirty).count()
    }
}

fn fault(addr: Addr, kind: FaultKind, completed: u64) -> MemFault {
    MemFault {
        addr,
        kind,
        completed,
    }
}

const PERMS: [Perm; 3] = [Perm::None, Perm::Read, Perm::ReadWrite];

/// An address near one of the mapped bases: from two pages below to ten
/// above, so ranges start in regions, in the gaps and past the ends.
fn pick_addr(bases: &[Addr], sel: u64) -> Addr {
    let base = match bases {
        [] => AddressSpace::MAP_BASE + 2 * PAGE_SIZE,
        _ => bases[(sel % bases.len() as u64) as usize],
    };
    base - 2 * PAGE_SIZE + (sel >> 8) % (12 * PAGE_SIZE)
}

/// Mostly short lengths, sometimes a few pages, sometimes zero.
fn pick_len(sel: u64) -> u64 {
    let r = sel >> 4;
    match sel % 8 {
        0 => 0,
        1..=4 => r % 24,
        5 | 6 => r % (PAGE_SIZE + 64),
        _ => r % (3 * PAGE_SIZE),
    }
}

/// Runs one op on both and compares what each returned.
fn step(
    real: &mut AddressSpace,
    model: &mut Model,
    bases: &mut Vec<Addr>,
    (kind, a, b, byte): (u8, u64, u64, u8),
) -> Result<(), String> {
    let addr = pick_addr(bases, a);
    let len = pick_len(b);
    let same = |what: &str, x: &dyn std::fmt::Debug, y: &dyn std::fmt::Debug| {
        let (x, y) = (format!("{x:?}"), format!("{y:?}"));
        if x == y {
            Ok(())
        } else {
            Err(format!("{what}: real {x} vs model {y}"))
        }
    };
    match kind {
        0 | 1 => {
            // Mostly small maps; a few longer than the longest unmap, so
            // some unmaps cut a mapping in the middle.
            let len = if a % 4 == 0 {
                b % (40 * PAGE_SIZE)
            } else {
                b % (5 * PAGE_SIZE)
            };
            let perm = PERMS[(a % 7).min(2) as usize];
            let (x, y) = (real.map(len, perm), model.map(len, perm));
            bases.push(x);
            same("map", &x, &y)?;
        }
        2 => {
            // Unmap: a whole earlier mapping (maybe again), or any range.
            let (at, len) = match bases.get((a % 8) as usize) {
                Some(&base) if b % 2 == 0 => (base, b >> 1),
                _ => (addr, len),
            };
            let len = len % (16 * PAGE_SIZE);
            real.unmap(at, len);
            model.unmap(at, len);
        }
        3 => {
            let perm = PERMS[(byte % 3) as usize];
            let len = len % (2 * PAGE_SIZE);
            same(
                "protect",
                &real.protect(addr, len, perm),
                &model.protect(addr, len, perm),
            )?;
        }
        4 | 5 => {
            let checked = kind == 4;
            let mut x = vec![0xEE; len as usize];
            let mut y = x.clone();
            let (rx, ry) = if checked {
                (real.read(addr, &mut x), model.read(addr, &mut y, true))
            } else {
                (real.read_raw(addr, &mut x), model.read(addr, &mut y, false))
            };
            same("read", &rx, &ry)?;
            if x != y {
                return Err(format!("read bytes differ at {addr:#x}+{len}"));
            }
        }
        11 | 12 => {
            // Appending read, onto what is already there or into nothing.
            let checked = kind == 11;
            let (mut x, mut y) = (vec![byte; 3], vec![byte; 3]);
            let (ox, oy) = match byte % 2 {
                0 => (Some(&mut x), Some(&mut y)),
                _ => (None, None),
            };
            let rx = if checked {
                real.read_append(addr, len, ox)
            } else {
                real.read_append_raw(addr, len, ox)
            };
            same(
                "read_append",
                &rx,
                &model.read_append(addr, len, oy, checked),
            )?;
            same("appended", &x, &y)?;
        }
        6 | 7 => {
            let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
            let (rx, ry) = if kind == 6 {
                (real.write(addr, &data), model.write(addr, &data, true))
            } else {
                (real.write_raw(addr, &data), model.write(addr, &data, false))
            };
            same("write", &rx, &ry)?;
        }
        8 | 9 => {
            let data = vec![byte; len as usize];
            let (rx, ry) = if kind == 8 {
                (real.fill(addr, len, byte), model.write(addr, &data, true))
            } else {
                (
                    real.fill_raw(addr, len, byte),
                    model.write(addr, &data, false),
                )
            };
            same("fill", &rx, &ry)?;
        }
        10 => {
            let mut x = [0u8; 8];
            let ry = model
                .read(addr, &mut x, true)
                .map(|()| u64::from_le_bytes(x));
            same("read_u64", &real.read_u64(addr), &ry)?;
            let v = a.rotate_left(7);
            same(
                "write_u64_raw",
                &real.write_u64_raw(addr, v),
                &model.write(addr, &v.to_le_bytes(), false),
            )?;
        }
        _ => {
            // copy / copy_raw: overlapping in either direction, or between
            // mappings; either side may run into a gap or a protected page.
            // An overlapping copy first stamps a distinct pattern over its
            // source (where mapped), so a wrong copy direction shows in the
            // bytes.
            let checked = kind == 13;
            let delta = (b >> 20) % (PAGE_SIZE + 300);
            let dst = match byte % 3 {
                0 => addr + delta,
                1 => addr.saturating_sub(delta),
                _ => pick_addr(bases, b),
            };
            if byte % 3 < 2 {
                let stamp: Vec<u8> = (0..len).map(|i| (i % 251) as u8 ^ byte).collect();
                same(
                    "stamp",
                    &real.write_raw(addr, &stamp),
                    &model.write(addr, &stamp, false),
                )?;
            }
            let rx = if checked {
                real.copy(addr, dst, len)
            } else {
                real.copy_raw(addr, dst, len)
            };
            same("copy", &rx, &model.copy(addr, dst, len, checked))?;
            same_range(real, model, dst, len)?;
        }
    }
    same_range(real, model, addr, len)?;
    same(
        "materialized_pages",
        &real.materialized_pages(),
        &model.materialized_pages(),
    )?;
    same("stats", &real.stats(), &model.stats)?;
    let area = AddressSpace::MAP_BASE / PAGE_SIZE - 3..model.next_map / PAGE_SIZE + 3;
    for pno in area {
        let a = pno * PAGE_SIZE;
        same("perm_at", &real.perm_at(a), &model.perm_at(a))?;
    }
    Ok(())
}

/// Every byte of pages `[first, end)`, read raw.
fn same_pages(
    real: &AddressSpace,
    model: &Model,
    pages: std::ops::Range<u64>,
) -> Result<(), String> {
    for pno in pages {
        let (mut x, mut y) = ([1u8; PAGE_SIZE as usize], [1u8; PAGE_SIZE as usize]);
        let a = pno * PAGE_SIZE;
        let (rx, ry) = (real.read_raw(a, &mut x), model.read(a, &mut y, false));
        if rx != ry || x != y {
            return Err(format!("page {a:#x} differs: {rx:?} vs {ry:?}"));
        }
    }
    Ok(())
}

/// The pages an op on `[addr, addr+len)` could have changed.
fn same_range(real: &AddressSpace, model: &Model, addr: Addr, len: u64) -> Result<(), String> {
    same_pages(real, model, addr / PAGE_SIZE..(addr + len) / PAGE_SIZE + 1)
}

/// Every byte of every page either side could hold.
fn same_contents(real: &AddressSpace, model: &Model) -> Result<(), String> {
    let area = AddressSpace::MAP_BASE / PAGE_SIZE..model.next_map / PAGE_SIZE;
    same_pages(real, model, area)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn address_space_matches_eager_model(
        ops in proptest::collection::vec((0u8..15, any::<u64>(), any::<u64>(), any::<u8>()), 1..48),
    ) {
        let mut real = AddressSpace::new();
        let mut model = Model::new();
        let mut bases = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let r = step(&mut real, &mut model, &mut bases, op);
            prop_assert!(r.is_ok(), "op {} {:?}: {}", i, op, r.unwrap_err());
        }
        let r = same_contents(&real, &model);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        prop_assert_eq!(real.materialized_pages() as u64 * PAGE_SIZE, real.rss_bytes());
    }
}

#[test]
fn unmap_splits_regions_and_double_unmap_is_a_no_op() {
    let mut real = AddressSpace::new();
    let mut model = Model::new();
    // One 8-page region: punch out pages 2..4, write around the hole,
    // unmap across the hole and into the gap after the region, twice.
    let base = real.map(8 * PAGE_SIZE, Perm::ReadWrite);
    model.map(8 * PAGE_SIZE, Perm::ReadWrite);
    for (at, len) in [(2, 2), (0, 1), (6, 4), (1, 6), (1, 6)] {
        real.write(base + at * PAGE_SIZE + 8, &[7; 16]).ok();
        model.write(base + at * PAGE_SIZE + 8, &[7; 16], true).ok();
        real.unmap(base + at * PAGE_SIZE, len * PAGE_SIZE);
        model.unmap(base + at * PAGE_SIZE, len * PAGE_SIZE);
        assert_eq!(real.stats(), model.stats);
        for pno in 0..12 {
            let a = base + pno * PAGE_SIZE;
            assert_eq!(real.perm_at(a), model.perm_at(a), "page {pno}");
        }
    }
    assert_eq!(real.mapped_bytes(), 0);
    assert_eq!(real.rss_bytes(), 0);
    same_contents(&real, &model).unwrap();
}

#[test]
fn overlapping_copies_that_fault_partway_keep_the_memmove_prefix() {
    let mut real = AddressSpace::new();
    let mut model = Model::new();
    let base = real.map(5 * PAGE_SIZE, Perm::ReadWrite);
    model.map(5 * PAGE_SIZE, Perm::ReadWrite);
    let stamp: Vec<u8> = (0..5 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    real.write(base, &stamp).unwrap();
    model.write(base, &stamp, true).unwrap();
    for (at, perm) in [(2, Perm::Read), (4, Perm::None)] {
        real.protect(base + at * PAGE_SIZE, PAGE_SIZE, perm)
            .unwrap();
        model
            .protect(base + at * PAGE_SIZE, PAGE_SIZE, perm)
            .unwrap();
    }
    let p = PAGE_SIZE;
    // (src, dst, len): dst above src runs into the read-only page after a
    // page and 50 bytes; dst below src runs into it after 200 bytes; a
    // source that reaches the PROT_NONE page moves nothing.
    for (src, dst, len, completed) in [
        (p - 100, p - 50, p + 200, Some(p + 50)),
        (2 * p - 150, 2 * p - 200, 300, Some(200)),
        (4 * p - 8, 3 * p, 16, Some(8)),
        (3 * p + 10, 3 * p, 100, None),
    ] {
        for checked in [true, false] {
            let r = if checked {
                real.copy(base + src, base + dst, len)
            } else {
                real.copy_raw(base + src, base + dst, len)
            };
            assert_eq!(
                r,
                model.copy(base + src, base + dst, len, checked),
                "{src:#x}->{dst:#x}+{len} checked={checked}"
            );
            if checked {
                assert_eq!(r.err().map(|f| f.fault().completed), completed);
            }
            same_contents(&real, &model).unwrap();
            assert_eq!(real.stats(), model.stats);
        }
    }
}
