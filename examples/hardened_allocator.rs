//! The defenses on *real* memory: `HardenedAlloc` as this process's
//! `#[global_allocator]`.
//!
//! Every `Box`, `Vec` and `String` in this program flows through the
//! HeapTherapy+ interposition; the patched allocation site gets a real
//! `mmap`'d guard page (check `/proc/self/maps` output below), a quarantined
//! free, and zero-filling.
//!
//! ```sh
//! cargo run --example hardened_allocator
//! ```

use heaptherapy_plus::hardened_alloc::{ccid, HardenedAlloc, PatchEntry};
use heaptherapy_plus::patch::{AllocFn, VulnFlags};

#[global_allocator]
static ALLOC: HardenedAlloc = HardenedAlloc::new();

/// The site constants the instrumentation pass would assign.
const SITE_HANDLER: u64 = 0x9A31;
const SITE_PARSE: u64 = 0x44F7;

fn parse_request(payload: usize) -> Vec<u8> {
    let _site = ccid::CallScope::enter(SITE_PARSE);
    // The "vulnerable" allocation: in the patched context this buffer is
    // guarded, zeroed, and quarantine-freed.
    vec![0x41; payload]
}

fn handle_request(payload: usize) -> Vec<u8> {
    let _site = ccid::CallScope::enter(SITE_HANDLER);
    parse_request(payload)
}

fn vulnerable_ccid() -> u64 {
    let _a = ccid::CallScope::enter(SITE_HANDLER);
    let _b = ccid::CallScope::enter(SITE_PARSE);
    ccid::current()
}

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

fn main() {
    // Install the patch for the vulnerable calling context, as the online
    // defense generator does at startup from the configuration file.
    ALLOC.install(&[PatchEntry::new(
        AllocFn::Malloc,
        vulnerable_ccid(),
        VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE | VulnFlags::UNINIT_READ,
    )]);

    // Ordinary traffic: untouched.
    let plain = vec![1u8; 4096];
    println!("unpatched Vec at {:p}: no guard page", plain.as_ptr());

    // The patched context: the Vec's buffer is guarded on real pages.
    let hot = handle_request(4000);
    // SAFETY: `hot` is a live allocation of `ALLOC`.
    let guard = unsafe { ALLOC.guard_page_of(hot.as_ptr() as *mut u8) }
        .expect("patched allocation is guarded");
    println!(
        "patched Vec at {:p}: guard page at {:#x} with permissions {:?}",
        hot.as_ptr(),
        guard,
        perms_at(guard)
    );
    assert_eq!(perms_at(guard).as_deref(), Some("---p"));

    let ptr = hot.as_ptr() as *mut u8;
    drop(hot); // free → quarantine (UAF bit)
    println!(
        "after drop: quarantined = {}, quarantine usage = {:?}",
        ALLOC.is_quarantined(ptr),
        ALLOC.quarantine_usage()
    );

    let stats = ALLOC.stats();
    println!(
        "\nallocator stats: {} allocations interposed, {} table hits, \
         {} guard pages, {} zero-fills, {} quarantined, {} misuse",
        stats.interposed_allocs,
        stats.table_hits,
        stats.guard_pages,
        stats.zero_fills,
        stats.quarantined,
        stats.misuse
    );
    assert_eq!(stats.misuse, 0, "every free met a valid header");
    println!("\nOK: HeapTherapy+ defenses active on the real process heap.");
}
