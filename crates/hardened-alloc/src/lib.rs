//! HeapTherapy+ defenses on **real memory**: a [`core::alloc::GlobalAlloc`]
//! implementation for Rust programs.
//!
//! The rest of the workspace demonstrates the paper on a simulated address
//! space; this crate closes the loop on the actual process heap:
//!
//! * [`ccid`] — a thread-local calling-context encoder (PCC's `V = 3t + c`)
//!   driven by RAII [`ccid::CallScope`] guards placed at instrumented call
//!   sites,
//! * [`HardenedAlloc`] — wraps the system allocator; every allocation probes
//!   the installed patch set with the current `(FUN, CCID)`:
//!   * overflow patches allocate via `mmap` with a trailing
//!     `PROT_NONE` **guard page** (`libc::mprotect`); freed guarded
//!     regions are recycled through a bounded per-page-count cache, so a
//!     guarded allocation usually takes no system call,
//!   * use-after-free patches defer frees through a byte-quota FIFO
//!     quarantine,
//!   * uninitialized-read patches zero the buffer.
//!
//!   Every buffer carries a small header (the paper's Fig. 6 metadata word
//!   plus a check word binding it to the buffer address), so `dealloc`
//!   dispatches on the buffer itself: no lookup, no lock, no capacity
//!   limit, and a double free is refused instead of reaching the system
//!   allocator.
//!
//! Everything on the allocation path is allocation-free (a fixed patch
//! table, per-buffer headers, a spin-locked intrusive FIFO, a fixed guard
//! cache, atomics) so the
//! type is usable as `#[global_allocator]` — see
//! `examples/hardened_allocator.rs` at the workspace root.
//!
//! `libc` is the one dependency outside the project's standard allowance:
//! `std` exposes no page-permission API, and guard pages are the point.
//!
//! # Example
//!
//! ```
//! use ht_hardened_alloc::{ccid, HardenedAlloc, PatchEntry};
//! use ht_patch::{AllocFn, VulnFlags};
//! use std::alloc::{GlobalAlloc, Layout};
//!
//! static ALLOC: HardenedAlloc = HardenedAlloc::new();
//!
//! // "Instrument" a call site, then install a patch for the context.
//! let _site = ccid::CallScope::enter(0x1234);
//! ALLOC.install(&[PatchEntry::new(AllocFn::Malloc, ccid::current(), VulnFlags::UNINIT_READ)]);
//!
//! let layout = Layout::from_size_align(256, 16).unwrap();
//! let p = unsafe { ALLOC.alloc(layout) };
//! assert!(!p.is_null());
//! // Zero-filled because the context is patched UR.
//! assert!(unsafe { std::slice::from_raw_parts(p, 256) }.iter().all(|&b| b == 0));
//! unsafe { ALLOC.dealloc(p, layout) };
//! ```

pub mod ccid;
pub mod galloc;
pub mod throughput;

pub use galloc::{HardenedAlloc, HardenedStats, PatchEntry, RegistryStats};
