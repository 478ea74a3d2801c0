//! The `HeapBackend` access contract, held by all three backends when run
//! through the `Interpreter`:
//!
//! * a `Sink::Leak` read that runs into a guard page (or, without a
//!   defense, the unmapped end of its mapping) leaks exactly the bytes
//!   before it and stops with a read segfault; other sinks leak nothing;
//! * a copy whose destination runs into the guard keeps the prefix it
//!   wrote and stops with a write segfault;
//! * a copy whose source runs into the guard writes nothing and stops
//!   with a read segfault.
//!
//! The guarded buffer is always the `malloc` one (256 KiB − 32 bytes, so
//! without a defense it ends its size class's mapping); the other side of
//! a copy is a larger `calloc` buffer.

use heaptherapy_plus::callgraph::Strategy;
use heaptherapy_plus::defense::{DefendedBackend, DefenseConfig};
use heaptherapy_plus::encoding::{InstrumentationPlan, Scheme};
use heaptherapy_plus::memsim::{Addr, AllocStats, SpaceStats, PAGE_SIZE};
use heaptherapy_plus::patch::{AllocFn, Patch, PatchTable, VulnFlags};
use heaptherapy_plus::shadow::{ShadowBackend, WarningKind};
use heaptherapy_plus::simprog::{
    AccessOutcome, AllocRequest, Expr, HeapBackend, Interpreter, PlainBackend, Program,
    ProgramBuilder, RunOutcome, RunReport, Sink, StopCause,
};

/// Size of the guarded buffer.
const GUARDED: u64 = 256 * 1024 - 32;
/// Size of the other side of a copy.
const OTHER: u64 = 512 * 1024;
/// How far past the guarded buffer an access tries to go.
const PAST: u64 = GUARDED + 2 * PAGE_SIZE;

/// A backend that remembers the address of every allocation.
struct Recorder<B> {
    inner: B,
    allocs: Vec<Addr>,
}

impl<B: HeapBackend> HeapBackend for Recorder<B> {
    fn alloc(&mut self, req: &AllocRequest) -> Result<Addr, StopCause> {
        let p = self.inner.alloc(req)?;
        self.allocs.push(p);
        Ok(p)
    }
    fn free(&mut self, ptr: Addr) -> AccessOutcome {
        self.inner.free(ptr)
    }
    fn write(&mut self, addr: Addr, len: u64, byte: u8) -> AccessOutcome {
        self.inner.write(addr, len, byte)
    }
    fn read(
        &mut self,
        addr: Addr,
        len: u64,
        sink: Sink,
        out: Option<&mut Vec<u8>>,
    ) -> AccessOutcome {
        self.inner.read(addr, len, sink, out)
    }
    fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> AccessOutcome {
        self.inner.copy(src, dst, len)
    }
    fn mem_stats(&self) -> Option<(SpaceStats, AllocStats)> {
        self.inner.mem_stats()
    }
}

/// `malloc` a guarded buffer filled with `b'A'`, then read `Input(0)`
/// bytes of it into `sink`.
fn overread(sink: Sink) -> Program {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let buf = pb.slot();
    pb.define(main, |b| {
        b.alloc(buf, AllocFn::Malloc, GUARDED);
        b.write(buf, 0u64, GUARDED, b'A');
        b.read(buf, 0u64, Expr::Input(0), sink);
    });
    pb.build()
}

/// Two buffers filled with `b'S'` (source) and `0x11` (destination), one
/// of them the guarded `malloc`; copy `Input(0)` bytes between them.
fn overcopy(guarded_dst: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let (src, dst) = (pb.slot(), pb.slot());
    pb.define(main, |b| {
        let (src_fun, src_size, dst_fun, dst_size) = if guarded_dst {
            (AllocFn::Calloc, OTHER, AllocFn::Malloc, GUARDED)
        } else {
            (AllocFn::Malloc, GUARDED, AllocFn::Calloc, OTHER)
        };
        b.alloc(src, src_fun, src_size);
        b.write(src, 0u64, src_size, b'S');
        b.alloc(dst, dst_fun, dst_size);
        b.write(dst, 0u64, dst_size, 0x11);
        b.copy(src, 0u64, dst, 0u64, Expr::Input(0));
    });
    pb.build()
}

fn plan(prog: &Program) -> InstrumentationPlan {
    InstrumentationPlan::build(prog.graph(), Strategy::Tcs, Scheme::Pcc)
}

/// The three backends; the defended one guards every `malloc` of `prog`.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Plain,
    Defended,
    Shadow,
}

const KINDS: [Kind; 3] = [Kind::Plain, Kind::Defended, Kind::Shadow];

/// Runs `prog` on `input` over a fresh backend of `kind`; returns the
/// report, the allocation addresses and the backend.
fn run(kind: Kind, prog: &Program, input: &[u64]) -> (RunReport, Vec<Addr>, Box<dyn Inspect>) {
    let plan = plan(prog);
    match kind {
        Kind::Plain => go(PlainBackend::new(), prog, &plan, input),
        Kind::Defended => {
            let baseline = Interpreter::new(prog, &plan, PlainBackend::new()).run(input);
            let patches = baseline
                .ccid_freq
                .keys()
                .filter(|(fun, _)| *fun == AllocFn::Malloc)
                .map(|&(fun, ccid)| Patch::new(fun, ccid, VulnFlags::OVERFLOW));
            let cfg = DefenseConfig::with_table(PatchTable::from_patches(patches));
            go(DefendedBackend::new(cfg), prog, &plan, input)
        }
        Kind::Shadow => go(ShadowBackend::new(), prog, &plan, input),
    }
}

fn go<B: HeapBackend + Inspect + 'static>(
    backend: B,
    prog: &Program,
    plan: &InstrumentationPlan,
    input: &[u64],
) -> (RunReport, Vec<Addr>, Box<dyn Inspect>) {
    let backend = Recorder {
        inner: backend,
        allocs: Vec::new(),
    };
    let mut interp = Interpreter::new(prog, plan, backend);
    let report = interp.run(input);
    let Recorder { inner, allocs } = interp.into_backend();
    (report, allocs, Box::new(inner))
}

/// What a test reads back from a backend after its run.
trait Inspect {
    /// `len` bytes at `addr`, through the backend's own read.
    fn bytes(&mut self, addr: Addr, len: u64) -> Vec<u8>;
    /// `DefenseStats::blocked_accesses`, on the defended backend.
    fn blocked(&self) -> Option<u64> {
        None
    }
    /// Wild warnings as `(addr, write)`, on the analyzer.
    fn wild(&self) -> Vec<(Addr, bool)> {
        Vec::new()
    }
}

fn read_back(b: &mut impl HeapBackend, addr: Addr, len: u64) -> Vec<u8> {
    let mut out = Vec::new();
    assert!(b.read(addr, len, Sink::Leak, Some(&mut out)).is_ok());
    out
}

impl Inspect for PlainBackend {
    fn bytes(&mut self, addr: Addr, len: u64) -> Vec<u8> {
        read_back(self, addr, len)
    }
}

impl Inspect for DefendedBackend {
    fn bytes(&mut self, addr: Addr, len: u64) -> Vec<u8> {
        read_back(self, addr, len)
    }
    fn blocked(&self) -> Option<u64> {
        Some(self.stats().blocked_accesses)
    }
}

impl Inspect for ShadowBackend {
    fn bytes(&mut self, addr: Addr, len: u64) -> Vec<u8> {
        read_back(self, addr, len)
    }
    fn wild(&self) -> Vec<(Addr, bool)> {
        self.warnings()
            .iter()
            .filter(|w| w.kind == WarningKind::Wild)
            .map(|w| (w.addr, w.write))
            .collect()
    }
}

/// The segfault a run stopped with, checked to be a fault on the first
/// page past the guarded buffer at `buf`.
fn guard_fault(kind: Kind, report: &RunReport, buf: Addr, write: bool) -> Addr {
    let RunOutcome::Stopped(StopCause::Segfault { addr, write: w }) = report.outcome else {
        panic!("{kind:?}: expected a segfault, got {:?}", report.outcome);
    };
    assert_eq!(w, write, "{kind:?}: fault side");
    assert_eq!(addr % PAGE_SIZE, 0, "{kind:?}: faults at a page boundary");
    let end = buf + GUARDED;
    assert!(
        addr >= end && addr - end < PAGE_SIZE,
        "{kind:?}: {addr:#x} vs end {end:#x}"
    );
    addr
}

#[test]
fn leak_read_into_a_guard_leaks_exactly_the_prefix() {
    let prog = overread(Sink::Leak);
    for kind in KINDS {
        let (report, allocs, b) = run(kind, &prog, &[PAST]);
        let buf = allocs[0];
        let fault = guard_fault(kind, &report, buf, false);
        let n = (fault - buf) as usize;
        assert_eq!(
            report.leaked.len(),
            n,
            "{kind:?}: every byte before the fault"
        );
        assert!(
            report.leaked[..GUARDED as usize].iter().all(|&x| x == b'A'),
            "{kind:?}"
        );
        assert_eq!(
            b.blocked(),
            matches!(kind, Kind::Defended).then_some(1),
            "{kind:?}"
        );
        if matches!(kind, Kind::Shadow) {
            assert_eq!(b.wild(), [(fault, false)]);
        }
        // Exactly that prefix reads cleanly; one byte more faults there.
        let (whole, _, _) = run(kind, &prog, &[n as u64]);
        assert!(
            whole.outcome.is_completed(),
            "{kind:?}: {:?}",
            whole.outcome
        );
        assert_eq!(whole.leaked, report.leaked, "{kind:?}");
        let (over, _, _) = run(kind, &prog, &[n as u64 + 1]);
        assert_eq!(over.outcome, report.outcome, "{kind:?}");
        assert_eq!(over.leaked, report.leaked, "{kind:?}");
    }
}

#[test]
fn non_leak_sinks_leak_nothing() {
    for sink in [Sink::Discard, Sink::Branch, Sink::Addr, Sink::Syscall] {
        let prog = overread(sink);
        for kind in KINDS {
            let (report, allocs, _) = run(kind, &prog, &[GUARDED]);
            assert!(report.outcome.is_completed(), "{kind:?} {sink:?}");
            assert!(report.leaked.is_empty(), "{kind:?} {sink:?}");
            let (report, _, _) = run(kind, &prog, &[PAST]);
            guard_fault(kind, &report, allocs[0], false);
            assert!(report.leaked.is_empty(), "{kind:?} {sink:?}");
        }
    }
}

#[test]
fn copy_into_a_guard_keeps_the_prefix() {
    let prog = overcopy(true);
    for kind in KINDS {
        let (report, allocs, mut b) = run(kind, &prog, &[PAST]);
        let dst = allocs[1];
        let fault = guard_fault(kind, &report, dst, true);
        let n = fault - dst;
        assert_eq!(
            b.bytes(dst, n),
            vec![b'S'; n as usize],
            "{kind:?}: prefix written"
        );
        assert_eq!(
            b.blocked(),
            matches!(kind, Kind::Defended).then_some(1),
            "{kind:?}"
        );
        if matches!(kind, Kind::Shadow) {
            assert_eq!(b.wild(), [(fault, true)]);
        }
    }
}

#[test]
fn copy_from_a_guard_writes_nothing() {
    let prog = overcopy(false);
    for kind in KINDS {
        let (report, allocs, mut b) = run(kind, &prog, &[PAST]);
        let (src, dst) = (allocs[0], allocs[1]);
        let fault = guard_fault(kind, &report, src, false);
        assert_eq!(
            b.bytes(dst, PAST),
            vec![0x11; PAST as usize],
            "{kind:?}: untouched"
        );
        assert_eq!(
            b.blocked(),
            matches!(kind, Kind::Defended).then_some(1),
            "{kind:?}"
        );
        if matches!(kind, Kind::Shadow) {
            assert_eq!(b.wild(), [(fault, false)]);
        }
    }
}
