//! In-memory span tracing around calls into each layer.
//!
//! Spans are recorded from the benchmark's side of each call: the library
//! is not changed. Every call is timed into a per-metric [`Hist`]; only
//! every `sample_every`-th request also keeps its spans, so memory stays
//! bounded on long runs. Spans are written out when the run ends.

use crate::stats::Hist;
use std::fmt::Write as _;
use std::time::Instant;

/// The library call a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// One benchmark request (the root span).
    Request,
    /// `GlobalAlloc::alloc` on `HardenedAlloc`.
    Alloc,
    /// `GlobalAlloc::alloc_zeroed`.
    AllocZeroed,
    /// `GlobalAlloc::realloc`.
    Realloc,
    /// `GlobalAlloc::dealloc`.
    Dealloc,
    /// `ccid::CallScope::enter`.
    ScopeEnter,
    /// Dropping a `ccid::CallScope`.
    ScopeDrop,
    /// `HardenedAlloc::stats`.
    Stats,
    /// `HardenedAlloc::registry_stats`.
    RegistryStats,
    /// `HardenedAlloc::quarantine_usage`.
    QuarantineUsage,
    /// `HardenedAlloc::drain_events`.
    DrainEvents,
    /// `HeapTherapy::instrument`.
    Instrument,
    /// `HeapTherapy::run_native`.
    RunNative,
    /// `HeapTherapy::analyze_attack`.
    AnalyzeAttack,
    /// `ht_patch::to_config_text`.
    ToConfig,
    /// `ht_patch::from_config_text`.
    FromConfig,
    /// `HeapTherapy::run_protected`.
    RunProtected,
}

impl Call {
    /// Span name: the layer, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Call::Request => "core.request",
            Call::Alloc => "galloc.alloc",
            Call::AllocZeroed => "galloc.alloc_zeroed",
            Call::Realloc => "galloc.realloc",
            Call::Dealloc => "galloc.dealloc",
            Call::ScopeEnter => "ccid.enter",
            Call::ScopeDrop => "ccid.drop",
            Call::Stats => "galloc.stats",
            Call::RegistryStats => "registry.stats",
            Call::QuarantineUsage => "quarantine.usage",
            Call::DrainEvents => "telemetry.drain_events",
            Call::Instrument => "encoding.instrument",
            Call::RunNative => "simprog.run_native",
            Call::AnalyzeAttack => "shadow.analyze_attack",
            Call::ToConfig => "patch.to_config_text",
            Call::FromConfig => "patch.from_config_text",
            Call::RunProtected => "defense.run_protected",
        }
    }
}

/// A per-call timing histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Allocations outside any patched context.
    AllocUnpatched,
    /// Allocations under an OF (or OF|UR) patch.
    AllocOf,
    /// Allocations under a UAF patch.
    AllocUaf,
    /// Allocations under a UR patch.
    AllocUr,
    /// Frees of unpatched buffers.
    FreeUnpatched,
    /// Frees of guarded buffers.
    FreeOf,
    /// Frees of UAF-patched buffers (quarantine push and evictions).
    FreeUaf,
    /// Frees of UR-patched buffers.
    FreeUr,
    /// Every `realloc` call.
    Realloc,
    /// `CallScope` enter and drop, one sample each.
    Scope,
    /// `drain_events` calls.
    Drain,
    /// `instrument` calls.
    Instrument,
    /// `run_native` calls.
    Native,
    /// `analyze_attack` calls.
    Analyze,
    /// Config text write plus read-back, one sample per request.
    Config,
    /// `run_protected` calls.
    Protected,
    /// Counter and occupancy snapshots taken by the monitor.
    Observer,
    /// Request time not covered by any traced call.
    SelfTime,
}

/// Number of [`Metric`]s.
pub const METRICS: usize = Metric::SelfTime as usize + 1;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span (times in ns since the run's epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The wrapped call.
    pub call: Call,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id the span belongs to.
    pub req: u64,
    /// On a request span, the self time recorded into
    /// [`Metric::SelfTime`]; 0 on other spans.
    pub self_ns: u64,
}

/// Timing hooks the workloads call around every library call. The
/// untraced run uses [`NoProbe`], whose hooks compile to nothing.
pub trait Probe {
    /// Whether this probe records anything.
    const TRACED: bool;
    /// Selects request `req`: it and the observer calls made just before it
    /// keep their spans if `req` is sampled.
    fn select(&mut self, req: u64);
    /// Opens the request span of the selected request.
    fn request_begin(&mut self) -> u64;
    /// Closes the request span and records its self time.
    fn request_end(&mut self, start: u64) -> u64;
    /// Opens a span; returns its start.
    fn begin(&mut self, call: Call) -> u64;
    /// Closes the innermost open span; returns its duration.
    fn end(&mut self, start: u64) -> u64;
    /// Adds a sample to a per-call histogram.
    fn record(&mut self, metric: Metric, ns: u64);
}

/// The untraced run's probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl Probe for NoProbe {
    const TRACED: bool = false;
    #[inline(always)]
    fn select(&mut self, _: u64) {}
    #[inline(always)]
    fn request_begin(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn request_end(&mut self, _: u64) -> u64 {
        0
    }
    #[inline(always)]
    fn begin(&mut self, _: Call) -> u64 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: u64) -> u64 {
        0
    }
    #[inline(always)]
    fn record(&mut self, _: Metric, _: u64) {}
}

/// The traced run's probe.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    sample_every: u64,
    span_cap: usize,
    sampling: bool,
    req: u64,
    depth: u32,
    child_ns: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
    hists: Vec<Hist>,
}

impl Tracer {
    /// A tracer that keeps the spans of every `sample_every`-th request, at
    /// most `span_cap` spans in all.
    pub fn new(epoch: Instant, sample_every: u64, span_cap: usize) -> Self {
        Self {
            epoch,
            sample_every: sample_every.max(1),
            span_cap,
            sampling: false,
            req: 0,
            depth: 0,
            child_ns: 0,
            spans: Vec::new(),
            open: Vec::new(),
            hists: vec![Hist::default(); METRICS],
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The per-call histogram of `m`.
    pub fn hist(&self, m: Metric) -> &Hist {
        &self.hists[m as usize]
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adds `other`'s histograms to this tracer's.
    pub fn merge_hists(&mut self, other: &Tracer) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }
}

impl Probe for Tracer {
    const TRACED: bool = true;

    fn select(&mut self, req: u64) {
        self.req = req;
        self.sampling = req.is_multiple_of(self.sample_every) && self.spans.len() < self.span_cap;
    }

    fn request_begin(&mut self) -> u64 {
        self.child_ns = 0;
        self.begin(Call::Request)
    }

    fn request_end(&mut self, start: u64) -> u64 {
        let span = self.sampling.then(|| self.open.last().copied()).flatten();
        let d = self.end(start);
        let own = d.saturating_sub(self.child_ns);
        self.record(Metric::SelfTime, own);
        if let Some(i) = span {
            self.spans[i as usize].self_ns = own;
        }
        d
    }
    #[inline]
    fn begin(&mut self, call: Call) -> u64 {
        self.depth += 1;
        let t = self.now();
        if self.sampling {
            let parent = self.open.last().copied().unwrap_or(NO_PARENT);
            self.open.push(self.spans.len() as u32);
            self.spans.push(Span {
                call,
                start: t,
                end: t,
                parent,
                req: self.req,
                self_ns: 0,
            });
        }
        t
    }

    #[inline]
    fn end(&mut self, start: u64) -> u64 {
        let t = self.now();
        self.depth -= 1;
        if self.sampling {
            let i = self.open.pop().expect("end matches a begin") as usize;
            self.spans[i].end = t;
        }
        let d = t - start;
        if self.depth == 1 {
            self.child_ns += d;
        }
        d
    }

    #[inline]
    fn record(&mut self, metric: Metric, ns: u64) {
        self.hists[metric as usize].record(ns);
    }
}

/// Self time of a span: its duration minus the part of it that the union
/// of its children's intervals covers.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.1 - span.0) - covered
}

/// Span-arithmetic check over sampled requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCheck {
    /// Sampled request spans examined.
    pub requests: u64,
    /// Largest `|Σ child durations + recorded core.self − request
    /// duration|` (ns).
    pub max_gap_ns: u64,
}

/// Checks, for every sampled request, that its direct children's span time
/// plus the self time the tracer recorded into `core.self_us` equals the
/// request span, and that the recorded self time is the part of the span
/// its children do not cover (children are disjoint and inside it).
pub fn check_requests(spans: &[Span]) -> SpanCheck {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    let mut out = SpanCheck::default();
    for (s, kids) in spans.iter().zip(&children) {
        if s.call != Call::Request {
            continue;
        }
        let sum: u64 = kids.iter().map(|&(a, b)| b - a).sum();
        let uncovered = self_time((s.start, s.end), kids);
        out.requests += 1;
        out.max_gap_ns = out
            .max_gap_ns
            .max((sum + s.self_ns).abs_diff(s.end - s.start))
            .max(uncovered.abs_diff(s.self_ns));
    }
    out
}

/// Renders spans as tab-separated lines:
/// `worker req name start_ns end_ns parent self_ns`.
pub fn render_spans(worker: usize, spans: &[Span], out: &mut String) {
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{worker}\t{}\t{}\t{}\t{}\t{parent}\t{}",
            s.req,
            s.call.name(),
            s.start,
            s.end,
            s.self_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 60)]), 60);
        // Overlapping children are covered once.
        assert_eq!(self_time((0, 100), &[(10, 50), (40, 70)]), 40);
        // Nested child inside another child adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 30)]), 60);
        // Children are clipped to the span.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn tracer_samples_and_balances_spans() {
        let mut t = Tracer::new(Instant::now(), 2, 1_000);
        for req in 0..4 {
            t.select(req);
            let r = t.request_begin();
            let a = t.begin(Call::Alloc);
            let inner = t.begin(Call::ScopeEnter);
            t.end(inner);
            t.end(a);
            let b = t.begin(Call::Dealloc);
            t.end(b);
            t.request_end(r);
        }
        // Requests 0 and 2 kept 4 spans each.
        assert_eq!(t.spans().len(), 8);
        assert_eq!(t.hist(Metric::SelfTime).count(), 4);
        let req0 = &t.spans()[0];
        assert_eq!((req0.call, req0.parent), (Call::Request, NO_PARENT));
        assert_eq!(t.spans()[2].parent, 1, "scope nests inside the alloc");
        let check = check_requests(t.spans());
        assert_eq!(
            check,
            SpanCheck {
                requests: 2,
                max_gap_ns: 0
            }
        );
        let mut text = String::new();
        render_spans(0, t.spans(), &mut text);
        assert_eq!(text.lines().count(), 8);
        assert!(text.starts_with("0\t0\tcore.request\t"));
    }

    fn span(call: Call, start: u64, end: u64, parent: u32, self_ns: u64) -> Span {
        Span {
            call,
            start,
            end,
            parent,
            req: 0,
            self_ns,
        }
    }

    #[test]
    fn span_check_compares_recorded_self_time() {
        let ok = [
            span(Call::Request, 0, 100, NO_PARENT, 60),
            span(Call::Alloc, 10, 30, 0, 0),
            span(Call::Dealloc, 50, 70, 0, 0),
        ];
        assert_eq!(check_requests(&ok).max_gap_ns, 0);
        // A recorded self time that misses a child's time is caught.
        let mut wrong = ok;
        wrong[0].self_ns = 80;
        assert_eq!(check_requests(&wrong).max_gap_ns, 20);
    }

    #[test]
    fn overlapping_children_show_as_a_gap() {
        // The tracer records 100 - (40 + 20) = 40; the children cover 50.
        let spans = [
            span(Call::Request, 0, 100, NO_PARENT, 40),
            span(Call::Alloc, 10, 50, 0, 0),
            span(Call::Alloc, 40, 60, 0, 0),
        ];
        assert_eq!(check_requests(&spans).max_gap_ns, 10);
    }
}
