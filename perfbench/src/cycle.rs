//! The `patch-cycle` workload: `HeapTherapy::full_cycle` over the 30
//! Table II applications in a seeded order, one application per request.
//!
//! The untraced run calls `full_cycle` itself. The traced run replays its
//! steps with a span around each call, and must reach the same verdict and
//! the same configuration text as `full_cycle` for every application.

use crate::rng::{Fnv, Rng};
use crate::stats::Hist;
use crate::trace::{Call, Metric, Probe};
use heaptherapy_core::{CycleReport, HeapTherapy, PipelineConfig};
use ht_patch::{from_config_text, to_config_text, VulnFlags};
use ht_vulnapps::{table2_suite, VulnApp};
use std::time::{Duration, Instant};

/// Seeded passes over the suite generated at set-up; longer runs repeat them.
const PASSES: usize = 16;

/// Everything set-up builds.
#[derive(Debug)]
pub struct CycleSetup {
    /// The Table II applications.
    pub suite: Vec<VulnApp>,
    /// The pipeline under test.
    pub ht: HeapTherapy,
    /// Application index of each request.
    pub order: Vec<usize>,
    /// FNV-1a digest of the request order and application names.
    pub digest: u64,
}

/// `table2_suite()`, `HeapTherapy::new` and the seeded request order.
pub fn setup(seed: u64) -> CycleSetup {
    let suite = table2_suite();
    let ht = HeapTherapy::new(PipelineConfig::default());
    let mut rng = Rng::new(seed, 0);
    let order: Vec<usize> = (0..PASSES)
        .flat_map(|_| rng.permutation(suite.len()))
        .collect();
    let mut h = Fnv::default();
    for &i in &order {
        h.word(i as u64);
        for b in suite[i].name.bytes() {
            h.word(u64::from(b));
        }
    }
    CycleSetup {
        suite,
        ht,
        order,
        digest: h.finish(),
    }
}

/// The outcome of one cycle that must match between `full_cycle` and the
/// traced replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Union of the deployed patches' vulnerability bits.
    pub detected: VulnFlags,
    /// Ground-truth class.
    pub expected: VulnFlags,
    /// Patches deployed.
    pub patches: usize,
    /// The configuration file.
    pub config_text: String,
    /// The attack worked with no defense.
    pub undefended_attack_succeeded: bool,
    /// Every attack input was defeated.
    pub all_attacks_blocked: bool,
    /// Every benign input completed unharmed.
    pub benign_ok: bool,
}

impl Verdict {
    /// Whether the cycle counts as a success.
    pub fn ok(&self) -> bool {
        self.detected.contains(self.expected)
            && self.undefended_attack_succeeded
            && self.all_attacks_blocked
            && self.benign_ok
    }
}

impl From<CycleReport> for Verdict {
    fn from(r: CycleReport) -> Self {
        Self {
            detected: r.detected,
            expected: r.expected,
            patches: r.patches_generated,
            config_text: r.config_text,
            undefended_attack_succeeded: r.undefended_attack_succeeded,
            all_attacks_blocked: r.all_attacks_blocked,
            benign_ok: r.benign_ok,
        }
    }
}

/// Layer counts gathered by the traced replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// `run_protected` calls.
    pub replays: u64,
    /// Patch-table probes in protected runs.
    pub table_lookups: u64,
    /// Probes that hit.
    pub table_hits: u64,
    /// Guard pages installed in protected runs.
    pub guard_pages: u64,
    /// Blocks deferred in protected runs.
    pub quarantined_blocks: u64,
    /// Accesses stopped by a protection fault.
    pub blocked_accesses: u64,
    /// Shadow-analyzer warnings.
    pub warnings: u64,
    /// Statements executed by native runs.
    pub steps: u64,
    /// Instrumented call sites over all plans built.
    pub plan_sites: u64,
    /// Patches deployed.
    pub patches: u64,
}

/// `full_cycle`'s steps, each wrapped in a span.
pub fn traced_cycle(
    ht: &HeapTherapy,
    app: &VulnApp,
    p: &mut impl Probe,
    c: &mut LayerCounts,
) -> Option<Verdict> {
    macro_rules! span {
        ($call:expr, $metric:expr, $e:expr) => {{
            let t = p.begin($call);
            let r = $e;
            let d = p.end(t);
            if let Some(m) = $metric {
                p.record(m, d);
            }
            (r, d)
        }};
    }
    let (ip, _) = span!(
        Call::Instrument,
        Some(Metric::Instrument),
        ht.instrument(&app.program)
    );
    c.plan_sites += ip.plan.site_count() as u64;
    let (native, _) = span!(
        Call::RunNative,
        Some(Metric::Native),
        ht.run_native(&ip, app.patching_input())
    );
    c.steps += native.steps;
    let undefended_attack_succeeded = app.attack_succeeded(&native);
    let (analysis, _) = span!(
        Call::AnalyzeAttack,
        Some(Metric::Analyze),
        ht.analyze_attack(&ip, app.patching_input(), &app.reference)
    );
    c.warnings += analysis.warnings.len() as u64;
    if analysis.patches.is_empty() {
        return None;
    }
    let (config_text, d_write) = span!(
        Call::ToConfig,
        None::<Metric>,
        to_config_text(&analysis.patches)
    );
    let (deployed, d_read) = span!(
        Call::FromConfig,
        None::<Metric>,
        from_config_text(&config_text)
    );
    p.record(Metric::Config, d_write + d_read);
    let deployed = deployed.ok()?;
    c.patches += deployed.len() as u64;
    let detected = deployed.iter().fold(VulnFlags::NONE, |acc, p| acc | p.vuln);
    let mut protected = |input: &[u64]| {
        let (run, _) = span!(
            Call::RunProtected,
            Some(Metric::Protected),
            ht.run_protected(&ip, input, &deployed)
        );
        c.replays += 1;
        c.table_lookups += run.stats.table_lookups;
        c.table_hits += run.stats.table_hits;
        c.guard_pages += run.stats.guard_pages;
        c.quarantined_blocks += run.stats.quarantined_blocks;
        c.blocked_accesses += run.stats.blocked_accesses;
        run.report
    };
    // Same short-circuiting as `full_cycle`.
    let all_attacks_blocked = app
        .attack_inputs
        .iter()
        .all(|input| !app.attack_succeeded(&protected(input)));
    let benign_ok = app.benign_inputs.iter().all(|input| {
        let report = protected(input);
        report.outcome.is_completed() && !app.attack_succeeded(&report)
    });
    Some(Verdict {
        detected,
        expected: app.expected,
        patches: deployed.len(),
        config_text,
        undefended_attack_succeeded,
        all_attacks_blocked,
        benign_ok,
    })
}

/// `full_cycle` of every application, the reference the traced replay must
/// match.
pub fn reference(s: &CycleSetup) -> Vec<Option<Verdict>> {
    s.suite
        .iter()
        .map(|app| s.ht.full_cycle(app).ok().map(Verdict::from))
        .collect()
}

/// Result of one patch-cycle run.
#[derive(Debug)]
pub struct CycleRun {
    /// Cycles completed.
    pub requests: u64,
    /// Cycles that failed.
    pub failed: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Per-cycle latency (timed runs only).
    pub latency: Option<Hist>,
    /// Layer counts (traced runs only).
    pub counts: LayerCounts,
}

/// Runs `full_cycle` back to back for `d`.
pub fn run_untraced(s: &CycleSetup, d: Duration) -> CycleRun {
    let mut latency = Hist::default();
    let mut failed = 0;
    let start = Instant::now();
    let mut now = start;
    let mut req = 0u64;
    while now - start < d {
        let app = &s.suite[s.order[req as usize % s.order.len()]];
        let t0 = Instant::now();
        let r = s.ht.full_cycle(app);
        now = Instant::now();
        latency.record((now - t0).as_nanos() as u64);
        if !r.is_ok_and(|r| Verdict::from(r).ok()) {
            failed += 1;
        }
        req += 1;
    }
    CycleRun {
        requests: req,
        failed,
        wall_s: (now - start).as_secs_f64(),
        latency: Some(latency),
        counts: LayerCounts::default(),
    }
}

/// Replays `requests` cycles with spans; a cycle fails if it fails on its
/// own or differs from the reference.
pub fn run_traced<P: Probe>(
    s: &CycleSetup,
    reference: &[Option<Verdict>],
    requests: u64,
    p: &mut P,
) -> CycleRun {
    let mut counts = LayerCounts::default();
    let mut failed = 0;
    let start = Instant::now();
    for req in 0..requests {
        let i = s.order[req as usize % s.order.len()];
        p.select(req);
        let span = p.request_begin();
        let v = traced_cycle(&s.ht, &s.suite[i], p, &mut counts);
        p.request_end(span);
        let same = v.as_ref() == reference[i].as_ref();
        if !same || !v.is_some_and(|v| v.ok()) {
            failed += 1;
        }
    }
    CycleRun {
        requests,
        failed,
        wall_s: start.elapsed().as_secs_f64(),
        latency: None,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{check_requests, NoProbe, Tracer};

    #[test]
    fn order_is_seeded_permutations() {
        let (a, b, c) = (setup(1), setup(1), setup(2));
        assert_eq!(a.order, b.order);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.order.len(), PASSES * a.suite.len());
        let mut first: Vec<usize> = a.order[..a.suite.len()].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..a.suite.len()).collect::<Vec<_>>());
    }

    #[test]
    fn smoke_runs_pass_the_gate_and_match_full_cycle() {
        let s = setup(4);
        let reference = reference(&s);
        assert!(reference
            .iter()
            .all(|v| v.as_ref().is_some_and(Verdict::ok)));
        let n = s.suite.len() as u64;
        let untraced = run_traced(&s, &reference, n, &mut NoProbe);
        assert_eq!(untraced.failed, 0);
        let mut tracer = Tracer::new(Instant::now(), 3, 10_000);
        let traced = run_traced(&s, &reference, n, &mut tracer);
        assert_eq!(traced.failed, 0);
        assert_eq!(
            traced.counts.replays,
            tracer.hist(Metric::Protected).count()
        );
        assert!(traced.counts.warnings > 0 && traced.counts.patches >= n);
        let check = check_requests(tracer.spans());
        assert_eq!(check.requests, n.div_ceil(3));
        assert_eq!(check.max_gap_ns, 0);
        let timed = run_untraced(&s, Duration::from_millis(1));
        assert!(timed.requests >= 1);
        assert_eq!(timed.failed, 0);
    }
}
