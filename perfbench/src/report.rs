//! Metric names, units and the printed result.

use crate::cycle::CycleRun;
use crate::heap::HeapRun;
use crate::stats::{reportable, Hist};
use crate::trace::{Metric, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run): name and unit. Every workload reports
/// all of them; a layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("galloc.alloc_ns.unpatched.p50", "ns"),
    ("galloc.alloc_ns.unpatched.p99", "ns"),
    ("galloc.free_ns.unpatched.p50", "ns"),
    ("galloc.free_ns.unpatched.p99", "ns"),
    ("ccid.scope_ns.p50", "ns"),
    ("galloc.interposed_allocs", "count"),
    ("galloc.hit_ratio", "ratio"),
    ("galloc.alloc_ns.of.p50", "ns"),
    ("galloc.alloc_ns.of.p99", "ns"),
    ("galloc.free_ns.of.p50", "ns"),
    ("galloc.free_ns.of.p99", "ns"),
    ("galloc.guard_pages", "count"),
    ("galloc.alloc_ns.uaf.p50", "ns"),
    ("galloc.alloc_ns.uaf.p99", "ns"),
    ("galloc.alloc_ns.ur.p50", "ns"),
    ("galloc.alloc_ns.ur.p99", "ns"),
    ("galloc.free_ns.uaf.p50", "ns"),
    ("galloc.free_ns.uaf.p99", "ns"),
    ("galloc.free_ns.ur.p50", "ns"),
    ("galloc.free_ns.ur.p99", "ns"),
    ("galloc.realloc_ns.p50", "ns"),
    ("galloc.realloc_ns.p99", "ns"),
    ("galloc.zero_fills", "count"),
    ("galloc.table_hits", "count"),
    ("quarantine.pushed", "count"),
    ("quarantine.evicted", "count"),
    ("quarantine.evict_ratio", "ratio"),
    ("quarantine.held_bytes", "B"),
    ("registry.live_peak", "count"),
    ("telemetry.drain_us.p50", "us"),
    ("telemetry.delivered", "count"),
    ("telemetry.dropped", "count"),
    ("telemetry.delivered_ratio", "ratio"),
    ("defense.protected_us.p50", "us"),
    ("defense.protected_us.p99", "us"),
    ("defense.replays", "count"),
    ("defense.table_hits", "count"),
    ("defense.hit_ratio", "ratio"),
    ("defense.guard_pages", "count"),
    ("defense.quarantined_blocks", "count"),
    ("defense.blocked_accesses", "count"),
    ("shadow.analyze_us.p50", "us"),
    ("shadow.analyze_us.p99", "us"),
    ("shadow.warnings", "count"),
    ("simprog.native_us.p50", "us"),
    ("simprog.steps", "count"),
    ("encoding.instrument_us.p50", "us"),
    ("encoding.plan_sites", "count"),
    ("patch.config_us.p50", "us"),
    ("patch.patches", "count"),
    ("core.self_us.p50", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Unit of a per-layer metric.
pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(&END_TO_END)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-layer values by name; sample counts of the histograms behind them.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers {
    /// Metric values.
    pub values: BTreeMap<&'static str, f64>,
    /// Samples behind each histogram-backed value.
    pub samples: BTreeMap<&'static str, u64>,
}

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(!unit_of(name).is_empty(), "unknown metric {name}");
        self.values.insert(name, v);
    }

    fn count(&mut self, name: &'static str, v: u64) {
        self.set(name, v as f64);
    }

    /// Sets each of `names` from `h`: its p99 when the name ends in `p99`,
    /// its median otherwise, divided by `div` (1 for ns, 1000 for µs).
    fn quantiles(&mut self, h: &Hist, names: &[&'static str], div: f64) {
        for &name in names {
            let q = if name.ends_with("p99") { 9_900 } else { 5_000 };
            self.set(name, h.quantile(q) / div);
            self.samples.insert(name, h.count());
        }
    }

    /// Every per-layer metric, 0 where the workload has no such layer.
    pub fn complete(mut self) -> Self {
        for (name, _) in PER_LAYER {
            self.values.entry(name).or_insert(0.0);
        }
        self
    }

    /// The count metrics (units `count` and `B`).
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values
            .iter()
            .filter(|(n, _)| matches!(unit_of(n), "count" | "B"))
            .map(|(&n, &v)| (n, v))
    }
}

/// Per-layer metrics of a traced heap run (histograms merged over workers).
pub fn heap_layers(run: &HeapRun<Tracer>, t: &Tracer) -> Layers {
    let mut l = Layers::default();
    let st = &run.stats;
    let us = 1_000.0;
    l.quantiles(
        t.hist(Metric::AllocUnpatched),
        &[
            "galloc.alloc_ns.unpatched.p50",
            "galloc.alloc_ns.unpatched.p99",
        ],
        1.0,
    );
    l.quantiles(
        t.hist(Metric::FreeUnpatched),
        &[
            "galloc.free_ns.unpatched.p50",
            "galloc.free_ns.unpatched.p99",
        ],
        1.0,
    );
    l.quantiles(t.hist(Metric::Scope), &["ccid.scope_ns.p50"], 1.0);
    l.quantiles(
        t.hist(Metric::AllocOf),
        &["galloc.alloc_ns.of.p50", "galloc.alloc_ns.of.p99"],
        1.0,
    );
    l.quantiles(
        t.hist(Metric::FreeOf),
        &["galloc.free_ns.of.p50", "galloc.free_ns.of.p99"],
        1.0,
    );
    l.quantiles(
        t.hist(Metric::AllocUaf),
        &["galloc.alloc_ns.uaf.p50", "galloc.alloc_ns.uaf.p99"],
        1.0,
    );
    l.quantiles(
        t.hist(Metric::AllocUr),
        &["galloc.alloc_ns.ur.p50", "galloc.alloc_ns.ur.p99"],
        1.0,
    );
    l.quantiles(
        t.hist(Metric::FreeUaf),
        &["galloc.free_ns.uaf.p50", "galloc.free_ns.uaf.p99"],
        1.0,
    );
    l.quantiles(
        t.hist(Metric::FreeUr),
        &["galloc.free_ns.ur.p50", "galloc.free_ns.ur.p99"],
        1.0,
    );
    l.quantiles(
        t.hist(Metric::Realloc),
        &["galloc.realloc_ns.p50", "galloc.realloc_ns.p99"],
        1.0,
    );
    l.quantiles(t.hist(Metric::Drain), &["telemetry.drain_us.p50"], us);
    l.quantiles(t.hist(Metric::SelfTime), &["core.self_us.p50"], us);
    l.count("galloc.interposed_allocs", st.interposed_allocs);
    l.set(
        "galloc.hit_ratio",
        ratio(st.table_hits, st.interposed_allocs),
    );
    l.count("galloc.guard_pages", st.guard_pages);
    l.count("galloc.zero_fills", st.zero_fills);
    l.count("galloc.table_hits", st.table_hits);
    l.count("quarantine.pushed", st.quarantined);
    l.count("quarantine.evicted", st.evictions);
    l.set(
        "quarantine.evict_ratio",
        ratio(st.evicted_bytes, st.quarantined_bytes),
    );
    l.count("quarantine.held_bytes", run.held_bytes);
    l.count("registry.live_peak", run.observed.live_peak);
    let o = &run.observed;
    l.count("telemetry.delivered", o.delivered);
    l.count("telemetry.dropped", o.dropped);
    l.set(
        "telemetry.delivered_ratio",
        ratio(o.delivered, o.delivered + o.dropped),
    );
    l
}

/// Per-layer metrics of a traced patch-cycle run.
pub fn cycle_layers(run: &CycleRun, t: &Tracer) -> Layers {
    let mut l = Layers::default();
    let c = &run.counts;
    let us = 1_000.0;
    l.quantiles(
        t.hist(Metric::Protected),
        &["defense.protected_us.p50", "defense.protected_us.p99"],
        us,
    );
    l.quantiles(
        t.hist(Metric::Analyze),
        &["shadow.analyze_us.p50", "shadow.analyze_us.p99"],
        us,
    );
    l.quantiles(t.hist(Metric::Native), &["simprog.native_us.p50"], us);
    l.quantiles(
        t.hist(Metric::Instrument),
        &["encoding.instrument_us.p50"],
        us,
    );
    l.quantiles(t.hist(Metric::Config), &["patch.config_us.p50"], us);
    l.quantiles(t.hist(Metric::SelfTime), &["core.self_us.p50"], us);
    l.count("defense.replays", c.replays);
    l.count("defense.table_hits", c.table_hits);
    l.set("defense.hit_ratio", ratio(c.table_hits, c.table_lookups));
    l.count("defense.guard_pages", c.guard_pages);
    l.count("defense.quarantined_blocks", c.quarantined_blocks);
    l.count("defense.blocked_accesses", c.blocked_accesses);
    l.count("shadow.warnings", c.warnings);
    l.count("simprog.steps", c.steps);
    l.count("encoding.plan_sites", c.plan_sites);
    l.count("patch.patches", c.patches);
    l
}

/// Tags each count `exact` when two runs of the same work agree on it,
/// `racy` otherwise.
pub fn tag_counts(a: &Layers, b: &Layers) -> Vec<(&'static str, &'static str)> {
    a.counts()
        .map(|(name, v)| {
            let same = b.values.get(name) == Some(&v);
            (name, if same { "exact" } else { "racy" })
        })
        .collect()
}

/// Human-readable percentile note: `n` samples, and whether p99 has ten
/// samples beyond it.
pub fn sample_note(n: u64) -> String {
    let best = crate::stats::highest_reportable(n)
        .map_or("none".to_string(), |q| format!("p{}", q as f64 / 100.0));
    format!(
        "{n} samples, highest reportable percentile {best}{}",
        if reportable(n, 9_900) {
            ""
        } else {
            " (p99 has fewer than 10 samples beyond it)"
        }
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values, which no metric should produce,
/// print as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(n, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(v),
                json_str(unit_of(n))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_valid() {
        let names: Vec<&str> = PER_LAYER.iter().chain(&END_TO_END).map(|m| m.0).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate {n}");
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
        assert_eq!(unit_of("setup_s"), "s");
        assert_eq!(unit_of("quarantine.held_bytes"), "B");
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[("setup_s", 0.25), ("req_per_s", 10.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"req_per_s\": {\"value\": 10, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
    }

    #[test]
    fn completed_layers_cover_every_metric_and_tag_counts() {
        let mut a = Layers::default();
        a.count("galloc.table_hits", 5);
        a.count("quarantine.evicted", 7);
        a.set("galloc.hit_ratio", 0.5);
        let a = a.complete();
        assert_eq!(a.values.len(), PER_LAYER.len());
        let mut b = a.clone();
        b.values.insert("quarantine.evicted", 8.0);
        let tags = tag_counts(&a, &b);
        assert!(tags.contains(&("galloc.table_hits", "exact")));
        assert!(tags.contains(&("quarantine.evicted", "racy")));
        assert!(!tags.iter().any(|t| t.0 == "galloc.hit_ratio"));
    }
}
