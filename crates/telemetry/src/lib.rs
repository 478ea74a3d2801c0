//! Runtime attack telemetry for the online defense (paper Section VII,
//! "diagnosis report").
//!
//! HeapTherapy+ does not defend silently: when a targeted defense fires the
//! runtime records *which* patch fired, ties it back to `{FUN, CCID, T}`,
//! and renders a one-time attack report an operator can audit. This crate
//! is the machinery, shared by the simulated defense (`ht-defense`) and the
//! real hardened allocator (`ht-hardened-alloc`):
//!
//! - [`EventRing`] — a bounded lock-free multi-producer event queue with
//!   cache-line-padded, sequence-numbered slots. Producers never block and
//!   never allocate (a full ring counts a drop instead), so the ring is
//!   safe to feed from inside a `#[global_allocator]`.
//! - [`PatchStripes`] — per-patch hit/byte counters striped over 16 cache
//!   lines, keyed by the frozen patch table's slot index;
//!   [`StripedCounter`] is the scalar form, which the hardened allocator
//!   uses for its statistics.
//! - [`Recorder`] — the ring, the per-patch counters and one once-word per
//!   `(slot, T)` behind the calls both backends make. A report is claimed
//!   by a load and a CAS on its once-word, which keeps the size of the
//!   first activation, so snapshots rebuild reports no ring overflow loses.
//! - [`AttackReport`] — the paper-style structured report, one per
//!   distinct `(FUN, CCID, T)`.
//! - [`Timeline`] — wall-clock phase spans for the offline pipeline
//!   (instrument / analyze / patch-gen), printed by the `reproduce` tables.
//!
//! Everything exports as JSON through `ht-jsonio`. Telemetry is strictly
//! observational: enabling it must not change any allocation decision, and
//! [`TelemetryConfig::disabled`] is a zero-cost opt-out — disabled paths
//! hold no telemetry state at all and touch no atomics.

#![forbid(unsafe_code)]

mod counters;
mod event;
mod recorder;
mod report;
mod ring;
mod spans;

pub use counters::{PatchCounts, PatchStripes, StripedCounter, TELEMETRY_STRIPES};
pub use event::{Event, EventKind, NO_SLOT};
pub use recorder::Recorder;
pub use report::{defense_for, AttackReport};
pub use ring::{EventRing, RING_CAPACITY};
pub use spans::{PhaseSpan, Timeline};

use ht_jsonio::{obj, Json, ToJson};

/// Whether the observability layer is armed.
///
/// The default is [disabled](Self::disabled): recording telemetry costs a
/// few relaxed atomics per defended allocation, and the scaling benchmark
/// verifies the disabled mode stays within noise of a build that never
/// heard of telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    enabled: bool,
}

impl TelemetryConfig {
    /// Telemetry off: no ring, no counters, no atomics on the hot path.
    pub const fn disabled() -> Self {
        Self { enabled: false }
    }

    /// Telemetry on: events, per-patch counters, and one-time reports.
    pub const fn enabled() -> Self {
        Self { enabled: true }
    }

    /// Whether recording is armed.
    pub const fn is_enabled(self) -> bool {
        self.enabled
    }
}

/// One merged per-patch counter row, resolved back to the patch identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchCounterRow {
    /// Patch-table slot index the counters were keyed by.
    pub slot: usize,
    /// Allocation API of the patch.
    pub fun: ht_patch::AllocFn,
    /// Calling-context ID of the patch.
    pub ccid: u64,
    /// Vulnerability bits of the patch.
    pub vuln: ht_patch::VulnFlags,
    /// Allocations that hit this patch.
    pub hits: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl ToJson for PatchCounterRow {
    fn to_json(&self) -> Json {
        obj([
            ("slot", Json::U64(self.slot as u64)),
            ("fun", self.fun.to_json()),
            ("ccid", Json::U64(self.ccid)),
            ("vuln", self.vuln.to_json()),
            ("hits", Json::U64(self.hits)),
            ("bytes", Json::U64(self.bytes)),
        ])
    }
}

/// Everything the runtime observed, drained at a quiescent point.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Events delivered through the ring, in order.
    pub events: Vec<Event>,
    /// Events accepted by the ring over its lifetime (delivered + pending).
    pub delivered: u64,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Per-patch hit/byte counters (patches with activity only).
    pub per_patch: Vec<PatchCounterRow>,
    /// One attack report per activated `(FUN, CCID, T)`, cumulative over
    /// the backend's life, in slot order (sorted `(FUN, CCID)`) and then
    /// OF, UAF, UR.
    pub reports: Vec<AttackReport>,
}

impl TelemetrySnapshot {
    /// Whether nothing at all was observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.reports.is_empty() && self.per_patch.is_empty()
    }
}

impl ToJson for TelemetrySnapshot {
    fn to_json(&self) -> Json {
        obj([
            (
                "events",
                Json::Arr(self.events.iter().map(ToJson::to_json).collect()),
            ),
            ("delivered", Json::U64(self.delivered)),
            ("dropped", Json::U64(self.dropped)),
            (
                "per_patch",
                Json::Arr(self.per_patch.iter().map(ToJson::to_json).collect()),
            ),
            (
                "reports",
                Json::Arr(self.reports.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_to_disabled() {
        assert!(!TelemetryConfig::default().is_enabled());
        assert!(!TelemetryConfig::disabled().is_enabled());
        assert!(TelemetryConfig::enabled().is_enabled());
    }

    #[test]
    fn snapshot_json_shape() {
        let snap = TelemetrySnapshot {
            events: vec![],
            delivered: 3,
            dropped: 1,
            per_patch: vec![PatchCounterRow {
                slot: 0,
                fun: ht_patch::AllocFn::Malloc,
                ccid: 0xBAD,
                vuln: ht_patch::VulnFlags::OVERFLOW,
                hits: 2,
                bytes: 128,
            }],
            reports: vec![],
        };
        let j = snap.to_json();
        assert_eq!(j.get("dropped").and_then(Json::as_u64), Some(1));
        let rows = j.get("per_patch").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("hits").and_then(Json::as_u64), Some(2));
        assert!(!snap.is_empty());
        assert!(TelemetrySnapshot::default().is_empty());
    }
}
