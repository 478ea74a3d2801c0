//! The one-time structured attack report (paper Section VII).
//!
//! When a patched buffer's defense first fires for a given `(FUN, CCID, T)`
//! the runtime files exactly one of these. Deduplication is the
//! [`Recorder`](crate::Recorder)'s job (a once-word per slot and `T`); this
//! module only carries and renders the result.

use ht_jsonio::{obj, Json, ToJson};
use ht_patch::{AllocFn, VulnFlags};

/// Human name of the defense the paper deploys for one vulnerability type.
pub fn defense_for(vuln: VulnFlags) -> &'static str {
    if vuln.contains(VulnFlags::OVERFLOW) {
        "guard page"
    } else if vuln.contains(VulnFlags::USE_AFTER_FREE) {
        "deferred free (quarantine)"
    } else if vuln.contains(VulnFlags::UNINIT_READ) {
        "zero initialization"
    } else {
        "none"
    }
}

/// One attack report: the first activation of a `(FUN, CCID, T)` patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackReport {
    /// Allocation API of the patch.
    pub fun: AllocFn,
    /// Calling-context ID of the patch.
    pub ccid: u64,
    /// The single vulnerability type `T` whose defense fired.
    pub vuln: VulnFlags,
    /// Patch-table slot index (stable identity within one table).
    pub slot: u32,
    /// Size of the allocation that first activated the defense.
    pub size: u64,
    /// The decoded calling context, allocation site first (empty when no
    /// encoding plan was available to decode the CCID).
    pub call_chain: Vec<String>,
}

impl AttackReport {
    /// The defense that was applied.
    pub fn defense(&self) -> &'static str {
        defense_for(self.vuln)
    }
}

impl std::fmt::Display for AttackReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== HeapTherapy+ attack report ===")?;
        writeln!(
            f,
            "patch   : {{{}, {:#x}, {}}}",
            self.fun, self.ccid, self.vuln
        )?;
        writeln!(f, "defense : {}", self.defense())?;
        writeln!(f, "size    : {} bytes", self.size)?;
        if self.call_chain.is_empty() {
            writeln!(f, "context : <undecoded> (CCID {:#x})", self.ccid)?;
        } else {
            writeln!(f, "context :")?;
            for (depth, frame) in self.call_chain.iter().enumerate() {
                writeln!(f, "  #{depth} {frame}")?;
            }
        }
        Ok(())
    }
}

impl ToJson for AttackReport {
    fn to_json(&self) -> Json {
        obj([
            ("fun", self.fun.to_json()),
            ("ccid", Json::U64(self.ccid)),
            ("vuln", self.vuln.to_json()),
            ("slot", Json::U64(u64::from(self.slot))),
            ("size", Json::U64(self.size)),
            ("defense", Json::Str(self.defense().to_string())),
            (
                "call_chain",
                Json::Arr(
                    self.call_chain
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> AttackReport {
        AttackReport {
            fun: AllocFn::Malloc,
            ccid: 0xBAD,
            vuln: VulnFlags::OVERFLOW,
            slot: 3,
            size: 100,
            call_chain: vec!["proc_input".into(), "handle_req".into(), "main".into()],
        }
    }

    #[test]
    fn defense_names() {
        assert_eq!(defense_for(VulnFlags::OVERFLOW), "guard page");
        assert_eq!(
            defense_for(VulnFlags::USE_AFTER_FREE),
            "deferred free (quarantine)"
        );
        assert_eq!(defense_for(VulnFlags::UNINIT_READ), "zero initialization");
        assert_eq!(defense_for(VulnFlags::NONE), "none");
    }

    #[test]
    fn display_renders_paper_style() {
        let text = report().to_string();
        assert!(text.contains("{malloc, 0xbad, OF}"), "{text}");
        assert!(text.contains("guard page"));
        assert!(text.contains("#0 proc_input"));
        assert!(text.contains("#2 main"));
    }

    #[test]
    fn display_without_chain_marks_undecoded() {
        let mut r = report();
        r.call_chain.clear();
        assert!(r.to_string().contains("<undecoded>"));
    }

    #[test]
    fn json_shape() {
        let j = report().to_json();
        assert_eq!(j.get("ccid").and_then(Json::as_u64), Some(0xBAD));
        assert_eq!(j.get("defense").and_then(Json::as_str), Some("guard page"));
        assert_eq!(j.get("call_chain").and_then(Json::as_arr).unwrap().len(), 3);
    }
}
