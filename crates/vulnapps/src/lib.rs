//! Modeled vulnerable programs — the paper's Table II effectiveness suite.
//!
//! Each function returns a [`VulnApp`]: a modeled program reproducing the
//! *heap behaviour* of a real CVE (buffer sizes, vulnerable calling context,
//! attack-input parameterization), together with benign and attack inputs and
//! the ground-truth vulnerability class.
//!
//! | model | vulnerability | reproduces |
//! |---|---|---|
//! | [`heartbleed`] | UR & overflow (overread) | CVE-2014-0160 |
//! | [`bc`] | overflow (overwrite) | BugBench bc-1.06 |
//! | [`ghostxps`] | uninitialized read | CVE-2017-9740 |
//! | [`optipng`] | use after free | CVE-2015-7801 |
//! | [`tiff`] | overflow via `realloc` | CVE-2017-9935 |
//! | [`wavpack`] | use after free | CVE-2018-7253 |
//! | [`libming`] | overflow in `calloc` buffer | CVE-2018-7877 |
//! | [`samate::suite`] | 23 mixed cases | NIST SAMATE dataset |
//!
//! Attack success is judged from observable effects: bytes that reach the
//! attacker ([`RunReport::leaked`]) containing either the victim's secret or
//! the attacker's injected marker.
//!
//! [`RunReport::leaked`]: ht_simprog::RunReport

#![forbid(unsafe_code)]

pub mod samate;

mod apps;

pub use apps::{bc, ghostxps, heartbleed, libming, multi_context_overflow, optipng, tiff, wavpack};

use ht_patch::VulnFlags;
use ht_simprog::{Program, RunReport};

/// The byte the victim's secret data is filled with (`'S'`).
pub const SECRET_BYTE: u8 = 0x53;
/// The byte attacker-controlled payloads are filled with (`'A'`).
pub const ATTACK_BYTE: u8 = 0x41;
/// The byte attacker-sprayed heap data is filled with (`'f'`).
pub const SPRAY_BYTE: u8 = 0x66;

/// A modeled vulnerable application.
#[derive(Debug)]
pub struct VulnApp {
    /// Short model name (`"heartbleed"`, `"bc-1.06"`, ...).
    pub name: String,
    /// The CVE or dataset reference the model reproduces.
    pub reference: String,
    /// Ground-truth vulnerability class(es).
    pub expected: VulnFlags,
    /// The modeled program.
    pub program: Program,
    /// Inputs a legitimate user would send.
    pub benign_inputs: Vec<Vec<u64>>,
    /// Inputs that exploit the vulnerability. The first is used for patch
    /// generation; the rest verify the deployed patch against *different*
    /// attack instances (as the paper does for Heartbleed).
    pub attack_inputs: Vec<Vec<u64>>,
    /// Byte patterns whose appearance in the leak stream means the attack
    /// achieved its goal (stolen secret or successful hijack/corruption).
    pub success_markers: Vec<Vec<u8>>,
}

impl VulnApp {
    /// Judges whether a run's observable effects mean the attack succeeded.
    ///
    /// A crashed run never counts as success: turning an exploit into a
    /// clean denial of service is exactly what the paper's defenses do.
    pub fn attack_succeeded(&self, report: &RunReport) -> bool {
        self.success_markers
            .iter()
            .any(|m| contains_subslice(&report.leaked, m))
    }

    /// The attack input used for offline patch generation.
    pub fn patching_input(&self) -> &[u64] {
        &self.attack_inputs[0]
    }
}

/// Horspool substring search. A blocked Heartbleed leak is ~36 KiB, nearly
/// all zeros, and every marker is a run of one byte, so a window whose last
/// byte is not in the needle skips a whole needle length: about
/// `haystack.len() / needle.len()` probes per miss (worst case, a haystack
/// of near-matches, stays `O(haystack.len() * needle.len())` like the naive
/// scan).
pub(crate) fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    let m = needle.len();
    if m == 0 || m > haystack.len() {
        return false;
    }
    // Shift for a window ending in byte `b`: distance from b's last
    // occurrence in `needle[..m - 1]` to the end, or `m` if absent.
    let mut shift = [m; 256];
    for (i, &b) in needle[..m - 1].iter().enumerate() {
        shift[b as usize] = m - 1 - i;
    }
    let mut pos = 0;
    while pos + m <= haystack.len() {
        let last = haystack[pos + m - 1];
        if last == needle[m - 1] && &haystack[pos..pos + m] == needle {
            return true;
        }
        pos += shift[last as usize];
    }
    false
}

/// Every Table II model: the seven CVE programs plus the 23 SAMATE cases.
pub fn table2_suite() -> Vec<VulnApp> {
    let mut v = vec![
        heartbleed(),
        bc(),
        ghostxps(),
        optipng(),
        tiff(),
        wavpack(),
        libming(),
    ];
    v.extend(samate::suite());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subslice_search() {
        assert!(contains_subslice(b"hello world", b"lo wo"));
        assert!(!contains_subslice(b"hello", b"world"));
        assert!(!contains_subslice(b"hello", b""));
        assert!(contains_subslice(b"abc", b"abc"));
        assert!(!contains_subslice(b"ab", b"abc"));
    }

    fn naive_contains(haystack: &[u8], needle: &[u8]) -> bool {
        !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn subslice_search_edge_cases() {
        let marker = [SECRET_BYTE; 16];
        let mut leak = vec![0u8; 36_856];
        assert!(!contains_subslice(&leak, &marker));
        // A run one byte short of the marker, then the marker at the very end.
        leak[100..115].fill(SECRET_BYTE);
        assert!(!contains_subslice(&leak, &marker));
        let n = leak.len();
        leak[n - 16..].fill(SECRET_BYTE);
        assert!(contains_subslice(&leak, &marker));
        assert!(!contains_subslice(&marker[..8], &marker), "needle longer");
        assert!(!contains_subslice(b"", b""));
        assert!(
            contains_subslice(b"xaab", b"aab"),
            "shift past a near match"
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Small alphabets make partial matches and repeated bytes common.
            #[test]
            fn horspool_agrees_with_naive_search(
                haystack in proptest::collection::vec(0u8..3, 0..96),
                needle in proptest::collection::vec(0u8..3, 0..8),
                splice in any::<u64>(),
            ) {
                prop_assert_eq!(
                    contains_subslice(&haystack, &needle),
                    naive_contains(&haystack, &needle)
                );
                // Plant the needle somewhere (the end included) and search again.
                if needle.len() <= haystack.len() {
                    let at = (splice % (haystack.len() - needle.len() + 1) as u64) as usize;
                    let mut planted = haystack.clone();
                    planted[at..at + needle.len()].copy_from_slice(&needle);
                    prop_assert_eq!(
                        contains_subslice(&planted, &needle),
                        naive_contains(&planted, &needle)
                    );
                }
            }

            #[test]
            fn horspool_agrees_on_arbitrary_bytes(
                haystack in proptest::collection::vec(any::<u8>(), 0..256),
                needle in proptest::collection::vec(any::<u8>(), 0..4),
            ) {
                prop_assert_eq!(
                    contains_subslice(&haystack, &needle),
                    naive_contains(&haystack, &needle)
                );
            }
        }
    }

    #[test]
    fn suite_is_thirty() {
        let suite = table2_suite();
        assert_eq!(suite.len(), 30, "7 CVE models + 23 SAMATE cases");
        for app in &suite {
            assert!(!app.attack_inputs.is_empty(), "{}", app.name);
            assert!(!app.benign_inputs.is_empty(), "{}", app.name);
            assert!(!app.success_markers.is_empty(), "{}", app.name);
            assert!(!app.expected.is_empty(), "{}", app.name);
        }
    }

    #[test]
    fn suite_names_are_unique() {
        let suite = table2_suite();
        let mut names: Vec<&str> = suite.iter().map(|a| a.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }
}
