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

/// Substring search built for leak streams. A blocked Heartbleed leak is
/// ~36 KiB, nearly all zeros, and every marker is a run of a byte that
/// rarely occurs, so the scan looks at 64-byte blocks of possible start
/// positions: an OR-reduction over a block (which the compiler vectorizes)
/// says whether the needle's first byte occurs in it, and only a block that
/// hits compares the needle at its candidate positions. The worst case, a
/// haystack of near-matches, stays `O(haystack.len() * needle.len())` like
/// the naive scan.
pub(crate) fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    const BLOCK: usize = 64;
    let Some(&first) = needle.first() else {
        return false;
    };
    if needle.len() > haystack.len() {
        return false;
    }
    // Every position a match can start at.
    let starts = &haystack[..=haystack.len() - needle.len()];
    let matches_in = |block: &[u8], base: usize| {
        block.iter().fold(false, |hit, &b| hit | (b == first))
            && (0..block.len())
                .any(|i| block[i] == first && haystack[base + i..].starts_with(needle))
    };
    let blocks = starts.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    let tail_base = starts.len() - tail.len();
    blocks
        .enumerate()
        .any(|(k, block)| matches_in(block, k * BLOCK))
        || matches_in(tail, tail_base)
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

    #[test]
    fn subslice_search_across_blocks() {
        let marker = [SECRET_BYTE; 16];
        let check = |hay: &[u8], needle: &[u8]| {
            assert_eq!(
                contains_subslice(hay, needle),
                naive_contains(hay, needle),
                "len {} needle {needle:?}",
                hay.len()
            );
            contains_subslice(hay, needle)
        };
        // A needle straddling the boundary between the first two blocks,
        // and a first-byte hit in block 0 whose match fails in block 1.
        let mut hay = vec![0u8; 200];
        hay[56..72].fill(SECRET_BYTE);
        assert!(check(&hay, &marker));
        hay[71] = 0;
        assert!(!check(&hay, &marker));
        // A match at the last possible start position, which is the only
        // start in its (partial) block.
        for len in [16, 79, 80, 81, 128, 143, 144, 200] {
            let mut hay = vec![0u8; len];
            hay[len - 16..].fill(SECRET_BYTE);
            assert!(check(&hay, &marker), "len {len}");
            hay[len - 1] = 0;
            assert!(!check(&hay, &marker), "len {len}");
        }
        // The first byte occurs only in the final partial block: as a
        // start that matches, and as bytes too close to the end to start
        // a match.
        let mut hay = vec![0u8; 64 * 3 + 20];
        hay[64 * 3 + 2] = ATTACK_BYTE;
        hay[64 * 3 + 3] = SPRAY_BYTE;
        assert!(check(&hay, &[ATTACK_BYTE, SPRAY_BYTE]));
        assert!(!check(&hay, &[ATTACK_BYTE, SPRAY_BYTE, 1]));
        hay[64 * 3 + 15..].fill(SECRET_BYTE);
        assert!(!check(&hay, &marker), "a 5-byte run at the end");
        // A blocked Heartbleed leak: 36 KiB of zeros with one planted
        // marker, at every offset mod the block size.
        let mut leak = vec![0u8; 36 * 1024];
        assert!(!check(&leak, &marker));
        for at in [
            0,
            1,
            48,
            63,
            64,
            20_000 + 50,
            leak.len() - 17,
            leak.len() - 16,
        ] {
            leak[at..at + 16].fill(SECRET_BYTE);
            assert!(check(&leak, &marker), "planted at {at}");
            leak[at..at + 16].fill(0);
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Small alphabets make partial matches and repeated bytes common.
            #[test]
            fn search_agrees_with_naive_search(
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

            /// Mostly-zero haystacks a few blocks long, with a handful of
            /// planted bytes: the first byte hits few blocks, and matches
            /// straddle block boundaries.
            #[test]
            fn search_agrees_on_sparse_multi_block_haystacks(
                len in 0usize..400,
                marks in proptest::collection::vec((any::<u16>(), 1u8..3, 1usize..20), 0..6),
                needle in proptest::collection::vec(0u8..3, 1..20),
            ) {
                let mut haystack = vec![0u8; len];
                for &(at, byte, run) in &marks {
                    let at = at as usize % len.max(1);
                    let end = (at + run).min(len);
                    haystack[at..end].fill(byte);
                }
                prop_assert_eq!(
                    contains_subslice(&haystack, &needle),
                    naive_contains(&haystack, &needle)
                );
            }

            #[test]
            fn search_agrees_on_arbitrary_bytes(
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
