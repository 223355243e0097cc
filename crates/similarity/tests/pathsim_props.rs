//! Property tests for the row-time PathSim entry points: on random
//! symmetric matrices, `top_k_pathsim` (one search per candidate) and
//! `top_k_pathsim_with_diagonal` (none) must both equal the brute-force
//! definition — `pathsim_pair` per candidate, full sort, truncate — in ids
//! **and** score bits, for every anchor and every interesting `k`.
//!
//! Weights come from a six-value palette, half integers and half not, so
//! score ties are common (the id tie-break is exercised) and non-integer
//! sums are covered; diagonal entries exist only where drawn, so zero
//! self-counts and `0/0` candidates occur; `n` outruns the edge draw, so
//! empty rows occur. The streaming [`TopK`] selector behind every ranking
//! site is held to the same sort-then-truncate definition.

use hin_linalg::Csr;
use hin_similarity::{pathsim_pair, top_k, top_k_pathsim, top_k_pathsim_with_diagonal, TopK};
use proptest::prelude::*;

const WEIGHTS: [f64; 6] = [1.0, 2.0, 3.0, 0.1, 0.3, 1.7];

fn symmetric_matrices() -> impl Strategy<Value = Csr> {
    (
        1usize..14,
        prop::collection::vec((0usize..14, 0usize..14, 0usize..6), 0..60),
    )
        .prop_map(|(n, draws)| {
            let mut triplets = Vec::new();
            for (i, j, w) in draws {
                let (i, j, w) = ((i % n) as u32, (j % n) as u32, WEIGHTS[w]);
                triplets.push((i, j, w));
                if i != j {
                    triplets.push((j, i, w));
                }
            }
            Csr::from_triplets(n, n, triplets)
        })
}

/// The definition of record: score every candidate with `pathsim_pair`,
/// sort the whole row, cut.
fn brute_force(m: &Csr, x: usize, k: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = m
        .row_indices(x)
        .iter()
        .map(|&y| y as usize)
        .filter(|&y| y != x)
        .map(|y| (y, pathsim_pair(m, x, y)))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn bits(items: &[(usize, f64)]) -> Vec<(usize, u64)> {
    items.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

proptest! {
    #[test]
    fn both_entry_points_equal_the_brute_force_definition(m in symmetric_matrices()) {
        let diag = m.diagonal();
        prop_assert_eq!(diag.len(), m.nrows());
        for (i, d) in diag.iter().enumerate() {
            prop_assert_eq!(d.to_bits(), m.get(i, i).to_bits(), "diagonal()[{}]", i);
        }
        for x in 0..m.nrows() {
            let len = m.row_indices(x).iter().filter(|&&y| y as usize != x).count();
            for k in [1, len.saturating_sub(1), len, len + 1, usize::MAX] {
                let want = bits(&brute_force(&m, x, k));
                prop_assert_eq!(
                    bits(&top_k_pathsim(&m, x, k)), want.clone(),
                    "top_k_pathsim, anchor {} k {}", x, k
                );
                prop_assert_eq!(
                    bits(&top_k_pathsim_with_diagonal(&m, &diag, x, k)), want,
                    "top_k_pathsim_with_diagonal, anchor {} k {}", x, k
                );
            }
        }
    }

    #[test]
    fn top_k_is_full_sort_then_truncate(
        scores in prop::collection::vec(0usize..8, 0..40),
        k in 0usize..45,
    ) {
        // ids are positions (unique); the score palette forces ties and
        // carries the values `partial_cmp` and `total_cmp` disagree on
        let palette = [0.0, -0.0, 1.0, 1.0, 0.5, f64::NAN, -f64::NAN, f64::INFINITY];
        let scored: Vec<(usize, f64)> =
            scores.iter().enumerate().map(|(id, &s)| (id, palette[s])).collect();
        let mut want = scored.clone();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        want.truncate(k);
        prop_assert_eq!(bits(&top_k(scored.clone(), k)), bits(&want));
        prop_assert_eq!(bits(&top_k(scored, usize::MAX)).len(), scores.len());
    }

    #[test]
    fn streaming_selector_is_sort_then_truncate(
        draws in prop::collection::vec((0usize..8, 0usize..1000), 0..60),
        announced_extra in 0usize..3,
    ) {
        // a row as the kernels produce one: ids unique and ascending (with
        // gaps), scores from the palette above — ties, ±0, NaNs of both
        // signs and ∞
        let palette = [0.0, -0.0, 1.0, 1.0, 0.5, f64::NAN, -f64::NAN, f64::INFINITY];
        let mut id = 0;
        let row: Vec<(usize, f64)> = draws
            .iter()
            .map(|&(s, gap)| {
                id += 1 + gap % 3;
                (id, palette[s])
            })
            .collect();
        let mut sorted = row.clone();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let len = row.len();
        for k in [0, 1, len.saturating_sub(1), len, len + 1, usize::MAX] {
            let want = bits(&sorted[..k.min(len)]);
            // announced exactly, over-announced (a filtered row), and
            // under-announced: the answer is the same every way
            for announced in [len, len + announced_extra, len / 2] {
                let mut top = TopK::new(k, announced);
                for &(id, score) in &row {
                    top.push(id, score);
                }
                prop_assert_eq!(
                    bits(&top.into_sorted()), want.clone(),
                    "k {} announced {} of {}", k, announced, len
                );
            }
        }
    }
}
