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
//!
//! Short rows never reach the steady state where the floor refuses
//! candidates, so long rows (100–3 000 entries) are drawn too, from a
//! hostile palette: negative weights, ±0, the smallest subnormal, values
//! whose doubling or product with the floor overflows, infinite and NaN
//! self-counts (so `M[x,x] + M[y,y]` is ≤ 0 or NaN), rows of exact ties at
//! the k-th score, rows whose scores sit a rounding step apart, rows of
//! negative floors, and rows near `f64::MAX`.

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

/// Every hostile value at once: signs, zeros, the smallest subnormal, 1e300
/// and 1.7e308 (whose doubling overflows), infinities and a NaN.
const HOSTILE: [f64; 14] = [
    1.0,
    2.0,
    3.0,
    -1.5,
    0.0,
    -0.0,
    5e-324,
    1e300,
    1.7e308,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    0.1,
    0.7,
];

/// Self-counts `s` for which `fl(fl(0.23·d) / d) > 0.23` with `d = 1 + s`:
/// a candidate with `2·M[x,y] = fl(0.23·d)` scores a rounding step above a
/// floor of 0.23, yet `2·M[x,y] ≤ fl(0.23·d)` — only the `1 − 2⁻⁴⁰` margin
/// keeps the refusal from taking it.
const ABOVE_023: [f64; 8] = [0.1, 0.2, 0.3, 1.2, 1.3, 1.4, 1.5, 3.4];

/// The anchor's self-count `M[x,x]` for palette `kind`, from pick `a`.
fn anchor_self_count(kind: usize, a: usize) -> f64 {
    match kind {
        0 => HOSTILE[a % HOSTILE.len()],
        1 => [1.0, 2.0][a % 2],
        2 => 1.0,
        3 => [1.0, -0.5, 0.5][a % 3],
        _ => [0.5, 1e300][a % 2],
    }
}

/// One candidate's `(M[x,y], M[y,y])` for palette `kind`, from picks `p`
/// and `q`:
/// - 0, hostile: any two [`HOSTILE`] values, so NaN, ±∞ and overflow meet
///   every branch;
/// - 1, ties: 1 or 2 each, so thousands of candidates tie at the k-th
///   score;
/// - 2, near: scores of exactly 0.23, a rounding step above it
///   ([`ABOVE_023`]) and just below it, a floor a margin-free refusal gets
///   wrong;
/// - 3, signs: mostly negative counts and self-counts, so floors are
///   negative or zero and `M[x,x] + M[y,y]` is often ≤ 0 (score 0);
/// - 4, overflow: counts near `f64::MAX` over small and 1e300 self-counts,
///   so a positive normal floor meets an overflowing `2·M[x,y]` and an
///   overflowing `b·d`.
fn candidate(kind: usize, p: usize, q: usize) -> (f64, f64) {
    match kind {
        0 => (HOSTILE[p % HOSTILE.len()], HOSTILE[q % HOSTILE.len()]),
        1 => ([1.0, 2.0][p % 2], [1.0, 2.0][q % 2]),
        2 => {
            let s = ABOVE_023[q % ABOVE_023.len()];
            let above = 0.23 * (1.0 + s) / 2.0;
            match p % 3 {
                0 => (0.23, 1.0),
                1 => (above, s),
                _ => (f64::from_bits(above.to_bits() - 1), s),
            }
        }
        3 => (
            [-1.0, -2.0, -0.5, -0.0, 0.0, 1.0, 5e-324][p % 7],
            [-1.5, -0.5, 1.0, 2.0, 0.0, 5e-324][q % 6],
        ),
        _ => (
            [8e307, 1.7e308, 1.0, 1e300][p % 4],
            [0.5, 2.0, 1e300][q % 3],
        ),
    }
}

/// One long anchor row and its anchor: 100–3 000 candidates from one
/// palette (a pick of 16 leaves the column empty, so the row has gaps),
/// each with its own self-count.
fn long_rows() -> impl Strategy<Value = (Csr, usize)> {
    (
        0usize..5,
        0usize..16,
        prop::collection::vec((0usize..17, 0usize..16), 100..3000),
        0usize..3000,
    )
        .prop_map(|(kind, a, picks, at)| {
            let n = picks.len() + 1;
            let x = at % n;
            let mut triplets = vec![(x as u32, x as u32, anchor_self_count(kind, a))];
            for (i, &(p, q)) in picks.iter().enumerate() {
                let y = (if i < x { i } else { i + 1 }) as u32;
                let (mxy, myy) = candidate(kind, p, q);
                if p < 16 {
                    triplets.push((x as u32, y, mxy));
                }
                triplets.push((y, y, myy));
            }
            (Csr::from_triplets(n, n, triplets), x)
        })
}

proptest! {
    #[test]
    fn long_hostile_rows_equal_the_brute_force_definition((m, x) in long_rows()) {
        let diag = m.diagonal();
        let all = brute_force(&m, x, usize::MAX);
        let len = all.len();
        for k in [0, 1, 2, 8, 10, len / 2] {
            let want = bits(&all[..k.min(len)]);
            prop_assert_eq!(
                bits(&top_k_pathsim(&m, x, k)), want.clone(),
                "top_k_pathsim, anchor {} k {} of {}", x, k, len
            );
            prop_assert_eq!(
                bits(&top_k_pathsim_with_diagonal(&m, &diag, x, k)), want,
                "top_k_pathsim_with_diagonal, anchor {} k {} of {}", x, k, len
            );
        }
    }

    #[test]
    fn streaming_selector_is_sort_then_truncate_in_any_id_order(
        scores in prop::collection::vec(0usize..8, 0..80),
        salt in 0usize..101,
    ) {
        // unique ids in scrambled order (37 is a unit mod 101), so a tie
        // at the floor arrives with a smaller id as often as a larger one
        let palette = [0.0, -0.0, 1.0, 1.0, 0.5, f64::NAN, -f64::NAN, f64::INFINITY];
        let row: Vec<(usize, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ((i * 37 + salt) % 101, palette[s]))
            .collect();
        let mut sorted = row.clone();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let len = row.len();
        for k in [0, 1, 2, len / 2, len.saturating_sub(1), len] {
            let mut top = TopK::new(k, len);
            for &(id, score) in &row {
                top.push(id, score);
            }
            prop_assert_eq!(bits(&top.into_sorted()), bits(&sorted[..k.min(len)]), "k {} of {}", k, len);
        }
    }
}
