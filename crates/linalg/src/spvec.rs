//! Sparse vectors and sparse-vector × CSR propagation kernels.
//!
//! An anchored meta-path query reads **one row** of a commuting matrix:
//! `row_x(M₁·M₂·…·Mₙ) = eₓᵀ·M₁·M₂·…·Mₙ`. Evaluating that as a chain of
//! sparse-vector × matrix products ([`spvm_chain`]) costs the work of the
//! rows actually reached — typically orders of magnitude less than
//! materializing the full product chain — at the price of sharing nothing
//! with later queries. The query engine's cost-based execution-mode
//! planner (`hin-query`) chooses between the two per query;
//! [`spvm_flops_estimate`] / [`spvm_chain_flops_estimate`] are its cost
//! model for this side of the comparison.
//!
//! The kernels and `Csr::spgemm`'s inner loop are the same function
//! (`ScatterScratch::product_row`: dense-accumulator scatter with first
//! touches marked in a column bitmap, gathered in increasing column
//! order), so a propagated row is
//! **bit-identical** to the corresponding row of the left-to-right matrix
//! product — and identical to *any* evaluation order whenever the
//! arithmetic is exact (e.g. integer-valued weights, the common case for
//! path counts). A micro-batch of same-span anchors is a loop of that
//! propagation over one scratch ([`spvm_chain_rows`]), fanned across the
//! kernel pool only when the batch is large enough to pay for a thread.

use crate::chain::MatSummary;
use crate::csr::{Csr, ScatterScratch};

/// A sparse `f64` vector: sorted indices with parallel values.
///
/// The row-vector counterpart of [`Csr`]: `indices` are strictly
/// increasing positions below `dim`, `values` their entries. Used as the
/// carrier of anchored-query row propagation.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Build from parallel arrays.
    ///
    /// # Panics
    /// Panics when the arrays differ in length, an index is out of bounds,
    /// or indices are not strictly increasing.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "SparseVec::new: {} indices vs {} values",
            indices.len(),
            values.len()
        );
        for w in indices.windows(2) {
            assert!(
                w[0] < w[1],
                "SparseVec::new: indices must be strictly increasing"
            );
        }
        if let Some(&last) = indices.last() {
            assert!(
                (last as usize) < dim,
                "SparseVec::new: index {last} out of bounds for dim {dim}"
            );
        }
        Self {
            dim,
            indices,
            values,
        }
    }

    /// The empty vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The unit vector `e_i`.
    ///
    /// # Panics
    /// Panics when `i >= dim`.
    pub fn unit(dim: usize, i: usize) -> Self {
        assert!(
            i < dim,
            "SparseVec::unit: index {i} out of bounds for {dim}"
        );
        Self {
            dim,
            indices: vec![i as u32],
            values: vec![1.0],
        }
    }

    /// Copy row `r` of a CSR matrix — the free first link of an anchored
    /// propagation (`eₓᵀ·M` *is* row `x` of `M`).
    pub fn from_csr_row(m: &Csr, r: usize) -> Self {
        let (idx, vals) = m.row(r);
        Self {
            dim: m.ncols(),
            indices: idx.to_vec(),
            values: vals.to_vec(),
        }
    }

    /// Dimension of the (mostly implicit) dense form.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Stored positions, strictly increasing.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values, parallel to [`SparseVec::indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at position `i`; zero when not stored.
    pub fn get(&self, i: usize) -> f64 {
        match self.indices.binary_search(&(i as u32)) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterate `(position, value)` over stored entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .map(|&i| i as usize)
            .zip(self.values.iter().copied())
    }

    /// `Σ vᵢ²` — the self dot product, summed in index order. For a
    /// propagated half-path row `eᵧᵀ·H` this is the commuting-matrix
    /// diagonal `M[y][y]` of the palindromic path `H·Hᵀ`, which is how the
    /// anchored fast path computes PathSim normalizers without `M`.
    pub fn dot_self(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Sparse dot product `Σ uᵢ·vᵢ`, merge-joining the sorted index lists
    /// and summing in index order. With `u = eᵧᵀ·H` this evaluates the
    /// diagonal `eᵧᵀ·H·L·Hᵀ·eᵧ = (u·L)·uᵀ` of an **odd**-length
    /// palindromic path (middle matrix `L`) — the normalizer shape
    /// [`SparseVec::dot_self`] cannot express.
    ///
    /// # Panics
    /// Panics when the dimensions differ.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        assert_eq!(
            self.dim, other.dim,
            "SparseVec::dot: dim {} vs {}",
            self.dim, other.dim
        );
        let mut sum = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Dense copy (tests and small-vector interop).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            out[i] = v;
        }
        out
    }
}

/// Sparse row-vector × CSR product `vᵀ·M`, allocating fresh scratch.
///
/// # Panics
/// Panics when `v.dim() != m.nrows()`.
pub fn spvm(v: &SparseVec, m: &Csr) -> SparseVec {
    spvm_with(v, m, &mut ScatterScratch::new())
}

/// [`spvm`] reusing a caller-owned [`ScatterScratch`].
///
/// One call of the row kernel `Csr::spgemm` runs per output row
/// (`ScatterScratch::product_row`), with `v` as the row — so a propagated
/// row is bit-identical to the same row of the left-to-right materialized
/// product.
///
/// # Panics
/// Panics when `v.dim() != m.nrows()`.
pub fn spvm_with(v: &SparseVec, m: &Csr, scratch: &mut ScatterScratch) -> SparseVec {
    assert_eq!(
        v.dim(),
        m.nrows(),
        "spvm: vector dim {} vs matrix rows {}",
        v.dim(),
        m.nrows()
    );
    crate::counters::with(|c| {
        use std::sync::atomic::Ordering::Relaxed;
        let ops: usize = v.indices.iter().map(|&k| m.row_nnz(k as usize)).sum();
        c.spvm_calls.fetch_add(1, Relaxed);
        c.spvm_flops.fetch_add(ops as u64, Relaxed);
    });
    scratch.prepare(m.ncols());
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    scratch.product_row(&v.indices, &v.values, m, &mut indices, &mut values);
    SparseVec {
        dim: m.ncols(),
        indices,
        values,
    }
}

/// Propagate `v` through a chain of matrices: `vᵀ·M₁·M₂·…·Mₙ`, reusing one
/// scratch allocation across every link.
///
/// # Panics
/// Panics on a dimension mismatch at any link.
pub fn spvm_chain(v: &SparseVec, mats: &[&Csr]) -> SparseVec {
    spvm_chain_with(v, mats, &mut ScatterScratch::new())
}

/// [`spvm_chain`] reusing a caller-owned [`ScatterScratch`] — the form the
/// query engine drives when it propagates many candidates through one
/// half-path (PathSim normalizers).
///
/// # Panics
/// Panics on a dimension mismatch at any link.
pub fn spvm_chain_with(v: &SparseVec, mats: &[&Csr], scratch: &mut ScatterScratch) -> SparseVec {
    let mut cur = None;
    for &m in mats {
        let next = spvm_with(cur.as_ref().unwrap_or(v), m, scratch);
        cur = Some(next);
    }
    cur.unwrap_or_else(|| v.clone())
}

/// Rows `rows` of `seed·M₁·…·Mₙ`, in the order given (duplicates allowed):
/// one [`spvm_chain_with`] per row, started from the row's copy out of
/// `seed` — how a micro-batch of same-span anchors propagates. An empty
/// chain returns the seed rows themselves.
///
/// The loop runs inline on the caller's `scratch`. It is fanned across
/// `threads` workers of [`crate::pool`] (slices of `rows` balanced by
/// forecast work, a fresh scratch each, results back in order —
/// bit-identical by construction) only when the batch is worth a thread:
/// when the chain cost model ([`spvm_chain_flops_estimate`], per row)
/// forecasts at least
/// [`PARALLEL_MIN_FLOPS`](crate::pool::PARALLEL_MIN_FLOPS) for it.
///
/// # Panics
/// Panics when a row is out of bounds for `seed`, or on a dimension
/// mismatch at any link.
pub fn spvm_chain_rows(
    seed: &Csr,
    rows: &[usize],
    mats: &[&Csr],
    threads: usize,
    scratch: &mut ScatterScratch,
) -> Vec<SparseVec> {
    use std::sync::atomic::Ordering::Relaxed;
    let chain = |rows: &[usize], scratch: &mut ScatterScratch| -> Vec<SparseVec> {
        rows.iter()
            .map(|&r| spvm_chain_with(&SparseVec::from_csr_row(seed, r), mats, scratch))
            .collect()
    };
    if rows.len() < 2 {
        return chain(rows, scratch);
    }
    crate::counters::with(|c| {
        c.block_anchors.fetch_add(rows.len() as u64, Relaxed);
    });
    if threads <= 1 {
        return chain(rows, scratch);
    }
    let summaries: Vec<MatSummary> = mats.iter().map(|m| MatSummary::from(*m)).collect();
    let est_flops: Vec<usize> = rows
        .iter()
        .map(|&r| spvm_chain_flops_estimate(seed.row_nnz(r) as f64, &summaries).flops as usize)
        .collect();
    if est_flops.iter().sum::<usize>() < crate::pool::PARALLEL_MIN_FLOPS {
        return chain(rows, scratch);
    }
    let slices = crate::pool::row_blocks(rows.len(), threads, |i| est_flops[i]);
    crate::counters::with(|c| {
        c.row_blocks.fetch_add(slices.len() as u64, Relaxed);
    });
    crate::pool::run_blocks(slices, |slice| {
        chain(&rows[slice], &mut ScatterScratch::new())
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Expected multiply-adds of one `vᵀ·M` product with `vec_nnz` stored
/// entries: each entry scatters one row of `m`, and rows average
/// `nnz / rows` entries. The vector can't reach more rows than exist, so
/// `vec_nnz` is clamped to `m.rows`.
pub fn spvm_flops_estimate(vec_nnz: f64, m: &MatSummary) -> f64 {
    if m.rows == 0 {
        return 0.0;
    }
    vec_nnz.min(m.rows as f64) * (m.nnz as f64 / m.rows as f64)
}

/// Cost forecast of a whole [`spvm_chain`]: total expected flops plus the
/// expected nnz of the propagated vector after the last link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpvmChainEstimate {
    /// Expected multiply-adds across all links.
    pub flops: f64,
    /// Expected stored entries of the final vector (also the expected
    /// candidate count of an anchored query ending here).
    pub out_nnz: f64,
}

/// Estimate the cost of propagating a vector with `start_nnz` expected
/// entries through the chain, link by link: each link costs
/// [`spvm_flops_estimate`] and densifies the vector per
/// [`crate::spmm_nnz_estimate`] (a one-row product). This is the
/// sparse-row side of the execution-mode cost comparison in `hin-query`.
pub fn spvm_chain_flops_estimate(start_nnz: f64, mats: &[MatSummary]) -> SpvmChainEstimate {
    let mut flops = 0.0;
    let mut nnz = start_nnz;
    for m in mats {
        let link = spvm_flops_estimate(nnz, m);
        flops += link;
        nnz = crate::chain::spmm_nnz_estimate(1, m.cols, link);
    }
    SpvmChainEstimate {
        flops,
        out_nnz: nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> (Csr, Csr, Csr) {
        let a = Csr::from_triplets(
            4,
            3,
            [
                (0u32, 0u32, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (3, 2, 5.0),
            ],
        );
        let b = Csr::from_triplets(
            3,
            5,
            [(0u32, 1u32, 2.0), (0, 4, 1.0), (1, 0, 1.0), (2, 3, 4.0)],
        );
        let c = Csr::from_triplets(
            5,
            2,
            [(0u32, 0u32, 1.0), (1, 1, 2.0), (3, 0, 3.0), (4, 1, 1.0)],
        );
        (a, b, c)
    }

    #[test]
    fn construction_and_accessors() {
        let v = SparseVec::new(6, vec![1, 4], vec![2.0, -1.0]);
        assert_eq!(v.dim(), 6);
        assert_eq!(v.nnz(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.get(4), -1.0);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v.to_dense(), vec![0.0, 2.0, 0.0, 0.0, -1.0, 0.0]);
        assert_eq!(v.dot_self(), 5.0);
        assert!(SparseVec::zeros(3).is_empty());
        let e = SparseVec::unit(4, 2);
        assert_eq!(e.to_dense(), vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sparse_dot_merge_joins() {
        let u = SparseVec::new(6, vec![0, 2, 5], vec![2.0, 3.0, -1.0]);
        let v = SparseVec::new(6, vec![1, 2, 5], vec![7.0, 4.0, 2.0]);
        assert_eq!(u.dot(&v), 3.0 * 4.0 - 2.0);
        assert_eq!(u.dot(&u), u.dot_self());
        assert_eq!(u.dot(&SparseVec::zeros(6)), 0.0);
    }

    #[test]
    #[should_panic(expected = "dim 3 vs 4")]
    fn mismatched_dot_panics() {
        let _ = SparseVec::zeros(3).dot(&SparseVec::zeros(4));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_indices_panic() {
        let _ = SparseVec::new(5, vec![3, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let _ = SparseVec::new(2, vec![2], vec![1.0]);
    }

    #[test]
    fn spvm_matches_dense_row_product() {
        let (a, _, _) = chain3();
        for r in 0..a.nrows() {
            let e = SparseVec::unit(a.nrows(), r);
            let got = spvm(&e, &a);
            assert_eq!(got.to_dense(), {
                let (idx, vals) = a.row(r);
                let mut dense = vec![0.0; a.ncols()];
                for (&c, &v) in idx.iter().zip(vals) {
                    dense[c as usize] = v;
                }
                dense
            });
        }
    }

    #[test]
    fn unit_propagation_is_bit_identical_to_matrix_row() {
        let (a, b, c) = chain3();
        let product = a.spgemm(&b).spgemm(&c);
        for x in 0..a.nrows() {
            let row = spvm_chain(&SparseVec::unit(a.nrows(), x), &[&a, &b, &c]);
            let (idx, vals) = product.row(x);
            assert_eq!(row.indices(), idx, "structure of row {x}");
            let same_bits = row
                .values()
                .iter()
                .zip(vals)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same_bits, "row {x}: {:?} vs {:?}", row.values(), vals);
        }
    }

    #[test]
    fn from_csr_row_seeds_the_chain() {
        let (a, b, c) = chain3();
        // seeding with row x of a ≡ propagating e_x through [a, b, c]
        for x in 0..a.nrows() {
            let via_unit = spvm_chain(&SparseVec::unit(a.nrows(), x), &[&a, &b, &c]);
            let via_seed = spvm_chain(&SparseVec::from_csr_row(&a, x), &[&b, &c]);
            assert_eq!(via_unit, via_seed);
        }
    }

    #[test]
    fn empty_chain_clones_the_input() {
        let v = SparseVec::new(3, vec![0, 2], vec![1.5, -2.0]);
        assert_eq!(spvm_chain(&v, &[]), v);
    }

    /// A deterministic scattered `rows × cols` matrix, `per_row` entries a
    /// row, small non-integer weights so summation order shows in the bits.
    fn scattered(rows: usize, cols: usize, per_row: usize, salt: usize) -> Csr {
        Csr::from_triplets(
            rows,
            cols,
            (0..rows).flat_map(|r| {
                (0..per_row).map(move |j| {
                    let c = (r * 31 + j * 17 + salt * 7 + j * j) % cols;
                    (
                        r as u32,
                        c as u32,
                        0.1 + ((r + 3 * j + salt) % 11) as f64 * 0.3,
                    )
                })
            }),
        )
    }

    /// Row `i` of `got` is, index for index and bit for bit, what one
    /// `spvm_chain` from row `rows[i]` of `seed` produces.
    fn assert_rows_match_per_anchor(got: &[SparseVec], seed: &Csr, rows: &[usize], mats: &[&Csr]) {
        assert_eq!(got.len(), rows.len());
        for (g, &r) in got.iter().zip(rows) {
            let want = spvm_chain(&SparseVec::from_csr_row(seed, r), mats);
            assert_eq!(g.dim(), want.dim(), "anchor {r} dim");
            assert_eq!(g.indices(), want.indices(), "anchor {r} structure");
            let same_bits = g
                .values()
                .iter()
                .zip(want.values())
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same_bits, "anchor {r} values");
        }
    }

    #[test]
    fn chain_matches_per_anchor_propagation_bitwise() {
        let (a, b, c) = chain3();
        let anchors = [3usize, 0, 2];
        let got = spvm_chain_rows(&a, &anchors, &[&b, &c], 1, &mut ScatterScratch::new());
        assert_rows_match_per_anchor(&got, &a, &anchors, &[&b, &c]);
        // seeding from `a`'s rows is propagating unit vectors through it
        for (g, &x) in got.iter().zip(&anchors) {
            assert_eq!(*g, spvm_chain(&SparseVec::unit(4, x), &[&a, &b, &c]));
        }
    }

    #[test]
    fn parallel_chain_is_bit_identical_to_serial() {
        // a batch too small to fan out, duplicate anchors included
        let (a, b, c) = chain3();
        let anchors = [3usize, 0, 2, 1, 3, 0];
        for threads in [1, 2, 4, 16] {
            let got = spvm_chain_rows(&a, &anchors, &[&b, &c], threads, &mut ScatterScratch::new());
            assert_rows_match_per_anchor(&got, &a, &anchors, &[&b, &c]);
        }
        // and one forecast over the floor, so workers really run
        let seed = scattered(64, 256, 32, 1);
        let (m1, m2) = (scattered(256, 256, 32, 2), scattered(256, 40, 6, 3));
        let rows: Vec<usize> = (0..64).rev().chain([5, 5, 63]).collect();
        let links = [MatSummary::from(&m1), MatSummary::from(&m2)];
        let forecast: f64 = rows
            .iter()
            .map(|&r| spvm_chain_flops_estimate(seed.row_nnz(r) as f64, &links).flops)
            .sum();
        assert!(
            forecast >= crate::pool::PARALLEL_MIN_FLOPS as f64,
            "{forecast}"
        );
        for threads in [1, 2, 4, 16] {
            let got = spvm_chain_rows(
                &seed,
                &rows,
                &[&m1, &m2],
                threads,
                &mut ScatterScratch::new(),
            );
            assert_rows_match_per_anchor(&got, &seed, &rows, &[&m1, &m2]);
        }
    }

    #[test]
    fn empty_chain_clones_the_block() {
        let (a, _, _) = chain3();
        for threads in [1, 4] {
            let got = spvm_chain_rows(&a, &[1, 2], &[], threads, &mut ScatterScratch::new());
            let want = [
                SparseVec::from_csr_row(&a, 1),
                SparseVec::from_csr_row(&a, 2),
            ];
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zero_row_block_propagates_to_zero_rows() {
        let (a, b, _) = chain3();
        assert!(spvm_chain_rows(&a, &[], &[&b], 4, &mut ScatterScratch::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_anchor_panics() {
        let (a, b, _) = chain3();
        let _ = spvm_chain_rows(&a, &[4], &[&b], 1, &mut ScatterScratch::new());
    }

    #[test]
    fn scratch_reuse_across_widths_stays_clean() {
        let (a, b, c) = chain3();
        let mut scratch = ScatterScratch::new();
        // widest matrix first, then narrower: stale accumulator state
        // would corrupt the second product
        let wide = spvm_with(&SparseVec::unit(3, 0), &b, &mut scratch);
        assert_eq!(wide.to_dense(), vec![0.0, 2.0, 0.0, 0.0, 1.0]);
        let narrow = spvm_with(&SparseVec::unit(4, 0), &a, &mut scratch);
        assert_eq!(narrow.to_dense(), vec![1.0, 0.0, 2.0]);
        let chained = spvm_chain_with(&SparseVec::unit(4, 0), &[&a, &b, &c], &mut scratch);
        assert_eq!(
            chained,
            spvm_chain(&SparseVec::unit(4, 0), &[&a, &b, &c]),
            "scratch-reusing chain must match the allocating one"
        );
    }

    #[test]
    fn cancellation_does_not_duplicate_entries() {
        // v·m where partial sums cancel acc[0] back to 0.0 mid-row, then
        // revive it: the entry must emit once, not twice
        let v = SparseVec::new(3, vec![0, 1, 2], vec![1.0, 1.0, 1.0]);
        let m = Csr::from_triplets(3, 2, [(0u32, 0u32, 1.0), (1, 0, -1.0), (2, 0, 1.0)]);
        let got = spvm(&v, &m);
        assert_eq!(got.indices(), &[0]);
        assert_eq!(got.values(), &[1.0]);
    }

    #[test]
    fn flops_estimates_track_density() {
        let m = MatSummary {
            rows: 10,
            cols: 20,
            nnz: 40,
        };
        // 2 entries × 4 avg row nnz
        assert_eq!(spvm_flops_estimate(2.0, &m), 8.0);
        // a vector can't reach more rows than exist
        assert_eq!(spvm_flops_estimate(1e9, &m), 40.0);
        assert_eq!(
            spvm_flops_estimate(
                3.0,
                &MatSummary {
                    rows: 0,
                    cols: 0,
                    nnz: 0
                }
            ),
            0.0
        );

        let chain = [
            MatSummary {
                rows: 100,
                cols: 50,
                nnz: 400,
            },
            MatSummary {
                rows: 50,
                cols: 1000,
                nnz: 5000,
            },
        ];
        let est = spvm_chain_flops_estimate(1.0, &chain);
        assert!(est.flops > 0.0);
        assert!(est.out_nnz > 0.0 && est.out_nnz <= 1000.0);
        // propagation from one anchor must be forecast far cheaper than
        // materializing the full 100×1000 product
        let full = crate::chain::spmm_chain_order(&chain).est_flops;
        assert!(est.flops < full, "lazy {} vs full {full}", est.flops);
    }
}
