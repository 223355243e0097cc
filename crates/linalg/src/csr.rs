//! Compressed sparse row matrices.
//!
//! [`Csr`] doubles as the adjacency representation for every network in the
//! workspace (`hin-core` builds typed relations out of it) and as a numeric
//! sparse matrix for the linear-algebra-flavoured algorithms (PathSim
//! commuting matrices, PageRank transition matrices).

use crate::arena::ArenaView;
use crate::dense::DMat;

/// Reusable dense-accumulator scratch for the scatter/gather sparse
/// kernels ([`Csr::spgemm_with`], [`crate::spvec::spvm_with`]), and the
/// home of the one row kernel both run (`product_row`).
///
/// The kernel expands one sparse row (or vector) into a dense accumulator,
/// marking each column's first touch in a column bitmap, then gathers the
/// marked columns back out in increasing order by walking the bitmap. The
/// buffers are as wide as the widest operand seen, so chained products
/// (`spmm_chain`, `spvm_chain`) reuse one allocation across every link
/// instead of paying a fresh `vec![0.0; ncols]` per product.
///
/// Invariant between uses: `acc` and `mark` are all zeros — the kernel
/// restores this as it gathers, so a scratch can be shared freely across
/// calls, but not across threads: it is `&mut` to every kernel. A caller
/// that keeps one per thread for many calls (the query engine does, for
/// its lazy rows) must drop it, not keep it, when a kernel unwinds
/// mid-row: only a gather that ran to its end leaves it all zeros.
#[derive(Debug, Default)]
pub struct ScatterScratch {
    /// Dense accumulator, one slot per column.
    acc: Vec<f64>,
    /// Column bitmap: bit `c & 63` of word `c >> 6` is set once column `c`
    /// has been touched in the current row.
    mark: Vec<u64>,
}

impl ScatterScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the buffers to at least `ncols` columns, zeroed.
    pub(crate) fn prepare(&mut self, ncols: usize) {
        if self.acc.len() < ncols {
            self.acc.resize(ncols, 0.0);
            self.mark.resize(ncols.div_ceil(64), 0);
            crate::counters::with(|c| {
                c.scratch_allocs
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        } else {
            crate::counters::with(|c| {
                c.scratch_reuses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
    }

    /// The row kernel: the sparse row `(idx, vals)` times `rhs`, appended
    /// to `indices` / `data` with strictly increasing columns. Every sparse
    /// product in this crate — a row of [`Csr::spgemm`], a link of
    /// [`crate::spvec::spvm_chain`] — is this one function, which is what
    /// makes a propagated row bit-identical to the same row of the
    /// materialized product. The caller has [`prepare`](Self::prepare)d the
    /// scratch for `rhs.ncols()`.
    ///
    /// A touched column is emitted once whatever its value, so partial sums
    /// that cancel to `0.0` give an explicit zero entry.
    #[inline]
    pub(crate) fn product_row(
        &mut self,
        idx: &[u32],
        vals: &[f64],
        rhs: &Csr,
        indices: &mut Vec<u32>,
        data: &mut Vec<f64>,
    ) {
        let ScatterScratch { acc, mark } = self;
        let mut t = 0usize;
        for (&k, &v) in idx.iter().zip(vals) {
            for (&c, &w) in rhs
                .row_indices(k as usize)
                .iter()
                .zip(rhs.row_values(k as usize))
            {
                // branch-free first touch: count the column only when its
                // bit was clear
                let (word, bit) = (c as usize >> 6, 1u64 << (c & 63));
                t += (mark[word] & bit == 0) as usize;
                mark[word] |= bit;
                acc[c as usize] += v * w;
            }
        }
        // exact for a lone row, a no-op inside a product that reserved
        indices.reserve(t);
        data.reserve(t);
        for (w, m) in mark[..rhs.ncols().div_ceil(64)].iter_mut().enumerate() {
            let mut bits = std::mem::take(m);
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                indices.push(c as u32);
                data.push(std::mem::take(&mut acc[c]));
                bits &= bits - 1;
            }
        }
    }
}

/// A compressed sparse row `f64` matrix.
///
/// Row `i`'s nonzeros live in `indices[indptr[i]..indptr[i+1]]` (column ids)
/// and `data[indptr[i]..indptr[i+1]]` (values). Column indices within a row
/// are strictly increasing; duplicate triplets are merged by summation at
/// construction time.
///
/// # Storage: owned or view
///
/// The three arrays live either in matrix-owned `Vec`s (every construction
/// path in this module) or as a zero-copy *view* into a shared, aligned
/// [`crate::arena::ArenaBuf`] ([`Csr::from_arena`] — how snapshot restores
/// avoid per-matrix decodes). Every accessor and kernel reads through
/// the `indptr`/`indices`/`data` accessors, so the two backings are
/// observationally identical: equal content compares equal ([`PartialEq`]
/// is by content, not by backing), [`Csr::nbytes`] prices both the same,
/// and the rare in-place mutators ([`Csr::scale`], [`Csr::scale_rows`])
/// promote a view to owned storage copy-on-write first.
#[derive(Clone)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    storage: Storage,
}

/// The own-or-view backing of a [`Csr`].
#[derive(Clone)]
enum Storage {
    Owned {
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    },
    View(ArenaView),
}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Csr")
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz())
            .field("backing", &if self.is_view() { "view" } else { "owned" })
            .field("indptr", &self.indptr())
            .field("indices", &self.indices())
            .field("data", &self.data())
            .finish()
    }
}

impl PartialEq for Csr {
    /// Content equality: shape and the three arrays, regardless of which
    /// backing holds them — a restored view equals the owned matrix it
    /// was snapshotted from.
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.indptr() == other.indptr()
            && self.indices() == other.indices()
            && self.data() == other.data()
    }
}

impl Csr {
    /// Row offsets: `indptr[i]..indptr[i+1]` spans row `i`'s entries.
    #[inline]
    pub(crate) fn indptr(&self) -> &[usize] {
        match &self.storage {
            Storage::Owned { indptr, .. } => indptr,
            Storage::View(v) => v.indptr(),
        }
    }

    /// All stored column indices, concatenated row-major.
    #[inline]
    pub(crate) fn indices(&self) -> &[u32] {
        match &self.storage {
            Storage::Owned { indices, .. } => indices,
            Storage::View(v) => v.indices(),
        }
    }

    /// All stored values, parallel to [`Csr::indices`].
    #[inline]
    pub(crate) fn data(&self) -> &[f64] {
        match &self.storage {
            Storage::Owned { data, .. } => data,
            Storage::View(v) => v.data(),
        }
    }

    /// `true` when the arrays are a zero-copy view into a shared arena
    /// buffer rather than matrix-owned `Vec`s.
    #[inline]
    pub fn is_view(&self) -> bool {
        matches!(self.storage, Storage::View(_))
    }

    /// Opaque identity of the arena buffer a view-backed matrix aliases
    /// (`None` for owned storage). Two matrices restored from the same
    /// snapshot share one arena and report equal ids — the property the
    /// zero-decode warm-restore tests assert.
    pub fn arena_id(&self) -> Option<usize> {
        match &self.storage {
            Storage::Owned { .. } => None,
            Storage::View(v) => Some(v.arena_id()),
        }
    }

    /// Rebind a view to owned storage (copy once); no-op when already
    /// owned. The write path of copy-on-write mutation.
    fn make_owned(&mut self) {
        if let Storage::View(v) = &self.storage {
            self.storage = Storage::Owned {
                indptr: v.indptr().to_vec(),
                indices: v.indices().to_vec(),
                data: v.data().to_vec(),
            };
        }
    }

    /// Mutable values, promoting a view to owned storage first.
    fn data_mut(&mut self) -> &mut [f64] {
        self.make_owned();
        match &mut self.storage {
            Storage::Owned { data, .. } => data,
            Storage::View(_) => unreachable!("make_owned leaves Owned storage"),
        }
    }

    /// Assemble a view-backed matrix over an already-validated arena
    /// window (only [`Csr::from_arena`] calls this, after checking every
    /// CSR invariant).
    pub(crate) fn from_arena_view(nrows: usize, ncols: usize, view: ArenaView) -> Self {
        Self {
            nrows,
            ncols,
            storage: Storage::View(view),
        }
    }

    /// Empty matrix with the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            storage: Storage::Owned {
                indptr: vec![0; nrows + 1],
                indices: Vec::new(),
                data: Vec::new(),
            },
        }
    }

    /// Build from `(row, col, value)` triplets. Duplicates are summed and
    /// explicit zeros produced by cancellation are kept (callers that care
    /// can [`Csr::prune`]).
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (u32, u32, f64)>,
    ) -> Self {
        let mut trips: Vec<(u32, u32, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &trips {
            assert!(
                (r as usize) < nrows && (c as usize) < ncols,
                "Csr::from_triplets: index ({r},{c}) out of bounds for {nrows}x{ncols}"
            );
        }
        trips.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut indptr = vec![0usize; nrows + 1];
        let mut indices = Vec::with_capacity(trips.len());
        let mut data: Vec<f64> = Vec::with_capacity(trips.len());
        for (r, c, v) in trips {
            if let (Some(&last_c), true) = (indices.last(), indptr[r as usize + 1] > 0) {
                // merge a duplicate of the previous entry in the same row
                if last_c == c && indices.len() > indptr[r as usize] {
                    *data.last_mut().expect("data tracks indices") += v;
                    continue;
                }
            }
            indices.push(c);
            data.push(v);
            indptr[r as usize + 1] = indices.len();
        }
        // turn per-row end offsets into a proper prefix scan
        for i in 1..=nrows {
            if indptr[i] == 0 {
                indptr[i] = indptr[i - 1];
            }
        }
        Self {
            nrows,
            ncols,
            storage: Storage::Owned {
                indptr,
                indices,
                data,
            },
        }
    }

    /// Build an unweighted matrix (all values 1.0) from `(row, col)` pairs.
    pub fn from_edges(
        nrows: usize,
        ncols: usize,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        Self::from_triplets(nrows, ncols, edges.into_iter().map(|(r, c)| (r, c, 1.0)))
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices().len()
    }

    /// Heap bytes this matrix logically occupies: the `indptr`, `indices`
    /// and `data` arrays at their stored lengths (excess `Vec` capacity is
    /// ignored). This is the cost model used by byte-budgeted caches of
    /// commuting matrices. Deliberately backing-independent: a view-backed
    /// matrix prices the same as its owned twin, so cache budgets and
    /// snapshot export budgets mean the same thing on either side of a
    /// restore.
    #[inline]
    pub fn nbytes(&self) -> usize {
        Self::nbytes_of(self.nrows, self.nnz())
    }

    /// [`Csr::nbytes`] of a matrix with `nrows` rows and `nnz` stored
    /// entries, without building it — how a planner prices a product it has
    /// only estimated.
    #[inline]
    pub fn nbytes_of(nrows: usize, nnz: usize) -> usize {
        (nrows + 1) * std::mem::size_of::<usize>()
            + nnz * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[u32] {
        let indptr = self.indptr();
        &self.indices()[indptr[r]..indptr[r + 1]]
    }

    /// Values of row `r`, parallel to [`Csr::row_indices`].
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f64] {
        let indptr = self.indptr();
        &self.data()[indptr[r]..indptr[r + 1]]
    }

    /// `(indices, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        (self.row_indices(r), self.row_values(r))
    }

    /// Iterate `(row, col, value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_indices(r)
                .iter()
                .zip(self.row_values(r))
                .map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Value at `(r, c)`; zero when not stored. Binary search within the row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let row = self.row_indices(r);
        match row.binary_search(&(c as u32)) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => 0.0,
        }
    }

    /// The main diagonal, one entry per row: `diagonal()[i] == get(i, i)`
    /// (zero when not stored). One binary search per row.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows).map(|i| self.get(i, i)).collect()
    }

    /// Number of stored entries in row `r` (out-degree when used as an
    /// adjacency matrix).
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        let indptr = self.indptr();
        indptr[r + 1] - indptr[r]
    }

    /// Sum of values in row `r` (weighted out-degree).
    pub fn row_sum(&self, r: usize) -> f64 {
        self.row_values(r).iter().sum()
    }

    /// Vector of all row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows).map(|r| self.row_sum(r)).collect()
    }

    /// Sum of all stored values.
    pub fn total(&self) -> f64 {
        self.data().iter().sum()
    }

    /// Transpose (CSR of the same data with rows and columns swapped).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in self.indices() {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=self.ncols {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        let mut next = counts;
        for r in 0..self.nrows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let pos = next[c as usize];
                indices[pos] = r as u32;
                data[pos] = v;
                next[c as usize] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            storage: Storage::Owned {
                indptr,
                indices,
                data,
            },
        }
    }

    /// `y = self * x`.
    ///
    /// # Panics
    /// Panics when `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "Csr::matvec: dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y ← self * x` without allocating.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                acc += v * x[c as usize];
            }
            *yr = acc;
        }
    }

    /// `y = selfᵀ * x` computed without materializing the transpose.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "Csr::matvec_t: dimension mismatch");
        let mut y = vec![0.0; self.ncols];
        for r in 0..self.nrows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                y[c as usize] += v * xr;
            }
        }
        y
    }

    /// Sparse × sparse product `self * rhs` using a dense accumulator row.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spgemm(&self, rhs: &Csr) -> Csr {
        self.spgemm_with(rhs, &mut ScatterScratch::new())
    }

    /// [`Csr::spgemm`] reusing a caller-owned [`ScatterScratch`], so chained
    /// products ([`crate::spmm_chain`]) pay for the accumulator once instead
    /// of per link.
    ///
    /// Output `indices`/`data` capacity is pre-reserved from
    /// [`crate::spmm_nnz_estimate`] (clamped by the exact flop count, which
    /// bounds the true nnz from above), so rows append without the repeated
    /// doubling reallocations an unsized `Vec` pays on large products.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spgemm_with(&self, rhs: &Csr, scratch: &mut ScatterScratch) -> Csr {
        assert_eq!(
            self.ncols, rhs.nrows,
            "Csr::spgemm: inner dimensions {}x{} * {}x{}",
            self.nrows, self.ncols, rhs.nrows, rhs.ncols
        );
        let flops = crate::chain::spmm_flops_estimate(self, rhs);
        // `flops` is the exact multiply-add count for this product (one per
        // (A-nonzero, matching B-row-nonzero) pair), so it doubles as the
        // profiling figure.
        crate::counters::with(|c| {
            use std::sync::atomic::Ordering::Relaxed;
            c.spgemm_calls.fetch_add(1, Relaxed);
            c.spgemm_flops.fetch_add(flops as u64, Relaxed);
        });
        self.spgemm_inline(rhs, flops, scratch)
    }

    /// The whole product on the calling thread: every row through
    /// [`Csr::spgemm_rows`], assembled without a stitching copy.
    fn spgemm_inline(&self, rhs: &Csr, flops: f64, scratch: &mut ScatterScratch) -> Csr {
        let (row_ends, indices, data) = self.spgemm_rows(rhs, 0..self.nrows, flops, scratch);
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        indptr.push(0usize);
        indptr.extend(row_ends);
        Csr::from_parts_unchecked(self.nrows, rhs.ncols, indptr, indices, data)
    }

    /// Output rows `rows` of the product, each one call of the row kernel
    /// (`ScatterScratch::product_row`) — the loop both the serial product
    /// ([`Csr::spgemm_with`]) and the row-parallel product
    /// ([`Csr::spgemm_parallel`]) execute, so the two are bit-identical by
    /// construction. Returns per-row end offsets (relative to the block)
    /// plus the block's `indices`/`data` arrays.
    ///
    /// `flops_hint` bounds the reservation: the exact multiply-add count of
    /// the rows in question (or any upper bound — it is clamped by the
    /// density estimate either way).
    fn spgemm_rows(
        &self,
        rhs: &Csr,
        rows: std::ops::Range<usize>,
        flops_hint: f64,
        scratch: &mut ScatterScratch,
    ) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        // The estimate is already ≤ rows·cols; the flop count is a hard
        // upper bound on output nnz (each multiply-add touches one cell).
        let reserve = crate::chain::spmm_nnz_estimate(rows.len(), rhs.ncols, flops_hint)
            .ceil()
            .min(flops_hint) as usize;
        let mut row_ends = Vec::with_capacity(rows.len());
        let mut indices: Vec<u32> = Vec::with_capacity(reserve);
        let mut data: Vec<f64> = Vec::with_capacity(reserve);
        scratch.prepare(rhs.ncols);
        for r in rows {
            let (idx, vals) = (self.row_indices(r), self.row_values(r));
            scratch.product_row(idx, vals, rhs, &mut indices, &mut data);
            row_ends.push(indices.len());
        }
        (row_ends, indices, data)
    }

    /// Row-parallel [`Csr::spgemm`]: output rows are partitioned into
    /// `threads` contiguous blocks balanced by per-row multiply-add counts,
    /// each block runs the serial row loop on its own scoped worker with
    /// its own [`ScatterScratch`], and the disjoint row ranges are stitched
    /// back in order. Bit-identical to [`Csr::spgemm`] by construction —
    /// per-row work is untouched and rows never interact.
    ///
    /// At `threads <= 1`, or when the whole product is under
    /// [`PARALLEL_MIN_FLOPS`](crate::pool::PARALLEL_MIN_FLOPS), it runs
    /// inline on the calling thread (counting its single row block): a
    /// product that small is done before two workers have started.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spgemm_parallel(&self, rhs: &Csr, threads: usize) -> Csr {
        self.spgemm_parallel_with(rhs, threads, &mut ScatterScratch::new())
    }

    /// [`Csr::spgemm_parallel`] whose inline path runs on a caller-owned
    /// [`ScatterScratch`], so a chain ([`crate::spmm_chain_parallel`]) keeps
    /// one scratch across links that stay under the floor. Fanned-out
    /// workers still bring their own.
    pub(crate) fn spgemm_parallel_with(
        &self,
        rhs: &Csr,
        threads: usize,
        scratch: &mut ScatterScratch,
    ) -> Csr {
        assert_eq!(
            self.ncols, rhs.nrows,
            "Csr::spgemm_parallel: inner dimensions {}x{} * {}x{}",
            self.nrows, self.ncols, rhs.nrows, rhs.ncols
        );
        // Exact per-row work (each A-nonzero (r, k) scatters row k of B),
        // counted once: it weighs the blocks, sums to the profiling figure
        // and decides whether the product is worth a thread at all.
        let row_flops: Vec<usize> = (0..self.nrows)
            .map(|r| {
                self.row_indices(r)
                    .iter()
                    .map(|&k| rhs.row_nnz(k as usize))
                    .sum()
            })
            .collect();
        let total_flops: usize = row_flops.iter().sum();
        let threads = if total_flops < crate::pool::PARALLEL_MIN_FLOPS {
            1
        } else {
            threads
        };
        let blocks = crate::pool::row_blocks(self.nrows, threads, |r| row_flops[r]);
        crate::counters::with(|c| {
            use std::sync::atomic::Ordering::Relaxed;
            c.spgemm_calls.fetch_add(1, Relaxed);
            c.spgemm_flops.fetch_add(total_flops as u64, Relaxed);
            c.row_blocks.fetch_add(blocks.len() as u64, Relaxed);
        });
        if blocks.len() <= 1 {
            return self.spgemm_inline(rhs, total_flops as f64, scratch);
        }
        let per_block_hint = total_flops as f64 / blocks.len() as f64;
        let parts = crate::pool::run_blocks(blocks, |block| {
            self.spgemm_rows(rhs, block, per_block_hint, &mut ScatterScratch::new())
        });
        // Stitch: concatenate per-block arrays in row order, rebasing each
        // block's row-end offsets onto the running global length.
        let nnz: usize = parts.iter().map(|(_, i, _)| i.len()).sum();
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::with_capacity(nnz);
        let mut data: Vec<f64> = Vec::with_capacity(nnz);
        for (row_ends, block_indices, block_data) in parts {
            let base = indices.len();
            indices.extend_from_slice(&block_indices);
            data.extend_from_slice(&block_data);
            indptr.extend(row_ends.into_iter().map(|e| base + e));
        }
        Csr::from_parts_unchecked(self.nrows, rhs.ncols, indptr, indices, data)
    }

    /// Scale row `r` by `rows[r]` in place (a view-backed matrix promotes
    /// to owned storage first — the shared arena is never written).
    pub fn scale_rows(&mut self, rows: &[f64]) {
        assert_eq!(rows.len(), self.nrows);
        self.make_owned();
        let Storage::Owned { indptr, data, .. } = &mut self.storage else {
            unreachable!("make_owned leaves Owned storage");
        };
        for (r, &s) in rows.iter().enumerate() {
            for v in &mut data[indptr[r]..indptr[r + 1]] {
                *v *= s;
            }
        }
    }

    /// Return a row-stochastic copy (each nonempty row sums to 1).
    pub fn row_normalized(&self) -> Csr {
        let mut out = self.clone();
        let scales: Vec<f64> = out
            .row_sums()
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .collect();
        out.scale_rows(&scales);
        out
    }

    /// Multiply every stored value by `alpha` (copy-on-write for views,
    /// like [`Csr::scale_rows`]).
    pub fn scale(&mut self, alpha: f64) {
        for v in self.data_mut() {
            *v *= alpha;
        }
    }

    /// Drop stored entries with `|value| <= eps`.
    pub fn prune(&self, eps: f64) -> Csr {
        Csr::from_triplets(
            self.nrows,
            self.ncols,
            self.iter().filter(|&(_, _, v)| v.abs() > eps),
        )
    }

    /// Elementwise sum of two equal-shaped matrices.
    pub fn add(&self, rhs: &Csr) -> Csr {
        assert_eq!((self.nrows, self.ncols), (rhs.nrows, rhs.ncols));
        Csr::from_triplets(self.nrows, self.ncols, self.iter().chain(rhs.iter()))
    }

    /// Dense copy (for tests and small-matrix interop).
    pub fn to_dense(&self) -> DMat {
        let mut m = DMat::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            m.add_to(r as usize, c as usize, v);
        }
        m
    }

    /// `true` when the matrix equals its transpose exactly (structure and
    /// values).
    pub fn is_symmetric(&self) -> bool {
        self.nrows == self.ncols && *self == self.transpose()
    }

    /// The raw `(indptr, indices, data)` arrays — the codec's and the
    /// snapshot encoder's view. Backing-independent: works identically for
    /// owned and arena-view matrices.
    pub fn parts(&self) -> (&[usize], &[u32], &[f64]) {
        (self.indptr(), self.indices(), self.data())
    }

    /// Assemble owned storage from raw arrays whose invariants the caller
    /// has already verified (the codec validates everything it decodes
    /// before calling this).
    pub(crate) fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indices.len(), data.len());
        Self {
            nrows,
            ncols,
            storage: Storage::Owned {
                indptr,
                indices,
                data,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::from_triplets(3, 3, [(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn nbytes_tracks_structure() {
        let m = sample();
        let want = 4 * std::mem::size_of::<usize>() // indptr: nrows + 1
            + 4 * std::mem::size_of::<u32>() // indices: nnz
            + 4 * std::mem::size_of::<f64>(); // data: nnz
        assert_eq!(m.nbytes(), want);
        // an empty matrix still pays for its indptr
        assert_eq!(Csr::zeros(7, 3).nbytes(), 8 * std::mem::size_of::<usize>());
    }

    #[test]
    fn construction_sorted_and_merged() {
        let m = Csr::from_triplets(2, 2, [(1, 1, 1.0), (0, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn rows_and_sums() {
        let m = sample();
        assert_eq!(m.row_indices(0), &[0, 2]);
        assert_eq!(m.row_values(2), &[3.0, 4.0]);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_sum(2), 7.0);
        assert_eq!(m.total(), 10.0);
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn transpose_involution_and_values() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0, 1.0]), vec![4.0, 4.0, 2.0]);
        // matvec_t agrees with explicit transpose
        assert_eq!(
            m.matvec_t(&[0.5, 1.0, 2.0]),
            m.transpose().matvec(&[0.5, 1.0, 2.0])
        );
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = sample();
        let b = a.transpose();
        let sparse = a.spgemm(&b).to_dense();
        let dense = a.to_dense().matmul(&b.to_dense());
        assert!(sparse.max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn spgemm_scratch_reuse_matches_fresh() {
        let a = sample();
        let b = a.transpose();
        let mut scratch = ScatterScratch::new();
        // two products of different output widths through one scratch: the
        // accumulator must come back zeroed between them
        let first = a.spgemm_with(&b, &mut scratch);
        let second = b.spgemm_with(&a, &mut scratch);
        assert_eq!(first, a.spgemm(&b));
        assert_eq!(second, b.spgemm(&a));
    }

    #[test]
    fn spgemm_parallel_is_bit_identical_to_serial() {
        // a deliberately skewed product: heavy rows up front, empty rows in
        // the middle, so the block partitioner actually has work to balance
        let a = Csr::from_triplets(
            160,
            120,
            (0..160u32).flat_map(|r| {
                (0..120u32)
                    .filter(move |c| (r < 5) || ((r + c) % 7 == 0 && r % 3 != 0))
                    .map(move |c| (r, c, 1.0 + ((r * 31 + c) % 5) as f64 * 0.25))
            }),
        );
        let b = Csr::from_triplets(
            120,
            100,
            (0..120u32).flat_map(|r| {
                (0..100u32)
                    .filter(move |c| (r * 13 + c * 7) % 4 == 0)
                    .map(move |c| (r, c, 0.5 + ((r + c) % 3) as f64))
            }),
        );
        assert!(
            crate::chain::spmm_flops_estimate(&a, &b) >= crate::pool::PARALLEL_MIN_FLOPS as f64,
            "the product must be large enough to leave the inline path"
        );
        let serial = a.spgemm(&b);
        for threads in [1, 2, 4, 9] {
            let par = a.spgemm_parallel(&b, threads);
            assert_eq!(par.nrows(), serial.nrows());
            assert_eq!(par.ncols(), serial.ncols());
            assert_eq!(par.parts().0, serial.parts().0, "{threads} indptr");
            assert_eq!(par.parts().1, serial.parts().1, "{threads} indices");
            let same_bits = par
                .parts()
                .2
                .iter()
                .zip(serial.parts().2)
                .all(|(p, s)| p.to_bits() == s.to_bits());
            assert!(same_bits, "{threads} threads: values diverged");
        }
        // degenerate shapes survive the block partitioner
        let empty = Csr::zeros(0, 4);
        let tall = Csr::zeros(4, 3);
        assert_eq!(empty.spgemm_parallel(&tall, 4), empty.spgemm(&tall));
        assert_eq!(sample().spgemm_parallel(&Csr::zeros(3, 2), 4).nnz(), 0);
    }

    #[test]
    fn spgemm_parallel_counts_row_blocks() {
        let sink = {
            let sink = std::sync::Arc::new(crate::counters::KernelCounters::default());
            crate::counters::install(std::sync::Arc::clone(&sink));
            crate::counters::installed().expect("a sink was just installed")
        };
        let before = sink.snapshot();
        let a = sample();
        let b = a.transpose();
        let _ = a.spgemm_parallel(&b, 2);
        let after = sink.snapshot();
        assert!(after.spgemm_calls > before.spgemm_calls);
        assert!(after.row_blocks > before.row_blocks);
        // parallel records the same exact flop figure the serial kernel would
        assert!(after.spgemm_flops >= before.spgemm_flops + 4);
    }

    #[test]
    fn spgemm_cancellation_does_not_duplicate_columns() {
        // row 0 of a reaches rows 0,1,2 of b; their contributions to
        // column 0 go 1 → 0 (cancelled) → 1, re-marking the column
        let a = Csr::from_triplets(1, 3, [(0u32, 0u32, 1.0), (0, 1, 1.0), (0, 2, 1.0)]);
        let b = Csr::from_triplets(3, 2, [(0u32, 0u32, 1.0), (1, 0, -1.0), (2, 0, 1.0)]);
        let p = a.spgemm(&b);
        assert_eq!(p.row_indices(0), &[0], "cancelled column emits once");
        assert_eq!(p.row_values(0), &[1.0]);
        assert_eq!(p.nnz(), 1);
    }

    /// The sort-and-dedup row kernel the bitmap gather replaced, kept as its
    /// oracle: a column is listed whenever its accumulator reads `0.0` as it
    /// is touched, then the list is sorted and deduplicated.
    fn sorting_product_row(idx: &[u32], vals: &[f64], rhs: &Csr) -> (Vec<u32>, Vec<f64>) {
        let mut acc = vec![0.0; rhs.ncols()];
        let mut touched = Vec::new();
        for (&k, &v) in idx.iter().zip(vals) {
            for (&c, &w) in rhs
                .row_indices(k as usize)
                .iter()
                .zip(rhs.row_values(k as usize))
            {
                if acc[c as usize] == 0.0 {
                    touched.push(c);
                }
                acc[c as usize] += v * w;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let data = touched.iter().map(|&c| acc[c as usize]).collect();
        (touched, data)
    }

    /// One row through `scratch`, checked index for index and bit for bit
    /// against the oracle, and the scratch checked clean afterwards.
    /// Returns the row.
    fn assert_row_matches_oracle(
        scratch: &mut ScatterScratch,
        idx: &[u32],
        vals: &[f64],
        rhs: &Csr,
        case: &str,
    ) -> (Vec<u32>, Vec<f64>) {
        scratch.prepare(rhs.ncols());
        let (mut indices, mut data) = (Vec::new(), Vec::new());
        scratch.product_row(idx, vals, rhs, &mut indices, &mut data);
        let (want_indices, want_data) = sorting_product_row(idx, vals, rhs);
        assert_eq!(indices, want_indices, "{case}: indices");
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&data), bits(&want_data), "{case}: value bits");
        assert!(
            scratch.acc.iter().all(|a| a.to_bits() == 0),
            "{case}: stale accumulator slot"
        );
        assert!(
            scratch.mark.iter().all(|&m| m == 0),
            "{case}: stale mark bit"
        );
        (indices, data)
    }

    #[test]
    fn bitmap_gather_agrees_with_the_sorting_gather() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound.max(1)
        };
        // one scratch for every case, widths going wide → narrow → wide,
        // so a stale bit or slot left by any row shows in a later one
        let mut scratch = ScatterScratch::new();
        let widths = [
            1400usize, 5, 40_000, 63, 64, 1, 65, 20_000, 130, 1400, 7, 40_000,
        ];
        let weights = [-2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 2.0];
        let (mut sparse, mut every_column) = (0, 0);
        for case in 0..600 {
            let ncols = widths[case % widths.len()];
            let inner = 1 + next(40);
            // one case in four leads with a row touching every column, so
            // every later touch of the row lands after all are marked
            let full = case % 4 == 0 && ncols <= 1400;
            let per_row = 1 + next(60);
            let rhs = Csr::from_triplets(
                inner,
                ncols,
                (0..inner).flat_map(|k| {
                    let len = if full && k == 0 {
                        ncols
                    } else {
                        next(ncols.min(per_row) + 1)
                    };
                    (0..len)
                        .map(|j| {
                            let c = if full && k == 0 { j } else { next(ncols) };
                            (k as u32, c as u32, weights[next(weights.len())])
                        })
                        .collect::<Vec<_>>()
                }),
            );
            let density = 1 + next(8);
            let idx: Vec<u32> = (0..inner as u32)
                .filter(|&k| (full && k == 0) || next(8) < density)
                .collect();
            let vals: Vec<f64> = idx.iter().map(|_| weights[next(weights.len())]).collect();
            let case = format!("case {case} ({ncols} columns)");
            let t = assert_row_matches_oracle(&mut scratch, &idx, &vals, &rhs, &case)
                .0
                .len();
            // a row with fewer columns than an eighth of its bitmap words
            // makes the walk skip long runs of empty words
            sparse += (t > 0 && t * 8 < ncols.div_ceil(64)) as usize;
            every_column += (t == ncols) as usize;
        }
        assert!(sparse >= 30, "{sparse} sparse rows");
        assert!(
            every_column >= 150,
            "{every_column} rows touched every column"
        );

        // partial sums that cancel: column 0 goes 1 → 0 → 1 (cancelled,
        // then revived), column 1 ends at an explicit 0.0; each emits once,
        // in a narrow bitmap and in a wide, nearly empty one
        for ncols in [2usize, 70, 40_000] {
            let rhs = Csr::from_triplets(
                3,
                ncols,
                [
                    (0u32, 0u32, 1.0),
                    (0, 1, 1.0),
                    (1, 0, -1.0),
                    (1, 1, -1.0),
                    (2, 0, 1.0),
                ],
            );
            let case = format!("cancellation, {ncols} columns");
            let row = assert_row_matches_oracle(&mut scratch, &[0, 1, 2], &[1.0; 3], &rhs, &case);
            assert_eq!(row, (vec![0, 1], vec![1.0, 0.0]), "{case}");
        }
    }

    #[test]
    fn row_normalization() {
        let m = sample().row_normalized();
        assert!((m.row_sum(0) - 1.0).abs() < 1e-12);
        assert_eq!(m.row_sum(1), 0.0);
        assert!((m.get(2, 1) - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn add_and_prune() {
        let m = sample();
        let s = m.add(&m);
        assert_eq!(s.get(2, 1), 8.0);
        let neg = Csr::from_triplets(3, 3, [(0, 0, -1.0)]);
        let pruned = m.add(&neg).prune(1e-12);
        assert_eq!(pruned.get(0, 0), 0.0);
        assert_eq!(pruned.nnz(), 3);
    }

    #[test]
    fn symmetry_check() {
        let sym = Csr::from_triplets(2, 2, [(0, 1, 5.0), (1, 0, 5.0)]);
        assert!(sym.is_symmetric());
        assert!(!sample().is_symmetric());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_triplet_panics() {
        let _ = Csr::from_triplets(2, 2, [(2, 0, 1.0)]);
    }
}
