//! Sparse matrix-chain products: cost model and multiplication-order
//! planning.
//!
//! Meta-path commuting matrices (and every algorithm built on them) are
//! chained sparse products `M₁·M₂·…·Mₙ`. Evaluation order changes the work
//! by orders of magnitude: associating through a small "waist" type first
//! keeps intermediates sparse, while naive left-to-right evaluation can
//! materialize a huge near-dense intermediate (e.g. the paper×paper
//! co-author overlap in a `P-A-P-V` path). This module provides
//!
//! * [`spmm_flops_estimate`] — the exact multiply-add count of one sparse
//!   product, cheaply computed from the operands' structure,
//! * [`spmm_nnz_estimate`] — the expected output nnz under a uniform
//!   scatter model, used for intermediates whose structure is unknown,
//! * [`spmm_chain_order`] — dynamic-programming order selection over a
//!   chain described by `(rows, cols, nnz)` summaries,
//! * [`spmm_chain_order_priced`] — the same program with spans the caller
//!   already holds (a commuting-matrix cache) priced as free atoms,
//! * [`spmm_chain`] — plan and execute a chain of concrete [`Csr`]s.
//!
//! The [`PlanTree`] the program builds is also the query engine's plan:
//! `hin_query::QueryPlan::root` holds it as built, and the engine evaluates
//! and renders it directly.

use std::borrow::Cow;
use std::fmt;

use crate::csr::{Csr, ScatterScratch};

/// Shape-plus-sparsity summary of one chain operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatSummary {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
}

impl From<&Csr> for MatSummary {
    fn from(m: &Csr) -> Self {
        Self {
            rows: m.nrows(),
            cols: m.ncols(),
            nnz: m.nnz(),
        }
    }
}

/// Exact number of scalar multiply-adds `a.spgemm(b)` will perform:
/// `Σₖ nnz(col k of a) · nnz(row k of b)`, computed in `O(nnz(a))`.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn spmm_flops_estimate(a: &Csr, b: &Csr) -> f64 {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "spmm_flops_estimate: inner dimensions {}x{} * {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let mut flops = 0.0;
    for r in 0..a.nrows() {
        for &k in a.row_indices(r) {
            flops += b.row_nnz(k as usize) as f64;
        }
    }
    flops
}

/// Expected nonzeros of a product with shape `rows × cols` that performs
/// `flops` multiply-adds, under a uniform scatter model: each multiply-add
/// hits a uniformly random output cell, so
/// `E[nnz] = rows·cols·(1 − exp(−flops / (rows·cols)))`.
///
/// Tight for unstructured sparsity; an overestimate when products
/// concentrate (which only makes the planner more conservative about
/// dense-ish intermediates).
pub fn spmm_nnz_estimate(rows: usize, cols: usize, flops: f64) -> f64 {
    let cells = (rows as f64) * (cols as f64);
    if cells <= 0.0 {
        return 0.0;
    }
    cells * (1.0 - (-flops / cells).exp())
}

/// A parenthesization of a chain product, as a binary tree over operand
/// indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanTree {
    /// Operand `i` used as-is.
    Leaf(usize),
    /// A pre-priced span `lo..=hi` supplied ready-made by the caller of
    /// [`spmm_chain_order_priced`] (e.g. a cached product).
    Span(usize, usize),
    /// Product of two sub-plans.
    Mul(Box<PlanTree>, Box<PlanTree>),
}

impl PlanTree {
    /// Leftmost..=rightmost operand indices covered by this subtree.
    pub fn span(&self) -> (usize, usize) {
        match self {
            PlanTree::Leaf(i) => (*i, *i),
            PlanTree::Span(lo, hi) => (*lo, *hi),
            PlanTree::Mul(l, r) => (l.span().0, r.span().1),
        }
    }

    /// `true` when the tree is the naive left-to-right order
    /// `((…(0·1)·2)·…)·n` (pre-priced spans count as atoms).
    pub fn is_left_deep(&self) -> bool {
        match self {
            PlanTree::Leaf(_) | PlanTree::Span(..) => true,
            PlanTree::Mul(l, r) => {
                matches!(**r, PlanTree::Leaf(_) | PlanTree::Span(..)) && l.is_left_deep()
            }
        }
    }
}

impl fmt::Display for PlanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanTree::Leaf(i) => write!(f, "{i}"),
            PlanTree::Span(lo, hi) => write!(f, "[{lo}..{hi}]"),
            PlanTree::Mul(l, r) => write!(f, "({l}·{r})"),
        }
    }
}

/// Result of [`spmm_chain_order`]: the chosen order and its estimated cost.
#[derive(Clone, Debug)]
pub struct ChainPlan {
    /// The chosen parenthesization.
    pub tree: PlanTree,
    /// Estimated multiply-adds of the whole chain under the chosen order.
    pub est_flops: f64,
    /// Estimated nonzeros of the whole chain's product ([`spmm_nnz_estimate`]
    /// propagated through the chosen order; exact for a single operand or a
    /// pre-priced root span). What a caller sizes the result with before
    /// deciding to compute it.
    pub est_nnz: f64,
    /// Estimated multiply-adds of naive left-to-right evaluation, for
    /// comparison/diagnostics.
    pub left_to_right_flops: f64,
}

/// Pick a multiplication order for the chain `mats[0]·mats[1]·…` by
/// dynamic programming over `(rows, cols, nnz)` summaries.
///
/// Classic `O(n³)` matrix-chain DP, with the scalar-cost model replaced by
/// the sparse estimates above: the cost of joining two spans is
/// `nnz(left)·nnz(right)/inner_dim` expected multiply-adds, and span nnz
/// is propagated through [`spmm_nnz_estimate`].
///
/// # Panics
/// Panics when `mats` is empty or consecutive dimensions mismatch.
pub fn spmm_chain_order(mats: &[MatSummary]) -> ChainPlan {
    spmm_chain_order_priced(mats, |_, _| None)
}

/// [`spmm_chain_order`] with externally pre-priced spans.
///
/// `price(lo, hi)` returns `Some(nnz)` when the product of operands
/// `lo..=hi` is already available to the caller at zero cost (e.g. in a
/// commuting-matrix cache); such spans become [`PlanTree::Span`] leaves
/// with exact nnz, and the optimizer naturally leans on them. Only spans
/// of length ≥ 2 are priced — single operands are free leaves already.
///
/// # Panics
/// Panics when `mats` is empty or consecutive dimensions mismatch.
pub fn spmm_chain_order_priced(
    mats: &[MatSummary],
    price: impl Fn(usize, usize) -> Option<usize>,
) -> ChainPlan {
    assert!(!mats.is_empty(), "spmm_chain_order: empty chain");
    for w in mats.windows(2) {
        assert_eq!(
            w[0].cols, w[1].rows,
            "spmm_chain_order: dimension mismatch between consecutive operands"
        );
    }
    let n = mats.len();

    // One cell per span `i..=j`, at `i * n + j`: its cheapest cost, its
    // estimated nnz, and the split that wins it (`None` for a single
    // operand or a pre-priced span).
    #[derive(Clone, Copy, Default)]
    struct Cell {
        cost: f64,
        nnz: f64,
        split: Option<usize>,
    }
    let mut table = vec![Cell::default(); n * n];
    for (i, m) in mats.iter().enumerate() {
        table[i * n + i].nnz = m.nnz as f64;
    }
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            if let Some(nnz) = price(i, j) {
                table[i * n + j].nnz = nnz as f64;
                continue;
            }
            let mut best = f64::INFINITY;
            let mut best_k = i;
            let mut best_join = 0.0;
            for k in i..j {
                let (left, right) = (table[i * n + k], table[(k + 1) * n + j]);
                let inner = mats[k].cols as f64;
                let join = if inner > 0.0 {
                    left.nnz * right.nnz / inner
                } else {
                    0.0
                };
                let total = left.cost + right.cost + join;
                if total < best {
                    best = total;
                    best_k = k;
                    best_join = join;
                }
            }
            table[i * n + j] = Cell {
                cost: best,
                nnz: spmm_nnz_estimate(mats[i].rows, mats[j].cols, best_join),
                split: Some(best_k),
            };
        }
    }

    // cost of the naive left-to-right order (no pre-priced spans) under
    // the same model
    let mut ltr = 0.0;
    let mut acc_nnz = mats[0].nnz as f64;
    for (k, m) in mats.iter().enumerate().skip(1) {
        let inner = mats[k - 1].cols as f64;
        let join = if inner > 0.0 {
            acc_nnz * m.nnz as f64 / inner
        } else {
            0.0
        };
        ltr += join;
        acc_nnz = spmm_nnz_estimate(mats[0].rows, m.cols, join);
    }

    fn build(table: &[Cell], n: usize, i: usize, j: usize) -> PlanTree {
        match table[i * n + j].split {
            _ if i == j => PlanTree::Leaf(i),
            None => PlanTree::Span(i, j),
            Some(k) => PlanTree::Mul(
                Box::new(build(table, n, i, k)),
                Box::new(build(table, n, k + 1, j)),
            ),
        }
    }

    // the whole chain's cell, span `0..=n - 1`
    let whole = table[n - 1];
    ChainPlan {
        tree: build(&table, n, 0, n - 1),
        est_flops: whole.cost,
        est_nnz: whole.nnz,
        left_to_right_flops: ltr,
    }
}

/// Multiply a chain of sparse matrices in the planner-chosen order.
///
/// One [`ScatterScratch`] (dense accumulator and column bitmap) is shared
/// across every product in the chain, so an n-link chain pays for those
/// buffers once instead of per link. This is [`spmm_chain_parallel`] at
/// one thread: every link runs inline and counts one row block.
///
/// # Panics
/// Panics when `mats` is empty or consecutive dimensions mismatch.
pub fn spmm_chain(mats: &[&Csr]) -> Csr {
    spmm_chain_parallel(mats, 1)
}

/// [`spmm_chain`] with every product executed by the row-parallel kernel
/// ([`Csr::spgemm_parallel`]) on `threads` workers.
///
/// The multiplication *order* is the planner-chosen tree whatever the
/// thread count, and the per-row kernel is shared, so the result is
/// bit-identical to [`spmm_chain`]. Every link is one call of the
/// row-parallel product on the chain's scratch, which runs inline on it at
/// `threads <= 1` or under the flop floor; only a fanned-out link's
/// workers bring their own.
///
/// # Panics
/// Panics when `mats` is empty or consecutive dimensions mismatch.
pub fn spmm_chain_parallel(mats: &[&Csr], threads: usize) -> Csr {
    let plan = spmm_chain_order(
        &mats
            .iter()
            .map(|m| MatSummary::from(*m))
            .collect::<Vec<_>>(),
    );
    eval_tree(mats, &plan.tree, threads, &mut ScatterScratch::new()).into_owned()
}

fn eval_tree<'a>(
    mats: &[&'a Csr],
    tree: &PlanTree,
    threads: usize,
    scratch: &mut ScatterScratch,
) -> Cow<'a, Csr> {
    match tree {
        PlanTree::Leaf(i) => Cow::Borrowed(mats[*i]),
        PlanTree::Span(..) => {
            unreachable!("spmm_chain plans without pre-priced spans")
        }
        PlanTree::Mul(l, r) => {
            let left = eval_tree(mats, l, threads, scratch);
            let right = eval_tree(mats, r, threads, scratch);
            Cow::Owned(left.spgemm_parallel_with(&right, threads, scratch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_block(rows: usize, cols: usize, every: usize) -> Csr {
        Csr::from_triplets(
            rows,
            cols,
            (0..rows).flat_map(|r| {
                (0..cols)
                    .filter(move |c| (r + c) % every == 0)
                    .map(move |c| (r as u32, c as u32, 1.0 + (r * cols + c) as f64 % 3.0))
            }),
        )
    }

    #[test]
    fn flops_estimate_is_exact_work_count() {
        let a = dense_block(6, 5, 2);
        let b = dense_block(5, 7, 3);
        // brute force: for each k, (col-nnz of a at k) * (row-nnz of b at k)
        let mut expect = 0usize;
        for k in 0..5 {
            let col_nnz = (0..6).filter(|&r| a.get(r, k) != 0.0).count();
            expect += col_nnz * b.row_nnz(k);
        }
        assert_eq!(spmm_flops_estimate(&a, &b), expect as f64);
    }

    #[test]
    fn nnz_estimate_bounds() {
        // zero flops → zero output
        assert_eq!(spmm_nnz_estimate(10, 10, 0.0), 0.0);
        // huge flops saturate at the full shape
        let est = spmm_nnz_estimate(10, 10, 1e9);
        assert!((est - 100.0).abs() < 1e-6);
        // small flops ≈ flops (few collisions)
        let est = spmm_nnz_estimate(1000, 1000, 50.0);
        assert!((est - 50.0).abs() < 0.5, "{est}");
    }

    #[test]
    fn planner_prefers_small_waist_first() {
        // A: 1000×50, B: 50×1000, C: 1000×5.
        // Left-deep materializes the 1000×1000 A·B; right-first goes
        // through the 50×5 waist. The planner must pick the right-first
        // association.
        let chain = [
            MatSummary {
                rows: 1000,
                cols: 50,
                nnz: 5000,
            },
            MatSummary {
                rows: 50,
                cols: 1000,
                nnz: 5000,
            },
            MatSummary {
                rows: 1000,
                cols: 5,
                nnz: 1000,
            },
        ];
        let plan = spmm_chain_order(&chain);
        assert!(!plan.tree.is_left_deep(), "chose {}", plan.tree);
        assert_eq!(plan.tree.to_string(), "(0·(1·2))");
        assert!(
            plan.est_flops < plan.left_to_right_flops / 5.0,
            "estimated {} vs left-to-right {}",
            plan.est_flops,
            plan.left_to_right_flops
        );
        // the root's size estimate is the last join scattered over the
        // 1000×5 result: positive, and never more cells than the result has
        assert!(
            plan.est_nnz > 0.0 && plan.est_nnz <= 5000.0,
            "{}",
            plan.est_nnz
        );
    }

    #[test]
    fn planner_keeps_left_deep_when_optimal() {
        // A tiny left operand collapses everything immediately, while the
        // right pair is a big×big product: left-deep is optimal.
        let chain = [
            MatSummary {
                rows: 5,
                cols: 100,
                nnz: 200,
            },
            MatSummary {
                rows: 100,
                cols: 80,
                nnz: 2000,
            },
            MatSummary {
                rows: 80,
                cols: 70,
                nnz: 2000,
            },
        ];
        let plan = spmm_chain_order(&chain);
        assert!(plan.tree.is_left_deep(), "chose {}", plan.tree);
        assert_eq!(plan.tree.span(), (0, 2));
    }

    #[test]
    fn priced_spans_become_atoms() {
        // Same skewed chain as above, but the expensive middle-out pair is
        // pre-priced (cached): the plan must use it as a leaf at zero cost.
        let chain = [
            MatSummary {
                rows: 1000,
                cols: 50,
                nnz: 5000,
            },
            MatSummary {
                rows: 50,
                cols: 1000,
                nnz: 5000,
            },
            MatSummary {
                rows: 1000,
                cols: 5,
                nnz: 1000,
            },
        ];
        let plan = spmm_chain_order_priced(&chain, |lo, hi| (lo == 1 && hi == 2).then_some(250));
        assert_eq!(
            plan.tree,
            PlanTree::Mul(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Span(1, 2))),
            "got {}",
            plan.tree
        );
        assert_eq!(plan.tree.span(), (0, 2));
        assert!(plan.tree.is_left_deep(), "span atoms count as leaves");
        // only the A·(span) join is paid
        let unpriced = spmm_chain_order(&chain);
        assert!(plan.est_flops < unpriced.est_flops);
        // a pre-priced root reports the caller's exact nnz
        let resident = spmm_chain_order_priced(&chain, |lo, hi| (lo == 0 && hi == 2).then_some(77));
        assert_eq!((resident.est_flops, resident.est_nnz), (0.0, 77.0));
    }

    #[test]
    fn chain_result_matches_naive_order() {
        let a = dense_block(8, 6, 2);
        let b = dense_block(6, 9, 3);
        let c = dense_block(9, 4, 2);
        let d = dense_block(4, 7, 1);
        let planned = spmm_chain(&[&a, &b, &c, &d]);
        let naive = a.spgemm(&b).spgemm(&c).spgemm(&d);
        assert_eq!(planned.nrows(), 8);
        assert_eq!(planned.ncols(), 7);
        assert!(planned.to_dense().max_abs_diff(&naive.to_dense()) < 1e-9);
    }

    #[test]
    fn singleton_chain_is_identity() {
        let a = dense_block(4, 3, 2);
        let plan = spmm_chain_order(&[MatSummary::from(&a)]);
        assert_eq!(plan.tree, PlanTree::Leaf(0));
        assert_eq!(plan.est_flops, 0.0);
        assert_eq!(
            plan.est_nnz,
            a.nnz() as f64,
            "a lone operand is its own size"
        );
        assert_eq!(spmm_chain(&[&a]), a);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_chain_panics() {
        let _ = spmm_chain_order(&[
            MatSummary {
                rows: 3,
                cols: 4,
                nnz: 2,
            },
            MatSummary {
                rows: 5,
                cols: 2,
                nnz: 2,
            },
        ]);
    }
}
