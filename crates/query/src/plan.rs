//! Cost-based planning of commuting-matrix evaluation.
//!
//! A resolved meta-path is a chain of sparse adjacency matrices. The
//! planner runs the classic matrix-chain dynamic program with the sparse
//! cost model from [`hin_linalg::chain`], extended with one extra leaf
//! kind: a contiguous sub-path already present in the engine's
//! [`MatrixCache`] (directly or as its
//! reversal) costs nothing and contributes its exact nnz. Cached spans
//! therefore attract the optimizer — repeated and overlapping queries
//! converge onto shared sub-products instead of recomputing them.

use hin_core::Hin;
use hin_linalg::{
    spmm_chain_order_priced, spvm_chain_flops_estimate, spvm_flops_estimate, Csr, MatSummary,
    PlanTree, SpvmChainEstimate,
};
use hin_similarity::PathStep;

use crate::cache::{key_of, MatrixCache, Refusal, StepKey};

/// One node of a query's evaluation plan, over step indices `lo..=hi`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanNode {
    /// A single relation adjacency matrix, used as stored (free).
    Leaf {
        /// Step index.
        step: usize,
    },
    /// A sub-path product served from the commuting-matrix cache.
    Cached {
        /// First step of the span.
        lo: usize,
        /// Last step of the span (inclusive).
        hi: usize,
    },
    /// A sparse product of two sub-plans.
    Mul {
        /// Left operand.
        left: Box<PlanNode>,
        /// Right operand.
        right: Box<PlanNode>,
        /// First step covered.
        lo: usize,
        /// Last step covered (inclusive).
        hi: usize,
    },
}

impl PlanNode {
    /// Covered span `(lo, hi)`, inclusive.
    pub fn span(&self) -> (usize, usize) {
        match self {
            PlanNode::Leaf { step } => (*step, *step),
            PlanNode::Cached { lo, hi } => (*lo, *hi),
            PlanNode::Mul { lo, hi, .. } => (*lo, *hi),
        }
    }

    /// `true` when every product multiplies an accumulated left operand by
    /// an atomic right operand — the naive left-to-right shape.
    pub fn is_left_deep(&self) -> bool {
        match self {
            PlanNode::Leaf { .. } | PlanNode::Cached { .. } => true,
            PlanNode::Mul { left, right, .. } => {
                matches!(**right, PlanNode::Leaf { .. } | PlanNode::Cached { .. })
                    && left.is_left_deep()
            }
        }
    }

    /// Number of sparse products this plan will execute.
    pub fn product_count(&self) -> usize {
        match self {
            PlanNode::Leaf { .. } | PlanNode::Cached { .. } => 0,
            PlanNode::Mul { left, right, .. } => 1 + left.product_count() + right.product_count(),
        }
    }

    fn render(&self, labels: &[String]) -> String {
        match self {
            PlanNode::Leaf { step } => labels[*step].clone(),
            PlanNode::Cached { lo, hi } => {
                format!("cache[{}]", labels[*lo..=*hi].join("·"))
            }
            PlanNode::Mul { left, right, .. } => {
                format!("({}·{})", left.render(labels), right.render(labels))
            }
        }
    }
}

/// How an anchored query will be executed — the second axis of planning,
/// orthogonal to the multiplication-order tree.
///
/// Every anchored verb (`pathsim`, `topk`, `pathcount`, `neighbors`)
/// ultimately reads one row of the commuting matrix, so the engine can
/// either materialize the matrix (sharing it with every later query via the
/// cache) or propagate a sparse row from the anchor and share nothing.
/// The planner cost-compares the two per query; the engine layers
/// heat-based promotion on top so spans that keep being queried lazily get
/// materialized after all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecMode {
    /// Materialize the commuting matrix through the plan tree (cache-aware)
    /// and read the anchor's row from it. Non-anchored verbs (`rank`) and
    /// cache-resident spans always execute this way.
    Full,
    /// Propagate `eₓᵀ` through the chain as sparse-vector × CSR products —
    /// the anchored fast path. Cold cost is proportional to the rows
    /// actually reached instead of the whole product chain.
    SparseRow {
        /// Longest cache-resident prefix span `(0, hi)` to seed the
        /// propagation from (its row replaces `eₓᵀ·M₁·…` up to `hi`), if
        /// any was resident at plan time. A forecast, like cached plan
        /// leaves: the executor re-probes and falls back to propagating
        /// from the anchor when the span has been evicted since.
        seed: Option<(usize, usize)>,
        /// Estimated propagation multiply-adds (including PathSim
        /// normalizer propagations where applicable).
        est_flops: f64,
    },
}

/// What the engine would do about materializing an anchored query's span —
/// `EXPLAIN`'s answer to "why is this still running lazily?". A forecast
/// like the rest of the plan: computing it touches neither span heat nor
/// cache statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Promotion {
    /// The whole span is in the cache; the query reads its row.
    Resident,
    /// The cache would not keep the product, so the span is never
    /// materialized for the cache's sake and is served lazily for ever.
    Refused(Refusal),
    /// The cache would keep the product: this query would be lazy
    /// execution `run` of the `of` that promote the span
    /// (`ExecPolicy::promote_after`), so `run >= of` means this query
    /// materializes it.
    Heating {
        /// This query's ordinal among the span's lazy executions.
        run: u32,
        /// Lazy executions that promote.
        of: u32,
    },
}

impl std::fmt::Display for Promotion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Promotion::Resident => write!(f, "resident"),
            Promotion::Refused(Refusal::Estimate {
                est_bytes,
                slice_bytes,
            }) => write!(
                f,
                "refused — est {} > {} shard slice",
                human_bytes(est_bytes),
                human_bytes(slice_bytes)
            ),
            Promotion::Refused(Refusal::Product { bytes }) => {
                write!(f, "refused — product was {}", human_bytes(bytes))
            }
            Promotion::Heating { run, of } if run < of => write!(f, "cold {run}/{of}"),
            Promotion::Heating { .. } => write!(f, "materializes now"),
        }
    }
}

/// `bytes` in the largest binary unit that keeps it at or above one.
fn human_bytes(bytes: usize) -> String {
    match bytes {
        0..=1023 => format!("{bytes} B"),
        1024..=1_048_575 => format!("{:.1} KB", bytes as f64 / 1024.0),
        _ => format!("{:.1} MB", bytes as f64 / 1_048_576.0),
    }
}

/// A planned query: evaluation tree plus cost diagnostics.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The evaluation tree.
    pub root: PlanNode,
    /// How the engine will execute this query ([`ExecMode::Full`] unless
    /// the anchored sparse-row fast path wins the cost comparison).
    pub mode: ExecMode,
    /// Estimated multiply-adds under the chosen order (cached spans cost 0).
    pub est_flops: f64,
    /// Estimated multiply-adds of naive left-to-right evaluation with no
    /// cache, for comparison.
    pub left_to_right_flops: f64,
    /// Estimated multiply-adds of the sparse-row propagation candidate,
    /// whenever the query was eligible for the mode decision (anchored,
    /// multi-step, not already resident) — `Some` even when
    /// [`ExecMode::Full`] won, so `EXPLAIN` shows both candidates' costs.
    pub lazy_est_flops: Option<f64>,
    /// Estimated [`Csr::nbytes`] of the whole path's commuting matrix (exact
    /// when it is resident): what cache admission is asked about before the
    /// engine promotes the span.
    pub est_bytes: usize,
    /// The promotion verdict, for anchored queries the engine could serve
    /// lazily (`None` otherwise — there is nothing to promote). Filled by
    /// `Engine::plan`; [`plan_steps`] alone leaves it `None`.
    pub promotion: Option<Promotion>,
    /// Human-readable step labels (`src→dst` type names), for rendering.
    labels: Vec<String>,
}

impl QueryPlan {
    /// Render the tree with type-level step labels, e.g.
    /// `((author→paper·paper→venue)·cache[venue→paper·paper→author])`.
    pub fn describe(&self) -> String {
        self.root.render(&self.labels)
    }
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.mode {
            ExecMode::Full => {
                write!(
                    f,
                    "{} (est {:.0} flops; left-to-right {:.0}",
                    self.describe(),
                    self.est_flops,
                    self.left_to_right_flops
                )?;
                if let Some(lazy) = self.lazy_est_flops {
                    // the losing candidate's forecast, so EXPLAIN shows why
                    // the mode race went the way it did
                    write!(f, "; row-propagate rejected at {lazy:.0}")?;
                }
            }
            ExecMode::SparseRow { seed, est_flops } => {
                write!(
                    f,
                    "row-propagate[{}] (est {est_flops:.0} flops; full {:.0}",
                    self.describe(),
                    self.est_flops,
                )?;
                if let Some((lo, hi)) = seed {
                    write!(f, "; seeded from cache[{lo}..{hi}]")?;
                }
            }
        }
        if let Some(promotion) = self.promotion {
            write!(f, "; promotion: {promotion}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
thread_local! {
    /// [`plan_steps`] calls made on this thread.
    pub(crate) static PLAN_STEPS_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Plan the evaluation of `steps` against the current cache contents.
///
/// Delegates the dynamic program to
/// [`hin_linalg::chain::spmm_chain_order_priced`], pricing every contiguous
/// sub-path found in the cache (directly or reversed) as a free leaf with
/// exact nnz.
///
/// The plan is a *forecast*: with a bounded (or concurrently shared) cache
/// a span priced here can be evicted before execution. The engine treats a
/// vanished `Cached` leaf as an ordinary miss and recomputes it, so a
/// stale plan costs time, never correctness.
pub fn plan_steps(hin: &Hin, steps: &[PathStep], cache: &MatrixCache) -> QueryPlan {
    assert!(!steps.is_empty(), "plan_steps: empty step chain");
    #[cfg(test)]
    PLAN_STEPS_CALLS.with(|calls| calls.set(calls.get() + 1));
    let mats: Vec<&Csr> = steps.iter().map(|s| s.matrix(hin)).collect();
    let full_key = key_of(steps);

    let labels: Vec<String> = steps
        .iter()
        .map(|s| {
            let (src, dst) = s.endpoints(hin);
            format!("{}→{}", hin.type_name(src), hin.type_name(dst))
        })
        .collect();

    let summaries: Vec<MatSummary> = mats.iter().map(|m| MatSummary::from(*m)).collect();
    let chain = spmm_chain_order_priced(&summaries, |lo, hi| cache.peek_nnz(&full_key[lo..=hi]));

    fn convert(tree: &PlanTree) -> PlanNode {
        match tree {
            PlanTree::Leaf(i) => PlanNode::Leaf { step: *i },
            PlanTree::Span(lo, hi) => PlanNode::Cached { lo: *lo, hi: *hi },
            PlanTree::Mul(l, r) => {
                let (lo, _) = l.span();
                let (_, hi) = r.span();
                PlanNode::Mul {
                    left: Box::new(convert(l)),
                    right: Box::new(convert(r)),
                    lo,
                    hi,
                }
            }
        }
    }

    QueryPlan {
        root: convert(&chain.tree),
        mode: ExecMode::Full,
        est_flops: chain.est_flops,
        left_to_right_flops: chain.left_to_right_flops,
        lazy_est_flops: None,
        est_bytes: Csr::nbytes_of(mats[0].nrows(), chain.est_nnz.ceil() as usize),
        promotion: None,
        labels,
    }
}

/// Longest cache-resident prefix span `(0, hi)` of `key`, searching longest
/// first, with `hi` at most `max_hi`. Non-counting ([`MatrixCache::peek_nnz`]
/// also sees reversals): a plan is a forecast, not a use.
fn longest_cached_prefix(
    cache: &MatrixCache,
    key: &[StepKey],
    max_hi: usize,
) -> Option<(usize, usize)> {
    (1..=max_hi)
        .rev()
        .find_map(|hi| cache.peek_nnz(&key[..=hi]).map(|nnz| (hi, nnz)))
}

/// Estimated flops of propagating one anchor row through `steps`, seeding
/// from the longest cached prefix when one is resident. Returns the seed
/// span, the cost, and the expected nnz of the propagated row.
fn row_propagation_estimate(
    summaries: &[MatSummary],
    cache: &MatrixCache,
    key: &[StepKey],
) -> (Option<(usize, usize)>, SpvmChainEstimate) {
    // Prefix spans of length ≥ 2 only: the first step's matrix is already
    // resident as the relation adjacency, so propagation starts from its
    // row for free in any case. The full span is the caller's concern
    // (a resident full span means ExecMode::Full, a pure cache hit).
    let seed = longest_cached_prefix(cache, key, summaries.len().saturating_sub(2));
    let (start, start_nnz) = match seed {
        Some((hi, nnz)) => {
            // expected nnz of one row of the cached prefix product
            let rows = summaries[0].rows.max(1);
            (hi + 1, (nnz as f64 / rows as f64).max(1.0))
        }
        None => {
            let rows = summaries[0].rows.max(1);
            (1, (summaries[0].nnz as f64 / rows as f64).max(1.0))
        }
    };
    // (an empty remainder — e.g. a single-step half path — estimates to
    // zero flops with `out_nnz = start_nnz`, exactly the free row read)
    let est = spvm_chain_flops_estimate(start_nnz, &summaries[start..]);
    (seed.map(|(hi, _)| (0, hi)), est)
}

/// Decide how an anchored query should execute: materialize the commuting
/// matrix (`full_est_flops`, the cache-aware cost [`plan_steps`] computed)
/// or propagate a sparse row from the anchor.
///
/// `normalizer_half` is `Some(h)` for PathSim-shaped verbs on a palindromic
/// path of half-length `h`: their scores need the diagonal entries
/// `M[y][y]` for every candidate `y`, which the fast path computes as
/// self-dots of per-candidate half-path propagations — that per-candidate
/// work is part of the lazy cost and is what makes dense-row anchors
/// naturally fall back to full materialization.
///
/// The decision is greedy per query; amortization across future queries on
/// the same span is the engine's heat-based promotion, not the planner's
/// guess.
///
/// Returns the chosen mode plus the sparse-row candidate's estimated flops
/// whenever the comparison actually ran (`None` when the query was never
/// eligible: single-step, or the full span is resident) — the losing
/// estimate feeds `EXPLAIN`.
pub(crate) fn plan_exec_mode(
    hin: &Hin,
    steps: &[PathStep],
    cache: &MatrixCache,
    full_est_flops: f64,
    normalizer_half: Option<usize>,
) -> (ExecMode, Option<f64>) {
    if steps.len() < 2 {
        // a single-step query reads a row of the relation adjacency in
        // place; both modes are free, Full avoids even the row copy
        return (ExecMode::Full, None);
    }
    let full_key = key_of(steps);
    if cache.peek_nnz(&full_key).is_some() {
        // resident: reading the row is a pure hit
        return (ExecMode::Full, None);
    }
    let summaries: Vec<MatSummary> = steps
        .iter()
        .map(|s| MatSummary::from(s.matrix(hin)))
        .collect();
    let (seed, row_est) = row_propagation_estimate(&summaries, cache, &full_key);
    let mut est_flops = row_est.flops;
    if let Some(h) = normalizer_half {
        // one half-path propagation + (self-)dot per candidate; an odd
        // palindrome additionally pushes each half row through the middle
        // matrix before the dot (see the engine's normalizer computation)
        let (_, half_est) = row_propagation_estimate(&summaries[..h], cache, &full_key[..h]);
        let mut per_candidate = half_est.flops + half_est.out_nnz;
        if steps.len() % 2 == 1 {
            per_candidate += spvm_flops_estimate(half_est.out_nnz, &summaries[h]);
        }
        est_flops += row_est.out_nnz * per_candidate;
    }
    let mode = if est_flops < full_est_flops {
        ExecMode::SparseRow { seed, est_flops }
    } else {
        ExecMode::Full
    };
    (mode, Some(est_flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::key_of;
    use hin_core::HinBuilder;
    use std::sync::Arc;

    /// A star network with a deliberately hub-heavy center so that the
    /// middle-out association wins: many papers, few authors, very few
    /// venues.
    fn skewed() -> (Hin, Vec<PathStep>) {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        for p in 0..300 {
            let pn = format!("p{p}");
            b.link(pa, &pn, &format!("a{}", p % 12), 1.0).unwrap();
            b.link(pa, &pn, &format!("a{}", (p * 7 + 1) % 12), 1.0)
                .unwrap();
            b.link(pv, &pn, &format!("v{}", p % 3), 1.0).unwrap();
        }
        let hin = b.build();
        // P-A-P-V: left-to-right materializes the 300×300 co-author overlap
        let steps = vec![
            PathStep::Forward(pa),
            PathStep::Backward(pa),
            PathStep::Forward(pv),
        ];
        (hin, steps)
    }

    #[test]
    fn planner_avoids_the_dense_intermediate() {
        let (hin, steps) = skewed();
        let cache = MatrixCache::default();
        let plan = plan_steps(&hin, &steps, &cache);
        assert!(
            !plan.root.is_left_deep(),
            "expected middle-out association, got {}",
            plan.describe()
        );
        assert!(plan.est_flops < plan.left_to_right_flops);
        assert_eq!(plan.root.span(), (0, 2));
        assert_eq!(plan.root.product_count(), 2);
    }

    #[test]
    fn cached_spans_become_plan_leaves() {
        let (hin, steps) = skewed();
        let cache = MatrixCache::default();
        // Preload the tail pair A-P·P-V as if a previous query computed it.
        let tail = key_of(&steps[1..=2]);
        let m = steps[1].matrix(&hin).spgemm(steps[2].matrix(&hin));
        cache.put(tail, Arc::new(m));

        let plan = plan_steps(&hin, &steps, &cache);
        assert_eq!(
            plan.root,
            PlanNode::Mul {
                left: Box::new(PlanNode::Leaf { step: 0 }),
                right: Box::new(PlanNode::Cached { lo: 1, hi: 2 }),
                lo: 0,
                hi: 2,
            },
            "plan should lean on the cached tail: {}",
            plan.describe()
        );
        assert!(plan.describe().contains("cache["));
        assert_eq!(plan.root.product_count(), 1);
    }

    #[test]
    fn cold_anchored_queries_choose_row_propagation() {
        let (hin, steps) = skewed();
        let cache = MatrixCache::default();
        let plan = plan_steps(&hin, &steps, &cache);
        let (mode, lazy) = plan_exec_mode(&hin, &steps, &cache, plan.est_flops, None);
        match mode {
            ExecMode::SparseRow { seed, est_flops } => {
                assert_eq!(seed, None, "nothing cached to seed from");
                assert!(
                    est_flops < plan.est_flops,
                    "lazy {est_flops} must beat full {}",
                    plan.est_flops
                );
                assert_eq!(lazy, Some(est_flops), "candidate estimate is reported");
            }
            other => panic!("cold anchored query must propagate, got {other:?}"),
        }
        // the PathSim-normalizer variant also wins on this skewed chain
        // (per-candidate half propagations are cheap next to the chain)
        assert!(matches!(
            plan_exec_mode(&hin, &steps, &cache, plan.est_flops, Some(1)).0,
            ExecMode::SparseRow { .. }
        ));
    }

    #[test]
    fn resident_spans_short_circuit_to_full() {
        let (hin, steps) = skewed();
        let cache = MatrixCache::default();
        // materialize the whole span: reading a row of it is a pure hit
        let m = steps[0]
            .matrix(&hin)
            .spgemm(steps[1].matrix(&hin))
            .spgemm(steps[2].matrix(&hin));
        cache.put(key_of(&steps), Arc::new(m));
        let plan = plan_steps(&hin, &steps, &cache);
        assert_eq!(plan.est_flops, 0.0);
        assert_eq!(
            plan_exec_mode(&hin, &steps, &cache, plan.est_flops, None),
            (ExecMode::Full, None),
            "a resident span skips the mode race entirely"
        );
        // single steps read a relation row in place — always Full
        assert_eq!(
            plan_exec_mode(&hin, &steps[..1], &cache, 0.0, None),
            (ExecMode::Full, None)
        );
    }

    #[test]
    fn cached_prefixes_seed_the_propagation() {
        let (hin, steps) = skewed();
        let cache = MatrixCache::default();
        // Preload the head pair P-A·A-P as if a previous query computed it.
        let head = key_of(&steps[0..=1]);
        let m = steps[0].matrix(&hin).spgemm(steps[1].matrix(&hin));
        cache.put(head, Arc::new(m));

        let plan = plan_steps(&hin, &steps, &cache);
        match plan_exec_mode(&hin, &steps, &cache, plan.est_flops, None).0 {
            ExecMode::SparseRow { seed, .. } => {
                assert_eq!(seed, Some((0, 1)), "longest resident prefix seeds");
            }
            other => {
                panic!("a seeded propagation is one free row read plus one link, got {other:?}")
            }
        }
    }

    #[test]
    fn single_step_plans_are_leaves() {
        let (hin, steps) = skewed();
        let cache = MatrixCache::default();
        let plan = plan_steps(&hin, &steps[..1], &cache);
        assert_eq!(plan.root, PlanNode::Leaf { step: 0 });
        assert_eq!(plan.est_flops, 0.0);
        assert!(plan.root.is_left_deep());
    }
}
