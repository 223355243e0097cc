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
//!
//! The tree the dynamic program builds is the plan: [`QueryPlan::root`] is
//! that [`PlanTree`] over step indices, a [`PlanTree::Span`] being a
//! sub-path the cache holds.

use hin_core::Hin;
use hin_linalg::{spmm_chain_order_priced, Csr, MatSummary, PlanTree};
use hin_similarity::PathStep;

use crate::cache::{key_of, reversed_key, MatrixCache, Refusal, StepKey};

/// How many times its two halves' bytes a symmetric span's square may be
/// estimated at and still be promoted whole ([`Refusal::Factored`]). A
/// constant, not a knob: on the benchmark's large network the squares it
/// refuses are 46 to 342 times their halves, and those it keeps at most
/// about 3 times.
pub(crate) const FACTOR_RATIO: usize = 8;

/// How an anchored query will be executed — the second axis of planning,
/// orthogonal to the multiplication-order tree.
///
/// Every anchored verb (`pathsim`, `topk`, `pathcount`, `neighbors`)
/// ultimately reads one row of the commuting matrix. Under the lazy policy
/// a multi-step anchored query whose whole span is not resident propagates
/// that row from the anchor and shares nothing; heat-based promotion, the
/// one rule for materializing a span, turns a span that keeps being
/// queried lazily into a cache-resident matrix whose rows later queries
/// read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecMode {
    /// Materialize the commuting matrix through the plan tree (cache-aware)
    /// and read the anchor's row from it. Non-anchored verbs (`rank`),
    /// single-step paths and cache-resident spans always execute this way.
    Full,
    /// Propagate `eₓᵀ` through the chain as sparse-vector × CSR products —
    /// the anchored fast path. Cold cost is proportional to the rows
    /// actually reached instead of the whole product chain.
    SparseRow {
        /// Last step `hi` of the longest cache-resident prefix `0..=hi` to
        /// seed the propagation from (its row replaces `eₓᵀ·M₁·…` up to
        /// `hi`), if any was resident at plan time; products resident
        /// further along the chain are links of the propagation too
        /// (`row_links`). A forecast, like cached plan leaves: the executor
        /// looks the product up and falls back to propagating from the
        /// anchor when the span has been evicted since.
        seed: Option<usize>,
    },
}

/// What the engine would do about materializing an anchored query's span —
/// `EXPLAIN`'s answer to "why is this still running lazily?". Computing it
/// touches neither span heat nor cache statistics; executing the query
/// applies this same verdict, recounting the heat as it records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Promotion {
    /// The whole span is in the cache; the query reads its row.
    Resident,
    /// The row memo holds the ranked list this read asks for — a row, or
    /// the row sums for `rank` — whether the span is resident, refused
    /// ([`Promotion::Refused`]) or evicted since: it copies the list's
    /// prefix, with no cache lookup and nothing priced, planned or
    /// propagated.
    Memoized,
    /// The cache would not keep the product, so the span is never
    /// materialized for the cache's sake and is served lazily for ever:
    /// each row is propagated once, and a read of at most ten results
    /// stores it in the row memo for its repeats.
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
            Promotion::Refused(Refusal::Factored {
                est_bytes,
                halves_bytes,
            }) => write!(
                f,
                "refused — est {} > {FACTOR_RATIO} × halves {}",
                human_bytes(est_bytes),
                human_bytes(halves_bytes)
            ),
            Promotion::Memoized => write!(f, "memoized row"),
            Promotion::Heating { run, of } if run < of => write!(f, "cold {run}/{of}"),
            Promotion::Heating { .. } => write!(f, "materializes now"),
        }
    }
}

/// How a span the cache refused serves its anchor's row: split at step
/// `at` into two halves, the row is (row `x` of the left half) · (the right
/// half), with each half read as its relation or as a product the cache
/// holds. `EXPLAIN` shows what each half is right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRoute {
    /// The first step of the right half.
    pub at: usize,
    /// The left half (steps `..at`) and the right half (steps `at..`).
    pub halves: [Factor; 2],
}

/// One half of a [`RowRoute`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Factor {
    /// A one-step half: its relation, used as stored.
    Relation,
    /// A product half the cache holds as the row reads it: the left half
    /// directly or as its reversal, the right half directly
    /// (see `row_links`).
    Resident,
    /// A product half not resident yet: this query would be lazy run `run`
    /// of the `of` that materialize it (`ExecPolicy::promote_after`); until
    /// then the row chains through its relations.
    Heating {
        /// This query's ordinal among the half's lazy runs.
        run: u32,
        /// Lazy runs that materialize it.
        of: u32,
    },
}

impl Factor {
    fn render(self, labels: &[String]) -> String {
        let chain = labels.join("·");
        match self {
            Factor::Relation => chain,
            Factor::Resident => format!("cache[{chain}]"),
            Factor::Heating { run, of } => format!("heating {run}/{of}[{chain}]"),
        }
    }
}

/// `bytes` in the largest binary unit that keeps it at or above one once
/// rounded: from 1 048 525 B a KB figure would round to `1024.0`.
fn human_bytes(bytes: usize) -> String {
    match bytes {
        0..=1023 => format!("{bytes} B"),
        1024..=1_048_524 => format!("{:.1} KB", bytes as f64 / 1024.0),
        _ => format!("{:.1} MB", bytes as f64 / 1_048_576.0),
    }
}

/// `tree` with step labels: a relation as its label, a span the cache holds
/// as `cache[…]`, a product as `(left·right)`.
fn render(tree: &PlanTree, labels: &[String]) -> String {
    match tree {
        PlanTree::Leaf(step) => labels[*step].clone(),
        PlanTree::Span(lo, hi) => format!("cache[{}]", labels[*lo..=*hi].join("·")),
        PlanTree::Mul(left, right) => {
            format!("({}·{})", render(left, labels), render(right, labels))
        }
    }
}

/// A planned query: evaluation tree plus cost diagnostics.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The evaluation tree over step indices, as the planner built it.
    pub root: PlanTree,
    /// How the engine will execute this query: [`ExecMode::SparseRow`]
    /// for a lazily served anchored query, [`ExecMode::Full`] otherwise.
    /// Filled by `Engine::plan` as execution decides it, like `promotion`
    /// and `row_route`; [`plan_steps`] alone leaves it `Full`.
    pub mode: ExecMode,
    /// Estimated multiply-adds under the chosen order (cached spans cost 0).
    pub est_flops: f64,
    /// Estimated multiply-adds of naive left-to-right evaluation with no
    /// cache, for comparison.
    pub left_to_right_flops: f64,
    /// Estimated nonzeros of the whole path's commuting matrix (exact when
    /// it is resident).
    pub est_nnz: f64,
    /// Estimated [`Csr::nbytes`] of the whole path's commuting matrix (exact
    /// when it is resident): what cache admission is asked about before the
    /// engine promotes the span.
    pub est_bytes: usize,
    /// The promotion verdict, for anchored queries the engine could serve
    /// lazily, and [`Promotion::Memoized`] for any read the row memo
    /// answers, `rank` included (`None` otherwise — there is nothing to
    /// promote). [`plan_steps`] alone leaves it `None`.
    pub promotion: Option<Promotion>,
    /// For a span whose promotion the cache refused: the halves its row is
    /// served through (`None` when no split has halves the cache admits,
    /// so the row chains through the relations).
    pub row_route: Option<RowRoute>,
    /// What the pricing pass found resident, per sub-span: the one look
    /// at the cache that `EXPLAIN` and execution lay a row out from.
    pub(crate) residency: Residency,
    /// Human-readable step labels (`src→dst` type names), for rendering.
    /// Empty on the engine's own execution plans, which nobody displays.
    labels: Vec<String>,
}

impl QueryPlan {
    /// Render the tree with type-level step labels, e.g.
    /// `((author→paper·paper→venue)·cache[venue→paper·paper→author])`.
    pub fn describe(&self) -> String {
        render(&self.root, &self.labels)
    }
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.mode {
            ExecMode::Full => write!(
                f,
                "{} (est {:.0} flops; left-to-right {:.0}",
                self.describe(),
                self.est_flops,
                self.left_to_right_flops
            )?,
            ExecMode::SparseRow { seed } => {
                write!(
                    f,
                    "row-propagate[{}] (full est {:.0} flops",
                    self.describe(),
                    self.est_flops,
                )?;
                if let Some(hi) = seed {
                    write!(f, "; seeded from cache[0..{hi}]")?;
                }
            }
        }
        if let Some(promotion) = self.promotion {
            write!(f, "; promotion: {promotion}")?;
        }
        if let Some(RowRoute { at, halves: [l, r] }) = self.row_route {
            let (left, right) = self.labels.split_at(at);
            write!(f, "; row: {} · {}", l.render(left), r.render(right))?;
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
/// vanished [`PlanTree::Span`] leaf as an ordinary miss and recomputes it,
/// so a stale plan costs time, never correctness.
pub fn plan_steps(hin: &Hin, steps: &[PathStep], cache: &MatrixCache) -> QueryPlan {
    let mut plan = plan_priced(hin, steps, Residency::price(cache, &key_of(steps), true));
    plan.labels = steps
        .iter()
        .map(|s| {
            let (src, dst) = s.endpoints(hin);
            format!("{}→{}", hin.type_name(src), hin.type_name(dst))
        })
        .collect();
    plan
}

/// [`plan_steps`] over a pricing pass already taken (`residency` prices
/// the sub-paths of `steps`), without the step labels: the engine's
/// execution plan, made on every query and never displayed.
pub(crate) fn plan_priced(hin: &Hin, steps: &[PathStep], residency: Residency) -> QueryPlan {
    assert!(!steps.is_empty(), "plan_steps: empty step chain");
    #[cfg(test)]
    PLAN_STEPS_CALLS.with(|calls| calls.set(calls.get() + 1));
    let summaries: Vec<MatSummary> = steps
        .iter()
        .map(|s| MatSummary::from(s.matrix(hin)))
        .collect();
    let chain = spmm_chain_order_priced(&summaries, |lo, hi| Some(residency.get(lo, hi)?.nnz));

    QueryPlan {
        root: chain.tree,
        mode: ExecMode::Full,
        est_flops: chain.est_flops,
        left_to_right_flops: chain.left_to_right_flops,
        est_nnz: chain.est_nnz,
        est_bytes: Csr::nbytes_of(summaries[0].rows, chain.est_nnz.ceil() as usize),
        promotion: None,
        row_route: None,
        residency,
        labels: Vec::new(),
    }
}

/// [`Csr::nbytes`] of the product of `steps` as their relations alone
/// price it, whatever the cache holds: a one-step path's relation as
/// stored, else the planner's estimate with no resident leaf. What the
/// factoring rule ([`Refusal::Factored`]) prices a span and its halves by,
/// so that a span's verdict stays put while its halves load.
pub(crate) fn relation_bytes(hin: &Hin, steps: &[PathStep]) -> usize {
    let first = steps[0].matrix(hin);
    if steps.len() == 1 {
        return first.nbytes();
    }
    let summaries: Vec<MatSummary> = steps
        .iter()
        .map(|s| MatSummary::from(s.matrix(hin)))
        .collect();
    let chain = spmm_chain_order_priced(&summaries, |_, _| None);
    Csr::nbytes_of(first.nrows(), chain.est_nnz.ceil() as usize)
}

/// The pricing pass: for every sub-span `(lo, hi)` of two or more steps of
/// a path, what a non-counting look at the cache
/// ([`MatrixCache::peek_exact`]) found — its nonzeros, and whether it is
/// resident under its own key or only as its mirror. Taken once per plan;
/// the planner prices from it, and the row layout ([`row_links`]), the
/// heating of a refused span's halves and `EXPLAIN`'s seed and route all
/// read it instead of looking again. A forecast like the rest of the plan:
/// a product evicted since is found missing when it is looked up, counting,
/// for use.
#[derive(Clone, Debug)]
pub(crate) struct Residency {
    /// Steps of the path.
    steps: usize,
    /// `held[lo * steps + hi]` for `lo < hi`.
    held: Vec<Option<Held>>,
}

/// A sub-span the pricing pass found resident.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Held {
    /// The resident product's nonzeros.
    pub(crate) nnz: usize,
    /// Resident only as its mirror, whose transpose serves it.
    pub(crate) mirror: bool,
}

/// One orientation of the sub-span `lo..=hi` of a key: the steps as they
/// are, or (`mirror`) reversed with each direction flipped.
#[derive(Clone, Copy)]
struct Orientation {
    lo: usize,
    hi: usize,
    mirror: bool,
}

impl Orientation {
    fn steps(self, key: &[StepKey]) -> impl Iterator<Item = StepKey> + '_ {
        let span = &key[self.lo..=self.hi];
        (0..span.len()).map(move |i| match self.mirror {
            false => span[i],
            true => {
                let (r, fwd) = span[span.len() - 1 - i];
                (r, !fwd)
            }
        })
    }

    /// Do `self` and `other` spell the same key?
    fn same(self, other: Orientation, key: &[StepKey]) -> bool {
        self.hi - self.lo == other.hi - other.lo && self.steps(key).eq(other.steps(key))
    }
}

impl Residency {
    /// Look at every sub-span of `key`; at the whole path too when `whole`
    /// (a caller whose counting probe just missed it already knows). Each
    /// distinct key is looked up once: a sub-span's mirror is often
    /// another sub-span (on a palindromic path, always), and a palindrome
    /// is its own mirror.
    pub(crate) fn price(cache: &MatrixCache, key: &[StepKey], whole: bool) -> Self {
        let steps = key.len();
        let mut looked: Vec<(Orientation, Option<usize>)> = Vec::with_capacity(steps * steps);
        let mut look = |o: Orientation| {
            if let Some(&(_, nnz)) = looked.iter().find(|(seen, _)| seen.same(o, key)) {
                return nnz;
            }
            let span = &key[o.lo..=o.hi];
            let nnz = match o.mirror {
                false => cache.peek_exact(span),
                true => cache.peek_exact(&reversed_key(span)),
            };
            looked.push((o, nnz));
            nnz
        };
        let mut held = vec![None; steps * steps];
        for lo in 0..steps {
            for hi in lo + 1..steps {
                if !whole && (lo, hi) == (0, steps - 1) {
                    continue;
                }
                let own = Orientation {
                    lo,
                    hi,
                    mirror: false,
                };
                let rev = Orientation {
                    mirror: true,
                    ..own
                };
                held[lo * steps + hi] = match look(own) {
                    Some(nnz) => Some(Held { nnz, mirror: false }),
                    None if rev.same(own, key) => None,
                    None => look(rev).map(|nnz| Held { nnz, mirror: true }),
                };
            }
        }
        Self { steps, held }
    }

    /// What the pass found for steps `lo..=hi`, `lo < hi`.
    pub(crate) fn get(&self, lo: usize, hi: usize) -> Option<Held> {
        self.held[lo * self.steps + hi]
    }

    /// The nonzeros of steps `lo..=hi` as a link of an anchored row: the
    /// row's seed (`lo == 0`) may be served as a resident mirror's
    /// transpose, a later link only under its own key (see [`row_links`]).
    pub(crate) fn link(&self, lo: usize, hi: usize) -> Option<usize> {
        self.get(lo, hi)
            .filter(|held| lo == 0 || !held.mirror)
            .map(|held| held.nnz)
    }
}

/// The links an anchored row over the first `len` steps of a priced path
/// propagates through, as inclusive step spans `(lo, hi)` with the resident
/// product's nnz: from the left, at each step the longest product starting
/// there that the pricing pass found, else that step alone (`nnz` `None`:
/// its relation). The first link seeds the row and may be held as its
/// reversal, which serves it transposed. A later link must be resident
/// under its own key: serving a reversal mid-chain stores its transpose,
/// and in a one-shard cache, the only one where a product and its mirror
/// share a slice, that store can evict the original, which the next row
/// transposes back.
///
/// Read from the plan's [`Residency`], not the cache: `EXPLAIN`'s seed and
/// the engine's propagation lay a row out from one view by construction,
/// and the engine then looks up, counting, only the products it was given,
/// so a product evicted in between degrades to its relations.
pub(crate) fn row_links(residency: &Residency, len: usize) -> Vec<(usize, usize, Option<usize>)> {
    let mut links = Vec::with_capacity(len);
    let mut lo = 0;
    while lo < len {
        let product = (lo + 1..len)
            .rev()
            .find_map(|hi| Some((hi, residency.link(lo, hi)?)));
        match product {
            Some((hi, nnz)) => {
                links.push((lo, hi, Some(nnz)));
                lo = hi + 1;
            }
            None => {
                links.push((lo, lo, None));
                lo += 1;
            }
        }
    }
    links
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
        let middle_out = PlanTree::Mul(
            Box::new(PlanTree::Leaf(0)),
            Box::new(PlanTree::Mul(
                Box::new(PlanTree::Leaf(1)),
                Box::new(PlanTree::Leaf(2)),
            )),
        );
        assert_eq!(plan.root, middle_out);
        assert_eq!(plan.root.to_string(), "(0·(1·2))");
        assert_eq!(plan.describe(), "(paper→author·(author→paper·paper→venue))");
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
            PlanTree::Mul(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Span(1, 2))),
            "plan should lean on the cached tail: {}",
            plan.describe()
        );
        assert_eq!(plan.root.to_string(), "(0·[1..2])");
        assert_eq!(
            plan.describe(),
            "(paper→author·cache[author→paper·paper→venue])"
        );
    }

    #[test]
    fn single_step_plans_are_leaves() {
        let (hin, steps) = skewed();
        let cache = MatrixCache::default();
        let plan = plan_steps(&hin, &steps[..1], &cache);
        assert_eq!(plan.root, PlanTree::Leaf(0));
        assert_eq!(plan.root.to_string(), "0");
        assert_eq!(plan.est_flops, 0.0);
        assert!(plan.root.is_left_deep());
    }

    #[test]
    fn byte_sizes_change_unit_before_they_round_to_1024() {
        assert_eq!(human_bytes(1023), "1023 B");
        assert_eq!(human_bytes(1024), "1.0 KB");
        assert_eq!(human_bytes(1_048_524), "1023.9 KB");
        assert_eq!(human_bytes(1_048_525), "1.0 MB");
        assert_eq!(human_bytes(1_048_575), "1.0 MB");
        assert_eq!(human_bytes(1_048_576), "1.0 MB");
    }
}
