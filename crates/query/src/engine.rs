//! The query engine: parse → resolve → plan → execute, with a shared
//! commuting-matrix cache and an anchored fast path.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use hin_core::{Hin, NodeRef, TypeId};
use hin_linalg::{spvm_with, Csr, PlanTree, ScatterScratch, SparseVec};
use hin_similarity::{
    top_k_pathsim, top_k_pathsim_with_diagonal, MetaPath, PathSimTopK, PathStep, TopK,
};

use crate::cache::{
    canonical_key, is_palindrome, key_of, CacheConfig, CacheOutcome, CacheStats, KeyMap, Ledger,
    MatrixCache, PathKey, Refusal, Scoring, SpanMemo, Split, StepKey,
};
use crate::error::QueryError;
use crate::parse::{cut, parse, Cut, Verb};
use crate::plan::{
    plan_priced, plan_steps, relation_bytes, row_links, ExecMode, Factor, Promotion, QueryPlan,
    Residency, RowRoute, FACTOR_RATIO,
};
use crate::resolve::resolve_shape;
use crate::snapshot::{CacheSnapshot, SnapshotImport};

/// Default result-size cap for verbs that don't specify one.
///
/// Applies to `pathsim`, `topk` (whose `k` is mandatory anyway), `rank`
/// and `pathcount`: these are *ranking* verbs, so an unlimited answer on a
/// hub anchor would be an unreadable wall of scores.
///
/// It is also how deep the row memo ranks a row: a read asking for at most
/// this many results is a prefix of the list the row's first such read
/// ranked and stored (see [`Engine::assemble`] and [`Engine::propagate`]),
/// and no snapshot row is longer.
pub(crate) const DEFAULT_LIMIT: usize = 10;

/// `neighbors` without an explicit `limit` returns the **entire** reachable
/// set. This asymmetry with [`DEFAULT_LIMIT`] is deliberate and pinned by
/// regression test: `neighbors` is an *enumeration* verb ("what can I reach
/// along this path"), where a silent top-10 cut would make the answer
/// wrong, not just long. `pathcount` over the same row stays a ranking verb
/// and keeps the top-[`DEFAULT_LIMIT`] default.
const NEIGHBORS_DEFAULT_LIMIT: usize = usize::MAX;

/// The default result cap of an anchored row verb (see
/// [`NEIGHBORS_DEFAULT_LIMIT`] for why `neighbors` differs). Shared by the
/// full-matrix and sparse-row execution paths so the two can never drift.
fn default_row_limit(verb: Verb) -> usize {
    match verb {
        Verb::Neighbors => NEIGHBORS_DEFAULT_LIMIT,
        _ => DEFAULT_LIMIT,
    }
}

/// Total normalizer-memo slots (one per node of the path's end type, per
/// half-span) kept before the memo is reset wholesale — a memory bound,
/// not a policy.
const DIAG_CAP: usize = 1 << 20;

/// Query shapes the shape table holds before it is reset wholesale — a
/// memory bound, not a policy: a reset only costs recompiling the shapes
/// still in use.
const SHAPE_CAP: usize = 256;

/// The `f64` bit pattern of a normalizer-memo slot nobody has filled yet.
/// It is a NaN no arithmetic produces; a normalizer that did come out with
/// these bits would only be recomputed on every read.
const UNKNOWN_NORMALIZER: u64 = u64::MAX;

/// One half-span's memoized normalizers, filled in place.
type NormalizerTable = Arc<Normalizers>;

/// The normalizers of one half-span: `f64` bits indexed by node id,
/// [`UNKNOWN_NORMALIZER`] where not computed yet.
#[derive(Debug)]
struct Normalizers {
    slots: Box<[AtomicU64]>,
    /// Every slot was filled in one pass over the resident half
    /// ([`fill_normalizers`]); nothing is left to fill.
    whole: AtomicBool,
}

/// The execution policy: how the engine trades per-query latency against
/// cache amortization for anchored queries. There is one execution flow;
/// this only says when it materializes a span.
#[derive(Clone, Copy, Debug)]
pub struct ExecPolicy {
    /// Lazy executions of one span before it is **promoted** to full
    /// materialization (the `promote_after`-th anchored query on a span
    /// computes the matrix through the ordinary deduplicated cache path;
    /// later queries are cache hits). Per *span*, not per anchor: many
    /// users probing one hot meta-path from different anchors heat it
    /// together.
    ///
    /// `0` is "materialize now": every anchored run of a span not resident
    /// crosses, concurrent runs included, and materializes it, counted as a
    /// promotion — on an unbounded cache, every anchored query reads its
    /// row from the commuting matrix, except over a symmetric span whose
    /// square would cost more than eight times its halves
    /// ([`Refusal::Factored`]), which is read through its halves.
    /// `u32::MAX` keeps every cold span lazy.
    ///
    /// Only spans the cache would keep are counted at all: under a
    /// [`CacheConfig::byte_budget`], a span whose estimated product — or
    /// whose product, once it has been computed and measured — is larger
    /// than one shard's slice is never promoted, whatever this says, `0`
    /// included ([`EngineStats::promotions_refused`]). Such a span's row is
    /// served through two halves the cache does keep, when it has a split
    /// with such halves, and each product half heats and materializes by
    /// this same count ([`EngineStats::factor_promotions`]).
    pub promote_after: u32,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self { promote_after: 3 }
    }
}

impl ExecPolicy {
    /// Promote a span after `n` lazy executions; `0` materializes on the
    /// first.
    pub fn promote_after(n: u32) -> Self {
        Self { promote_after: n }
    }
}

/// What an [`Engine`] has done, read as one value by [`Engine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// The commuting-matrix cache's counters and gauges.
    pub cache: CacheStats,
    /// Queries answered by the anchored sparse-row fast path (no matrix
    /// materialized or cached).
    pub anchored_fast_paths: u64,
    /// Spans promoted from lazy propagation to full materialization after
    /// crossing [`ExecPolicy::promote_after`] lazy executions.
    pub promotions: u64,
    /// Lazy executions of spans the cache would not keep (the span's
    /// estimate or its measured size exceeds one shard's slice — the
    /// [`Refusal`] `EXPLAIN` shows — so the span never
    /// heated and ran by row propagation; each also counts in
    /// `anchored_fast_paths`). A repeat of a read such a run stored in the
    /// row memo counts in `memo_hits` instead. Climbing while
    /// [`CacheStats::evictions`] stays flat: the byte budget cannot hold
    /// what the traffic heats.
    pub promotions_refused: u64,
    /// PathSim normalizer diagonals `M[y][y]` served from the per-half-span
    /// memo instead of recomputed half propagations.
    pub normalizer_memo_hits: u64,
    /// Product halves of refused spans materialized after crossing
    /// [`ExecPolicy::promote_after`] lazy runs, so that the span's rows are
    /// read through them. Not counted in `promotions`: the span itself
    /// stays refused.
    pub factor_promotions: u64,
    /// Reads of two or more steps asking for at most ten results answered
    /// from the row memo ([`Promotion::Memoized`]): no cache lookup, no
    /// planning, no propagation, and no other counter of this struct moved
    /// — [`CacheStats::hits`] included.
    pub memo_hits: u64,
}

/// The result of one query: scored, named objects of one type.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutput {
    /// The verb that produced this output.
    pub verb: Verb,
    /// Type name of the returned objects.
    pub object_type: String,
    /// `(node name, score)` pairs, best first. Scores are PathSim values,
    /// path counts, rank mass, or edge weights depending on the verb.
    pub items: Vec<(String, f64)>,
}

/// The result of one query as node ids: what execution produces, before
/// anything is named. [`IdOutput::named`] turns it into the
/// [`QueryOutput`] [`Engine::execute`] returns, on whichever thread reads
/// the answer — a server's worker hands this over and its client names it.
#[derive(Clone, Debug, PartialEq)]
pub struct IdOutput {
    /// The verb that produced this output.
    pub verb: Verb,
    /// Type of the returned objects.
    pub ty: TypeId,
    /// `(node id, score)` pairs, best first; each id indexes `ty`'s nodes.
    pub items: Vec<(usize, f64)>,
}

impl IdOutput {
    /// Name every id from `hin`, the network the answer was computed over:
    /// one owned `String` per item, scores and order untouched.
    ///
    /// Panics on an id out of range for `ty` in `hin`, which an answer
    /// the engine computed over `hin` never holds: every id is a column or
    /// row index of a matrix whose dimension is `ty`'s node count.
    pub fn named(self, hin: &Hin) -> QueryOutput {
        let ty = self.ty;
        QueryOutput {
            verb: self.verb,
            object_type: hin.type_name(ty).to_string(),
            items: self
                .items
                .into_iter()
                .map(|(id, score)| {
                    let node = NodeRef { ty, id: id as u32 };
                    (hin.node_name(node).to_string(), score)
                })
                .collect(),
        }
    }
}

/// A meta-path query engine over one loaded network.
///
/// The engine owns (a share of) the network and a memoizing
/// commuting-matrix cache keyed by canonical sub-path. Queries are parsed,
/// resolved against the schema, planned by a cost-based optimizer that
/// treats cached sub-products as free leaves, and executed; on the
/// materializing path every intermediate product lands in the cache, so
/// repeated and overlapping queries get cheaper over time.
///
/// Anchored verbs additionally get a second execution mode
/// ([`ExecMode::SparseRow`]): a cold anchored query propagates one sparse
/// row from the anchor, runs in row time and computes nothing it doesn't
/// read. Heat-based promotion ([`ExecPolicy::promote_after`]) is the one
/// way such a query materializes its span, once the span keeps being
/// queried lazily, so hot spans still amortize through the cache (and
/// appear in snapshots) — provided the cache would keep the product (the
/// plan's [`Promotion`] is not [`Promotion::Refused`]). A span too large
/// for a bounded cache stays lazy however hot it runs, but its row need
/// not chain through raw relations for ever: the engine splits the span
/// into two halves the cache does keep, heats and materializes those
/// instead, and serves the anchor's row as (row `x` of the left half) ·
/// (the right half) — how PathSim computes a row of `H·Hᵀ` from its
/// half-path matrix `H`. A symmetric span whose square would cost far more
/// than its halves is served that way under any budget, unbounded
/// included ([`Refusal::Factored`]).
///
/// Every ranked read of two or more steps asking for at most ten results
/// asks the cache's row memo first: the rows ranked off a whole matrix the
/// cache handed out, and a refused span's propagated rows, are kept there
/// under the span's key, so a repeated read copies one without looking at
/// the cache or planning anything, and a snapshot carries a refused span's
/// rows.
///
/// What the engine learns about a span (its heat, a refused product's
/// size, a refused span's split) is one entry of the cache's span ledger,
/// and one decision over it fills `EXPLAIN`: what [`Engine::plan`] shows
/// is what the query's next run does, unless another thread runs between.
///
/// Every method takes `&self` and the cache is sharded and lock-guarded,
/// so one engine behind an `Arc` serves any number of threads — this is
/// what `hin_serve`'s worker pool drives. [`Engine::execute_many`] is the
/// batched single-thread entry point.
///
/// The cache may be bounded ([`Engine::with_cache_config`]); a span the
/// planner priced as cached can then be evicted before execution, in which
/// case the engine recomputes it as an ordinary miss — eviction costs
/// time, never correctness.
///
/// Memory beyond the cache and the tables below: every thread that has
/// propagated a lazy row keeps one scatter scratch for the next, sized to
/// the widest product it has run a row through — `8·ncols + ncols/8`
/// bytes, about 48 KB over the 6 000 papers of the benchmark's small
/// network and 160 KB over its large one. It lives as long as the thread.
#[derive(Debug)]
pub struct Engine {
    hin: Arc<Hin>,
    /// The commuting-matrix cache, and in it the span ledger
    /// ([`MatrixCache::ledger`]) that [`Engine::decide`] reads.
    cache: Arc<MatrixCache>,
    policy: ExecPolicy,
    /// Memoized PathSim normalizer diagonals `M[y][y]`, keyed by
    /// half-span key (plus the middle step of an odd path) and then by
    /// whether the path is odd: one dense table per half-span, shared by
    /// every query over that half-span and filled in place. The diagonal
    /// is a property of the half-path alone —
    /// not of the anchor — so candidates shared between lazy PathSim
    /// queries reuse their half propagations instead of re-running them
    /// (roughly the whole normalizer cost, the dominant term, on a repeated
    /// query). Bounded by [`DIAG_CAP`] total slots.
    ///
    /// Deliberately separate from the diagonal the row memo keeps of a
    /// whole matrix: `‖u‖²` from a half propagation and `M[y][y]` from the
    /// product sum in different orders, so the two are bit-equal only in
    /// exact arithmetic.
    /// And outside the span ledger: it is per half-span, bounded in node
    /// slots, and holds values a row reads, not an input to a decision.
    diag_cache: Mutex<KeyMap<[Option<NormalizerTable>; 2]>>,
    /// Compiled query shapes ([`Engine::compile`]), filed under the query
    /// text with its anchor token cut out: the verb, path, end types,
    /// limit and span key that every text differing from it only in the
    /// anchor shares, so a repeated shape is parsed and resolved once.
    /// Only shapes that compiled are kept, and the network is immutable, so
    /// an entry never goes stale. Bounded by [`SHAPE_CAP`] shapes, reset
    /// wholesale — a few hundred bytes each.
    shapes: RwLock<HashMap<ShapeKey, Arc<Shape>>>,
    /// Normalizers served from `diag_cache` instead of half propagations.
    normalizer_memo_hits: AtomicU64,
    /// Queries answered by sparse-row propagation instead of matrix
    /// materialization.
    anchored_fast_paths: AtomicU64,
    /// Spans promoted from lazy propagation to full materialization.
    promotions: AtomicU64,
    /// Lazy executions of spans cache admission refused.
    promotions_refused: AtomicU64,
    /// Product halves materialized for refused spans.
    factor_promotions: AtomicU64,
    /// Reads answered from the row memo.
    memo_hits: AtomicU64,
    /// Lazily computed [`crate::snapshot::dataset_fingerprint`] of `hin`.
    /// The network is immutable after build, so one full-adjacency scan
    /// serves every later snapshot/restore — a periodic checkpoint loop
    /// must not re-hash a multi-GB dataset per tick.
    fingerprint: std::sync::OnceLock<u64>,
}

impl Engine {
    /// Build an engine owning `hin`, with an unbounded cache.
    pub fn new(hin: Hin) -> Self {
        Self::from_arc(Arc::new(hin))
    }

    /// Build an engine sharing an already-`Arc`ed network, with an
    /// unbounded cache.
    pub fn from_arc(hin: Arc<Hin>) -> Self {
        Self::with_cache_config(hin, CacheConfig::default())
    }

    /// Build an engine with explicit cache sizing (shard count, byte
    /// budget) and the default execution policy.
    pub fn with_cache_config(hin: Arc<Hin>, config: CacheConfig) -> Self {
        Self::with_config(hin, config, ExecPolicy::default())
    }

    /// Build an engine with explicit cache sizing and execution policy —
    /// the full serving configuration.
    pub fn with_config(hin: Arc<Hin>, config: CacheConfig, policy: ExecPolicy) -> Self {
        Self {
            hin,
            cache: Arc::new(MatrixCache::new(config)),
            policy,
            diag_cache: Mutex::default(),
            shapes: RwLock::default(),
            normalizer_memo_hits: AtomicU64::new(0),
            anchored_fast_paths: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            promotions_refused: AtomicU64::new(0),
            factor_promotions: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// This dataset's [`crate::snapshot::dataset_fingerprint`], computed
    /// on first use and cached for the engine's lifetime.
    pub fn dataset_fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::snapshot::dataset_fingerprint(&self.hin))
    }

    /// The underlying network.
    pub fn hin(&self) -> &Hin {
        &self.hin
    }

    /// The commuting-matrix cache (shared, thread-safe).
    pub fn cache(&self) -> &MatrixCache {
        &self.cache
    }

    /// Export the commuting-matrix cache's hottest entries, then the row
    /// memo's ranked rows of the spans whose matrices those are not,
    /// stopping at `budget_bytes` of payload (`None` = everything) — the
    /// engine's side of warm-start and failover hand-off. The snapshot is
    /// stamped with this dataset's
    /// [`dataset_fingerprint`](crate::snapshot::dataset_fingerprint), so a
    /// later [`Engine::restore`] into different (or rebuilt) data rejects
    /// it wholesale instead of silently serving stale matrices.
    ///
    /// Safe to call on a live, serving engine: the export takes the same
    /// shard read locks the query path takes, one shard at a time.
    pub fn snapshot(&self, budget_bytes: Option<usize>) -> CacheSnapshot {
        self.cache
            .export_snapshot(budget_bytes, self.dataset_fingerprint(), &self.hin)
    }

    /// Restore a snapshot into this engine's cache. Every entry is
    /// validated against this engine's dataset schema and priced through
    /// the ordinary LRU (a snapshot can never blow the cache budget);
    /// outcomes are reported and recorded in
    /// [`CacheStats::warm_loaded`] / [`CacheStats::warm_rejected`]. Ranked
    /// rows go into the row memo, best first again, so a refused span's
    /// hot reads are memo hits from the first query on.
    ///
    /// Entries mounted from an image arrive with their structure proved;
    /// this hashes each one's values against its directory's values
    /// checksum before taking it in, so no query ever reads an unproven
    /// value, and rejects a mismatch ([`CacheStats::restore_corrupt`]).
    ///
    /// Safe to call on a live, serving engine: admissions take the same
    /// shard write locks an ordinary store takes.
    pub fn restore(&self, snapshot: &CacheSnapshot) -> SnapshotImport {
        self.cache
            .import_validated(snapshot, &self.hin, self.dataset_fingerprint())
    }

    /// Parse, resolve and plan `query` without executing it — the engine's
    /// `EXPLAIN`: the tree, the [`ExecMode`] (with the seed a propagated
    /// row would start from), the [`Promotion`] verdict and a refused
    /// span's [`RowRoute`], decided as execution decides them. Does not
    /// touch cache statistics or span heat.
    pub fn plan(&self, query: &str) -> Result<QueryPlan, QueryError> {
        let (shape, from) = self.compile(query)?;
        let mut plan = plan_steps(&self.hin, shape.path.steps(), &self.cache);
        // as a run looks: the row memo, then the whole span, then the rest
        match shape.key.len() >= 2 && self.memo_read(&shape, from).is_some() {
            true => plan.promotion = Some(Promotion::Memoized),
            false => {
                self.decide(&shape, from.is_some(), &mut plan);
            }
        }
        Ok(plan)
    }

    /// Parse and resolve `query`, as [`resolve`](crate::resolve::resolve)
    /// of [`parse`] does, through the shape table: the one door that
    /// [`Engine::execute_ids_traced`] and [`Engine::plan`] compile through.
    ///
    /// The table is looked up by the text with its anchor token cut out
    /// ([`cut`]). A hit resolves only the anchor, with the same
    /// [`Hin::node_by_name`] call `resolve` makes last, so the answer or
    /// error is the one a full compile gives: a text with the same cut has
    /// the same tokens but the anchor. A miss compiles the text whole and
    /// files its shape if that much compiled — the anchor may still fail.
    fn compile(&self, query: &str) -> Result<(Arc<Shape>, Option<NodeRef>), QueryError> {
        let cut = cut(query);
        let known = self
            .shapes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&cut as &dyn ShapeText)
            .cloned();
        let shape = match known {
            Some(shape) => shape,
            None => {
                let parsed = parse(query)?;
                debug_assert_eq!(parsed.from.as_deref(), cut.anchor.map(|(name, _)| name));
                let (path, start, end) = resolve_shape(&self.hin, &parsed)?;
                let key = key_of(path.steps());
                let shape = Arc::new(Shape {
                    verb: parsed.verb,
                    factored: factored(&self.hin, &key, path.steps()),
                    key,
                    path,
                    start,
                    end,
                    limit: parsed.limit,
                });
                let mut shapes = self.shapes.write().unwrap_or_else(PoisonError::into_inner);
                if shapes.len() >= SHAPE_CAP {
                    shapes.clear();
                }
                shapes.insert(ShapeKey::of(&cut), Arc::clone(&shape));
                shape
            }
        };
        let from = match cut.anchor {
            Some((name, _)) => Some(self.hin.node_by_name(shape.start, name)?),
            None => None,
        };
        Ok((shape, from))
    }

    /// The one decision about a planned query's span, read from the plan's
    /// pricing pass and the span ledger under one lock, recording nothing:
    /// it fills `plan`'s mode, promotion verdict and row route, which
    /// `EXPLAIN` prints and [`Engine::apply`] carries out.
    ///
    /// An anchored verb other than `rank` over two or more steps whose
    /// whole span is not resident propagates its row; an anchored read of
    /// a resident span is what promotion leads to. A propagating span
    /// heats toward [`ExecPolicy::promote_after`] unless the cache refuses
    /// it, by the plan's estimate or by a measured size.
    /// A span the cache would admit is refused all the same when it is
    /// factored ([`factored`]): a symmetric square estimated at far more
    /// than its halves.
    /// A refused span is only ever worth one row: it never heats, and its
    /// row goes through the halves of a split, each product half that is
    /// not resident (as [`Residency::link`] reads it) heating instead. The
    /// split is the one remembered for this side of the span unless a half
    /// of it that is not resident has proved oversize; then, or when none
    /// is remembered, it is chosen now and returned, to be remembered.
    fn decide(&self, shape: &Shape, anchored: bool, plan: &mut QueryPlan) -> Option<Split> {
        let key = &shape.key[..];
        let n = key.len();
        let lazy = anchored
            && !matches!(shape.verb, Verb::Rank)
            && n >= 2
            && plan.residency.get(0, n - 1).is_none();
        if !lazy {
            let resident = anchored && plan.root == PlanTree::Span(0, n - 1);
            plan.promotion = resident.then_some(Promotion::Resident);
            return None;
        }
        let seed = match row_links(&plan.residency, n)[0] {
            (_, hi, Some(_)) => Some(hi),
            _ => None,
        };
        plan.mode = ExecMode::SparseRow { seed };
        let of = self.policy.promote_after;
        let ledger = self.cache.ledger();
        let (span, side) = ledger.get(key);
        let verdict = self.cache.admit(plan.est_bytes, span.oversize);
        let Err(refusal) = verdict.and_then(|()| shape.factored.map_or(Ok(()), Err)) else {
            let run = span.heat + 1;
            plan.promotion = Some(Promotion::Heating { run, of });
            return None;
        };
        plan.promotion = Some(Promotion::Refused(refusal));
        // each half of a split at `at`, with the measured size of a product
        // half that is not resident, if it proved oversize
        let halves = |at: usize| {
            [(0, at), (at, n)].map(|(lo, hi)| {
                if hi - lo == 1 {
                    (Factor::Relation, None)
                } else if plan.residency.link(lo, hi - 1).is_some() {
                    (Factor::Resident, None)
                } else {
                    let (half, _) = ledger.get(&key[lo..hi]);
                    let run = half.heat + 1;
                    (Factor::Heating { run, of }, half.oversize)
                }
            })
        };
        let fits = |split: &Split| split.is_none_or(|at| halves(at).iter().all(|h| h.1.is_none()));
        let known = span.split[side].filter(fits);
        let split = known.unwrap_or_else(|| self.choose_split(&ledger, shape.path.steps(), key));
        plan.row_route = split.map(|at| RowRoute {
            at,
            halves: halves(at).map(|(factor, _)| factor),
        });
        known.is_none().then_some(split)
    }

    /// Execute one query. Thread-safe: any number of threads may call this
    /// on one shared engine.
    ///
    /// Anchored verbs (`pathsim`, `topk`, `pathcount`, `neighbors`) over a
    /// multi-step span the cache does not hold run on the fast path and
    /// compute nothing they don't read — unless the span's heat has
    /// crossed [`ExecPolicy::promote_after`], in which case this query
    /// materializes the span through the ordinary deduplicated cache path
    /// so the *next* ones are plain hits.
    ///
    /// There is one execution flow, [`Engine::execute_ids_traced`], with
    /// the answer named and the trace dropped here. It reads the clock
    /// three times whether or not anyone keeps the answer: before parse,
    /// resolve and probe or plan, between those and the execution, and
    /// after the execution.
    pub fn execute(&self, query: &str) -> Result<QueryOutput, QueryError> {
        self.execute_traced(query).0
    }

    /// [`Engine::execute`] plus a [`QueryTrace`]: where the time went
    /// (plan vs execute), which execution mode actually ran, and how the
    /// cache served this query. It is [`Engine::execute_ids_traced`] with
    /// the answer named after the trace is taken, so the trace's
    /// `exec_ns` does not include naming.
    pub fn execute_traced(&self, query: &str) -> (Result<QueryOutput, QueryError>, QueryTrace) {
        let (result, trace) = self.execute_ids_traced(query);
        (result.map(|ids| ids.named(&self.hin)), trace)
    }

    /// The one execution flow: [`Engine::execute_traced`] with the answer
    /// left as node ids ([`IdOutput`]), to be named by whoever reads it.
    /// What `hin_serve`'s workers drive, once per member of a micro-batch.
    ///
    /// The query is parsed and resolved. A ranked read of two or more steps
    /// asking for at most ten results then asks the row memo, and one the
    /// memo holds is answered by copying its list: the cache is not looked
    /// at. Otherwise the whole span is probed once, with the same counting
    /// lookup evaluation uses, before any planning. A resident span is a
    /// cache hit and the query reads it: no chain planning, no evaluation.
    /// Any other query is planned against the live cache, exactly as
    /// `EXPLAIN` ([`Engine::plan`]) plans it; so is a single-step path,
    /// which reads its relation in place and is never probed. A lazily
    /// served anchored query propagates its anchor's row, unless promotion
    /// materializes it; every other query materializes.
    pub fn execute_ids_traced(&self, query: &str) -> (Result<IdOutput, QueryError>, QueryTrace) {
        let t0 = Instant::now();
        let prep = self
            .compile(query)
            .map(|(shape, from)| self.prepare(shape, from));
        let t1 = Instant::now();
        let mut trace = QueryTrace {
            plan_ns: nanos(t1 - t0),
            ..QueryTrace::default()
        };
        let mut prep = match prep {
            Ok(prep) => prep,
            Err(e) => return (Err(e), trace),
        };
        let lazy = match &mut prep.route {
            Route::Planned(plan, chosen) if plan.mode != ExecMode::Full => {
                let promote = self.apply(prep.shape.path.steps(), &prep.shape.key, plan, *chosen);
                self.promotions
                    .fetch_add(u64::from(promote), Ordering::Relaxed);
                !promote
            }
            _ => false,
        };
        let (shape, from) = (&*prep.shape, prep.from);
        let result = match prep.route {
            Route::Memo(items) => Ok(IdOutput {
                verb: shape.verb,
                ty: answer_type(shape),
                items,
            }),
            Route::Resident(m) => self.assemble(shape, from, &Mat::Shared(m)),
            Route::Planned(plan, _) if lazy => self.propagate(shape, from, &plan, &mut trace),
            // evaluated through the plan tree and the deduplicated cache
            // path; the trace's mode stays `Full`, the default, which is
            // also what a promoted query reports: the work it actually did
            Route::Planned(plan, _) => {
                let (probe, steps) = (ExecProbe::default(), shape.path.steps());
                let m = Self::eval(&self.hin, steps, &self.cache, &plan.root, Some(&probe));
                trace.outcome = probe.outcome.get();
                self.assemble(shape, from, &m)
            }
        };
        trace.exec_ns = nanos(t1.elapsed());
        (result, trace)
    }

    /// Execute a batch of queries against the shared cache, one after the
    /// other, returning one result per query in order: a batch is a loop
    /// over [`Engine::execute`], and a batch member runs exactly as it
    /// would alone. Overlapping meta-paths across the batch still share
    /// sub-products, through the cache.
    pub fn execute_many<S: AsRef<str>>(
        &self,
        queries: &[S],
    ) -> Vec<Result<QueryOutput, QueryError>> {
        queries.iter().map(|q| self.execute(q.as_ref())).collect()
    }

    /// Ask the row memo for a resolved query's answer, probe its whole
    /// span if the memo lacks it, and plan it only if that missed too. A
    /// read the memo answers copies its ranked list: read locks only, no
    /// shard looked at, nothing priced or planned, no ledger lock, and only
    /// [`EngineStats::memo_hits`] moves. The probe is [`MatrixCache::get`],
    /// the lookup [`Engine::eval`] resolves a span through, so a resident
    /// span counts the one hit (or symmetry hit) its evaluation would have,
    /// and a miss counts nothing. The plan's pricing pass then looks at
    /// every shorter sub-span, once, and not again at the span the probe
    /// just missed; [`Engine::decide`] decides the plan as `EXPLAIN` does.
    fn prepare(&self, shape: Arc<Shape>, from: Option<NodeRef>) -> Prep {
        let steps = shape.path.steps();
        if steps.len() >= 2 {
            if let Some(items) = self.memo_read(&shape, from) {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                return Prep {
                    shape,
                    from,
                    route: Route::Memo(items),
                };
            }
            if let Some(matrix) = self.cache.get(&shape.key) {
                return Prep {
                    shape,
                    from,
                    route: Route::Resident(matrix),
                };
            }
        }
        let priced = Residency::price(&self.cache, &shape.key, false);
        let mut plan = plan_priced(&self.hin, steps, priced);
        let chosen = self.decide(&shape, from.is_some(), &mut plan);
        Prep {
            shape,
            from,
            route: Route::Planned(plan, chosen),
        }
    }

    /// The ranked list of this read that the row memo holds for its span,
    /// if it holds it ([`MatrixCache::memo_row`]): counting nothing. Only a
    /// read asking for at most [`DEFAULT_LIMIT`] results can be one.
    fn memo_read(&self, shape: &Shape, from: Option<NodeRef>) -> Option<Vec<(usize, f64)>> {
        let k = shape.limit.unwrap_or(default_row_limit(shape.verb));
        let scoring = match shape.verb {
            Verb::Rank => Scoring::RowSums,
            verb => row_scoring(verb, from?.id as usize),
        };
        (k <= DEFAULT_LIMIT).then(|| self.cache.memo_row(&shape.key, scoring, k))?
    }

    /// The anchored fast path: one row of the commuting matrix, computed as
    /// `eₓᵀ·M₁·…·Mₙ` without materializing any product, then scored and
    /// ranked. Scores, candidate sets, ordering and limits are identical to
    /// the full-matrix path whenever the arithmetic is exact
    /// (integer-valued weights — see the anchored property tests). The
    /// plan's pricing pass lays the row out.
    ///
    /// A refused span's read asking for at most [`DEFAULT_LIMIT`] ranks
    /// its row to that depth and stores it in the row memo, as a read of a
    /// whole matrix does, whether the span was factored or refused for its
    /// size: the next read of that row is a memo hit, so a row is
    /// propagated once, and heats the span's halves once. A heating span's
    /// row stores nothing, so that its repeats keep heating it toward
    /// promotion.
    ///
    /// The row and its normalizers run on the thread's one scatter scratch
    /// ([`with_row_scratch`]), so a row pays for its products, not for
    /// allocating and zeroing a fresh accumulator.
    fn propagate(
        &self,
        shape: &Shape,
        from: Option<NodeRef>,
        plan: &QueryPlan,
        trace: &mut QueryTrace,
    ) -> Result<IdOutput, QueryError> {
        self.anchored_fast_paths.fetch_add(1, Ordering::Relaxed);
        let x = from.expect("anchored verbs carry `from`").id as usize;
        let residency = &plan.residency;
        let links = self.propagation_seed(shape.path.steps(), &shape.key, residency);
        // The fast path puts no matrix in the cache; its cache interaction
        // is whether the propagation started from a resident prefix product
        // or had to chain from the anchor's relation row.
        trace.mode = TraceMode::SparseRow;
        trace.outcome = match links[0] {
            Mat::Shared(_) => CacheOutcome::Hit,
            Mat::Borrowed(_) => CacheOutcome::MissCompute,
        };
        let refused = matches!(plan.promotion, Some(Promotion::Refused(_)));
        let memo = refused.then(|| self.cache.memo_of(&shape.key));
        let k = shape.limit.unwrap_or(default_row_limit(shape.verb));
        let items = with_row_scratch(|scratch| {
            let row = row_through(&links, x, scratch);
            self.ranked(memo.as_deref(), row_scoring(shape.verb, x), k, |limit| {
                self.rank_row(shape, residency, x, &row, scratch, limit)
            })
        });
        Ok(IdOutput {
            verb: shape.verb,
            ty: shape.end,
            items,
        })
    }

    /// The commuting matrix of an already-resolved meta-path, computed
    /// through the planner and cache. Exposed for callers that want the
    /// matrix itself rather than a verb's view of it. A factored span's
    /// square is computed and cached here like any other: the promotion
    /// rule governs what anchored reads materialize, not this.
    pub fn commuting_matrix(&self, path: &MetaPath) -> Result<Arc<Csr>, QueryError> {
        path.validate(&self.hin)?;
        Ok(self.commuting_of(path.steps()))
    }

    /// The cache's counters and gauges plus the execution-path counters,
    /// read as one value.
    pub fn stats(&self) -> EngineStats {
        let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
        EngineStats {
            cache: self.cache.stats(),
            anchored_fast_paths: read(&self.anchored_fast_paths),
            promotions: read(&self.promotions),
            promotions_refused: read(&self.promotions_refused),
            normalizer_memo_hits: read(&self.normalizer_memo_hits),
            factor_promotions: read(&self.factor_promotions),
            memo_hits: read(&self.memo_hits),
        }
    }

    /// Carry out what [`Engine::decide`] filled into a propagating query's
    /// `plan`; `true` when the query promotes its span instead. Each count
    /// the plan shows is bumped and checked under the ledger's one lock,
    /// taken only when something heats or a split `chosen` now is
    /// remembered, so two threads shown the same last run cannot both
    /// cross. A heating half (`H` and its mirror `Hᵀ` count once) that
    /// crosses materializes through the deduplicated cache path, and the
    /// pricing pass is retaken so this row reads it; one that proves
    /// oversize is refused at the door and measured, so the next decision
    /// splits again without it.
    fn apply(
        &self,
        steps: &[PathStep],
        key: &[StepKey],
        plan: &mut QueryPlan,
        chosen: Option<Split>,
    ) -> bool {
        let of = self.policy.promote_after;
        let Some(Promotion::Refused(_)) = plan.promotion else {
            return self.cache.ledger().heat_once(key, of);
        };
        self.promotions_refused.fetch_add(1, Ordering::Relaxed);
        let mut heating = [None; 2];
        if let Some(RowRoute { at, halves }) = plan.row_route {
            for (i, half) in [(0, at), (at, key.len())].into_iter().enumerate() {
                heating[i] = matches!(halves[i], Factor::Heating { .. }).then_some(half);
            }
            let both = heating.iter().all(Option::is_some);
            if both && canonical_key(&key[..at]) == canonical_key(&key[at..]) {
                heating[1] = None;
            }
        }
        if chosen.is_none() && heating == [None; 2] {
            return false;
        }
        let crossed = {
            let mut ledger = self.cache.ledger();
            if let Some(split) = chosen {
                ledger.remember_split(key, split);
            }
            heating.map(|half| half.filter(|&(lo, hi)| ledger.heat_once(&key[lo..hi], of)))
        };
        for &(lo, hi) in crossed.iter().flatten() {
            self.factor_promotions.fetch_add(1, Ordering::Relaxed);
            self.commuting_of(&steps[lo..hi]);
        }
        if crossed.iter().any(Option::is_some) {
            plan.residency = Residency::price(&self.cache, key, false);
        }
        false
    }

    /// Where to split a refused span, by the planner's estimates and what
    /// `ledger` has measured, recording nothing: the first step of the
    /// right half, or `None` when no split qualifies — the policy
    /// [`Engine::decide`] asks. A split qualifies when cache admission lets
    /// in each half of two or more steps (a one-step half is its relation
    /// and always does) and, when both halves are products in one shard, the
    /// two fit its slice together — two that do not would evict each other
    /// on every row. A half is priced by the cheaper of its two
    /// orientations: a product and its transpose have one nonzero count and
    /// differ in bytes only by the length of `indptr`, so a half whose
    /// mirror fits is let in. With two shards or more the pair rule never
    /// fires for halves that mirror each other: the cache keeps them in
    /// different shards. Of the
    /// qualifying splits, the cheapest row wins: the expected nonzeros of
    /// the anchor's row in the left half times the mean row nonzeros of the
    /// right half, the multiply-adds of the one product the row takes.
    fn choose_split(&self, ledger: &Ledger, steps: &[PathStep], key: &[StepKey]) -> Split {
        if steps.len() < 3 {
            return None; // no product half
        }
        // (mean row nonzeros, estimated product bytes) of one half
        let half = |lo: usize, hi: usize| -> Option<(f64, Option<usize>)> {
            let rows = steps[lo].matrix(&self.hin).nrows().max(1) as f64;
            if hi - lo == 1 {
                return Some((steps[lo].matrix(&self.hin).nnz() as f64 / rows, None));
            }
            let priced = Residency::price(&self.cache, &key[lo..hi], true);
            let plan = plan_priced(&self.hin, &steps[lo..hi], priced);
            let cols = steps[hi - 1].matrix(&self.hin).ncols();
            let mirror_bytes = Csr::nbytes_of(cols, plan.est_nnz.ceil() as usize);
            let oversize = ledger.get(&key[lo..hi]).0.oversize;
            let admitted = self.cache.admit(plan.est_bytes.min(mirror_bytes), oversize);
            admitted
                .is_ok()
                .then_some((plan.est_nnz / rows, Some(plan.est_bytes)))
        };
        let n = steps.len();
        (1..n)
            .filter_map(|at| {
                let (left, left_bytes) = half(0, at)?;
                let (right, right_bytes) = half(at, n)?;
                if let (Some(l), Some(r)) = (left_bytes, right_bytes) {
                    // one product serving both halves takes its bytes once
                    let (lk, rk) = (&key[..at], &key[at..]);
                    let crowded = self.cache.shared_slice(lk, rk);
                    if lk != rk && crowded.is_some_and(|slice| l + r > slice) {
                        return None;
                    }
                }
                Some((left * right, at))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, at)| at)
    }

    /// The links an anchored row over `steps` (a prefix of the priced path,
    /// `key` their keys) is propagated through, as [`row_links`] lays them
    /// out from the pricing pass `residency` — the layout `EXPLAIN` seeds
    /// from. Only the products laid out are looked up, counting, like any
    /// cache use; one evicted since the pricing pass silently degrades to
    /// its relations. The first link seeds the row: a [`Mat::Shared`]
    /// product, whose row replaces the head of the chain outright (served
    /// transposed when only its reversal is resident), or a
    /// [`Mat::Borrowed`] relation (always free — `eₓᵀ·M₁` *is* row `x` of
    /// `M₁`).
    fn propagation_seed<'a>(
        &'a self,
        steps: &'a [PathStep],
        key: &[StepKey],
        residency: &Residency,
    ) -> Vec<Mat<'a>> {
        let mut links = Vec::with_capacity(steps.len());
        for (lo, hi, product) in row_links(residency, steps.len()) {
            let span = &key[lo..=hi];
            let m = product.and_then(|_| match lo {
                0 => self.cache.get(span),
                _ => self.cache.get_exact(span),
            });
            match m {
                Some(m) => links.push(Mat::Shared(m)),
                None => links.extend(
                    steps[lo..=hi]
                        .iter()
                        .map(|s| Mat::Borrowed(s.matrix(&self.hin))),
                ),
            }
        }
        links
    }

    /// Score and rank the best `limit` of one propagated anchor row — the
    /// verb-specific back half of the anchored fast path
    /// ([`Engine::propagate`]).
    fn rank_row(
        &self,
        shape: &Shape,
        residency: &Residency,
        x: usize,
        row: &SparseVec,
        scratch: &mut ScatterScratch,
        limit: usize,
    ) -> Vec<(usize, f64)> {
        let steps = shape.path.steps();
        match shape.verb {
            Verb::PathSim | Verb::TopK => {
                // PathSim(x,y) = 2·M[x,y] / (M[x,x] + M[y,y]). The row
                // gives M[x,·]; each candidate's M[y,y] comes from its
                // half-path row u = eᵧᵀ·H: an even palindrome is M = H·Hᵀ
                // with diagonal ‖u‖², an odd one (self-relation middle
                // step L, which `is_palindrome` leaves unconstrained) is
                // M = H·L·Hᵀ with diagonal (u·L)·uᵀ. Either way the
                // normalizers cost |candidates| half propagations instead
                // of a full matrix, and none at all when H itself is
                // resident: u is its row, and one pass over H fills them.
                let h = steps.len() / 2;
                let half_links = self.propagation_seed(&steps[..h], &shape.key[..h], residency);
                let odd = steps.len() % 2 == 1;
                let mid = odd.then(|| steps[h].matrix(&self.hin));
                // Diagonals are anchor-independent: read and fill the
                // half-span's shared memo table in place.
                let normalizers = self.normalizer_memo(
                    &shape.key[..h + odd as usize],
                    odd,
                    self.hin.node_count(shape.end),
                );
                if !odd {
                    fill_normalizers(&normalizers, &half_links);
                }
                let mut memo_hits = 0u64;
                // scored and refused exactly as a resident row is
                let mut top = PathSimTopK::new(limit, row.nnz(), row.get(x));
                for (y, mxy) in row.iter().filter(|&(y, _)| y != x) {
                    // Relaxed: a slot publishes nothing but its own bits,
                    // and racing fills store the same value.
                    let known = normalizers.slots[y].load(Ordering::Relaxed);
                    let myy = if known != UNKNOWN_NORMALIZER {
                        memo_hits += 1;
                        f64::from_bits(known)
                    } else {
                        let u = row_through(&half_links, y, scratch);
                        let v = match mid {
                            Some(l) => spvm_with(&u, l, scratch).dot(&u),
                            None => u.dot_self(),
                        };
                        normalizers.slots[y].store(v.to_bits(), Ordering::Relaxed);
                        v
                    };
                    top.push(y, mxy, myy);
                }
                self.normalizer_memo_hits
                    .fetch_add(memo_hits, Ordering::Relaxed);
                top.into_sorted()
            }
            Verb::PathCount | Verb::Neighbors => {
                let exclude_self = shape.start == shape.end;
                let mut top = TopK::new(limit, row.nnz());
                for (y, count) in row.iter().filter(|&(y, _)| !(exclude_self && y == x)) {
                    top.push(y, count);
                }
                top.into_sorted()
            }
            Verb::Rank => unreachable!("rank is not anchored; `decide` keeps it Full"),
        }
    }

    /// The shared normalizer table of one half-span `half` of an `odd` or
    /// even path (`slots` = node count of the path's end type), created on
    /// first use. The lock covers only this lookup; queries read and fill
    /// the table through its atomics.
    fn normalizer_memo(&self, half: &[StepKey], odd: bool, slots: usize) -> NormalizerTable {
        let mut memo = self
            .diag_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = memo
            .get(half)
            .and_then(|tables| tables[odd as usize].as_ref())
        {
            return Arc::clone(table);
        }
        let resident: usize = memo
            .values()
            .flatten()
            .flatten()
            .map(|t| t.slots.len())
            .sum();
        if resident + slots > DIAG_CAP {
            // bounded memory: a reset only costs recomputation (queries in
            // flight keep filling the tables they already hold)
            memo.clear();
        }
        let table = Arc::new(Normalizers {
            slots: (0..slots)
                .map(|_| AtomicU64::new(UNKNOWN_NORMALIZER))
                .collect(),
            whole: AtomicBool::new(false),
        });
        memo.entry(half.to_vec()).or_default()[odd as usize] = Some(Arc::clone(&table));
        table
    }

    fn commuting_of(&self, steps: &[PathStep]) -> Arc<Csr> {
        let priced = Residency::price(&self.cache, &key_of(steps), true);
        let plan = plan_priced(&self.hin, steps, priced);
        match Self::eval(&self.hin, steps, &self.cache, &plan.root, None) {
            Mat::Shared(m) => m,
            Mat::Borrowed(m) => {
                // Single-step path: the plan is a bare relation matrix.
                // Cache the one-time copy so repeated calls share the Arc.
                let key = key_of(steps);
                self.cache.get_or_compute(&key, || m.clone()).0
            }
        }
    }

    fn eval<'a>(
        hin: &'a Hin,
        steps: &[PathStep],
        cache: &MatrixCache,
        node: &PlanTree,
        probe: Option<&ExecProbe>,
    ) -> Mat<'a> {
        match node {
            PlanTree::Leaf(step) => Mat::Borrowed(steps[*step].matrix(hin)),
            // Every span resolves through `get_or_compute`: served from
            // cache when resident (a `Span` leaf usually is — but a bounded
            // cache may have evicted it between plan and execution, and a
            // `Mul` span may have just been cached by a sibling or by
            // symmetry), and otherwise computed exactly once no matter how
            // many workers miss the same span concurrently — the others
            // wait for the first one's product.
            PlanTree::Span(..) | PlanTree::Mul(..) => {
                let (lo, hi) = node.span();
                let key = key_of(&steps[lo..=hi]);
                let (m, outcome) = cache.get_or_compute(&key, || match node {
                    PlanTree::Mul(left, right) => {
                        let l = Self::eval(hin, steps, cache, left, probe);
                        let r = Self::eval(hin, steps, cache, right, probe);
                        l.as_csr()
                            .spgemm_parallel(r.as_csr(), hin_linalg::kernel_threads())
                    }
                    _ => {
                        let mats: Vec<&Csr> =
                            steps[lo..=hi].iter().map(|s| s.matrix(hin)).collect();
                        hin_linalg::spmm_chain_parallel(&mats, hin_linalg::kernel_threads())
                    }
                });
                if let Some(p) = probe {
                    p.note(outcome);
                }
                Mat::Shared(m)
            }
        }
    }

    /// Turn the evaluated commuting matrix into the verb's answer.
    ///
    /// A whole matrix the cache handed out ([`Mat::Shared`], two steps or
    /// more) is read through its span's entry in the row memo
    /// ([`MatrixCache::memo_of`]):
    ///
    /// * PathSim verbs read the span's diagonal, built once per memo
    ///   generation, so ranking a row is one pass over it;
    /// * a read asking for at most [`DEFAULT_LIMIT`] results — `pathsim`,
    ///   `topk`, `pathcount`, `rank`, and `neighbors` with a limit — ranks
    ///   and stores the best [`DEFAULT_LIMIT`] of its row (of the row sums,
    ///   for `rank`) and answers their first `k`, which is what the memo
    ///   answers the next such read with before anything is probed.
    ///   [`TopK`] orders by score under `total_cmp`, then by id, a total
    ///   order, so the best `k` are the first `k` of the best ten, bit for
    ///   bit, ties and NaNs included.
    ///
    /// A read asking for more ranks the matrix and stores nothing. A bare
    /// relation is read without the memo: its diagonal is searched once
    /// per candidate and every read ranks.
    fn assemble(
        &self,
        shape: &Shape,
        from: Option<NodeRef>,
        matrix: &Mat<'_>,
    ) -> Result<IdOutput, QueryError> {
        let m = matrix.as_csr();
        let k = shape.limit.unwrap_or(default_row_limit(shape.verb));
        let pathsim = matches!(shape.verb, Verb::PathSim | Verb::TopK);
        let memo = match matrix {
            Mat::Shared(_) if pathsim || k <= DEFAULT_LIMIT => Some(self.cache.memo_of(&shape.key)),
            _ => None,
        };
        let memo = memo.as_deref();
        let anchor = || from.expect("resolver enforces `from`").id as usize;

        let items = match shape.verb {
            Verb::PathSim | Verb::TopK => {
                let x = anchor();
                let rank_to = |k| match memo {
                    Some(s) => top_k_pathsim_with_diagonal(m, s.diagonal(&self.cache, m), x, k),
                    None => top_k_pathsim(m, x, k),
                };
                self.ranked(memo, Scoring::PathSim(x), k, rank_to)
            }
            // Both verbs read the anchor's row of the commuting matrix.
            // `path_count` from `hin_similarity` is not used here: it always
            // excludes the entry whose index equals the anchor's, which is
            // only meaningful when start and end types coincide — on a
            // cross-type path it would silently drop an unrelated object
            // that happens to share the anchor's numeric id.
            Verb::PathCount | Verb::Neighbors => {
                let x = anchor();
                let exclude_self = shape.start == shape.end;
                let rank_to = |k| {
                    let (idx, vals) = m.row(x);
                    let mut top = TopK::new(k, idx.len());
                    for (&y, &v) in idx.iter().zip(vals) {
                        if !(exclude_self && y as usize == x) {
                            top.push(y as usize, v);
                        }
                    }
                    top.into_sorted()
                };
                self.ranked(memo, Scoring::Count(x), k, rank_to)
            }
            Verb::Rank => {
                let rank_to = |k| {
                    let mut top = TopK::new(k, m.nrows());
                    for r in 0..m.nrows() {
                        let sum = m.row_sum(r);
                        if sum > 0.0 {
                            top.push(r, sum);
                        }
                    }
                    top.into_sorted()
                };
                self.ranked(memo, Scoring::RowSums, k, rank_to)
            }
        };

        Ok(IdOutput {
            verb: shape.verb,
            ty: answer_type(shape),
            items,
        })
    }

    /// The best `k` by `scoring`, where `rank_to(n)` ranks the best `n`: a
    /// prefix of the list stored in the span's row memo entry `memo` when
    /// there is one and `k` is at most [`DEFAULT_LIMIT`], the depth every
    /// stored list is ranked to; `rank_to(k)` otherwise.
    fn ranked(
        &self,
        memo: Option<&SpanMemo>,
        scoring: Scoring,
        k: usize,
        rank_to: impl FnOnce(usize) -> Vec<(usize, f64)>,
    ) -> Vec<(usize, f64)> {
        match memo {
            Some(s) if k <= DEFAULT_LIMIT => {
                self.cache.ranked(s, scoring, k, || rank_to(DEFAULT_LIMIT))
            }
            _ => rank_to(k),
        }
    }
}

/// One query, compiled, then answered from the row memo, probed, or, unless
/// its whole span was resident, planned.
struct Prep {
    shape: Arc<Shape>,
    /// The anchor, for verbs that take `from`.
    from: Option<NodeRef>,
    route: Route,
}

/// What a query compiles to but its anchor: what [`resolve`] derives from
/// the text that every text differing from it only in the anchor shares.
/// [`Engine::compile`] files it in the shape table.
///
/// [`resolve`]: crate::resolve::resolve
#[derive(Debug)]
struct Shape {
    verb: Verb,
    path: MetaPath,
    /// Start (anchor-side) type of the path.
    start: TypeId,
    /// End (result-side) type of the path.
    end: TypeId,
    limit: Option<usize>,
    /// [`key_of`] the path's steps.
    key: PathKey,
    /// [`factored`]'s refusal of the span, if it refuses it: priced once,
    /// since it depends on the relations alone.
    factored: Option<Refusal>,
}

/// A query text with its anchor token cut out, as the shape table is
/// looked up by it: the text before the anchor, and the text after it when
/// there is one ([`Cut`]). Implemented by the owned key and by the cut
/// itself, so that a lookup borrows the query text and allocates nothing.
trait ShapeText {
    fn parts(&self) -> (&str, Option<&str>);
}

impl ShapeText for Cut<'_> {
    fn parts(&self) -> (&str, Option<&str>) {
        (self.head, self.anchor.map(|(_, tail)| tail))
    }
}

/// A shape table key: a [`Cut`] of a query text that compiled, owned.
#[derive(Debug)]
struct ShapeKey {
    head: Box<str>,
    tail: Option<Box<str>>,
}

impl ShapeKey {
    fn of(cut: &Cut<'_>) -> Self {
        let (head, tail) = cut.parts();
        ShapeKey {
            head: head.into(),
            tail: tail.map(Into::into),
        }
    }
}

impl ShapeText for ShapeKey {
    fn parts(&self) -> (&str, Option<&str>) {
        (&self.head, self.tail.as_deref())
    }
}

impl<'a> Borrow<dyn ShapeText + 'a> for ShapeKey {
    fn borrow(&self) -> &(dyn ShapeText + 'a) {
        self
    }
}

impl Hash for dyn ShapeText + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn ShapeText + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn ShapeText + '_ {}

// The owned key hashes and compares as the form it is borrowed as.
impl Hash for ShapeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for ShapeKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for ShapeKey {}

/// How a prepared query will run.
enum Route {
    /// The probe found the whole span resident (and counted the hit): the
    /// query reads this matrix. Nothing was planned.
    Resident(Arc<Csr>),
    /// The row memo held the span's ranked list this read asks for: the
    /// answer's items, copied. Nothing was probed or planned.
    Memo(Vec<(usize, f64)>),
    /// Planned and decided by [`Engine::decide`], with the split it chose
    /// now: an [`ExecMode::SparseRow`] plan runs through
    /// [`Engine::propagate`] unless [`Engine::apply`] promotes it, and any
    /// other query materializes through the plan tree.
    Planned(QueryPlan, Option<Split>),
}

/// The promotion rule of a symmetric span, for a span the cache would
/// admit: an even palindrome `H·Hᵀ` of four steps or more, whose halves are
/// products, is [`Refusal::Factored`] when its estimate is more than
/// [`FACTOR_RATIO`] times the bytes of its two halves. Both sides are priced
/// from the relations alone ([`relation_bytes`]), never from what is
/// resident, so the verdict is a property of the span: its halves loading
/// cannot flip it. PathSim's own formulation keeps `H` and computes a row
/// of `H·Hᵀ` when asked; so does this engine, for a square that would cost
/// that much more than what it is made of. Odd palindromes and every other
/// span are promoted as before.
fn factored(hin: &Hin, key: &[StepKey], steps: &[PathStep]) -> Option<Refusal> {
    let symmetric = key.len() >= 4 && key.len().is_multiple_of(2) && is_palindrome(key);
    if !symmetric {
        return None;
    }
    let (left, right) = steps.split_at(key.len() / 2);
    let est_bytes = relation_bytes(hin, steps);
    let halves_bytes = relation_bytes(hin, left) + relation_bytes(hin, right);
    (est_bytes > FACTOR_RATIO.saturating_mul(halves_bytes)).then_some(Refusal::Factored {
        est_bytes,
        halves_bytes,
    })
}

/// The type of `shape`'s answer: `rank` scores objects of the path's start
/// type by row sums, every other verb objects of its end type.
fn answer_type(shape: &Shape) -> TypeId {
    match shape.verb {
        Verb::Rank => shape.start,
        _ => shape.end,
    }
}

/// The ranked list of row `x` an anchored verb reads: PathSim for
/// `pathsim`/`topk`, path counts for `pathcount`/`neighbors`.
fn row_scoring(verb: Verb, x: usize) -> Scoring {
    match verb {
        Verb::PathSim | Verb::TopK => Scoring::PathSim(x),
        _ => Scoring::Count(x),
    }
}

/// Fill every slot of an even half-span's normalizer table in one pass
/// over `half`, the half's links, when they are one resident product `H`:
/// the normalizer of `y` is `Σ v²` over row `y` of `H`, summed in stored
/// order, bit for bit what `row_through(half, y, ..).dot_self()` gives one
/// candidate at a time. Does nothing once the table is whole, or when the
/// half is not one product.
fn fill_normalizers(table: &Normalizers, half: &[Mat<'_>]) {
    let [Mat::Shared(h)] = half else {
        return;
    };
    if table.whole.load(Ordering::Relaxed) || h.nrows() != table.slots.len() {
        return;
    }
    for (y, slot) in table.slots.iter().enumerate() {
        let v: f64 = h.row_values(y).iter().map(|v| v * v).sum();
        slot.store(v.to_bits(), Ordering::Relaxed);
    }
    table.whole.store(true, Ordering::Relaxed);
}

thread_local! {
    /// The thread's row scratch, while no row on the thread holds it.
    static ROW_SCRATCH: Cell<Option<ScatterScratch>> = const { Cell::new(None) };
}

/// Run `f` with the thread's one [`ScatterScratch`]: taken out for the
/// call, so a row and its normalizers reuse one accumulator that is as
/// wide as the widest product the thread has propagated through, and put
/// back after. A thread's first row starts an empty one. If `f` unwinds,
/// the scratch it holds is dropped with it rather than put back: a kernel
/// that stopped mid-row may have left it dirty, and the kernels rely on
/// finding it all zeros.
fn with_row_scratch<R>(f: impl FnOnce(&mut ScatterScratch) -> R) -> R {
    let mut scratch = ROW_SCRATCH.take().unwrap_or_default();
    let out = f(&mut scratch);
    ROW_SCRATCH.set(Some(scratch));
    out
}

/// Row `x` of the product of `links`: the seed's row `x`, propagated
/// through the rest one sparse vector × matrix product at a time.
fn row_through(links: &[Mat<'_>], x: usize, scratch: &mut ScatterScratch) -> SparseVec {
    let seed = SparseVec::from_csr_row(links[0].as_csr(), x);
    links[1..]
        .iter()
        .fold(seed, |row, m| spvm_with(&row, m.as_csr(), scratch))
}

/// Nanoseconds in `d`, saturating (a query cannot run 584 years).
fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Which execution mode a query *actually ran* — unlike
/// [`ExecMode`], which is the plan-time forecast, this reflects promotion:
/// a query planned [`ExecMode::SparseRow`] that crossed
/// [`ExecPolicy::promote_after`] materialized and reports
/// [`TraceMode::Full`]. Under `promote_after(0)` that is every anchored run
/// of a span the cache admits; a span it refuses still reports
/// [`TraceMode::SparseRow`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Materialized (or read) the commuting matrix through the cache.
    #[default]
    Full,
    /// Propagated a sparse row from the anchor; nothing materialized.
    SparseRow,
}

impl TraceMode {
    /// Stable lowercase label for metrics and logs.
    pub const fn as_str(self) -> &'static str {
        match self {
            TraceMode::Full => "full",
            TraceMode::SparseRow => "sparse_row",
        }
    }

    /// Dense index for per-mode metric arrays (`full`, `sparse_row` — in
    /// [`TraceMode::ALL`] order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Every mode, in [`TraceMode::index`] order.
    pub const ALL: [TraceMode; 2] = [TraceMode::Full, TraceMode::SparseRow];
}

/// Per-query execution trace from [`Engine::execute_ids_traced`]: stage
/// timings plus the mode/cache classification the serving stack's
/// histograms are labeled by.
///
/// The default value (mode `Full`, outcome `Hit`, zero times) is what a
/// query that failed before execution (parse/resolve error) reports beyond
/// its `plan_ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryTrace {
    /// How the query actually executed.
    pub mode: TraceMode,
    /// The most expensive way the cache served any product this query
    /// needed (worst-wins across the plan tree). For sparse-row queries:
    /// `Hit` when the propagation was seeded from a resident prefix,
    /// `MissCompute` when it chained from the anchor's relation row.
    pub outcome: CacheOutcome,
    /// Time spent before execution: parse + resolve + the row memo and the
    /// whole-span probe, which on a memo or cache hit plan nothing; plus
    /// chain planning when both missed (or were skipped, on a single-step
    /// path).
    pub plan_ns: u64,
    /// Time spent executing (evaluation + assembly).
    pub exec_ns: u64,
}

/// Interior-mutable per-query observation the engine threads through one
/// materialization. `Cell`-based: a probe lives and dies on one worker's
/// stack.
#[derive(Default)]
struct ExecProbe {
    outcome: Cell<CacheOutcome>,
}

impl ExecProbe {
    /// Fold one product's outcome into the query's summary, worst-wins.
    fn note(&self, outcome: CacheOutcome) {
        self.outcome.set(self.outcome.get().worst(outcome));
    }
}

/// A matrix the engine reads without owning: a relation's adjacency
/// borrowed from the network, or a product shared with the cache.
enum Mat<'a> {
    Borrowed(&'a Csr),
    Shared(Arc<Csr>),
}

impl Mat<'_> {
    fn as_csr(&self) -> &Csr {
        match self {
            Mat::Borrowed(m) => m,
            Mat::Shared(m) => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RowKind;
    use hin_core::HinBuilder;
    use hin_similarity::commuting_matrix;

    /// papers p0{a0,a1}@v0, p1{a1}@v0, p2{a2}@v1 — the metapath fixture.
    fn bib() -> Hin {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        b.link(pa, "p0", "a0", 1.0).unwrap();
        b.link(pa, "p0", "a1", 1.0).unwrap();
        b.link(pa, "p1", "a1", 1.0).unwrap();
        b.link(pa, "p2", "a2", 1.0).unwrap();
        b.link(pv, "p0", "v0", 1.0).unwrap();
        b.link(pv, "p1", "v0", 1.0).unwrap();
        b.link(pv, "p2", "v1", 1.0).unwrap();
        b.build()
    }

    /// The heat the span ledger holds for `query`'s span.
    fn heat_of(engine: &Engine, query: &str) -> u32 {
        let (shape, _) = engine.compile(query).unwrap();
        engine.cache.ledger().get(&shape.key).0.heat
    }

    /// An engine that materializes an anchored query's span on its first
    /// run (`promote_after(0)` on an unbounded cache) — for tests whose
    /// subject is the cache path itself (warming, eviction, snapshots),
    /// which the anchored fast path would otherwise bypass.
    fn materializing_engine(hin: Arc<Hin>) -> Engine {
        Engine::with_config(hin, CacheConfig::default(), ExecPolicy::promote_after(0))
    }

    #[test]
    fn pathsim_matches_direct_computation() {
        let hin = bib();
        let apa = MetaPath::from_type_names(&hin, &["author", "paper", "author"]).unwrap();
        let m = commuting_matrix(&hin, &apa).unwrap();
        let direct = top_k_pathsim(&m, 0, 5);

        let engine = Engine::new(hin);
        let out = engine
            .execute("pathsim author-paper-author from a0")
            .unwrap();
        assert_eq!(out.object_type, "author");
        assert_eq!(out.items.len(), direct.len());
        for ((name, score), (id, want)) in out.items.iter().zip(&direct) {
            assert_eq!(
                name,
                engine.hin().node_name(NodeRef {
                    ty: engine.hin().type_by_name("author").unwrap(),
                    id: *id as u32,
                })
            );
            assert!((score - want).abs() < 1e-12);
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let engine = materializing_engine(Arc::new(bib()));
        let q = "pathsim author-paper-venue-paper-author from a0";
        let first = engine.execute(q).unwrap();
        let computed = engine.stats().cache.misses;
        assert!(computed > 0);
        // even the cold run reuses across the palindrome: the second half
        // of A-P-V-P-A is the transpose of the first half
        assert!(
            engine.stats().cache.symmetry_hits >= 1,
            "symmetric halves must share work within one query"
        );
        let cold_hits = engine.stats().cache.hits;

        // the same row again is the row memo's: the cache is not asked
        let second = engine.execute(q).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.stats().memo_hits, 1);
        assert_eq!(engine.stats().cache.hits, cold_hits);
        // another row of the span reads the resident matrix
        engine
            .execute("pathsim author-paper-venue-paper-author from a1")
            .unwrap();
        assert_eq!(
            engine.stats().cache.misses,
            computed,
            "no recomputation on the warm path"
        );
        assert!(engine.stats().cache.hits > cold_hits);
    }

    #[test]
    fn overlapping_queries_share_subproducts_via_transpose() {
        let engine = materializing_engine(Arc::new(bib()));
        // Warm the A→P→V half-path…
        engine
            .execute("pathcount author-paper-venue from a0")
            .unwrap();
        let warm_misses = engine.stats().cache.misses;
        // …then its reversal must be served by transposing, not recomputing.
        engine
            .execute("pathcount venue-paper-author from v0")
            .unwrap();
        assert_eq!(engine.stats().cache.misses, warm_misses);
        assert!(engine.stats().cache.symmetry_hits >= 1);
    }

    #[test]
    fn verbs_agree_on_the_commuting_matrix() {
        let hin = bib();
        let engine = Engine::new(hin);

        let count = engine
            .execute("pathcount author-paper-author from a1 limit 5")
            .unwrap();
        // a1 co-authored p0 with a0 → 1 shared paper
        assert_eq!(count.items, vec![("a0".to_string(), 1.0)]);

        let peers = engine
            .execute("topk 1 author-paper-author from a1")
            .unwrap();
        assert_eq!(peers.items.len(), 1);
        assert_eq!(peers.items[0].0, "a0");

        let venues = engine.execute("rank venue-paper-author limit 2").unwrap();
        assert_eq!(venues.object_type, "venue");
        // v0 hosts 3 author-paper incidences, v1 hosts 1
        assert_eq!(venues.items[0], ("v0".to_string(), 3.0));
        assert_eq!(venues.items[1], ("v1".to_string(), 1.0));

        let authors = engine.execute("neighbors ^written_by from a1").unwrap();
        assert_eq!(authors.object_type, "paper");
        assert_eq!(authors.items.len(), 2, "a1 wrote p0 and p1");
    }

    #[test]
    fn cross_type_pathcount_keeps_id_coincident_objects() {
        // p0 and a0 share numeric id 0; a cross-type count from p0 must
        // still report a0 (regression: a same-type-only self-exclusion
        // used to drop it).
        let engine = Engine::new(bib());
        let out = engine.execute("pathcount written_by from p0").unwrap();
        assert_eq!(out.object_type, "author");
        assert!(
            out.items.iter().any(|(name, _)| name == "a0"),
            "a0 (id 0) must appear in counts from p0 (id 0): {:?}",
            out.items
        );
    }

    #[test]
    fn neighbors_excludes_self_on_round_trips() {
        let engine = Engine::new(bib());
        let out = engine
            .execute("neighbors author-paper-author from a0")
            .unwrap();
        assert!(out.items.iter().all(|(name, _)| name != "a0"));
    }

    #[test]
    fn execute_many_reports_per_query_results() {
        let engine = Engine::new(bib());
        let results = engine.execute_many(&[
            "pathsim author-paper-author from a0",
            "pathsim author-paper-author from nobody",
            "rank venue-paper-author",
        ]);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(QueryError::Hin(hin_core::HinError::UnknownNode { .. }))
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn batched_block_results_match_sequential_execution_bitwise() {
        let hin = skewed_bib();
        let sequential = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        let batched = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        let queries = [
            "pathsim author-paper-venue-paper-author from a0",
            "pathsim author-paper-venue-paper-author from a5",
            "pathsim author-paper-venue-paper-author from a9",
        ];
        let want: Vec<_> = queries.iter().map(|q| sequential.execute(q)).collect();
        let got = batched.execute_many(&queries);
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(&want) {
            let (got, want) = (got.as_ref().unwrap(), want.as_ref().unwrap());
            assert_eq!(got.items.len(), want.items.len());
            for ((gn, gs), (wn, ws)) in got.items.iter().zip(&want.items) {
                assert_eq!(gn, wn);
                assert_eq!(gs.to_bits(), ws.to_bits(), "score bits diverged for {gn}");
            }
        }
    }

    #[test]
    fn batched_promotion_accounting_is_preserved() {
        let hin = skewed_bib();
        let reference = materializing_engine(Arc::clone(&hin));
        let engine = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(3),
        );
        let queries = [
            "pathsim author-paper-venue-paper-author from a0",
            "pathsim author-paper-venue-paper-author from a5",
            "pathsim author-paper-venue-paper-author from a9",
        ];
        // a batch is this loop: each member runs as it would alone
        let batched: Vec<_> = queries.iter().map(|q| engine.execute_traced(q)).collect();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                *batched[i].0.as_ref().unwrap(),
                reference.execute(q).unwrap()
            );
        }
        // heat counts per member in batch order: two propagate, the third
        // crosses promote_after and materializes the span
        assert_eq!(batched[0].1.mode, TraceMode::SparseRow);
        assert_eq!(batched[1].1.mode, TraceMode::SparseRow);
        assert_eq!(engine.stats().anchored_fast_paths, 2);
        assert_eq!(engine.stats().promotions, 1);
        assert!(
            engine.stats().cache.misses > 0,
            "promotion ran the SpMM chain"
        );
        assert_eq!(batched[2].1.mode, TraceMode::Full);
        // the promoted span is resident now: a later query is a pure hit
        let hits = engine.stats().cache.hits;
        engine.execute(queries[0]).unwrap();
        assert!(engine.stats().cache.hits > hits);
        assert_eq!(engine.stats().promotions, 1);
    }

    #[test]
    fn every_entry_point_is_the_singleton_batch() {
        // one span's life — lazy twice, promoted on the third run, resident
        // after — driven through each entry point on an engine of its own:
        // the answers, the mode that ran and every counter must agree
        let hin = skewed_bib();
        let q = "pathsim author-paper-venue-paper-author from a0";
        let engines: Vec<Engine> = (0..4)
            .map(|_| Engine::from_arc(Arc::clone(&hin))) // promote_after: 3
            .collect();
        let counters = |e: &Engine| {
            (
                e.stats().anchored_fast_paths,
                e.stats().promotions,
                e.stats().promotions_refused,
                e.stats().cache.misses,
                e.stats().cache.hits,
            )
        };
        let stages = [
            (TraceMode::SparseRow, CacheOutcome::MissCompute),
            (TraceMode::SparseRow, CacheOutcome::MissCompute),
            (TraceMode::Full, CacheOutcome::MissCompute),
            (TraceMode::Full, CacheOutcome::Hit),
        ];
        for (run, (mode, outcome)) in stages.into_iter().enumerate() {
            let plain = engines[0].execute(q);
            let (traced, trace) = engines[1].execute_traced(q);
            let batched = engines[2].execute_many(&[q]).remove(0);
            let (ids, ids_trace) = engines[3].execute_ids_traced(q);
            assert_eq!(plain, traced, "run {run}");
            assert_eq!(plain, batched, "run {run}");
            assert_eq!(plain, ids.map(|ids| ids.named(&hin)), "run {run}");
            assert_eq!((trace.mode, trace.outcome), (mode, outcome), "run {run}");
            assert_eq!((ids_trace.mode, ids_trace.outcome), (mode, outcome));
            assert!(trace.exec_ns > 0);
            for other in &engines[1..] {
                assert_eq!(counters(&engines[0]), counters(other), "run {run}");
            }
        }
        assert_eq!(engines[0].stats().anchored_fast_paths, 2);
        assert_eq!(engines[0].stats().promotions, 1);
        // and a query that fails to resolve fails the same way everywhere
        let bad = "pathsim author-paper-author from nobody";
        assert_eq!(engines[0].execute(bad), engines[1].execute_traced(bad).0);
        assert_eq!(
            engines[0].execute(bad),
            engines[2].execute_many(&[bad]).remove(0)
        );
        assert_eq!(
            engines[0].execute(bad),
            engines[3]
                .execute_ids_traced(bad)
                .0
                .map(|ids| ids.named(&hin))
        );
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let hin = Arc::new(bib());
        let reference = Engine::from_arc(Arc::clone(&hin));
        // a budget of a couple of entries: the workload's products churn
        let budget = 256;
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(budget),
            },
        );
        let queries = [
            "pathsim author-paper-venue-paper-author from a0",
            "pathsim author-paper-author from a1",
            "pathcount author-paper-venue from a0",
            "pathcount venue-paper-author from v0",
            "rank venue-paper-author limit 2",
        ];
        for _ in 0..3 {
            for q in queries {
                assert_eq!(
                    engine.execute(q).unwrap(),
                    reference.execute(q).unwrap(),
                    "bounded-cache result must match unbounded reference: {q}"
                );
            }
        }
        assert!(engine.stats().cache.evictions > 0, "tiny budget must evict");
        assert!(
            engine.stats().cache.bytes <= budget,
            "resident {} bytes exceeds budget {budget}",
            engine.stats().cache.bytes
        );
    }

    #[test]
    fn shared_engine_serves_threads_identically() {
        let hin = Arc::new(bib());
        let reference = Engine::from_arc(Arc::clone(&hin));
        let shared = Arc::new(Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 4,
                byte_budget: Some(4096),
            },
        ));
        let queries: Vec<&str> = vec![
            "pathsim author-paper-venue-paper-author from a0",
            "pathsim author-paper-author from a1",
            "pathcount author-paper-venue from a0",
            "pathcount venue-paper-author from v0",
            "rank venue-paper-author limit 2",
            "neighbors written_by from p0",
        ];
        let want: Vec<_> = queries.iter().map(|q| reference.execute(q)).collect();

        let handles: Vec<_> = (0..4)
            .map(|t| {
                let engine = Arc::clone(&shared);
                let queries: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..queries.len() * 4 {
                        let q = &queries[(i + t) % queries.len()];
                        got.push((q.clone(), engine.execute(q)));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (q, result) in h.join().expect("worker thread must not panic") {
                let idx = queries.iter().position(|x| *x == q).unwrap();
                assert_eq!(result, want[idx], "thread result diverged on {q}");
            }
        }
    }

    #[test]
    fn commuting_matrix_api_shares_the_cache() {
        let hin = bib();
        let apa = MetaPath::from_type_names(&hin, &["author", "paper", "author"]).unwrap();
        let direct = commuting_matrix(&hin, &apa).unwrap();
        let engine = Engine::new(hin);
        let cached = engine.commuting_matrix(&apa).unwrap();
        assert_eq!(*cached, direct);
        let again = engine.commuting_matrix(&apa).unwrap();
        assert!(Arc::ptr_eq(&cached, &again), "second call is the same Arc");
        assert!(engine.stats().cache.hits >= 1);
    }

    #[test]
    fn snapshot_restores_a_warm_cache_into_a_cold_engine() {
        let hin = Arc::new(bib());
        let donor = materializing_engine(Arc::clone(&hin));
        let q = "pathsim author-paper-venue-paper-author from a0";
        let want = donor.execute(q).unwrap();
        let snap = donor.snapshot(None);
        assert!(!snap.is_empty(), "executed queries populate the snapshot");

        let cold = Engine::from_arc(Arc::clone(&hin));
        let report = cold.restore(&snap);
        assert_eq!(report.loaded as usize, snap.len());
        assert_eq!(report.rejected, 0);
        assert_eq!(cold.stats().cache.warm_loaded as usize, snap.len());

        let got = cold.execute(q).unwrap();
        assert_eq!(got, want, "warm engine answers byte-identically");
        assert_eq!(
            cold.stats().cache.misses,
            0,
            "a full snapshot leaves nothing to recompute"
        );
    }

    #[test]
    fn restore_into_different_data_rejects_wholesale() {
        let donor = materializing_engine(Arc::new(bib()));
        donor
            .execute("pathsim author-paper-venue-paper-author from a0")
            .unwrap();
        let snap = donor.snapshot(None);
        assert_eq!(
            snap.fingerprint(),
            donor.dataset_fingerprint(),
            "engine snapshots carry identity"
        );

        // the same schema *shape* but different edges: per-entry dim
        // checks can't tell, the dataset fingerprint must
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        b.link(pa, "p0", "a0", 1.0).unwrap();
        b.link(pa, "p0", "a1", 2.0).unwrap(); // changed weight vs bib()
        b.link(pa, "p1", "a1", 1.0).unwrap();
        b.link(pa, "p2", "a2", 1.0).unwrap();
        b.link(pv, "p0", "v0", 1.0).unwrap();
        b.link(pv, "p1", "v0", 1.0).unwrap();
        b.link(pv, "p2", "v1", 1.0).unwrap();
        let other = materializing_engine(Arc::new(b.build()));
        let report = other.restore(&snap);
        assert!(report.fingerprint_mismatch, "rebuilt data must not pass");
        assert_eq!(report.loaded, 0, "no stale matrix may load");
        assert_eq!(report.rejected as usize, snap.len());
        assert_eq!(other.stats().cache.warm_rejected, report.rejected);
        // the engine stays correct — cold, but correct
        let out = other
            .execute("pathsim author-paper-author from a1")
            .unwrap();
        assert_eq!(out.items[0].0, "a0");
        assert!(
            other.stats().cache.misses > 0,
            "served by computing, not stale cache"
        );
    }

    #[test]
    fn plan_is_inspectable_without_execution() {
        let engine = Engine::new(bib());
        let plan = engine
            .plan("pathsim author-paper-venue-paper-author from a0")
            .unwrap();
        assert_eq!(plan.root.span(), (0, 3));
        assert!(plan.describe().contains("author→paper"));
        assert_eq!(engine.stats().cache.misses, 0, "planning computes nothing");
    }

    /// The shape table's keys, as `(head, tail)` pairs.
    fn shape_keys(engine: &Engine) -> Vec<(String, Option<String>)> {
        let shapes = engine.shapes.read().unwrap();
        let mut keys: Vec<_> = shapes
            .keys()
            .map(|k| (k.head.to_string(), k.tail.as_deref().map(str::to_string)))
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn a_shape_is_compiled_once_for_every_anchor() {
        let engine = Engine::new(bib());
        let reference = Engine::new(bib());
        let queries = [
            "pathsim author-paper-author from a0",
            "pathsim author-paper-author from a1",
            "pathsim author-paper-author from \"a2\"",
            "pathsim author-paper-author from nobody", // the anchor fails
            "rank venue-paper-author limit 2",
            "rank venue-paper-author limit 2",
        ];
        // the reference runs the same queries, each compiled whole
        let whole = |q: &str| {
            reference.shapes.write().unwrap().clear();
            q.to_string()
        };
        let explain = |e: &Engine, q: &str| e.plan(q).map(|p| p.to_string());
        for q in queries {
            let got = (explain(&engine, q), engine.execute(q));
            let want = (explain(&reference, &whole(q)), reference.execute(&whole(q)));
            assert_eq!(got, want, "{q}");
            if let ((Err(got), _), (Err(want), _)) = (&got, &want) {
                assert_eq!(got.to_string(), want.to_string(), "{q}");
            }
        }
        assert_eq!(
            shape_keys(&engine),
            [
                (
                    "pathsim author-paper-author from ".to_string(),
                    Some(String::new())
                ),
                ("rank venue-paper-author limit 2".to_string(), None),
            ]
        );
        // what did not compile is not filed
        for q in [
            "pathsim author-paper-venue from a0", // not symmetric
            "pathsim author-paper-author from a0 limit 0",
            "pathsim author-paper-author from \"a0",
        ] {
            assert!(engine.execute(q).is_err(), "{q}");
        }
        assert_eq!(shape_keys(&engine).len(), 2);
    }

    #[test]
    fn the_shape_table_is_bounded() {
        let engine = Engine::new(bib());
        for limit in 1..=SHAPE_CAP + 1 {
            let q = format!("pathcount author-paper-venue from a1 limit {limit}");
            assert_eq!(engine.execute(&q).unwrap().items.len(), 1, "{q}");
            assert!(engine.shapes.read().unwrap().len() <= SHAPE_CAP);
        }
        // reset wholesale on the shape past the cap, which it then holds
        assert_eq!(engine.shapes.read().unwrap().len(), 1);
    }

    /// A network heavy enough that row propagation decisively beats
    /// materialization: many papers, few authors, very few venues.
    fn skewed_bib() -> Arc<Hin> {
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
        Arc::new(b.build())
    }

    #[test]
    fn a_resident_read_is_one_probe_and_no_planning() {
        use crate::plan::PLAN_STEPS_CALLS;
        let hin = skewed_bib();
        let engine = Engine::from_arc(Arc::clone(&hin)); // promote_after: 3
        let q = "pathsim author-paper-venue-paper-author from a0";
        for _ in 0..3 {
            engine.execute(q).unwrap(); // lazy, lazy, promoted
        }
        // past ten results a read is never the row memo's: it reads the
        // resident matrix every time
        let q = "pathsim author-paper-venue-paper-author from a0 limit 50";
        let want = engine.execute(q).unwrap();
        // EXPLAIN keeps the full planner, and its text
        let plans = PLAN_STEPS_CALLS.get();
        assert_eq!(
            engine.plan(q).unwrap().to_string(),
            "cache[author→paper·paper→venue·venue→paper·paper→author] \
             (est 0 flops; left-to-right 8751; promotion: resident)"
        );
        assert_eq!(PLAN_STEPS_CALLS.get(), plans + 1);

        // N resident reads, one at a time and as one batch: N hits, no
        // misses, nothing planned, the same answer
        const N: usize = 5;
        let (hits, misses, symmetry) = (
            engine.stats().cache.hits,
            engine.stats().cache.misses,
            engine.stats().cache.symmetry_hits,
        );
        let plans = PLAN_STEPS_CALLS.get();
        for _ in 0..N {
            let (got, trace) = engine.execute_traced(q);
            assert_eq!(got.unwrap(), want);
            assert_eq!(
                (trace.mode, trace.outcome),
                (TraceMode::Full, CacheOutcome::Hit)
            );
        }
        for got in engine.execute_many(&[q; N]) {
            assert_eq!(got.unwrap(), want);
        }
        assert_eq!(engine.stats().cache.hits, hits + 2 * N as u64);
        assert_eq!(engine.stats().cache.misses, misses);
        assert_eq!(engine.stats().cache.symmetry_hits, symmetry);
        assert_eq!(
            PLAN_STEPS_CALLS.get(),
            plans,
            "a resident read plans nothing"
        );
        assert_eq!(engine.stats().promotions, 1);

        // a span resident only as its reversal: the probe is the one
        // symmetry hit evaluation would have counted, and the row it ranks
        // is the row memo's from then on
        let engine = materializing_engine(Arc::clone(&hin));
        engine
            .execute("pathcount author-paper-venue from a0")
            .unwrap();
        let reversed = "pathcount venue-paper-author from v0";
        assert_eq!(
            engine.plan(reversed).unwrap().to_string(),
            "cache[venue→paper·paper→author] (est 0 flops; left-to-right 600; promotion: resident)"
        );
        let plans = PLAN_STEPS_CALLS.get();
        engine.execute(reversed).unwrap();
        engine.execute(reversed).unwrap();
        assert_eq!(
            (
                engine.stats().cache.hits,
                engine.stats().cache.symmetry_hits,
                engine.stats().cache.misses,
                engine.stats().memo_hits
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(PLAN_STEPS_CALLS.get(), plans);
    }

    #[test]
    fn anchored_fast_path_matches_materialized_results() {
        let hin = skewed_bib();
        let reference = materializing_engine(Arc::clone(&hin));
        // promotion pushed out of reach: every query stays on the fast path
        let lazy = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        let queries = [
            "pathsim author-paper-author from a3",
            "pathsim author-paper-venue-paper-author from a0",
            "topk 5 author-paper-author from a7",
            "pathcount author-paper-venue from a1",
            "pathcount venue-paper-author from v0 limit 7",
            "neighbors author-paper-venue from a2",
        ];
        for q in queries {
            assert_eq!(
                lazy.execute(q).unwrap(),
                reference.execute(q).unwrap(),
                "fast path result diverged: {q}"
            );
        }
        assert_eq!(
            lazy.stats().anchored_fast_paths,
            queries.len() as u64,
            "every cold anchored query propagates"
        );
        assert_eq!(
            lazy.stats().cache.misses,
            0,
            "the fast path materializes nothing"
        );
        assert_eq!(lazy.stats().cache.len, 0);
        assert_eq!(lazy.stats().promotions, 0);
    }

    #[test]
    fn repeated_lazy_pathsim_reuses_memoized_normalizers() {
        let hin = skewed_bib();
        let reference = materializing_engine(Arc::clone(&hin));
        let lazy = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        // Distinct anchors over one palindrome share candidate sets, so
        // the second query's normalizer diagonals come from the memo.
        let (q0, q1) = (
            "pathsim author-paper-venue-paper-author from a0",
            "pathsim author-paper-venue-paper-author from a5",
        );
        assert_eq!(lazy.execute(q0).unwrap(), reference.execute(q0).unwrap());
        assert_eq!(
            lazy.stats().normalizer_memo_hits,
            0,
            "first query seeds the memo"
        );
        assert_eq!(lazy.execute(q1).unwrap(), reference.execute(q1).unwrap());
        assert!(
            lazy.stats().normalizer_memo_hits > 0,
            "second query over the span reuses memoized M[y][y] diagonals"
        );
        // an odd palindrome (self-relation middle step) memoizes under a
        // distinct key — (u·L)·uᵀ diagonals — and stays exact on reuse
        let mut b = HinBuilder::new();
        let user = b.add_type("user");
        let page = b.add_type("page");
        let viewed = b.add_relation("viewed", user, page);
        let links = b.add_relation("links", page, page);
        for u in 0..40 {
            for k in 0..3 {
                b.link(
                    viewed,
                    &format!("u{u}"),
                    &format!("g{}", (u * 5 + k * 7) % 30),
                    1.0,
                )
                .unwrap();
            }
        }
        for g in 0..30 {
            let other = format!("g{}", (g + 1) % 30);
            b.link(links, &format!("g{g}"), &other, 1.0).unwrap();
            b.link(links, &other, &format!("g{g}"), 1.0).unwrap();
        }
        let hin = Arc::new(b.build());
        let reference = materializing_engine(Arc::clone(&hin));
        let lazy = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        let q = "pathsim user-page-page-user from u0";
        assert_eq!(lazy.execute(q).unwrap(), reference.execute(q).unwrap());
        assert_eq!(lazy.execute(q).unwrap(), reference.execute(q).unwrap());
        let before = lazy.stats();
        assert!(before.normalizer_memo_hits > 0);
        assert_eq!(lazy.execute(q).unwrap(), reference.execute(q).unwrap());
        assert!(lazy.stats().normalizer_memo_hits > before.normalizer_memo_hits);
    }

    /// Evict `gone` from a one-shard bounded cache the way traffic would:
    /// store fillers that fit, under keys no query uses, until the LRU has
    /// turned over past it.
    fn turn_the_lru_over(engine: &Engine, gone: &[crate::cache::StepKey]) {
        let filler = Arc::new(Csr::from_triplets(
            100,
            100,
            (0..100u32).flat_map(|r| (0..10u32).map(move |c| (r, (r + c * 13) % 100, 1.0))),
        ));
        for i in 0..64 {
            if engine.cache().peek_exact(gone).is_none() {
                assert_eq!(
                    engine.cache().stats().inserts_refused,
                    0,
                    "evicted, not refused"
                );
                return;
            }
            assert!(engine
                .cache()
                .insert(vec![(42 + i, true)], Arc::clone(&filler)));
        }
        panic!("{gone:?} is still resident after 64 fillers");
    }

    /// The answer of record for a PathSim/TopK query over `m`:
    /// `pathsim_pair` per candidate, full sort, truncate, then names.
    fn pathsim_by_definition(hin: &Hin, m: &Csr, anchor: &str, k: usize) -> Vec<(String, f64)> {
        let author = hin.type_by_name("author").unwrap();
        let x = hin.node_by_name(author, anchor).unwrap().id as usize;
        let mut all: Vec<(usize, f64)> = m
            .row_indices(x)
            .iter()
            .map(|&y| y as usize)
            .filter(|&y| y != x)
            .map(|y| (y, hin_similarity::pathsim_pair(m, x, y)))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all.into_iter()
            .map(|(id, score)| {
                let node = NodeRef {
                    ty: author,
                    id: id as u32,
                };
                (hin.node_name(node).to_string(), score)
            })
            .collect()
    }

    /// `(query, anchor, k)` over the A-P-V-P-A span of [`skewed_bib`].
    const SPAN_QUERIES: [(&str, &str, usize); 3] = [
        (
            "pathsim author-paper-venue-paper-author from a0",
            "a0",
            DEFAULT_LIMIT,
        ),
        ("topk 3 author-paper-venue-paper-author from a5", "a5", 3),
        (
            "pathsim author-paper-venue-paper-author from a11 limit 50",
            "a11",
            50,
        ),
    ];

    /// Every [`SPAN_QUERIES`] answer of `engine` equals the definition
    /// over `m`, names and score bits.
    fn assert_answers_by_definition(engine: &Engine, m: &Csr, stage: &str) {
        for (q, anchor, k) in SPAN_QUERIES {
            let got = engine.execute(q).unwrap().items;
            let want = pathsim_by_definition(engine.hin(), m, anchor, k);
            assert_eq!(got.len(), want.len(), "{stage}: {q}");
            for ((gn, gs), (wn, ws)) in got.iter().zip(&want) {
                assert_eq!(gn, wn, "{stage}: {q}");
                assert_eq!(gs.to_bits(), ws.to_bits(), "{stage}: {q} score of {gn}");
            }
        }
    }

    #[test]
    fn pathsim_answers_are_identical_across_the_span_memos_life() {
        let hin = skewed_bib();
        let apvpa =
            MetaPath::from_type_names(&hin, &["author", "paper", "venue", "paper", "author"])
                .unwrap();
        let key = key_of(apvpa.steps());
        let m = commuting_matrix(&hin, &apvpa).unwrap();

        // one shard with room for the span and little else
        let engine = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(64 * 1024),
            },
            ExecPolicy::promote_after(0),
        );
        // the first read materializes the span and builds its diagonal in
        // the row memo, the later ones find it: three queries, one build
        assert_answers_by_definition(&engine, &m, "first reads");
        assert_eq!(engine.stats().cache.diagonal_builds, 1);
        assert_answers_by_definition(&engine, &m, "memoized");
        assert_eq!(engine.stats().cache.diagonal_builds, 1);

        // eviction takes the matrix, not what the memo keeps of the span:
        // the recomputed span is read with the diagonal already built
        let snap = engine.snapshot(None);
        turn_the_lru_over(&engine, &key);
        assert_answers_by_definition(&engine, &m, "after eviction + recompute");
        assert_eq!(engine.stats().cache.diagonal_builds, 1);

        // a restore brings the matrix back, and a fresh engine builds the
        // diagonal from the restored matrix — from a heap snapshot…
        let from_heap = materializing_engine(Arc::clone(&hin));
        assert!(from_heap.restore(&snap).loaded > 0);
        assert_answers_by_definition(&from_heap, &m, "restored from heap");
        assert_eq!(
            from_heap.stats().cache.misses,
            0,
            "served from the snapshot"
        );
        assert_eq!(from_heap.stats().cache.diagonal_builds, 1);
        // …into a live engine, whose memo the restore leaves as it was…
        assert!(engine.restore(&snap).loaded > 0);
        assert_answers_by_definition(&engine, &m, "restored over a live entry");
        assert_eq!(engine.stats().cache.diagonal_builds, 1);
        // …and from a mapped file, proved by the restore
        let dir = std::env::temp_dir().join(format!("hin-span-memo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.hsnp");
        snap.write_to_file(&path).expect("write");
        let mapped = CacheSnapshot::open(&path).expect("mapped restore");
        let from_file = materializing_engine(Arc::clone(&hin));
        assert!(from_file.restore(&mapped).loaded > 0);
        assert_answers_by_definition(&from_file, &m, "restored from a mapped file");
        assert_eq!(from_file.stats().cache.misses, 0, "served from the mapping");
        assert_eq!(from_file.stats().cache.diagonal_builds, 1);
        drop((from_file, mapped));
        std::fs::remove_dir_all(&dir).unwrap();

        // a memo filled to its cap is reset by the next span that looks for
        // its entry: the diagonal is built again, once, and the answers
        // stay the definition's
        let cap = crate::cache::MEMO_ROWS_CAP;
        let rows = Csr::from_triplets(cap, 1, (0..cap as u32).map(|x| (x, 0, 1.0)));
        let other = [(7, true), (7, false)];
        let filled = engine.cache().memo_admit(&other, RowKind::Count, &rows);
        assert!(filled > 0 && engine.stats().cache.memo_rows >= cap - 3);
        assert_answers_by_definition(&engine, &m, "after a reset");
        assert_eq!(engine.stats().cache.diagonal_builds, 2);
        assert!(engine.stats().cache.memo_rows < 10);
    }

    #[test]
    fn ranked_rows_are_stored_once_per_span_and_read_as_prefixes() {
        let hin = skewed_bib();
        let apvpa =
            MetaPath::from_type_names(&hin, &["author", "paper", "venue", "paper", "author"])
                .unwrap();
        let key = key_of(apvpa.steps());
        let reference = Engine::from_arc(Arc::clone(&hin));
        let engine = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(64 * 1024),
            },
            ExecPolicy::promote_after(0),
        );
        let builds = || engine.cache().ranked_builds();
        let read = |q: &str| {
            let got = engine.execute(q).unwrap();
            assert_eq!(got, reference.execute(q).unwrap(), "{q}");
            got
        };
        let span = "author-paper-venue-paper-author";
        // the first ranked read of a row stores its best ten, whatever it
        // asked for; later reads of that row copy a prefix of them
        assert_eq!(
            read(&format!("pathsim {span} from a0 limit 3")).items.len(),
            3
        );
        assert_eq!(builds(), 1);
        assert_eq!(read(&format!("pathsim {span} from a0")).items.len(), 10);
        assert_eq!(read(&format!("topk 1 {span} from a0")).items.len(), 1);
        assert_eq!(builds(), 1);
        // one list per scoring and row, one of row sums per entry
        read(&format!("pathcount {span} from a0"));
        read(&format!("neighbors {span} from a0 limit 10"));
        read(&format!("pathsim {span} from a5"));
        read(&format!("rank {span} limit 2"));
        read(&format!("rank {span}"));
        assert_eq!(builds(), 4);
        // past ten, or `neighbors` with no limit, ranks and stores nothing
        assert_eq!(
            read(&format!("pathsim {span} from a1 limit 11"))
                .items
                .len(),
            11
        );
        assert_eq!(read(&format!("neighbors {span} from a1")).items.len(), 11);
        read(&format!("rank {span} limit 100"));
        assert_eq!(builds(), 4);

        // the rows are the span's, not its matrix's: an eviction leaves
        // them, and a stored row is read without recomputing the span
        let snap = engine.snapshot(None);
        turn_the_lru_over(&engine, &key);
        let misses = engine.stats().cache.misses;
        read(&format!("pathsim {span} from a0 limit 3"));
        read(&format!("pathsim {span} from a0"));
        assert_eq!((builds(), engine.stats().cache.misses), (4, misses));
        // a row not stored yet recomputes the span and stores one
        read(&format!("pathsim {span} from a3"));
        assert_eq!(builds(), 5);
        assert!(engine.stats().cache.misses > misses);
        // and a restore over the live entry leaves them too
        assert!(engine.restore(&snap).loaded > 0);
        read(&format!("pathsim {span} from a0"));
        read(&format!("rank {span}"));
        assert_eq!(builds(), 5);
        let diagonals = engine.stats().cache.diagonal_builds;
        read(&format!("pathsim {span} from a0 limit 2"));
        assert_eq!(builds(), 5);
        assert_eq!(
            engine.stats().cache.diagonal_builds,
            diagonals,
            "a stored row reads no diagonal"
        );
    }

    #[test]
    fn nan_scores_order_deterministically_instead_of_panicking() {
        // NaN cannot enter through `HinBuilder`, but a served matrix can
        // carry one (restored snapshot, `from_triplets` outside validated
        // ingestion): regression for `partial_cmp().expect("finite")`
        // unwinding the worker inside `assemble`.
        let hin = Arc::new(bib());
        let apa = MetaPath::from_type_names(&hin, &["author", "paper", "author"]).unwrap();
        let poisoned = Csr::from_triplets(
            3,
            3,
            [
                (0u32, 0u32, 2.0),
                (0, 1, f64::NAN),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 2.0),
                (2, 0, 1.0),
                (2, 2, 2.0),
            ],
        );
        let engine = materializing_engine(Arc::clone(&hin));
        engine
            .cache()
            .insert(key_of(apa.steps()), Arc::new(poisoned));
        for q in [
            "pathsim author-paper-author from a0",
            "pathcount author-paper-author from a0",
        ] {
            let first = engine
                .execute(q)
                .expect("a NaN score is an answer, not a panic");
            // total_cmp puts (positive) NaN above every number
            assert_eq!(first.items.len(), 2, "{q}");
            assert_eq!(first.items[0].0, "a1", "{q}");
            assert!(first.items[0].1.is_nan(), "{q}");
            assert_eq!(first.items[1].0, "a2", "{q}");
            let again = engine.execute(q).unwrap();
            let names = |o: &QueryOutput| o.items.iter().map(|i| i.0.clone()).collect::<Vec<_>>();
            assert_eq!(names(&first), names(&again), "{q}");
        }
        assert_eq!(
            engine.stats().cache.misses,
            0,
            "served from the poisoned entry"
        );
    }

    #[test]
    fn hot_spans_promote_to_materialization() {
        let hin = skewed_bib();
        let reference = materializing_engine(Arc::clone(&hin));
        let engine = Engine::from_arc(Arc::clone(&hin)); // promote_after: 3
        let q = "pathsim author-paper-venue-paper-author from a0";
        let want = reference.execute(q).unwrap();
        let verdict = || engine.plan(q).unwrap().promotion;

        for run in 1..=2 {
            assert_eq!(verdict(), Some(Promotion::Heating { run, of: 3 }));
            assert_eq!(engine.execute(q).unwrap(), want);
            assert_eq!(engine.stats().anchored_fast_paths, u64::from(run));
            assert_eq!(engine.stats().cache.misses, 0, "still lazy on run {run}");
        }
        // third query on the span crosses promote_after and materializes
        assert!(engine
            .plan(q)
            .unwrap()
            .to_string()
            .contains("promotion: materializes now"));
        assert_eq!(engine.execute(q).unwrap(), want);
        // the promoted read stored its row; another anchor reads the matrix
        let other = "pathsim author-paper-venue-paper-author from a1";
        assert_eq!(verdict(), Some(Promotion::Memoized));
        assert_eq!(
            engine.plan(other).unwrap().promotion,
            Some(Promotion::Resident)
        );
        assert_eq!(engine.stats().promotions, 1);
        assert_eq!(engine.stats().anchored_fast_paths, 2);
        let misses_after_promotion = engine.stats().cache.misses;
        assert!(misses_after_promotion > 0, "promotion ran the SpMM chain");

        // from here on: memo and cache hits, no recomputation, no more lazy
        // runs
        let hits = engine.stats().cache.hits;
        assert_eq!(engine.execute(q).unwrap(), want);
        assert_eq!(engine.stats().memo_hits, 1);
        assert_eq!(
            engine.execute(other).unwrap(),
            reference.execute(other).unwrap()
        );
        assert_eq!(engine.stats().cache.misses, misses_after_promotion);
        assert!(engine.stats().cache.hits > hits);
        assert_eq!(engine.stats().anchored_fast_paths, 2);
        assert_eq!(engine.stats().promotions, 1);
        // an unbounded cache admits everything: nothing was ever refused
        assert_eq!(engine.stats().promotions_refused, 0);
        assert_eq!(engine.stats().cache.inserts_refused, 0);
    }

    #[test]
    fn a_span_estimated_over_the_slice_is_never_promoted() {
        let hin = skewed_bib();
        let reference = materializing_engine(Arc::clone(&hin));
        // A-P-V-P-A is 12×12 here: an estimate of well over a kilobyte
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 2,
                byte_budget: Some(1024),
            },
        );
        let q = "pathsim author-paper-venue-paper-author from a0";
        let plan = engine.plan(q).unwrap();
        assert!(
            plan.est_bytes > 512,
            "estimated at {} bytes",
            plan.est_bytes
        );
        assert!(plan.to_string().contains("> 512 B shard slice"), "{plan}");
        assert!(
            plan.to_string().contains("promotion: refused — est 1."),
            "{plan}"
        );
        // past ten results a read is never the row memo's, so every one of
        // these runs is decided, refused and propagated
        let deep = format!("{q} limit 11");
        let want = reference.execute(&deep).unwrap();
        for _ in 0..30 {
            assert_eq!(engine.execute(&deep).unwrap(), want);
        }
        let before = engine.stats();
        assert_eq!(before.promotions, 0);
        assert_eq!(before.promotions_refused, 30);
        assert_eq!(before.anchored_fast_paths, 30, "refused runs are lazy runs");
        assert_eq!(before.memo_hits, 0);
        // the span is never materialized; its halves A-P-V and V-P-A mirror
        // each other and sit in different shards, so each gets a slice:
        // A-P-V is computed once, V-P-A arrives as its transpose, and the
        // row is one product through the resident halves
        assert_eq!(before.cache.misses, 1, "one half was computed");
        assert_eq!(before.cache.symmetry_hits, 1, "its mirror transposed");
        assert_eq!(before.factor_promotions, 2);
        assert_eq!(before.cache.inserts_refused, 0, "nothing was refused");
        let plan = engine.plan(q).unwrap().to_string();
        let row = "row: cache[author→paper·paper→venue] · cache[venue→paper·paper→author]";
        assert!(plan.contains(row), "{plan}");
        assert_eq!(heat_of(&engine, q), 0, "never counted");
        let half = "pathcount author-paper-venue from a0";
        assert_eq!(heat_of(&engine, half), 0, "both halves crossed");
        // a read of ten is refused once, stores its row, and its repeats
        // are memo hits that decide nothing
        let want = reference.execute(q).unwrap();
        for _ in 0..3 {
            assert_eq!(engine.execute(q).unwrap(), want);
        }
        let after = engine.stats();
        assert_eq!(after.promotions_refused - before.promotions_refused, 1);
        assert_eq!(after.anchored_fast_paths - before.anchored_fast_paths, 1);
        assert_eq!(after.memo_hits, 2);
        assert_eq!(after.promotions, 0);
    }

    /// 400 papers, one hub author on half of them (40 more authors share
    /// the rest), through two parallel paper→author relations. The uniform
    /// scatter model prices `written_by · ^reviewed_by` (400×400) at ≈ 3.9 k
    /// entries; the hub alone contributes 200² = 40 k.
    fn hub_bib() -> Arc<Hin> {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let written = b.add_relation("written_by", paper, author);
        let reviewed = b.add_relation("reviewed_by", paper, author);
        for p in 0..400 {
            let who = if p < 200 {
                "hub".to_string()
            } else {
                format!("a{}", (p - 200) / 5)
            };
            b.link(written, &format!("p{p}"), &who, 1.0).unwrap();
            b.link(reviewed, &format!("p{p}"), &who, 1.0).unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn an_underestimated_span_is_materialized_once_then_refused_with_its_mirror() {
        let hin = hub_bib();
        let reference = materializing_engine(Arc::clone(&hin));
        // 64 KB in one shard: room for the hub span's *estimate* (≈ 50 KB),
        // not for its product (≈ 480 KB)
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(64 * 1024),
            },
        );
        // a small resident neighbour the failed promotion must not disturb
        engine.execute("rank ^written_by-written_by").unwrap();
        let neighbour = engine.stats().cache.len;
        assert!(neighbour > 0);

        let span = |p: usize| format!("pathcount written_by-^reviewed_by from p{p}");
        let plan = engine.plan(&span(0)).unwrap();
        assert_eq!(plan.promotion, Some(Promotion::Heating { run: 1, of: 3 }));
        assert!(plan.to_string().contains("promotion: cold 1/3"), "{plan}");
        assert!(
            plan.est_bytes < 64 * 1024,
            "the estimate fits: {}",
            plan.est_bytes
        );
        let misses = engine.stats().cache.misses;
        for p in 0..10 {
            assert_eq!(
                engine.execute(&span(p)).unwrap(),
                reference.execute(&span(p)).unwrap()
            );
        }
        assert_eq!(engine.stats().promotions, 1, "the third query found out");
        assert_eq!(
            engine.stats().cache.misses,
            misses + 1,
            "one product, computed once"
        );
        assert_eq!(engine.stats().cache.inserts_refused, 1);
        assert_eq!(engine.stats().promotions_refused, 7);
        assert_eq!(engine.stats().anchored_fast_paths, 9);
        assert_eq!(
            engine.stats().cache.evictions,
            0,
            "nobody paid for the attempt"
        );
        assert_eq!(
            engine.stats().cache.len,
            neighbour,
            "neighbours still resident"
        );
        let plan = engine.plan(&span(0)).unwrap();
        assert!(
            plan.to_string()
                .contains("promotion: refused — product was 483.6 KB"),
            "{plan}"
        );

        // the mirror span is the transpose of the same product
        let mirror = |p: usize| format!("pathcount reviewed_by-^written_by from p{p}");
        assert!(matches!(
            engine.plan(&mirror(7)).unwrap().promotion,
            Some(Promotion::Refused(crate::cache::Refusal::Product { .. }))
        ));
        for p in 10..15 {
            assert_eq!(
                engine.execute(&mirror(p)).unwrap(),
                reference.execute(&mirror(p)).unwrap()
            );
        }
        assert_eq!(engine.stats().promotions, 1);
        assert_eq!(engine.stats().promotions_refused, 12);
        assert_eq!(engine.stats().cache.misses, misses + 1);
        assert_eq!(heat_of(&engine, &span(0)), 0);
        // each refused read stored its row: a repeat is a memo hit
        assert_eq!(
            engine.execute(&mirror(10)).unwrap(),
            reference.execute(&mirror(10)).unwrap()
        );
        assert_eq!(engine.stats().promotions_refused, 12);
        assert_eq!(engine.stats().memo_hits, 1);
    }

    #[test]
    fn a_batched_span_group_decides_as_the_sequential_run_does() {
        let hin = hub_bib();
        let queries: Vec<String> = (0..6)
            .map(|p| format!("pathcount written_by-^reviewed_by from p{}", p * 50))
            .collect();
        let counters = |e: &Engine| {
            (
                e.stats().promotions,
                e.stats().promotions_refused,
                e.stats().anchored_fast_paths,
                e.stats().cache.misses,
                e.stats().cache.inserts_refused,
                e.stats().cache.evictions,
            )
        };
        // an estimate that fits and a product that does not; then an
        // estimate that does not fit either
        for budget in [64 * 1024, 4 * 1024] {
            let config = CacheConfig {
                shards: 1,
                byte_budget: Some(budget),
            };
            let sequential = Engine::with_cache_config(Arc::clone(&hin), config);
            let batched = Engine::with_cache_config(Arc::clone(&hin), config);
            let want: Vec<_> = queries
                .iter()
                .map(|q| sequential.execute_traced(q))
                .collect();
            let got = batched.execute_many(&queries);
            for (got, (want, _)) in got.iter().zip(&want) {
                assert_eq!(got.as_ref().unwrap(), want.as_ref().unwrap());
            }
            assert_eq!(counters(&batched), counters(&sequential), "budget {budget}");
            if budget == 64 * 1024 {
                assert_eq!(counters(&batched), (1, 3, 5, 1, 1, 0));
                assert_eq!(want[2].1.mode, TraceMode::Full, "the third member promoted");
                assert_eq!(want[5].1.mode, TraceMode::SparseRow);
            } else {
                assert_eq!(counters(&batched), (0, 6, 6, 0, 0, 0));
            }
        }
    }

    #[test]
    fn reversed_spans_share_heat() {
        let hin = skewed_bib();
        let engine = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(2),
        );
        // a span and its reversal heat one counter: the second query —
        // on the mirrored path — crosses the threshold
        engine
            .execute("pathcount author-paper-venue from a0")
            .unwrap();
        assert_eq!(engine.stats().promotions, 0);
        engine
            .execute("pathcount venue-paper-author from v0")
            .unwrap();
        assert_eq!(
            engine.stats().promotions,
            1,
            "mirror query promotes the span"
        );
    }

    #[test]
    fn promote_after_zero_materializes_immediately() {
        let hin = skewed_bib();
        let engine = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(0),
        );
        engine
            .execute("pathcount author-paper-venue from a0")
            .unwrap();
        assert_eq!(engine.stats().anchored_fast_paths, 0);
        assert_eq!(engine.stats().promotions, 1);
        assert!(engine.stats().cache.misses > 0);

        // "materialize now" holds under a race: threads released together
        // onto one cold span each cross at once, and every run reads its
        // row from the one product the cache computed
        const N: usize = 8;
        let q = |i: usize| format!("pathsim author-paper-venue-paper-author from a{i}");
        let reference = materializing_engine(Arc::clone(&hin));
        let engine = materializing_engine(Arc::clone(&hin));
        let start = std::sync::Barrier::new(N);
        std::thread::scope(|s| {
            for i in 0..N {
                let (engine, reference, start) = (&engine, &reference, &start);
                s.spawn(move || {
                    start.wait();
                    let (got, trace) = engine.execute_traced(&q(i));
                    assert_eq!(trace.mode, TraceMode::Full, "{}", q(i));
                    assert_eq!(got.unwrap(), reference.execute(&q(i)).unwrap());
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.anchored_fast_paths, 0);
        assert_eq!(
            stats.cache.dup_computes, 0,
            "one product, however many crossed"
        );
        assert!((1..=N as u64).contains(&stats.promotions), "{stats:?}");
    }

    #[test]
    fn a_promotion_the_insert_refuses_stores_its_row_in_the_memo() {
        // a product the cache does not keep, read whole once: the estimate
        // of P-A-P (≈ 50 KB) fits the 64 KB slice, so the first run
        // promotes, and the product (≈ 480 KB, the hub's 200 papers
        // pairwise) is refused at the door
        let hin = hub_bib();
        let engine = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(64 * 1024),
            },
            ExecPolicy::promote_after(0),
        );
        let written = hin.relation_by_name("written_by").unwrap();
        let pap = MetaPath::new(vec![
            PathStep::Forward(written),
            PathStep::Backward(written),
        ]);
        let m = commuting_matrix(&hin, &pap).unwrap();
        let paper = hin.type_by_name("paper").unwrap();
        let q = |p: usize| format!("pathsim written_by-^written_by from p{p}");
        let by_definition = |p: usize| -> Vec<(String, f64)> {
            let mut all: Vec<(usize, f64)> = m
                .row_indices(p)
                .iter()
                .map(|&y| y as usize)
                .filter(|&y| y != p)
                .map(|y| (y, hin_similarity::pathsim_pair(&m, p, y)))
                .collect();
            all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            all.truncate(DEFAULT_LIMIT);
            let name = |id: usize| {
                hin.node_name(NodeRef {
                    ty: paper,
                    id: id as u32,
                })
            };
            all.into_iter()
                .map(|(id, s)| (name(id).to_string(), s))
                .collect()
        };
        assert!(engine.plan(&q(0)).unwrap().est_bytes < 64 * 1024);
        let (got, trace) = engine.execute_traced(&q(0));
        assert_eq!(trace.mode, TraceMode::Full, "the promotion materialized");
        assert_eq!(got.unwrap().items, by_definition(0));
        let stats = engine.stats();
        assert_eq!((stats.promotions, stats.cache.inserts_refused), (1, 1));
        // what the read derived is the span's, kept in the row memo
        assert_eq!(stats.cache.diagonal_builds, 1);
        assert_eq!(engine.cache().ranked_builds(), 1);
        // measured oversize now: the stored row is a memo hit, and later
        // runs of other rows are refused and propagate, storing each row
        // once for its repeats
        let (got, trace) = engine.execute_traced(&q(0));
        assert_eq!(trace.mode, TraceMode::Full);
        assert_eq!(got.unwrap().items, by_definition(0));
        assert_eq!(engine.stats().memo_hits, 1);
        for p in [1, 250] {
            let (got, trace) = engine.execute_traced(&q(p));
            assert_eq!(trace.mode, TraceMode::SparseRow);
            assert_eq!(got.unwrap().items, by_definition(p), "p{p}");
        }
        assert_eq!(engine.stats().promotions, 1);
        assert_eq!(engine.stats().cache.inserts_refused, 1);
        assert_eq!(engine.cache().ranked_builds(), 3);
        let (got, trace) = engine.execute_traced(&q(250));
        assert_eq!(got.unwrap().items, by_definition(250));
        assert_eq!(trace.mode, TraceMode::Full, "{trace:?}");
        assert_eq!(engine.stats().memo_hits, 2);
        assert_eq!(engine.stats().promotions_refused, 2);
        assert_eq!(engine.cache().ranked_builds(), 3);
    }

    #[test]
    fn evicted_seed_degrades_to_propagating_from_the_anchor() {
        let hin = skewed_bib();
        let reference = materializing_engine(Arc::clone(&hin));
        let engine = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(64 * 1024),
            },
            ExecPolicy::promote_after(u32::MAX),
        );
        // Materialize the A-P-V prefix so the planner offers it as a seed.
        // The queried path extends it by one step only, so the prefix is
        // the seed and the one remaining step its only link.
        let apv = MetaPath::from_type_names(engine.hin(), &["author", "paper", "venue"]).unwrap();
        engine.commuting_matrix(&apv).unwrap();
        let q = "pathcount author-paper-venue-paper from a0 limit 12";
        let plan = engine.plan(q).unwrap();
        match plan.mode {
            crate::plan::ExecMode::SparseRow { seed, .. } => {
                assert_eq!(seed, Some(1), "resident prefix offered as seed")
            }
            ref other => panic!("anchored query must plan lazy, got {other:?}"),
        }

        // evict the prefix between plan and execute
        turn_the_lru_over(&engine, &key_of(apv.steps()));

        // execution falls back to propagating from the anchor — correct,
        // just colder
        assert_eq!(engine.execute(q).unwrap(), reference.execute(q).unwrap());
        assert_eq!(engine.stats().anchored_fast_paths, 1);
    }

    #[test]
    fn odd_palindrome_pathsim_normalizers_match_full_matrix() {
        // user-page-page-user is a 3-step palindrome (the middle step is a
        // self-relation `is_palindrome` leaves unconstrained): M = V·L·Vᵀ,
        // whose diagonal is (u·L)·uᵀ, NOT the half-row self-dot ‖u‖² —
        // regression for the fast path silently dropping L from every
        // normalizer.
        let mut b = HinBuilder::new();
        let user = b.add_type("user");
        let page = b.add_type("page");
        let viewed = b.add_relation("viewed", user, page);
        let links = b.add_relation("links", page, page);
        for u in 0..40 {
            for k in 0..3 {
                b.link(
                    viewed,
                    &format!("u{u}"),
                    &format!("g{}", (u * 5 + k * 7) % 30),
                    1.0,
                )
                .unwrap();
            }
        }
        for g in 0..30 {
            // symmetric page-page links, so the type-name path resolves
            let other = format!("g{}", (g + 1) % 30);
            b.link(links, &format!("g{g}"), &other, 1.0).unwrap();
            b.link(links, &other, &format!("g{g}"), 1.0).unwrap();
        }
        let hin = Arc::new(b.build());
        let reference = materializing_engine(Arc::clone(&hin));
        let lazy = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        for q in [
            "pathsim user-page-page-user from u0",
            "pathsim user-page-page-user from u7",
            "topk 5 user-page-page-user from u3",
            // directed middle through explicit relation steps: the same
            // u·L·uᵀ diagonal formula must hold for an asymmetric L
            "pathsim viewed-links-^viewed from u0",
        ] {
            assert_eq!(
                lazy.execute(q).unwrap(),
                reference.execute(q).unwrap(),
                "{q}"
            );
        }
        assert!(
            lazy.stats().anchored_fast_paths > 0,
            "the odd-palindrome queries must actually exercise the fast path"
        );
    }

    #[test]
    fn pathcount_and_neighbors_default_limits_are_pinned() {
        // a0 co-authored one paper with each of 15 distinct peers: the
        // anchored row has 15 candidates
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let pa = b.add_relation("written_by", paper, author);
        for i in 0..15 {
            let pn = format!("p{i}");
            b.link(pa, &pn, "a0", 1.0).unwrap();
            b.link(pa, &pn, &format!("peer{i}"), 1.0).unwrap();
        }
        let hin = Arc::new(b.build());

        for (label, engine) in [
            ("lazy", Engine::from_arc(Arc::clone(&hin))),
            ("materializing", materializing_engine(Arc::clone(&hin))),
        ] {
            // pathcount is a ranking verb: top-DEFAULT_LIMIT by default
            let counts = engine
                .execute("pathcount author-paper-author from a0")
                .unwrap();
            assert_eq!(counts.items.len(), DEFAULT_LIMIT, "{label} pathcount");
            // neighbors is an enumeration verb: the whole reachable set
            let all = engine
                .execute("neighbors author-paper-author from a0")
                .unwrap();
            assert_eq!(all.items.len(), 15, "{label} neighbors");
            // explicit limits override both defaults
            let counts = engine
                .execute("pathcount author-paper-author from a0 limit 12")
                .unwrap();
            assert_eq!(counts.items.len(), 12, "{label} pathcount limit");
            let some = engine
                .execute("neighbors author-paper-author from a0 limit 3")
                .unwrap();
            assert_eq!(some.items.len(), 3, "{label} neighbors limit");
        }
    }

    #[test]
    fn traced_execution_reports_mode_and_outcome() {
        let hin = skewed_bib();
        let q = "pathcount author-paper-venue from a0";

        // lazy, never promoted: sparse-row, chained from the anchor's row
        let lazy = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        let (result, trace) = lazy.execute_traced(q);
        assert_eq!(result.unwrap(), lazy.execute(q).unwrap());
        assert_eq!(trace.mode, TraceMode::SparseRow);
        assert_eq!(trace.outcome, CacheOutcome::MissCompute, "no seed resident");
        assert!(trace.plan_ns > 0 && trace.exec_ns > 0);

        // a resident prefix turns the fast path's outcome into a hit
        let apv = MetaPath::from_type_names(lazy.hin(), &["author", "paper", "venue"]).unwrap();
        lazy.commuting_matrix(&apv).unwrap();
        let (_, seeded) = lazy.execute_traced("pathcount author-paper-venue-paper from a0");
        assert_eq!(seeded.mode, TraceMode::SparseRow);
        assert_eq!(seeded.outcome, CacheOutcome::Hit, "seeded from cache");

        // promote_after(0): full materialization, then a pure hit on the warm run
        let reference = materializing_engine(Arc::clone(&hin));
        let (_, cold) = reference.execute_traced(q);
        assert_eq!(cold.mode, TraceMode::Full);
        assert_eq!(cold.outcome, CacheOutcome::MissCompute);
        let (_, warm) = reference.execute_traced(q);
        assert_eq!(warm.outcome, CacheOutcome::Hit);

        // a query that fails resolution still reports its planning time
        let (err, trace) = reference.execute_traced("pathcount author-paper-venue from nobody");
        assert!(err.is_err());
        assert_eq!(trace.exec_ns, 0, "nothing executed");
        assert!(trace.plan_ns > 0);
    }

    /// Author×venue is thin and author×author through a venue nearly
    /// dense: every paper has two authors and one of four venues.
    fn venue_bib() -> Arc<Hin> {
        let (authors, venues) = (120, 4);
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        for p in 0..3 * authors {
            let first = p % authors;
            let pn = format!("p{p}");
            b.link(pa, &pn, &format!("a{first}"), 1.0).unwrap();
            b.link(pa, &pn, &format!("a{}", (p * 7 + 3) % authors), 1.0)
                .unwrap();
            let v = (first + p / authors) % venues;
            b.link(pv, &pn, &format!("v{v}"), 1.0).unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn a_refused_row_looks_at_each_orientation_once() {
        use crate::cache::PEEKS;
        let hin = venue_bib();
        let span = "author-paper-venue-paper-author";
        let reference = materializing_engine(Arc::clone(&hin));
        // the real halves H (author×venue) and Hᵀ, and their estimates
        reference
            .execute("pathcount author-paper-venue from a0")
            .unwrap();
        let h = reference.stats().cache.bytes;
        reference
            .execute("pathcount venue-paper-author from v0")
            .unwrap();
        let ht = reference.stats().cache.bytes - h;
        let cold = Engine::from_arc(Arc::clone(&hin));
        let est = |path: &str, anchor: &str| {
            let q = format!("pathcount {path} from {anchor}");
            cold.plan(&q).unwrap().est_bytes
        };
        let slice = [
            h,
            ht,
            est("author-paper-venue", "a0"),
            est("venue-paper-author", "v0"),
        ]
        .into_iter()
        .max()
        .unwrap()
            + 8;
        assert!(est(span, "a0") > slice, "the span is refused");
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 8,
                byte_budget: Some(8 * slice),
            },
        );
        let q = |a: usize| format!("pathsim {span} from a{a}");
        // H and Hᵀ heat one counter: H materializes on the third refused
        // run, Hᵀ on the sixth
        for a in 0..6 {
            engine.execute(&q(a)).unwrap();
        }
        assert_eq!(engine.stats().factor_promotions, 2);
        assert_eq!(engine.stats().cache.len, 2, "both halves resident");

        for a in 6..12 {
            let want = reference.execute(&q(a)).unwrap();
            PEEKS.with(|p| p.borrow_mut().clear());
            let hits = engine.stats().cache.hits;
            assert_eq!(engine.execute(&q(a)).unwrap(), want);
            let peeks = PEEKS.with(|p| p.take());
            // A·V, V·A, A·V·P and its mirror P·V·A (the mirror of V·P·A's
            // own key too), and the palindrome P·V·P: one look each
            assert_eq!(peeks.len(), 5, "{peeks:?}");
            assert!(peeks.values().all(|&n| n == 1), "{peeks:?}");
            // counting: the two halves for the row, H again for the
            // normalizers
            assert_eq!(engine.stats().cache.hits - hits, 3);
        }
        let stats = engine.stats();
        assert_eq!((stats.promotions, stats.factor_promotions), (0, 2));
        assert_eq!(stats.cache.misses, 1, "Hᵀ is H's transpose");
    }

    /// A-P-V-P-A over [`venue_bib`]: its square is nearly dense, its halves
    /// (author×venue and venue×author) thin.
    const VENUE_SPAN: &str = "author-paper-venue-paper-author";

    #[test]
    fn a_symmetric_square_far_larger_than_its_halves_is_never_promoted() {
        let hin = venue_bib();
        let q = |a: usize| format!("pathsim {VENUE_SPAN} from a{a}");
        let key = engine_key(&hin, VENUE_SPAN);
        // the square made resident by hand is what every answer is held to
        let reference = Engine::from_arc(Arc::clone(&hin));
        let path = MetaPath::from_type_names(&hin, &VENUE_SPAN.split('-').collect::<Vec<_>>());
        reference.commuting_matrix(&path.unwrap()).unwrap();
        // an unbounded cache that materializes whatever it may
        let engine = materializing_engine(Arc::clone(&hin));
        assert_eq!(
            engine.plan(&q(0)).unwrap().to_string(),
            "row-propagate[((author→paper·paper→venue)·(venue→paper·paper→author))] \
             (full est 36203 flops; promotion: refused — est 154.6 KB > 8 × halves 9.7 KB; \
             row: heating 1/0[author→paper·paper→venue] · heating 1/0[venue→paper·paper→author])"
        );
        for round in 0..3 {
            for a in 0..120 {
                let (got, trace) = engine.execute_traced(&q(a));
                assert_eq!(
                    got.unwrap(),
                    reference.execute(&q(a)).unwrap(),
                    "{round} a{a}"
                );
                let mode = [TraceMode::SparseRow, TraceMode::Full][(round > 0) as usize];
                assert_eq!(trace.mode, mode, "round {round}: memo hits report Full");
                assert!(engine.cache().peek_exact(&key).is_none(), "never resident");
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.promotions, 0);
        assert_eq!((stats.promotions_refused, stats.memo_hits), (120, 240));
        assert_eq!(stats.factor_promotions, 2, "H and its mirror, once each");
        assert_eq!(stats.cache.len, 2, "the halves are all that is resident");
        assert_eq!(stats.cache.memo_rows, 120);
        assert_eq!(
            engine.plan(&q(0)).unwrap().promotion,
            Some(Promotion::Memoized)
        );
        assert!(engine
            .plan(&q(0))
            .unwrap()
            .to_string()
            .ends_with("; promotion: memoized row)"));

        // A-P-A is two steps, so it promotes whole, as before
        let apa = "pathsim author-paper-author from a0";
        assert_eq!(engine.execute_traced(apa).1.mode, TraceMode::Full);
        assert_eq!(engine.stats().promotions, 1);
        assert!(engine
            .cache()
            .peek_exact(&engine_key(&hin, "author-paper-author"))
            .is_some());
    }

    /// The cache key of a type-name path over `hin`.
    fn engine_key(hin: &Hin, path: &str) -> PathKey {
        let path = MetaPath::from_type_names(hin, &path.split('-').collect::<Vec<_>>()).unwrap();
        key_of(path.steps())
    }

    #[test]
    fn the_rule_governs_promotion_only() {
        let hin = venue_bib();
        let key = engine_key(&hin, VENUE_SPAN);
        // `rank` is not anchored: it materializes the square and keeps it
        let engine = materializing_engine(Arc::clone(&hin));
        engine
            .execute(&format!("rank {VENUE_SPAN} limit 3"))
            .unwrap();
        assert!(engine.cache().peek_exact(&key).is_some());
        let q = format!("pathcount {VENUE_SPAN} from a7");
        assert_eq!(
            engine.plan(&q).unwrap().promotion,
            Some(Promotion::Resident)
        );
        // and `commuting_matrix` hands the product over and caches it
        let engine = materializing_engine(Arc::clone(&hin));
        let path = MetaPath::from_type_names(&hin, &VENUE_SPAN.split('-').collect::<Vec<_>>());
        let m = engine.commuting_matrix(&path.unwrap()).unwrap();
        assert_eq!(m.nrows(), 120);
        assert!(engine.cache().peek_exact(&key).is_some());
        // a symmetric span of two steps, or one whose square is no larger
        // than eight times its halves, heats as it always did
        let small = materializing_engine(skewed_bib());
        for q in [
            "pathsim author-paper-author from a0",
            "pathsim author-paper-venue-paper-author from a0",
        ] {
            assert_eq!(
                small.plan(q).unwrap().promotion,
                Some(Promotion::Heating { run: 1, of: 0 }),
                "{q}"
            );
        }
    }

    #[test]
    fn an_odd_palindrome_heats_as_before() {
        // user-page-page-user is V·L·Vᵀ: its key is no palindrome (the
        // middle step is not its own reversal), so the rule passes it by
        let mut b = HinBuilder::new();
        let user = b.add_type("user");
        let page = b.add_type("page");
        let viewed = b.add_relation("viewed", user, page);
        let links = b.add_relation("links", page, page);
        for u in 0..200 {
            b.link(viewed, &format!("u{u}"), &format!("g{}", u % 3), 1.0)
                .unwrap();
        }
        for g in 0..3 {
            b.link(links, &format!("g{g}"), &format!("g{}", (g + 1) % 3), 1.0)
                .unwrap();
        }
        let engine = Engine::new(b.build());
        let plan = engine.plan("pathsim viewed-links-^viewed from u0").unwrap();
        assert!(
            plan.est_bytes > 8 * 3000,
            "a square far larger than its halves: {plan}"
        );
        assert_eq!(
            plan.promotion,
            Some(Promotion::Heating { run: 1, of: 3 }),
            "{plan}"
        );
        assert!(plan.to_string().contains("promotion: cold 1/3"), "{plan}");
    }

    #[test]
    fn a_memoized_read_is_one_probe_and_nothing_else() {
        use crate::cache::PEEKS;
        use crate::plan::PLAN_STEPS_CALLS;
        let hin = venue_bib();
        let engine = Engine::from_arc(Arc::clone(&hin));
        let key = engine_key(&hin, VENUE_SPAN);
        let spans = [&key[..], &key[..2], &key[2..]];
        let ledger = |e: &Engine| spans.map(|span| e.cache.ledger().get(span).0);
        let q = format!("topk 4 {VENUE_SPAN} from a3");
        // the first read propagates and stores the row; `pathsim` asks for
        // ten of the same scoring, the stored depth
        let want = engine.execute(&q).unwrap();
        let pathsim = engine
            .execute(&format!("pathsim {VENUE_SPAN} from a3"))
            .unwrap();
        assert_eq!(want.items[..], pathsim.items[..4]);
        let before = (engine.stats(), ledger(&engine), PLAN_STEPS_CALLS.get());
        PEEKS.with(|p| p.borrow_mut().clear());
        for _ in 0..3 {
            let (got, trace) = engine.execute_traced(&q);
            assert_eq!(got.unwrap(), want);
            assert_eq!(
                (trace.mode, trace.outcome),
                (TraceMode::Full, CacheOutcome::Hit)
            );
        }
        let after = (engine.stats(), ledger(&engine), PLAN_STEPS_CALLS.get());
        assert!(PEEKS.with(|p| p.take()).is_empty(), "nothing priced");
        assert_eq!(after.2, before.2, "nothing planned");
        assert_eq!(after.1, before.1, "the ledger is as it was");
        let memo_hits = before.0.memo_hits + 3;
        assert_eq!(
            after.0,
            EngineStats {
                memo_hits,
                ..before.0
            },
            "only the memo hit counts"
        );
    }

    #[test]
    fn a_memoized_read_of_a_resident_span_is_one_probe_and_nothing_else() {
        use crate::cache::PEEKS;
        use crate::plan::PLAN_STEPS_CALLS;
        let engine = materializing_engine(skewed_bib());
        let queries = [
            "pathsim author-paper-author from a3",
            "topk 2 author-paper-author from a3",
            "pathcount author-paper-venue from a1 limit 4",
            "neighbors author-paper-venue from a1 limit 10",
            "rank author-paper-venue limit 3",
        ];
        // first reads make the spans resident and store their rows
        let want: Vec<_> = queries.iter().map(|q| engine.execute(q).unwrap()).collect();
        for q in queries {
            assert_eq!(
                engine.plan(q).unwrap().promotion,
                Some(Promotion::Memoized),
                "{q}"
            );
        }
        let before = (engine.stats(), PLAN_STEPS_CALLS.get());
        PEEKS.with(|p| p.borrow_mut().clear());
        for (q, want) in queries.iter().zip(&want) {
            let (got, trace) = engine.execute_traced(q);
            assert_eq!(&got.unwrap(), want, "{q}");
            assert_eq!(
                (trace.mode, trace.outcome),
                (TraceMode::Full, CacheOutcome::Hit)
            );
        }
        let after = (engine.stats(), PLAN_STEPS_CALLS.get());
        assert!(PEEKS.with(|p| p.take()).is_empty(), "nothing priced");
        assert_eq!(after.1, before.1, "nothing planned");
        let memo_hits = before.0.memo_hits + queries.len() as u64;
        assert_eq!(
            after.0,
            EngineStats {
                memo_hits,
                ..before.0
            },
            "only the memo hit counts: no shard was looked at"
        );
    }

    #[test]
    fn a_resident_half_fills_its_normalizers_in_one_pass() {
        let hin = venue_bib();
        let reference = materializing_engine(Arc::clone(&hin));
        let path = MetaPath::from_type_names(&hin, &VENUE_SPAN.split('-').collect::<Vec<_>>());
        reference.commuting_matrix(&path.unwrap()).unwrap();
        let engine = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        let key = engine_key(&hin, VENUE_SPAN);
        let table = |e: &Engine| e.diag_cache.lock().unwrap()[&key[..2]][0].clone();
        let candidates = |a: usize| format!("neighbors {VENUE_SPAN} from a{a}");
        let ps = |a: usize| format!("pathsim {VENUE_SPAN} from a{a} limit 11");
        // H is not resident: normalizers come from half propagations
        assert_eq!(
            engine.execute(&ps(0)).unwrap(),
            reference.execute(&ps(0)).unwrap()
        );
        assert!(!table(&engine).unwrap().whole.load(Ordering::Relaxed));
        // H resident: the next row fills every slot in one pass over H, bit
        // for bit what the half propagations gave
        let apv = MetaPath::from_type_names(&hin, &["author", "paper", "venue"]).unwrap();
        engine.commuting_matrix(&apv).unwrap();
        let propagated: Vec<u64> = table(&engine)
            .unwrap()
            .slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        let hits = engine.stats().normalizer_memo_hits;
        assert_eq!(
            engine.execute(&ps(1)).unwrap(),
            reference.execute(&ps(1)).unwrap()
        );
        let filled = table(&engine).unwrap();
        assert!(filled.whole.load(Ordering::Relaxed));
        for (y, (slot, was)) in filled.slots.iter().zip(&propagated).enumerate() {
            let now = slot.load(Ordering::Relaxed);
            assert_ne!(now, UNKNOWN_NORMALIZER, "author {y}");
            assert!(*was == UNKNOWN_NORMALIZER || *was == now, "author {y}");
        }
        let row = reference.execute(&candidates(1)).unwrap().items.len() as u64;
        assert_eq!(
            engine.stats().normalizer_memo_hits - hits,
            row,
            "every one from the table"
        );
        for a in 2..120 {
            assert_eq!(
                engine.execute(&ps(a)).unwrap(),
                reference.execute(&ps(a)).unwrap()
            );
        }
    }

    /// Rows on one thread share its scratch, and a row that unwinds takes
    /// its scratch with it. The kernel counters are process-wide and the
    /// other tests of this binary run kernels beside this one, so the
    /// counts are taken in a process of this test's own: the test runs
    /// itself again, alone.
    #[test]
    fn a_row_that_unwinds_leaves_no_scratch_behind() {
        use hin_linalg::counters::{self, KernelCounters};
        const ALONE: &str = "HIN_QUERY_ROW_SCRATCH_ALONE";
        const NAME: &str = "engine::tests::a_row_that_unwinds_leaves_no_scratch_behind";
        if std::env::var_os(ALONE).is_none() {
            let exe = std::env::current_exe().expect("path of the test binary");
            let out = std::process::Command::new(exe)
                .args([NAME, "--exact", "--test-threads=1"])
                .env(ALONE, "1")
                .output()
                .expect("the test binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{stdout}{stderr}");
            assert!(stdout.contains("1 passed"), "{stdout}");
            return;
        }

        let sink = Arc::new(KernelCounters::default());
        assert!(counters::install(Arc::clone(&sink)));
        let held = || {
            ROW_SCRATCH.with(|cell| {
                let scratch = cell.take();
                let held = scratch.is_some();
                cell.set(scratch);
                held
            })
        };
        // a two-step row: one product wide as the author count, no
        // normalizer products, so a fresh scratch grows exactly once
        let q = "pathsim author-paper-author from a1";
        let want = Engine::new(bib()).execute(q).unwrap();
        let engine = Engine::with_config(
            Arc::new(bib()),
            CacheConfig::default(),
            ExecPolicy::promote_after(u32::MAX),
        );
        let row = || {
            let before = sink.snapshot();
            let (got, trace) = engine.execute_traced(q);
            assert_eq!(trace.mode, TraceMode::SparseRow);
            assert_eq!(got.unwrap(), want);
            let after = sink.snapshot();
            (
                after.scratch_allocs - before.scratch_allocs,
                after.scratch_reuses - before.scratch_reuses,
            )
        };
        for _ in 0..3 {
            assert_eq!(row(), (0, 1), "consecutive rows reuse the thread's scratch");
        }
        assert!(held());

        let unwound = std::panic::catch_unwind(|| {
            with_row_scratch(|_| panic!("a row fails while it holds the scratch"))
        });
        assert!(unwound.is_err());
        assert!(!held(), "the failed row took its scratch with it");
        assert_eq!(row(), (1, 0), "the next row starts a fresh one");
        assert_eq!(row(), (0, 1));
    }

    #[test]
    fn plan_reports_the_execution_mode() {
        use crate::plan::ExecMode;
        let hin = skewed_bib();
        let engine = Engine::from_arc(Arc::clone(&hin));
        let q = "pathcount author-paper-venue-paper-author from a0";

        // a cold multi-step anchored query propagates, seeded from nothing
        let plan = engine.plan(q).unwrap();
        assert_eq!(plan.mode, ExecMode::SparseRow { seed: None }, "{plan}");
        assert!(plan.to_string().contains("row-propagate"), "{plan}");
        assert_eq!(engine.stats().cache.misses, 0, "planning computes nothing");
        assert_eq!(
            engine.stats().anchored_fast_paths,
            0,
            "planning executes nothing"
        );

        // a single step reads its relation in place
        let step = engine.plan("pathcount author-paper from a0").unwrap();
        assert_eq!(step.mode, ExecMode::Full);
        // a non-anchored verb always materializes
        let rank = engine.plan("rank venue-paper-author").unwrap();
        assert_eq!(rank.mode, ExecMode::Full);
        // under promote_after(0) a cold span's first run materializes it
        let now = materializing_engine(Arc::clone(&hin)).plan(q).unwrap();
        assert_eq!(now.promotion, Some(Promotion::Heating { run: 1, of: 0 }));
        assert!(
            now.to_string().contains("promotion: materializes now"),
            "{now}"
        );

        // a resident span is read, not propagated
        let path = MetaPath::from_type_names(
            engine.hin(),
            &["author", "paper", "venue", "paper", "author"],
        )
        .unwrap();
        engine.commuting_matrix(&path).unwrap();
        let resident = engine.plan(q).unwrap();
        assert_eq!(resident.mode, ExecMode::Full, "{resident}");
        assert_eq!(resident.promotion, Some(Promotion::Resident));
    }
}
