//! `hin-query` — a meta-path query engine with a cost-based planner and a
//! commuting-matrix cache.
//!
//! The SIGMOD'10 tutorial's thesis is that a database viewed as a
//! heterogeneous information network becomes *queryable for knowledge*:
//! similarity, ranking and neighborhood questions are all functions of
//! meta-path commuting matrices. This crate turns that observation into an
//! engine:
//!
//! * [`mod@parse`] — a small textual query language: verbs `pathsim`,
//!   `pathcount`, `rank`, `topk`, `neighbors` over meta-path expressions
//!   (`author-paper-venue` type paths, `^written_by` explicit relation
//!   steps, `^` = reverse traversal);
//! * [`mod@resolve`] — binding expressions to a concrete
//!   [`hin_core::Hin`] schema, with ambiguity *detection* (two relations
//!   between a type pair is an error naming the candidates, never a silent
//!   guess);
//! * [`plan`] — matrix-chain cost-based planning using the sparse flop and
//!   nnz estimates from [`hin_linalg::chain`], extended so contiguous
//!   sub-paths already in the cache become free plan leaves; the
//!   [`PlanTree`] the chain program builds is the plan's tree. Plus the
//!   [`ExecMode`]: a cold multi-step anchored query (single `from` node)
//!   runs by **sparse-row propagation** (`eₓᵀ·M₁·…·Mₙ`, the anchor's row
//!   folded through one [`hin_linalg::spvm_with`] product per link on the
//!   thread's scatter scratch), seeded from the longest cache-resident
//!   prefix, until promotion materializes its span;
//! * [`engine`] — [`Engine`]: executes plans, memoizes every intermediate
//!   commuting matrix keyed by canonical sub-path (with transpose reuse:
//!   the matrix of a reversed path is served by transposing the cached
//!   forward one), exposes hit/miss/eviction counters, and layers
//!   **heat-based promotion** over the fast path: per-span counters
//!   ([`ExecPolicy::promote_after`]) materialize a span through the
//!   deduplicated cache path once it keeps being queried, so cold anchored
//!   queries stay cheap and hot spans still amortize;
//! * [`cache`] — the [`MatrixCache`] behind the engine: sharded across
//!   independently locked segments so threads sharing one engine don't
//!   contend, and optionally bounded by a byte budget
//!   ([`CacheConfig`]) with LRU eviction priced by actual heap bytes;
//! * [`mod@snapshot`] — cache state as a first-class value:
//!   [`CacheSnapshot`] exports the hottest entries (optionally under a
//!   byte budget), restores into a replacement engine with schema
//!   validation ([`Engine::restore`]), and round-trips through a
//!   versioned, checksummed on-disk container — the warm-start /
//!   failover boundary `hin-serve` builds on.
//!
//! Every [`Engine`] method takes `&self`, so one engine behind an `Arc`
//! serves any number of threads; the `hin-serve` crate builds a
//! thread-pool serving layer on exactly that.
//!
//! # Example
//!
//! ```
//! use hin_core::HinBuilder;
//! use hin_query::Engine;
//!
//! let mut b = HinBuilder::new();
//! let paper = b.add_type("paper");
//! let author = b.add_type("author");
//! let wrote = b.add_relation("written_by", paper, author);
//! b.link(wrote, "net-clus", "sun", 1.0).unwrap();
//! b.link(wrote, "net-clus", "han", 1.0).unwrap();
//! b.link(wrote, "rank-clus", "sun", 1.0).unwrap();
//!
//! let engine = Engine::new(b.build());
//! let peers = engine.execute("pathsim author-paper-author from sun").unwrap();
//! assert_eq!(peers.items[0].0, "han");
//!
//! // a cold anchored query runs lazily (sparse-row propagation from the
//! // anchor — nothing materialized); a span that keeps being queried is
//! // promoted to the commuting-matrix cache, and later queries read their
//! // row from it
//! engine.execute("pathsim author-paper-author from han").unwrap();
//! let stats = engine.stats();
//! assert!(stats.anchored_fast_paths + stats.cache.hits + stats.cache.misses >= 1);
//! ```

pub mod cache;
pub mod engine;
pub mod error;
pub mod parse;
pub mod plan;
pub mod resolve;
pub mod snapshot;

pub use cache::{CacheConfig, CacheOutcome, CacheStats, MatrixCache, Refusal};
pub use engine::{Engine, EngineStats, ExecPolicy, IdOutput, QueryOutput, QueryTrace, TraceMode};
pub use error::QueryError;
pub use hin_linalg::PlanTree;
pub use parse::{parse, ParsedQuery, PathExpr, PathSegment, Verb};
pub use plan::{plan_steps, ExecMode, Factor, Promotion, QueryPlan, RowRoute};
pub use resolve::{resolve, resolve_path, ResolvedQuery};
pub use snapshot::{dataset_fingerprint, CacheSnapshot, CodecError, SnapshotImport};
