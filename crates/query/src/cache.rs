//! The commuting-matrix cache: sharded, bounded, concurrent.
//!
//! Keys are canonical sub-path step sequences; values are shared
//! [`Csr`] products. Two forms of reuse:
//!
//! * **exact** — the same contiguous step sequence appears again (within a
//!   longer query, or across queries), and
//! * **symmetry** — the *reversed* sequence is cached: the commuting
//!   matrix of `P⁻¹` is the transpose of the matrix of `P`
//!   (`(M₁·…·Mₙ)ᵀ = Mₙᵀ·…·M₁ᵀ`, and each reversed step's matrix is the
//!   stored transpose of the forward step). The transpose is materialized
//!   once, then cached under its own key.
//!
//! # Concurrency
//!
//! The cache is safe to share across threads behind a plain `Arc` — this
//! is what lets a pool of serving workers (see `hin_serve`) drive one
//! engine concurrently. Keys are hashed onto `N` shards, each guarded by
//! its own [`RwLock`], so lookups of different sub-paths proceed in
//! parallel and a store only stalls readers of one shard. Hit/miss/
//! eviction counters are relaxed atomics aggregated across shards.
//!
//! Concurrent misses on one key are **deduplicated** by a per-key
//! in-flight table ([`MatrixCache::get_or_compute`]): the first thread to
//! miss files a [`OnceLock`] cell for the key and computes inside it, every
//! other thread that misses meanwhile parks on that cell and is handed the
//! finished `Arc` — compute once, wait many. Under cache thrash (bounded
//! budget, overlapping queries) this turns N concurrent SpMM chains over
//! the same span into one chain plus N−1 cheap waits, which is what keeps
//! tail latency flat when eviction and demand fight over the same keys. A
//! computing thread that unwinds leaves its cell empty, and std wakes a
//! parked waiter to compute in its place, so a panic can never wedge the
//! table. Shard locks recover from poisoning
//! (`PoisonError::into_inner`) rather than propagating it: cache contents
//! are deterministic and re-derivable, so a panic elsewhere must not turn
//! one shard's keyspace into a permanent error zone for a long-lived
//! server.
//!
//! # Bounding
//!
//! With a [`CacheConfig::byte_budget`], each shard evicts its
//! least-recently-used entries (cost = [`Csr::nbytes`], the actual heap
//! footprint) until it is back under `budget / shards`. Recency is a
//! monotone tick stamped on every counting lookup. Eviction means the
//! planner can price a span as cached and find it gone at execution time —
//! the engine treats that as an ordinary miss and recomputes (see
//! `Engine`), so a bounded cache only ever costs time, never correctness.
//!
//! A product larger than one shard's slice can never be retained, so it is
//! **refused at the door**: the insert evicts nobody, the caller keeps its
//! `Arc`, and the span's real size is written in the span ledger
//! ([`CacheStats::inserts_refused`]). Before a span is promoted the engine
//! asks the same question of the span's ledger entry, from a size estimate
//! and that measured size, and a refusal is the [`Refusal`] its `EXPLAIN`
//! shows. The ledger is everything the engine learns about a span, one
//! entry for a span and its mirror: its heat, that measured size, and a
//! refused span's split.
//!
//! # Row memo
//!
//! Cache entries hold matrices and nothing else. What reads derive from a
//! span — its ranked rows, its row sums, its PathSim diagonal — is kept in
//! the **row memo** under the span's exact key, so a repeated read copies
//! a stored row and looks at no shard. The network never changes under its
//! cache, so that outlives evictions and restores of the span's matrix; a
//! factored span ([`Refusal::Factored`]), whose square is never resident,
//! keeps its rows there too. The memo is bounded by a row count and reset
//! wholesale, like the ledger. [`CacheStats::memo_rows`] and
//! [`CacheStats::memo_bytes`] say what it holds.
//!
//! Keys pick their shard through a fixed hash of the `(relation id,
//! forward)` sequence of their canonical form, so which spans share a
//! slice — and with it every miss, eviction and refusal count — repeats
//! from process to process. A span and its mirror hash alike and then take
//! neighbouring shards, so a product and its transpose never evict each
//! other.
//!
//! Within a shard, and in every other table keyed by a sub-path (the span
//! ledger, the row memo, the in-flight table, the engine's normalizer
//! memo), keys hash
//! through `KeyHasher`: the same word-FNV
//! fold, one multiply per word. It is not SipHash because SipHash defends a
//! table against keys chosen by an adversary to collide, and these keys are
//! relation ids the schema resolved, never client bytes, so its rounds
//! would buy nothing on a lookup the planner repeats per sub-span of every
//! query.

use std::borrow::Cow;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};

use hin_linalg::codec::Fnv64;
use hin_linalg::Csr;
use hin_similarity::PathStep;

#[cfg(test)]
use crate::snapshot::entry_checksum;
use crate::snapshot::{values_checksum, values_half, EntryChecksum};

/// One relation step as a hashable key component: `(relation id, forward)`.
pub(crate) type StepKey = (usize, bool);

/// A contiguous sub-path as a cache key.
pub(crate) type PathKey = Vec<StepKey>;

/// Turn resolved steps into key form.
pub(crate) fn key_of(steps: &[PathStep]) -> PathKey {
    steps
        .iter()
        .map(|s| match *s {
            PathStep::Forward(r) => (r.0, true),
            PathStep::Backward(r) => (r.0, false),
        })
        .collect()
}

/// The word-FNV hasher of every map keyed by a [`PathKey`]: one
/// [`Fnv64::update_word`] per relation id, direction flag and length a
/// key's `Hash` writes, folded at the end as [`MatrixCache::shard_index`]
/// folds its hash. A key is a handful of schema relation ids and direction
/// flags, not client bytes, so SipHash's flooding resistance buys nothing
/// here and costs several rounds per word.
#[derive(Default)]
pub(crate) struct KeyHasher(Fnv64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0.update_word(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0.update_word(n as u64);
    }

    fn finish(&self) -> u64 {
        let h = self.0.finish();
        (h >> 32) ^ h
    }
}

/// A map keyed by [`PathKey`], hashed by [`KeyHasher`]: the one spelling of
/// such a map, which every table keyed by a sub-path uses. Look a key up by
/// `&[StepKey]`: nothing is copied to ask.
pub(crate) type KeyMap<V> = HashMap<PathKey, V, BuildHasherDefault<KeyHasher>>;

/// The key of the reversed sub-path (reverse order, flip directions).
pub(crate) fn reversed_key(key: &[StepKey]) -> PathKey {
    key.iter().rev().map(|&(r, fwd)| (r, !fwd)).collect()
}

/// The lexicographically smaller of `key` and its reversal: one name for a
/// span and its mirror, which are served by one product (the other is its
/// transpose) and so share heat and known size.
pub(crate) fn canonical_key(key: &[StepKey]) -> PathKey {
    filed(key).0.into_owned()
}

/// A ranking in the form the row memo stores it.
fn compact(list: Vec<(usize, f64)>) -> Ranked {
    list.into_iter().map(|(id, s)| (id as u32, s)).collect()
}

/// The first `limit` pairs of a stored ranking, in the engine's form.
fn prefix(list: &[(u32, f64)], limit: usize) -> Vec<(usize, f64)> {
    let n = limit.min(list.len());
    list[..n].iter().map(|&(id, s)| (id as usize, s)).collect()
}

#[cfg(test)]
thread_local! {
    /// Non-counting lookups made on this thread, by the exact key looked up.
    pub(crate) static PEEKS: std::cell::RefCell<KeyMap<u32>> = std::cell::RefCell::default();
}

/// Spans the ledger holds before it is reset wholesale — a memory bound,
/// not a policy: a reset only costs relearning what it forgot.
const LEDGER_CAP: usize = 4096;

/// Ranked rows the row memo holds before it is reset wholesale — a memory
/// bound, not a policy: a reset only costs re-ranking the rows still read.
/// At most ten pairs of 16 bytes a row, so about 12 MB. A diagonal counts
/// as the rows its bytes would fill: 8 bytes an entry against a row's 160.
pub(crate) const MEMO_ROWS_CAP: usize = 1 << 16;

/// Where a refused span's row is split: the first step of its right half,
/// or `None` when no split has halves the cache admits.
pub(crate) type Split = Option<usize>;

/// What the engine has learned about one span and its mirror.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SpanState {
    /// Lazy runs since the span last crossed `promote_after`.
    pub(crate) heat: u32,
    /// [`Csr::nbytes`] of the span's product, when the door refused it.
    pub(crate) oversize: Option<usize>,
    /// A refused span's split per side ([`Ledger::get`]), `None` until
    /// chosen: the choice prices the anchor's row in the left half, which
    /// is another half for the mirror.
    pub(crate) split: [Option<Split>; 2],
}

/// The span ledger: one [`SpanState`] per span, filed under its
/// [`canonical_key`]. An entry that holds nothing is dropped; at
/// [`LEDGER_CAP`] entries a new span resets the ledger.
#[derive(Debug, Default)]
pub(crate) struct Ledger(KeyMap<SpanState>);

/// Is `key` its own reversal? Allocates nothing.
pub(crate) fn is_palindrome(key: &[StepKey]) -> bool {
    let rev = key.iter().rev().map(|&(r, fwd)| (r, !fwd));
    rev.eq(key.iter().copied())
}

/// Is `key` the mirror of its canonical form? Allocates nothing.
fn is_mirror(key: &[StepKey]) -> bool {
    let rev = key.iter().rev().map(|&(r, fwd)| (r, !fwd));
    rev.lt(key.iter().copied())
}

/// `key`'s [`canonical_key`], copied only for a mirror, and its side of
/// the span: `0` canonical (a palindrome too), `1` mirror.
fn filed(key: &[StepKey]) -> (Cow<'_, [StepKey]>, usize) {
    match is_mirror(key) {
        true => (Cow::Owned(reversed_key(key)), 1),
        false => (Cow::Borrowed(key), 0),
    }
}

impl Ledger {
    /// What is known of `key`'s span, and which side of it `key` is.
    pub(crate) fn get(&self, key: &[StepKey]) -> (SpanState, usize) {
        let (filed, side) = filed(key);
        (self.0.get(&*filed).copied().unwrap_or_default(), side)
    }

    /// Count one lazy run of `key`'s span; `true` when its heat just
    /// crossed `promote_after`, which resets it, so an evicted product
    /// re-heats honestly. A span known oversize never crosses.
    pub(crate) fn heat_once(&mut self, key: &[StepKey], promote_after: u32) -> bool {
        self.update(key, |state, _| {
            if state.oversize.is_some() {
                return false;
            }
            state.heat += 1;
            let crossed = state.heat >= promote_after;
            if crossed {
                state.heat = 0;
            }
            crossed
        })
    }

    /// Remember the split `key`'s side of its span is served through.
    pub(crate) fn remember_split(&mut self, key: &[StepKey], split: Split) {
        self.update(key, |state, side| state.split[side] = Some(split));
    }

    /// Change `key`'s entry in place; the key is copied only to start one.
    fn update<R>(&mut self, key: &[StepKey], f: impl FnOnce(&mut SpanState, usize) -> R) -> R {
        let (filed, side) = filed(key);
        if !self.0.contains_key(&*filed) {
            if self.0.len() >= LEDGER_CAP {
                self.0.clear();
            }
            self.0.insert(filed.to_vec(), SpanState::default());
        }
        let state = self.0.get_mut(&*filed).expect("filed above");
        let out = f(state, side);
        if *state == SpanState::default() {
            self.0.remove(&*filed);
        }
        out
    }
}

/// Sizing and sharding knobs for a [`MatrixCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of independently locked shards; rounded up to a power of
    /// two, minimum 1. More shards = less lock contention, slightly more
    /// fixed overhead. With two or more, a span and its mirror (a product
    /// and its transpose) are always kept in different shards.
    pub shards: usize,
    /// Total byte budget across all shards (`None` = unbounded). Each
    /// shard independently enforces `byte_budget / shards` with LRU
    /// eviction (no cross-shard coordination, so a store never stalls
    /// other shards).
    ///
    /// Granularity: a single product larger than `byte_budget / shards`
    /// (one shard's slice) is never retained, even if it would fit in the
    /// total budget — its insert is refused without evicting anything
    /// ([`CacheStats::inserts_refused`]), and the engine does not promote
    /// a span whose estimated or previously measured size exceeds the
    /// slice: such a span is served by lazy row propagation for ever
    /// (`EngineStats::promotions_refused`) — through two halves the cache
    /// does keep, when it has a split with such halves
    /// (`EngineStats::factor_promotions`), and link by link through its
    /// relations otherwise. Refusals that climb while
    /// evictions stay flat mean the budget cannot hold what the traffic
    /// heats; evictions that climb mean the working set rotates. Size the
    /// budget so the largest commuting matrix worth keeping fits in one
    /// slice — or lower `shards` (with `shards: 1` the budget is exact and
    /// global).
    ///
    /// A symmetric span whose square is estimated at more than eight times
    /// its two halves is not worth keeping at any budget, unbounded
    /// included ([`Refusal::Factored`]): its rows are read through the
    /// halves, which are resident and priced here, and its ranked rows are
    /// kept in the row memo ([`CacheStats::memo_bytes`]), which this budget
    /// does not price.
    ///
    /// Which spans share a slice is a fixed function of their relation
    /// steps, the same in every process; a span never shares one with its
    /// mirror, so both orientations of a product that fits a slice can be
    /// resident at once.
    pub byte_budget: Option<usize>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            byte_budget: None,
        }
    }
}

impl CacheConfig {
    /// A cache bounded to `bytes` across the default shard count.
    pub fn bounded(bytes: usize) -> Self {
        Self {
            byte_budget: Some(bytes),
            ..Self::default()
        }
    }
}

/// A product on its way between a cache and a snapshot, with what is known
/// about its checksums
/// ([`entry_checksum`](crate::snapshot::entry_checksum)).
#[derive(Clone)]
pub(crate) struct Sealed {
    pub(crate) key: PathKey,
    pub(crate) matrix: Arc<Csr>,
    /// `entry_checksum(matrix)`, both halves: the structure checksum and
    /// the values checksum. Read from the directory when the matrix came
    /// out of an image — the structure half already proved by the mount,
    /// the values half proved by the import ([`MatrixCache::proven`]) — and
    /// computed by the first export otherwise, for every later one too: the
    /// cell is shared with the cache's own entry.
    pub(crate) checksum: Arc<OnceLock<EntryChecksum>>,
    /// `false` while the values have yet to be held against a `checksum`
    /// that came out of an image: `true` for everything a cache holds.
    pub(crate) verified: bool,
}

/// One stored product plus its bookkeeping.
struct Entry {
    value: Arc<Csr>,
    bytes: usize,
    /// Recency stamp from the cache-wide tick; atomic so counting lookups
    /// can refresh it under the shard's *read* lock.
    last_used: AtomicU64,
    /// `entry_checksum(value)` — a property of the immutable matrix, so
    /// remembered beside it: see [`Sealed::checksum`].
    checksum: Arc<OnceLock<EntryChecksum>>,
}

/// A ranked list: `(id, score)` pairs, best first.
type Ranked = Box<[(u32, f64)]>;

/// The rows of one scoring that reads have ranked so far, by anchor row.
type RankedRows = RwLock<HashMap<u32, Ranked>>;

/// What reads derive from one span, kept in the row memo under its key
/// ([`MatrixCache::memo_of`]): the diagonal PathSim divides by, and the
/// ranked lists the ranking verbs answer from ([`MatrixCache::ranked`]),
/// ranked off a whole matrix of the span or, for a factored span, off
/// rows propagated through its halves. A snapshot carries the PathSim and
/// count rows of a span whose matrix it does not carry, and never the
/// diagonal or the row sums.
#[derive(Default)]
pub(crate) struct SpanMemo {
    diagonal: OnceLock<Box<[f64]>>,
    pathsim: RankedRows,
    counts: RankedRows,
    row_sums: OnceLock<Ranked>,
}

impl SpanMemo {
    /// The ranked rows of one per-row scoring.
    fn rows(&self, kind: RowKind) -> &RankedRows {
        match kind {
            RowKind::PathSim => &self.pathsim,
            RowKind::Count => &self.counts,
        }
    }

    /// [`SpanMemo::rows`], read-locked.
    fn read_rows(&self, kind: RowKind) -> RwLockReadGuard<'_, HashMap<u32, Ranked>> {
        let rows = self.rows(kind).read();
        rows.unwrap_or_else(PoisonError::into_inner)
    }

    /// `matrix.diagonal()`, where `matrix` is the span's, as `cache` handed
    /// it out: built once per memo generation, by whichever caller asks
    /// first, and concurrent first callers block on that one build (one
    /// binary search per row), counted in `cache`'s
    /// [`CacheStats::diagonal_builds`].
    pub(crate) fn diagonal(&self, cache: &MatrixCache, matrix: &Csr) -> &[f64] {
        self.diagonal.get_or_init(|| {
            let built: Box<[f64]> = matrix.diagonal().into();
            cache.note_memo(built.len().div_ceil(20));
            cache
                .counters
                .diagonal_builds
                .fetch_add(1, Ordering::Relaxed);
            built
        })
    }

    /// Ranked lists held, and their heap bytes plus the diagonal's.
    fn held(&self) -> (usize, usize) {
        let (pathsim, counts) = (
            self.read_rows(RowKind::PathSim),
            self.read_rows(RowKind::Count),
        );
        let lists = pathsim
            .values()
            .chain(counts.values())
            .chain(self.row_sums.get());
        let (rows, bytes) = lists.fold((0, 0), |(n, b), list| (n + 1, b + row_bytes(list)));
        let diagonal = self
            .diagonal
            .get()
            .map_or(0, |d| std::mem::size_of_val(&**d));
        (rows, bytes + diagonal)
    }
}

/// A matrix as `(row, column, value)` triplets.
type Triplets = Vec<(u32, u32, f64)>;

/// Heap bytes of one stored ranked row: its map slot and its pairs.
fn row_bytes(list: &[(u32, f64)]) -> usize {
    std::mem::size_of::<(u32, Ranked)>() + std::mem::size_of_val(list)
}

/// The two per-row scorings the row memo ranks ([`Scoring::PathSim`] and
/// [`Scoring::Count`]): the two kinds of ranked rows a snapshot carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum RowKind {
    /// PathSim rows.
    PathSim,
    /// Path-count rows.
    Count,
}

/// Which ranked list of a span a read asks for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scoring {
    /// Row `x`'s candidates by PathSim.
    PathSim(usize),
    /// Row `x`'s candidates by raw path count. Whether `x` itself is a
    /// candidate is fixed by the span's end types, so by the span.
    Count(usize),
    /// The rows by row sum: one list per span.
    RowSums,
}

impl Scoring {
    /// The kind and row of a per-row scoring; `None` for row sums.
    fn row(self) -> Option<(RowKind, u32)> {
        match self {
            Scoring::PathSim(row) => Some((RowKind::PathSim, row as u32)),
            Scoring::Count(row) => Some((RowKind::Count, row as u32)),
            Scoring::RowSums => None,
        }
    }
}

#[derive(Default)]
struct Shard {
    map: KeyMap<Entry>,
    bytes: usize,
}

impl Shard {
    /// Evict least-recently-used entries until `bytes <= budget`. Called
    /// right after an insert that fits `budget` on its own and carries the
    /// shard's newest tick, so the loop stops before it reaches that entry.
    ///
    /// Victim selection is an O(entries) scan per eviction, under the
    /// shard's write lock. Commuting-matrix caches hold few, large
    /// entries (tens to hundreds, keyed by sub-path), so a scan beats the
    /// constant factors of an intrusive LRU list at this population; if a
    /// workload ever holds many thousands of entries per shard, revisit.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget && !self.map.is_empty() {
            let coldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("non-empty shard has a minimum");
            let gone = self.map.remove(&coldest).expect("key just observed");
            self.bytes -= gone.bytes;
            evicted += 1;
        }
        evicted
    }
}

/// A key's in-flight computation: filled once, by the one caller whose
/// closure [`OnceLock::get_or_init`] runs; every other caller parks on it.
type Inflight = Arc<OnceLock<Arc<Csr>>>;

/// Memoizing store of commuting matrices: sharded for concurrency, bounded
/// by bytes with LRU eviction, with hit/miss/eviction accounting and a
/// per-key in-flight table deduplicating concurrent computations.
///
/// All methods take `&self`; share it across threads with `Arc`.
pub struct MatrixCache {
    shards: Box<[RwLock<Shard>]>,
    /// `shards.len() - 1`; the shard count is a power of two.
    shard_mask: usize,
    budget_per_shard: Option<usize>,
    /// The span ledger. Its sizes are what [`MatrixCache::admit`] is handed
    /// so an under-estimated span is materialized once, not on every
    /// re-heating. Never taken while a shard lock is held; its holder may
    /// take a shard's read lock, to price a split, and no other lock.
    ledger: Mutex<Ledger>,
    /// The row memo: per span, what its reads derived from it
    /// ([`MatrixCache::memo_of`]). Never taken with another lock of the
    /// cache held.
    memo: RwLock<KeyMap<Arc<SpanMemo>>>,
    /// Rows stored in the memo since it was last reset, counted so that
    /// the [`MEMO_ROWS_CAP`] check scans nothing.
    memo_rows: AtomicUsize,
    /// Keys currently being computed by some thread (compute-once,
    /// wait-many). One global mutex, not sharded: it is touched only on
    /// the miss path, held only for a map probe/insert/remove, and never
    /// while computing, waiting or holding a shard lock.
    inflight: Mutex<KeyMap<Inflight>>,
    tick: AtomicU64,
    counters: Counters,
}

/// The event counters behind [`CacheStats`]: relaxed atomics, bumped on the
/// serving path and read together by [`MatrixCache::stats`].
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    symmetry_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts_refused: AtomicU64,
    refused_bytes: AtomicU64,
    coalesced_waits: AtomicU64,
    dup_computes: AtomicU64,
    warm_loaded: AtomicU64,
    warm_rejected: AtomicU64,
    warm_view_backed: AtomicU64,
    restore_verified: AtomicU64,
    restore_corrupt: AtomicU64,
    diagonal_builds: AtomicU64,
    ranked_builds: AtomicU64,
}

/// What a [`MatrixCache`] has done and holds, read as one value by
/// [`MatrixCache::stats`]. The counters count from the cache's creation;
/// the gauges (`len`, `bytes`, `memo_rows`, `memo_bytes`) describe one
/// moment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Number of stored matrices, across all shards.
    pub len: usize,
    /// Resident bytes across all shards ([`Csr::nbytes`] of every entry).
    pub bytes: usize,
    /// Products served from cache (exact + symmetry). A read answered
    /// from the row memo is not a hit: it looks at no shard and counts
    /// nothing here (`EngineStats::memo_hits` counts it).
    pub hits: u64,
    /// The subset of `hits` served by transposing a cached reversed
    /// sub-path.
    pub symmetry_hits: u64,
    /// Products that had to be computed.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Inserts turned away because the product alone is larger than one
    /// shard's slice of the budget: nothing was evicted for them, and the
    /// span's size is written in the span ledger, so that the engine
    /// refuses to promote the span up front from then on
    /// ([`Refusal::Product`]). Computed products, symmetry transposes and
    /// snapshot entries all count here.
    pub inserts_refused: u64,
    /// Total [`Csr::nbytes`] of the products counted in `inserts_refused`
    /// — how much larger a budget would have had to be, summed over
    /// refusals.
    pub refused_bytes: u64,
    /// Callers of [`MatrixCache::get_or_compute`] served by another
    /// thread's in-flight computation of the same key — their own compute
    /// closure never ran — each also counted in `hits`. Each one is a whole
    /// SpMM chain that was *not* run.
    pub coalesced_waits: u64,
    /// Computed products that landed while the key's in-flight cell was
    /// another computation's — i.e. duplicate concurrent computations the
    /// table failed to coalesce. Structurally zero while every computation
    /// goes through [`MatrixCache::get_or_compute`] (a cell covers the
    /// whole computation); exposed so stress tests and experiments can
    /// assert it stays that way. Symmetry transposes are reuse, not
    /// duplicated chains, and are never counted.
    pub dup_computes: u64,
    /// Entries admitted from a snapshot import
    /// ([`Engine::restore`](crate::Engine::restore)). An admitted entry is
    /// priced through the ordinary LRU, so it may still be evicted later.
    pub warm_loaded: u64,
    /// Snapshot entries rejected at import time because their key or
    /// matrix dimensions did not match the dataset schema, because the
    /// matrix is larger than one shard's slice of the budget, or because
    /// their values did not match their checksum (`restore_corrupt`).
    pub warm_rejected: u64,
    /// The subset of `warm_loaded` admitted as zero-copy arena views
    /// ([`Csr::is_view`]) rather than owned heap copies — the snapshot
    /// format's "one map, zero per-matrix decodes" restore guarantee,
    /// observable as a counter.
    pub warm_view_backed: u64,
    /// Entries of a mounted image — matrices and ranked-rows entries —
    /// whose values matched their directory's values checksum when a
    /// restore hashed them, before taking them in. An entry exported from a
    /// live cache is not hashed again, and not counted.
    pub restore_verified: u64,
    /// Entries of a mounted image whose values did **not** match their
    /// directory's values checksum: each was rejected by the restore
    /// (counted in `warm_rejected` too) and never served; its span is
    /// computed when it is next wanted. Nonzero means the image was damaged
    /// after writing — storage rot, torn copy, wire corruption.
    pub restore_corrupt: u64,
    /// Ranked lists in the row memo (a gauge): one per span, anchor read
    /// and scoring, plus one of row sums per span `rank` read, at most ten
    /// pairs each. Where every span's hot reads live — a resident span's,
    /// and a factored span's instead of its square.
    pub memo_rows: usize,
    /// Heap bytes of those lists (16 bytes a pair plus 24 a list) and of
    /// the memo's diagonals (8 bytes a row of the span's matrix), a gauge
    /// not counting the maps' own slack. Not in `bytes`, which is the
    /// matrices'.
    pub memo_bytes: usize,
    /// Diagonals built: one per span PathSim has read off a whole matrix,
    /// per memo generation — the memo keeps a span's diagonal across
    /// evictions and restores of its matrix, and builds it again (one
    /// binary search per row) only after the memo was reset at its cap.
    pub diagonal_builds: u64,
}

impl Default for MatrixCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl std::fmt::Debug for MatrixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixCache")
            .field("shards", &self.shards.len())
            .field("byte_budget", &self.byte_budget())
            .field("stats", &self.stats())
            .finish()
    }
}

impl MatrixCache {
    /// Build a cache from sizing knobs.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        Self {
            shards: (0..shards)
                .map(|_| RwLock::new(Shard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            shard_mask: shards - 1,
            budget_per_shard: config.byte_budget.map(|b| b / shards),
            ledger: Mutex::default(),
            memo: RwLock::default(),
            memo_rows: AtomicUsize::new(0),
            inflight: Mutex::default(),
            tick: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// The configured total byte budget (`None` = unbounded).
    pub fn byte_budget(&self) -> Option<usize> {
        self.budget_per_shard.map(|b| b * self.shards.len())
    }

    /// Every counter, plus the gauges: each shard's read lock is taken
    /// once, so `len` and `bytes` describe the same moment of that shard.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut stats = CacheStats {
            hits: read(&c.hits),
            symmetry_hits: read(&c.symmetry_hits),
            misses: read(&c.misses),
            evictions: read(&c.evictions),
            inserts_refused: read(&c.inserts_refused),
            refused_bytes: read(&c.refused_bytes),
            coalesced_waits: read(&c.coalesced_waits),
            dup_computes: read(&c.dup_computes),
            warm_loaded: read(&c.warm_loaded),
            warm_rejected: read(&c.warm_rejected),
            warm_view_backed: read(&c.warm_view_backed),
            restore_verified: read(&c.restore_verified),
            restore_corrupt: read(&c.restore_corrupt),
            diagonal_builds: read(&c.diagonal_builds),
            ..CacheStats::default()
        };
        for span in self.memo().values() {
            let (rows, bytes) = span.held();
            stats.memo_rows += rows;
            stats.memo_bytes += bytes;
        }
        for shard in self.shards.iter() {
            let shard = shard.read().unwrap_or_else(PoisonError::into_inner);
            stats.len += shard.map.len();
            stats.bytes += shard.bytes;
        }
        stats
    }

    /// Ranked lists stored in the row memo by [`MatrixCache::ranked`]: one
    /// per span, scoring and row read, per memo generation, like
    /// [`CacheStats::diagonal_builds`].
    #[cfg(test)]
    pub(crate) fn ranked_builds(&self) -> u64 {
        self.counters.ranked_builds.load(Ordering::Relaxed)
    }

    /// Every resident entry, hottest first by recency tick — the order
    /// snapshot export uses — with its checksum cell. Takes each shard's
    /// read lock in turn (the same locks the serving path takes), never two
    /// at once.
    pub(crate) fn entries_by_recency(&self) -> Vec<Sealed> {
        let mut entries: Vec<(u64, Sealed)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map
                    .iter()
                    .map(|(k, e)| {
                        let sealed = Sealed {
                            key: k.clone(),
                            matrix: Arc::clone(&e.value),
                            checksum: Arc::clone(&e.checksum),
                            verified: true,
                        };
                        (e.last_used.load(Ordering::Relaxed), sealed)
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.key.cmp(&b.1.key)));
        entries.into_iter().map(|(_, sealed)| sealed).collect()
    }

    /// Bump the warm-import counters (used by the snapshot module).
    pub(crate) fn note_warm(&self, loaded: u64, rejected: u64, view_backed: u64) {
        self.counters
            .warm_loaded
            .fetch_add(loaded, Ordering::Relaxed);
        self.counters
            .warm_rejected
            .fetch_add(rejected, Ordering::Relaxed);
        self.counters
            .warm_view_backed
            .fetch_add(view_backed, Ordering::Relaxed);
    }

    /// Index of the shard `key` lives in: FNV-1a over the step words of its
    /// [`canonical_key`], folded so the multiplier's well-mixed high half
    /// reaches the mask, with the low bit flipped when `key` is the mirror
    /// of its canonical form. So a span and its mirror — a product and its
    /// transpose, which a symmetric row reads together — always land in
    /// neighbouring shards of two or more and never crowd one slice; a
    /// palindrome is its own mirror and keeps its shard. A fixed function
    /// on purpose — keys are schema-resolved relation ids, not client
    /// bytes, and pick one of a few shards, not a bucket. Allocates nothing:
    /// the reversal is compared and hashed as an iterator.
    fn shard_index(&self, key: &[StepKey]) -> usize {
        let rev = key.iter().rev().map(|&(r, fwd)| (r, !fwd));
        let mirror = is_mirror(key);
        let mut h = Fnv64::new();
        let mut fold = |(r, fwd): StepKey| h.update_word(((r as u64) << 1) | u64::from(fwd));
        match mirror {
            true => rev.for_each(&mut fold),
            false => key.iter().copied().for_each(&mut fold),
        }
        let h = h.finish();
        (((h >> 32) ^ h) as usize ^ usize::from(mirror)) & self.shard_mask
    }

    fn shard_of(&self, key: &[StepKey]) -> &RwLock<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Would a product of `est_bytes` survive its own insert, for a span
    /// whose ledger entry the caller holds: `oversize` is its measured
    /// size, if the span or its mirror was refused before? Always `Ok` for
    /// an unbounded cache. Otherwise refused when `est_bytes` exceeds one
    /// shard's slice, or when the span was already materialized and found
    /// larger than the slice. Non-counting, like
    /// [`MatrixCache::peek_exact`].
    pub(crate) fn admit(&self, est_bytes: usize, oversize: Option<usize>) -> Result<(), Refusal> {
        let Some(slice_bytes) = self.budget_per_shard else {
            return Ok(());
        };
        if est_bytes > slice_bytes {
            return Err(Refusal::Estimate {
                est_bytes,
                slice_bytes,
            });
        }
        match oversize {
            Some(bytes) => Err(Refusal::Product { bytes }),
            None => Ok(()),
        }
    }

    /// The span ledger, locked (see the field's lock order).
    pub(crate) fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The in-flight table, locked (see the field).
    fn inflight(&self) -> MutexGuard<'_, KeyMap<Inflight>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slice `a` and `b` share when a bounded cache keeps both in one
    /// shard, so that products under the two keys compete for its bytes;
    /// `None` when unbounded or in different shards — always so for a key
    /// and its mirror when there are two shards or more
    /// ([`MatrixCache::shard_index`]).
    pub(crate) fn shared_slice(&self, a: &[StepKey], b: &[StepKey]) -> Option<usize> {
        self.budget_per_shard
            .filter(|_| self.shard_index(a) == self.shard_index(b))
    }

    /// Counting lookup of exactly `key`, which refreshes recency: a
    /// resident reversal is neither served nor transposed, so the lookup
    /// stores nothing and evicts nobody. Everything resident was proved
    /// when it went in, so a hit is one read lock, the recency stamp, the
    /// hit count and one `Arc` clone.
    pub(crate) fn get_exact(&self, key: &[StepKey]) -> Option<Arc<Csr>> {
        let shard = self
            .shard_of(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = shard.map.get(key)?;
        entry.last_used.store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.value))
    }

    /// Do `sealed`'s values match the values checksum its image's directory
    /// stored? `true` without a hash for an entry that was never in an image
    /// or was proved before; otherwise its `data` array is hashed — the
    /// mount proved the row offsets and indices — and the verdict counted
    /// ([`CacheStats::restore_verified`], [`CacheStats::restore_corrupt`]).
    /// Asked of every entry before it goes into a shard or the row memo,
    /// so nothing resident is unproven.
    pub(crate) fn proven(&self, sealed: &Sealed) -> bool {
        if sealed.verified {
            return true;
        }
        let intact = sealed
            .checksum
            .get()
            .is_some_and(|&stored| values_checksum(&sealed.matrix) == values_half(stored));
        let counter = match intact {
            true => &self.counters.restore_verified,
            false => &self.counters.restore_corrupt,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        intact
    }

    /// Store without touching the miss counter; evicts if over budget.
    /// Returns whether the entry was admitted (see
    /// [`CacheStats::inserts_refused`]).
    pub(crate) fn insert(&self, key: PathKey, value: Arc<Csr>) -> bool {
        self.insert_sealed(Sealed {
            key,
            matrix: value,
            checksum: Arc::default(),
            verified: true,
        })
    }

    /// The one door into a shard, restored entries included: a warm entry
    /// is priced through this exact LRU, so a snapshot can never blow the
    /// cache budget. An entry larger than the shard's whole slice is turned
    /// away before it is taken in: it could only evict every neighbour and
    /// then itself; its size goes into the span ledger. Then an entry out of
    /// an image is [`proven`](MatrixCache::proven), and turned away if its
    /// values do not match their checksum. An entry resident under `key` is
    /// replaced: a restore over a live cache brings the span's product
    /// again, and what the row memo keeps of the span holds for both.
    pub(crate) fn insert_sealed(&self, sealed: Sealed) -> bool {
        let bytes = sealed.matrix.nbytes();
        if self.budget_per_shard.is_some_and(|slice| bytes > slice) {
            self.counters
                .inserts_refused
                .fetch_add(1, Ordering::Relaxed);
            self.counters
                .refused_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            self.ledger()
                .update(&sealed.key, |span, _| span.oversize = Some(bytes));
            return false;
        }
        if !self.proven(&sealed) {
            return false;
        }
        let mut shard = self
            .shard_of(&sealed.key)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = Entry {
            value: sealed.matrix,
            bytes,
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1),
            checksum: sealed.checksum,
        };
        if let Some(old) = shard.map.insert(sealed.key, entry) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        if let Some(budget) = self.budget_per_shard {
            let evicted = shard.evict_to(budget);
            if evicted > 0 {
                self.counters
                    .evictions
                    .fetch_add(evicted, Ordering::Relaxed);
            }
        }
        true
    }

    /// The first `limit` pairs of the list `scoring` names, where `memo` is
    /// the row memo's entry of the span whose rows `rank` ranks. The first
    /// read of a list calls `rank` and stores what it returns; every later
    /// one copies a prefix under the read lock. So `limit` must be at most
    /// the length `rank` ranks to, and a prefix of a longer ranking must be
    /// the shorter ranking — true of [`hin_similarity::TopK`]'s total
    /// order. First reads that race each rank, and the first to store wins;
    /// the lists are equal, so which one does not show.
    pub(crate) fn ranked(
        &self,
        memo: &SpanMemo,
        scoring: Scoring,
        limit: usize,
        rank: impl FnOnce() -> Vec<(usize, f64)>,
    ) -> Vec<(usize, f64)> {
        let Some((kind, row)) = scoring.row() else {
            let list = memo.row_sums.get_or_init(|| {
                self.counters.ranked_builds.fetch_add(1, Ordering::Relaxed);
                self.note_memo(1);
                compact(rank())
            });
            return prefix(list, limit);
        };
        let rows = memo.rows(kind);
        if let Some(list) = rows
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&row)
        {
            return prefix(list, limit);
        }
        let list = compact(rank());
        let answer = prefix(&list, limit);
        let mut rows = rows.write().unwrap_or_else(PoisonError::into_inner);
        if let MapEntry::Vacant(slot) = rows.entry(row) {
            self.counters.ranked_builds.fetch_add(1, Ordering::Relaxed);
            self.note_memo(1);
            slot.insert(list);
        }
        answer
    }

    /// The row memo, read-locked.
    fn memo(&self) -> RwLockReadGuard<'_, KeyMap<Arc<SpanMemo>>> {
        self.memo.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count `rows` more stored in the row memo ([`MatrixCache::memo_rows`]).
    fn note_memo(&self, rows: usize) {
        self.memo_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// The first `limit` pairs of the list `scoring` names, if the row memo
    /// holds it for the span `key`: two read locks and a copy (one lock,
    /// for the row sums), no shard looked at and nothing counted. `limit`
    /// must be at most the depth the list was ranked to, as for
    /// [`MatrixCache::ranked`].
    pub(crate) fn memo_row(
        &self,
        key: &[StepKey],
        scoring: Scoring,
        limit: usize,
    ) -> Option<Vec<(usize, f64)>> {
        let memo = self.memo();
        let span = memo.get(key)?;
        let list = match scoring.row() {
            Some((kind, row)) => span
                .read_rows(kind)
                .get(&row)
                .map(|list| prefix(list, limit)),
            None => span.row_sums.get().map(|list| prefix(list, limit)),
        };
        list
    }

    /// The row memo's entry of the span `key`, started empty if there is
    /// none: where [`MatrixCache::ranked`] stores the span's rows as they
    /// are read. A memo found holding [`MEMO_ROWS_CAP`] rows is reset
    /// first, so it outgrows the cap by at most the rows stored between two
    /// such calls.
    pub(crate) fn memo_of(&self, key: &[StepKey]) -> Arc<SpanMemo> {
        if self.memo_rows.load(Ordering::Relaxed) < MEMO_ROWS_CAP {
            if let Some(span) = self.memo().get(key) {
                return Arc::clone(span);
            }
        }
        let mut memo = self.memo.write().unwrap_or_else(PoisonError::into_inner);
        if self.memo_rows.load(Ordering::Relaxed) >= MEMO_ROWS_CAP {
            memo.clear();
            self.memo_rows.store(0, Ordering::Relaxed);
        }
        Arc::clone(memo.entry(key.to_vec()).or_default())
    }

    /// Every ranked row the row memo holds of a span `carried` leaves out,
    /// for a snapshot: per span and kind, row `x`'s pairs as `(x, y, score)`
    /// triplets, rows and then ids ascending — the order of a CSR matrix.
    /// Spans in key order, PathSim rows before count rows; a kind with no
    /// rows is left out, and so is an empty row, which a CSR row cannot
    /// tell from an absent one.
    pub(crate) fn memo_triplets(
        &self,
        carried: impl Fn(&[StepKey]) -> bool,
    ) -> Vec<(PathKey, RowKind, Triplets)> {
        let memo = self.memo();
        let mut spans: Vec<_> = memo.iter().filter(|(key, _)| !carried(key)).collect();
        spans.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = Vec::new();
        for (key, span) in spans {
            for kind in [RowKind::PathSim, RowKind::Count] {
                let rows = span.read_rows(kind);
                let mut ids: Vec<u32> = rows.keys().copied().collect();
                ids.sort_unstable();
                let mut triplets = Vec::new();
                for x in ids {
                    let mut pairs = rows[&x].to_vec();
                    pairs.sort_unstable_by_key(|&(y, _)| y);
                    triplets.extend(pairs.into_iter().map(|(y, score)| (x, y, score)));
                }
                if !triplets.is_empty() {
                    out.push((key.clone(), kind, triplets));
                }
            }
        }
        out
    }

    /// Take the rows of `rows` into the row memo of the span `key` as
    /// ranked rows of `kind`: row `x`'s pairs, held sorted by id, re-sorted
    /// best first — [`hin_similarity::top_k`]'s order, the one every stored
    /// row is in. A row the memo already holds is kept, and rows stop being
    /// taken at [`MEMO_ROWS_CAP`]. Returns the rows taken.
    pub(crate) fn memo_admit(&self, key: &[StepKey], kind: RowKind, rows: &Csr) -> u64 {
        let span = self.memo_of(key);
        let mut stored = span
            .rows(kind)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let mut taken = 0;
        for x in (0..rows.nrows()).filter(|&x| rows.row_nnz(x) > 0) {
            if self.memo_rows.load(Ordering::Relaxed) >= MEMO_ROWS_CAP {
                break;
            }
            if let MapEntry::Vacant(slot) = stored.entry(x as u32) {
                let (ids, scores) = rows.row(x);
                let pairs = ids.iter().map(|&y| y as usize).zip(scores.iter().copied());
                let ranked = hin_similarity::top_k(pairs.collect(), ids.len());
                slot.insert(compact(ranked));
                self.note_memo(1);
                taken += 1;
            }
        }
        taken
    }

    /// Non-counting lookup used by the planner: is exactly `key` resident,
    /// and at what nnz? Its reversal is not consulted: the planner's
    /// pricing pass (`plan::Residency`) asks for each orientation of a
    /// sub-path itself, once. Does not refresh recency — a plan is a
    /// forecast, not a use.
    pub(crate) fn peek_exact(&self, key: &[StepKey]) -> Option<usize> {
        #[cfg(test)]
        PEEKS.with(|peeks| *peeks.borrow_mut().entry(key.to_vec()).or_insert(0) += 1);
        let shard = self
            .shard_of(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.map.get(key).map(|e| e.value.nnz())
    }

    /// Counting lookup used by the executor, [`MatrixCache::get_exact`]
    /// that also serves the reversed entry by materializing (and caching)
    /// its transpose, counted as one hit. Never holds two shard locks at
    /// once.
    pub(crate) fn get(&self, key: &[StepKey]) -> Option<Arc<Csr>> {
        if let Some(m) = self.get_exact(key) {
            return Some(m);
        }
        if is_palindrome(key) {
            return None; // the reversal is the key itself
        }
        let m = self.get_exact(&reversed_key(key))?;
        let t = Arc::new(m.transpose());
        self.insert(key.to_vec(), Arc::clone(&t));
        self.counters.symmetry_hits.fetch_add(1, Ordering::Relaxed);
        Some(t)
    }

    /// Record a computed product (counted as a miss). Production code
    /// computes through [`MatrixCache::get_or_compute`] instead, inside an
    /// in-flight cell; this cell-less entry point remains for tests
    /// preloading cache state (and is itself subject to duplicate
    /// detection, like any computation that bypasses the table).
    #[cfg(test)]
    pub(crate) fn put(&self, key: PathKey, value: Arc<Csr>) {
        self.put_computed(key, value, None);
    }

    /// Record a computed product, optionally identifying the in-flight
    /// cell it was computed in.
    ///
    /// This is where duplicate concurrent computations are detected: a
    /// cell covers the whole computation, so a product landing for a key
    /// whose table entry is *another* cell means two computations of that
    /// key ran at once — exactly what the in-flight table exists to
    /// prevent. Cheap symmetry transposes ([`MatrixCache::get`]) go
    /// through `insert` and are deliberately not counted: they are reuse,
    /// not duplicated chains.
    fn put_computed(&self, key: PathKey, value: Arc<Csr>, cell: Option<&Inflight>) {
        if let Some(current) = self.inflight().get(&key) {
            if !cell.is_some_and(|c| Arc::ptr_eq(current, c)) {
                self.counters.dup_computes.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.insert(key, value);
    }

    /// Serve `key` from cache, or compute it **exactly once** across all
    /// concurrent callers, and say how this caller was served — the
    /// per-query signal the serving stack's telemetry aggregates (the
    /// global counters cannot attribute an outcome to one caller under
    /// concurrency).
    ///
    /// A miss takes the key's cell in the in-flight table, filing a new one
    /// if there is none, and initializes it: the one caller whose closure
    /// runs looks again (a racing computation may have landed meanwhile)
    /// and otherwise computes; every other caller parks on the cell and is
    /// handed the finished `Arc` (counted in [`CacheStats::coalesced_waits`],
    /// and as a hit — it was served without computing). This is what
    /// prevents a thundering herd of workers from running N identical SpMM
    /// chains after an eviction.
    ///
    /// `compute` runs with **no cache or table locks held**, so it may
    /// recurse into the cache for sub-products; a computation only ever
    /// waits on strictly shorter keys (its plan children), so wait chains
    /// are acyclic and cannot deadlock. If `compute` unwinds, the cell stays
    /// empty and a parked caller runs its own closure instead.
    pub fn get_or_compute(
        &self,
        key: &[StepKey],
        compute: impl FnOnce() -> Csr,
    ) -> (Arc<Csr>, CacheOutcome) {
        if let Some(m) = self.get(key) {
            return (m, CacheOutcome::Hit);
        }
        let cell = Arc::clone(self.inflight().entry(key.to_vec()).or_default());
        let mut outcome = CacheOutcome::CoalescedWait;
        let m = Arc::clone(cell.get_or_init(|| {
            if let Some(m) = self.get(key) {
                outcome = CacheOutcome::Hit;
                return m;
            }
            outcome = CacheOutcome::MissCompute;
            let value = Arc::new(compute());
            self.put_computed(key.to_vec(), Arc::clone(&value), Some(&cell));
            value
        }));
        {
            // remove only this cell: after an unwind, a later caller may
            // already have filed a fresh one
            let mut inflight = self.inflight();
            if inflight.get(key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                inflight.remove(key);
            }
        }
        if outcome == CacheOutcome::CoalescedWait {
            self.counters
                .coalesced_waits
                .fetch_add(1, Ordering::Relaxed);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        (m, outcome)
    }
}

/// Why a bounded cache would not keep a span's product: the verdict a
/// refused promotion carries ([`Promotion::Refused`](crate::Promotion::Refused)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The size estimate alone exceeds one shard's slice of the budget.
    Estimate {
        /// The estimate that was offered.
        est_bytes: usize,
        /// `byte_budget / shards`.
        slice_bytes: usize,
    },
    /// The span (or its mirror) was materialized before and its product
    /// did not fit a slice.
    Product {
        /// [`Csr::nbytes`] of that product.
        bytes: usize,
    },
    /// A symmetric span `H·Hᵀ`, an even palindrome of four steps or more,
    /// whose estimate is more than `FACTOR_RATIO` (8) times the bytes of
    /// its two halves: its rows are read through the halves, and its ranked
    /// rows kept in the row memo, instead of a square that could cost
    /// hundreds of times more. Given by the engine whatever the budget,
    /// unbounded included, to a span the cache would otherwise admit.
    Factored {
        /// The span's estimate from its relations alone.
        est_bytes: usize,
        /// Its two halves' bytes: a one-step half's relation, or else its
        /// estimate from its relations alone.
        halves_bytes: usize,
    },
}

/// How one [`MatrixCache::get_or_compute`] caller was served —
/// ordered from cheapest to most expensive, so [`CacheOutcome::worst`] can
/// summarize a whole plan tree's cache interaction as its slowest kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheOutcome {
    /// Served from resident cache (exact or transpose). The default — a
    /// query that touched no product has had the cheapest possible cache
    /// interaction.
    #[default]
    Hit,
    /// Served by blocking on another thread's in-flight computation.
    CoalescedWait,
    /// This caller ran the computation itself (and cached the result).
    MissCompute,
}

impl CacheOutcome {
    /// The more expensive of the two outcomes.
    pub fn worst(self, other: CacheOutcome) -> CacheOutcome {
        self.max(other)
    }

    /// Stable lowercase label for metrics and logs.
    pub const fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::CoalescedWait => "coalesced_wait",
            CacheOutcome::MissCompute => "miss_compute",
        }
    }

    /// Dense index for per-outcome metric arrays (`hit`, `coalesced_wait`,
    /// `miss_compute` — in [`CacheOutcome::ALL`] order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Every outcome, in [`CacheOutcome::index`] order.
    pub const ALL: [CacheOutcome; 3] = [
        CacheOutcome::Hit,
        CacheOutcome::CoalescedWait,
        CacheOutcome::MissCompute,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Residency;

    fn sample() -> Arc<Csr> {
        Arc::new(Csr::from_triplets(2, 3, [(0u32, 1u32, 2.0), (1, 2, 5.0)]))
    }

    /// The cache's verdict on a product of `est_bytes` under `key`, asked
    /// as the engine asks it: of the span's ledger entry.
    fn verdict(cache: &MatrixCache, key: &[StepKey], est_bytes: usize) -> Result<(), Refusal> {
        cache.admit(est_bytes, cache.ledger().get(key).0.oversize)
    }

    #[test]
    fn exact_and_symmetry_reuse() {
        let cache = MatrixCache::default();
        let key: PathKey = vec![(0, true), (1, false)];
        assert!(cache.get(&key).is_none());
        cache.put(key.clone(), sample());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));

        // exact hit
        let m = cache.get(&key).expect("cached");
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().symmetry_hits, 0);

        // reversed key served through a transpose
        let rev = reversed_key(&key);
        assert_eq!(rev, vec![(1, true), (0, false)]);
        let t = cache.get(&rev).expect("transpose reuse");
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().symmetry_hits, 1);

        // the transpose is now cached under its own key: hit, not symmetry
        let _ = cache.get(&rev).expect("now exact");
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(cache.stats().symmetry_hits, 1);
        assert_eq!(cache.stats().len, 2);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn peek_does_not_count() {
        let cache = MatrixCache::default();
        let key: PathKey = vec![(3, true)];
        cache.put(key.clone(), sample());
        assert_eq!(cache.peek_exact(&key), Some(2));
        assert_eq!(cache.peek_exact(&reversed_key(&key)), None, "exact only");
        assert!(cache.peek_exact(&[(9, true)]).is_none());
        assert_eq!(cache.stats().hits, 0, "peek never counts a hit");
        assert_eq!(cache.stats().misses, 1, "only the initial put counted");
    }

    #[test]
    fn palindromic_keys_are_their_own_reversal() {
        let key: PathKey = vec![(0, true), (0, false)];
        assert_eq!(reversed_key(&key), key);
        // and looking one up must not hit the symmetry path
        let cache = MatrixCache::default();
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().symmetry_hits, 0);
    }

    #[test]
    fn bounded_cache_evicts_lru_and_stays_under_budget() {
        // one shard so the budget applies to one LRU sequence
        let m = sample();
        let per_entry = m.nbytes();
        let cache = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: Some(per_entry * 2),
        });
        cache.put(vec![(0, true)], Arc::clone(&m));
        cache.put(vec![(1, true)], Arc::clone(&m));
        assert_eq!(cache.stats().len, 2);
        assert_eq!(cache.stats().evictions, 0);

        // touch key 0 so key 1 is the LRU victim
        assert!(cache.get(&[(0, true)]).is_some());
        cache.put(vec![(2, true)], Arc::clone(&m));
        assert_eq!(cache.stats().len, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= per_entry * 2);
        assert!(cache.get(&[(0, true)]).is_some(), "recently used survives");
        assert!(cache.get(&[(1, true)]).is_none(), "LRU entry evicted");
        assert!(cache.get(&[(2, true)]).is_some());
    }

    #[test]
    fn oversized_entry_is_not_retained() {
        let m = sample();
        let bytes = m.nbytes();
        let cache = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: Some(bytes / 2),
        });
        cache.put(vec![(0, true)], Arc::clone(&m));
        let before = cache.stats();
        assert_eq!(before.len, 0, "entry larger than the budget is dropped");
        assert_eq!(before.bytes, 0);
        assert_eq!(before.evictions, 0, "refused at the door, not evicted");
        assert_eq!(before.inserts_refused, 1);
        assert_eq!(before.refused_bytes, bytes as u64);
        cache.put(vec![(0, true)], m);
        let after = cache.stats();
        assert_eq!(after.inserts_refused - before.inserts_refused, 1);
        assert_eq!(after.refused_bytes - before.refused_bytes, bytes as u64);
    }

    /// `n × n` with `per_row` entries in every row.
    fn banded(n: u32, per_row: u32) -> Arc<Csr> {
        Arc::new(Csr::from_triplets(
            n as usize,
            n as usize,
            (0..n).flat_map(|r| (0..per_row).map(move |c| (r, (r + c) % n, 1.0))),
        ))
    }

    #[test]
    fn an_oversize_insert_leaves_its_shard_untouched() {
        let small = sample();
        let cache = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: Some(small.nbytes() * 3),
        });
        cache.put(vec![(0, true)], Arc::clone(&small));
        cache.put(vec![(1, true)], Arc::clone(&small));
        let before = cache.stats();

        let big = banded(40, 8);
        assert!(big.nbytes() > small.nbytes() * 3);
        assert!(!cache.insert(vec![(2, true)], Arc::clone(&big)));
        let after = cache.stats();
        assert_eq!((after.len, after.bytes), (before.len, before.bytes));
        assert!(cache.get(&[(0, true)]).is_some());
        assert!(cache.get(&[(1, true)]).is_some());
        assert!(cache.get(&[(2, true)]).is_none());
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().inserts_refused, 1);

        // computed products go through the same door: the caller is served,
        // the neighbours stay
        let (served, _) = cache.get_or_compute(&[(3, true), (4, false)], || (*big).clone());
        assert_eq!(served.nnz(), big.nnz());
        let after = cache.stats();
        assert_eq!((after.len, after.evictions), (before.len, 0));
        assert_eq!(after.inserts_refused, 2);
    }

    #[test]
    fn admission_is_free_when_unbounded_and_remembers_oversize_products() {
        let key: PathKey = vec![(0, false), (1, true)];
        assert_eq!(verdict(&MatrixCache::default(), &key, usize::MAX), Ok(()));

        let big = banded(40, 8);
        let slice = big.nbytes() / 2;
        let cache = MatrixCache::new(CacheConfig {
            shards: 2,
            byte_budget: Some(slice * 2),
        });
        assert_eq!(
            verdict(&cache, &key, slice),
            Ok(()),
            "an estimate that fits is let in"
        );
        assert_eq!(
            verdict(&cache, &key, slice + 1),
            Err(Refusal::Estimate {
                est_bytes: slice + 1,
                slice_bytes: slice
            })
        );
        // the estimate was wrong: the real product is refused, and from then
        // on the key and its mirror are known not to fit whatever is offered
        assert!(!cache.insert(key.clone(), Arc::clone(&big)));
        let known = Err(Refusal::Product {
            bytes: big.nbytes(),
        });
        assert_eq!(verdict(&cache, &key, 1), known);
        assert_eq!(verdict(&cache, &reversed_key(&key), 1), known);
        assert_eq!(
            verdict(&cache, &[(0, false), (2, true)], 1),
            Ok(()),
            "other keys are"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 0, "admission never counts");
    }

    #[test]
    fn a_span_and_its_mirror_share_one_ledger_entry_but_not_a_split() {
        let key: PathKey = vec![(0, false), (1, true), (2, true)];
        let rev = reversed_key(&key);
        let big = banded(40, 8);
        let cache = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: Some(big.nbytes() - 1),
        });
        assert!(!cache.ledger().heat_once(&key, 3));
        assert!(!cache.ledger().heat_once(&rev, 3), "one heat");
        assert!(!cache.insert(rev.clone(), Arc::clone(&big)));
        cache.ledger().remember_split(&key, Some(1));
        cache.ledger().remember_split(&rev, Some(2));
        let ledger = cache.ledger();
        let ((span, side), (mirror, mirror_side)) = (ledger.get(&key), ledger.get(&rev));
        assert_eq!(ledger.0.len(), 1, "one entry");
        assert_eq!(span, mirror, "one state");
        assert_eq!((span.heat, span.oversize), (2, Some(big.nbytes())));
        assert_ne!(side, mirror_side);
        assert_eq!(span.split[side], Some(Some(1)), "each side its own split");
        assert_eq!(mirror.split[mirror_side], Some(Some(2)));
        drop(ledger);
        // a palindrome is its own mirror, on the canonical side
        let palindrome = [key.as_slice(), &rev].concat();
        assert_eq!(cache.ledger().get(&palindrome).1, 0);
        // a crossing cools the span; one known oversize never crosses
        let other = [(5, true), (6, true)];
        assert!(!cache.ledger().heat_once(&other, 2));
        assert!(cache.ledger().heat_once(&other, 2));
        assert_eq!(cache.ledger().get(&other).0, SpanState::default());
        assert!(!cache.ledger().heat_once(&key, 3), "known oversize");
        assert_eq!(cache.ledger().get(&key).0.heat, 2);
    }

    #[test]
    fn the_ledger_holds_at_most_its_cap() {
        let cache = MatrixCache::default();
        for r in 0..=LEDGER_CAP {
            cache.ledger().heat_once(&[(r, true), (r, false)], 2);
            assert!(cache.ledger().0.len() <= LEDGER_CAP);
        }
        assert_eq!(
            cache.ledger().0.len(),
            1,
            "reset wholesale, then the newest"
        );
        // an entry left empty is dropped: crossing clears the last heat
        assert!(cache
            .ledger()
            .heat_once(&[(LEDGER_CAP, true), (LEDGER_CAP, false)], 2));
        assert!(cache.ledger().0.is_empty());
    }

    #[test]
    fn the_row_memo_holds_at_most_its_cap() {
        let cache = MatrixCache::default();
        let key: PathKey = vec![(0, true), (1, true), (1, false), (0, false)];
        let n = MEMO_ROWS_CAP + 5;
        let rows = Csr::from_triplets(n, 2, (0..n as u32).map(|x| (x, x % 2, 1.0)));
        assert_eq!(
            cache.memo_admit(&key, RowKind::Count, &rows),
            MEMO_ROWS_CAP as u64
        );
        let stats = cache.stats();
        assert_eq!(stats.memo_rows, MEMO_ROWS_CAP);
        assert_eq!(stats.memo_bytes, MEMO_ROWS_CAP * (24 + 16));
        assert_eq!(
            cache.memo_row(&key, Scoring::Count(3), 10),
            Some(vec![(1, 1.0)])
        );
        assert_eq!(
            cache.memo_row(&key, Scoring::PathSim(3), 10),
            None,
            "per kind"
        );
        // the next span to store a row finds the memo full and resets it
        let other: PathKey = vec![(2, true), (2, false), (2, true), (2, false)];
        let span = cache.memo_of(&other);
        let row = cache.ranked(&span, Scoring::PathSim(0), 1, || vec![(1, 0.5), (0, 0.25)]);
        assert_eq!(row, vec![(1, 0.5)]);
        assert_eq!(cache.stats().memo_rows, 1);
        assert_eq!(cache.memo_row(&key, Scoring::Count(3), 10), None);
        assert_eq!(
            cache.memo_row(&other, Scoring::PathSim(0), 10),
            Some(vec![(1, 0.5), (0, 0.25)])
        );
        assert_eq!(cache.memo_row(&other, Scoring::RowSums, 10), None);
    }

    #[test]
    fn keys_of_any_length_are_looked_up_through_their_mirror() {
        let straight = |len: usize| -> PathKey { (0..len).map(|r| (r, true)).collect() };
        let palindrome = |len: usize| -> PathKey {
            let half = straight(len / 2);
            [half.as_slice(), &reversed_key(&half)].concat()
        };
        let keys = [
            (straight(4), false),
            (palindrome(4), true),
            (straight(17), false),
            (palindrome(18), true),
        ];
        for (key, symmetric) in keys {
            let rev = reversed_key(&key);
            assert_eq!(rev == key, symmetric);
            assert_eq!(reversed_key(&rev), key);
            assert_eq!(canonical_key(&key), key.clone().min(rev.clone()));
            let whole = key.len() - 1;

            // missing: the pricing pass looks each orientation up once
            let cache = MatrixCache::default();
            PEEKS.with(|p| p.borrow_mut().clear());
            assert!(Residency::price(&cache, &key, true).get(0, whole).is_none());
            let peeks = PEEKS.with(|p| p.take());
            assert_eq!(peeks.get(&key), Some(&1), "{} steps", key.len());
            assert_eq!(peeks.get(&rev), Some(&1));
            assert!(peeks.values().all(|&n| n == 1), "{} steps", key.len());
            assert!(cache.get(&key).is_none());

            // resident: priced and probed through its mirror
            cache.put(key.clone(), sample());
            let held = Residency::price(&cache, &rev, true).get(0, whole);
            let held = held.expect("resident or its mirror is");
            assert_eq!((held.nnz, held.mirror), (2, !symmetric));
            let m = cache.get(&rev).expect("resident or its mirror is");
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.symmetry_hits), (1, !symmetric as u64));
            let (rows, value) = if symmetric {
                (2, m.get(0, 1))
            } else {
                (3, m.get(1, 0))
            };
            assert_eq!((m.nrows(), value), (rows, 2.0), "{} steps", key.len());

            // oversize: refused through its mirror
            let big = banded(40, 8);
            let bounded = MatrixCache::new(CacheConfig {
                shards: 2,
                byte_budget: Some(big.nbytes()),
            });
            assert_eq!(verdict(&bounded, &rev, 1), Ok(()));
            assert!(!bounded.insert(key.clone(), Arc::clone(&big)));
            let known = Err(Refusal::Product {
                bytes: big.nbytes(),
            });
            assert_eq!(verdict(&bounded, &rev, 1), known, "{} steps", key.len());
            assert_eq!(verdict(&bounded, &key, 1), known);
        }
    }

    /// The ten `span_thrash` span families of the end-to-end benchmark over
    /// the DBLP relations (0 = paper→author, 1 = paper→venue, 2 = paper→term).
    fn thrash_keys() -> Vec<PathKey> {
        let (ap, pa) = ((0, false), (0, true));
        let (vp, pv) = ((1, false), (1, true));
        let (tp, pt) = ((2, false), (2, true));
        vec![
            vec![ap, pv, vp, pa],
            vec![ap, pt, tp, pa],
            vec![ap, pa, ap, pa],
            vec![pa, ap, pv],
            vec![pt, tp, pv],
            vec![ap, pv, vp, pt],
            vec![vp, pa, ap, pv],
            vec![ap, pt, tp, pv],
            vec![ap, pa, ap, pv],
            vec![pa, ap],
        ]
    }

    #[test]
    fn shard_placement_is_a_fixed_function_of_the_key() {
        let (a, b) = (MatrixCache::default(), MatrixCache::default());
        let mut used = std::collections::HashSet::new();
        for i in 0..200usize {
            let key: PathKey = (0..1 + i % 5)
                .map(|j| ((i * 7 + j * 3) % 11, (i + j) % 3 == 0))
                .collect();
            assert_eq!(a.shard_index(&key), b.shard_index(&key), "{key:?}");
            used.insert(a.shard_index(&key));
        }
        assert_eq!(used.len(), 8, "generated keys reach every shard");
        // pinned, so a change of hash is a visible decision
        assert_eq!(a.shard_index(&[(0, false), (1, true)]), 3);

        let spans: std::collections::HashSet<usize> = thrash_keys()
            .iter()
            .flat_map(|k| (2..=k.len()).map(|n| a.shard_index(&k[..n])))
            .collect();
        assert!(spans.len() >= 4, "span families spread out: {spans:?}");
    }

    #[test]
    fn a_span_and_its_mirror_never_share_a_shard() {
        // the fold every canonical key is placed by, as it always was
        let fold = |key: &[StepKey], mask: usize| {
            let mut h = Fnv64::new();
            for &(r, fwd) in key {
                h.update_word(((r as u64) << 1) | u64::from(fwd));
            }
            let h = h.finish();
            ((h >> 32) ^ h) as usize & mask
        };
        let steps: Vec<StepKey> = (0..3).flat_map(|r| [(r, false), (r, true)]).collect();
        let mut keys: Vec<PathKey> = vec![vec![]];
        let mut all = Vec::new();
        for _ in 0..4 {
            keys = keys
                .iter()
                .flat_map(|k| steps.iter().map(move |&s| [k.as_slice(), &[s]].concat()))
                .collect();
            all.extend(keys.iter().cloned());
        }
        for shards in [1, 2, 8, 16] {
            let cache = MatrixCache::new(CacheConfig {
                shards,
                byte_budget: None,
            });
            let mask = shards - 1;
            let (mut palindromes, mut mirrored) = (0, 0);
            for key in &all {
                let (rev, canonical) = (reversed_key(key), canonical_key(key));
                let at = cache.shard_index(key);
                if *key == canonical {
                    // a palindrome is canonical too
                    assert_eq!(at, fold(key, mask), "{key:?} keeps its shard");
                } else {
                    let flipped = (fold(&canonical, mask) ^ 1) & mask;
                    assert_eq!(at, flipped, "{key:?} takes its mirror's neighbour");
                }
                if rev == *key {
                    palindromes += 1;
                } else if shards > 1 {
                    assert_ne!(at, cache.shard_index(&rev), "{key:?} crowds its mirror");
                    mirrored += 1;
                }
            }
            assert!(palindromes > 0, "palindromes were tried");
            assert!(shards == 1 || mirrored > 0, "mirror pairs were tried");
        }
        let cache = MatrixCache::default();
        let (apv, vpa) = (vec![(0, false), (1, true)], vec![(1, false), (0, true)]);
        assert_eq!((cache.shard_index(&apv), cache.shard_index(&vpa)), (3, 2));
    }

    #[test]
    fn get_or_compute_computes_once_and_coalesces_waiters() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let cache = Arc::new(MatrixCache::default());
        let computes = Arc::new(AtomicUsize::new(0));
        let n_threads = 8;
        let barrier = Arc::new(Barrier::new(n_threads));
        let key: PathKey = vec![(7, true), (3, false)];
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                let key = key.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let (m, _) = cache.get_or_compute(&key, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // long enough that the other threads arrive while
                        // the computation is still in flight
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Csr::from_triplets(2, 3, [(0u32, 1u32, 2.0), (1, 2, 5.0)])
                    });
                    assert_eq!(m.nnz(), 2);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().dup_computes, 0);
        assert_eq!(
            cache.stats().coalesced_waits,
            (n_threads - 1) as u64,
            "everyone else waited on the one in-flight computation"
        );
    }

    #[test]
    fn a_restored_entry_is_proved_before_it_goes_in_and_never_again() {
        let matrix = banded(300, 8);
        let checksum = entry_checksum(&matrix);
        let sealed = |stored: u128, verified| Sealed {
            key: vec![(2, true), (5, false)],
            matrix: Arc::clone(&matrix),
            checksum: Arc::new(stored.into()),
            verified,
        };
        let counts = |c: &MatrixCache| (c.stats().restore_verified, c.stats().restore_corrupt);
        let cache = MatrixCache::default();
        // a mismatch is turned away at the door, a match goes in
        assert!(!cache.insert_sealed(sealed(checksum ^ 1, false)));
        assert_eq!((cache.stats().len, counts(&cache)), (0, (0, 1)));
        assert!(cache.insert_sealed(sealed(checksum, false)));
        assert_eq!((cache.stats().len, counts(&cache)), (1, (1, 1)));
        // what a cache holds is proved: it exports as such, serves without
        // a hash, and an entry proved before is not hashed again
        let exported = cache.entries_by_recency();
        assert!(exported.iter().all(|e| e.verified));
        assert!(cache.get(&exported[0].key).is_some());
        assert!(cache.proven(&sealed(checksum ^ 1, true)));
        assert_eq!((cache.stats().hits, counts(&cache)), (1, (1, 1)));
        // an entry too large for its slice is refused before it is hashed
        let small = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: Some(matrix.nbytes() - 1),
        });
        assert!(!small.insert_sealed(sealed(checksum, false)));
        assert_eq!(counts(&small), (0, 0));
        assert_eq!(small.stats().inserts_refused, 1);
    }

    #[test]
    fn a_span_memo_ranks_each_list_once_and_outlives_its_matrix() {
        let cache = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: Some(banded(6, 3).nbytes()),
        });
        let key: PathKey = vec![(0, true), (0, false)];
        let first = banded(6, 3);
        cache.put(key.clone(), Arc::clone(&first));
        let span = cache.memo_of(&key);
        assert!(Arc::ptr_eq(&span, &cache.memo_of(&key)), "one entry a span");

        let ranks = std::cell::Cell::new(0);
        let rank = || {
            ranks.set(ranks.get() + 1);
            vec![(4, 3.0), (2, 2.0), (5, 1.0)]
        };
        let row = Scoring::Count(1);
        assert_eq!(cache.ranked(&span, row, 2, rank), vec![(4, 3.0), (2, 2.0)]);
        assert_eq!(
            cache.ranked(&span, row, 9, rank),
            vec![(4, 3.0), (2, 2.0), (5, 1.0)]
        );
        assert_eq!(cache.ranked(&span, row, 0, rank), vec![]);
        assert_eq!((ranks.get(), cache.ranked_builds()), (1, 1));
        // the scorings and rows are kept apart, and the memo answers each
        // as a prefix, row sums included, counting nothing
        cache.ranked(&span, Scoring::PathSim(1), 1, rank);
        cache.ranked(&span, Scoring::Count(2), 1, rank);
        cache.ranked(&span, Scoring::RowSums, 1, rank);
        cache.ranked(&span, Scoring::RowSums, 3, rank);
        assert_eq!((ranks.get(), cache.ranked_builds()), (4, 4));
        let hits = cache.stats().hits;
        assert_eq!(
            cache.memo_row(&key, Scoring::RowSums, 1),
            Some(vec![(4, 3.0)])
        );
        assert_eq!(cache.memo_row(&key, Scoring::PathSim(2), 1), None);
        assert_eq!(cache.memo_row(&reversed_key(&[(0, true)]), row, 1), None);
        assert_eq!(cache.stats().hits, hits, "a memo read is not a cache hit");
        let diagonal = span.diagonal(&cache, &first).to_vec();
        assert_eq!(diagonal, first.diagonal());
        span.diagonal(&cache, &first);
        assert_eq!(cache.stats().diagonal_builds, 1);
        assert_eq!(
            (cache.stats().memo_rows, cache.stats().memo_bytes),
            (4, 4 * 24 + 12 * 16 + 6 * 8)
        );

        // evicted, its rows and diagonal stay: they are the span's
        cache.put(vec![(1, true), (1, false)], banded(6, 3));
        assert!(cache.peek_exact(&key).is_none(), "evicted");
        assert_eq!(cache.memo_row(&key, row, 2), Some(vec![(4, 3.0), (2, 2.0)]));
        assert!(Arc::ptr_eq(&span, &cache.memo_of(&key)));
        assert_eq!(cache.stats().diagonal_builds, 1);
    }

    #[test]
    fn get_or_compute_survives_a_panicking_computer() {
        let cache = Arc::new(MatrixCache::default());
        let key: PathKey = vec![(1, true)];
        let panicker = {
            let cache = Arc::clone(&cache);
            let key = key.clone();
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(&key, || panic!("compute failed"))
                }));
            })
        };
        panicker.join().expect("outer thread survives");
        // the claim must have been abandoned, not leaked: a later caller
        // claims the key afresh and computes normally
        let (m, _) = cache.get_or_compute(&key, sample_csr);
        assert_eq!(m.nnz(), 2);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn a_waiter_parked_on_an_unwinding_computation_computes_in_its_place() {
        use std::sync::mpsc;

        let cache = Arc::new(MatrixCache::default());
        let key: PathKey = vec![(4, true), (2, false)];
        let (started, computing) = mpsc::channel();
        let (release, unwind) = mpsc::channel::<()>();
        let panicker = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(&key, || {
                        started.send(()).unwrap();
                        let _ = unwind.recv();
                        panic!("compute failed")
                    })
                }));
            })
        };
        computing.recv().unwrap();
        let computes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let waiter = {
            let (cache, key, computes) = (Arc::clone(&cache), key.clone(), Arc::clone(&computes));
            std::thread::spawn(move || {
                cache.get_or_compute(&key, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    sample_csr()
                })
            })
        };
        // the waiter holds the panicker's cell, and a moment later is parked
        // on it (were it not yet, it would find the cell empty and compute
        // just the same)
        while Arc::strong_count(&cache.inflight()[&key]) < 3 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        release.send(()).unwrap();
        panicker.join().expect("outer thread survives");
        let (m, outcome) = waiter.join().expect("the waiter is woken");
        assert_eq!((m.nnz(), outcome), (2, CacheOutcome::MissCompute));
        assert_eq!(computes.load(Ordering::SeqCst), 1, "it computed once");
        assert!(cache.inflight().get(&key).is_none(), "no cell is left");
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.coalesced_waits, stats.dup_computes),
            (1, 0, 0)
        );
    }

    fn sample_csr() -> Csr {
        Csr::from_triplets(2, 3, [(0u32, 1u32, 2.0), (1, 2, 5.0)])
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        use std::sync::Barrier;

        let cache = Arc::new(MatrixCache::new(CacheConfig {
            shards: 4,
            byte_budget: None,
        }));
        let n_threads = 8;
        let barrier = Arc::new(Barrier::new(n_threads));
        let handles: Vec<_> = (0..n_threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..200usize {
                        let key: PathKey = vec![(i % 16, t % 2 == 0)];
                        match cache.get(&key) {
                            Some(m) => assert_eq!(m.nnz(), 2),
                            None => cache.put(key, sample()),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics under concurrency");
        }
        let stats = cache.stats();
        assert!(stats.len <= 32, "16 keys × 2 directions at most");
        assert!(stats.hits + stats.misses >= 200);
    }
}
