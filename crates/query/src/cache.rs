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
//! miss claims the key and computes, every other thread blocks on a
//! `Condvar` and is handed the finished `Arc` — compute once, wait many.
//! Under cache thrash (bounded budget, overlapping queries) this turns N
//! concurrent SpMM chains over the same span into one chain plus N−1
//! cheap waits, which is what keeps tail latency flat when eviction and
//! demand fight over the same keys. A computing thread that unwinds
//! abandons its claim (waiters wake and retry, one of them re-claims), so
//! a panic can never wedge the table. Shard locks recover from poisoning
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
//! `Arc`, and the key is remembered with its real size
//! ([`CacheStats::inserts_refused`]). [`MatrixCache::admits`] answers the
//! same question *before* the product is computed, from a size estimate and
//! that memory — the engine asks it before promoting a span.
//!
//! Keys pick their shard through a fixed hash of the `(relation id,
//! forward)` sequence of their canonical form, so which spans share a
//! slice — and with it every miss, eviction and refusal count — repeats
//! from process to process. A span and its mirror hash alike and then take
//! neighbouring shards, so a product and its transpose never evict each
//! other.
//!
//! Within a shard, and in every other table keyed by a sub-path (the
//! oversize memory, the in-flight table, the engine's heat, split and
//! normalizer tables), keys hash through `KeyHasher`: the same word-FNV
//! fold, one multiply per word. It is not SipHash because SipHash defends a
//! table against keys chosen by an adversary to collide, and these keys are
//! relation ids the schema resolved, never client bytes, so its rounds
//! would buy nothing on a lookup the planner repeats per sub-span of every
//! query.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};

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
    let rev = reversed_key(key);
    if rev.as_slice() < key {
        rev
    } else {
        key.to_vec()
    }
}

/// A ranking in the form a sidecar stores it.
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

/// Known-oversize keys remembered before the table is reset wholesale — a
/// memory bound, not a policy: a reset costs each forgotten span one more
/// refused materialization.
const OVERSIZE_CAP: usize = 4096;

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
    /// An unbounded cache with the default shard count.
    pub fn unbounded() -> Self {
        Self::default()
    }

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
    /// the values half still to be — and computed by the first export
    /// otherwise, for every later one too: the cell is shared with the
    /// cache's own entry.
    pub(crate) checksum: Arc<OnceLock<EntryChecksum>>,
    /// `false` while the values have yet to be held against a `checksum`
    /// that came out of an image.
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
    /// remembered beside it like the diagonal: see [`Sealed::checksum`].
    checksum: Arc<OnceLock<EntryChecksum>>,
    /// Do `value`'s values match `checksum`? Set at insert for a product
    /// computed here or verified elsewhere; empty while a restored entry is
    /// *pending*. Whoever touches a pending entry first hashes its values,
    /// once; every other first toucher waits on this cell instead of
    /// hashing too.
    intact: OnceLock<bool>,
    /// What the reads of `value` derived from it, born empty with the entry
    /// and dropped with it, so it can never outlive or mismatch `value`.
    sidecar: Arc<Sidecar>,
}

/// A ranked list: `(id, score)` pairs, best first.
type Ranked = Box<[(u32, f64)]>;

/// The rows of one scoring that reads have ranked so far, by anchor row.
type RankedRows = RwLock<HashMap<u32, Ranked>>;

/// What a resident entry's reads derive from its immutable matrix: the
/// diagonal PathSim divides by, and the ranked lists the ranking verbs
/// answer from ([`MatrixCache::ranked`]). Handed out with the matrix by
/// [`MatrixCache::probe`], or looked up by [`MatrixCache::sidecar_of`];
/// never written to a snapshot or sent over the wire.
///
/// Not priced into the entry's bytes. The diagonal is 8 bytes per row,
/// smaller than the matrix's own `indptr` array, which is priced. A ranked
/// list is stored only for a row some read asked for, so the lists hold at
/// most one per distinct anchor asked, per scoring, plus one of row sums;
/// each list is at most as long as its first read asked to rank (the
/// engine ranks ten) at 16 bytes a pair.
#[derive(Default)]
pub(crate) struct Sidecar {
    diagonal: OnceLock<Box<[f64]>>,
    pathsim: RankedRows,
    counts: RankedRows,
    row_sums: OnceLock<Ranked>,
}

/// Which ranked list of a resident matrix a read asks for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scoring {
    /// Row `x`'s candidates by PathSim.
    PathSim(usize),
    /// Row `x`'s candidates by raw path count. Whether `x` itself is a
    /// candidate is fixed by the span's end types, so by the entry.
    Count(usize),
    /// The rows by row sum: one list per entry.
    RowSums,
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

/// One in-flight computation: the first thread to claim a key computes;
/// everyone else blocks on the condvar until the slot is filled (or
/// abandoned by a panicking computer, in which case waiters retry).
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

enum SlotState {
    Pending,
    /// `Some` = the computed product; `None` = the computing thread went
    /// away without a result (unwound) — waiters must retry.
    Done(Option<Arc<Csr>>),
}

impl Default for Slot {
    fn default() -> Self {
        Self {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }
}

/// Scope guard for a claimed in-flight slot: guarantees the slot is
/// resolved and unregistered exactly once, even if the compute closure
/// panics (drop during unwind ⇒ abandoned, waiters retry).
struct InflightGuard<'a> {
    cache: &'a MatrixCache,
    key: &'a [StepKey],
    slot: Arc<Slot>,
    resolved: bool,
}

impl InflightGuard<'_> {
    fn fulfill(mut self, value: Arc<Csr>) {
        self.resolve(Some(value));
    }

    fn resolve(&mut self, value: Option<Arc<Csr>>) {
        if self.resolved {
            return;
        }
        self.resolved = true;
        {
            let mut state = self
                .slot
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *state = SlotState::Done(value);
        }
        self.slot.cv.notify_all();
        let mut inflight = self
            .cache
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Remove only our own registration: after an abandon, a retrying
        // waiter may already have claimed the key with a fresh slot.
        if let Some(current) = inflight.get(self.key) {
            if Arc::ptr_eq(current, &self.slot) {
                inflight.remove(self.key);
            }
        }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.resolve(None);
    }
}

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
    /// Products found larger than a shard slice, by [`canonical_key`], with
    /// their real [`Csr::nbytes`]: what [`MatrixCache::admits`] consults so
    /// an under-estimated span is materialized once, not on every
    /// re-heating. Bounded by [`OVERSIZE_CAP`]; only ever touched when the
    /// cache is bounded.
    oversize: Mutex<KeyMap<usize>>,
    /// Keys currently being computed by some thread (compute-once,
    /// wait-many). One global mutex, not sharded: it is touched only on
    /// the miss path, held only for a map probe/insert/remove, and never
    /// while computing or while holding a shard lock.
    inflight: Mutex<KeyMap<Arc<Slot>>>,
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
    lazy_verified: AtomicU64,
    lazy_verify_failures: AtomicU64,
    diagonal_builds: AtomicU64,
    ranked_builds: AtomicU64,
}

/// What a [`MatrixCache`] has done and holds, read as one value by
/// [`MatrixCache::stats`]. The counters count from the cache's creation;
/// the gauges (`len`, `bytes`, `lazy_pending`) describe one moment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Number of stored matrices, across all shards.
    pub len: usize,
    /// Resident bytes across all shards ([`Csr::nbytes`] of every entry).
    pub bytes: usize,
    /// Products served from cache (exact + symmetry).
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
    /// key is remembered so [`MatrixCache::admits`] refuses it up front
    /// from then on. Computed products, symmetry transposes and snapshot
    /// entries all count here.
    pub inserts_refused: u64,
    /// Total [`Csr::nbytes`] of the products counted in `inserts_refused`
    /// — how much larger a budget would have had to be, summed over
    /// refusals.
    pub refused_bytes: u64,
    /// Threads served by waiting for another thread's in-flight
    /// computation of the same key ([`MatrixCache::get_or_compute`])
    /// instead of computing it themselves. Each one is a whole SpMM chain
    /// that was *not* run.
    pub coalesced_waits: u64,
    /// Computed products that landed for a key a *different* thread had
    /// claimed in the in-flight table at that moment — i.e. duplicate
    /// concurrent computations the table failed to coalesce. Structurally
    /// zero while every computation goes through
    /// [`MatrixCache::get_or_compute`] (a claim covers the whole
    /// computation); exposed so stress tests and experiments can assert it
    /// stays that way. Symmetry transposes are reuse, not duplicated
    /// chains, and are never counted.
    pub dup_computes: u64,
    /// Entries admitted from a snapshot import
    /// ([`MatrixCache::import_snapshot`]). An admitted entry is priced
    /// through the ordinary LRU, so it may still be evicted later.
    pub warm_loaded: u64,
    /// Snapshot entries rejected at import time because their key or
    /// matrix dimensions did not match the dataset schema, or because the
    /// matrix is larger than one shard's slice of the budget.
    pub warm_rejected: u64,
    /// The subset of `warm_loaded` admitted as zero-copy arena views
    /// ([`Csr::is_view`]) rather than owned heap copies — the snapshot
    /// format's "one map, zero per-matrix decodes" restore guarantee,
    /// observable as a counter.
    pub warm_view_backed: u64,
    /// Restored entries whose values matched their directory's values
    /// checksum — each hashed exactly once, by the first lookup to reach it
    /// or by [`MatrixCache::verify_pending`], then served unchecked.
    pub lazy_verified: u64,
    /// Restored entries whose values did **not** match their directory's
    /// values checksum: each was evicted unread (a lookup that found it
    /// reported a miss and recomputed). Nonzero means the image was damaged
    /// after writing — storage rot, torn copy, wire corruption.
    pub lazy_verify_failures: u64,
    /// Resident restored entries nobody has verified yet (a gauge). Zero
    /// once [`MatrixCache::verify_pending`] has returned.
    pub lazy_pending: usize,
    /// Diagonal sidecars built: one per resident square matrix PathSim has
    /// read, per residency — an evicted or restored matrix pays the build
    /// (one binary search per row) again on its next PathSim read, so a
    /// count that tracks queries rather than resident spans means an
    /// eviction or restore storm.
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
            oversize: Mutex::default(),
            inflight: Mutex::default(),
            tick: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// The configured total byte budget (`None` = unbounded).
    pub fn byte_budget(&self) -> Option<usize> {
        self.budget_per_shard.map(|b| b * self.shards.len())
    }

    /// Every counter, plus the three gauges read in one sweep: each shard's
    /// read lock is taken once, so `len`, `bytes` and `lazy_pending`
    /// describe the same moment of that shard.
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
            lazy_verified: read(&c.lazy_verified),
            lazy_verify_failures: read(&c.lazy_verify_failures),
            diagonal_builds: read(&c.diagonal_builds),
            ..CacheStats::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.read().unwrap_or_else(PoisonError::into_inner);
            stats.len += shard.map.len();
            stats.bytes += shard.bytes;
            stats.lazy_pending += shard
                .map
                .values()
                .filter(|e| e.intact.get().is_none())
                .count();
        }
        stats
    }

    /// Ranked lists stored in sidecars ([`MatrixCache::ranked`]): one per
    /// residency, scoring and row read, like [`CacheStats::diagonal_builds`].
    #[cfg(test)]
    pub(crate) fn ranked_builds(&self) -> u64 {
        self.counters.ranked_builds.load(Ordering::Relaxed)
    }

    /// Every resident entry, hottest first by recency tick — the order
    /// snapshot export uses — with its checksum cell and verified state; one
    /// found corrupt and about to be evicted is left out. Takes each shard's
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
                    .filter(|(_, e)| e.intact.get() != Some(&false))
                    .map(|(k, e)| {
                        let sealed = Sealed {
                            key: k.clone(),
                            matrix: Arc::clone(&e.value),
                            checksum: Arc::clone(&e.checksum),
                            verified: e.intact.get().is_some(),
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
        let mirror = rev.clone().lt(key.iter().copied());
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

    /// Would a product of `est_bytes` under `key` survive its own insert?
    /// Always `Ok` for an unbounded cache (no lock taken). Otherwise refused
    /// when `est_bytes` exceeds one shard's slice, or when `key` or its
    /// reversal was already materialized and found larger than the slice.
    /// Non-counting, like [`MatrixCache::peek_exact`].
    pub(crate) fn admission(&self, key: &[StepKey], est_bytes: usize) -> Result<(), Refusal> {
        let Some(slice_bytes) = self.budget_per_shard else {
            return Ok(());
        };
        if est_bytes > slice_bytes {
            return Err(Refusal::Estimate {
                est_bytes,
                slice_bytes,
            });
        }
        let canonical = canonical_key(key);
        let oversize = self.oversize.lock().unwrap_or_else(PoisonError::into_inner);
        match oversize.get(&canonical) {
            Some(&bytes) => Err(Refusal::Product { bytes }),
            None => Ok(()),
        }
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

    /// `true` when a product of about `est_bytes` under `key` would be kept
    /// if it were computed and stored now — the question to ask *before*
    /// paying for a materialization whose only purpose is to be cached.
    pub fn admits(&self, key: &[StepKey], est_bytes: usize) -> bool {
        self.admission(key, est_bytes).is_ok()
    }

    /// Lookup of exactly `key` (no symmetry); with `touch`, a counting one
    /// that refreshes recency.
    ///
    /// This is where a restored entry's values are held against its
    /// directory's values checksum — its structure was proved at mount, so
    /// only the `data` array is hashed: whoever reaches a pending entry
    /// first hashes it, under the shard's read lock, and everyone who
    /// arrives meanwhile waits for that one verdict. A match is never
    /// rechecked; a mismatch evicts the entry and reports a miss, so
    /// corrupt values are recomputed rather than served.
    fn resident(&self, key: &[StepKey], touch: bool) -> Option<(Arc<Csr>, Arc<Sidecar>)> {
        let lock = self.shard_of(key);
        let shard = lock.read().unwrap_or_else(PoisonError::into_inner);
        let entry = shard.map.get(key)?;
        let intact = *entry.intact.get_or_init(|| {
            // pending with no checksum to hold it against: not shown intact
            let ok = entry
                .checksum
                .get()
                .is_some_and(|&stored| values_checksum(&entry.value) == values_half(stored));
            self.counters
                .lazy_verified
                .fetch_add(ok as u64, Ordering::Relaxed);
            ok
        });
        if !intact {
            drop(shard);
            let mut shard = lock.write().unwrap_or_else(PoisonError::into_inner);
            // Recheck under the write lock: a racing store may have replaced
            // the corrupt entry with a freshly computed one, which must
            // survive — and only one witness of the verdict evicts and counts.
            if shard
                .map
                .get(key)
                .is_some_and(|e| e.intact.get() == Some(&false))
            {
                let gone = shard.map.remove(key).expect("key just observed");
                shard.bytes -= gone.bytes;
                self.counters
                    .lazy_verify_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
            return None;
        }
        if touch {
            entry.last_used.store(
                self.tick.fetch_add(1, Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
        }
        Some((Arc::clone(&entry.value), Arc::clone(&entry.sidecar)))
    }

    /// Verify every resident restored entry that is still pending, hottest
    /// first, through the same once a first lookup goes through: a query
    /// that reaches an entry first verifies it, and neither hashes what the
    /// other already has. Each pending entry costs one hash of its `data`
    /// array against its values checksum; the row offsets and indices were
    /// proved by the mount and are not read again. When this returns,
    /// nothing that was resident when it was called is pending — matches
    /// counted, corrupt entries evicted and counted. Not a use: recency and
    /// the hit counters stay put. Whoever asked for a restore calls this,
    /// once the cache is answering, so that no client pays for a hash.
    pub fn verify_pending(&self) {
        for pending in self.entries_by_recency().iter().filter(|e| !e.verified) {
            self.resident(&pending.key, false);
        }
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
    /// then itself. Whatever is resident under `key` stays (products are
    /// deterministic in their key, so it is the same matrix).
    pub(crate) fn insert_sealed(&self, sealed: Sealed) -> bool {
        let Sealed { key, matrix, .. } = sealed;
        let bytes = matrix.nbytes();
        if self.budget_per_shard.is_some_and(|slice| bytes > slice) {
            self.counters
                .inserts_refused
                .fetch_add(1, Ordering::Relaxed);
            self.counters
                .refused_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            let canonical = canonical_key(&key);
            let mut oversize = self.oversize.lock().unwrap_or_else(PoisonError::into_inner);
            if oversize.len() >= OVERSIZE_CAP {
                oversize.clear();
            }
            oversize.insert(canonical, bytes);
            return false;
        }
        let mut shard = self
            .shard_of(&key)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = Entry {
            value: matrix,
            bytes,
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1),
            checksum: sealed.checksum,
            intact: match sealed.verified {
                true => true.into(),
                false => OnceLock::new(),
            },
            sidecar: Arc::default(),
        };
        if let Some(old) = shard.map.insert(key, entry) {
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

    /// The sidecar of `matrix`, provided `matrix` is the very allocation
    /// resident under `key` right now — matched by [`Arc::ptr_eq`], never by
    /// key alone, so a caller holding a matrix that was evicted or replaced
    /// gets `None` (and reads its own matrix) rather than another matrix's
    /// diagonal or ranked rows. Does not count as a cache use: the caller's
    /// lookup of `matrix` already did. A caller whose lookup was
    /// [`MatrixCache::probe`] already holds the sidecar and need not ask.
    pub(crate) fn sidecar_of(&self, key: &[StepKey], matrix: &Arc<Csr>) -> Option<Arc<Sidecar>> {
        let shard = self
            .shard_of(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = shard.map.get(key)?;
        Arc::ptr_eq(&entry.value, matrix).then(|| Arc::clone(&entry.sidecar))
    }

    /// `matrix.diagonal()`, where `sidecar` is `matrix`'s: built once per
    /// residency, by whichever caller asks first, and concurrent first
    /// callers block on that one build (one binary search per row).
    pub(crate) fn diagonal<'s>(&self, sidecar: &'s Sidecar, matrix: &Csr) -> &'s [f64] {
        sidecar.diagonal.get_or_init(|| {
            self.counters
                .diagonal_builds
                .fetch_add(1, Ordering::Relaxed);
            matrix.diagonal().into()
        })
    }

    /// The first `limit` pairs of the list `scoring` names, where `sidecar`
    /// is the sidecar of the matrix `rank` reads. The first read of a list
    /// calls `rank` and stores what it returns; every later one copies a
    /// prefix under the read lock. So `limit` must be at most the length
    /// `rank` ranks to, and a prefix of a longer ranking must be the
    /// shorter ranking — true of [`hin_similarity::TopK`]'s total order.
    /// First reads that race each rank, and the first to store wins; the
    /// lists are equal, so which one does not show.
    pub(crate) fn ranked(
        &self,
        sidecar: &Sidecar,
        scoring: Scoring,
        limit: usize,
        rank: impl FnOnce() -> Vec<(usize, f64)>,
    ) -> Vec<(usize, f64)> {
        let (rows, row) = match scoring {
            Scoring::RowSums => {
                let list = sidecar.row_sums.get_or_init(|| {
                    self.counters.ranked_builds.fetch_add(1, Ordering::Relaxed);
                    compact(rank())
                });
                return prefix(list, limit);
            }
            Scoring::PathSim(row) => (&sidecar.pathsim, row as u32),
            Scoring::Count(row) => (&sidecar.counts, row as u32),
        };
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
            slot.insert(list);
        }
        answer
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

    /// Counting lookup used by the executor. Serves the reversed entry by
    /// materializing (and caching) its transpose. Never holds two shard
    /// locks at once.
    pub(crate) fn get(&self, key: &[StepKey]) -> Option<Arc<Csr>> {
        self.probe(key).map(|(m, _)| m)
    }

    /// Counting lookup of exactly `key`: a resident reversal is neither
    /// served nor transposed, so the lookup stores nothing and evicts
    /// nobody.
    pub(crate) fn get_exact(&self, key: &[StepKey]) -> Option<Arc<Csr>> {
        let (m, _) = self.resident(key, true)?;
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        Some(m)
    }

    /// [`MatrixCache::get`] that also hands back the entry's sidecar, taken
    /// under the same shard lock as the matrix, when `key` itself was
    /// resident. A symmetry hit stores a new entry and hands back `None`:
    /// ask [`MatrixCache::sidecar_of`] for its sidecar.
    pub(crate) fn probe(&self, key: &[StepKey]) -> Option<(Arc<Csr>, Option<Arc<Sidecar>>)> {
        if let Some((m, sidecar)) = self.resident(key, true) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Some((m, Some(sidecar)));
        }
        let rev = reversed_key(key);
        if rev == key {
            return None; // palindromic key: the reversal is itself
        }
        if let Some((m, _)) = self.resident(&rev, true) {
            let t = Arc::new(m.transpose());
            self.insert(key.to_vec(), Arc::clone(&t));
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            self.counters.symmetry_hits.fetch_add(1, Ordering::Relaxed);
            return Some((t, None));
        }
        None
    }

    /// Record a computed product (counted as a miss). Production code
    /// computes through [`MatrixCache::get_or_compute`] instead, which
    /// holds an in-flight claim; this claim-less entry point remains for
    /// tests preloading cache state (and is itself subject to duplicate
    /// detection, like any computation that bypasses the claim protocol).
    #[cfg(test)]
    pub(crate) fn put(&self, key: PathKey, value: Arc<Csr>) {
        self.put_computed(key, value, None);
    }

    /// Record a computed product, optionally identifying the in-flight
    /// claim the computer holds.
    ///
    /// This is where duplicate concurrent computations are detected: a
    /// claim covers the whole computation, so a product landing for a key
    /// that someone *else* currently has claimed means two computations of
    /// that key ran at once — exactly what the in-flight table exists to
    /// prevent. Cheap symmetry transposes ([`MatrixCache::get`]) go
    /// through `insert` and are deliberately not counted: they are reuse,
    /// not duplicated chains.
    fn put_computed(&self, key: PathKey, value: Arc<Csr>, claim: Option<&Arc<Slot>>) {
        {
            let inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(current) = inflight.get(&key) {
                let is_own_claim = claim.is_some_and(|c| Arc::ptr_eq(current, c));
                if !is_own_claim {
                    self.counters.dup_computes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.insert(key, value);
    }

    /// Serve `key` from cache, or compute it **exactly once** across all
    /// concurrent callers.
    ///
    /// The miss path claims `key` in the in-flight table; every other
    /// thread that misses the same key while the computation runs blocks
    /// on its condvar and is handed the finished `Arc` (counted in
    /// [`CacheStats::coalesced_waits`], and as a hit — it was served
    /// without computing). This is what prevents a thundering herd of
    /// workers from running N identical SpMM chains after an eviction.
    ///
    /// `compute` runs with **no cache or table locks held**, so it may
    /// recurse into the cache for sub-products; a computation only ever
    /// waits on strictly shorter keys (its plan children), so wait chains
    /// are acyclic and cannot deadlock. If `compute` unwinds, the claim is
    /// abandoned and one of the waiters re-claims the key.
    pub fn get_or_compute(&self, key: &[StepKey], compute: impl FnOnce() -> Csr) -> Arc<Csr> {
        self.get_or_compute_traced(key, compute).0
    }

    /// [`MatrixCache::get_or_compute`] that also reports *how* this caller
    /// was served — the per-query signal the serving stack's telemetry
    /// aggregates (the global hit/miss counters can't attribute an outcome
    /// to one caller under concurrency).
    pub fn get_or_compute_traced(
        &self,
        key: &[StepKey],
        compute: impl FnOnce() -> Csr,
    ) -> (Arc<Csr>, CacheOutcome) {
        let mut compute = Some(compute);
        // A caller that ever waited on someone else's computation reports
        // CoalescedWait even if it is finally served by a plain lookup on
        // retry — the wait is what its latency is made of.
        let mut waited = false;
        loop {
            if let Some(m) = self.get(key) {
                let outcome = if waited {
                    CacheOutcome::CoalescedWait
                } else {
                    CacheOutcome::Hit
                };
                return (m, outcome);
            }
            let claimed = {
                let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
                match inflight.entry(key.to_vec()) {
                    MapEntry::Occupied(e) => Err(Arc::clone(e.get())),
                    MapEntry::Vacant(v) => {
                        let slot = Arc::new(Slot::default());
                        v.insert(Arc::clone(&slot));
                        Ok(slot)
                    }
                }
            };
            match claimed {
                Err(slot) => {
                    // Someone else is computing this key: wait for their
                    // result instead of duplicating the work.
                    self.counters
                        .coalesced_waits
                        .fetch_add(1, Ordering::Relaxed);
                    waited = true;
                    let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
                    while matches!(*state, SlotState::Pending) {
                        state = slot.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                    if let SlotState::Done(Some(m)) = &*state {
                        self.counters.hits.fetch_add(1, Ordering::Relaxed);
                        return (Arc::clone(m), CacheOutcome::CoalescedWait);
                    }
                    // Abandoned (computer unwound): retry; we may claim.
                }
                Ok(slot) => {
                    let guard = InflightGuard {
                        cache: self,
                        key,
                        slot,
                        resolved: false,
                    };
                    // Double-check under the claim: a racing computation
                    // may have finished between our miss and our claim.
                    if let Some(m) = self.get(key) {
                        guard.fulfill(Arc::clone(&m));
                        let outcome = if waited {
                            CacheOutcome::CoalescedWait
                        } else {
                            CacheOutcome::Hit
                        };
                        return (m, outcome);
                    }
                    let value = Arc::new((compute.take().expect("compute runs at most once"))());
                    self.put_computed(key.to_vec(), Arc::clone(&value), Some(&guard.slot));
                    guard.fulfill(Arc::clone(&value));
                    return (value, CacheOutcome::MissCompute);
                }
            }
        }
    }
}

/// Why [`MatrixCache::admits`] said no.
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
}

/// How one [`MatrixCache::get_or_compute_traced`] caller was served —
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
        let served = cache.get_or_compute(&[(3, true), (4, false)], || (*big).clone());
        assert_eq!(served.nnz(), big.nnz());
        let after = cache.stats();
        assert_eq!((after.len, after.evictions), (before.len, 0));
        assert_eq!(after.inserts_refused, 2);
    }

    #[test]
    fn admission_is_free_when_unbounded_and_remembers_oversize_products() {
        let key: PathKey = vec![(0, false), (1, true)];
        assert!(MatrixCache::default().admits(&key, usize::MAX));

        let big = banded(40, 8);
        let slice = big.nbytes() / 2;
        let cache = MatrixCache::new(CacheConfig {
            shards: 2,
            byte_budget: Some(slice * 2),
        });
        assert!(cache.admits(&key, slice), "an estimate that fits is let in");
        assert_eq!(
            cache.admission(&key, slice + 1),
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
        assert_eq!(cache.admission(&key, 1), known);
        assert_eq!(cache.admission(&reversed_key(&key), 1), known);
        assert!(cache.admits(&[(0, false), (2, true)], 1), "other keys are");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 0, "admission never counts");
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
            assert!(cache.probe(&key).is_none());

            // resident: priced and probed through its mirror
            cache.put(key.clone(), sample());
            let held = Residency::price(&cache, &rev, true).get(0, whole);
            let held = held.expect("resident or its mirror is");
            assert_eq!((held.nnz, held.mirror), (2, !symmetric));
            let (m, _) = cache.probe(&rev).expect("resident or its mirror is");
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
            assert!(bounded.admits(&rev, 1));
            assert!(!bounded.insert(key.clone(), Arc::clone(&big)));
            let known = Err(Refusal::Product {
                bytes: big.nbytes(),
            });
            assert_eq!(bounded.admission(&rev, 1), known, "{} steps", key.len());
            assert_eq!(bounded.admission(&key, 1), known);
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
                    let m = cache.get_or_compute(&key, || {
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
    fn a_pending_entry_is_hashed_once_however_many_threads_touch_it() {
        use std::sync::Barrier;

        // large enough that the first toucher is still hashing when the
        // others arrive
        let matrix = banded(3000, 48);
        let checksum = entry_checksum(&matrix);
        for (stored, intact) in [(checksum, true), (checksum ^ 1, false)] {
            let cache = Arc::new(MatrixCache::default());
            let key: PathKey = vec![(2, true), (5, false)];
            assert!(cache.insert_sealed(Sealed {
                key: key.clone(),
                matrix: Arc::clone(&matrix),
                checksum: Arc::new(stored.into()),
                verified: false,
            }));
            assert_eq!(cache.stats().lazy_pending, 1);

            let n_threads = 8;
            let barrier = Arc::new(Barrier::new(n_threads));
            let served: Vec<bool> = (0..n_threads)
                .map(|_| {
                    let (cache, barrier, key) =
                        (Arc::clone(&cache), Arc::clone(&barrier), key.clone());
                    std::thread::spawn(move || {
                        barrier.wait();
                        cache.get(&key).is_some()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect();

            // the verdict is reached inside the once, so the count of
            // matches is the count of hashes
            assert_eq!(served, vec![intact; n_threads]);
            assert_eq!(cache.stats().lazy_verified, intact as u64, "one hash");
            assert_eq!(cache.stats().lazy_verify_failures, !intact as u64);
            assert_eq!(cache.stats().lazy_pending, 0);
            assert_eq!(cache.stats().len, intact as usize, "one eviction at most");
            assert_eq!(
                cache.stats().hits,
                if intact { n_threads as u64 } else { 0 }
            );
            // the sweep finds nothing left to do
            cache.verify_pending();
            assert_eq!(
                (
                    cache.stats().lazy_verified,
                    cache.stats().lazy_verify_failures
                ),
                (intact as u64, !intact as u64)
            );
        }
    }

    #[test]
    fn a_sidecar_belongs_to_one_resident_allocation() {
        let cache = MatrixCache::default();
        let key: PathKey = vec![(0, true), (0, false)];
        let first = banded(6, 3);
        cache.put(key.clone(), Arc::clone(&first));
        let (m, probed) = cache.probe(&key).expect("resident");
        let sidecar = probed.expect("an exact hit hands its sidecar over");
        assert!(Arc::ptr_eq(&m, &first));
        let looked_up = cache.sidecar_of(&key, &first).expect("same allocation");
        assert!(Arc::ptr_eq(&sidecar, &looked_up), "one sidecar per entry");
        // an equal matrix that is not the resident allocation has none
        let twin = Arc::new((*first).clone());
        assert!(cache.sidecar_of(&key, &twin).is_none());

        let ranks = std::cell::Cell::new(0);
        let rank = || {
            ranks.set(ranks.get() + 1);
            vec![(4, 3.0), (2, 2.0), (5, 1.0)]
        };
        let row = Scoring::Count(1);
        assert_eq!(
            cache.ranked(&sidecar, row, 2, rank),
            vec![(4, 3.0), (2, 2.0)]
        );
        assert_eq!(
            cache.ranked(&sidecar, row, 9, rank),
            vec![(4, 3.0), (2, 2.0), (5, 1.0)]
        );
        assert_eq!(cache.ranked(&sidecar, row, 0, rank), vec![]);
        assert_eq!((ranks.get(), cache.ranked_builds()), (1, 1));
        // the scorings and rows are kept apart
        cache.ranked(&sidecar, Scoring::PathSim(1), 1, rank);
        cache.ranked(&sidecar, Scoring::Count(2), 1, rank);
        cache.ranked(&sidecar, Scoring::RowSums, 1, rank);
        cache.ranked(&sidecar, Scoring::RowSums, 3, rank);
        assert_eq!((ranks.get(), cache.ranked_builds()), (4, 4));

        // a replacement under the same key starts a sidecar of its own,
        // and the old allocation no longer finds one
        cache.put(key.clone(), twin.clone());
        assert!(cache.sidecar_of(&key, &first).is_none());
        let fresh = cache.sidecar_of(&key, &twin).expect("the new entry's");
        assert!(!Arc::ptr_eq(&fresh, &sidecar));
        cache.ranked(&fresh, row, 2, rank);
        assert_eq!(cache.ranked_builds(), 5);
        // a symmetry hit stores the transpose, whose sidecar is looked up
        cache.put(vec![(1, true), (2, false)], sample());
        let (t, handed) = cache.probe(&[(2, true), (1, false)]).expect("transpose");
        assert!(handed.is_none());
        assert!(cache.sidecar_of(&[(2, true), (1, false)], &t).is_some());
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
        let m = cache.get_or_compute(&key, sample_csr);
        assert_eq!(m.nnz(), 2);
        assert_eq!(cache.stats().misses, 1);
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
