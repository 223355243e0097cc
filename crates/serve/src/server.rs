//! One dataset's serving stack: admission-controlled fair request queue →
//! worker pool over one shared [`Engine`]. Workers pop the queue themselves
//! and answer each request through its one-shot reply slot, with node ids:
//! the [`Ticket`] names them on the thread that waits for the answer.
//!
//! # Who runs a request
//!
//! A worker that pops it, or the client thread that waits for it.
//! [`Ticket::wait`] and [`Ticket::wait_timeout`] first take their request
//! back out of its lane if no worker has popped it yet, and run it on the
//! waiting thread through [`serve`], the one function a worker runs on a
//! popped batch. The take is made under the queue's lock, so each request
//! runs exactly once: a worker's pop or its waiter's take removes it. Only
//! a request a worker already holds is waited for.
//!
//! A submit wakes a parked worker only when no waiter will run the
//! request: when the queue already held a request, or when the lane is a
//! shard connection's, whose waits never run anything. A reply wakes its
//! waiter only when the waiter is parked on the reply slot, which the slot
//! records under its own lock: a waiter that ran its own request, or whose
//! answer was in before it looked, never parks. So a solo request is left
//! to its waiter and costs no cross-thread wake-up; run by a worker it
//! costs at most two (the push waking a parked worker, the reply waking a
//! parked waiter). A ticket dropped unwaited wakes a worker for its request
//! if the submit did not. [`ServerHandle::submit`] states when a request
//! runs.
//!
//! * A request its waiter runs is still shed [`QueryError::TimedOut`] by
//!   the same deadline sweep, and counts as a batch of one.
//! * [`Ticket::wait_timeout`]'s bound covers waiting for another thread,
//!   not a run the waiting thread performs itself.
//! * Slow-query capture still comes after the reply. On a waiter's thread
//!   it delays that waiter by one re-plan of an already-slow query (one
//!   past [`TelemetryConfig::slow_query`], 100 ms by default).
//! * A shard connection's wait does not help: it admits a pipelined burst
//!   before it waits on any of it, and the burst is the workers' batch, so
//!   its every push wakes a worker. A remote client's tickets have no
//!   queue to take from.
//!
//! Handles and tickets reach the engine weakly, so it is freed when the
//! [`Server`] goes however long they live; shutdown waits out the waiter
//! runs under way, so its final stats count every admitted request.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hin_core::Hin;
use hin_query::{
    CacheConfig, CacheOutcome, CacheSnapshot, Engine, ExecPolicy, IdOutput, QueryError,
    QueryOutput, QueryTrace, SnapshotImport, TraceMode,
};
use hin_telemetry::{HistSnapshot, Histogram, RingLog};

use crate::queue::{FairQueue, Push};

/// Sizing knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads sharing the engine. Default: available parallelism,
    /// capped at 8.
    pub workers: usize,
    /// Largest micro-batch one worker pops from the queue at a time. A pop
    /// takes the worker's share of the backlog (`queued / workers`, rounded
    /// up), so this bound is reached only under a backlog.
    pub batch_max: usize,
    /// Admission control: the most requests the queue holds. At the cap,
    /// shedding is longest-queue-drop: the request answered with
    /// [`QueryError::Overloaded`] is the newest request of the *fattest*
    /// client lane (the arrival itself when its own lane is joint-longest),
    /// so overload cost lands on the flooding client while quieter clients
    /// stay admitted. `None` (the default) admits everything — fine for
    /// trusted in-process callers, wrong for a server exposed to
    /// open-ended clients, whose queue (and memory) then grows without
    /// bound under overload.
    pub queue_depth: Option<usize>,
    /// Commuting-matrix cache sizing (shards, byte budget).
    pub cache: CacheConfig,
    /// Execution policy: how many lazy executions of one span trigger
    /// heat-based promotion to full materialization
    /// ([`ExecPolicy::promote_after`]). Cold anchored traffic after a
    /// register/failover answers in row time instead of first paying whole
    /// SpMM chains, while hot spans still land in the cache (and therefore
    /// in snapshots); `promote_after(0)` materializes a span on its first
    /// anchored run.
    pub exec: ExecPolicy,
    /// Warm start: a cache snapshot restored into the engine *before* the
    /// server takes traffic, so a replacement re-takes a failed-over
    /// dataset warm instead of re-paying every SpMM chain under load.
    /// Entries are schema-validated and priced through the cache's LRU
    /// (see [`hin_query::Engine::restore`]); `None` (the default) starts
    /// cold.
    ///
    /// A snapshot mounted from a checkpoint file
    /// ([`hin_query::CacheSnapshot::open`]) is a set of views into the
    /// mapped file: nothing is copied onto the heap — there is no switch
    /// for this, it is how files are restored, because the copy a read
    /// makes is measurably slower. The restore hashes each entry's values
    /// against its checksum before taking it in, reading every page of the
    /// image, so by the time [`Server::start`] returns every restored entry
    /// is proved, and a corrupt one was rejected
    /// ([`ServerStats::cache_restore_corrupt`]).
    pub warm_start: Option<Arc<CacheSnapshot>>,
    /// Observability: per-stage latency histograms and the slow-query log.
    pub telemetry: TelemetryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            batch_max: 32,
            queue_depth: None,
            cache: CacheConfig::default(),
            exec: ExecPolicy::default(),
            warm_start: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Observability knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Master switch. On (the default), every stage records into its
    /// histogram and slow queries are captured; off, the pipeline touches
    /// no histogram and keeps no slow log, and [`ServerStats`] reports
    /// empty snapshots. The engine runs the same flow either way
    /// ([`Engine::execute_ids_traced`], three clock reads a query): what the
    /// switch saves is the recording, which the benchmark prices as
    /// `telemetry.cost_us_per_query`.
    pub enabled: bool,
    /// End-to-end latency (admission to answer) at or above which a query
    /// is captured — with its EXPLAIN plan and stage breakdown — into the
    /// slow-query log. `Duration::ZERO` captures everything (useful in
    /// tests; ruinous in production only in log volume, the ring is
    /// bounded).
    pub slow_query: Duration,
    /// Capacity of the slow-query ring: only the newest this-many captures
    /// are retained.
    pub slow_log: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            slow_query: Duration::from_millis(100),
            slow_log: 32,
        }
    }
}

/// Labels of the execution-mode axis of [`ServerStats::exec_ns`]: each
/// [`TraceMode::as_str`], at its [`TraceMode::index`].
pub const EXEC_MODES: [&str; 2] = {
    let [full, sparse_row] = TraceMode::ALL;
    [full.as_str(), sparse_row.as_str()]
};

/// Labels of the cache-outcome axis of [`ServerStats::exec_ns`]: each
/// [`CacheOutcome::as_str`], at its [`CacheOutcome::index`].
pub const EXEC_OUTCOMES: [&str; 3] = {
    let [hit, coalesced_wait, miss_compute] = CacheOutcome::ALL;
    [hit.as_str(), coalesced_wait.as_str(), miss_compute.as_str()]
};

/// One query captured by the slow-query log: what ran, the plan it ran
/// under, and where its latency went.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The query text as submitted.
    pub query: String,
    /// Its EXPLAIN plan (re-derived at capture time — the hot path carries
    /// no plan string), or empty if the query failed before planning.
    pub plan: String,
    /// Execution mode that actually ran (see [`EXEC_MODES`]).
    pub mode: &'static str,
    /// Worst cache outcome across the plan tree (see [`EXEC_OUTCOMES`]).
    pub outcome: &'static str,
    /// Admission to taken off the queue, by a popping worker (its wake-up
    /// included) or by the query's own waiter.
    pub queue_wait_ns: u64,
    /// Taken off the queue to execution start (the deadline sweep).
    pub dispatch_ns: u64,
    /// Parse + resolve + row memo and whole-span probe, plus chain
    /// planning when both missed ([`QueryTrace::plan_ns`]).
    pub plan_ns: u64,
    /// Plan execution.
    pub exec_ns: u64,
    /// Admission to answer.
    pub total_ns: u64,
}

/// Stripes of a server's [`Counters`] and [`StageHists`]. A thread counts
/// and records into one stripe, so threads on different stripes share no
/// cache line when they do.
const STRIPES: usize = 8;

/// Stripes handed out so far, round-robin, one to each counting thread.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The stripe this thread counts and records into, in every server:
    /// given on its first use. Threads past [`STRIPES`] share stripes,
    /// which costs contention, never a count.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// [`STRIPES`] values of `T`, one per stripe: a thread writes its own
/// ([`Striped::mine`]) and a reader folds them all. `T` is aligned to its
/// own cache lines, so no two stripes share one.
struct Striped<T>(Box<[T]>);

impl<T> Striped<T> {
    fn new(mut make: impl FnMut() -> T) -> Self {
        Striped((0..STRIPES).map(|_| make()).collect())
    }

    /// The calling thread's stripe.
    fn mine(&self) -> &T {
        &self.0[STRIPE.with(|s| *s)]
    }

    /// Every stripe.
    fn all(&self) -> &[T] {
        &self.0
    }
}

/// One stripe of per-stage latency recorders: the stripe of every thread
/// that records into it, submitters and whoever runs requests. Aligned so
/// that no two stripes' inline counters share a cache line; its buckets
/// are about 44 KB.
#[repr(align(128))]
struct StageHists {
    /// Time spent inside `submit` reaching an admission decision.
    admission: Histogram,
    queue_wait: Histogram,
    dispatch: Histogram,
    plan: Histogram,
    /// Execute-stage latency, `[mode][cache outcome]` per
    /// [`EXEC_MODES`] × [`EXEC_OUTCOMES`].
    exec: [[Histogram; 3]; 2],
    e2e: Histogram,
}

impl StageHists {
    fn new() -> Self {
        Self {
            admission: Histogram::new(),
            queue_wait: Histogram::new(),
            dispatch: Histogram::new(),
            plan: Histogram::new(),
            exec: std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new())),
            e2e: Histogram::new(),
        }
    }
}

/// Telemetry state hung off [`Shared`] when enabled.
struct Telemetry {
    /// [`STRIPES`] stage recorders, about 350 KB: each thread records into
    /// its own, and [`Server::stats`] merges them, which reads exactly as
    /// one recorder that took every sample.
    stages: Striped<StageHists>,
    slow: RingLog<SlowQuery>,
    slow_threshold: Duration,
}

impl Telemetry {
    /// One stage's histogram, merged across the stripes.
    fn merged(&self, stage: impl Fn(&StageHists) -> &Histogram) -> HistSnapshot {
        self.stages
            .all()
            .iter()
            .fold(HistSnapshot::default(), |all, s| {
                all.merge(&stage(s).snapshot())
            })
    }
}

/// A query's answer as it travels through its reply slot: named already
/// (a remote shard's decoded frame), or the node ids a worker computed,
/// named by whichever thread takes them.
pub(crate) enum Output {
    Named(QueryOutput),
    Ids(IdOutput),
}

/// What a query resolves to.
pub(crate) type Answer = Result<Output, QueryError>;

/// The one-shot slot a request's answer travels through: filled once by
/// the [`ReplySender`], taken once by the [`Ticket`] waiting on it.
///
/// The sender wakes the waiter only when one is parked on `filled`: a
/// ticket whose answer is in the slot by the time it looks — its own run's,
/// or one that came first — takes it and never parks, and the reply makes
/// no system call. Both sides read and write the flag under the slot's
/// lock, so a waiter that is about to park has either found the answer or
/// is seen parked by the sender, who then wakes it.
struct ReplySlot {
    state: Mutex<SlotState>,
    filled: Condvar,
    /// Wake-ups the sender made, for tests of who gets woken.
    #[cfg(test)]
    notifies: AtomicUsize,
}

/// What a [`ReplySlot`]'s lock guards.
#[derive(Default)]
struct SlotState {
    answer: Option<Answer>,
    /// A waiter is parked on the slot's condvar, for want of the answer.
    parked: bool,
}

/// The answering half of a reply slot. It delivers when dropped: what
/// [`ReplySender::send`] stored or, dropped unsent, [`QueryError::Canceled`].
pub(crate) struct ReplySender {
    slot: Arc<ReplySlot>,
    answer: Answer,
}

impl ReplySender {
    /// Resolve the ticket. The client may have dropped it; that is not an
    /// error, the answer is simply never read.
    pub(crate) fn send(mut self, answer: Answer) {
        self.answer = answer;
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        let answer = std::mem::replace(&mut self.answer, Err(QueryError::Canceled));
        let mut state = self
            .slot
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.answer = Some(answer);
        let parked = state.parked;
        drop(state);
        if parked {
            self.slot.filled.notify_one();
            #[cfg(test)]
            self.slot.notifies.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One in-flight query: the text plus the slot its result goes back through.
struct Request {
    query: String,
    reply: ReplySender,
    /// When admission queued it — the epoch all stage timings count from.
    queued_at: Instant,
    /// `Some` when the client propagated a deadline: a request still
    /// queued past this instant is shed with [`QueryError::TimedOut`]
    /// instead of executed — the client already gave up, so the work
    /// would only burn a worker for a discarded answer.
    deadline: Option<Instant>,
}

/// One stripe of the counters kept by submitters (`shed`) and whoever
/// runs a request (everything else; `batches` / `max_batch` are counted by
/// the thread that popped or took the batch, `waiter_runs` by a waiter
/// that took). [`Server::stats`] adds the stripes up (`max_batch` takes
/// their largest).
#[derive(Default)]
#[repr(align(128))]
struct Counters {
    served: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    shed_expired: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    waiter_runs: AtomicU64,
}

/// The waiter runs under way, so that shutdown can wait them out. A run is
/// entered *before* its take: a request taken before the queue closed is
/// counted here by the time the last worker has seen the queue drained.
#[derive(Default)]
struct WaiterRuns {
    /// Runs under way, and whether a shutdown is waiting for them to end:
    /// until one is, a run's end wakes nobody and makes no system call.
    state: Mutex<(usize, bool)>,
    ended: Condvar,
}

impl WaiterRuns {
    fn lock(&self) -> MutexGuard<'_, (usize, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count one run until the returned guard drops.
    fn enter(&self) -> WaiterRun<'_> {
        self.lock().0 += 1;
        WaiterRun(self)
    }

    /// Block until no run is under way; meant for after the queue closed
    /// and drained, when no new run can take anything.
    fn wait_out(&self) {
        let mut state = self.lock();
        state.1 = true;
        drop(
            self.ended
                .wait_while(state, |s| s.0 > 0)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }
}

/// One counted waiter run; ends when dropped.
struct WaiterRun<'a>(&'a WaiterRuns);

impl Drop for WaiterRun<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.0 -= 1;
        if state.0 == 0 && state.1 {
            self.0.ended.notify_all();
        }
    }
}

/// State shared between the server, every client handle, every ticket its
/// handles made, and the worker threads: the fair queue requests are
/// admitted into, plus accounting.
struct Shared {
    queue: FairQueue<Request>,
    /// The engine's network, which names an answer of node ids on the
    /// thread that waits for it.
    hin: Arc<Hin>,
    /// The engine, for a waiter that runs its own request. Weak: the
    /// server and its workers own the engine, and it goes with the server
    /// however long handles and tickets outlive it.
    engine: Weak<Engine>,
    runs: WaiterRuns,
    counters: Striped<Counters>,
    /// Client-lane id allocator; see [`Server::handle`].
    next_client: AtomicU64,
    /// `Some` when [`TelemetryConfig::enabled`].
    telemetry: Option<Telemetry>,
}

/// A snapshot of a server's lifetime statistics.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Queries answered (ok or error).
    pub served: u64,
    /// The subset of `served` that returned an error.
    pub errors: u64,
    /// Queries rejected at admission time ([`QueryError::Overloaded`]);
    /// disjoint from `served`.
    pub shed: u64,
    /// Queries whose propagated deadline expired while they were still
    /// queued: answered [`QueryError::TimedOut`] by the worker *without*
    /// executing (see [`ServerHandle::submit_with_deadline`]). Disjoint
    /// from `served` and `shed`.
    pub shed_expired: u64,
    /// Micro-batches popped by workers, plus the requests their waiters
    /// ran (each a batch of one).
    pub batches: u64,
    /// Largest micro-batch seen.
    pub max_batch: u64,
    /// Requests their own waiter took off the queue before any worker
    /// popped them, and ran on the waiting thread (see
    /// [`Ticket::wait`]). A subset of `batches`; with `served`, it reads as
    /// the share of the traffic no worker ran.
    pub waiter_runs: u64,
    /// Submits and dropped tickets that signalled the workers (see
    /// [`ServerHandle::submit`]): a parked worker wakes; with none parked,
    /// a busy worker pops the request at its next pop. Per served request
    /// it reads near 0 when waiters run their own requests one at a time,
    /// and 1 when every request is left to the workers, as a shard
    /// connection's are.
    pub worker_wakes: u64,
    /// Worker threads.
    pub workers: usize,
    /// Requests queued awaiting a worker at the moment of the stats call
    /// (racy by nature).
    pub queue_depth: usize,
    /// Per-lane queue depths at the moment of the stats call, as
    /// `(client lane id, queued requests)` sorted by lane id — the
    /// observability adaptive admission needs: it shows *who* the queued
    /// work belongs to, not just how much there is.
    pub lane_depths: Vec<(u64, usize)>,
    /// Cache: products served from cache.
    pub cache_hits: u64,
    /// Cache: the subset of hits served by transposing a reversed path.
    pub cache_symmetry_hits: u64,
    /// Cache: products computed.
    pub cache_misses: u64,
    /// Cache: entries evicted to stay under the byte budget.
    pub cache_evictions: u64,
    /// Cache: inserts turned away because the product alone is larger than
    /// one shard's slice of the byte budget (nothing was evicted for them).
    pub cache_inserts_refused: u64,
    /// Cache: total bytes of the products counted in
    /// `cache_inserts_refused`.
    pub cache_refused_bytes: u64,
    /// Queries answered by anchored sparse-row propagation instead of
    /// matrix materialization (the anchored fast path).
    pub anchored_fast_paths: u64,
    /// Spans promoted from lazy propagation to full materialization after
    /// crossing [`ExecPolicy::promote_after`] lazy executions.
    pub promotions: u64,
    /// Lazy executions of spans the cache would not keep, so they were never
    /// counted toward promotion; a repeat of a read one stored in the row
    /// memo counts in `memo_hits` instead. Climbing with `cache_evictions`
    /// flat: the byte budget cannot hold what the traffic heats;
    /// `cache_evictions` climbing instead: the working set rotates.
    pub promotions_refused: u64,
    /// Product halves of refused spans materialized after heating, so the
    /// spans' rows are read through them instead of chained through their
    /// relations (not counted in `promotions`).
    pub factor_promotions: u64,
    /// Cache: workers served by waiting on another worker's in-flight
    /// computation of the same product (compute-once, wait-many).
    pub cache_coalesced_waits: u64,
    /// Cache: duplicate concurrent computations of one key that slipped
    /// past the in-flight table (should stay 0).
    pub cache_dup_computes: u64,
    /// Cache: snapshot entries admitted at warm start / restore.
    pub cache_warm_loaded: u64,
    /// Cache: snapshot entries rejected at warm start as not fitting this
    /// dataset's schema or its cache, or as corrupt.
    pub cache_warm_rejected: u64,
    /// Cache: the subset of `cache_warm_loaded` admitted as zero-copy
    /// arena views (mounted images on a zero-copy host) rather than
    /// per-matrix heap decodes.
    pub cache_warm_view_backed: u64,
    /// Cache: restored entries whose payload matched its checkpoint
    /// checksum — each hashed once, by the restore, before it went in.
    pub cache_restore_verified: u64,
    /// Cache: restored entries whose payload did **not** match: rejected
    /// by the restore (counted in `cache_warm_rejected` too), never served,
    /// and recomputed under traffic when next wanted. Non-zero means a warm
    /// start came up missing spans — the checkpoint was damaged after it
    /// was written.
    pub cache_restore_corrupt: u64,
    /// Cache: diagonals built for spans PathSim read off a whole matrix,
    /// kept in the row memo — one per span per memo generation, not one per
    /// query or per residency.
    pub cache_diagonal_builds: u64,
    /// PathSim normalizer diagonals served from the engine's per-half-span
    /// memo instead of recomputed half propagations.
    pub normalizer_memo_hits: u64,
    /// Cache: resident entries.
    pub cache_len: usize,
    /// Cache: resident bytes.
    pub cache_bytes: usize,
    /// Ranked reads answered from the row memo, with nothing looked up in
    /// the cache, planned or propagated; not counted in `cache_hits`.
    pub memo_hits: u64,
    /// Cache: ranked rows the row memo holds (a gauge).
    pub cache_memo_rows: usize,
    /// Cache: heap bytes of those rows and of the memo's diagonals (a
    /// gauge), not in `cache_bytes`.
    pub cache_memo_bytes: usize,
    /// Stage latency (ns): `submit` call to admission decision. Empty when
    /// telemetry is disabled, like every histogram below.
    pub admission_ns: HistSnapshot,
    /// Stage latency (ns): admission to taken off the queue — the wait in
    /// the queue *and* the popping worker's wake-up, or, for a request its
    /// waiter ran, the time until the waiter took it.
    pub queue_wait_ns: HistSnapshot,
    /// Stage latency (ns): taken off the queue to execution start — the
    /// deadline sweep, on the thread that runs it; one sample per served
    /// request.
    pub dispatch_ns: HistSnapshot,
    /// Stage latency (ns): parse + resolve + row memo and whole-span probe,
    /// plus chain planning when both missed ([`QueryTrace::plan_ns`]).
    pub plan_ns: HistSnapshot,
    /// Execute-stage latency (ns) split `[mode][cache outcome]`, label
    /// order [`EXEC_MODES`] × [`EXEC_OUTCOMES`] — e.g.
    /// `exec_ns[1][0]` is sparse-row execution served from cache.
    pub exec_ns: [[HistSnapshot; 3]; 2],
    /// End-to-end latency (ns): admission to answer.
    pub e2e_ns: HistSnapshot,
    /// Queries captured by the slow-query log over the server's lifetime
    /// (the ring retains only the newest [`TelemetryConfig::slow_log`]).
    pub slow_queries: u64,
}

impl ServerStats {
    /// Element-wise sum, for rolling shard snapshots up into a fleet view
    /// (`workers` adds; gauges `queue_depth`/`cache_len`/`cache_bytes` add
    /// across disjoint servers; `max_batch` takes the max; `lane_depths`
    /// concatenates — lane ids are per-server, so the fleet view simply
    /// lists every lane; histograms merge bucket-wise, so fleet quantiles
    /// read from the merged snapshot exactly as per-server ones do).
    pub fn merge(&self, other: &ServerStats) -> ServerStats {
        let mut lane_depths = self.lane_depths.clone();
        lane_depths.extend(other.lane_depths.iter().copied());
        ServerStats {
            served: self.served + other.served,
            errors: self.errors + other.errors,
            shed: self.shed + other.shed,
            shed_expired: self.shed_expired + other.shed_expired,
            batches: self.batches + other.batches,
            max_batch: self.max_batch.max(other.max_batch),
            waiter_runs: self.waiter_runs + other.waiter_runs,
            worker_wakes: self.worker_wakes + other.worker_wakes,
            workers: self.workers + other.workers,
            queue_depth: self.queue_depth + other.queue_depth,
            lane_depths,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_symmetry_hits: self.cache_symmetry_hits + other.cache_symmetry_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            cache_inserts_refused: self.cache_inserts_refused + other.cache_inserts_refused,
            cache_refused_bytes: self.cache_refused_bytes + other.cache_refused_bytes,
            anchored_fast_paths: self.anchored_fast_paths + other.anchored_fast_paths,
            promotions: self.promotions + other.promotions,
            promotions_refused: self.promotions_refused + other.promotions_refused,
            factor_promotions: self.factor_promotions + other.factor_promotions,
            cache_coalesced_waits: self.cache_coalesced_waits + other.cache_coalesced_waits,
            cache_dup_computes: self.cache_dup_computes + other.cache_dup_computes,
            cache_warm_loaded: self.cache_warm_loaded + other.cache_warm_loaded,
            cache_warm_rejected: self.cache_warm_rejected + other.cache_warm_rejected,
            cache_warm_view_backed: self.cache_warm_view_backed + other.cache_warm_view_backed,
            cache_restore_verified: self.cache_restore_verified + other.cache_restore_verified,
            cache_restore_corrupt: self.cache_restore_corrupt + other.cache_restore_corrupt,
            cache_diagonal_builds: self.cache_diagonal_builds + other.cache_diagonal_builds,
            normalizer_memo_hits: self.normalizer_memo_hits + other.normalizer_memo_hits,
            cache_len: self.cache_len + other.cache_len,
            cache_bytes: self.cache_bytes + other.cache_bytes,
            memo_hits: self.memo_hits + other.memo_hits,
            cache_memo_rows: self.cache_memo_rows + other.cache_memo_rows,
            cache_memo_bytes: self.cache_memo_bytes + other.cache_memo_bytes,
            admission_ns: self.admission_ns.merge(&other.admission_ns),
            queue_wait_ns: self.queue_wait_ns.merge(&other.queue_wait_ns),
            dispatch_ns: self.dispatch_ns.merge(&other.dispatch_ns),
            plan_ns: self.plan_ns.merge(&other.plan_ns),
            exec_ns: std::array::from_fn(|m| {
                std::array::from_fn(|o| self.exec_ns[m][o].merge(&other.exec_ns[m][o]))
            }),
            e2e_ns: self.e2e_ns.merge(&other.e2e_ns),
            slow_queries: self.slow_queries + other.slow_queries,
        }
    }
}

/// The pending result of a submitted query.
///
/// A server's ticket carries the handle that submitted it: waiting on it
/// runs the request on the waiting thread when no worker has popped it yet
/// (see [`Ticket::wait`]). A server answers with node ids; the ticket names
/// them on the thread that waits, so each name is allocated where it is
/// read and freed.
///
/// Dropping a ticket unwaited is fine: the query still runs, its answer is
/// discarded, and its work still warms the shared cache. If its submit
/// woke no worker, the drop wakes one for it.
///
/// A wait that finds its answer already sent takes it without parking, and
/// its sender made no wake-up call; a wait that parks is marked parked in
/// the reply slot first, so the sender wakes it exactly once.
///
/// A submitted request runs exactly once, at the earliest of: its ticket's
/// [`Ticket::wait`] or [`Ticket::wait_timeout`]; its ticket being dropped;
/// any later submit that finds a request queued; the drain of
/// [`Server::shutdown`]. So a lone request whose ticket is held, neither
/// waited on nor dropped, with no other traffic, stays queued until one of
/// those comes (see [`ServerHandle::submit`]).
pub struct Ticket {
    state: TicketState,
    /// Set when the submit woke no worker, leaving the request to this
    /// ticket's wait: dropped unwaited instead, the ticket wakes one.
    wake_on_drop: bool,
}

enum TicketState {
    /// Answered through the slot. A server's tickets carry the handle that
    /// submitted them, whose lane the request sits in and whose network
    /// names an answer of node ids; a remote client's (whose answers
    /// arrive named, and which have no queue) do not.
    Pending(Arc<ReplySlot>, Option<ServerHandle>),
    /// Refused before reaching the queue (shutdown, overload, or an
    /// unknown dataset at a router); resolves immediately to this error.
    Refused(QueryError),
}

impl Ticket {
    pub(crate) fn refused(err: QueryError) -> Ticket {
        Ticket {
            state: TicketState::Refused(err),
            wake_on_drop: false,
        }
    }

    /// A pending ticket and the sender that resolves it — held by the
    /// request here, by the link that owes the answer in the remote
    /// transport. `home` is the handle whose lane the request is pushed
    /// into; a sender that only ever sends named answers has none.
    pub(crate) fn pending(home: Option<ServerHandle>) -> (ReplySender, Ticket) {
        let slot = Arc::new(ReplySlot {
            state: Mutex::default(),
            filled: Condvar::new(),
            #[cfg(test)]
            notifies: AtomicUsize::new(0),
        });
        let sender = ReplySender {
            slot: Arc::clone(&slot),
            answer: Err(QueryError::Canceled),
        };
        let state = TicketState::Pending(slot, home);
        let ticket = Ticket {
            state,
            wake_on_drop: false,
        };
        (sender, ticket)
    }

    /// Take the answer out of the slot, blocking until it arrives — for at
    /// most `timeout` when one is given, then [`QueryError::TimedOut`].
    /// With `run_own`, a request still in its lane is first taken out and
    /// run on this thread ([`ServerHandle::run_own`]), which fills the
    /// slot before the wait. A wait that finds no answer marks the slot
    /// parked before it parks, so the sender wakes it, and clears the mark
    /// once it is awake. The slot's lock is released before this returns:
    /// nothing the caller does with the answer runs under it. Also returns
    /// the ticket's handle, for naming.
    fn take(mut self, timeout: Option<Duration>, run_own: bool) -> (Answer, Option<ServerHandle>) {
        // what this ticket's drop then finds is refused: a ticket consumed
        // by a wait wakes nobody
        let state = std::mem::replace(&mut self.state, TicketState::Refused(QueryError::Canceled));
        let (slot, home) = match state {
            TicketState::Pending(slot, home) => (slot, home),
            TicketState::Refused(err) => return (Err(err), None),
        };
        if let (true, Some(home)) = (run_own, &home) {
            home.run_own(&slot);
        }
        let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.answer.is_none() {
            state.parked = true;
            let unanswered = |s: &mut SlotState| s.answer.is_none();
            state = match timeout {
                None => slot
                    .filled
                    .wait_while(state, unanswered)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(timeout) => {
                    slot.filled
                        .wait_timeout_while(state, timeout, unanswered)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            state.parked = false;
        }
        let answer = state.answer.take();
        (answer.unwrap_or(Err(QueryError::TimedOut)), home)
    }

    /// Block for the answer as it was sent, unnamed — for a caller that
    /// writes names straight from the network, as a shard's connection
    /// does. `timeout` as in [`Ticket::wait_timeout`], `None` for
    /// [`Ticket::wait`]. Unlike those, it never runs the request on this
    /// thread: a connection admits a pipelined burst before it waits on
    /// any of it, so that the burst rides the workers' batches, each
    /// connection on its own fairness lane — one left to the workers
    /// ([`ServerHandle::leave_to_workers`]), whose every push wakes one.
    pub(crate) fn wait_resolved(self, timeout: Option<Duration>) -> Answer {
        self.take(timeout, false).0
    }

    /// The answer taken with `timeout`, run here if no worker has it, and
    /// named on this thread.
    fn wait_named(self, timeout: Option<Duration>) -> Result<QueryOutput, QueryError> {
        let (answer, home) = self.take(timeout, true);
        Ok(match answer? {
            Output::Named(out) => out,
            // Naming cannot panic: every id is a row or column index of a
            // matrix over this network whose dimension is the answer
            // type's node count.
            Output::Ids(ids) => ids.named(
                &home
                    .expect("only a server answers ids, and its tickets carry its handle")
                    .shared
                    .hin,
            ),
        })
    }

    /// Block until the query's result arrives.
    ///
    /// If no worker has popped the request yet, the waiting thread takes it
    /// out of the queue and runs it itself, through the same path a worker
    /// runs a popped batch on (deadline sweep, panic containment, counters,
    /// stage timings, slow-query capture); it counts in
    /// [`ServerStats::waiter_runs`]. A request a worker already holds is
    /// waited for. Either way it runs exactly once.
    ///
    /// Returns [`QueryError::Canceled`] when the server shut down before
    /// this query was answered, [`QueryError::Overloaded`] when admission
    /// control shed it.
    pub fn wait(self) -> Result<QueryOutput, QueryError> {
        self.wait_named(None)
    }

    /// Block for at most `timeout`, then give up with
    /// [`QueryError::TimedOut`] — the bounded-latency alternative to
    /// [`Ticket::wait`] for callers that must not hang on a wedged or
    /// deeply queued request. Giving up abandons only this wait: the query
    /// still executes, its work still warms the shared cache, and its
    /// result is discarded on arrival.
    ///
    /// Like [`Ticket::wait`], this runs a request no worker has popped yet
    /// on the waiting thread. The bound covers waiting for *another*
    /// thread, not that run: a run the waiting thread performs itself is
    /// not cut short (a propagated deadline still sheds it unexecuted, see
    /// [`ServerHandle::submit_with_deadline`]), and it includes the
    /// slow-query capture that follows a slow answer.
    pub fn wait_timeout(self, timeout: Duration) -> Result<QueryOutput, QueryError> {
        self.wait_named(Some(timeout))
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if let (true, TicketState::Pending(_, Some(home))) = (self.wake_on_drop, &self.state) {
            home.shared.queue.nudge();
        }
    }
}

/// A cloneable submission handle — one fairness lane.
///
/// Each call to [`Server::handle`] opens a *new* client lane in the fair
/// queue; *cloning* a handle shares its lane. Give each logical client its
/// own handle: every pop round-robins across lanes, so a client
/// flooding its lane delays its own tail, never another client's.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    client: u64,
    /// This lane's waiters never run its requests (a shard connection's):
    /// its every submit wakes a worker.
    left_to_workers: bool,
}

impl ServerHandle {
    /// Enqueue a query; the returned [`Ticket`] resolves to its result.
    ///
    /// Admission control applies here: at the configured
    /// [`ServeConfig::queue_depth`], either this ticket resolves
    /// immediately to [`QueryError::Overloaded`] (this lane is the
    /// fattest) or the newest request of the fattest lane is displaced
    /// and *its* ticket resolves `Overloaded` instead. After
    /// [`Server::shutdown`] the ticket resolves to
    /// [`QueryError::Canceled`].
    ///
    /// A submit wakes a parked worker only when no waiting thread will run
    /// the request: when the queue already holds a request. A request
    /// submitted onto an empty queue is left to its ticket's wait, which
    /// runs it on the waiting thread with no cross-thread wake-up. So the
    /// request runs exactly once, at the earliest of:
    ///
    /// * its ticket's [`Ticket::wait`] or [`Ticket::wait_timeout`];
    /// * its ticket being dropped unwaited, which wakes a worker for it;
    /// * any later submit that finds a request queued, because the worker
    ///   it wakes pops until the queue is empty before it parks again;
    /// * the drain of [`Server::shutdown`].
    ///
    /// A lone request whose ticket is held, never waited on and never
    /// dropped, with no other traffic, stays queued until one of those.
    pub fn submit(&self, query: impl Into<String>) -> Ticket {
        self.submit_inner(query.into(), None)
    }

    /// [`ServerHandle::submit`] with a deadline the pipeline honors.
    ///
    /// Where [`Ticket::wait_timeout`] only bounds the *wait* — the expired
    /// request stays in flight and still burns a worker — this propagates
    /// the deadline into the pipeline: a request whose deadline passes
    /// while it is still queued is shed with [`QueryError::TimedOut`]
    /// before execution and counted as [`ServerStats::shed_expired`].
    /// Pair it with `wait_timeout(ttl)` for an end-to-end latency bound
    /// that does not leave zombie work behind.
    pub fn submit_with_deadline(&self, query: impl Into<String>, ttl: Duration) -> Ticket {
        let deadline = Instant::now().checked_add(ttl);
        self.submit_inner(query.into(), deadline)
    }

    fn submit_inner(&self, query: String, deadline: Option<Instant>) -> Ticket {
        let t0 = Instant::now();
        let (reply, mut ticket) = Ticket::pending(Some(self.clone()));
        let req = Request {
            query,
            reply,
            queued_at: t0,
            deadline,
        };
        let push = self
            .shared
            .queue
            .push(self.client, req, self.left_to_workers);
        if let (Some(tel), Push::Queued { .. } | Push::Displaced(_)) =
            (&self.shared.telemetry, &push)
        {
            // admitted (possibly by displacing someone else) — time spent
            // reaching that decision is the admission stage
            tel.stages.mine().admission.record_duration(t0.elapsed());
        }
        match push {
            Push::Queued { woke } => {
                ticket.wake_on_drop = !woke;
                ticket
            }
            Push::Shed => {
                self.shared
                    .counters
                    .mine()
                    .shed
                    .fetch_add(1, Ordering::Relaxed);
                Ticket::refused(QueryError::Overloaded)
            }
            Push::Displaced(victim) => {
                // admitted at the cap by displacing the tail of the
                // fattest lane; the flooder's ticket resolves Overloaded
                self.shared
                    .counters
                    .mine()
                    .shed
                    .fetch_add(1, Ordering::Relaxed);
                victim.reply.send(Err(QueryError::Overloaded));
                ticket
            }
            Push::Closed => Ticket::refused(QueryError::Canceled),
        }
    }

    /// Take the request answering through `slot` out of this lane, if no
    /// worker has popped it, and run it on this thread through [`serve`]:
    /// a batch of one, queued until now. The run is counted in
    /// [`WaiterRuns`] from before the take to after the engine is let go.
    fn run_own(&self, slot: &Arc<ReplySlot>) {
        let shared = &*self.shared;
        let _run = shared.runs.enter();
        let Some(req) = shared
            .queue
            .take(self.client, |r| Arc::ptr_eq(&r.reply.slot, slot))
        else {
            return; // a worker holds it, or it was displaced: wait for it
        };
        let popped = Instant::now();
        // Cannot fail: the server owns the engine until its shutdown has
        // waited out this run. Were it gone, dropping the request would
        // answer it Canceled.
        let Some(engine) = shared.engine.upgrade() else {
            return;
        };
        shared
            .counters
            .mine()
            .waiter_runs
            .fetch_add(1, Ordering::Relaxed);
        serve(&engine, shared, vec![req], popped);
    }

    /// This handle's lane, marked as one whose waiters never run its
    /// requests, so that its every submit wakes a worker: a shard
    /// connection waits only through [`Ticket::wait_resolved`].
    pub(crate) fn leave_to_workers(mut self) -> ServerHandle {
        self.left_to_workers = true;
        self
    }

    /// The newest captured slow queries, oldest first. Empty when
    /// telemetry is disabled. Stays readable after [`Server::shutdown`]
    /// through handles taken earlier — and since a capture lands *after*
    /// its query's reply is sent (the client never waits on its own
    /// autopsy), a live read may trail an answer by a moment; a
    /// post-shutdown read sees every capture.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared
            .telemetry
            .as_ref()
            .map(|t| t.slow.entries())
            .unwrap_or_default()
    }
}

/// A running query server over one dataset: an admission-controlled fair
/// request queue and a worker pool that pops micro-batches from it, sharing
/// one [`Engine`] (and therefore one sharded, bounded, work-deduplicating
/// commuting-matrix cache).
pub struct Server {
    handle: ServerHandle,
    engine: Arc<Engine>,
    shared: Arc<Shared>,
    workers: usize,
    /// Outcome of the [`ServeConfig::warm_start`] restore, when one ran.
    warm_import: Option<SnapshotImport>,
    /// The worker handles; drained by shutdown/Drop.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn the worker pool over `hin`. Nothing is buffered between
    /// admission and a worker, so un-started work — and the memory it holds
    /// — is bounded by `queue_depth + workers × batch_max`.
    ///
    /// With [`ServeConfig::warm_start`] set, the snapshot is restored into
    /// the engine *before* any worker thread exists, so the first admitted
    /// query already sees the warm cache.
    pub fn start(hin: Arc<Hin>, config: ServeConfig) -> Server {
        let engine = Arc::new(Engine::with_config(
            Arc::clone(&hin),
            config.cache,
            config.exec,
        ));
        let warm_import = config.warm_start.as_ref().map(|s| engine.restore(s));
        let n_workers = config.workers.max(1);
        let batch_max = config.batch_max.max(1);
        let shared = Arc::new(Shared {
            queue: FairQueue::new(config.queue_depth),
            hin,
            engine: Arc::downgrade(&engine),
            runs: WaiterRuns::default(),
            counters: Striped::new(Counters::default),
            next_client: AtomicU64::new(1),
            telemetry: config.telemetry.enabled.then(|| Telemetry {
                stages: Striped::new(StageHists::new),
                slow: RingLog::new(config.telemetry.slow_log),
                slow_threshold: config.telemetry.slow_query,
            }),
        });

        let threads = (0..n_workers)
            .map(|w| {
                let engine = Arc::clone(&engine);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hin-serve-worker-{w}"))
                    .spawn(move || worker_loop(&engine, &shared, batch_max, n_workers))
                    .expect("spawn worker thread")
            })
            .collect();

        Server {
            handle: ServerHandle {
                shared: Arc::clone(&shared),
                client: 0,
                left_to_workers: false,
            },
            engine,
            shared,
            workers: n_workers,
            warm_import,
            threads,
        }
    }

    /// Outcome of the [`ServeConfig::warm_start`] restore: `None` when no
    /// snapshot was configured, otherwise how many entries loaded vs were
    /// rejected. A warm start that loaded nothing (`loaded == 0` —
    /// mismatched dataset, or a fingerprint mismatch) means this server
    /// is effectively cold; check this at the call site instead of
    /// discovering it from first-query latency under live traffic.
    pub fn warm_import(&self) -> Option<SnapshotImport> {
        self.warm_import
    }

    /// A submission handle on a **fresh fairness lane**. Call once per
    /// logical client (and clone the handle within that client): lanes are
    /// drained round-robin, so handles — not threads — are the unit the
    /// scheduler is fair across.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            client: self.shared.next_client.fetch_add(1, Ordering::Relaxed),
            left_to_workers: false,
        }
    }

    /// Enqueue one query on the server's own lane (see
    /// [`ServerHandle::submit`]).
    pub fn submit(&self, query: impl Into<String>) -> Ticket {
        self.handle.submit(query)
    }

    /// Enqueue with a pipeline-honored deadline on the server's own lane
    /// (see [`ServerHandle::submit_with_deadline`]).
    pub fn submit_with_deadline(&self, query: impl Into<String>, ttl: Duration) -> Ticket {
        self.handle.submit_with_deadline(query, ttl)
    }

    /// Submit a whole batch and block for all results, in order — the
    /// concurrent counterpart of [`Engine::execute_many`].
    pub fn execute_many<S: AsRef<str>>(
        &self,
        queries: &[S],
    ) -> Vec<Result<QueryOutput, QueryError>> {
        let tickets: Vec<Ticket> = queries.iter().map(|q| self.submit(q.as_ref())).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// The shared engine (for plan inspection or direct in-thread queries).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Requests currently queued awaiting a worker (racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Export the engine's hottest cache entries, stopping at
    /// `budget_bytes` of matrix payload (`None` = everything). Safe on a
    /// live server: the export takes the same shard read locks the
    /// workers take — this is what [`crate::Router::checkpoint`] calls
    /// while traffic flows.
    pub fn snapshot(&self, budget_bytes: Option<usize>) -> CacheSnapshot {
        self.engine.snapshot(budget_bytes)
    }

    /// The newest captured slow queries, oldest first; empty when
    /// telemetry is disabled (see [`TelemetryConfig::slow_query`]).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.handle.slow_queries()
    }

    /// Current lifetime statistics.
    pub fn stats(&self) -> ServerStats {
        let stripes = self.shared.counters.all();
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let sum =
            |counter: fn(&Counters) -> &AtomicU64| stripes.iter().map(|c| read(counter(c))).sum();
        let engine = self.engine.stats();
        let cache = engine.cache;
        let mut stats = ServerStats {
            served: sum(|c| &c.served),
            errors: sum(|c| &c.errors),
            shed: sum(|c| &c.shed),
            shed_expired: sum(|c| &c.shed_expired),
            batches: sum(|c| &c.batches),
            max_batch: stripes
                .iter()
                .map(|c| read(&c.max_batch))
                .max()
                .unwrap_or(0),
            waiter_runs: sum(|c| &c.waiter_runs),
            worker_wakes: self.shared.queue.wakes(),
            workers: self.workers,
            queue_depth: self.shared.queue.depth(),
            lane_depths: self.shared.queue.lane_depths(),
            cache_hits: cache.hits,
            cache_symmetry_hits: cache.symmetry_hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_inserts_refused: cache.inserts_refused,
            cache_refused_bytes: cache.refused_bytes,
            anchored_fast_paths: engine.anchored_fast_paths,
            promotions: engine.promotions,
            promotions_refused: engine.promotions_refused,
            factor_promotions: engine.factor_promotions,
            cache_coalesced_waits: cache.coalesced_waits,
            cache_dup_computes: cache.dup_computes,
            cache_warm_loaded: cache.warm_loaded,
            cache_warm_rejected: cache.warm_rejected,
            cache_warm_view_backed: cache.warm_view_backed,
            cache_restore_verified: cache.restore_verified,
            cache_restore_corrupt: cache.restore_corrupt,
            cache_diagonal_builds: cache.diagonal_builds,
            normalizer_memo_hits: engine.normalizer_memo_hits,
            cache_len: cache.len,
            cache_bytes: cache.bytes,
            memo_hits: engine.memo_hits,
            cache_memo_rows: cache.memo_rows,
            cache_memo_bytes: cache.memo_bytes,
            ..ServerStats::default()
        };
        if let Some(tel) = &self.shared.telemetry {
            stats.admission_ns = tel.merged(|s| &s.admission);
            stats.queue_wait_ns = tel.merged(|s| &s.queue_wait);
            stats.dispatch_ns = tel.merged(|s| &s.dispatch);
            stats.plan_ns = tel.merged(|s| &s.plan);
            stats.exec_ns =
                std::array::from_fn(|m| std::array::from_fn(|o| tel.merged(|s| &s.exec[m][o])));
            stats.e2e_ns = tel.merged(|s| &s.e2e);
            stats.slow_queries = tel.slow.total();
        }
        stats
    }

    /// Stop accepting queries, drain everything in flight, join all
    /// threads, wait out the requests waiters are running on their own
    /// threads, and return the final statistics: they count every
    /// admitted request.
    pub fn shutdown(mut self) -> ServerStats {
        self.join_threads();
        self.stats()
    }

    /// [`Server::shutdown`], also handing back the drained cache as a
    /// snapshot (`budget_bytes` as in [`Server::snapshot`]) — the failover
    /// hand-off: everything the dying server's in-flight queries warmed is
    /// in the snapshot, ready for a replacement's
    /// [`ServeConfig::warm_start`].
    pub fn retire(mut self, budget_bytes: Option<usize>) -> (ServerStats, CacheSnapshot) {
        self.join_threads();
        let snapshot = self.engine.snapshot(budget_bytes);
        (self.stats(), snapshot)
    }

    fn join_threads(&mut self) {
        // Closing the queue rejects later submits; everything already
        // admitted is still popped (or taken by its waiter) and answered:
        // every worker keeps draining and exits on closed-and-empty. A
        // waiter's run entered before its take, so once the queue is
        // drained every run that took something is counted, and waiting
        // them out leaves nothing admitted unanswered.
        self.shared.queue.close();
        for w in self.threads.drain(..) {
            let _ = w.join();
        }
        self.shared.runs.wait_out();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// What one batch member's execution yields: its answer and its trace.
type Traced = (Result<IdOutput, QueryError>, QueryTrace);

/// Run one batch's execution with its panic contained: a batch that panics
/// its worker (an engine bug, a poisoned lock) has each of its `members`
/// answered [`QueryError::Internal`] and the worker keeps serving — one
/// poisoned batch must not silently retire 1/N of the pool for the rest of
/// the server's life.
fn contain_panic(members: usize, run: impl FnOnce() -> Vec<Traced>) -> Vec<Traced> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        // `&*`: a `&Box<dyn Any>` would itself coerce to the `dyn Any`
        let internal = Err(QueryError::Internal(panic_message(&*payload)));
        vec![(internal, QueryTrace::default()); members]
    })
}

/// Pop micro-batches from the fair queue (this worker's share of the
/// backlog, at most `batch_max`, drawn round-robin across client lanes)
/// and [`serve`] each, until the queue is closed and drained. A request
/// whose waiter took it back first is simply not in any pop.
fn worker_loop(engine: &Engine, shared: &Shared, batch_max: usize, workers: usize) {
    loop {
        let batch = shared.queue.pop_share(batch_max, workers);
        if batch.is_empty() {
            break; // closed and fully drained
        }
        serve(engine, shared, batch, Instant::now());
    }
}

/// Run a batch taken off the queue at `popped`: a worker's popped
/// micro-batch, or the one request a waiter took back (see
/// [`Ticket::wait`]). The one execution path of a server.
///
/// Expired requests are shed first. The rest run as a loop of
/// [`Engine::execute_ids_traced`], one member at a time, inside one
/// [`contain_panic`]: a panic answers the whole batch
/// [`QueryError::Internal`]. Nothing is named here: each answer goes back
/// as node ids, and the ticket names them on the thread that waits (a
/// shard's connection writes the names into its frame instead). Counters
/// and stage histograms are recorded before each reply, the slow-query
/// capture after it.
fn serve(engine: &Engine, shared: &Shared, mut batch: Vec<Request>, popped: Instant) {
    let counters = shared.counters.mine();
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters
        .max_batch
        .fetch_max(batch.len() as u64, Ordering::Relaxed);
    // Deadline shedding: a request whose propagated deadline passed while
    // it sat in the queue is answered TimedOut *without* executing — its
    // client already gave up (`wait_timeout` paired with
    // `submit_with_deadline`), so running it would burn a thread to
    // produce a discarded answer and delay live requests behind it.
    let expired = |r: &Request| r.deadline.is_some_and(|d| d <= popped);
    if batch.iter().any(expired) {
        let (dead, live): (Vec<Request>, Vec<Request>) = batch.into_iter().partition(expired);
        for req in dead {
            counters.shed_expired.fetch_add(1, Ordering::Relaxed);
            req.reply.send(Err(QueryError::TimedOut));
        }
        batch = live;
        if batch.is_empty() {
            return;
        }
    }
    // taken → execution starts: the sweep above, on this thread
    let dispatch = popped.elapsed();
    // The engine has one flow and it always traces; with telemetry off
    // the traces are simply not recorded anywhere below.
    let outputs = contain_panic(batch.len(), || {
        #[cfg(test)]
        tests::fault_hook(&batch);
        batch
            .iter()
            .map(|r| engine.execute_ids_traced(&r.query))
            .collect()
    });
    for (req, (result, trace)) in batch.into_iter().zip(outputs) {
        counters.served.fetch_add(1, Ordering::Relaxed);
        if result.is_err() {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let stage = shared.telemetry.as_ref().map(|tel| {
            let queue_wait = popped.duration_since(req.queued_at);
            let total = req.queued_at.elapsed();
            let s = tel.stages.mine();
            s.queue_wait.record_duration(queue_wait);
            s.dispatch.record_duration(dispatch);
            s.plan.record(trace.plan_ns);
            s.exec[trace.mode.index()][trace.outcome.index()].record(trace.exec_ns);
            s.e2e.record_duration(total);
            (queue_wait, total)
        });
        req.reply.send(result.map(Output::Ids));
        // Slow-query capture happens *after* the reply: re-deriving the
        // EXPLAIN plan costs a parse+resolve+plan, and an already-slow
        // query's client should not wait on its own autopsy — unless the
        // client's own thread is the one running it, which then returns
        // one re-plan later.
        if let (Some(tel), Some((queue_wait, total))) = (&shared.telemetry, stage) {
            if total >= tel.slow_threshold {
                let plan = engine
                    .plan(&req.query)
                    .map(|p| p.to_string())
                    .unwrap_or_default();
                tel.slow.push(SlowQuery {
                    query: req.query,
                    plan,
                    mode: trace.mode.as_str(),
                    outcome: trace.outcome.as_str(),
                    queue_wait_ns: duration_ns(queue_wait),
                    dispatch_ns: duration_ns(dispatch),
                    plan_ns: trace.plan_ns,
                    exec_ns: trace.exec_ns,
                    total_ns: duration_ns(total),
                });
            }
        }
    }
}

/// Duration as saturating nanoseconds.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Best-effort text of a worker panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "query execution panicked".to_string())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hin_core::HinBuilder;

    /// A query that panics the worker executing its batch.
    const POISON: &str = "poison the batch";
    /// A query whose batch blocks until [`STALL_GATE`] can be taken.
    pub(crate) const STALL: &str = "stall the worker";
    pub(crate) static STALL_GATE: Mutex<()> = Mutex::new(());
    /// A second, independent pin: a batch holding it blocks until
    /// [`HOLD_GATE`] can be taken.
    pub(crate) const HOLD: &str = "hold the worker";
    pub(crate) static HOLD_GATE: Mutex<()> = Mutex::new(());

    /// Runs inside the worker's contained execution, ahead of the engine:
    /// the only way to make a batch panic, or a worker stay busy, on cue.
    pub(super) fn fault_hook(batch: &[Request]) {
        let holds = |q: &str| batch.iter().any(|r| r.query == q);
        assert!(!holds(POISON), "poisoned batch");
        if holds(STALL) {
            drop(STALL_GATE.lock().unwrap());
        }
        if holds(HOLD) {
            drop(HOLD_GATE.lock().unwrap());
        }
    }

    /// papers p0{a0,a1}@v0, p1{a1}@v0, p2{a2}@v1 — the metapath fixture.
    fn bib() -> Arc<Hin> {
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
        Arc::new(b.build())
    }

    #[test]
    fn serves_results_identical_to_direct_execution() {
        let hin = bib();
        let reference = Engine::from_arc(Arc::clone(&hin));
        let server = Server::start(
            Arc::clone(&hin),
            ServeConfig {
                workers: 3,
                ..ServeConfig::default()
            },
        );
        let queries = [
            "pathsim author-paper-author from a0",
            "pathcount author-paper-venue from a1",
            "rank venue-paper-author limit 2",
            "neighbors written_by from p0",
            "neighbors author-paper from a1", // no limit: every name
            "pathcount venue-paper-author from v0", // start and end types differ
            "rank author-paper-venue",
            "pathsim author-paper-author from nobody", // an error answer
            "not even a query",                        // a parse error
        ];
        let got = server.execute_many(&queries);
        for (q, result) in queries.iter().zip(got) {
            assert_eq!(result, reference.execute(q), "served result differs: {q}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, queries.len() as u64);
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn per_query_errors_do_not_poison_the_pool() {
        let server = Server::start(bib(), ServeConfig::default());
        let bad = server.submit("pathsim author-paper-author from nobody");
        let worse = server.submit("topk 0 author-paper-author from a0");
        let good = server.submit("pathsim author-paper-author from a0");
        assert!(bad.wait().is_err());
        assert!(matches!(worse.wait(), Err(QueryError::Parse(_))));
        assert_eq!(good.wait().unwrap().items[0].0, "a1");
        let stats = server.shutdown();
        assert_eq!(stats.served, 3);
        assert_eq!(stats.errors, 2);
    }

    #[test]
    fn submit_after_shutdown_is_rejected_not_hung() {
        let server = Server::start(bib(), ServeConfig::default());
        let handle = server.handle();
        let _ = server.shutdown();
        assert!(matches!(
            handle.submit("rank venue-paper-author").wait(),
            Err(QueryError::Canceled)
        ));
    }

    #[test]
    fn many_client_threads_share_one_server() {
        let hin = bib();
        let reference = Engine::from_arc(Arc::clone(&hin));
        let want = reference
            .execute("pathsim author-paper-venue-paper-author from a0")
            .unwrap();
        let server = Server::start(
            hin,
            ServeConfig {
                workers: 4,
                batch_max: 8,
                cache: CacheConfig::bounded(64 * 1024),
                ..ServeConfig::default()
            },
        );
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let h = server.handle();
                std::thread::spawn(move || {
                    (0..20)
                        .map(|_| {
                            h.submit("pathsim author-paper-venue-paper-author from a0")
                                .wait()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for result in h.join().expect("client thread") {
                assert_eq!(result.as_ref().unwrap(), &want);
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 120);
        assert!(stats.cache_hits > 0, "repeats must be cache hits");
        assert_eq!(
            stats.cache_dup_computes, 0,
            "identical in-flight queries must never compute one key twice"
        );
    }

    /// Start a server over [`bib`] and give its workers time to park. A
    /// worker still starting up is awake, and an awake worker pops whatever
    /// it finds queued, so a test of who is woken for what starts here.
    fn parked(config: ServeConfig) -> Server {
        let server = Server::start(bib(), config);
        std::thread::sleep(Duration::from_millis(50));
        server
    }

    /// Poll `server`'s live stats until `done` holds, failing after ten
    /// seconds rather than hanging on a wake that never came.
    fn eventually(server: &Server, done: impl Fn(&ServerStats) -> bool) -> ServerStats {
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = server.stats();
            if done(&stats) {
                return stats;
            }
            assert!(Instant::now() < give_up, "never came: {stats:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn dropping_a_ticket_does_not_wedge_the_server() {
        let server = parked(ServeConfig::default());
        // a lone request's submit wakes nobody; its ticket dropped
        // unwaited wakes a worker, which serves it while the server is live
        drop(server.submit("pathsim author-paper-author from a0"));
        let live = eventually(&server, |s| s.served == 1);
        assert_eq!((live.waiter_runs, live.worker_wakes), (0, 1));
        assert_eq!(live.queue_depth, 0);
        let follow_up = server.submit("rank venue-paper-author").wait();
        assert!(follow_up.is_ok());
        let stats = server.shutdown();
        assert_eq!(stats.served, 2, "dropped ticket's query still executed");
    }

    #[test]
    fn a_lone_held_request_waits_for_its_waiter() {
        let server = parked(ServeConfig::default());
        let held = server.submit("pathsim author-paper-author from a0");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.queue_depth(), 1, "no worker was woken for it");
        assert_eq!(held.wait().unwrap().items[0].0, "a1");
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.waiter_runs), (1, 1));
        assert_eq!(stats.worker_wakes, 0);
    }

    #[test]
    fn two_unwaited_submits_drain_with_no_waiter() {
        let server = parked(ServeConfig::default());
        // the second submit finds the first queued: it wakes a worker,
        // which pops until the queue is empty
        let held = [
            server.submit("pathsim author-paper-author from a0"),
            server.submit("rank venue-paper-author"),
        ];
        let live = eventually(&server, |s| s.served == 2);
        assert_eq!((live.waiter_runs, live.worker_wakes), (0, 1));
        assert_eq!(live.queue_depth, 0);
        for t in held {
            assert!(t.wait().is_ok());
        }
        assert_eq!(server.shutdown().waiter_runs, 0);
    }

    #[test]
    fn overload_sheds_with_overloaded_error() {
        // one worker + a depth cap of 1: a burst must overflow admission
        let server = Server::start(
            bib(),
            ServeConfig {
                workers: 1,
                batch_max: 1,
                queue_depth: Some(1),
                ..ServeConfig::default()
            },
        );
        let burst = 200;
        let tickets: Vec<Ticket> = (0..burst)
            .map(|_| server.submit("pathsim author-paper-venue-paper-author from a0"))
            .collect();
        let mut ok = 0u64;
        let mut shed = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(_) => ok += 1,
                Err(QueryError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected error under overload: {e}"),
            }
        }
        assert!(shed > 0, "a {burst}-deep burst over a cap of 1 must shed");
        let stats = server.shutdown();
        assert_eq!(stats.served, ok);
        assert_eq!(stats.shed, shed);
        assert_eq!(ok + shed, burst);
    }

    #[test]
    fn wait_timeout_bounds_latency_and_reports_timeout() {
        let server = Server::start(bib(), ServeConfig::default());
        // a satisfiable query resolves well within a generous timeout
        let quick = server
            .submit("pathsim author-paper-author from a0")
            .wait_timeout(Duration::from_secs(30));
        assert_eq!(quick.unwrap().items[0].0, "a1");

        // an immediately refused ticket also resolves through wait_timeout
        let handle = server.handle();
        let _ = server.shutdown();
        assert!(matches!(
            handle
                .submit("rank venue-paper-author")
                .wait_timeout(Duration::from_secs(30)),
            Err(QueryError::Canceled)
        ));
    }

    #[test]
    fn one_shot_reply_resolves_timed_out_canceled_or_answered() {
        // never answered: the wait is bounded, and says so
        let (wedged, ticket) = Ticket::pending(None);
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(20)),
            Err(QueryError::TimedOut)
        ));
        // a sender outliving its ticket is a silent no-op
        wedged.send(Err(QueryError::Overloaded));

        // a sender dropped unsent cancels, through either wait
        let (unsent, ticket) = Ticket::pending(None);
        drop(unsent);
        assert!(matches!(ticket.wait(), Err(QueryError::Canceled)));
        let (unsent, ticket) = Ticket::pending(None);
        drop(unsent);
        assert!(matches!(
            ticket.wait_timeout(Duration::from_secs(30)),
            Err(QueryError::Canceled)
        ));

        // an answer sent from another thread wakes a blocked waiter
        let (reply, ticket) = Ticket::pending(None);
        let waiter = std::thread::spawn(move || ticket.wait());
        reply.send(Err(QueryError::Internal("answered".to_string())));
        assert_eq!(
            waiter.join().expect("waiter thread"),
            Err(QueryError::Internal("answered".to_string()))
        );
    }

    #[test]
    fn shutdown_answers_everything_admitted_across_the_whole_pool() {
        let server = Server::start(
            bib(),
            ServeConfig {
                workers: 4,
                batch_max: 8,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..500)
            .map(|_| server.submit("pathsim author-paper-author from a0"))
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats.served, 500, "close drains, it does not drop");
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.batches >= 1);
        assert!(stats.max_batch <= 8, "a pop never exceeds batch_max");
        for t in tickets {
            assert_eq!(t.wait().expect("answered, not canceled").items[0].0, "a1");
        }
    }

    #[test]
    fn unstarted_work_is_bounded_by_the_queue_depth() {
        let server = parked(ServeConfig {
            workers: 1,
            batch_max: 4,
            queue_depth: Some(8),
            ..ServeConfig::default()
        });
        // pin the only worker: the request submitted behind the stall
        // query finds it queued and wakes the worker, which pops both and
        // blocks on the gate this test holds
        let gate = STALL_GATE.lock().unwrap();
        let stalled = server.submit(STALL);
        drop(server.submit("rank venue-paper-author"));
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        // nothing stands between admission and that worker, so the queue's
        // cap is the cap on admitted-but-unstarted work
        let tickets: Vec<Ticket> = (0..40)
            .map(|_| server.submit("pathsim author-paper-author from a0"))
            .collect();
        let refused = |t: &Ticket| matches!(t.state, TicketState::Refused(QueryError::Overloaded));
        assert_eq!(tickets.iter().filter(|t| !refused(t)).count(), 8);
        assert_eq!(server.queue_depth(), 8);
        drop(gate);
        assert!(matches!(stalled.wait(), Err(QueryError::Parse(_))));
        let answered = tickets.into_iter().filter_map(|t| t.wait().ok()).count();
        assert_eq!(answered, 8, "everything admitted is served");
        let stats = server.shutdown();
        assert_eq!(stats.shed, 32, "the rest were refused at the door");
        assert_eq!(stats.served + stats.shed, 42);
    }

    #[test]
    fn a_panicking_batch_answers_internal_and_the_worker_serves_on() {
        // the containment itself: one Internal answer per member, carrying
        // the panic's message
        let contained = contain_panic(3, || panic!("kernel bug"));
        assert_eq!(contained.len(), 3);
        for (answer, _) in contained {
            assert_eq!(answer, Err(QueryError::Internal("kernel bug".to_string())));
        }

        // and in the loop: the pool's only worker survives a poisoned batch
        let server = Server::start(
            bib(),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        match server.submit(POISON).wait() {
            Err(QueryError::Internal(msg)) => assert!(msg.contains("poisoned batch")),
            other => panic!("a panicking batch produced {other:?}"),
        }
        let next = server.submit("pathsim author-paper-author from a0").wait();
        assert_eq!(next.unwrap().items[0].0, "a1");
        let stats = server.shutdown();
        assert_eq!(stats.served, 2);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn expired_deadline_is_shed_before_execution() {
        let server = Server::start(bib(), ServeConfig::default());
        // a zero TTL is already expired by the time any worker picks it
        // up: the pipeline must answer TimedOut without executing it
        let dead =
            server.submit_with_deadline("pathsim author-paper-author from a0", Duration::ZERO);
        assert!(matches!(dead.wait(), Err(QueryError::TimedOut)));
        // a generous TTL executes normally
        let live = server.submit_with_deadline(
            "pathsim author-paper-author from a0",
            Duration::from_secs(60),
        );
        assert_eq!(live.wait().unwrap().items[0].0, "a1");
        let stats = server.shutdown();
        assert_eq!(
            stats.shed_expired, 1,
            "expired request counted as shed_expired"
        );
        assert_eq!(stats.served, 1, "expired request never reached the engine");
        assert_eq!(stats.errors, 0);
    }

    /// Every cache and engine field of `server.stats()` against its source
    /// in `server.engine().stats()`, and the worker wakes against the
    /// queue's count, read back to back on an idle server; returns the
    /// source with each field's name.
    fn assert_copied(server: &Server) -> Vec<(&'static str, u64)> {
        let s = server.stats();
        let e = server.engine().stats();
        let c = e.cache;
        let pairs = [
            ("cache_hits", s.cache_hits, c.hits),
            (
                "cache_symmetry_hits",
                s.cache_symmetry_hits,
                c.symmetry_hits,
            ),
            ("cache_misses", s.cache_misses, c.misses),
            ("cache_evictions", s.cache_evictions, c.evictions),
            (
                "cache_inserts_refused",
                s.cache_inserts_refused,
                c.inserts_refused,
            ),
            (
                "cache_refused_bytes",
                s.cache_refused_bytes,
                c.refused_bytes,
            ),
            (
                "anchored_fast_paths",
                s.anchored_fast_paths,
                e.anchored_fast_paths,
            ),
            ("promotions", s.promotions, e.promotions),
            (
                "promotions_refused",
                s.promotions_refused,
                e.promotions_refused,
            ),
            (
                "factor_promotions",
                s.factor_promotions,
                e.factor_promotions,
            ),
            (
                "cache_coalesced_waits",
                s.cache_coalesced_waits,
                c.coalesced_waits,
            ),
            ("cache_dup_computes", s.cache_dup_computes, c.dup_computes),
            ("cache_warm_loaded", s.cache_warm_loaded, c.warm_loaded),
            (
                "cache_warm_rejected",
                s.cache_warm_rejected,
                c.warm_rejected,
            ),
            (
                "cache_warm_view_backed",
                s.cache_warm_view_backed,
                c.warm_view_backed,
            ),
            (
                "cache_restore_verified",
                s.cache_restore_verified,
                c.restore_verified,
            ),
            (
                "cache_restore_corrupt",
                s.cache_restore_corrupt,
                c.restore_corrupt,
            ),
            (
                "cache_diagonal_builds",
                s.cache_diagonal_builds,
                c.diagonal_builds,
            ),
            (
                "normalizer_memo_hits",
                s.normalizer_memo_hits,
                e.normalizer_memo_hits,
            ),
            ("cache_len", s.cache_len as u64, c.len as u64),
            ("cache_bytes", s.cache_bytes as u64, c.bytes as u64),
            ("memo_hits", s.memo_hits, e.memo_hits),
            (
                "cache_memo_rows",
                s.cache_memo_rows as u64,
                c.memo_rows as u64,
            ),
            (
                "cache_memo_bytes",
                s.cache_memo_bytes as u64,
                c.memo_bytes as u64,
            ),
            ("worker_wakes", s.worker_wakes, server.shared.queue.wakes()),
        ];
        pairs
            .into_iter()
            .map(|(name, copied, source)| {
                assert_eq!(copied, source, "{name}");
                (name, source)
            })
            .collect()
    }

    /// `Server::stats` copies its 24 cache and engine fields out of one
    /// `Engine::stats()` value by hand, and its worker wakes out of the
    /// queue. Drive what one worker can reach — hits, a symmetry hit,
    /// misses, an eviction and an oversize refusal under a one-slice
    /// budget, a warm restore, lazy runs, a promotion, a refused span's
    /// half materialized and a submit that finds a backlog — and hold each
    /// copy against its source: once right after the restore, once at the
    /// end.
    #[test]
    fn stats_copy_every_cache_and_engine_field() {
        let hin = bib();
        // `rank` materializes its span under any policy
        let bytes_of = |q: &str| {
            let engine = Engine::from_arc(Arc::clone(&hin));
            engine.execute(q).unwrap();
            engine.stats().cache.bytes
        };
        // a slice that holds author×venue alone: author×author is larger
        let budget = bytes_of("rank author-paper-venue");
        assert!(bytes_of("rank author-paper-author") > budget);
        // a warm image of venue×venue (fits) and author×author (rejected),
        // mounted from bytes: view-backed, and proved by the restore
        let donor = Engine::from_arc(Arc::clone(&hin));
        donor.execute("rank venue-paper-venue").unwrap();
        donor.execute("rank author-paper-author").unwrap();
        let image = CacheSnapshot::from_bytes(&donor.snapshot(None).to_bytes()).unwrap();
        let server = Server::start(
            hin,
            ServeConfig {
                workers: 1,
                cache: CacheConfig {
                    shards: 1,
                    byte_budget: Some(budget),
                },
                exec: ExecPolicy::promote_after(2),
                warm_start: Some(Arc::new(image)),
                telemetry: TelemetryConfig {
                    enabled: false,
                    ..TelemetryConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        let at_start = assert_copied(&server);
        // the oversize entry is refused before it is hashed
        assert!(
            at_start.contains(&("cache_restore_verified", 1)),
            "{at_start:?}"
        );

        let run = |q: &str| {
            server
                .submit(q)
                .wait()
                .unwrap_or_else(|e| panic!("{q}: {e}"));
        };
        run("rank venue-paper-venue"); // the restored entry: a hit
        run("pathsim venue-paper-venue from v0"); // reads it whole: a diagonal
        run("rank author-paper-venue"); // a miss, evicting venue×venue
        run("rank venue-paper-author"); // a symmetry hit on author×venue
        run("rank author-paper-author"); // a miss, refused at the door

        // lazy, never promoted: the span is known not to fit. The first
        // run stores its row; past ten results a read is never the row
        // memo's, so the deeper one propagates again and finds a1's
        // normalizer memoized
        run("pathsim author-paper-author from a0");
        run("pathsim author-paper-author from a0 limit 11");
        for _ in 0..2 {
            // lazy, then promoted on the second run
            run("pathcount venue-paper-venue from v1");
        }
        for a in 0..2 {
            // a span that does not fit, served through author×venue and
            // the venue→paper relation: the half heats, then materializes.
            // A refused row is stored, so each run reads a fresh anchor
            run(&format!("pathcount author-paper-venue-paper from a{a}"));
        }
        run("rank venue-paper-venue"); // its row sums again: a memo hit
        assert_eq!(server.stats().worker_wakes, 0, "each ran on its waiter");
        // the second submit finds the first queued and wakes the worker;
        // parse errors, so the cache reads stay as they were
        let pair = [server.submit("not a query"), server.submit("not a query")];
        for t in pair {
            assert!(matches!(t.wait(), Err(QueryError::Parse(_))));
        }

        let at_end = assert_copied(&server);
        // one worker never races another for a span, the image was not
        // damaged, and no computation bypasses the in-flight table
        let unreached = [
            "cache_coalesced_waits",
            "cache_restore_corrupt",
            "cache_dup_computes",
        ];
        for (name, value) in at_end {
            if !unreached.contains(&name) {
                assert!(value > 0, "{name} was not exercised");
            }
        }
    }

    /// Pin a [`one_worker`] server's only worker on [`STALL`]. Alone, the
    /// stall would wait for its own waiter, so `behind` is submitted after
    /// it: that submit finds a backlog and wakes the worker, which pops the
    /// stall alone (`batch_max` 1) and leaves `behind` queued. Returns both
    /// tickets once the worker holds the stall. The caller holds the gate.
    fn pin_the_worker(server: &Server, behind: impl FnOnce() -> Ticket) -> (Ticket, Ticket) {
        let stalled = server.submit(STALL);
        let behind = behind();
        while server.queue_depth() > 1 {
            std::thread::yield_now();
        }
        (stalled, behind)
    }

    fn one_worker() -> Server {
        Server::start(
            bib(),
            ServeConfig {
                workers: 1,
                batch_max: 1,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn a_waiter_runs_its_own_request_while_the_workers_are_busy() {
        let server = one_worker();
        let gate = STALL_GATE.lock().unwrap();
        let (stalled, second) = pin_the_worker(&server, || {
            server.submit("pathsim author-paper-author from a0")
        });
        // the only worker is pinned, so only the waiting thread can run
        // these: through wait, and through a wait_timeout far shorter
        // than nothing at all could satisfy from another thread
        assert_eq!(second.wait().unwrap().items[0].0, "a1");
        let third = server.submit("pathcount author-paper-venue from a1");
        let got = third.wait_timeout(Duration::from_millis(1)).unwrap();
        let want = Engine::from_arc(bib())
            .execute("pathcount author-paper-venue from a1")
            .unwrap();
        assert_eq!(got, want);
        let live = server.stats();
        assert_eq!(live.waiter_runs, 2);
        assert_eq!(live.served, 2, "the pinned request is not answered yet");
        drop(gate);
        assert!(matches!(stalled.wait(), Err(QueryError::Parse(_))));
        let stats = server.shutdown();
        assert_eq!(stats.served, 3);
        assert_eq!(stats.waiter_runs, 2);
        assert_eq!(stats.batches, 3, "a waiter's run is a batch of one");
        assert_eq!(stats.queue_wait_ns.count(), 3);
        assert_eq!(stats.e2e_ns.count(), 3);
    }

    /// The reply slot a pending ticket waits on.
    fn slot_of(ticket: &Ticket) -> Arc<ReplySlot> {
        match &ticket.state {
            TicketState::Pending(slot, _) => Arc::clone(slot),
            TicketState::Refused(err) => panic!("refused: {err}"),
        }
    }

    #[test]
    fn a_request_its_waiter_runs_wakes_nobody() {
        let server = parked(ServeConfig::default());
        for query in ["pathsim author-paper-author from a0", "not even a query"] {
            let ticket = server.submit(query);
            let slot = slot_of(&ticket);
            let got = ticket.wait();
            assert_eq!(got, Engine::from_arc(bib()).execute(query));
            assert_eq!(slot.notifies.load(Ordering::Relaxed), 0, "{query}");
        }
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.waiter_runs), (2, 2));
    }

    #[test]
    fn a_parked_waiter_is_woken_once_and_promptly() {
        let server = one_worker();
        let gate = STALL_GATE.lock().unwrap();
        let (stalled, behind) =
            pin_the_worker(&server, || server.submit("rank venue-paper-author"));
        let slot = slot_of(&stalled);
        // the worker holds the stall, so its waiter can only park
        let waiter = std::thread::spawn(move || stalled.wait());
        while !slot.state.lock().unwrap().parked {
            std::thread::yield_now();
        }
        drop(gate);
        let give_up = Instant::now() + Duration::from_secs(10);
        while !waiter.is_finished() {
            assert!(
                Instant::now() < give_up,
                "the parked waiter was never woken"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(waiter.join().unwrap(), Err(QueryError::Parse(_))));
        assert_eq!(slot.notifies.load(Ordering::Relaxed), 1);
        assert!(!slot.state.lock().unwrap().parked, "awake, it unparked");
        assert!(behind.wait().is_ok());
        // and one that gave up waiting is not woken when its answer lands
        let gate = STALL_GATE.lock().unwrap();
        let (stalled, behind) =
            pin_the_worker(&server, || server.submit("rank venue-paper-author"));
        let slot = slot_of(&stalled);
        let gave_up = stalled.wait_timeout(Duration::from_millis(1));
        assert!(matches!(gave_up, Err(QueryError::TimedOut)));
        drop(gate);
        assert!(behind.wait().is_ok());
        let stats = server.shutdown();
        assert_eq!(stats.served, 4);
        assert_eq!(slot.notifies.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_request_runs_exactly_once_whoever_takes_it() {
        // a request a worker popped is waited for, not run again; the one
        // behind it is dropped, so the worker runs it once released
        let server = one_worker();
        let gate = STALL_GATE.lock().unwrap();
        let (stalled, behind) =
            pin_the_worker(&server, || server.submit("rank venue-paper-author"));
        drop(behind);
        let waiter = std::thread::spawn(move || stalled.wait());
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !waiter.is_finished(),
            "the worker holds it, so its waiter waits"
        );
        drop(gate);
        assert!(matches!(waiter.join().unwrap(), Err(QueryError::Parse(_))));
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.waiter_runs, stats.batches), (2, 0, 2));

        // workers and waiters racing for the same requests: each is
        // served once, and answered right
        let server = Server::start(
            bib(),
            ServeConfig {
                workers: 2,
                batch_max: 4,
                ..ServeConfig::default()
            },
        );
        let queries = [
            "pathsim author-paper-author from a0",
            "pathcount author-paper-venue from a1",
            "rank venue-paper-author limit 2",
            "pathsim author-paper-author from nobody",
        ];
        let reference = Engine::from_arc(bib());
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let h = server.handle();
                std::thread::spawn(move || {
                    let tickets: Vec<Ticket> = (0..48).map(|i| h.submit(queries[i % 4])).collect();
                    tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
                })
            })
            .collect();
        for c in clients {
            for (i, got) in c.join().unwrap().into_iter().enumerate() {
                assert_eq!(got, reference.execute(queries[i % 4]));
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 192, "every request served exactly once");
        assert_eq!(stats.errors, 48);
        assert!(stats.waiter_runs <= stats.batches);
    }

    #[test]
    fn a_waiters_run_still_sheds_an_expired_deadline() {
        let server = one_worker();
        let gate = STALL_GATE.lock().unwrap();
        let (stalled, dead) = pin_the_worker(&server, || {
            server.submit_with_deadline("pathsim author-paper-author from a0", Duration::ZERO)
        });
        assert!(matches!(dead.wait(), Err(QueryError::TimedOut)));
        let live = server.stats();
        assert_eq!(live.waiter_runs, 1, "its waiter took it");
        assert_eq!(live.shed_expired, 1);
        assert_eq!(live.served, 0, "and it never reached the engine");
        assert_eq!(live.cache_hits + live.cache_misses, 0);
        assert_eq!(live.anchored_fast_paths, 0);
        drop(gate);
        assert!(stalled.wait().is_err());
        let stats = server.shutdown();
        assert_eq!((stats.served, stats.shed_expired), (1, 1));
    }

    #[test]
    fn shutdown_counts_a_waiters_run_still_under_way() {
        let server = one_worker();
        // STALL before HOLD, in the order every test takes the two gates
        let stall_gate = STALL_GATE.lock().unwrap();
        let hold_gate = HOLD_GATE.lock().unwrap();
        let (stalled, held) = pin_the_worker(&server, || server.submit(HOLD));
        // the worker is pinned, so HOLD's waiter takes it and blocks on
        // the hold gate inside its own run
        let waiter = std::thread::spawn(move || held.wait());
        while server.stats().waiter_runs == 0 {
            std::thread::yield_now();
        }
        let shutdown = std::thread::spawn(move || server.shutdown());
        // the worker drains and exits; shutdown must still wait for the run
        drop(stall_gate);
        assert!(stalled.wait().is_err());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!shutdown.is_finished(), "a waiter's run is still under way");
        drop(hold_gate);
        assert!(matches!(waiter.join().unwrap(), Err(QueryError::Parse(_))));
        let stats = shutdown.join().unwrap();
        assert_eq!(stats.served, 2, "the run that outlived the close counts");
        assert_eq!(stats.waiter_runs, 1);
        assert_eq!(stats.errors, 2);
    }

    #[test]
    fn handles_and_tickets_do_not_keep_the_engine_alive() {
        let server = Server::start(bib(), ServeConfig::default());
        let engine = Arc::downgrade(&server.engine);
        let handle = server.handle();
        let unwaited = handle.submit("pathsim author-paper-author from a0");
        drop(server);
        assert!(
            engine.upgrade().is_none(),
            "the engine went with the server"
        );
        // the workers drained the queue before they went, and nothing is
        // left for the handle to run
        assert_eq!(unwaited.wait().unwrap().items[0].0, "a1");
        assert!(matches!(
            handle.submit("rank venue-paper-author").wait(),
            Err(QueryError::Canceled)
        ));
    }

    #[test]
    fn handles_are_fairness_lanes() {
        let server = Server::start(bib(), ServeConfig::default());
        let a = server.handle();
        let b = a.clone();
        let c = server.handle();
        assert_eq!(a.client, b.client, "clones share the lane");
        assert_ne!(a.client, c.client, "handle() opens a fresh lane");
    }
}
