//! The multi-dataset router: one front door over N per-dataset
//! [`Server`] shards.
//!
//! The paper's setting is a *database* of information networks — DBLP,
//! Flickr, a claims corpus — interrogated by many users at once. One
//! process, one dataset was the PR-2 shape; the router closes the gap:
//! datasets register and evict **at runtime**, each behind its own
//! [`Server`] (own worker pool, own bounded deduplicating cache, own
//! admission control), and the router hashes dataset keys across sharded
//! lock stripes so lookups on different datasets never contend on one
//! map lock.
//!
//! ```text
//!   clients ──▶ Router::submit("dblp", query)
//!                  │  hash("dblp") → lock stripe → Shard
//!         ┌────────┴─────────┬──────────────────────┐
//!     Local "dblp"      Local "flickr"        Remote "claims"
//!     Server            Server                RemoteShard: wire client,
//!     (workers+cache)   (workers+cache)       health bit, supervisor thread
//! ```
//!
//! Isolation is the point of per-dataset servers: a thrashing cache or a
//! flooded queue on one dataset cannot evict another dataset's hot
//! products or starve its clients, and [`Router::evict`] tears one
//! dataset down (draining its in-flight queries) without touching the
//! rest. [`Router::stats`] rolls every shard's [`ServerStats`] up into
//! one fleet view.
//!
//! A remote entry carries its own supervisor (thread handle and stop
//! flag): whoever takes the entry out of the registry stops it, and a
//! failover replaces the entry — supervisor and all — with a local server.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hin_core::Hin;
use hin_linalg::codec::Fnv64;
use hin_query::{CacheSnapshot, CodecError, QueryError, QueryOutput};
use hin_telemetry::{HistSnapshot, Histogram, MetricsWriter};

use crate::remote::{RemoteConfig, RemoteServerHandle, RemoteStats};
use crate::server::{
    ServeConfig, Server, ServerHandle, ServerStats, SlowQuery, Ticket, EXEC_MODES, EXEC_OUTCOMES,
};

/// One lock stripe of the dataset registry.
type Stripe = RwLock<HashMap<String, Shard>>;

/// One registered dataset: a server in this process, or a client to a
/// shard living in another process.
#[derive(Clone)]
enum Shard {
    Local(Arc<Server>),
    Remote(Arc<RemoteShard>),
}

/// Router-side state of one remote shard: the wire client, the health bit
/// its supervisor maintains, and the supervisor itself. Unhealthy shards
/// shed immediately with [`QueryError::Unavailable`] instead of burning a
/// retry schedule per query — graceful degradation while the supervisor
/// decides on failover.
struct RemoteShard {
    handle: RemoteServerHandle,
    healthy: AtomicBool,
    stop: AtomicBool,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl RemoteShard {
    /// Stop the supervisor and reap it; idempotent. Never called with a
    /// stripe lock held, nor from the supervisor itself.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let thread = self
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(thread) = thread {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// Health-check and failover policy for one remote shard
/// ([`Router::register_remote`]).
#[derive(Clone)]
pub struct SupervisorConfig {
    /// Time between health-check pings.
    pub interval: Duration,
    /// Per-ping timeout (connect + round trip).
    pub ping_timeout: Duration,
    /// Consecutive ping failures before the shard is marked unhealthy
    /// (and failover fires, when configured).
    pub failure_threshold: u32,
    /// When set, an unhealthy shard is automatically replaced by a local
    /// warm-started server ([`FailoverConfig`]). When `None`, the shard
    /// stays registered but sheds until pings succeed again.
    pub failover: Option<FailoverConfig>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(250),
            ping_timeout: Duration::from_millis(500),
            failure_threshold: 3,
            failover: None,
        }
    }
}

/// Everything automatic failover needs to resurrect a dead remote shard
/// as a local server: the dataset itself, and the checkpoint file (from
/// [`Router::checkpoint`]) that warms the replacement's cache. A missing,
/// corrupt or unreadable checkpoint degrades the failover to a cold start
/// — serving resumes either way, and
/// [`RouterStats::failover_restore_errors`] says it happened.
#[derive(Clone)]
pub struct FailoverConfig {
    /// The dataset the replacement server computes over.
    pub hin: Arc<Hin>,
    /// Checkpoint file to warm-start from, mounted and verified the way
    /// [`Router::register_warm_from_file`] does it.
    pub checkpoint: PathBuf,
}

/// Sizing knobs for a [`Router`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Lock stripes the dataset map is hashed across; rounded up to a
    /// power of two, minimum 1. Registration/eviction on one stripe never
    /// blocks routing on another.
    pub stripes: usize,
    /// Serving configuration applied to each dataset registered through
    /// [`Router::register`] (use [`Router::register_with`] to override
    /// per dataset).
    pub serve: ServeConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            stripes: 4,
            serve: ServeConfig::default(),
        }
    }
}

/// What [`Router::evict`] hands back: the drained server's final
/// statistics and its cache as a snapshot, ready for a replacement's warm
/// start ([`Router::register_warm`]).
#[derive(Debug)]
pub struct Evicted {
    /// Final lifetime statistics of the drained server.
    pub stats: ServerStats,
    /// The drained cache, hottest entries first.
    pub snapshot: CacheSnapshot,
}

/// `<key>` made filesystem-safe for checkpoint file names.
fn sanitize_key(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The checkpoint file name of dataset `key`: `<sanitized key>-<digest>`,
/// where the digest is FNV-1a 64 of the raw key — the disambiguator when two
/// keys sanitize identically. Key-only (no random seed), so the name for a
/// given key is the same across processes and restarts.
fn checkpoint_name(key: &str) -> String {
    let mut digest = Fnv64::new();
    digest.update(key.as_bytes());
    format!("{}-{:016x}.hinsnap", sanitize_key(key), digest.finish())
}

/// Aggregated router statistics: per-dataset [`ServerStats`] plus routing
/// counters.
#[derive(Clone, Debug, Default)]
pub struct RouterStats {
    /// One snapshot per registered **local** dataset, sorted by key.
    pub datasets: Vec<(String, ServerStats)>,
    /// One snapshot per registered **remote** shard, sorted by key.
    pub remotes: Vec<(String, RemoteDatasetStats)>,
    /// Queries routed to a registered dataset.
    pub routed: u64,
    /// Queries refused with [`QueryError::UnknownDataset`].
    pub misrouted: u64,
    /// Remote submissions shed because the shard was marked unhealthy.
    pub shed_unhealthy: u64,
    /// Automatic failovers performed (remote shard → warm local server).
    pub failovers: u64,
    /// Failovers whose checkpoint could not be restored — missing,
    /// truncated, corrupt, or not a container this build reads — so the
    /// replacement started **cold**. The failover itself still counts in
    /// `failovers`: availability beats warmth, but not silently.
    pub failover_restore_errors: u64,
    /// Time-to-recovery of each failover: unhealthy verdict to the warm
    /// replacement taking traffic, in nanoseconds.
    pub failover_ns: HistSnapshot,
}

/// Router-side view of one remote shard's client counters.
#[derive(Clone, Debug, Default)]
pub struct RemoteDatasetStats {
    /// Supervisor's current verdict — `false` sheds submissions fast.
    pub healthy: bool,
    /// Lifetime wire-client counters (retries, breaker trips, pings).
    pub stats: RemoteStats,
}

impl RouterStats {
    /// Fleet-wide rollup: the element-wise merge of every dataset's stats.
    pub fn aggregate(&self) -> ServerStats {
        self.datasets
            .iter()
            .fold(ServerStats::default(), |acc, (_, s)| acc.merge(s))
    }

    /// The whole fleet as a Prometheus-style text page: router routing
    /// counters, then — one labeled series per dataset — every
    /// [`ServerStats`] counter, gauge and stage-latency histogram.
    /// Nanosecond histograms are exposed in seconds (the Prometheus base
    /// unit); execute-stage series carry `mode` and `outcome` labels per
    /// [`EXEC_MODES`] × [`EXEC_OUTCOMES`].
    pub fn render_metrics(&self) -> String {
        let mut w = MetricsWriter::new();
        w.counter("hin_router_routed_total", &[], self.routed);
        w.counter("hin_router_misrouted_total", &[], self.misrouted);
        w.counter("hin_shed_unhealthy_total", &[], self.shed_unhealthy);
        w.counter("hin_failovers_total", &[], self.failovers);
        w.counter(
            "hin_failover_restore_errors_total",
            &[],
            self.failover_restore_errors,
        );
        w.histogram_seconds("hin_failover_seconds", &[], &self.failover_ns);
        // Process-wide storage-tier series (the arena buffers back every
        // dataset's snapshot views, so they are not per-dataset).
        w.gauge(
            "hin_storage_arena_bytes",
            &[],
            hin_linalg::arena::arena_bytes() as f64,
        );
        w.gauge(
            "hin_storage_mapped_bytes",
            &[],
            hin_linalg::arena::arena_mapped_bytes() as f64,
        );
        w.counter(
            "hin_storage_view_restores_total",
            &[],
            hin_linalg::arena::view_restores(),
        );
        w.counter(
            "hin_storage_heap_decodes_total",
            &[],
            hin_linalg::arena::heap_decodes(),
        );
        w.counter(
            "hin_storage_mapped_restores_total",
            &[],
            hin_linalg::arena::mapped_restores(),
        );
        // Process-wide kernel series (the SpMM kernels and their worker
        // pool are shared by every dataset's engine), present only when a
        // counters sink is installed.
        if let Some(k) = hin_linalg::counters::installed() {
            let s = k.snapshot();
            w.counter("hin_kernel_row_blocks_total", &[], s.row_blocks);
        }
        for (key, r) in &self.remotes {
            let ds = [("dataset", key.as_str())];
            w.gauge("hin_shard_health", &ds, if r.healthy { 1.0 } else { 0.0 });
            w.counter("hin_remote_served_total", &ds, r.stats.served);
            w.counter("hin_remote_errors_total", &ds, r.stats.errors);
            w.counter("hin_retries_total", &ds, r.stats.retries);
            w.counter("hin_retries_exhausted_total", &ds, r.stats.exhausted);
            w.counter("hin_circuit_open_total", &ds, r.stats.circuit_opens);
            w.counter("hin_breaker_rejected_total", &ds, r.stats.breaker_rejected);
            w.counter("hin_remote_shed_total", &ds, r.stats.shed);
            w.counter("hin_pings_total", &ds, r.stats.pings);
            w.counter("hin_ping_failures_total", &ds, r.stats.ping_failures);
        }
        for (key, s) in &self.datasets {
            let ds = [("dataset", key.as_str())];
            w.gauge("hin_shard_health", &ds, 1.0);
            w.counter("hin_served_total", &ds, s.served);
            w.counter("hin_errors_total", &ds, s.errors);
            w.counter("hin_shed_total", &ds, s.shed);
            w.counter("hin_shed_expired_total", &ds, s.shed_expired);
            w.counter("hin_batches_total", &ds, s.batches);
            w.counter("hin_waiter_runs_total", &ds, s.waiter_runs);
            w.counter("hin_worker_wakes_total", &ds, s.worker_wakes);
            w.counter("hin_anchored_fast_paths_total", &ds, s.anchored_fast_paths);
            w.counter("hin_promotions_total", &ds, s.promotions);
            w.counter("hin_promotions_refused_total", &ds, s.promotions_refused);
            w.counter("hin_factor_promotions_total", &ds, s.factor_promotions);
            w.counter("hin_cache_hits_total", &ds, s.cache_hits);
            w.counter("hin_cache_symmetry_hits_total", &ds, s.cache_symmetry_hits);
            w.counter("hin_cache_misses_total", &ds, s.cache_misses);
            w.counter("hin_cache_evictions_total", &ds, s.cache_evictions);
            w.counter(
                "hin_cache_inserts_refused_total",
                &ds,
                s.cache_inserts_refused,
            );
            w.counter("hin_cache_refused_bytes_total", &ds, s.cache_refused_bytes);
            w.counter(
                "hin_cache_coalesced_waits_total",
                &ds,
                s.cache_coalesced_waits,
            );
            w.counter("hin_cache_dup_computes_total", &ds, s.cache_dup_computes);
            w.counter("hin_cache_warm_loaded_total", &ds, s.cache_warm_loaded);
            w.counter("hin_cache_warm_rejected_total", &ds, s.cache_warm_rejected);
            w.counter(
                "hin_cache_warm_view_backed_total",
                &ds,
                s.cache_warm_view_backed,
            );
            w.counter(
                "hin_cache_restore_verified_total",
                &ds,
                s.cache_restore_verified,
            );
            w.counter(
                "hin_cache_restore_corrupt_total",
                &ds,
                s.cache_restore_corrupt,
            );
            w.gauge(
                "hin_cache_restore_pending",
                &ds,
                s.cache_restore_pending as f64,
            );
            w.counter(
                "hin_cache_diagonal_builds_total",
                &ds,
                s.cache_diagonal_builds,
            );
            w.counter(
                "hin_normalizer_memo_hits_total",
                &ds,
                s.normalizer_memo_hits,
            );
            w.counter("hin_memo_hits_total", &ds, s.memo_hits);
            w.counter("hin_slow_queries_total", &ds, s.slow_queries);
            w.gauge("hin_max_batch", &ds, s.max_batch as f64);
            w.gauge("hin_workers", &ds, s.workers as f64);
            w.gauge("hin_queue_depth", &ds, s.queue_depth as f64);
            w.gauge("hin_cache_len", &ds, s.cache_len as f64);
            w.gauge("hin_cache_bytes", &ds, s.cache_bytes as f64);
            w.gauge("hin_cache_memo_rows", &ds, s.cache_memo_rows as f64);
            w.gauge("hin_cache_memo_bytes", &ds, s.cache_memo_bytes as f64);
            for &(lane, depth) in &s.lane_depths {
                let lane = lane.to_string();
                w.gauge(
                    "hin_lane_depth",
                    &[("dataset", key.as_str()), ("lane", lane.as_str())],
                    depth as f64,
                );
            }
            w.histogram_seconds("hin_stage_admission_seconds", &ds, &s.admission_ns);
            w.histogram_seconds("hin_stage_queue_wait_seconds", &ds, &s.queue_wait_ns);
            w.histogram_seconds("hin_stage_dispatch_seconds", &ds, &s.dispatch_ns);
            w.histogram_seconds("hin_stage_plan_seconds", &ds, &s.plan_ns);
            for (m, mode) in EXEC_MODES.iter().enumerate() {
                for (o, outcome) in EXEC_OUTCOMES.iter().enumerate() {
                    w.histogram_seconds(
                        "hin_stage_exec_seconds",
                        &[
                            ("dataset", key.as_str()),
                            ("mode", mode),
                            ("outcome", outcome),
                        ],
                        &s.exec_ns[m][o],
                    );
                }
            }
            w.histogram_seconds("hin_e2e_seconds", &ds, &s.e2e_ns);
        }
        w.finish()
    }
}

/// The router's shared core: everything supervisor threads need to route
/// around — and fail over — a dead shard while the owning [`Router`] sits
/// elsewhere on the stack.
struct Inner {
    stripes: Box<[Stripe]>,
    /// `stripes.len() - 1`; the stripe count is a power of two.
    stripe_mask: usize,
    hasher: RandomState,
    serve: ServeConfig,
    routed: AtomicU64,
    misrouted: AtomicU64,
    shed_unhealthy: AtomicU64,
    failovers: AtomicU64,
    failover_restore_errors: AtomicU64,
    failover_ns: Histogram,
}

impl Inner {
    fn stripe_of(&self, key: &str) -> &Stripe {
        &self.stripes[(self.hasher.hash_one(key) as usize) & self.stripe_mask]
    }

    fn shard(&self, key: &str) -> Option<Shard> {
        self.stripe_of(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    fn server(&self, key: &str) -> Option<Arc<Server>> {
        match self.shard(key)? {
            Shard::Local(server) => Some(server),
            Shard::Remote(_) => None,
        }
    }

    /// Visit every registered shard, one stripe read lock at a time.
    fn for_each(&self, mut visit: impl FnMut(&str, &Shard)) {
        for stripe in self.stripes.iter() {
            for (key, shard) in stripe.read().unwrap_or_else(PoisonError::into_inner).iter() {
                visit(key, shard);
            }
        }
    }

    /// The registry's one insert: put `shard` under `key` when `admit`
    /// accepts what the key holds now. A refused or displaced shard is
    /// dropped after the stripe lock is released — a [`Server`]'s drop
    /// joins its workers.
    fn install(&self, key: &str, shard: Shard, admit: impl FnOnce(Option<&Shard>) -> bool) -> bool {
        let mut stripe = self
            .stripe_of(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if !admit(stripe.get(key)) {
            return false; // parameters drop after locals: `shard` after the guard
        }
        let _displaced = stripe.insert(key.to_string(), shard);
        drop(stripe); // `_displaced` drops after it
        true
    }

    /// The registry's one remove: unregister `key` when `want` accepts
    /// what it holds.
    fn take(&self, key: &str, want: impl FnOnce(&Shard) -> bool) -> Option<Shard> {
        let mut stripe = self
            .stripe_of(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if !want(stripe.get(key)?) {
            return None;
        }
        stripe.remove(key)
    }

    /// The one [`RouterStats`] construction: per-shard snapshots sorted by
    /// key, plus the routing counters.
    fn roll_up(
        &self,
        mut datasets: Vec<(String, ServerStats)>,
        mut remotes: Vec<(String, RemoteDatasetStats)>,
    ) -> RouterStats {
        datasets.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        remotes.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        RouterStats {
            datasets,
            remotes,
            routed: self.routed.load(Ordering::Relaxed),
            misrouted: self.misrouted.load(Ordering::Relaxed),
            shed_unhealthy: self.shed_unhealthy.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            failover_restore_errors: self.failover_restore_errors.load(Ordering::Relaxed),
            failover_ns: self.failover_ns.snapshot(),
        }
    }

    /// Replace the dead remote shard under `key` with a local server
    /// warm-started from the checkpoint; `since` is when the shard was
    /// declared unhealthy. Stands down when the key was concurrently
    /// evicted or replaced (the fresh server is torn down, nothing
    /// changes). A checkpoint that cannot be mounted degrades to a cold
    /// start — availability beats warmth — and is counted in
    /// [`RouterStats::failover_restore_errors`]. The failover is counted
    /// and timed when the replacement is registered and taking traffic; its
    /// restored entries are verified after that, on this thread.
    fn failover(&self, key: &str, dead: &Arc<RemoteShard>, fo: &FailoverConfig, since: Instant) {
        let snapshot = CacheSnapshot::open(&fo.checkpoint);
        if snapshot.is_err() {
            self.failover_restore_errors.fetch_add(1, Ordering::Relaxed);
        }
        let config = ServeConfig {
            warm_start: snapshot.ok().map(Arc::new),
            ..self.serve.clone()
        };
        // Build the replacement (threads, warm import) before touching the
        // registry: the swap itself is one write-lock blip.
        let server = Arc::new(Server::start(Arc::clone(&fo.hin), config));
        let ours =
            |now: Option<&Shard>| matches!(now, Some(Shard::Remote(now)) if Arc::ptr_eq(now, dead));
        if self.install(key, Shard::Local(Arc::clone(&server)), ours) {
            self.failovers.fetch_add(1, Ordering::Relaxed);
            self.failover_ns.record_duration(since.elapsed());
            server.engine().verify_restored();
        } // else evicted or replaced while we built: `server` drops here
    }
}

/// Own what `arc` points to once its transient clones (a submit or stats
/// call in flight) are gone, so the caller — never one of those clients —
/// runs the blocking teardown.
fn sole<T>(mut arc: Arc<T>) -> T {
    loop {
        arc = match Arc::try_unwrap(arc) {
            Ok(owned) => return owned,
            Err(shared) => shared,
        };
        std::thread::yield_now();
    }
}

/// A runtime-mutable registry of dataset shards — local servers and
/// remote ones behind the wire protocol — with hashed lock striping and
/// per-remote health supervision. All methods take `&self`; share behind
/// an `Arc`.
pub struct Router {
    inner: Arc<Inner>,
}

impl Default for Router {
    fn default() -> Self {
        Self::new(RouterConfig::default())
    }
}

impl Router {
    /// An empty router; register datasets with [`Router::register`].
    pub fn new(config: RouterConfig) -> Self {
        let stripes = config.stripes.max(1).next_power_of_two();
        Self {
            inner: Arc::new(Inner {
                stripes: (0..stripes)
                    .map(|_| RwLock::new(HashMap::new()))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
                stripe_mask: stripes - 1,
                hasher: RandomState::new(),
                serve: config.serve,
                routed: AtomicU64::new(0),
                misrouted: AtomicU64::new(0),
                shed_unhealthy: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                failover_restore_errors: AtomicU64::new(0),
                failover_ns: Histogram::new(),
            }),
        }
    }

    /// Start a [`Server`] for `hin` under `key` with the router's default
    /// serving config. Returns `false` (and starts nothing) if the key is
    /// already registered — evict first to replace a dataset.
    pub fn register(&self, key: impl Into<String>, hin: Arc<Hin>) -> bool {
        self.register_with(key, hin, self.inner.serve.clone())
    }

    /// Register a replacement that takes traffic **warm**: the snapshot
    /// (typically [`Evicted::snapshot`] from the predecessor, or one read
    /// back from a [`Router::checkpoint`] file) is restored into the new
    /// server's cache before it serves its first query. Uses the router's
    /// default serving config; use [`Router::register_with`] and
    /// [`ServeConfig::warm_start`] to override sizing per dataset.
    ///
    /// Returns the restore outcome on success (`None` = the key was
    /// already registered, nothing started). **Check `loaded`**: a report
    /// with `loaded == 0` (wrong snapshot for this dataset, or a
    /// [`fingerprint mismatch`](hin_query::SnapshotImport::fingerprint_mismatch))
    /// means the server registered but is effectively cold.
    /// Entries keep their verified state: after an [`Evicted::snapshot`]
    /// hand-off nothing is hashed again.
    pub fn register_warm(
        &self,
        key: impl Into<String>,
        hin: Arc<Hin>,
        snapshot: CacheSnapshot,
    ) -> Option<hin_query::SnapshotImport> {
        let config = ServeConfig {
            warm_start: Some(Arc::new(snapshot)),
            ..self.inner.serve.clone()
        };
        let server = self.register_server(key.into(), hin, config)?;
        Some(server.warm_import().unwrap_or_default())
    }

    /// [`Router::register_warm`] straight from a checkpoint file (one
    /// written by [`Router::checkpoint`]): the recovery path after a crash.
    ///
    /// The file is mounted, not loaded ([`CacheSnapshot::open`]): mapped
    /// where the platform can, metadata proved against its seal, every
    /// matrix's structure validated and proved against its structure
    /// checksum — and the dataset is registered and answering from there.
    /// Then, on the caller's thread, every restored entry's values are
    /// verified against its values checksum, hottest first
    /// ([`hin_query::Engine::verify_restored`]); a query that gets to an
    /// entry before the sweep verifies it itself, once. When this returns
    /// nothing is pending: `cache_restore_verified + cache_restore_corrupt`
    /// equals the report's `loaded`, each corrupt entry evicted unread. The
    /// file may be replaced or deleted while the dataset serves from it.
    ///
    /// Returns `Ok(None)` when the key was already registered (nothing
    /// started), and the decode error — with nothing registered — when the
    /// file is unreadable, its metadata corrupt, or it is not the one
    /// container this build reads (a file from an older build is
    /// [`CodecError::UnsupportedVersion`]).
    pub fn register_warm_from_file(
        &self,
        key: impl Into<String>,
        hin: Arc<Hin>,
        path: impl AsRef<Path>,
    ) -> Result<Option<hin_query::SnapshotImport>, CodecError> {
        let config = ServeConfig {
            warm_start: Some(Arc::new(CacheSnapshot::open(path)?)),
            ..self.inner.serve.clone()
        };
        let Some(server) = self.register_server(key.into(), hin, config) else {
            return Ok(None);
        };
        server.engine().verify_restored();
        Ok(Some(server.warm_import().unwrap_or_default()))
    }

    /// [`Router::register`] with a per-dataset serving configuration
    /// (worker count, queue depth, cache budget, warm start).
    pub fn register_with(
        &self,
        key: impl Into<String>,
        hin: Arc<Hin>,
        config: ServeConfig,
    ) -> bool {
        self.register_server(key.into(), hin, config).is_some()
    }

    /// Start and register a server, returning a handle to it on success.
    fn register_server(
        &self,
        key: String,
        hin: Arc<Hin>,
        config: ServeConfig,
    ) -> Option<Arc<Server>> {
        // Refuse duplicates cheaply, then build the server (engine
        // construction + thread spawning) with no lock held — holding the
        // stripe write lock through Server::start would stall routing for
        // every dataset sharing the stripe.
        if self.contains(&key) {
            return None;
        }
        let server = Arc::new(Server::start(hin, config));
        let local = Shard::Local(Arc::clone(&server));
        let installed = self.inner.install(&key, local, |now| now.is_none());
        // a server that lost a registration race drops (and joins) here
        installed.then_some(server)
    }

    /// Register a **remote** shard: queries for `key` are forwarded over
    /// the wire protocol to the [`ShardListener`](crate::ShardListener) at
    /// `addr`, with the retry/breaker behavior of `config`. A supervisor
    /// thread pings the shard every [`SupervisorConfig::interval`];
    /// [`SupervisorConfig::failure_threshold`] consecutive failures mark
    /// it unhealthy, shedding submissions fast with
    /// [`QueryError::Unavailable`] — and, when
    /// [`SupervisorConfig::failover`] is set, replacing it with a local
    /// server warm-started from the checkpoint, automatically.
    ///
    /// Returns `false` (registering nothing) if the key is taken. No I/O
    /// happens here: a dead address surfaces on the first submission (as
    /// retries, then breaker trips) and on the supervisor's first ping.
    pub fn register_remote(
        &self,
        key: impl Into<String>,
        addr: SocketAddr,
        config: RemoteConfig,
        supervise: SupervisorConfig,
    ) -> bool {
        let key = key.into();
        // refuse a taken key before the client spawns its reader threads
        if self.contains(&key) {
            return false;
        }
        let shard = Arc::new(RemoteShard {
            handle: RemoteServerHandle::connect(addr, config),
            healthy: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            supervisor: Mutex::new(None),
        });
        // Held until the supervisor is stored: a racing deregistration
        // waits here in `RemoteShard::stop`, then reaps it. A shard that
        // lost a registration race drops after this guard.
        let mut supervisor = shard
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let remote = Shard::Remote(Arc::clone(&shard));
        if !self.inner.install(&key, remote, |now| now.is_none()) {
            return false;
        }
        let (inner, supervised) = (Arc::clone(&self.inner), Arc::clone(&shard));
        let thread = std::thread::Builder::new()
            .name(format!("hin-supervise-{key}"))
            .spawn(move || supervise_shard(&inner, &key, &supervised, &supervise))
            .expect("spawn supervisor thread");
        *supervisor = Some(thread);
        true
    }

    /// Tear down the **remote** shard registered under `key`: stop its
    /// supervisor, close its connections, and return the wire client's
    /// final counters. `None` if the key is unregistered or local
    /// ([`Router::evict`] handles local shards).
    pub fn deregister_remote(&self, key: &str) -> Option<RemoteStats> {
        let Some(Shard::Remote(shard)) = self.inner.take(key, |s| matches!(s, Shard::Remote(_)))
        else {
            return None;
        };
        // the supervisor holds a clone; reap it before spinning ours out
        shard.stop();
        Some(sole(shard).handle.shutdown())
    }

    /// Tear down `key`'s server: unregister it, drain its in-flight
    /// queries, and return its final statistics **plus a snapshot of its
    /// drained cache** — everything the dataset's traffic warmed, ready to
    /// hand a replacement via [`Router::register_warm`]. `None` if the key
    /// was not registered. Handles already given out for this dataset get
    /// [`QueryError::Canceled`] on their next submit.
    ///
    /// Blocks until the drain completes — on *this* thread. Concurrent
    /// [`Router::submit`]/[`Router::stats`] calls hold their `Arc<Server>`
    /// clone only for the duration of the call (client handles reference
    /// the server's internals, not the server), so eviction spins those
    /// transient clones out rather than ever letting a client's clone be
    /// the last owner and run the blocking join inline in `submit`.
    /// Remote shards are not evictable this way — their cache lives in
    /// another process, so there is nothing to snapshot; `evict` leaves a
    /// remote registration untouched and returns `None`. Use
    /// [`Router::deregister_remote`] for those.
    pub fn evict(&self, key: &str) -> Option<Evicted> {
        let Some(Shard::Local(server)) = self.inner.take(key, |s| matches!(s, Shard::Local(_)))
        else {
            return None;
        };
        let (stats, snapshot) = sole(server).retire(None);
        Some(Evicted { stats, snapshot })
    }

    /// Snapshot every registered dataset's cache to `dir` (created if
    /// missing), one file per dataset — the periodic checkpoint that makes
    /// a crash (not just a graceful evict) recoverable warm. Servers stay
    /// live throughout: each snapshot takes the same shard read locks the
    /// serving path takes, and each image is streamed to its file straight
    /// from the matrices (a product is hashed by its first checkpoint only).
    ///
    /// Files are named `<sanitized key>-<key digest>.hinsnap`:
    /// sanitization maps anything outside `[A-Za-z0-9._-]` to `_` for
    /// readability, and the stable FNV digest of the *raw* key makes the
    /// name a pure function of the key — two keys that sanitize
    /// identically (`"dblp/full"` vs `"dblp full"`) never clobber each
    /// other's recovery file, and a dataset's filename never changes with
    /// the rest of the registered set. Each file is written to a temp
    /// sibling named for this process and this call — concurrent
    /// checkpoints never share one — and atomically renamed into place
    /// (removed instead, on error): a crash mid-write leaves the previous
    /// good checkpoint intact, and a server still mapped to it keeps
    /// serving from it. Returns the `(dataset key, file path)` pairs
    /// written. Recover from one with [`Router::register_warm_from_file`].
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<Vec<(String, PathBuf)>, CodecError> {
        // tells the temp files of this process's checkpoint calls apart
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for key in self.datasets() {
            // a concurrent evict may have removed the key; skip, don't fail
            let Some(server) = self.inner.server(&key) else {
                continue;
            };
            let snapshot = server.snapshot(None);
            let name = checkpoint_name(&key);
            let path = dir.join(&name);
            let tmp = dir.join(format!("{name}.{}.{call}.tmp", std::process::id()));
            let published = snapshot
                .write_to_file(&tmp)
                .and_then(|()| Ok(std::fs::rename(&tmp, &path)?));
            if let Err(e) = published {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
            written.push((key, path));
        }
        Ok(written)
    }

    /// Is a dataset registered under `key`?
    pub fn contains(&self, key: &str) -> bool {
        self.inner
            .stripe_of(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(key)
    }

    /// Number of registered datasets (local and remote).
    pub fn len(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// `true` when no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered dataset keys (local and remote), sorted.
    pub fn datasets(&self) -> Vec<String> {
        let mut keys = Vec::new();
        self.inner.for_each(|key, _| keys.push(key.to_string()));
        keys.sort_unstable();
        keys
    }

    /// A submission handle (a fresh fairness lane) on `key`'s server, or
    /// `None` if the dataset is not registered. The handle stays valid
    /// across a later [`Router::evict`] — submits then resolve to
    /// [`QueryError::Canceled`] rather than dangling.
    pub fn handle(&self, key: &str) -> Option<ServerHandle> {
        self.inner.server(key).map(|s| s.handle())
    }

    /// The newest slow queries captured on `key`'s server (oldest first),
    /// or `None` if the dataset is not registered. Empty when the server's
    /// telemetry is disabled — see [`crate::TelemetryConfig`].
    pub fn slow_queries(&self, key: &str) -> Option<Vec<SlowQuery>> {
        self.inner.server(key).map(|s| s.slow_queries())
    }

    /// Route one query to `dataset`. Unknown datasets resolve immediately
    /// to [`QueryError::UnknownDataset`]; registered ones inherit that
    /// server's admission control ([`QueryError::Overloaded`] when its
    /// queue is at the depth cap).
    ///
    /// This convenience entry point shares the server's single internal
    /// fairness lane across all its callers. Clients that should be
    /// isolated from each other's bursts must each hold their own
    /// [`Router::handle`] — lanes (handles), not call sites, are the unit
    /// the scheduler is fair across.
    pub fn submit(&self, dataset: &str, query: impl Into<String>) -> Ticket {
        match self.inner.shard(dataset) {
            Some(Shard::Local(server)) => {
                self.inner.routed.fetch_add(1, Ordering::Relaxed);
                server.submit(query)
            }
            Some(Shard::Remote(shard)) => {
                // graceful degradation: a shard its supervisor has marked
                // unhealthy sheds instantly instead of burning a whole
                // retry schedule per query
                if !shard.healthy.load(Ordering::Relaxed) {
                    self.inner.shed_unhealthy.fetch_add(1, Ordering::Relaxed);
                    return Ticket::refused(QueryError::Unavailable(format!(
                        "dataset {dataset} marked unhealthy"
                    )));
                }
                self.inner.routed.fetch_add(1, Ordering::Relaxed);
                shard.handle.submit(query)
            }
            None => {
                self.inner.misrouted.fetch_add(1, Ordering::Relaxed);
                Ticket::refused(QueryError::UnknownDataset(dataset.to_string()))
            }
        }
    }

    /// Submit a batch to one dataset and block for ordered results.
    pub fn execute_many<S: AsRef<str>>(
        &self,
        dataset: &str,
        queries: &[S],
    ) -> Vec<Result<QueryOutput, QueryError>> {
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| self.submit(dataset, q.as_ref()))
            .collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Snapshot every dataset's statistics plus the routing counters.
    pub fn stats(&self) -> RouterStats {
        let (mut datasets, mut remotes) = (Vec::new(), Vec::new());
        self.inner.for_each(|key, shard| match shard {
            Shard::Local(server) => datasets.push((key.to_string(), server.stats())),
            Shard::Remote(remote) => remotes.push((
                key.to_string(),
                RemoteDatasetStats {
                    healthy: remote.healthy.load(Ordering::Relaxed),
                    stats: remote.handle.stats(),
                },
            )),
        });
        self.inner.roll_up(datasets, remotes)
    }

    /// Evict every local dataset (draining each server), deregister every
    /// remote shard, stop all supervision, and return the final
    /// statistics.
    pub fn shutdown(self) -> RouterStats {
        // stop supervision first so no failover races the teardown
        self.stop_supervision();
        let mut datasets = Vec::new();
        let mut remotes = Vec::new();
        for key in self.datasets() {
            if let Some(evicted) = self.evict(&key) {
                datasets.push((key, evicted.stats));
            } else if let Some(stats) = self.deregister_remote(&key) {
                remotes.push((
                    key,
                    RemoteDatasetStats {
                        healthy: false,
                        stats,
                    },
                ));
            }
        }
        self.inner.roll_up(datasets, remotes)
    }

    /// Stop every remote shard's supervisor. The shards stay registered.
    fn stop_supervision(&self) {
        let mut remotes = Vec::new();
        self.inner.for_each(|_, shard| {
            if let Shard::Remote(remote) = shard {
                remote.stop.store(true, Ordering::SeqCst); // all wind down at once
                remotes.push(Arc::clone(remote));
            }
        });
        for remote in remotes {
            remote.stop();
        }
    }
}

impl Drop for Router {
    /// A router dropped without [`Router::shutdown`] still reaps its
    /// supervisor threads (they hold `Arc<Inner>` and would outlive us,
    /// pinging dead addresses forever). Shards are left to their own
    /// `Drop`s.
    fn drop(&mut self) {
        self.stop_supervision();
    }
}

/// The supervisor loop for one remote shard: ping on a cadence, demote to
/// unhealthy after consecutive failures, promote back on recovery — and,
/// when failover is configured, swap in a warm local replacement and
/// retire (a local server needs no pings).
fn supervise_shard(inner: &Inner, key: &str, shard: &Arc<RemoteShard>, config: &SupervisorConfig) {
    let mut consecutive = 0u32;
    loop {
        // parked until the next ping is due; `RemoteShard::stop` unparks
        let due = Instant::now().checked_add(config.interval);
        loop {
            if shard.stop.load(Ordering::SeqCst) {
                return;
            }
            match due.map(|due| due.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => break,
                Some(left) => std::thread::park_timeout(left),
                None => std::thread::park(),
            }
        }
        match shard.handle.ping(config.ping_timeout) {
            Ok(_) => {
                consecutive = 0;
                shard.healthy.store(true, Ordering::Relaxed);
            }
            Err(_) => {
                consecutive += 1;
                if consecutive < config.failure_threshold {
                    continue;
                }
                shard.healthy.store(false, Ordering::Relaxed);
                if let Some(fo) = &config.failover {
                    // time-to-recovery: unhealthy verdict → warm local
                    // replacement taking traffic
                    inner.failover(key, shard, fo, Instant::now());
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hin_core::HinBuilder;

    fn tiny(authors: &[(&str, &str)]) -> Arc<Hin> {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let pa = b.add_relation("written_by", paper, author);
        for (p, a) in authors {
            b.link(pa, p, a, 1.0).unwrap();
        }
        Arc::new(b.build())
    }

    /// A router whose servers materialize a span on its first anchored run
    /// (`promote_after(0)`): the snapshot/warm-start tests below need a
    /// *single* query to land products in the cache, which the anchored
    /// fast path (by design) does not.
    fn materializing_router() -> Router {
        Router::new(RouterConfig {
            serve: ServeConfig {
                exec: hin_query::ExecPolicy::promote_after(0),
                ..ServeConfig::default()
            },
            ..RouterConfig::default()
        })
    }

    #[test]
    fn routes_by_dataset_key() {
        let router = Router::default();
        assert!(router.register("left", tiny(&[("p0", "ann"), ("p0", "bo")])));
        assert!(router.register("right", tiny(&[("q0", "cy"), ("q0", "di")])));
        assert_eq!(router.datasets(), vec!["left", "right"]);

        let q = "pathsim author-paper-author from ";
        let l = router.submit("left", format!("{q}ann")).wait().unwrap();
        assert_eq!(l.items[0].0, "bo");
        let r = router.submit("right", format!("{q}cy")).wait().unwrap();
        assert_eq!(r.items[0].0, "di");

        let stats = router.shutdown();
        assert_eq!(stats.routed, 2);
        assert_eq!(stats.misrouted, 0);
        assert_eq!(stats.aggregate().served, 2);
    }

    #[test]
    fn unknown_dataset_is_an_immediate_error() {
        let router = Router::default();
        let err = router.submit("nope", "rank venue-paper-author").wait();
        assert!(matches!(err, Err(QueryError::UnknownDataset(ref k)) if k == "nope"));
        assert_eq!(router.stats().misrouted, 1);
    }

    #[test]
    fn duplicate_registration_is_refused() {
        let router = Router::default();
        let hin = tiny(&[("p0", "ann")]);
        assert!(router.register("d", Arc::clone(&hin)));
        assert!(!router.register("d", hin), "second registration refused");
        assert_eq!(router.len(), 1);
    }

    #[test]
    fn evict_drains_and_unregisters() {
        let router = materializing_router();
        router.register("d", tiny(&[("p0", "ann"), ("p0", "bo")]));
        let ok = router
            .submit("d", "pathsim author-paper-author from ann")
            .wait();
        assert!(ok.is_ok());

        let evicted = router.evict("d").expect("was registered");
        assert_eq!(evicted.stats.served, 1);
        assert!(
            !evicted.snapshot.is_empty(),
            "the served query's products come back in the snapshot"
        );
        assert!(!router.contains("d"));
        assert!(router.evict("d").is_none(), "second evict is a no-op");

        // routing to the evicted key now misroutes…
        assert!(matches!(
            router.submit("d", "x").wait(),
            Err(QueryError::UnknownDataset(_))
        ));
        // …and a re-registered dataset serves fresh
        assert!(router.register("d", tiny(&[("p0", "cy"), ("p0", "di")])));
        let fresh = router
            .submit("d", "pathsim author-paper-author from cy")
            .wait()
            .unwrap();
        assert_eq!(fresh.items[0].0, "di");
    }

    #[test]
    fn stale_handles_cancel_after_evict() {
        let router = Router::default();
        router.register("d", tiny(&[("p0", "ann")]));
        let handle = router.handle("d").expect("registered");
        router.evict("d");
        assert!(matches!(
            handle.submit("pathsim author-paper-author from ann").wait(),
            Err(QueryError::Canceled)
        ));
    }

    #[test]
    fn evicted_snapshot_warms_the_replacement() {
        let hin = tiny(&[("p0", "ann"), ("p0", "bo"), ("p1", "bo")]);
        let router = materializing_router();
        router.register("d", Arc::clone(&hin));
        let q = "pathsim author-paper-author from ann";
        let want = router.submit("d", q).wait().unwrap();

        let evicted = router.evict("d").expect("registered");
        let report = router
            .register_warm("d", hin, evicted.snapshot)
            .expect("key free after evict");
        assert!(report.loaded > 0, "hand-off restored entries: {report:?}");
        assert!(!report.fingerprint_mismatch, "same dataset, same data");
        let got = router.submit("d", q).wait().unwrap();
        assert_eq!(got, want, "warm replacement answers byte-identically");

        let stats = router.stats();
        let (_, d) = &stats.datasets[0];
        assert!(d.cache_warm_loaded > 0, "warm start admitted entries");
        assert_eq!(
            d.cache_misses, 0,
            "the warm replacement recomputed nothing for a repeated query"
        );
    }

    #[test]
    fn a_checkpoint_name_is_pinned_to_its_key() {
        // FNV-1a 64 of the bytes of "dblp"
        assert_eq!(checkpoint_name("dblp"), "dblp-7a91496729ebee97.hinsnap");
    }

    #[test]
    fn checkpoint_files_restore_a_dataset_warm() {
        let dir = std::env::temp_dir().join(format!(
            "hin-router-checkpoint-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let hin = tiny(&[("p0", "ann"), ("p0", "bo")]);
        let router = materializing_router();
        router.register("dblp/full", Arc::clone(&hin));
        let q = "pathsim author-paper-author from ann";
        let want = router.submit("dblp/full", q).wait().unwrap();

        let written = router.checkpoint(&dir).expect("checkpoint writes");
        assert_eq!(written.len(), 1);
        assert_eq!(written[0].0, "dblp/full");
        let name = written[0].1.file_name().and_then(|n| n.to_str()).unwrap();
        assert!(
            name.starts_with("dblp_full-") && name.ends_with(".hinsnap"),
            "sanitized key + stable digest: {name}"
        );
        // the name is a pure function of the key: a second checkpoint
        // atomically replaces the same file
        let again = router.checkpoint(&dir).expect("re-checkpoint");
        assert_eq!(again[0].1, written[0].1);
        assert_eq!(tmp_files(&dir), 0, "temp files renamed away");

        let snap = hin_query::CacheSnapshot::open(&written[0].1).expect("read back");
        assert!(!snap.is_empty());
        assert_eq!(
            snap.fingerprint(),
            hin_query::dataset_fingerprint(&hin),
            "checkpoints carry identity"
        );
        router.evict("dblp/full");
        let report = router
            .register_warm("dblp/full", hin, snap)
            .expect("key free after evict");
        assert!(report.loaded > 0);
        assert_eq!(router.submit("dblp/full", q).wait().unwrap(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_races_an_in_flight_checkpoint_without_hanging_or_corrupting() {
        use std::sync::atomic::AtomicBool;

        let dir = std::env::temp_dir().join(format!(
            "hin-router-ckrace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let router = Arc::new(materializing_router());
        let hins: Vec<Arc<Hin>> = (0..3)
            .map(|_| tiny(&[("p0", "ann"), ("p0", "bo"), ("p1", "bo")]))
            .collect();
        for (i, hin) in hins.iter().enumerate() {
            router.register(format!("d{i}"), Arc::clone(hin));
            router
                .submit(&format!("d{i}"), "pathsim author-paper-author from ann")
                .wait()
                .unwrap();
        }

        // checkpoints stream continuously while datasets churn under them
        let stop = Arc::new(AtomicBool::new(false));
        let checkpointer = {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let dir = dir.clone();
            std::thread::spawn(move || {
                let mut rounds = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    // a concurrently evicted dataset is skipped, never an error
                    let written = router.checkpoint(&dir).expect("checkpoint survives churn");
                    for (_, path) in written {
                        // the atomic tmp+rename protocol means every visible
                        // file decodes, even mid-overwrite
                        hin_query::CacheSnapshot::open(&path)
                            .expect("checkpoint files stay wholly readable");
                    }
                    rounds += 1;
                }
                rounds
            })
        };
        for _ in 0..5 {
            for (i, hin) in hins.iter().enumerate() {
                let key = format!("d{i}");
                let evicted = router.evict(&key).expect("registered");
                router
                    .register_warm(&key, Arc::clone(hin), evicted.snapshot)
                    .expect("key free after evict");
            }
        }
        stop.store(true, Ordering::Relaxed);
        let rounds = checkpointer.join().unwrap();
        assert!(rounds > 0, "the checkpointer actually ran");
        assert_eq!(router.len(), 3, "every dataset survived the churn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_checkpoint_names_are_disambiguated_not_clobbered() {
        let dir = std::env::temp_dir().join(format!(
            "hin-router-collide-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let router = Router::default();
        // both keys sanitize to "dblp_full"
        router.register("dblp/full", tiny(&[("p0", "ann"), ("p0", "bo")]));
        router.register("dblp full", tiny(&[("q0", "cy"), ("q0", "di")]));
        for key in ["dblp/full", "dblp full"] {
            router
                .submit(key, "pathsim author-paper-author from ann")
                .wait()
                .ok();
        }
        let written = router.checkpoint(&dir).expect("checkpoint");
        assert_eq!(written.len(), 2);
        assert_ne!(
            written[0].1, written[1].1,
            "colliding keys must not share a checkpoint file"
        );
        for (_, path) in &written {
            assert!(path.exists(), "{} written", path.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Files a checkpoint left behind under `dir` without publishing them.
    fn tmp_files(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .expect("checkpoint dir")
            .filter(|e| {
                let name = e.as_ref().expect("dir entry").file_name();
                name.to_string_lossy().ends_with(".tmp")
            })
            .count()
    }

    #[test]
    fn concurrent_checkpoints_into_one_directory_each_publish_a_whole_image() {
        let dir = std::env::temp_dir().join(format!(
            "hin-router-ck-concurrent-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let hin = tiny(&[("p0", "ann"), ("p0", "bo"), ("p1", "bo"), ("p1", "cy")]);
        let router = Arc::new(materializing_router());
        router.register("d", Arc::clone(&hin));
        let q = "pathsim author-paper-author from ann";
        let want = router.submit("d", q).wait().unwrap();

        // recency — and with it the order of entries in an image, so every
        // offset — keeps moving under the checkpointers: two images written
        // through one temp file would interleave into neither
        let stop = Arc::new(AtomicBool::new(false));
        let traffic = {
            let (router, stop) = (Arc::clone(&router), Arc::clone(&stop));
            std::thread::spawn(move || {
                let queries = [
                    "pathsim author-paper-author from bo",
                    "rank paper-author limit 3",
                    "pathcount author-paper-author from cy",
                ];
                for q in queries.iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    router.submit("d", *q).wait().expect("live traffic");
                }
            })
        };
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let checkpointers: Vec<_> = (0..4)
            .map(|_| {
                let (router, barrier, dir) =
                    (Arc::clone(&router), Arc::clone(&barrier), dir.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    for round in 0..10 {
                        let written = router
                            .checkpoint(&dir)
                            .unwrap_or_else(|e| panic!("round {round}: {e}"));
                        assert_eq!(written.len(), 1);
                    }
                })
            })
            .collect();
        for t in checkpointers {
            t.join().expect("every checkpoint call returned Ok");
        }
        stop.store(true, Ordering::Relaxed);
        traffic.join().unwrap();

        assert_eq!(tmp_files(&dir), 0, "no temp file outlives its call");
        let file = router.checkpoint(&dir).unwrap().remove(0).1;
        router.evict("d");
        let report = router
            .register_warm_from_file("d", hin, &file)
            .expect("the published file is one whole image")
            .expect("key free after evict");
        assert!(report.loaded > 0);
        assert_eq!(router.stats().datasets[0].1.cache_restore_corrupt, 0);
        assert_eq!(router.submit("d", q).wait().unwrap(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restoring_from_a_file_leaves_nothing_pending_and_drops_what_is_corrupt() {
        let dir = std::env::temp_dir().join(format!(
            "hin-router-sweep-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let hin = tiny(&[("p0", "ann"), ("p0", "bo"), ("p1", "bo"), ("p1", "cy")]);
        let queries = [
            "pathsim author-paper-author from ann",
            "pathsim author-paper-author from cy",
            "rank paper-author limit 3",
            "pathcount paper-author-paper from p0",
        ];
        let router = materializing_router();
        router.register("d", Arc::clone(&hin));
        let want = router.execute_many("d", &queries);
        let good = router.checkpoint(&dir).expect("checkpoint").remove(0).1;
        router.evict("d");

        // a clean file: when the call returns every entry has been checked
        let report = router
            .register_warm_from_file("d", Arc::clone(&hin), &good)
            .unwrap()
            .unwrap();
        let d = router.stats().datasets.remove(0).1;
        assert!(report.loaded >= 2, "{report:?}");
        assert_eq!(d.cache_restore_pending, 0);
        assert_eq!(
            (d.cache_restore_verified, d.cache_restore_corrupt),
            (report.loaded, 0)
        );
        assert_eq!(router.execute_many("d", &queries), want);
        assert_eq!(router.stats().datasets[0].1.cache_misses, 0);
        router.evict("d");

        // one payload byte flipped on disk — the first entry's first value
        let mut image = std::fs::read(&good).unwrap();
        let at = |off: usize| u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
        let data_off = at(at(32) + 40);
        image[data_off] ^= 0x04;
        let bad = dir.join("flipped.hinsnap");
        std::fs::write(&bad, &image).unwrap();

        // it mounts, answers every query correctly, and says what it lost
        let report = router
            .register_warm_from_file("d", Arc::clone(&hin), &bad)
            .expect("metadata and structure are intact")
            .unwrap();
        let d = router.stats().datasets.remove(0).1;
        assert_eq!(d.cache_restore_pending, 0);
        assert_eq!(d.cache_restore_corrupt, 1);
        assert_eq!(d.cache_restore_verified + 1, report.loaded);
        assert_eq!(d.cache_len as u64 + 1, report.loaded, "evicted unread");
        assert_eq!(router.execute_many("d", &queries), want);
        let page = router.stats().render_metrics();
        assert!(page.contains("hin_cache_restore_corrupt_total{dataset=\"d\"} 1\n"));
        assert!(page.contains("hin_cache_restore_pending{dataset=\"d\"} 0\n"));

        // an in-process hand-off carries the verified state along
        let evicted = router.evict("d").unwrap();
        let report = router
            .register_warm("d", hin, evicted.snapshot)
            .expect("key free");
        let d = router.stats().datasets.remove(0).1;
        assert!(report.loaded > 0);
        assert_eq!(
            (d.cache_restore_pending, d.cache_restore_verified),
            (0, 0),
            "nothing to verify, nothing hashed"
        );
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    use crate::{RemoteConfig, ShardListener};

    /// Supervision knobs fast enough for tests: 20ms pings, 2 strikes.
    fn fast_supervision(failover: Option<FailoverConfig>) -> SupervisorConfig {
        SupervisorConfig {
            interval: Duration::from_millis(20),
            ping_timeout: Duration::from_millis(200),
            failure_threshold: 2,
            failover,
        }
    }

    /// Spin until `pred` holds, failing the test after `deadline`.
    fn wait_for(deadline: Duration, what: &str, mut pred: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !pred() {
            assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn remote_shards_route_over_the_wire() {
        let hin = tiny(&[("p0", "ann"), ("p0", "bo")]);
        let listener =
            ShardListener::start(Arc::clone(&hin), ServeConfig::default()).expect("bind");
        let router = Router::default();
        assert!(router.register_remote(
            "far",
            listener.local_addr(),
            RemoteConfig::default(),
            fast_supervision(None),
        ));
        assert!(
            !router.register_remote(
                "far",
                listener.local_addr(),
                RemoteConfig::default(),
                fast_supervision(None),
            ),
            "duplicate keys refused across shard kinds"
        );
        assert!(router.contains("far"));
        assert_eq!(router.len(), 1);

        let got = router
            .submit("far", "pathsim author-paper-author from ann")
            .wait()
            .unwrap();
        assert_eq!(got.items[0].0, "bo");

        // remote shards appear in stats (and metrics) under their own series
        let stats = router.stats();
        assert!(stats.datasets.is_empty());
        assert_eq!(stats.remotes.len(), 1);
        assert_eq!(stats.remotes[0].0, "far");
        assert!(stats.remotes[0].1.healthy);
        assert_eq!(stats.remotes[0].1.stats.served, 1);
        let page = stats.render_metrics();
        assert!(page.contains("hin_shard_health{dataset=\"far\"} 1"));
        assert!(page.contains("hin_retries_total{dataset=\"far\"} 0"));
        assert!(page.contains("hin_circuit_open_total{dataset=\"far\"} 0"));

        // handles and eviction are local-shard concepts
        assert!(router.handle("far").is_none());
        assert!(router.evict("far").is_none());
        assert!(router.contains("far"), "evict leaves remote shards alone");

        let final_stats = router.shutdown();
        assert_eq!(final_stats.remotes.len(), 1);
        assert_eq!(final_stats.remotes[0].1.stats.served, 1);
        listener.shutdown();
    }

    #[test]
    fn unhealthy_remote_sheds_fast_and_recovers_nothing_without_failover() {
        let hin = tiny(&[("p0", "ann"), ("p0", "bo")]);
        let listener =
            ShardListener::start(Arc::clone(&hin), ServeConfig::default()).expect("bind");
        let router = Router::default();
        router.register_remote(
            "far",
            listener.local_addr(),
            RemoteConfig {
                retries: 0,
                connect_timeout: Duration::from_millis(100),
                request_timeout: Duration::from_millis(200),
                ..RemoteConfig::default()
            },
            fast_supervision(None),
        );
        assert!(router
            .submit("far", "pathsim author-paper-author from ann")
            .wait()
            .is_ok());

        listener.kill();
        let _ = listener.shutdown();
        wait_for(Duration::from_secs(10), "unhealthy verdict", || {
            !router.stats().remotes[0].1.healthy
        });

        // graceful degradation: shed instantly, not after a retry schedule
        let t0 = Instant::now();
        let err = router
            .submit("far", "pathsim author-paper-author from ann")
            .wait();
        assert!(matches!(err, Err(QueryError::Unavailable(_))), "{err:?}");
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "unhealthy shard must shed without dialing"
        );
        let stats = router.stats();
        assert!(stats.shed_unhealthy >= 1);
        assert_eq!(stats.failovers, 0, "no failover was configured");
        assert!(stats
            .render_metrics()
            .contains("hin_shard_health{dataset=\"far\"} 0"));
        router.shutdown();
    }

    /// Serve "d" from a remote shard whose failover restores `checkpoint`,
    /// kill the shard, and wait for the supervisor to replace it.
    fn fail_over(
        router: &Router,
        hin: &Arc<Hin>,
        checkpoint: PathBuf,
        q: &str,
        want: &QueryOutput,
    ) {
        let failovers_before = router.stats().failovers;
        let listener = ShardListener::start(
            Arc::clone(hin),
            ServeConfig {
                exec: hin_query::ExecPolicy::promote_after(0),
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        router.register_remote(
            "d",
            listener.local_addr(),
            RemoteConfig {
                retries: 0,
                connect_timeout: Duration::from_millis(100),
                request_timeout: Duration::from_millis(500),
                ..RemoteConfig::default()
            },
            fast_supervision(Some(FailoverConfig {
                hin: Arc::clone(hin),
                checkpoint,
            })),
        );
        assert_eq!(&router.submit("d", q).wait().unwrap(), want);

        // kill the shard: the supervisor must resurrect the dataset as a
        // local server, automatically
        listener.kill();
        let _ = listener.shutdown();
        wait_for(Duration::from_secs(10), "automatic failover", || {
            router.stats().failovers == failovers_before + 1
        });
    }

    #[test]
    fn dead_remote_fails_over_to_a_warm_local_server() {
        let dir = std::env::temp_dir().join(format!(
            "hin-router-failover-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let hin = tiny(&[("p0", "ann"), ("p0", "bo"), ("p1", "bo")]);
        let q = "pathsim author-paper-author from ann";

        // season a local shard, checkpoint it, hand the dataset off to a
        // remote process
        let router = materializing_router();
        router.register("d", Arc::clone(&hin));
        let want = router.submit("d", q).wait().unwrap();
        let written = router.checkpoint(&dir).expect("checkpoint");
        assert_eq!(written.len(), 1);
        router.evict("d");

        fail_over(&router, &hin, written[0].1.clone(), q, &want);

        let stats = router.stats();
        assert!(stats.remotes.is_empty(), "the remote shard was replaced");
        assert_eq!(stats.datasets.len(), 1);
        assert!(
            stats.datasets[0].1.cache_warm_loaded > 0,
            "the replacement warm-started from the checkpoint"
        );
        assert!(
            !stats.failover_ns.is_empty(),
            "time-to-recovery was recorded"
        );
        assert_eq!(stats.failover_restore_errors, 0);
        assert!(stats.render_metrics().contains("hin_failovers_total 1"));
        assert_eq!(
            router.submit("d", q).wait().unwrap(),
            want,
            "the resurrected dataset answers byte-identically"
        );
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_checkpoint_fails_over_cold_and_is_counted() {
        let dir = std::env::temp_dir().join(format!(
            "hin-router-cold-failover-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let hin = tiny(&[("p0", "ann"), ("p0", "bo"), ("p1", "bo")]);
        let q = "pathsim author-paper-author from ann";

        let router = materializing_router();
        router.register("d", Arc::clone(&hin));
        let want = router.submit("d", q).wait().unwrap();
        let good = router.checkpoint(&dir).expect("checkpoint")[0].1.clone();
        router.evict("d");
        let image = std::fs::read(&good).expect("read back");

        // what older builds' writers left behind: same magic, version 1 or 2
        let headed = |version: u32| {
            let path = dir.join(format!("v{version}.hinsnap"));
            let image = [b"HSNP".as_slice(), &version.to_le_bytes(), &image[8..]].concat();
            std::fs::write(&path, image).unwrap();
            path
        };
        let (v1_headed, v2_headed) = (headed(1), headed(2));
        let truncated = dir.join("truncated.hinsnap");
        std::fs::write(&truncated, &image[..image.len() - 16]).unwrap();

        // the explicit recovery path reports the error and registers nothing
        for (version, path) in [(1, &v1_headed), (2, &v2_headed)] {
            let err = router.register_warm_from_file("d", Arc::clone(&hin), path);
            assert!(
                matches!(err, Err(CodecError::UnsupportedVersion(v)) if v == version),
                "{err:?}"
            );
        }
        assert!(router.datasets().is_empty());

        // the automatic one stays available — and says it started cold
        for (n, bad) in [v1_headed, v2_headed, truncated].into_iter().enumerate() {
            let n = n as u64 + 1;
            fail_over(&router, &hin, bad, q, &want);
            let stats = router.stats();
            assert_eq!((stats.failovers, stats.failover_restore_errors), (n, n));
            assert_eq!(
                stats.datasets[0].1.cache_warm_loaded, 0,
                "nothing to warm the replacement from"
            );
            assert!(stats
                .render_metrics()
                .contains(&format!("hin_failover_restore_errors_total {n}\n")));
            assert_eq!(
                router.submit("d", q).wait().unwrap(),
                want,
                "the cold replacement answers byte-identically"
            );
            router.evict("d");
        }
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_roll_up_across_datasets() {
        let router = Router::default();
        router.register("a", tiny(&[("p0", "x"), ("p0", "y")]));
        router.register("b", tiny(&[("p0", "x"), ("p0", "y")]));
        for _ in 0..3 {
            router
                .submit("a", "pathsim author-paper-author from x")
                .wait()
                .unwrap();
        }
        router
            .submit("b", "pathsim author-paper-author from x")
            .wait()
            .unwrap();
        let stats = router.stats();
        assert_eq!(stats.datasets.len(), 2);
        let by_key: HashMap<_, _> = stats
            .datasets
            .iter()
            .map(|(k, s)| (k.as_str(), s))
            .collect();
        assert_eq!(by_key["a"].served, 3);
        assert_eq!(by_key["b"].served, 1);
        assert_eq!(stats.aggregate().served, 4);
        assert_eq!(stats.routed, 4);
    }

    #[test]
    fn metrics_page_keeps_every_family_in_one_group() {
        let hin = tiny(&[("p0", "x"), ("p0", "y")]);
        let listener =
            ShardListener::start(Arc::clone(&hin), ServeConfig::default()).expect("bind");
        let router = Router::default();
        router.register("a", Arc::clone(&hin));
        router.register("b", Arc::clone(&hin));
        router.register_remote(
            "far",
            listener.local_addr(),
            RemoteConfig::default(),
            fast_supervision(None),
        );
        for key in ["a", "b", "far"] {
            router
                .submit(key, "pathsim author-paper-author from x")
                .wait()
                .unwrap();
        }
        let page = router.stats().render_metrics();
        let mut opened = std::collections::HashSet::new();
        let mut family = "";
        for line in page.lines() {
            if let Some(header) = line.strip_prefix("# TYPE ") {
                family = header.split(' ').next().unwrap();
                assert!(opened.insert(family), "{family} opens twice:\n{page}");
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(
                matches!(
                    name.strip_prefix(family),
                    Some("" | "_bucket" | "_sum" | "_count")
                ),
                "`{line}` is not in its family's group (under {family}):\n{page}"
            );
        }
        for ds in ["a", "b", "far"] {
            assert!(page.contains(&format!("hin_shard_health{{dataset=\"{ds}\"}} 1\n")));
        }
        router.shutdown();
        listener.shutdown();
    }

    #[test]
    fn racing_registrations_of_one_key_admit_exactly_one() {
        let hin = tiny(&[("p0", "ann"), ("p0", "bo")]);
        let listener =
            ShardListener::start(Arc::clone(&hin), ServeConfig::default()).expect("bind");
        let router = Arc::new(Router::default());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let racers: Vec<_> = (0..8)
            .map(|i| {
                let (router, barrier) = (Arc::clone(&router), Arc::clone(&barrier));
                let (hin, addr) = (Arc::clone(&hin), listener.local_addr());
                std::thread::spawn(move || {
                    barrier.wait();
                    if i % 2 == 0 {
                        router.register("d", hin)
                    } else {
                        let supervise = fast_supervision(None);
                        router.register_remote("d", addr, RemoteConfig::default(), supervise)
                    }
                })
            })
            .collect();
        let won = racers
            .into_iter()
            .map(|t| t.join().expect("racer"))
            .filter(|&won| won)
            .count();
        assert_eq!(won, 1, "exactly one registration wins");
        assert_eq!(router.len(), 1);
        let stats = Arc::try_unwrap(router)
            .ok()
            .expect("racers joined")
            .shutdown();
        assert_eq!(stats.datasets.len() + stats.remotes.len(), 1);
        listener.shutdown();
    }

    #[test]
    fn a_parked_supervisor_stops_without_waiting_out_its_interval() {
        let hin = tiny(&[("p0", "ann"), ("p0", "bo")]);
        let listener =
            ShardListener::start(Arc::clone(&hin), ServeConfig::default()).expect("bind");
        let router = Router::default();
        let slow = SupervisorConfig {
            interval: Duration::from_secs(10),
            ..SupervisorConfig::default()
        };
        for key in ["gone", "kept"] {
            let addr = listener.local_addr();
            assert!(router.register_remote(key, addr, RemoteConfig::default(), slow.clone()));
        }
        let t0 = Instant::now();
        assert!(router.deregister_remote("gone").is_some());
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "deregister took {took:?}");
        let t0 = Instant::now();
        assert_eq!(router.shutdown().remotes.len(), 1);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        listener.shutdown();
    }
}
