//! `hin-serve` — a concurrent, multi-dataset serving layer over the
//! meta-path query engine.
//!
//! The SIGMOD'10 thesis only pays off when meta-path queries are cheap
//! enough to serve interactively, to many users, over many networks; this
//! crate is the front end that turns [`Engine`](hin_query::Engine)s into a
//! serving fleet. The architecture is deliberately plain `std`: no async
//! runtime, just threads, one lock-protected queue and a one-shot reply
//! slot per request, because query evaluation is CPU-bound sparse linear
//! algebra — an OS thread per worker *is* the right execution model.
//!
//! ```text
//!  clients ──▶ Router ── register / evict datasets at runtime
//!                │  hash(dataset key) → lock stripe → per-dataset Server
//!                ▼
//!  ┌─ Server (one dataset) ─────────────────────────────────────────┐
//!  │ fair queue (per-client lanes, depth cap → shed `Overloaded`)   │
//!  │        │ round-robin micro-batches, popped by the workers,     │
//!  │        │ or one request taken back by the client waiting on it │
//!  │        ┌──────────────┼──────────────┐                         │
//!  │     worker 0       worker 1  …    worker N-1   (waiter)        │
//!  │        └──────── Arc<Engine> ────────┘                         │
//!  │   (sharded/bounded MatrixCache + in-flight dedup table)        │
//!  └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * **Router** — [`Router`] fronts any number of per-dataset [`Server`]
//!   shards: datasets register and evict at runtime, dataset keys hash
//!   across striped locks, and [`Router::stats`] rolls per-dataset
//!   [`ServerStats`] up into a fleet view. Isolation is the point: each
//!   dataset has its own worker pool, cache budget, and admission control,
//!   so one thrashing dataset cannot evict another's hot products or
//!   starve its clients.
//! * **Admission control & fairness** — [`Server::submit`] admits into a
//!   fair queue: one lane per client handle, drained
//!   round-robin (a flooding client delays its own tail, nobody else's),
//!   with an optional [`ServeConfig::queue_depth`] cap. At the cap,
//!   shedding is longest-queue-drop: the request answered with
//!   [`QueryError`](hin_query::QueryError)`::Overloaded` comes from the
//!   fattest lane, so overload cost lands on the client causing it —
//!   bounded memory and an explicit back-off signal instead of silent
//!   queue growth.
//! * **Micro-batching** — a free worker pops its share of the backlog
//!   (`queued / workers`, rounded up, at most [`ServeConfig::batch_max`])
//!   straight from the fair queue, one request per lane per rotation.
//!   Nothing is buffered between admission and execution, so work that
//!   has not started stays where admission control can see and shed it,
//!   and batch shape (`batches`, `max_batch`) shows operators burstiness.
//! * **Worker pool** — N threads pop the one fair queue for themselves
//!   (work-conserving: a slow query never blocks cheap ones while other
//!   workers idle; one hop from admission to execution) and share one
//!   engine through `Arc`. The engine's
//!   sharded [`MatrixCache`](hin_query::MatrixCache) keeps them from
//!   serializing on a single lock, its byte budget
//!   ([`ServeConfig::cache`]) keeps a long-lived server's memory bounded,
//!   and its per-key **in-flight table** deduplicates concurrent misses
//!   ([`MatrixCache::get_or_compute`](hin_query::MatrixCache::get_or_compute)):
//!   when two workers need the same evicted commuting matrix, one
//!   computes in the key's `OnceLock` cell and the other waits on that
//!   cell for the result (compute-once, wait-many) instead of burning a
//!   core on an identical SpMM chain.
//!   Per-request failures — query errors and even panics — are answered
//!   on that request's ticket and never take a worker down.
//! * **Who runs a request** — a worker that pops it, or the client that
//!   waits for it: [`Ticket::wait`] and [`Ticket::wait_timeout`] take a
//!   request no worker has popped yet back out of its lane, under the
//!   queue's lock (so it runs exactly once), and run it on the waiting
//!   thread through the one function workers run their batches through —
//!   a batch of one, counted in [`ServerStats::waiter_runs`]. A submit
//!   wakes a worker only when no waiter will run the request (a backlog
//!   was already queued, or the lane is a shard connection's), so a solo
//!   request costs no cross-thread wake-up instead of two (a parked worker
//!   woken by the push, the parked waiter woken by the reply); wakes are
//!   counted in [`ServerStats::worker_wakes`]. A lone request runs at its
//!   waiter's wait, its ticket's drop, a later submit that finds it queued,
//!   or shutdown's drain, whichever comes first. A request a worker
//!   already holds is waited for; a shard connection's wait never runs
//!   anything, so a pipelined burst still rides the workers' batches.
//!   Handles and tickets reach the engine weakly: it goes with its
//!   [`Server`], and [`Server::shutdown`] waits out the waiter runs under
//!   way.
//! * **Names made where they are read** — a worker answers node ids
//!   ([`IdOutput`](hin_query::IdOutput)); [`Ticket::wait`] names them on
//!   the waiting thread, so a name is allocated and freed by one thread. A
//!   [`ShardListener`] connection writes the names from its network
//!   straight into the response frame and allocates none.
//! * **Bounded waits** — [`Ticket::wait_timeout`] puts a deadline on any
//!   result instead of blocking forever on a wedged request.
//! * **Telemetry** — with [`TelemetryConfig`] enabled (the default), every
//!   query records per-stage latency (admission, queue wait, dispatch,
//!   plan, execute split by execution mode × cache outcome, end-to-end;
//!   the worker records them as it answers, so none includes naming)
//!   into lock-free histograms surfaced as quantile-queryable snapshots on
//!   [`ServerStats`]; queries past a latency threshold are captured — with
//!   their EXPLAIN plan and stage breakdown — into a bounded slow-query
//!   ring ([`Server::slow_queries`] / [`Router::slow_queries`]); and
//!   [`RouterStats::render_metrics`] renders the whole fleet as a
//!   Prometheus-style text page.
//! * **Snapshot / warm start** — commuting matrices outlive the server
//!   that computed them: [`Router::evict`] drains a dataset and hands its
//!   cache back as a [`CacheSnapshot`](hin_query::CacheSnapshot)
//!   ([`Evicted`]), [`Router::register_warm`] (or
//!   [`ServeConfig::warm_start`]) restores one into a replacement before
//!   it takes traffic, and [`Router::checkpoint`] persists every live
//!   dataset's cache to disk in a versioned, checksummed binary container
//!   (`hin-linalg`'s codec) — so failover costs a restore, not a
//!   re-computation of every hot SpMM chain under live load.
//! * **Cross-process shards & fault tolerance** — [`ShardListener`] puts a
//!   server behind a length-prefixed, checksummed TCP wire protocol
//!   ([`wire`]), and [`Router::register_remote`] fronts it with a
//!   [`RemoteServerHandle`]: [`RemoteConfig::connectors`] pipelined
//!   connections, many requests in flight on each, answers matched to
//!   tickets by request id. The shard admits every frame it has read
//!   before it waits on any answer — each connection on its own fairness
//!   lane — so a pipelined burst rides one micro-batch. Around that:
//!   bounded retries with exponential backoff and deterministic jitter,
//!   end-to-end deadline propagation, a per-shard circuit breaker,
//!   periodic health pings, and — given a checkpoint — **automatic warm
//!   failover** to a local replacement when the shard dies. Recovery
//!   follows four rules: (a) one dead connection is one transport failure,
//!   charged to its oldest owed request, the rest re-sent free; (b) a
//!   submitter only peeks at the breaker, the connection's dial claims the
//!   half-open probe; (c) an idle reader still wakes every
//!   `request_timeout`; (d) an idle connection closing charges nothing.
//!   The [`faultinject`] harness forces drops, stalls, truncations, bit
//!   flips, and mid-request crashes from a seed, so the chaos suite proves
//!   all of the above deterministically.
//!
//! # Quickstart
//!
//! ```
//! use hin_core::HinBuilder;
//! use hin_serve::{ServeConfig, Server};
//!
//! let mut b = HinBuilder::new();
//! let paper = b.add_type("paper");
//! let author = b.add_type("author");
//! let wrote = b.add_relation("written_by", paper, author);
//! b.link(wrote, "net-clus", "sun", 1.0).unwrap();
//! b.link(wrote, "net-clus", "han", 1.0).unwrap();
//! b.link(wrote, "rank-clus", "sun", 1.0).unwrap();
//!
//! let server = Server::start(std::sync::Arc::new(b.build()), ServeConfig {
//!     workers: 2,
//!     queue_depth: Some(1024), // shed (don't queue) past this depth
//!     ..ServeConfig::default()
//! });
//! let ticket = server.submit("pathsim author-paper-author from sun");
//! let peers = ticket.wait().unwrap();
//! assert_eq!(peers.items[0].0, "han");
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.served, 1);
//! ```
//!
//! # Serving several datasets
//!
//! ```
//! use std::sync::Arc;
//! use hin_core::HinBuilder;
//! use hin_serve::Router;
//!
//! let mut b = HinBuilder::new();
//! let paper = b.add_type("paper");
//! let author = b.add_type("author");
//! let wrote = b.add_relation("written_by", paper, author);
//! b.link(wrote, "p", "sun", 1.0).unwrap();
//! b.link(wrote, "p", "han", 1.0).unwrap();
//!
//! let router = Router::default();
//! router.register("dblp", Arc::new(b.build()));
//! let peers = router
//!     .submit("dblp", "pathsim author-paper-author from sun")
//!     .wait()
//!     .unwrap();
//! assert_eq!(peers.items[0].0, "han");
//! let fleet = router.shutdown();
//! assert_eq!(fleet.aggregate().served, 1);
//! ```

pub mod faultinject;
mod queue;
mod remote;
mod router;
mod server;
pub mod wire;

pub use remote::{RemoteConfig, RemoteServerHandle, RemoteStats, ShardListener};
pub use router::{
    Evicted, FailoverConfig, RemoteDatasetStats, Router, RouterConfig, RouterStats,
    SupervisorConfig,
};
pub use server::{
    ServeConfig, Server, ServerHandle, ServerStats, SlowQuery, TelemetryConfig, Ticket, EXEC_MODES,
    EXEC_OUTCOMES,
};
