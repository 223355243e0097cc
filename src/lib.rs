//! # hin — heterogeneous information network analysis
//!
//! A Rust reproduction of the system family surveyed in *"Mining Knowledge
//! from Databases: An Information Network Analysis Approach"* (Han, Sun,
//! Yan, Yu — SIGMOD 2010): databases viewed as multi-typed information
//! networks, and the knowledge-mining algorithms that view enables.
//!
//! The facade re-exports every subsystem crate:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | typed network values, builders, schema, bipartite/star views |
//! | [`linalg`] | dense/CSR matrices, Jacobi & Lanczos eigensolvers |
//! | [`relational`] | mini relational engine + DB→network extraction |
//! | [`stats`] | density, centrality, components, power laws, densification |
//! | [`ranking`] | PageRank, Personalized PageRank, HITS, authority ranking |
//! | [`similarity`] | SimRank, PPR similarity, meta-paths, PathSim |
//! | [`query`] | meta-path query engine: parser, cost-based planner, commuting-matrix cache with in-flight work dedup |
//! | [`serve`] | concurrent serving layer: multi-dataset router, admission-controlled fair queue, worker pools |
//! | [`telemetry`] | lock-free latency histograms, bounded ring logs, Prometheus-style metrics exposition |
//! | [`clustering`] | k-means, spectral, SCAN, agglomerative + NMI/ARI/F1 |
//! | [`rankclus`] | RankClus (EDBT'09) |
//! | [`netclus`] | NetClus (KDD'09) |
//! | [`cleaning`] | TruthFinder, DISTINCT, reconciliation |
//! | [`classify`] | GNetMine-style propagation, wvRN baseline |
//! | [`crossclus`] | CrossClus user-guided multi-relational clustering |
//! | [`olap`] | network cubes: roll-up, slice, per-cell measures |
//! | [`synth`] | DBLP/Flickr/claims/planted-partition generators |
//!
//! ## Quickstart
//!
//! Cluster venues of a bibliographic network while ranking authors within
//! each cluster:
//!
//! ```
//! use hin::synth::DblpConfig;
//! use hin::rankclus::{rankclus, RankClusConfig};
//!
//! let data = DblpConfig { n_papers: 400, seed: 7, ..Default::default() }.generate();
//! let net = data.venue_author_binet();
//! let result = rankclus(&net, &RankClusConfig { k: 4, ..Default::default() });
//!
//! assert_eq!(result.assignments.len(), net.nx);
//! // every cluster carries a rank distribution over authors
//! for ranks in &result.attr_rank {
//!     assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-6);
//! }
//! ```
//!
//! Or query the same network directly — the engine parses meta-path
//! queries, plans the sparse matrix-chain products, and caches every
//! commuting matrix it computes:
//!
//! ```
//! use hin::{query::Engine, synth::DblpConfig};
//!
//! let data = DblpConfig { n_papers: 300, seed: 7, ..Default::default() }.generate();
//! let engine = Engine::new(data.hin);
//! let peers = engine.execute("topk 5 author-paper-venue-paper-author from author_a0_0").unwrap();
//! assert!(peers.items.len() <= 5);
//! // anchored queries cost-route to sparse-row propagation; unanchored
//! // ones materialize commuting matrices into the cache
//! let stats = engine.stats();
//! assert!(stats.cache.misses + stats.anchored_fast_paths > 0);
//! ```
//!
//! ## Serving quickstart
//!
//! To serve queries from many threads, wrap the dataset in a
//! [`serve::Server`]: an admission-controlled fair request queue (one
//! round-robin lane per client handle, optional depth cap that sheds
//! overload with `QueryError::Overloaded`) is popped, a micro-batch at a
//! time, by a worker pool sharing one engine — and one
//! sharded commuting-matrix cache, optionally bounded by a byte budget so
//! a long-lived server's memory stays fixed, with a per-key in-flight
//! table so concurrent misses on one product compute it once and wait
//! many:
//!
//! ```
//! use std::sync::Arc;
//! use hin::query::CacheConfig;
//! use hin::serve::{ServeConfig, Server};
//! use hin::synth::DblpConfig;
//!
//! let data = DblpConfig { n_papers: 300, seed: 7, ..Default::default() }.generate();
//! let server = Server::start(Arc::new(data.hin), ServeConfig {
//!     workers: 2,
//!     queue_depth: Some(1024),               // shed, don't queue, past this
//!     cache: CacheConfig::bounded(16 << 20), // 16 MiB across shards
//!     ..ServeConfig::default()
//! });
//!
//! // hand each client its own handle (= its own fairness lane)…
//! let handle = server.handle();
//! let ticket = handle.submit("topk 5 author-paper-author from author_a0_0");
//! assert!(ticket.wait().is_ok());
//!
//! // …or drive a whole batch and collect ordered results
//! let results = server.execute_many(&[
//!     "pathsim author-paper-author from author_a0_0",
//!     "rank venue-paper-author limit 3",
//! ]);
//! assert!(results.iter().all(|r| r.is_ok()));
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.served, 3);
//! ```
//!
//! To serve **many datasets from one process**, front the servers with a
//! [`serve::Router`]: datasets register and evict at runtime, each behind
//! its own worker pool, cache budget, and admission control, and
//! per-dataset statistics roll up into one fleet view:
//!
//! ```
//! use std::sync::Arc;
//! use hin::serve::Router;
//! use hin::synth::DblpConfig;
//!
//! let router = Router::default();
//! for (key, seed) in [("dblp-a", 7), ("dblp-b", 13)] {
//!     let data = DblpConfig { n_papers: 200, seed, ..Default::default() }.generate();
//!     assert!(router.register(key, Arc::new(data.hin)));
//! }
//! let peers = router
//!     .submit("dblp-b", "topk 5 author-paper-author from author_a0_0")
//!     .wait();
//! assert!(peers.is_ok());
//!
//! let fleet = router.shutdown();
//! assert_eq!(fleet.aggregate().served, 1);
//! ```

pub use hin_classify as classify;
pub use hin_cleaning as cleaning;
pub use hin_clustering as clustering;
pub use hin_core as core;
pub use hin_crossclus as crossclus;
pub use hin_linalg as linalg;
pub use hin_netclus as netclus;
pub use hin_olap as olap;
pub use hin_query as query;
pub use hin_rankclus as rankclus;
pub use hin_ranking as ranking;
pub use hin_relational as relational;
pub use hin_serve as serve;
pub use hin_similarity as similarity;
pub use hin_stats as stats;
pub use hin_synth as synth;
pub use hin_telemetry as telemetry;
