//! Multi-threaded stress tests for the serving layer: many client threads
//! hammering one server (and one shared sharded/bounded cache) must get
//! byte-identical answers to a single-threaded reference engine.
//!
//! CI runs this file in release mode so the interleavings are the
//! optimized ones a production server would see.

use std::sync::Arc;

use hin_query::{CacheConfig, Engine, QueryError};
use hin_serve::{Router, RouterConfig, ServeConfig, Server};
use hin_synth::DblpConfig;

fn world() -> Arc<hin_core::Hin> {
    Arc::new(
        DblpConfig {
            n_areas: 3,
            venues_per_area: 4,
            authors_per_area: 40,
            n_papers: 600,
            seed: 21,
            ..Default::default()
        }
        .generate()
        .hin,
    )
}

/// An overlapping workload: symmetric paths, their halves, reversals and
/// ranks, across a set of anchors — plus a sprinkling of invalid queries
/// whose errors must stay per-request.
fn workload() -> Vec<String> {
    let mut queries = Vec::new();
    for a in 0..12 {
        let anchor = format!("author_a{}_{}", a % 3, a);
        queries.push(format!(
            "pathsim author-paper-venue-paper-author from {anchor}"
        ));
        queries.push(format!("pathsim author-paper-author from {anchor}"));
        queries.push(format!("pathcount author-paper-venue from {anchor}"));
        queries.push(format!("topk 3 author-paper-author from {anchor}"));
    }
    queries.push("rank venue-paper-author limit 10".to_string());
    queries.push("pathcount venue-paper-author from venue_a0_0 limit 10".to_string());
    queries.push("pathsim author-paper-author from nobody".to_string()); // UnknownNode
    queries.push("rank author-conference".to_string()); // UnknownName
    queries
}

/// M client threads × K overlapping queries against one server: every
/// result must equal the single-threaded reference.
#[test]
fn threaded_results_match_single_threaded_reference() {
    let hin = world();
    let queries = workload();

    let reference = Engine::from_arc(Arc::clone(&hin));
    let want: Vec<_> = queries.iter().map(|q| reference.execute(q)).collect();

    let server = Server::start(
        Arc::clone(&hin),
        ServeConfig {
            workers: 4,
            batch_max: 16,
            cache: CacheConfig::default(),
            ..ServeConfig::default()
        },
    );

    let m_threads = 6;
    let rounds = 3;
    let handles: Vec<_> = (0..m_threads)
        .map(|t| {
            let handle = server.handle();
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                for r in 0..rounds {
                    // each thread walks the workload at a different offset
                    // so distinct queries overlap in flight
                    for i in 0..queries.len() {
                        let idx = (i + t * 7 + r * 3) % queries.len();
                        got.push((idx, queries[idx].clone()));
                    }
                }
                let tickets: Vec<_> = got.iter().map(|(_, q)| handle.submit(q.clone())).collect();
                got.into_iter()
                    .zip(tickets)
                    .map(|((idx, _), ticket)| (idx, ticket.wait()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for h in handles {
        for (idx, result) in h.join().expect("client thread must not panic") {
            assert_eq!(
                result, want[idx],
                "concurrent result diverged from reference on `{}`",
                queries[idx]
            );
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.served as usize, m_threads * rounds * queries.len());
    assert_eq!(
        stats.errors as usize,
        m_threads * rounds * 2,
        "exactly the two invalid queries error, every round"
    );
    assert!(stats.cache_hits > 0, "overlap must be served from cache");
}

/// Micro-batching coalesces what is in flight where the server guarantees
/// it: the one worker is parked, and one handle submits twice before any
/// wait. The first submit is left to its waiter, the second finds it
/// queued and wakes the worker, whose pop takes its share of the backlog —
/// both — before either ticket is waited on.
#[test]
fn requests_in_flight_before_any_wait_coalesce_into_one_batch() {
    let hin = world();
    let queries = workload();
    let reference = Engine::from_arc(Arc::clone(&hin));
    let server = Server::start(
        Arc::clone(&hin),
        ServeConfig {
            workers: 1,
            batch_max: 16,
            ..ServeConfig::default()
        },
    );
    // a worker still starting up is awake and would pop the first alone
    std::thread::sleep(std::time::Duration::from_millis(50));
    let handle = server.handle();
    let pair = [&queries[0], &queries[queries.len() - 2]];
    let tickets = pair.map(|q| handle.submit(q.as_str()));
    // no wait until the worker has popped both: a waiter would take its own
    while server.queue_depth() > 0 {
        std::thread::yield_now();
    }
    for (q, ticket) in pair.into_iter().zip(tickets) {
        assert_eq!(ticket.wait(), reference.execute(q), "{q}");
    }
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.waiter_runs), (2, 0));
    assert!(
        stats.max_batch >= 2 && stats.batches < stats.served,
        "micro-batching must coalesce in-flight requests \
         ({} batches of at most {} for {} queries)",
        stats.batches,
        stats.max_batch,
        stats.served
    );
}

/// Same workload against a deliberately tiny cache budget: eviction churns
/// constantly (planner prices spans that vanish before execution — the old
/// `debug_assert!(false)` path) and results must still match the
/// reference, with memory staying under budget.
#[test]
fn eviction_under_concurrency_stays_correct_and_bounded() {
    let hin = world();
    let queries = workload();

    let reference = Engine::from_arc(Arc::clone(&hin));
    let want: Vec<_> = queries.iter().map(|q| reference.execute(q)).collect();

    // Unbounded, this workload keeps two products, a span and its mirror
    // (7 172 B and 8 036 B). With two shards or more they never share a
    // slice, so no budget that admits both can churn; one shard of 12 KiB
    // holds either but not both, and they take turns.
    let budget = 12 * 1024;
    let server = Server::start(
        Arc::clone(&hin),
        ServeConfig {
            workers: 4,
            batch_max: 16,
            cache: CacheConfig {
                shards: 1,
                byte_budget: Some(budget),
            },
            ..ServeConfig::default()
        },
    );

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let handle = server.handle();
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                for r in 0..2 {
                    for i in 0..queries.len() {
                        let idx = (i * 5 + t + r) % queries.len();
                        got.push((idx, handle.submit(queries[idx].clone()).wait()));
                    }
                }
                got
            })
        })
        .collect();

    for h in handles {
        for (idx, result) in h.join().expect("client thread must not panic") {
            assert_eq!(
                result, want[idx],
                "bounded-cache result diverged on `{}`",
                queries[idx]
            );
        }
    }

    let stats = server.shutdown();
    assert!(
        stats.cache_evictions > 0,
        "a {budget}-byte budget must evict on this workload"
    );
    assert!(
        stats.cache_bytes <= budget,
        "resident {} bytes exceeds the {budget}-byte budget",
        stats.cache_bytes
    );
    assert_eq!(
        stats.cache_dup_computes, 0,
        "the in-flight table must prevent duplicate concurrent computations \
         even while eviction churns"
    );
}

/// A multi-dataset router under concurrent clients: every dataset's
/// results must be byte-identical to that dataset's own single-threaded
/// reference engine, with no cross-dataset leakage, while both servers'
/// bounded caches churn.
#[test]
fn router_results_match_per_dataset_references() {
    // two genuinely different worlds under the same schema
    let worlds: Vec<(String, Arc<hin_core::Hin>)> = [(11u64, "dblp-a"), (29, "dblp-b")]
        .into_iter()
        .map(|(seed, key)| {
            (
                key.to_string(),
                Arc::new(
                    DblpConfig {
                        n_areas: 3,
                        venues_per_area: 4,
                        authors_per_area: 40,
                        n_papers: 500,
                        seed,
                        ..Default::default()
                    }
                    .generate()
                    .hin,
                ),
            )
        })
        .collect();
    let queries = workload();

    let references: Vec<Vec<_>> = worlds
        .iter()
        .map(|(_, hin)| {
            let engine = Engine::from_arc(Arc::clone(hin));
            queries.iter().map(|q| engine.execute(q)).collect()
        })
        .collect();

    let router = Arc::new(Router::new(RouterConfig {
        stripes: 2,
        serve: ServeConfig {
            workers: 3,
            batch_max: 16,
            cache: CacheConfig {
                shards: 4,
                byte_budget: Some(32 * 1024),
            },
            ..ServeConfig::default()
        },
    }));
    for (key, hin) in &worlds {
        assert!(router.register(key.clone(), Arc::clone(hin)));
    }

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let router = Arc::clone(&router);
            let queries = queries.clone();
            let keys: Vec<String> = worlds.iter().map(|(k, _)| k.clone()).collect();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                for r in 0..2 {
                    for i in 0..queries.len() {
                        let idx = (i * 3 + t + r) % queries.len();
                        // alternate datasets so both servers are hot at once
                        let d = (i + t) % keys.len();
                        got.push((d, idx, router.submit(&keys[d], queries[idx].clone()).wait()));
                    }
                }
                got
            })
        })
        .collect();
    for h in handles {
        for (d, idx, result) in h.join().expect("client thread must not panic") {
            assert_eq!(
                result, references[d][idx],
                "dataset {} diverged from its reference on `{}`",
                worlds[d].0, queries[idx]
            );
        }
    }

    let stats = router.stats();
    assert_eq!(stats.routed, 4 * 2 * queries.len() as u64);
    assert_eq!(stats.misrouted, 0);
    let fleet = Arc::try_unwrap(router)
        .map_err(|_| "router still shared")
        .unwrap()
        .shutdown();
    assert_eq!(fleet.datasets.len(), 2);
    let total = fleet.aggregate();
    assert_eq!(total.served, 4 * 2 * queries.len() as u64);
    assert_eq!(
        total.cache_dup_computes, 0,
        "no duplicate concurrent computations across either dataset"
    );
}

/// Overload a capped queue from many flooding clients: excess demand must
/// shed with `Overloaded` (not queue without bound), every admitted query
/// must still answer correctly, and accounting must balance exactly.
#[test]
fn overload_sheds_and_admitted_queries_stay_correct() {
    let hin = world();
    let reference = Engine::from_arc(Arc::clone(&hin));
    let q = "pathsim author-paper-venue-paper-author from author_a0_0";
    let want = reference.execute(q);

    let server = Arc::new(Server::start(
        Arc::clone(&hin),
        ServeConfig {
            workers: 2,
            batch_max: 4,
            queue_depth: Some(8),
            cache: CacheConfig::bounded(32 * 1024),
            ..ServeConfig::default()
        },
    ));

    let per_client = 150usize;
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let handle = server.handle();
            let want = want.clone();
            std::thread::spawn(move || {
                // burst-submit, then wait: the queue sees the full flood
                let tickets: Vec<_> = (0..per_client).map(|_| handle.submit(q)).collect();
                let mut ok = 0u64;
                let mut shed = 0u64;
                for t in tickets {
                    match t.wait() {
                        Ok(out) => {
                            ok += 1;
                            assert_eq!(Ok(out), want, "admitted result diverged");
                        }
                        Err(QueryError::Overloaded) => shed += 1,
                        Err(e) => panic!("unexpected error under overload: {e}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();

    let (mut ok, mut shed) = (0u64, 0u64);
    for c in clients {
        let (o, s) = c.join().expect("client thread");
        ok += o;
        shed += s;
    }
    assert_eq!(ok + shed, 4 * per_client as u64);
    assert!(
        shed > 0,
        "a 600-query flood over a depth cap of 8 must shed"
    );
    assert!(ok > 0, "admission control must still serve admitted work");

    let stats = Arc::try_unwrap(server)
        .map_err(|_| "server still shared")
        .unwrap()
        .shutdown();
    assert_eq!(stats.served, ok);
    assert_eq!(stats.shed, shed);
}
