//! Stress the sharded cache's in-flight deduplication table under
//! eviction pressure: with compute-once/wait-many enabled, the number of
//! product computations per generation must never exceed the number of
//! distinct keys requested in that generation, no matter how many threads
//! miss the same key concurrently and no matter how hard the byte budget
//! churns entries between generations.
//!
//! CI runs this file in release mode so the interleavings are the
//! optimized ones a production server would see.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use hin_linalg::Csr;
use hin_query::{CacheConfig, MatrixCache};

/// A product big enough that a handful blow the byte budget.
fn product(seed: usize) -> Csr {
    let n = 64u32;
    let triplets = (0..n).map(|i| (i, (i * 7 + seed as u32) % n, 1.0 + seed as f64));
    Csr::from_triplets(n as usize, n as usize, triplets)
}

/// M threads × G generations × K distinct keys, all threads requesting the
/// same key at the same time (barrier per round), against a budget that
/// only fits a couple of entries — so every generation starts from
/// (mostly) evicted state and every round is a concurrent thundering-herd
/// miss. The in-flight table must collapse each herd to one computation.
#[test]
fn concurrent_thrash_computes_each_key_at_most_once_per_generation() {
    let n_threads = 8;
    let generations = 6;
    let distinct_keys = 10usize;

    // budget fits 2 of the 10 products a generation touches: eviction
    // churns constantly, so generations genuinely recompute. One shard, so
    // the budget is not split into slices smaller than a product: the herd's
    // product must stay resident until the barrier releases the next key,
    // or a thread descheduled past the 2 ms computation finds neither an
    // entry nor a claim and rightly computes again.
    let entry_bytes = Arc::new(product(0)).nbytes();
    let cache = Arc::new(MatrixCache::new(CacheConfig {
        shards: 1,
        byte_budget: Some(entry_bytes * 2),
    }));

    let computations = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(n_threads));

    let handles: Vec<_> = (0..n_threads)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let computations = Arc::clone(&computations);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for generation in 0..generations {
                    for k in 0..distinct_keys {
                        // distinct per (generation, k) and never a reversal
                        // of another key, so symmetry reuse can't blur the
                        // accounting
                        let key = [(generation * distinct_keys + k, true)];
                        barrier.wait();
                        let m = cache.get_or_compute(&key, || {
                            computations.fetch_add(1, Ordering::SeqCst);
                            // hold the herd long enough that late arrivals
                            // must coalesce rather than find a warm cache
                            std::thread::sleep(Duration::from_millis(2));
                            product(k)
                        });
                        assert_eq!(m.nnz(), 64, "served product must be the real one");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics under dedup thrash");
    }

    let total = computations.load(Ordering::SeqCst);
    assert!(
        total <= generations * distinct_keys,
        "{total} computations for {generations} generations × {distinct_keys} \
         distinct keys: the in-flight table failed to deduplicate"
    );
    assert_eq!(
        cache.stats().dup_computes,
        0,
        "no computation may finish to find its key already materialized"
    );
    assert!(
        cache.stats().coalesced_waits > 0,
        "with {n_threads} threads barrier-released onto each key, some must \
         have coalesced onto an in-flight computation"
    );
    assert!(
        cache.stats().evictions > 0,
        "a 2-entry budget must evict across {distinct_keys} keys per generation"
    );
    assert!(
        cache.stats().bytes <= entry_bytes * 2,
        "resident bytes must respect the budget under dedup"
    );
}

/// The same property through the engine: many threads running the same
/// expensive query against a cold bounded cache must coalesce at the
/// commuting-matrix level — misses (= products computed) stay at the
/// single-threaded count while every thread still gets the right answer.
#[test]
fn engine_level_dedup_keeps_misses_at_single_thread_count() {
    use hin_core::HinBuilder;
    use hin_query::{Engine, ExecPolicy};

    let mut b = HinBuilder::new();
    let paper = b.add_type("paper");
    let author = b.add_type("author");
    let venue = b.add_type("venue");
    let pa = b.add_relation("written_by", paper, author);
    let pv = b.add_relation("published_in", paper, venue);
    for p in 0..400 {
        let pn = format!("p{p}");
        b.link(pa, &pn, &format!("a{}", p % 40), 1.0).unwrap();
        b.link(pa, &pn, &format!("a{}", (p * 13 + 3) % 40), 1.0)
            .unwrap();
        b.link(pv, &pn, &format!("v{}", p % 6), 1.0).unwrap();
    }
    let hin = Arc::new(b.build());

    // `promote_after(0)` on both engines: every run crosses at once, so
    // every thread promotes and materializes. This test's subject is the
    // materialization path's in-flight dedup, which the anchored fast
    // path would otherwise sidestep (it computes no shared products).
    let reference = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    );
    let q = "pathsim author-paper-venue-paper-author from a0";
    let want = reference.execute(q).unwrap();
    let single_thread_misses = reference.stats().cache.misses;

    let engine = Arc::new(Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    ));
    let n_threads = 8;
    let barrier = Arc::new(Barrier::new(n_threads));
    let handles: Vec<_> = (0..n_threads)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                engine.execute(q).unwrap()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("query thread"), want);
    }
    assert!(
        engine.stats().cache.misses <= single_thread_misses,
        "{} concurrent misses vs {} single-threaded: duplicate SpMM chains ran",
        engine.stats().cache.misses,
        single_thread_misses
    );
    assert_eq!(engine.stats().cache.dup_computes, 0);
}
