//! The cache's diagonal sidecar under contention: built once per resident
//! matrix, not once per query or per thread.
//!
//! CI runs this file in release mode, like the other `hin-query` stress
//! suites. It is a file of its own so its eight busy threads never share a
//! process with the timing-sensitive herd test in `dedup_stress.rs`.

use std::sync::{Arc, Barrier};

use hin_core::HinBuilder;
use hin_query::{CacheConfig, Engine, ExecPolicy};

/// 8 threads barrier-released onto one resident span, 200 PathSim queries
/// each over rotating anchors, must agree with a single-thread reference
/// and leave `diagonal_builds` at exactly 1.
#[test]
fn concurrent_pathsim_reads_build_the_diagonal_once() {
    let n_authors = 40;
    let mut b = HinBuilder::new();
    let paper = b.add_type("paper");
    let author = b.add_type("author");
    let venue = b.add_type("venue");
    let pa = b.add_relation("written_by", paper, author);
    let pv = b.add_relation("published_in", paper, venue);
    for p in 0..400 {
        let pn = format!("p{p}");
        b.link(pa, &pn, &format!("a{}", p % n_authors), 1.0)
            .unwrap();
        b.link(pa, &pn, &format!("a{}", (p * 13 + 3) % n_authors), 1.0)
            .unwrap();
        b.link(pv, &pn, &format!("v{}", p % 6), 1.0).unwrap();
    }
    let hin = Arc::new(b.build());
    let queries: Vec<String> = (0..n_authors)
        .map(|a| format!("pathsim author-paper-venue-paper-author from a{a}"))
        .collect();

    let eager = || {
        Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::eager(),
        )
    };
    let reference = eager();
    let want: Vec<_> = queries
        .iter()
        .map(|q| reference.execute(q).unwrap())
        .collect();
    assert_eq!(reference.stats().cache.diagonal_builds, 1);

    // make the span resident through a verb that reads no diagonal, so the
    // first PathSim reads — and the one build — happen under contention
    let engine = Arc::new(eager());
    engine
        .execute("pathcount author-paper-venue-paper-author from a0")
        .unwrap();
    assert_eq!(engine.stats().cache.diagonal_builds, 0);

    let n_threads = 8;
    let barrier = Arc::new(Barrier::new(n_threads));
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let queries = queries.clone();
            std::thread::spawn(move || {
                barrier.wait();
                (0..200)
                    .map(|i| {
                        let at = (i * 7 + t) % queries.len();
                        (at, engine.execute(&queries[at]).unwrap())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for h in handles {
        for (at, got) in h.join().expect("query thread") {
            assert_eq!(got, want[at], "{}", queries[at]);
        }
    }
    assert_eq!(
        engine.stats().cache.diagonal_builds,
        1,
        "one resident span, one diagonal — however many threads read it"
    );
}
