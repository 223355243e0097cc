//! Serving meta-path queries from a thread pool.
//!
//! Builds a synthetic DBLP-like world, starts a [`hin::serve::Server`]
//! with a bounded sharded cache, drives it from several client threads,
//! and prints the serving statistics: batches, cache reuse, evictions.
//!
//! Run with: `cargo run --release --example serve`

use std::sync::Arc;
use std::time::Instant;

use hin::query::CacheConfig;
use hin::serve::{ServeConfig, Server};
use hin::synth::DblpConfig;

fn main() {
    let data = DblpConfig {
        n_areas: 3,
        authors_per_area: 50,
        n_papers: 1_200,
        seed: 42,
        ..Default::default()
    }
    .generate();
    println!(
        "network: {} nodes, {} edges",
        data.hin.total_nodes(),
        data.hin.total_edges()
    );

    let server = Server::start(
        Arc::new(data.hin),
        ServeConfig {
            workers: 4,
            batch_max: 32,
            cache: CacheConfig::bounded(4 << 20), // 4 MiB
            ..ServeConfig::default()
        },
    );
    println!("server: 4 workers, 4 MiB bounded cache\n");

    // Several client threads, each with its own cloned handle, submit an
    // overlapping workload and wait for their own results.
    let started = Instant::now();
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let handle = server.handle();
            std::thread::spawn(move || {
                let mut ok = 0usize;
                for a in 0..30 {
                    let anchor = format!("author_a{}_{}", (a + c) % 3, a);
                    // submit a burst, then wait — the in-flight overlap is
                    // what a worker pops as one micro-batch
                    let tickets = [
                        handle.submit(format!(
                            "pathsim author-paper-venue-paper-author from {anchor}"
                        )),
                        handle.submit(format!("topk 5 author-paper-author from {anchor}")),
                        handle.submit(format!("pathcount author-paper-venue from {anchor}")),
                    ];
                    ok += tickets
                        .into_iter()
                        .map(|t| t.wait())
                        .filter(Result::is_ok)
                        .count();
                }
                ok
            })
        })
        .collect();
    let submitted: usize = clients.into_iter().map(|h| h.join().unwrap()).sum();

    // one more query from the main thread, then a ranked summary
    let venues = server
        .submit("rank venue-paper-author limit 5")
        .wait()
        .expect("rank query");
    println!("top venues by author-paper volume:");
    for (name, score) in &venues.items {
        println!("    {score:>8.1}  {name}");
    }

    let stats = server.shutdown();
    println!(
        "\nserved {} queries ({} errors) in {:.1} ms across {} micro-batches (max batch {})",
        stats.served,
        stats.errors,
        started.elapsed().as_secs_f64() * 1e3,
        stats.batches,
        stats.max_batch,
    );
    println!(
        "cache: {} entries / {} KiB resident, {} hits ({} via transpose), {} computed, {} evicted",
        stats.cache_len,
        stats.cache_bytes / 1024,
        stats.cache_hits,
        stats.cache_symmetry_hits,
        stats.cache_misses,
        stats.cache_evictions,
    );
    assert_eq!(submitted, 3 * 30 * 3, "every client query must succeed");
}
