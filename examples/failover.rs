//! Failover with a warm hand-off: evict a serving dataset, carry its
//! commuting-matrix cache across as a snapshot, and re-register a
//! replacement that answers its first query from cache instead of
//! re-paying the SpMM chains.
//!
//! The walkthrough covers all three snapshot paths:
//! 1. `Router::evict` → [`hin::serve::Evicted`] — in-process hand-off,
//! 2. `Router::register_warm` — restoring into a replacement,
//! 3. `Router::checkpoint` — the periodic to-disk variant that survives a
//!    crash, mounted again with `CacheSnapshot::open`.
//!
//! Run with: `cargo run --release --example failover`

use std::sync::Arc;
use std::time::Instant;

use hin::query::CacheSnapshot;
use hin::serve::{Router, RouterConfig, ServeConfig};
use hin::synth::DblpConfig;

fn main() {
    let data = DblpConfig {
        n_areas: 3,
        authors_per_area: 40,
        n_papers: 800,
        seed: 42,
        ..Default::default()
    }
    .generate();
    let hin = Arc::new(data.hin);

    let router = Router::new(RouterConfig {
        stripes: 2,
        serve: ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    });
    assert!(router.register("dblp", Arc::clone(&hin)));

    // warm the dataset with live traffic
    let query = "pathsim author-paper-venue-paper-author from author_a0_0";
    let t = Instant::now();
    let want = router.submit("dblp", query).wait().expect("first query");
    println!(
        "cold first query: {:.3} ms ({} results)",
        t.elapsed().as_secs_f64() * 1e3,
        want.items.len()
    );
    for a in 0..12 {
        let q = format!(
            "pathsim author-paper-venue-paper-author from author_a{}_{a}",
            a % 3
        );
        let _ = router.submit("dblp", q).wait();
    }

    // periodic checkpoint: every live dataset's cache to disk
    let dir = std::env::temp_dir().join(format!("hin-failover-example-{}", std::process::id()));
    let written = router.checkpoint(&dir).expect("checkpoint");
    for (key, path) in &written {
        println!("checkpointed {key} -> {}", path.display());
    }

    // failover: evict (drains in-flight queries) and hand the snapshot to
    // a replacement, which re-takes traffic warm
    let evicted = router.evict("dblp").expect("dblp was registered");
    println!(
        "evicted dblp: served {}, snapshot carries {} matrices ({} KiB)",
        evicted.stats.served,
        evicted.snapshot.len(),
        evicted.snapshot.bytes() / 1024,
    );
    let report = router
        .register_warm("dblp", Arc::clone(&hin), evicted.snapshot)
        .expect("key is free after evict");
    println!(
        "warm start: {} loaded, {} rejected",
        report.loaded, report.rejected
    );
    assert!(report.loaded > 0, "a warm start that loads nothing is cold");

    let t = Instant::now();
    let got = router.submit("dblp", query).wait().expect("warm query");
    println!(
        "warm first query: {:.3} ms (byte-identical: {})",
        t.elapsed().as_secs_f64() * 1e3,
        got == want
    );
    assert_eq!(got, want);

    // crash-style recovery: the same warm start, but from the checkpoint
    // file instead of an in-memory snapshot
    drop(router.evict("dblp").expect("still registered"));
    let snap = CacheSnapshot::open(&written[0].1).expect("open checkpoint");
    let report = router
        .register_warm("dblp", Arc::clone(&hin), snap)
        .expect("key is free after evict");
    assert!(report.loaded > 0 && !report.fingerprint_mismatch);
    let from_disk = router.submit("dblp", query).wait().expect("restored query");
    assert_eq!(from_disk, want);

    let stats = router.shutdown();
    let (_, d) = &stats.datasets[0];
    println!(
        "restored-from-disk server: {} warm entries loaded, {} rejected, {} misses",
        d.cache_warm_loaded, d.cache_warm_rejected, d.cache_misses
    );
    let _ = std::fs::remove_dir_all(&dir);
}
