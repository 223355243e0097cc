//! Failover stress: evict a dataset under load, hand its snapshot to a
//! replacement, and prove the replacement is *warm* — byte-identical
//! answers with strictly fewer cache misses over the first queries than a
//! cold server pays on the same workload.
//!
//! CI runs this file in release mode so the interleavings are the
//! optimized ones a production failover would see.

use std::sync::Arc;

use hin_query::{CacheConfig, Engine};
use hin_serve::{Router, RouterConfig, ServeConfig};
use hin_synth::DblpConfig;

fn world() -> Arc<hin_core::Hin> {
    Arc::new(
        DblpConfig {
            n_areas: 3,
            venues_per_area: 4,
            authors_per_area: 40,
            n_papers: 600,
            seed: 33,
            ..Default::default()
        }
        .generate()
        .hin,
    )
}

/// Overlapping heavy queries: long symmetric paths whose halves are the
/// sub-products a warm snapshot should carry across the failover.
fn workload() -> Vec<String> {
    let mut queries = Vec::new();
    for a in 0..10 {
        let anchor = format!("author_a{}_{}", a % 3, a);
        queries.push(format!(
            "pathsim author-paper-venue-paper-author from {anchor}"
        ));
        queries.push(format!(
            "pathsim author-paper-term-paper-author from {anchor}"
        ));
        queries.push(format!("pathcount author-paper-venue from {anchor}"));
    }
    queries.push("rank venue-paper-author limit 10".to_string());
    queries
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 3,
        batch_max: 8,
        cache: CacheConfig {
            shards: 4,
            byte_budget: None,
        },
        ..ServeConfig::default()
    }
}

/// The heart of the tentpole: evict under load, re-register from the
/// snapshot, and the warm server must (a) answer byte-identically to the
/// single-threaded reference and (b) pay strictly fewer misses over the
/// first N queries than a cold server on the same workload.
#[test]
fn evicted_dataset_re_registers_warm_under_load() {
    let hin = world();
    let queries = workload();
    let reference = Engine::from_arc(Arc::clone(&hin));
    let want: Vec<_> = queries.iter().map(|q| reference.execute(q)).collect();

    let router = Arc::new(Router::new(RouterConfig {
        stripes: 2,
        serve: serve_config(),
    }));
    assert!(router.register("dblp", Arc::clone(&hin)));

    // load phase: client threads hammer the dataset while it is alive…
    let loaders: Vec<_> = (0..4)
        .map(|t| {
            let router = Arc::clone(&router);
            let queries = queries.clone();
            std::thread::spawn(move || {
                for i in 0..queries.len() {
                    let q = &queries[(i + t) % queries.len()];
                    // eviction may race a submit: Canceled is acceptable
                    // mid-failover, a wrong answer never is
                    if let Ok(out) = router.submit("dblp", q.clone()).wait() {
                        assert!(!out.object_type.is_empty());
                    }
                }
            })
        })
        .collect();
    for l in loaders {
        l.join().expect("loader thread");
    }

    // …then the dataset fails over: evict (drains in-flight work) and
    // re-register a replacement from the snapshot
    let evicted = router.evict("dblp").expect("registered");
    assert!(evicted.stats.served > 0, "load phase served queries");
    assert!(!evicted.snapshot.is_empty(), "load warmed the cache");
    let report = router
        .register_warm("dblp", Arc::clone(&hin), evicted.snapshot)
        .expect("key free after evict");
    assert!(report.loaded > 0, "hand-off restored entries: {report:?}");
    assert!(!report.fingerprint_mismatch);

    // a cold control server on the same dataset, same config, no snapshot
    let cold = Router::new(RouterConfig {
        stripes: 2,
        serve: serve_config(),
    });
    assert!(cold.register("dblp", Arc::clone(&hin)));

    let first_n = queries.len();
    let warm_results = router.execute_many("dblp", &queries[..first_n]);
    let cold_results = cold.execute_many("dblp", &queries[..first_n]);

    for ((q, warm), (cold_r, reference)) in queries
        .iter()
        .zip(&warm_results)
        .zip(cold_results.iter().zip(&want))
    {
        assert_eq!(warm, reference, "warm result diverged on {q}");
        assert_eq!(cold_r, reference, "cold result diverged on {q}");
    }

    let warm_stats = router.stats().datasets[0].1.clone();
    let cold_stats = cold.shutdown().datasets[0].1.clone();
    assert!(
        warm_stats.cache_warm_loaded > 0,
        "snapshot entries admitted"
    );
    assert!(
        warm_stats.cache_misses < cold_stats.cache_misses,
        "warm server must recompute strictly less than cold \
         (warm {} vs cold {} misses over the first {first_n} queries)",
        warm_stats.cache_misses,
        cold_stats.cache_misses
    );

    let _ = Arc::try_unwrap(router)
        .map_err(|_| "router still shared")
        .unwrap()
        .shutdown();
}

/// A snapshot must survive the disk round trip mid-failover: checkpoint a
/// live dataset, kill it, restore the file into the replacement.
#[test]
fn checkpoint_file_survives_a_crash_style_failover() {
    let dir = std::env::temp_dir().join(format!("hin-failover-{}", std::process::id()));
    let hin = world();
    let queries = workload();
    let reference = Engine::from_arc(Arc::clone(&hin));
    let want: Vec<_> = queries.iter().map(|q| reference.execute(q)).collect();

    let router = Router::new(RouterConfig {
        stripes: 2,
        serve: serve_config(),
    });
    assert!(router.register("dblp", Arc::clone(&hin)));
    let _ = router.execute_many("dblp", &queries);

    // checkpoint while the server is live and serving
    let written = router.checkpoint(&dir).expect("checkpoint");
    assert_eq!(written.len(), 1);

    // "crash": evict and deliberately drop the in-memory snapshot
    drop(router.evict("dblp").expect("registered"));

    let decodes_before = hin_linalg::arena::heap_decodes();
    let snap = hin_query::CacheSnapshot::open(&written[0].1).expect("open checkpoint");
    assert!(!snap.is_empty());
    if hin_linalg::arena::ZERO_COPY {
        assert_eq!(
            hin_linalg::arena::heap_decodes(),
            decodes_before,
            "a checkpoint restore is one map + zero per-matrix decodes"
        );
        assert_eq!(snap.view_backed(), snap.len(), "every entry is a view");
        assert_eq!(snap.arena_count(), 1, "all views share one arena buffer");
    }
    let loaded = snap.len();
    let report = router
        .register_warm("dblp", Arc::clone(&hin), snap)
        .expect("key free after evict");
    assert_eq!(report.loaded as usize, loaded, "no entry was rejected");
    if hin_linalg::arena::ZERO_COPY {
        assert_eq!(
            report.view_backed, report.loaded,
            "every admitted entry serves straight out of the arena"
        );
    }

    let results = router.execute_many("dblp", &queries);
    for ((q, got), reference) in queries.iter().zip(&results).zip(&want) {
        assert_eq!(got, reference, "restored result diverged on {q}");
    }
    let stats = router.shutdown();
    let d = &stats.datasets[0].1;
    assert_eq!(
        d.cache_warm_loaded as usize, loaded,
        "every entry fit the schema"
    );
    assert_eq!(d.cache_warm_rejected, 0);
    assert_eq!(
        d.cache_misses, 0,
        "a full checkpoint leaves nothing to recompute on a repeated workload"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The file warm-start path: recover a checkpoint through
/// `register_warm_from_file` and the replacement must answer
/// byte-identically to the computed reference — with the restored matrices
/// read out of the mapped file (mapped bytes up, zero per-matrix heap
/// decodes) on hosts where the mapping engages.
#[test]
fn mapped_checkpoint_recovery_answers_byte_identically() {
    let dir = std::env::temp_dir().join(format!("hin-failover-mmap-{}", std::process::id()));
    let hin = world();
    let queries = workload();
    let reference = Engine::from_arc(Arc::clone(&hin));
    let want: Vec<_> = queries.iter().map(|q| reference.execute(q)).collect();

    let router = Arc::new(Router::new(RouterConfig {
        stripes: 2,
        serve: serve_config(),
    }));
    assert!(router.register("dblp", Arc::clone(&hin)));
    let _ = router.execute_many("dblp", &queries);
    let written = router.checkpoint(&dir).expect("checkpoint");
    assert_eq!(written.len(), 1);
    drop(router.evict("dblp").expect("registered"));

    let decodes_before = hin_linalg::arena::heap_decodes();
    let mapped_before = hin_linalg::arena::mapped_restores();
    let report = router
        .register_warm_from_file("dblp", Arc::clone(&hin), &written[0].1)
        .expect("checkpoint file decodes")
        .expect("key free after evict");
    assert!(report.loaded > 0, "mapped warm start admitted entries");
    assert_eq!(report.rejected, 0);
    if cfg!(all(unix, target_pointer_width = "64")) && hin_linalg::arena::ZERO_COPY {
        // process-wide, and every test here restores through a map now
        assert!(
            hin_linalg::arena::mapped_restores() > mapped_before,
            "the checkpoint restored through an mmap"
        );
        assert!(
            hin_linalg::arena::arena_mapped_bytes() > 0,
            "the mapped arena is resident while the server holds views"
        );
        assert_eq!(
            hin_linalg::arena::heap_decodes(),
            decodes_before,
            "no per-matrix heap decode on the mapped path"
        );
        assert_eq!(report.view_backed, report.loaded);
    }

    let results = router.execute_many("dblp", &queries);
    for ((q, got), reference) in queries.iter().zip(&results).zip(&want) {
        assert_eq!(got, reference, "mapped-restore result diverged on {q}");
    }
    let stats = router.stats();
    assert_eq!(
        stats.datasets[0].1.cache_misses, 0,
        "the mapped warm start left nothing to recompute"
    );
    let page = stats.render_metrics();
    assert!(page.contains("hin_storage_mapped_bytes"));
    assert!(page.contains("hin_storage_mapped_restores_total"));

    let _ = Arc::try_unwrap(router)
        .map_err(|_| "router still shared")
        .unwrap()
        .shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the end-to-end benchmark's restart cycle does: restore from a
/// checkpoint file, delete the file while the dataset serves out of its
/// mapping, checkpoint *again* from those orphaned views, and restore that.
/// Answers must be the reference's at every step, nothing may be
/// recomputed, and the last image — streamed out of its predecessor's
/// mapping, three generations on — must carry what the first one did.
#[test]
fn a_checkpoint_unlinked_while_mapped_keeps_serving_and_checkpoints_again() {
    let dir = std::env::temp_dir().join(format!("hin-failover-unlink-{}", std::process::id()));
    let hin = world();
    let queries = workload();
    let reference = Engine::from_arc(Arc::clone(&hin));
    let want: Vec<_> = queries.iter().map(|q| reference.execute(q)).collect();
    let check = |router: &Router, step: &str| {
        let results = router.execute_many("dblp", &queries);
        for ((q, got), reference) in queries.iter().zip(&results).zip(&want) {
            assert_eq!(got, reference, "{step}: diverged on {q}");
        }
    };

    let router = Router::new(RouterConfig {
        stripes: 2,
        serve: serve_config(),
    });
    assert!(router.register("dblp", Arc::clone(&hin)));
    check(&router, "computed");
    let file = router.checkpoint(&dir).expect("checkpoint").remove(0).1;
    let carried = |file: &std::path::Path| {
        let snap = hin_query::CacheSnapshot::open(file).expect("open image");
        let mut keys = snap.keys();
        keys.sort();
        (keys, snap.bytes(), std::fs::metadata(file).unwrap().len())
    };
    let first = carried(&file);

    for cycle in 0..3 {
        drop(router.evict("dblp").expect("registered"));
        let report = router
            .register_warm_from_file("dblp", Arc::clone(&hin), &file)
            .expect("checkpoint file decodes")
            .expect("key free after evict");
        assert!(report.loaded > 0 && report.rejected == 0, "{report:?}");
        std::fs::remove_file(&file).expect("unlink the mapped checkpoint");
        check(&router, &format!("cycle {cycle}, file unlinked"));

        let again = router
            .checkpoint(&dir)
            .expect("checkpoint from orphaned views");
        assert_eq!(again[0].1, file, "same dataset, same file name");
        check(&router, &format!("cycle {cycle}, checkpointed again"));
        let d = &router.stats().datasets[0].1;
        assert_eq!(d.cache_misses, 0, "cycle {cycle}: nothing recomputed");
        // every matrix was proved; no span of this world is factored, so
        // every stored row is of a span whose matrix the image carries,
        // and the image holds no ranked-rows entry
        assert_eq!(d.cache_restore_corrupt, 0, "cycle {cycle}");
        assert_eq!(d.cache_restore_verified, report.loaded, "cycle {cycle}");
    }
    // entry order follows recency, which three workers do not reproduce;
    // what is carried does not change
    assert_eq!(carried(&file), first);
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every way a checkpoint gets into a server proves each entry's values
/// before the entry goes in: with one payload byte flipped on disk, each
/// door reports the entry rejected and corrupt by the time it returns, the
/// damaged span is not resident, and the answers are the undamaged ones.
#[test]
fn every_restore_door_proves_at_import() {
    use std::time::{Duration, Instant};

    use hin_query::{CacheSnapshot, ExecPolicy};
    use hin_serve::{
        FailoverConfig, RemoteConfig, RemoteServerHandle, Server, ServerStats, ShardListener,
        SupervisorConfig,
    };

    let dir = std::env::temp_dir().join(format!("hin-failover-doors-{}", std::process::id()));
    let hin = world();
    // no span here is factored, so the image carries matrices only
    let queries = [
        "pathsim author-paper-author from author_a0_0",
        "pathcount author-paper-venue from author_a1_1",
        "pathsim venue-paper-venue from venue_a2_0",
        "rank venue-paper-author limit 10",
    ];
    let reference = Engine::from_arc(Arc::clone(&hin));
    let want: Vec<_> = queries.iter().map(|q| reference.execute(q)).collect();
    let config = ServeConfig {
        exec: ExecPolicy::promote_after(0),
        ..serve_config()
    };
    let router = Router::new(RouterConfig {
        stripes: 2,
        serve: config.clone(),
    });
    assert!(router.register("dblp", Arc::clone(&hin)));
    assert_eq!(router.execute_many("dblp", &queries), want);
    let good = router.checkpoint(&dir).expect("checkpoint").remove(0).1;
    drop(router.evict("dblp").expect("registered"));

    // one payload byte of directory entry 0 flipped
    let mut image = std::fs::read(&good).expect("read back");
    let word = |off: usize| u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
    let entry = word(32);
    assert!(word(entry + 16) > 0, "entry 0 carries values");
    let data_off = word(entry + 40);
    image[data_off] ^= 0x04;
    let bad = dir.join("flipped.hinsnap");
    std::fs::write(&bad, &image).expect("write the damaged copy");
    let mounted = CacheSnapshot::open(&bad).expect("metadata and structure are intact");
    let (total, damaged) = (mounted.len() as u64, mounted.keys()[0].clone());
    assert!(total >= 2 && mounted.ranked_rows() == 0, "{mounted:?}");

    // what each door must show when it returns
    let proved = |door: &str, stats: &ServerStats, loaded: u64, rejected: u64| {
        assert_eq!((loaded, rejected), (total - 1, 1), "{door}");
        assert_eq!(stats.cache_restore_corrupt, 1, "{door}");
        assert_eq!(stats.cache_restore_verified, loaded, "{door}");
        assert_eq!(stats.cache_warm_rejected, 1, "{door}");
        assert_eq!(stats.cache_len as u64, loaded, "{door}");
    };
    let resident = |router: &Router| {
        let file = router.checkpoint(dir.join("resident")).expect("checkpoint");
        CacheSnapshot::open(&file[0].1).expect("reopen").keys()
    };
    let answers = |door: &str, got: Vec<_>| {
        for ((q, got), want) in queries.iter().zip(got).zip(&want) {
            assert_eq!(&got, want, "{door}: {q}");
        }
    };

    // `Router::register_warm`, image mounted by the caller
    let report = router
        .register_warm("dblp", Arc::clone(&hin), mounted)
        .expect("key free");
    let stats = router.stats().datasets.remove(0).1;
    proved("register_warm", &stats, report.loaded, report.rejected);
    assert!(!resident(&router).contains(&damaged), "register_warm");
    answers("register_warm", router.execute_many("dblp", &queries));
    drop(router.evict("dblp").expect("registered"));

    // `Router::register_warm_from_file`
    let report = router
        .register_warm_from_file("dblp", Arc::clone(&hin), &bad)
        .expect("mounts")
        .expect("key free");
    let stats = router.stats().datasets.remove(0).1;
    proved("from_file", &stats, report.loaded, report.rejected);
    assert!(!resident(&router).contains(&damaged), "from_file");
    answers("from_file", router.execute_many("dblp", &queries));
    drop(router.evict("dblp").expect("registered"));

    // a bare `Server::start` with a warm start
    let server = Server::start(
        Arc::clone(&hin),
        ServeConfig {
            warm_start: Some(Arc::new(CacheSnapshot::open(&bad).expect("mounts"))),
            ..config.clone()
        },
    );
    let report = server.warm_import().expect("a warm start was configured");
    proved(
        "warm_start",
        &server.stats(),
        report.loaded,
        report.rejected,
    );
    let keys = server.engine().snapshot(None).keys();
    assert!(!keys.contains(&damaged), "warm_start");
    answers("warm_start", server.execute_many(&queries));
    server.shutdown();

    // the remote `Warm` message
    let listener = ShardListener::start(Arc::clone(&hin), config.clone()).expect("bind");
    let remote = RemoteServerHandle::connect(listener.local_addr(), RemoteConfig::default());
    let (loaded, rejected) = remote
        .warm(&image, Duration::from_secs(10))
        .expect("warm round trip");
    proved("Warm", &listener.stats(), loaded, rejected);
    let tickets: Vec<_> = queries.iter().map(|q| remote.submit(*q)).collect();
    answers("Warm", tickets.into_iter().map(|t| t.wait()).collect());
    remote.shutdown();
    listener.shutdown();

    // failover of a dead remote shard onto the damaged checkpoint
    let listener = ShardListener::start(Arc::clone(&hin), config).expect("bind");
    assert!(router.register_remote(
        "dblp",
        listener.local_addr(),
        RemoteConfig {
            retries: 0,
            connect_timeout: Duration::from_millis(100),
            request_timeout: Duration::from_millis(500),
            ..RemoteConfig::default()
        },
        SupervisorConfig {
            interval: Duration::from_millis(20),
            ping_timeout: Duration::from_millis(200),
            failure_threshold: 2,
            failover: Some(FailoverConfig {
                hin: Arc::clone(&hin),
                checkpoint: bad.clone(),
            }),
        },
    ));
    listener.kill();
    drop(listener.shutdown());
    let t0 = Instant::now();
    while router.stats().failovers == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "no failover");
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = router.stats().datasets.remove(0).1;
    proved(
        "failover",
        &stats,
        stats.cache_warm_loaded,
        stats.cache_warm_rejected,
    );
    assert!(!resident(&router).contains(&damaged), "failover");
    answers("failover", router.execute_many("dblp", &queries));
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
