//! Telemetry integration tests: the slow-query log, stat-merge edge
//! semantics, and the Prometheus metrics page.
//!
//! The slow-query capture test carries extra assertions under
//! `cfg(not(debug_assertions))` — CI runs this suite in release mode,
//! where warm-path latencies are stable enough to check the threshold
//! filters as well as captures.

use std::sync::Arc;
use std::time::Duration;

use hin_core::Hin;
use hin_query::ExecPolicy;
use hin_serve::{
    Router, RouterConfig, RouterStats, ServeConfig, Server, ServerStats, TelemetryConfig,
    EXEC_MODES, EXEC_OUTCOMES,
};
use hin_synth::DblpConfig;
use hin_telemetry::{HistSnapshot, Histogram};

fn world(n_papers: usize) -> Arc<Hin> {
    Arc::new(
        DblpConfig {
            n_areas: 4,
            authors_per_area: 60,
            n_papers,
            noise: 0.05,
            seed: 41,
            ..Default::default()
        }
        .generate()
        .hin,
    )
}

fn snap(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn slow_query_log_captures_plan_and_stage_breakdown() {
    // Under promote_after(0) the first anchored query pays the whole SpMM
    // chain — artificially slow relative to a 200 µs threshold (the cold
    // chain takes ≥ half a millisecond even in release on this dataset).
    // The span is not symmetric, so it promotes: a symmetric one as large
    // (A-P-V-P-A) is factored and read through its halves, never whole.
    let server = Server::start(
        world(800),
        ServeConfig {
            workers: 2,
            exec: ExecPolicy::promote_after(0),
            telemetry: TelemetryConfig {
                enabled: true,
                slow_query: Duration::from_micros(200),
                slow_log: 8,
            },
            ..ServeConfig::default()
        },
    );
    let heavy = "pathcount author-paper-venue-paper-term from author_a0_0";
    server.submit(heavy).wait().expect("cold heavy query");
    // warm repeat: same query, now a pure cache hit, far under threshold
    server.submit(heavy).wait().expect("warm repeat");

    // Capture lands *after* the reply is sent (the client never waits on
    // its own autopsy), so read the log through a handle after shutdown —
    // workers are joined, every capture is complete.
    let handle = server.handle();
    let stats = server.shutdown();
    let slow = handle.slow_queries();
    let entry = slow
        .iter()
        .find(|s| s.query == heavy && s.outcome == "miss_compute")
        .expect("the cold heavy query must be captured");
    assert!(
        entry.plan.contains("flops"),
        "capture carries the EXPLAIN plan with cost estimates, got: {:?}",
        entry.plan
    );
    assert_eq!(entry.mode, "full", "the first run materializes");
    assert_eq!(entry.outcome, "miss_compute", "cold chain computes");
    assert!(entry.exec_ns > 0, "execute stage timed");
    assert!(entry.plan_ns > 0, "plan stage timed");
    assert!(
        entry.total_ns >= entry.exec_ns,
        "stage breakdown nests inside the total"
    );

    // Release mode only: warm-path execution is stable enough to assert the
    // threshold *filters* what it should. The warm repeat's total can still
    // cross it — a late worker wake-up lands in its queue wait — so
    // anything else captured must be that repeat, a cache hit whose own
    // execution stayed under the threshold.
    #[cfg(not(debug_assertions))]
    for other in slow.iter().filter(|s| !std::ptr::eq(*s, entry)) {
        assert_eq!(
            other.outcome, "hit",
            "only the cold query computes: {other:?}"
        );
        assert!(
            other.exec_ns < 200_000,
            "the warm repeat executes under the threshold: {other:?}"
        );
    }

    assert_eq!(stats.slow_queries, slow.len() as u64);
}

#[test]
fn disabled_telemetry_records_nothing() {
    let server = Server::start(
        world(300),
        ServeConfig {
            telemetry: TelemetryConfig {
                enabled: false,
                slow_query: Duration::ZERO,
                slow_log: 8,
            },
            ..ServeConfig::default()
        },
    );
    server
        .submit("pathsim author-paper-author from author_a0_0")
        .wait()
        .expect("query");
    assert!(server.slow_queries().is_empty());
    let stats = server.shutdown();
    assert_eq!(stats.served, 1);
    assert!(stats.e2e_ns.is_empty());
    assert!(stats.queue_wait_ns.is_empty());
    assert!(stats.exec_ns.iter().flatten().all(HistSnapshot::is_empty));
    assert_eq!(stats.slow_queries, 0);
}

#[test]
fn merge_edge_semantics() {
    let a = ServerStats {
        served: 10,
        max_batch: 7,
        workers: 4,
        queue_depth: 3,
        cache_len: 5,
        cache_bytes: 1000,
        lane_depths: vec![(1, 2), (2, 0)],
        queue_wait_ns: snap(&[100, 200]),
        slow_queries: 2,
        cache_diagonal_builds: 2,
        promotions_refused: 30,
        cache_inserts_refused: 4,
        cache_refused_bytes: 9_000,
        cache_restore_verified: 6,
        cache_restore_corrupt: 1,
        ..ServerStats::default()
    };
    let b = ServerStats {
        served: 5,
        max_batch: 3,
        workers: 2,
        queue_depth: 1,
        cache_len: 2,
        cache_bytes: 400,
        lane_depths: vec![(1, 9)],
        queue_wait_ns: snap(&[300]),
        slow_queries: 1,
        cache_diagonal_builds: 1,
        promotions_refused: 12,
        cache_inserts_refused: 1,
        cache_refused_bytes: 500,
        cache_restore_verified: 3,
        ..ServerStats::default()
    };
    let m = a.merge(&b);
    assert_eq!(m.served, 15, "counters add");
    assert_eq!(m.cache_diagonal_builds, 3);
    assert_eq!(
        (
            m.promotions_refused,
            m.cache_inserts_refused,
            m.cache_refused_bytes
        ),
        (42, 5, 9_500)
    );
    assert_eq!((m.cache_restore_verified, m.cache_restore_corrupt), (9, 1));
    assert_eq!(m.max_batch, 7, "max_batch takes the max");
    assert_eq!(m.workers, 6, "workers add");
    assert_eq!(m.queue_depth, 4, "gauges add across disjoint servers");
    assert_eq!(m.cache_len, 7);
    assert_eq!(m.cache_bytes, 1400);
    assert_eq!(
        m.lane_depths,
        vec![(1, 2), (2, 0), (1, 9)],
        "lane_depths concatenate — lane ids are per-server"
    );
    assert_eq!(m.slow_queries, 3);
    // histograms merge like recording into one histogram
    assert_eq!(m.queue_wait_ns, snap(&[100, 200, 300]));
    // merge is symmetric up to lane order
    let n = b.merge(&a);
    assert_eq!(n.served, m.served);
    assert_eq!(n.max_batch, m.max_batch);
    assert_eq!(n.queue_wait_ns, m.queue_wait_ns);
}

/// The samples of histogram `h` (0..15) on the side numbered `side`:
/// distinct per histogram and per side, in count and in value.
fn samples(side: u64, h: u64) -> Vec<u64> {
    vec![side * 1_000 + h * 10; (side + h) as usize]
}

/// `ServerStats` with a distinct value in every field, and every value
/// distinct from the other side's, so a `merge` that read one field into
/// another cannot pass.
fn every_field(side: u64) -> ServerStats {
    let v = |i: u64| side * 1_000 + i;
    let h = |i: u64| snap(&samples(side, i));
    ServerStats {
        served: v(1),
        errors: v(2),
        shed: v(3),
        shed_expired: v(4),
        batches: v(5),
        max_batch: v(6),
        workers: v(7) as usize,
        queue_depth: v(8) as usize,
        lane_depths: vec![(side, v(9) as usize), (side + 10, v(10) as usize)],
        cache_hits: v(11),
        cache_symmetry_hits: v(12),
        cache_misses: v(13),
        cache_evictions: v(14),
        cache_inserts_refused: v(15),
        cache_refused_bytes: v(16),
        anchored_fast_paths: v(17),
        promotions: v(18),
        promotions_refused: v(19),
        cache_coalesced_waits: v(20),
        cache_dup_computes: v(21),
        cache_warm_loaded: v(22),
        cache_warm_rejected: v(23),
        cache_warm_view_backed: v(24),
        cache_restore_verified: v(25),
        cache_restore_corrupt: v(26),
        cache_diagonal_builds: v(28),
        normalizer_memo_hits: v(29),
        cache_len: v(30) as usize,
        cache_bytes: v(31) as usize,
        admission_ns: h(0),
        queue_wait_ns: h(1),
        dispatch_ns: h(2),
        plan_ns: h(3),
        exec_ns: std::array::from_fn(|m| std::array::from_fn(|o| h(4 + 3 * m as u64 + o as u64))),
        e2e_ns: h(13),
        slow_queries: v(32),
        waiter_runs: v(33),
        factor_promotions: v(34),
        worker_wakes: v(35),
        memo_hits: v(36),
        cache_memo_rows: v(37) as usize,
        cache_memo_bytes: v(38) as usize,
    }
}

#[test]
fn merge_combines_every_field_by_its_own_rule() {
    let (a, b) = (every_field(1), every_field(2));
    let m = a.merge(&b);
    macro_rules! adds {
        ($($field:ident),* $(,)?) => {
            $(assert_eq!(m.$field, a.$field + b.$field, stringify!($field));)*
        };
    }
    adds!(
        served,
        errors,
        shed,
        shed_expired,
        batches,
        workers,
        queue_depth,
        cache_hits,
        cache_symmetry_hits,
        cache_misses,
        cache_evictions,
        cache_inserts_refused,
        cache_refused_bytes,
        anchored_fast_paths,
        promotions,
        promotions_refused,
        cache_coalesced_waits,
        cache_dup_computes,
        cache_warm_loaded,
        cache_warm_rejected,
        cache_warm_view_backed,
        cache_restore_verified,
        cache_restore_corrupt,
        cache_diagonal_builds,
        normalizer_memo_hits,
        cache_len,
        cache_bytes,
        slow_queries,
        waiter_runs,
        factor_promotions,
        worker_wakes,
        memo_hits,
        cache_memo_rows,
        cache_memo_bytes,
    );
    assert_eq!(m.max_batch, b.max_batch, "max_batch takes the max");
    assert_eq!(b.merge(&a).max_batch, b.max_batch, "whichever side has it");
    assert_eq!(
        m.lane_depths,
        [a.lane_depths.clone(), b.lane_depths.clone()].concat(),
        "lane_depths concatenate"
    );
    // bucket-wise: the merge reads as one histogram that recorded both sides
    let both = |h: u64| snap(&[samples(1, h), samples(2, h)].concat());
    let histograms = [
        ("admission_ns", &m.admission_ns, 0),
        ("queue_wait_ns", &m.queue_wait_ns, 1),
        ("dispatch_ns", &m.dispatch_ns, 2),
        ("plan_ns", &m.plan_ns, 3),
        ("e2e_ns", &m.e2e_ns, 13),
    ];
    for (name, got, h) in histograms {
        assert_eq!(*got, both(h), "{name}");
    }
    for (i, got) in m.exec_ns.iter().flatten().enumerate() {
        assert_eq!(*got, both(4 + i as u64), "exec_ns[{}][{}]", i / 3, i % 3);
    }
}

#[test]
fn router_stats_expose_stage_quantiles_per_mode_and_outcome() {
    let router = Router::new(RouterConfig {
        serve: ServeConfig {
            telemetry: TelemetryConfig {
                enabled: true,
                slow_query: Duration::from_secs(3600),
                slow_log: 4,
            },
            ..ServeConfig::default()
        },
        ..RouterConfig::default()
    });
    router.register("dblp", world(400));
    let queries: Vec<String> = (0..6)
        .flat_map(|a| {
            [
                format!(
                    "pathsim author-paper-venue-paper-author from author_a{}_{a}",
                    a % 4
                ),
                format!("pathcount author-paper-venue from author_a{}_{a}", a % 4),
            ]
        })
        .collect();
    for q in &queries {
        router.submit("dblp", q.clone()).wait().expect("query");
    }
    assert_eq!(
        router.slow_queries("dblp").expect("registered").len(),
        0,
        "an hour-long threshold captures nothing"
    );
    assert!(router.slow_queries("nope").is_none());

    let stats = router.stats();
    let (_, d) = &stats.datasets[0];
    let served = d.served;
    assert_eq!(served, queries.len() as u64);
    assert_eq!(d.e2e_ns.count(), served);
    assert_eq!(d.queue_wait_ns.count(), served);
    assert!(d.queue_wait_ns.quantile(0.50) <= d.queue_wait_ns.quantile(0.99));
    let exec_total: u64 = d.exec_ns.iter().flatten().map(HistSnapshot::count).sum();
    assert_eq!(
        exec_total, served,
        "exec histograms partition served queries by mode × outcome"
    );
    // every populated series answers quantiles, and p50 ≤ p99
    for row in &d.exec_ns {
        for h in row {
            if !h.is_empty() {
                assert!(h.quantile(0.50) <= h.quantile(0.99));
            }
        }
    }
    // the fleet rollup preserves the counts
    assert_eq!(stats.aggregate().e2e_ns.count(), served);
    router.shutdown();
}

#[test]
fn metrics_page_round_trips_every_counter_and_histogram() {
    // A hand-built RouterStats with a distinct value in every field, so a
    // forgotten series can't hide behind a shared zero.
    let mut s = ServerStats {
        served: 101,
        errors: 102,
        shed: 103,
        batches: 104,
        max_batch: 105,
        workers: 106,
        queue_depth: 107,
        lane_depths: vec![(7, 108)],
        cache_hits: 109,
        cache_symmetry_hits: 110,
        cache_misses: 111,
        cache_evictions: 112,
        anchored_fast_paths: 113,
        promotions: 114,
        cache_coalesced_waits: 115,
        cache_dup_computes: 116,
        cache_warm_loaded: 117,
        cache_warm_rejected: 118,
        cache_len: 119,
        cache_bytes: 120,
        cache_diagonal_builds: 122,
        promotions_refused: 123,
        cache_inserts_refused: 124,
        cache_refused_bytes: 125,
        cache_restore_verified: 126,
        cache_restore_corrupt: 127,
        shed_expired: 129,
        cache_warm_view_backed: 130,
        normalizer_memo_hits: 131,
        waiter_runs: 132,
        factor_promotions: 133,
        worker_wakes: 134,
        memo_hits: 135,
        cache_memo_rows: 136,
        cache_memo_bytes: 137,
        admission_ns: snap(&[1_000]),
        queue_wait_ns: snap(&[2_000, 2_000]),
        dispatch_ns: snap(&[3_000, 3_000, 3_000]),
        plan_ns: snap(&[4_000; 4]),
        e2e_ns: snap(&[5_000; 5]),
        slow_queries: 121,
        ..ServerStats::default()
    };
    for (m, row) in s.exec_ns.iter_mut().enumerate() {
        for (o, h) in row.iter_mut().enumerate() {
            *h = snap(&vec![6_000; 10 * m + o + 1]);
        }
    }
    let stats = RouterStats {
        datasets: vec![("db".to_string(), s)],
        routed: 201,
        misrouted: 202,
        ..RouterStats::default()
    };
    let page = stats.render_metrics();

    for (name, value) in [
        ("hin_router_routed_total", 201u64),
        ("hin_router_misrouted_total", 202),
    ] {
        assert!(
            page.contains(&format!("{name} {value}\n")),
            "{name}: {page}"
        );
    }
    for (name, value) in [
        ("hin_served_total", 101u64),
        ("hin_errors_total", 102),
        ("hin_shed_total", 103),
        ("hin_batches_total", 104),
        ("hin_cache_hits_total", 109),
        ("hin_cache_symmetry_hits_total", 110),
        ("hin_cache_misses_total", 111),
        ("hin_cache_evictions_total", 112),
        ("hin_anchored_fast_paths_total", 113),
        ("hin_promotions_total", 114),
        ("hin_cache_coalesced_waits_total", 115),
        ("hin_cache_dup_computes_total", 116),
        ("hin_cache_warm_loaded_total", 117),
        ("hin_cache_warm_rejected_total", 118),
        ("hin_slow_queries_total", 121),
        ("hin_cache_diagonal_builds_total", 122),
        ("hin_promotions_refused_total", 123),
        ("hin_cache_inserts_refused_total", 124),
        ("hin_cache_refused_bytes_total", 125),
        ("hin_cache_restore_verified_total", 126),
        ("hin_cache_restore_corrupt_total", 127),
        ("hin_shed_expired_total", 129),
        ("hin_cache_warm_view_backed_total", 130),
        ("hin_normalizer_memo_hits_total", 131),
        ("hin_waiter_runs_total", 132),
        ("hin_factor_promotions_total", 133),
        ("hin_worker_wakes_total", 134),
        ("hin_memo_hits_total", 135),
    ] {
        assert!(
            page.contains(&format!("{name}{{dataset=\"db\"}} {value}\n")),
            "counter {name} must round-trip: {page}"
        );
    }
    for (name, value) in [
        ("hin_max_batch", 105u64),
        ("hin_workers", 106),
        ("hin_queue_depth", 107),
        ("hin_cache_len", 119),
        ("hin_cache_bytes", 120),
        ("hin_cache_memo_rows", 136),
        ("hin_cache_memo_bytes", 137),
    ] {
        assert!(
            page.contains(&format!("{name}{{dataset=\"db\"}} {value}\n")),
            "gauge {name} must round-trip: {page}"
        );
    }
    assert!(page.contains("hin_lane_depth{dataset=\"db\",lane=\"7\"} 108\n"));
    for (name, count) in [
        ("hin_stage_admission_seconds", 1u64),
        ("hin_stage_queue_wait_seconds", 2),
        ("hin_stage_dispatch_seconds", 3),
        ("hin_stage_plan_seconds", 4),
        ("hin_e2e_seconds", 5),
    ] {
        assert!(
            page.contains(&format!("{name}_count{{dataset=\"db\"}} {count}\n")),
            "histogram {name} must round-trip: {page}"
        );
        assert!(page.contains(&format!("# TYPE {name} histogram")));
    }
    // every query propagates alone: no batch-anchor series, no third mode
    assert!(!page.contains("hin_batch_anchors"), "{page}");
    assert!(!page.contains("block_row"), "{page}");
    for (m, mode) in EXEC_MODES.iter().enumerate() {
        for (o, outcome) in EXEC_OUTCOMES.iter().enumerate() {
            let count = 10 * m + o + 1;
            assert!(
                page.contains(&format!(
                    "hin_stage_exec_seconds_count{{dataset=\"db\",mode=\"{mode}\",outcome=\"{outcome}\"}} {count}\n"
                )),
                "exec series {mode}/{outcome} must round-trip: {page}"
            );
        }
    }
    assert_eq!(
        page.matches("# TYPE hin_stage_exec_seconds histogram")
            .count(),
        1,
        "one TYPE header no matter how many labeled series"
    );
}
