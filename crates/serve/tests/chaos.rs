//! Chaos suite: the wire transport and the supervision stack under a
//! deterministic, seeded fault schedule.
//!
//! Two scenarios, both with hard invariants rather than vibes:
//!
//! 1. **A lying network** — drops, stalls, truncations, and bit flips on
//!    ~30% of response frames. Every ticket must still resolve (no hung
//!    clients), every successful answer must be **byte-identical** to a
//!    fault-free reference engine, every failure must be a *typed* error,
//!    and the failure rate must stay bounded (retries absorb faults).
//! 2. **A dying shard** — a kill budget crashes the remote mid-workload.
//!    The router's supervisor must notice, fail over to a local server
//!    warm-started from the last checkpoint **automatically**, and the
//!    resurrected dataset must answer byte-identically; the time to
//!    recovery lands in the router's failover histogram.
//!
//! CI runs this file in release mode so the interleavings are the
//! optimized ones a production deployment would see.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hin_query::{CacheConfig, Engine, ExecPolicy, QueryError, QueryOutput};
use hin_serve::faultinject::{FaultConfig, FaultInjector};
use hin_serve::{
    FailoverConfig, RemoteConfig, RemoteServerHandle, Router, RouterConfig, ServeConfig,
    ShardListener, SupervisorConfig, Ticket,
};
use hin_synth::DblpConfig;

fn world() -> Arc<hin_core::Hin> {
    Arc::new(
        DblpConfig {
            n_areas: 2,
            venues_per_area: 3,
            authors_per_area: 25,
            n_papers: 300,
            seed: 77,
            ..Default::default()
        }
        .generate()
        .hin,
    )
}

/// A mixed workload: cheap and heavy verbs, repeated anchors (cache hits),
/// and deliberate error queries — fault tolerance must not bend *answers*,
/// including error answers.
fn workload() -> Vec<String> {
    let mut queries = Vec::new();
    for i in 0..40 {
        let anchor = format!("author_a{}_{}", i % 2, i % 25);
        match i % 5 {
            0 => queries.push(format!("pathsim author-paper-author from {anchor}")),
            1 => queries.push(format!(
                "pathsim author-paper-venue-paper-author from {anchor}"
            )),
            2 => queries.push(format!("pathcount author-paper-venue from {anchor}")),
            3 => queries.push("rank venue-paper-author limit 3".to_string()),
            // error answers are answers too
            _ => queries.push(format!("pathsim author-paper-author from missing_{i}")),
        }
    }
    queries
}

/// Servers that materialize a span on its first anchored run, so the
/// seasoned shard's checkpoint holds every span the workload asks.
fn materializing_serve() -> ServeConfig {
    ServeConfig {
        workers: 2,
        exec: ExecPolicy::promote_after(0),
        ..ServeConfig::default()
    }
}

/// Scenario 1: every fault the injector knows, at aggressive rates, with a
/// retry budget sized to absorb them. Determinism note: the *schedule* is
/// seeded, so a failure here replays exactly.
#[test]
fn chaos_wire_faults_never_corrupt_answers_and_never_hang_tickets() {
    let hin = world();
    let reference = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    );
    let listener = ShardListener::start_with_faults(
        Arc::clone(&hin),
        materializing_serve(),
        FaultInjector::new(FaultConfig {
            seed: 0xC4A05,
            drop_per_mille: 80,
            delay_per_mille: 80,
            delay: Duration::from_millis(2),
            truncate_per_mille: 80,
            corrupt_per_mille: 80,
            kill_after: None,
        }),
    )
    .expect("bind");
    let remote = RemoteServerHandle::connect(
        listener.local_addr(),
        RemoteConfig {
            retries: 10,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(20),
            request_timeout: Duration::from_secs(5),
            breaker_threshold: 1000, // scenario 2 owns the breaker story
            connectors: 3,
            ..RemoteConfig::default()
        },
    );

    let queries = workload();
    let expected: Vec<Result<QueryOutput, QueryError>> =
        queries.iter().map(|q| reference.execute(q)).collect();

    // three full passes so retries, reconnects, and cache hits all mix
    let mut resolved = 0u64;
    let mut transport_failures = 0u64;
    for _ in 0..3 {
        let tickets: Vec<Ticket> = queries.iter().map(|q| remote.submit(q.clone())).collect();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            // a bounded wait is the no-hung-tickets assertion: every
            // ticket resolves well inside it or the test fails
            let got = ticket.wait_timeout(Duration::from_secs(60));
            assert!(
                !matches!(got, Err(QueryError::TimedOut)),
                "hung ticket: 60s without a resolution"
            );
            match (&got, want) {
                // transport gave up after the whole retry schedule: must
                // be typed, never silent corruption
                (Err(QueryError::Unavailable(_)), _) => transport_failures += 1,
                _ => {
                    assert_eq!(&got, want, "fault-tolerant answer drifted from reference");
                    resolved += 1;
                }
            }
        }
    }

    let total = 3 * queries.len() as u64;
    assert_eq!(resolved + transport_failures, total);
    assert!(
        transport_failures * 5 <= total,
        "error rate out of bounds: {transport_failures}/{total} gave up \
         (a 10-retry budget should absorb ~30% frame faults)"
    );
    let stats = remote.shutdown();
    assert!(
        stats.retries > 0,
        "the schedule injected faults that retried"
    );
    let faults = listener.fault_stats();
    assert!(
        faults.dropped > 0 && faults.truncated > 0 && faults.corrupted > 0,
        "every fault kind actually fired: {faults:?}"
    );
    listener.shutdown();
}

/// Scenario 2: the shard process dies mid-workload; the router resurrects
/// the dataset warm, automatically, and nobody hangs.
#[test]
fn chaos_killed_shard_recovers_via_automatic_warm_failover() {
    let dir = std::env::temp_dir().join(format!(
        "hin-chaos-failover-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let hin = world();
    let reference = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    );
    let queries = workload();
    let expected: Vec<Result<QueryOutput, QueryError>> =
        queries.iter().map(|q| reference.execute(q)).collect();

    // season a local shard and checkpoint it — the recovery image
    let router = Router::new(RouterConfig {
        serve: materializing_serve(),
        ..RouterConfig::default()
    });
    router.register("dblp", Arc::clone(&hin));
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(&router.submit("dblp", q.clone()).wait(), want);
    }
    let written = router.checkpoint(&dir).expect("checkpoint");
    assert_eq!(written.len(), 1);
    router.evict("dblp");

    // hand the dataset to a "process" with a 25-request death sentence
    let listener = ShardListener::start_with_faults(
        Arc::clone(&hin),
        materializing_serve(),
        FaultInjector::new(FaultConfig {
            kill_after: Some(25),
            ..FaultConfig::default()
        }),
    )
    .expect("bind");
    router.register_remote(
        "dblp",
        listener.local_addr(),
        RemoteConfig {
            retries: 1,
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(10),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(100),
            ..RemoteConfig::default()
        },
        SupervisorConfig {
            interval: Duration::from_millis(25),
            ping_timeout: Duration::from_millis(250),
            failure_threshold: 2,
            failover: Some(FailoverConfig {
                hin: Arc::clone(&hin),
                checkpoint: written[0].1.clone(),
            }),
        },
    );

    // drive the workload into the crash: every ticket must resolve — to
    // the right answer before the kill, to a *typed* error around it
    let mut correct = 0u64;
    let mut unavailable = 0u64;
    for pass in 0..4 {
        for (q, want) in queries.iter().zip(&expected) {
            let got = router
                .submit("dblp", q.clone())
                .wait_timeout(Duration::from_secs(60));
            assert!(
                !matches!(got, Err(QueryError::TimedOut)),
                "hung ticket: 60s without a resolution"
            );
            match (&got, want) {
                (Err(QueryError::Unavailable(_)), _) => unavailable += 1,
                _ => {
                    assert_eq!(
                        &got, want,
                        "answer drifted (pass {pass}) — even across a crash, \
                         answers are right or typed-unavailable, never wrong"
                    );
                    correct += 1;
                }
            }
        }
    }
    assert!(correct > 0, "some requests served around the crash");
    assert!(
        unavailable > 0,
        "the kill budget fired mid-workload (dead window observed)"
    );

    // the supervisor resurrects the dataset as a warm local server
    let t0 = Instant::now();
    while router.stats().failovers == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "automatic failover never happened"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = router.stats();
    assert_eq!(stats.failovers, 1);
    assert!(
        !stats.failover_ns.is_empty(),
        "time-to-recovery was recorded"
    );
    assert_eq!(stats.datasets.len(), 1, "the shard is local again");
    assert!(
        stats.datasets[0].1.cache_warm_loaded > 0,
        "the replacement warm-started from the checkpoint"
    );

    // after recovery: full workload, byte-identical, zero failures
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(
            &router.submit("dblp", q.clone()).wait(),
            want,
            "post-failover answers are byte-identical to the reference"
        );
    }
    assert!(listener.fault_stats().killed == 1);
    let _ = listener.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
