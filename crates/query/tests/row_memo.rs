//! A symmetric span whose square would cost far more than its halves is
//! never promoted whole. Its rows run through its halves, and the ranked
//! rows reads ask for are kept in the cache's row memo, in memory and in
//! the checkpoint image:
//!
//! - on a seeded DBLP-shaped network, `author-paper-venue-paper-author` is
//!   such a span: every anchored verb over it answers, names and score
//!   bits, as an engine whose square was made resident with
//!   `Engine::commuting_matrix` does, and the square never becomes
//!   resident, while `author-paper-author` is still promoted whole;
//! - a repeated read is a memo hit, and the rows survive `to_bytes` /
//!   `from_bytes` and `write_to_file` / `open` into a fresh engine, which
//!   answers from them without propagating a row;
//! - threads racing the first reads of the same rows, beside a thread
//!   exporting the memo, agree with the square, and every export restores
//!   to rows that do.
//!
//! Path counts of unit-weight networks are integers, so a row through the
//! halves and a row of the square are the same sums of the same integers.
//!
//! CI runs this file ten times in debug: which thread ranks and stores a
//! row first, and which rows an export sees, differ from run to run.

use std::sync::{Arc, Barrier};

use hin_core::{Hin, NodeRef};
use hin_query::{
    CacheConfig, CacheSnapshot, Engine, ExecPolicy, Promotion, QueryOutput, Refusal, TraceMode,
};
use hin_similarity::{MetaPath, PathStep};

const SPAN: &str = "author-paper-venue-paper-author";

fn world() -> Arc<Hin> {
    let data = hin_synth::DblpConfig {
        n_areas: 4,
        authors_per_area: 40,
        venues_per_area: 3,
        n_papers: 600,
        seed: 31,
        ..hin_synth::DblpConfig::default()
    }
    .generate();
    Arc::new(data.hin)
}

/// The cache key of `path` as a snapshot lists it.
fn key_of(hin: &Hin, path: &str) -> Vec<(usize, bool)> {
    let path = MetaPath::from_type_names(hin, &path.split('-').collect::<Vec<_>>()).unwrap();
    path.steps()
        .iter()
        .map(|s| match *s {
            PathStep::Forward(r) => (r.0, true),
            PathStep::Backward(r) => (r.0, false),
        })
        .collect()
}

/// An engine holding the square of `path`, made resident up front: its
/// reads are the answers of record.
fn square(hin: &Arc<Hin>, path: &str) -> Engine {
    let engine = Engine::from_arc(Arc::clone(hin));
    let path = MetaPath::from_type_names(hin, &path.split('-').collect::<Vec<_>>()).unwrap();
    engine.commuting_matrix(&path).unwrap();
    engine
}

/// Every anchored verb over [`SPAN`] a row memo answers, from every author.
fn queries(hin: &Hin) -> Vec<String> {
    let author = hin.type_by_name("author").unwrap();
    (0..hin.node_count(author))
        .flat_map(|id| {
            let name = hin.node_name(NodeRef {
                ty: author,
                id: id as u32,
            });
            [
                format!("pathsim {SPAN} from {name}"),
                format!("topk 3 {SPAN} from {name}"),
                format!("pathcount {SPAN} from {name} limit 5"),
                format!("neighbors {SPAN} from {name} limit 3"),
            ]
        })
        .collect()
}

/// Names equal and scores equal bit for bit.
fn assert_bit_identical(got: &QueryOutput, want: &QueryOutput, context: &str) {
    assert_eq!(got.object_type, want.object_type, "{context}");
    assert_eq!(got.items.len(), want.items.len(), "{context}");
    for ((gn, gs), (wn, ws)) in got.items.iter().zip(&want.items) {
        assert_eq!(gn, wn, "{context}");
        assert_eq!(gs.to_bits(), ws.to_bits(), "{context}: score of {gn}");
    }
}

/// Run every query on `engine` and check it against `reference`.
fn check_all(engine: &Engine, reference: &Engine, queries: &[String], stage: &str) {
    for q in queries {
        let want = reference.execute(q).unwrap();
        assert_bit_identical(&engine.execute(q).unwrap(), &want, &format!("{stage}: {q}"));
    }
}

#[test]
fn a_factored_span_is_never_resident_and_answers_as_its_square() {
    let hin = world();
    let reference = square(&hin, SPAN);
    let queries = queries(&hin);
    // promote_after(0) materializes whatever the rule lets through
    let engine = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    );
    let plan = engine.plan(&queries[0]).unwrap();
    let Some(Promotion::Refused(Refusal::Factored {
        est_bytes,
        halves_bytes,
    })) = plan.promotion
    else {
        panic!("the span is factored: {plan}");
    };
    assert!(est_bytes > 8 * halves_bytes, "{plan}");
    assert!(plan.to_string().contains(" > 8 × halves "), "{plan}");

    check_all(&engine, &reference, &queries, "cold");
    let cold = engine.stats();
    assert_eq!(cold.promotions, 0, "{cold:?}");
    assert_eq!(cold.promotions_refused, queries.len() as u64 / 2);
    assert_eq!(
        cold.memo_hits,
        queries.len() as u64 / 2,
        "topk and neighbors"
    );
    assert!(cold.factor_promotions >= 1, "{cold:?}");
    assert!(cold.cache.memo_rows > 0 && cold.cache.memo_bytes > 0);

    // a second pass is all memo hits: nothing propagates, nothing heats
    check_all(&engine, &reference, &queries, "memoized");
    let warm = engine.stats();
    assert_eq!(warm.memo_hits - cold.memo_hits, queries.len() as u64);
    assert_eq!(warm.anchored_fast_paths, cold.anchored_fast_paths);
    assert_eq!(warm.promotions_refused, cold.promotions_refused);
    assert_eq!(warm.cache.misses, cold.cache.misses);
    assert_eq!(warm.cache.memo_rows, cold.cache.memo_rows);
    let keys = engine.snapshot(None).keys();
    assert!(
        !keys.contains(&key_of(&hin, SPAN)),
        "never resident: {keys:?}"
    );

    // A-P-A is not factored (two steps): it still promotes whole
    let apa = "pathsim author-paper-author from author_a0_0";
    assert_eq!(
        engine.plan(apa).unwrap().promotion,
        Some(Promotion::Heating { run: 1, of: 0 })
    );
    let (got, trace) = engine.execute_traced(apa);
    assert_eq!(trace.mode, TraceMode::Full);
    assert_bit_identical(
        &got.unwrap(),
        &square(&hin, "author-paper-author").execute(apa).unwrap(),
        apa,
    );
    assert_eq!(engine.stats().promotions, 1);
    let keys = engine.snapshot(None).keys();
    assert!(keys.contains(&key_of(&hin, "author-paper-author")));
    assert!(!keys.contains(&key_of(&hin, SPAN)));
}

#[test]
fn rows_survive_every_image_entry_point_into_a_fresh_engine() {
    let hin = world();
    let reference = square(&hin, SPAN);
    let queries = queries(&hin);
    let donor = Engine::from_arc(Arc::clone(&hin));
    check_all(&donor, &reference, &queries, "donor");
    let snap = donor.snapshot(None);
    let rows = donor.stats().cache.memo_rows;
    assert!(rows > 0);
    // a row with no candidate is not carried: a CSR row cannot tell it
    // from an absent one
    assert!(snap.ranked_rows() <= rows && snap.ranked_rows() > rows / 2);

    let dir = std::env::temp_dir().join(format!("hin-row-memo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.hsnp");
    snap.write_to_file(&path).unwrap();
    let bytes = snap.to_bytes();
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let mounted = [
        ("in process", snap.clone()),
        ("from_bytes", CacheSnapshot::from_bytes(&bytes).unwrap()),
        ("open", CacheSnapshot::open(&path).unwrap()),
    ];
    for (how, image) in mounted {
        assert_eq!(image.ranked_rows(), snap.ranked_rows(), "{how}");
        let fresh = Engine::from_arc(Arc::clone(&hin));
        let report = fresh.restore(&image);
        assert_eq!(report.ranked_rows as usize, snap.ranked_rows(), "{how}");
        assert_eq!(report.rejected, 0, "{how}");
        // every carried row is a memo hit, bit for bit the square's
        let carried: Vec<&String> = queries
            .iter()
            .filter(|q| fresh.plan(q).unwrap().promotion == Some(Promotion::Memoized))
            .collect();
        assert!(carried.len() >= queries.len() / 2, "{how}");
        for q in &carried {
            let want = reference.execute(q).unwrap();
            let (got, trace) = fresh.execute_traced(q);
            assert_bit_identical(&got.unwrap(), &want, &format!("{how}: {q}"));
            assert_eq!(trace.mode, TraceMode::Full, "{how}: {q}");
        }
        let stats = fresh.stats();
        assert_eq!(stats.memo_hits, carried.len() as u64, "{how}");
        assert_eq!(stats.anchored_fast_paths, 0, "{how}: no row propagated");
        assert_eq!(stats.cache.misses, 0, "{how}: nothing computed");
        // and the rest answers as the square does too
        check_all(&fresh, &reference, &queries, how);
        // exported again, the image is the one it came from
        assert_eq!(fresh.snapshot(None).ranked_rows(), snap.ranked_rows());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn racing_first_reads_and_an_export_agree_with_the_square() {
    let hin = world();
    let reference = square(&hin, SPAN);
    let queries = queries(&hin);
    let want: Vec<QueryOutput> = queries
        .iter()
        .map(|q| reference.execute(q).unwrap())
        .collect();
    let threads = 3;
    let engine = Engine::from_arc(Arc::clone(&hin));
    let start = Barrier::new(threads + 1);
    let images = std::thread::scope(|s| {
        for t in 0..threads {
            let (engine, queries, want, start) = (&engine, &queries, &want, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..queries.len() {
                    // each thread starts elsewhere and walks backwards
                    // every other pass, so first reads collide
                    let i = match t % 2 {
                        0 => (i + t * 7) % queries.len(),
                        _ => queries.len() - 1 - i,
                    };
                    let got = engine.execute(&queries[i]).unwrap();
                    assert_bit_identical(&got, &want[i], &format!("thread {t}: {}", queries[i]));
                }
            });
        }
        let exporter = s.spawn(|| {
            start.wait();
            (0..8)
                .map(|_| engine.snapshot(None).to_bytes())
                .collect::<Vec<_>>()
        });
        exporter.join().unwrap()
    });
    assert_eq!(engine.stats().cache.dup_computes, 0);
    // every image restores to rows that are the square's
    for (n, bytes) in images.iter().enumerate() {
        let fresh = Engine::from_arc(Arc::clone(&hin));
        let image = CacheSnapshot::from_bytes(bytes).unwrap();
        assert_eq!(
            fresh.restore(&image).ranked_rows as usize,
            image.ranked_rows()
        );
        for (q, want) in queries.iter().zip(&want) {
            assert_bit_identical(&fresh.execute(q).unwrap(), want, &format!("image {n}: {q}"));
        }
    }
    // and the memo ends as one pass alone would have left it
    let alone = Engine::from_arc(Arc::clone(&hin));
    check_all(&alone, &reference, &queries, "alone");
    assert_eq!(
        engine.stats().cache.memo_rows,
        alone.stats().cache.memo_rows
    );
    assert_eq!(
        engine.snapshot(None).to_bytes().len(),
        alone.snapshot(None).to_bytes().len()
    );
}

#[test]
fn a_span_refused_by_its_slice_propagates_each_row_once() {
    let hin = world();
    let reference = square(&hin, SPAN);
    let queries = queries(&hin);
    let q = &queries[0];
    // one shard whose slice is a byte short of the span's estimate: the
    // span is refused for its size before the factoring rule is asked,
    // and its halves fit the slice together
    let est = Engine::from_arc(Arc::clone(&hin))
        .plan(q)
        .unwrap()
        .est_bytes;
    let bounded = || {
        Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(est - 1),
            },
        )
    };
    let engine = bounded();
    let plan = engine.plan(q).unwrap();
    assert!(
        matches!(
            plan.promotion,
            Some(Promotion::Refused(Refusal::Estimate { .. }))
        ),
        "{plan}"
    );
    // past ten results a read is never the row memo's, so this EXPLAIN
    // shows the route, and the halves' heat, whichever rows were read
    let route = || {
        let plan = engine.plan(&format!("{q} limit 11")).unwrap().to_string();
        plan.split("; row: ").nth(1).unwrap().to_string()
    };
    let cold = route();
    assert!(cold.starts_with("heating 1/3["), "{cold}");

    // the first read propagates its row and stores it
    let want = reference.execute(q).unwrap();
    assert_bit_identical(&engine.execute(q).unwrap(), &want, "first read");
    let first = engine.stats();
    assert_eq!(
        (first.promotions_refused, first.anchored_fast_paths),
        (1, 1)
    );
    assert_eq!(first.memo_hits, 0);
    assert_eq!(first.cache.memo_rows, 1);
    let heated = route();
    assert!(heated.starts_with("heating 2/3["), "{heated}");

    // each repeat is a memo hit: nothing decided, propagated or heated
    let explain = engine.plan(q).unwrap();
    assert_eq!(explain.promotion, Some(Promotion::Memoized));
    assert!(
        explain.to_string().contains("promotion: memoized row"),
        "{explain}"
    );
    for n in 1..=3 {
        let (got, trace) = engine.execute_traced(q);
        assert_bit_identical(&got.unwrap(), &want, &format!("repeat {n}"));
        assert_eq!(trace.mode, TraceMode::Full, "repeat {n}");
        let stats = engine.stats();
        assert_eq!(stats.memo_hits, n);
        assert_eq!(stats.promotions_refused, first.promotions_refused);
        assert_eq!(stats.anchored_fast_paths, first.anchored_fast_paths);
        assert_eq!(stats.cache.memo_rows, 1);
    }
    assert_eq!(route(), heated, "a memo hit heats nothing");

    // every read answers as the square does; the first pass propagates
    // each row once, and the second is all memo hits
    check_all(&engine, &reference, &queries, "bounded");
    let once = engine.stats();
    assert_eq!(once.promotions, 0, "{once:?}");
    check_all(&engine, &reference, &queries, "bounded, again");
    let twice = engine.stats();
    assert_eq!(twice.memo_hits - once.memo_hits, queries.len() as u64);
    assert_eq!(twice.anchored_fast_paths, once.anchored_fast_paths);
    assert_eq!(twice.promotions_refused, once.promotions_refused);

    // the image carries the refused span's rows: a fresh bounded engine
    // answers its first read from the memo
    let image = CacheSnapshot::from_bytes(&engine.snapshot(None).to_bytes()).unwrap();
    assert!(image.ranked_rows() > 0);
    let fresh = bounded();
    assert_eq!(
        fresh.restore(&image).ranked_rows as usize,
        image.ranked_rows()
    );
    let (got, trace) = fresh.execute_traced(q);
    assert_bit_identical(&got.unwrap(), &want, "restored");
    assert_eq!(trace.mode, TraceMode::Full);
    let stats = fresh.stats();
    assert_eq!((stats.memo_hits, stats.anchored_fast_paths), (1, 0));
    assert_eq!(stats.promotions_refused, 0);
}
