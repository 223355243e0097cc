//! End-to-end query-engine tests over the synthetic DBLP world: the engine
//! must agree with direct `hin::similarity` computation, serve repeats from
//! its commuting-matrix cache, and plan non-trivial multiplication orders.

use std::sync::Arc;

use hin::query::{CacheConfig, Engine, ExecPolicy};
use hin::similarity::{commuting_matrix, path_count, top_k_pathsim, MetaPath};
use hin::synth::{DblpConfig, DblpData};

/// An engine that materializes a span on its first anchored run
/// (`promote_after(0)` on an unbounded cache) — for the tests below whose
/// subject is the commuting-matrix cache, which the anchored sparse-row
/// fast path otherwise bypasses until promotion.
fn materializing_engine(hin: hin::core::Hin) -> Engine {
    Engine::with_config(
        Arc::new(hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    )
}

fn world() -> DblpData {
    DblpConfig {
        n_areas: 3,
        venues_per_area: 4,
        authors_per_area: 40,
        n_papers: 600,
        seed: 21,
        ..Default::default()
    }
    .generate()
}

#[test]
fn pathsim_agrees_with_direct_computation() {
    let data = world();
    let apvpa =
        MetaPath::from_type_names(&data.hin, &["author", "paper", "venue", "paper", "author"])
            .unwrap();
    let m = commuting_matrix(&data.hin, &apvpa).unwrap();

    let engine = Engine::new(data.hin.clone());
    for author in ["author_a0_0", "author_a1_7", "author_a2_19"] {
        let x = data.hin.node_by_name(data.author, author).unwrap().id as usize;
        let direct = top_k_pathsim(&m, x, 10);
        let out = engine
            .execute(&format!(
                "pathsim author-paper-venue-paper-author from {author}"
            ))
            .unwrap();
        assert_eq!(out.object_type, "author");
        assert_eq!(out.items.len(), direct.len());
        for ((name, score), (id, want)) in out.items.iter().zip(&direct) {
            let want_name = data.hin.node_name(hin::core::NodeRef {
                ty: data.author,
                id: *id as u32,
            });
            assert_eq!(name, want_name);
            assert!((score - want).abs() < 1e-12, "{name}: {score} vs {want}");
        }
    }
}

#[test]
fn topk_and_pathcount_agree_with_direct_computation() {
    let data = world();
    let apa = MetaPath::from_type_names(&data.hin, &["author", "paper", "author"]).unwrap();
    let m = commuting_matrix(&data.hin, &apa).unwrap();
    let x = data
        .hin
        .node_by_name(data.author, "author_a0_0")
        .unwrap()
        .id as usize;

    let engine = Engine::new(data.hin.clone());
    let top = engine
        .execute("topk 4 author-paper-author from author_a0_0")
        .unwrap();
    let direct = top_k_pathsim(&m, x, 4);
    assert_eq!(top.items.len(), direct.len());
    for ((name, score), (id, want)) in top.items.iter().zip(&direct) {
        assert_eq!(
            name,
            data.hin.node_name(hin::core::NodeRef {
                ty: data.author,
                id: *id as u32
            })
        );
        assert!((score - want).abs() < 1e-12);
    }

    let counts = engine
        .execute("pathcount author-paper-author from author_a0_0 limit 6")
        .unwrap();
    let direct = path_count(&m, x, 6);
    let got: Vec<f64> = counts.items.iter().map(|&(_, s)| s).collect();
    let want: Vec<f64> = direct.iter().map(|&(_, s)| s).collect();
    assert_eq!(got, want);
}

#[test]
fn repeated_and_overlapping_queries_are_served_from_cache() {
    let data = world();
    let engine = materializing_engine(data.hin);

    let q = "pathsim author-paper-venue-paper-author from author_a0_0";
    let first = engine.execute(q).unwrap();
    let cold_misses = engine.stats().cache.misses;
    assert!(cold_misses > 0);
    let cold_hits = engine.stats().cache.hits;

    // exact repeat: the row memo's, zero new products, no cache lookup
    let second = engine.execute(q).unwrap();
    assert_eq!(first, second);
    assert_eq!(engine.stats().cache.misses, cold_misses);
    assert_eq!(engine.stats().cache.hits, cold_hits);
    assert_eq!(engine.stats().memo_hits, 1);

    // same path, different anchor: the commuting matrix is shared
    engine
        .execute("pathsim author-paper-venue-paper-author from author_a1_3")
        .unwrap();
    assert_eq!(engine.stats().cache.misses, cold_misses);
    assert!(engine.stats().cache.hits > cold_hits);

    // reversed half-path: whatever the plan shape, every needed product is
    // already in the cache (exactly or as a transpose)
    engine
        .execute("pathcount venue-paper-author from venue_a0_0")
        .unwrap();
    assert_eq!(
        engine.stats().cache.misses,
        cold_misses,
        "reversed sub-path must not recompute anything"
    );
}

#[test]
fn reversed_half_paths_reuse_cached_transposes() {
    let data = world();
    let engine = materializing_engine(data.hin);
    engine
        .execute("pathcount author-paper-venue from author_a0_0")
        .unwrap();
    let cold = engine.stats().cache.misses;
    assert_eq!(cold, 1, "one product for the two-step path");

    engine
        .execute("pathcount venue-paper-author from venue_a0_0")
        .unwrap();
    assert_eq!(engine.stats().cache.misses, cold);
    assert!(
        engine.stats().cache.symmetry_hits >= 1,
        "V-P-A is the transpose of the cached A-P-V"
    );
}

#[test]
fn planner_picks_a_non_left_to_right_order() {
    let data = world();
    let engine = Engine::new(data.hin);
    // P-A-P-V: the left-to-right order materializes the paper×paper
    // co-author overlap; the planner must associate through the small
    // author×venue waist instead.
    let plan = engine
        .plan("pathcount paper-author-paper-venue from paper_0")
        .unwrap();
    assert!(
        !plan.root.is_left_deep(),
        "expected a bushy/right-leaning order, got {}",
        plan.describe()
    );
    assert!(plan.est_flops < plan.left_to_right_flops);
}

#[test]
fn execute_many_batches_against_one_cache() {
    let data = world();
    let engine = materializing_engine(data.hin);
    let queries = [
        "pathcount author-paper-venue from author_a0_0",
        "pathcount author-paper-venue from author_a0_1",
        "rank venue-paper-author limit 3",
        "pathsim author-paper-author from author_a0_0",
        "neighbors written_by from paper_0",
    ];
    let results = engine.execute_many(&queries);
    assert_eq!(results.len(), queries.len());
    for (q, r) in queries.iter().zip(&results) {
        assert!(r.is_ok(), "`{q}` failed: {:?}", r);
    }
    // the second A-P-V query shares the first's commuting matrix, and the
    // V-P-A rank reuses it transposed
    assert!(engine.stats().cache.hits >= 1);
}

#[test]
fn anchored_fast_path_and_promotion_end_to_end() {
    let data = world();
    let hin = Arc::new(data.hin);
    let reference = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    );
    // default policy: lazy fast path on, promote_after = 3
    let engine = Engine::from_arc(Arc::clone(&hin));
    let q = "pathsim author-paper-venue-paper-author from author_a0_0";
    let want = reference.execute(q).unwrap();

    // cold queries ride the sparse-row fast path: same answer, nothing
    // materialized (unit-weight data ⇒ exact arithmetic ⇒ identical floats)
    for run in 1..=2 {
        assert_eq!(engine.execute(q).unwrap(), want, "lazy run {run}");
    }
    assert_eq!(engine.stats().anchored_fast_paths, 2);
    assert_eq!(engine.stats().cache.misses, 0);

    // the third query on the span crosses promote_after: the span is
    // materialized through the cache and later queries are plain hits
    assert_eq!(engine.execute(q).unwrap(), want);
    assert_eq!(engine.stats().promotions, 1);
    let misses = engine.stats().cache.misses;
    assert!(misses > 0);
    assert_eq!(engine.execute(q).unwrap(), want);
    assert_eq!(
        engine.stats().cache.misses,
        misses,
        "post-promotion repeat hits"
    );
    assert_eq!(engine.stats().anchored_fast_paths, 2);
}

#[test]
fn schema_errors_surface_cleanly() {
    let data = world();
    let engine = Engine::new(data.hin);
    // unknown type
    assert!(engine.execute("rank author-conference").is_err());
    // unknown node
    assert!(engine
        .execute("pathsim author-paper-author from nobody")
        .is_err());
    // asymmetric pathsim
    assert!(engine
        .execute("pathsim ^written_by-published_in from author_a0_0")
        .is_err());
}
