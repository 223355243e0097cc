//! Property tests for the anchored sparse-row fast path: on random
//! heterogeneous networks, row propagation must produce **numerically
//! identical** results to the full-matrix path — `total_cmp`-equal scores
//! (compared by bit pattern) in the same order — under a byte budget that
//! admits some spans and refuses others, after a restore into it, and in
//! a batch. Every configuration's answers are held to the independent
//! evaluator in `oracle.rs`; these properties pin what that one does not:
//! the counts, and that a batch runs as its members would alone.
//!
//! Edge weights are drawn from small integers, so every commuting-matrix
//! entry is an exactly-representable integer well below 2⁵³ and every
//! PathSim score is the same division of the same integers on both paths:
//! any multiplication order (the planner's full-matrix association, the
//! fast path's left-to-right propagation) yields bit-identical floats.
//! This is the realistic regime — path counts on real HINs are integral —
//! and the one where "identical" is a meaningful, non-flaky contract.

use std::sync::Arc;

use hin_core::{Hin, HinBuilder};
use hin_query::{CacheConfig, Engine, ExecMode, ExecPolicy, TraceMode};
use proptest::prelude::*;

/// A random bibliographic world: `(paper→author edges, paper→venue edges,
/// weights in 1..=3)`, with every node pre-interned so anchors exist even
/// when the edge draw leaves some isolated.
#[derive(Clone, Debug)]
struct World {
    n_papers: usize,
    n_authors: usize,
    n_venues: usize,
    pa: Vec<(usize, usize, u32)>,
    pv: Vec<(usize, usize, u32)>,
}

impl World {
    fn build(&self) -> Arc<Hin> {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        for p in 0..self.n_papers {
            b.intern(paper, &format!("p{p}"));
        }
        for a in 0..self.n_authors {
            b.intern(author, &format!("a{a}"));
        }
        for v in 0..self.n_venues {
            b.intern(venue, &format!("v{v}"));
        }
        for &(p, a, w) in &self.pa {
            b.link(pa, &format!("p{p}"), &format!("a{a}"), w as f64)
                .unwrap();
        }
        for &(p, v, w) in &self.pv {
            b.link(pv, &format!("p{p}"), &format!("v{v}"), w as f64)
                .unwrap();
        }
        Arc::new(b.build())
    }
}

fn worlds() -> impl Strategy<Value = World> {
    (
        3usize..16,
        2usize..10,
        1usize..5,
        prop::collection::vec((0usize..16, 0usize..10, 1u32..4), 1..64),
        prop::collection::vec((0usize..16, 0usize..5, 1u32..4), 1..48),
    )
        .prop_map(|(n_papers, n_authors, n_venues, pa, pv)| World {
            n_papers,
            n_authors,
            n_venues,
            pa: pa
                .into_iter()
                .map(|(p, a, w)| (p % n_papers, a % n_authors, w))
                .collect(),
            pv: pv
                .into_iter()
                .map(|(p, v, w)| (p % n_papers, v % n_venues, w))
                .collect(),
        })
}

/// The anchored queries under test, across every author anchor: palindromic
/// PathSim paths (normalizers via half-path self-dots), raw counts, and
/// enumeration, with and without explicit limits.
fn anchored_queries(world: &World) -> Vec<String> {
    let mut queries = Vec::new();
    for a in 0..world.n_authors {
        queries.push(format!("pathsim author-paper-author from a{a}"));
        queries.push(format!("pathsim author-paper-venue-paper-author from a{a}"));
        queries.push(format!("topk 3 author-paper-author from a{a}"));
        queries.push(format!("pathcount author-paper-venue from a{a}"));
        queries.push(format!("neighbors author-paper-venue from a{a} limit 2"));
    }
    for v in 0..world.n_venues {
        queries.push(format!("pathcount venue-paper-author from v{v} limit 4"));
    }
    queries
}

/// Assert two outputs are identical to the bit: same names in the same
/// order, scores equal under `total_cmp` (bit-pattern comparison — stricter
/// than `==`, which would let `-0.0 == 0.0` slide).
fn assert_bit_identical(
    got: &hin_query::QueryOutput,
    want: &hin_query::QueryOutput,
    context: &str,
) -> Result<(), String> {
    if got.object_type != want.object_type || got.items.len() != want.items.len() {
        return Err(format!("{context}: shape mismatch {got:?} vs {want:?}"));
    }
    for (i, ((gn, gs), (wn, ws))) in got.items.iter().zip(&want.items).enumerate() {
        if gn != wn {
            return Err(format!("{context}: item {i} name {gn} vs {wn}"));
        }
        if gs.to_bits() != ws.to_bits() {
            return Err(format!(
                "{context}: item {i} score {gs:?} vs {ws:?} (bits differ)"
            ));
        }
    }
    Ok(())
}

/// Shard slices (bytes) the admission property runs under. The worlds'
/// products range from under 100 bytes (a 2×1 span) to about 1.3 KB (a
/// dense 10×10), so each slice lets some spans in and keeps others out.
const SLICES: [usize; 3] = [160, 400, 900];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same identity under cache admission: with a slice that fits some
    /// spans and not others, a span may be promoted and kept, promoted and
    /// refused (then lazy for good), or never promoted at all — every
    /// anchored verb must answer as the full matrix does whichever happens,
    /// interleaved with materializing queries, and again after the whole
    /// unbounded cache is restored into a bounded one.
    #[test]
    fn admission_never_changes_an_answer(world in worlds(), slice in 0usize..SLICES.len()) {
        let hin = world.build();
        let bounded = CacheConfig { shards: 2, byte_budget: Some(2 * SLICES[slice]) };
        // every anchored run materializes its span, so its snapshot holds
        // every span queried
        let full = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(0),
        );
        let lazy = Engine::with_config(Arc::clone(&hin), bounded, ExecPolicy::promote_after(2));
        let queries = anchored_queries(&world);
        for round in 0..2 {
            for (i, q) in queries.iter().enumerate() {
                if i % 4 == 0 {
                    lazy.execute("rank venue-paper-author limit 3").expect("rank");
                }
                let want = full.execute(q).expect("full-matrix execution");
                let got = lazy.execute(q).expect("bounded execution");
                if let Err(msg) = assert_bit_identical(&got, &want, q) {
                    prop_assert!(false, "{} (round {}, slice {})", msg, round, SLICES[slice]);
                }
            }
        }
        prop_assert!(lazy.stats().cache.bytes <= 2 * SLICES[slice]);

        let snapshot = full.snapshot(None);
        let warm = Engine::with_cache_config(Arc::clone(&hin), bounded);
        let report = warm.restore(&snapshot);
        prop_assert_eq!((report.loaded + report.rejected) as usize, snapshot.len());
        let cache = warm.stats().cache;
        prop_assert_eq!(report.rejected, cache.inserts_refused, "too large, not unfit");
        prop_assert_eq!(cache.evictions + cache.len as u64, report.loaded);
        for q in &queries {
            let want = full.execute(q).expect("full-matrix execution");
            let got = warm.execute(q).expect("restored execution");
            if let Err(msg) = assert_bit_identical(&got, &want, q) {
                prop_assert!(false, "{} (restored into slice {})", msg, SLICES[slice]);
            }
        }
    }

    /// Batched execution ≡ the same queries run one by one ≡ the full
    /// matrix (`promote_after(0)`), to the bit. A batch is a loop over
    /// `execute`, so a batch mixing every anchored shape over shared spans with a
    /// full-matrix `rank` and a failing anchor runs each member exactly as
    /// it would alone: the answers agree, the batched engine ends with the
    /// one-by-one engine's counters, and every member the planner sent
    /// down the fast path reports `sparse_row`, whatever else is in its
    /// batch.
    #[test]
    fn block_batched_execution_matches_sequential_and_full(world in worlds()) {
        let hin = world.build();
        let engine = |policy| Engine::with_config(Arc::clone(&hin), CacheConfig::default(), policy);
        let full = engine(ExecPolicy::promote_after(0));
        let sequential = engine(ExecPolicy::promote_after(u32::MAX));
        let batched = engine(ExecPolicy::promote_after(u32::MAX));
        let mut queries = anchored_queries(&world);
        queries.insert(queries.len() / 2, "rank venue-paper-author limit 3".to_string());
        queries.insert(1, "pathsim author-paper-author from nobody".to_string());
        let results = batched.execute_many(&queries);
        prop_assert_eq!(results.len(), queries.len());
        for (q, got) in queries.iter().zip(results) {
            let planned = sequential.plan(q).map(|p| p.mode);
            let (want, trace) = sequential.execute_traced(q);
            if matches!(planned, Ok(ExecMode::SparseRow { .. })) {
                prop_assert_eq!(trace.mode, TraceMode::SparseRow, "{}", q);
            }
            let (got, want) = match (got, want) {
                (Ok(got), Ok(want)) => (got, want),
                (got, want) => {
                    prop_assert_eq!(got, want, "{}", q);
                    continue;
                }
            };
            if let Err(msg) = assert_bit_identical(&got, &want, q) {
                prop_assert!(false, "{} (batched vs one by one)", msg);
            }
            let want = full.execute(q).expect("full-matrix execution");
            if let Err(msg) = assert_bit_identical(&got, &want, q) {
                prop_assert!(false, "{} (batched vs full)", msg);
            }
        }
        prop_assert_eq!(batched.stats(), sequential.stats());
    }
}

/// Two fresh engines fed one request list finish with the same counts: shard
/// placement is a fixed function of the key, so which spans share a slice —
/// and every miss, eviction, promotion and refusal that follows — repeats.
#[test]
fn bounded_engines_repeat_their_counts_on_one_request_list() {
    let data = hin_synth::DblpConfig {
        n_areas: 4,
        authors_per_area: 60,
        venues_per_area: 4,
        terms_per_area: 30,
        shared_terms: 20,
        n_papers: 600,
        seed: 7,
        ..hin_synth::DblpConfig::default()
    }
    .generate();
    let hin = Arc::new(data.hin);
    // the end-to-end benchmark's ten `span_thrash` span families
    let templates: [(&str, &str, usize); 10] = [
        ("pathsim author-paper-venue-paper-author", "author", 240),
        ("pathsim author-paper-term-paper-author", "author", 240),
        ("topk 8 author-paper-author-paper-author", "author", 240),
        ("pathcount paper-author-paper-venue", "paper", 600),
        ("pathcount paper-term-paper-venue", "paper", 600),
        ("pathcount author-paper-venue-paper-term", "author", 240),
        ("pathcount venue-paper-author-paper-venue", "venue", 16),
        ("pathcount author-paper-term-paper-venue", "author", 240),
        ("pathcount author-paper-author-paper-venue", "author", 240),
        ("topk 8 paper-author-paper", "paper", 600),
    ];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |below: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % below
    };
    let requests: Vec<String> = (0..600)
        .map(|_| {
            let (query, ty, count) = templates[next(templates.len())];
            let id = next(count);
            let anchor = match ty {
                "paper" => format!("paper_{id}"),
                _ => format!("{ty}_a{}_{}", id / (count / 4), id % (count / 4)),
            };
            format!("{query} from {anchor}")
        })
        .collect();

    let run = || {
        let engine = Engine::with_cache_config(Arc::clone(&hin), CacheConfig::bounded(512 << 10));
        for q in &requests {
            engine.execute(q).expect("generated queries fit the schema");
        }
        (
            engine.stats().cache.misses,
            engine.stats().cache.evictions,
            engine.stats().promotions,
            engine.stats().promotions_refused,
            engine.stats().cache.inserts_refused,
        )
    };
    let (first, second) = (run(), run());
    assert_eq!(
        first, second,
        "(misses, evictions, promotions, refused, inserts refused)"
    );
    let (misses, evictions, promotions, refused, inserts_refused) = first;
    assert!(
        misses > 0 && evictions > 0 && promotions > 0 && refused > 0 && inserts_refused > 0,
        "the budget keeps some spans, rotates them, and refuses others: {first:?}"
    );
}
