//! The row of a span the cache refuses, served through two halves it
//! keeps: (row `x` of the left half) · (the right half), the way PathSim
//! computes a row of `H·Hᵀ` from its half-path matrix `H`.
//!
//! Weights are small integers, so every commuting-matrix entry is an exact
//! integer and the changed association — `x·(AB)·(CD)` where the chain
//! runs `(((xA)B)C)D` — leaves every score bit-identical to an unbounded
//! eager engine's (the contract `anchored_props.rs` states).
//!
//! CI runs this file ten times in debug: threads race the first refused
//! queries, and which of them heats a half past `promote_after` and which
//! waits for its product differs from run to run.

use std::sync::{Arc, Barrier};

use hin_core::{Hin, HinBuilder};
use hin_linalg::Csr;
use hin_query::{CacheConfig, Engine, ExecPolicy, Factor, QueryOutput, RowRoute};
use proptest::prelude::*;

/// A random bibliographic world with terms. Every paper has two authors,
/// one venue and three terms, and there are many more papers than authors
/// or terms and only two or three venues: spans through the venue in the
/// middle (author×author, author×term, term×term) are nearly dense, while
/// their halves (author×venue, venue×term) are thin.
#[derive(Clone, Debug)]
struct World {
    authors: usize,
    venues: usize,
    terms: usize,
    papers: Vec<Paper>,
}

/// One paper: two authors, a venue, three terms, and the weight in 1..=3
/// of its author, venue and term links.
type Paper = ([usize; 2], usize, [usize; 3], [u32; 3]);

impl World {
    fn build(&self) -> Arc<Hin> {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let term = b.add_type("term");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        let pt = b.add_relation("mentions", paper, term);
        for (ty, prefix, n) in [
            (author, "a", self.authors),
            (venue, "v", self.venues),
            (term, "t", self.terms),
        ] {
            for i in 0..n {
                b.intern(ty, &format!("{prefix}{i}"));
            }
        }
        for (p, (authors, v, terms, w)) in self.papers.iter().enumerate() {
            let p = format!("p{p}");
            for a in authors {
                b.link(pa, &p, &format!("a{a}"), f64::from(w[0])).unwrap();
            }
            b.link(pv, &p, &format!("v{v}"), f64::from(w[1])).unwrap();
            for t in terms {
                b.link(pt, &p, &format!("t{t}"), f64::from(w[2])).unwrap();
            }
        }
        Arc::new(b.build())
    }
}

fn worlds() -> impl Strategy<Value = World> {
    (
        8usize..13,
        2usize..4,
        8usize..13,
        prop::collection::vec(
            (
                (0usize..64, 0usize..64, 0usize..4),
                (0usize..64, 0usize..64, 0usize..64),
                (1u32..4, 1u32..4, 1u32..4),
            ),
            80..120,
        ),
    )
        .prop_map(|(authors, venues, terms, draws)| World {
            authors,
            venues,
            terms,
            papers: draws
                .into_iter()
                .map(|((a0, a1, v), (t0, t1, t2), (wa, wv, wt))| {
                    (
                        [a0 % authors, a1 % authors],
                        v % venues,
                        [t0 % terms, t1 % terms, t2 % terms],
                        [wa, wv, wt],
                    )
                })
                .collect(),
        })
}

/// The four-step spans through the venue, with the 2|2 split each is
/// meant to be served through.
const SPANS: [&str; 4] = [
    "author-paper-venue-paper-author",
    "author-paper-venue-paper-term",
    "term-paper-venue-paper-author",
    "term-paper-venue-paper-term",
];

/// Every anchored verb over `span`, from every anchor of its start type.
fn queries(world: &World, span: &str) -> Vec<String> {
    let (prefix, anchors) = match span.starts_with("author") {
        true => ("a", world.authors),
        false => ("t", world.terms),
    };
    let palindrome = span.split('-').next() == span.split('-').next_back();
    (0..anchors)
        .flat_map(|i| {
            let from = format!("from {prefix}{i}");
            match palindrome {
                true => vec![
                    format!("pathsim {span} {from}"),
                    format!("topk 3 {span} {from}"),
                ],
                false => vec![
                    format!("pathcount {span} {from}"),
                    format!("neighbors {span} {from} limit 3"),
                ],
            }
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

/// The planner's estimate of the product over `path`, in bytes.
fn est_bytes(engine: &Engine, path: &str, anchor: &str) -> usize {
    engine
        .plan(&format!("pathcount {path} from {anchor}"))
        .unwrap()
        .est_bytes
}

/// Evict everything a one-shard cache of `slice` bytes holds, the way
/// traffic would: compute and store a product under a key no query uses
/// that fills the slice alone.
fn fill_the_slice(engine: &Engine, slice: usize) {
    let nnz = (slice - 16) / 12;
    let filler = Csr::from_triplets(1, nnz, (0..nnz as u32).map(|c| (0, c, 1.0)));
    assert!(filler.nbytes() <= slice);
    engine.cache().get_or_compute(&[(99, true)], || filler);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A one-shard cache whose slice holds the two halves of every span
    /// queried but none of the spans: every anchored verb answers as the
    /// unbounded eager engine does — cold, with the halves materialized,
    /// and with them evicted — and no span's product is computed more
    /// than once: a span the cache refuses is never materialized again.
    #[test]
    fn a_refused_span_answers_through_its_halves_bit_for_bit(world in worlds()) {
        let hin = world.build();
        let eager = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::eager(),
        );
        let cold = Engine::from_arc(Arc::clone(&hin));
        let half = |path: &str| {
            let anchor = match &path[..1] {
                "a" => "a0",
                "v" => "v0",
                _ => "t0",
            };
            est_bytes(&cold, path, anchor)
        };
        let pair = |span: &str| {
            let steps: Vec<&str> = span.split('-').collect();
            half(&steps[..3].join("-")) + half(&steps[2..].join("-"))
        };
        // the slice the pairs need; a span that would fit it is left out
        let slice = SPANS.iter().map(|s| pair(s)).max().unwrap();
        let spans: Vec<&str> = SPANS
            .into_iter()
            .filter(|s| half(s) > slice)
            .collect();
        prop_assert!(!spans.is_empty(), "no span exceeds the {} B slice", slice);
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig { shards: 1, byte_budget: Some(slice) },
        );
        let all: Vec<String> = spans.iter().flat_map(|s| queries(&world, s)).collect();
        let check = |stage: &str| {
            for q in &all {
                let want = eager.execute(q).unwrap();
                let got = engine.execute(q).unwrap();
                assert_bit_identical(&got, &want, &format!("{stage}: {q}"));
            }
        };
        check("cold");
        check("halves materialized");
        let stats = engine.stats();
        prop_assert!(stats.factor_promotions >= 1, "{:?}", stats);
        fill_the_slice(&engine, slice);
        prop_assert!(engine.stats().cache.evictions > stats.cache.evictions);
        check("halves evicted");
        check("halves again");
        let stats = engine.stats();
        prop_assert!(stats.cache.inserts_refused <= spans.len() as u64, "{:?}", stats);
        prop_assert!(stats.promotions_refused > 0);
        prop_assert_eq!(stats.cache.dup_computes, 0);
    }
}

/// 400 papers, one hub author on half of them (40 more authors share the
/// rest), through two parallel paper→author relations, and each paper
/// citing 40 others. The planner prices `written_by · ^reviewed_by`
/// (400×400) at ≈ 3.9 k entries; the hub alone contributes 200² = 40 k.
fn hub_bib() -> Arc<Hin> {
    let mut b = HinBuilder::new();
    let paper = b.add_type("paper");
    let author = b.add_type("author");
    let written = b.add_relation("written_by", paper, author);
    let reviewed = b.add_relation("reviewed_by", paper, author);
    let cites = b.add_relation("cites", paper, paper);
    for p in 0..400 {
        let who = match p < 200 {
            true => "hub".to_string(),
            false => format!("a{}", (p - 200) / 5),
        };
        b.link(written, &format!("p{p}"), &who, 1.0).unwrap();
        b.link(reviewed, &format!("p{p}"), &who, 1.0).unwrap();
        for k in 0..40 {
            let cited = format!("p{}", (p * 7 + 13 * k + 1) % 400);
            b.link(cites, &format!("p{p}"), &cited, 1.0).unwrap();
        }
    }
    Arc::new(b.build())
}

#[test]
fn a_half_that_proves_oversize_is_materialized_once() {
    let hin = hub_bib();
    let reference = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::eager(),
    );
    // 64 KB in one shard: room for the paper×paper half's estimate, not for
    // its product (≈ 480 KB); the whole span and the other split's product
    // half (author×paper) are estimated over the slice
    let engine = Engine::with_cache_config(
        Arc::clone(&hin),
        CacheConfig {
            shards: 1,
            byte_budget: Some(64 * 1024),
        },
    );
    let span = |p: usize| format!("pathcount written_by-^reviewed_by-cites from p{p}");
    let plan = engine.plan(&span(0)).unwrap();
    assert_eq!(
        plan.row_route,
        Some(RowRoute {
            at: 2,
            halves: [Factor::Heating { run: 1, of: 3 }, Factor::Relation]
        }),
        "{plan}"
    );
    assert!(
        plan.to_string()
            .ends_with("; row: heating 1/3[paper→author·author→paper] · paper→paper)"),
        "{plan}"
    );
    for p in 0..3 {
        assert_eq!(
            engine.execute(&span(p)).unwrap(),
            reference.execute(&span(p)).unwrap()
        );
    }
    // the third run heated the half past `promote_after`: computed, and
    // refused at the door
    let found_out = engine.stats();
    assert_eq!(found_out.factor_promotions, 1);
    assert_eq!(found_out.cache.misses, 1);
    assert_eq!(found_out.cache.inserts_refused, 1);
    assert_eq!(found_out.cache.evictions, 0);
    for p in 3..53 {
        assert_eq!(
            engine.execute(&span(p)).unwrap(),
            reference.execute(&span(p)).unwrap()
        );
    }
    let after = engine.stats();
    assert_eq!(after.factor_promotions, 1, "never heated again");
    assert_eq!(after.cache.misses, 1, "never computed again");
    assert_eq!(after.cache.inserts_refused, 1);
    assert_eq!(after.promotions, 0);
    assert_eq!(after.promotions_refused, 53);
    // the span chains now, and EXPLAIN says so
    let plan = engine.plan(&span(0)).unwrap();
    assert_eq!(plan.row_route, None, "{plan}");
}

/// 300 papers over 12 authors, 3 venues and 20 terms: author×venue and
/// venue×term are thin, author×author and author×term nearly dense.
fn skewed_bib() -> Arc<Hin> {
    let mut b = HinBuilder::new();
    let paper = b.add_type("paper");
    let author = b.add_type("author");
    let venue = b.add_type("venue");
    let term = b.add_type("term");
    let pa = b.add_relation("written_by", paper, author);
    let pv = b.add_relation("published_in", paper, venue);
    let pt = b.add_relation("mentions", paper, term);
    for p in 0..300 {
        let pn = format!("p{p}");
        b.link(pa, &pn, &format!("a{}", p % 12), 1.0).unwrap();
        b.link(pa, &pn, &format!("a{}", (p * 7 + 1) % 12), 1.0)
            .unwrap();
        b.link(pv, &pn, &format!("v{}", p % 3), 1.0).unwrap();
        b.link(pt, &pn, &format!("t{}", (p * 11) % 20), 2.0)
            .unwrap();
    }
    Arc::new(b.build())
}

#[test]
fn two_halves_that_crowd_one_slice_are_not_taken() {
    let hin = skewed_bib();
    let reference = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::eager(),
    );
    let span = "author-paper-venue-paper-author";
    let probe = Engine::from_arc(Arc::clone(&hin));
    let (left, right) = (
        est_bytes(&probe, "author-paper-venue", "a0"),
        est_bytes(&probe, "venue-paper-author", "v0"),
    );
    assert!(est_bytes(&probe, span, "a0") > left + right);
    // one shard: each half fits its slice alone, the two do not together
    for (slice, split) in [(left.max(right) + 8, false), (left + right, true)] {
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(slice),
            },
        );
        let q = |a: usize| format!("pathsim {span} from a{a}");
        for round in 0..3 {
            for a in 0..12 {
                assert_eq!(
                    engine.execute(&q(a)).unwrap(),
                    reference.execute(&q(a)).unwrap(),
                    "slice {slice}, round {round}"
                );
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.cache.evictions, 0, "slice {slice}");
        assert_eq!(stats.promotions, 0, "slice {slice}");
        let route = engine.plan(&q(0)).unwrap().row_route;
        if split {
            assert_eq!(
                route,
                Some(RowRoute {
                    at: 2,
                    halves: [Factor::Resident; 2]
                })
            );
            assert!(engine.plan(&q(0)).unwrap().to_string().ends_with(
                "; row: cache[author→paper·paper→venue] · cache[venue→paper·paper→author])"
            ));
            assert!(stats.factor_promotions >= 1);
        } else {
            assert_eq!(route, None, "slice {slice}");
            assert_eq!(stats.factor_promotions, 0);
            assert_eq!(stats.cache.misses, 0, "nothing materialized");
        }
    }
}

#[test]
fn explain_names_the_route_and_heats_nothing() {
    let hin = skewed_bib();
    let engine = Engine::with_cache_config(
        Arc::clone(&hin),
        CacheConfig {
            shards: 1,
            byte_budget: Some(2048),
        },
    );
    let q = "pathcount author-paper-venue-paper-term from a0";
    let explain = || engine.plan(q).unwrap().to_string();
    let route = |text: String| text.split("; row: ").nth(1).unwrap().to_string();
    let before = engine.stats();
    for _ in 0..5 {
        assert_eq!(
            route(explain()),
            "heating 1/3[author→paper·paper→venue] · heating 1/3[venue→paper·paper→term])"
        );
    }
    assert_eq!(engine.stats(), before, "EXPLAIN records nothing");
    engine.execute(q).unwrap();
    assert_eq!(
        route(explain()),
        "heating 2/3[author→paper·paper→venue] · heating 2/3[venue→paper·paper→term])"
    );
    engine.execute(q).unwrap();
    engine.execute(q).unwrap();
    assert_eq!(
        route(explain()),
        "cache[author→paper·paper→venue] · cache[venue→paper·paper→term])"
    );
    assert_eq!(engine.stats().factor_promotions, 2);
    assert_eq!(engine.stats().promotions, 0);
    // a two-step span has no product half, so no route
    let short = engine.plan("pathcount author-paper-term from a0").unwrap();
    assert_eq!(short.row_route, None, "{short}");
}

#[test]
fn racing_threads_compute_each_half_once() {
    let hin = skewed_bib();
    let reference = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::eager(),
    );
    let queries: Vec<String> = (0..12)
        .map(|a| format!("pathcount author-paper-venue-paper-term from a{a}"))
        .collect();
    let want: Vec<QueryOutput> = queries
        .iter()
        .map(|q| reference.execute(q).unwrap())
        .collect();
    for threads in 2..=4 {
        // every refused run crosses `promote_after`: all threads race to
        // materialize the halves of the first queries
        let engine = Arc::new(Engine::with_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 1,
                byte_budget: Some(2048),
            },
            ExecPolicy::promote_after(1),
        ));
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (engine, barrier) = (Arc::clone(&engine), Arc::clone(&barrier));
                let queries = queries.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..queries.len())
                        .map(|i| {
                            let i = (i + t) % queries.len();
                            (i, engine.execute(&queries[i]).unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, got) in handle.join().expect("no thread panics") {
                assert_bit_identical(
                    &got,
                    &want[i],
                    &format!("{threads} threads: {}", queries[i]),
                );
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.cache.dup_computes, 0, "{threads} threads");
        assert_eq!(
            stats.cache.misses, 2,
            "{threads} threads: author×venue and venue×term, once each"
        );
        assert_eq!(stats.cache.evictions, 0, "{threads} threads");
        assert!(stats.factor_promotions >= 2, "{threads} threads");
        assert_eq!(stats.promotions, 0, "{threads} threads");
    }
}
