//! The row of a span the cache refuses, served through two halves it
//! keeps: (row `x` of the left half) · (the right half), the way PathSim
//! computes a row of `H·Hᵀ` from its half-path matrix `H`.
//!
//! Weights are small integers, so every commuting-matrix entry is an exact
//! integer and the changed association — `x·(AB)·(CD)` where the chain
//! runs `(((xA)B)C)D` — leaves every score bit-identical to the full
//! product's row, read off an unbounded engine that materializes every
//! span it is asked (the contract `anchored_props.rs` states).
//!
//! CI runs this file ten times in debug: threads race the first refused
//! queries, and which of them heats a half past `promote_after` and which
//! waits for its product differs from run to run.

use std::sync::{Arc, Barrier};

use hin_core::{Hin, HinBuilder};
use hin_linalg::Csr;
use hin_query::{
    CacheConfig, Engine, EngineStats, ExecMode, ExecPolicy, Factor, Promotion, QueryOutput,
    QueryPlan, Refusal, RowRoute, TraceMode,
};
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

/// The slice of a one-shard cache that holds the two halves of every span
/// in [`SPANS`] side by side, priced by `engine`'s estimates; and the spans
/// whose own estimate exceeds it.
fn pair_slice(engine: &Engine) -> (usize, Vec<&'static str>) {
    let half = |path: &str| {
        let anchor = match &path[..1] {
            "a" => "a0",
            "v" => "v0",
            _ => "t0",
        };
        est_bytes(engine, path, anchor)
    };
    let pair = |span: &str| {
        let steps: Vec<&str> = span.split('-').collect();
        half(&steps[..3].join("-")) + half(&steps[2..].join("-"))
    };
    let slice = SPANS.iter().map(|s| pair(s)).max().unwrap();
    (
        slice,
        SPANS.into_iter().filter(|s| half(s) > slice).collect(),
    )
}

/// The halves of `plan`'s row route that `EXPLAIN` shows at their last
/// heating run (`run >= of`), a half and its mirror counted once: each
/// half is named by the node types its labels pass through, and a half's
/// mirror passes through them in reverse.
fn crossing_halves(plan: &QueryPlan) -> usize {
    let Some(RowRoute { halves, .. }) = plan.row_route else {
        return 0;
    };
    let text = plan.to_string();
    let route = text.split("; row: ").nth(1).unwrap().trim_end_matches(')');
    let mut crossing: Vec<Vec<&str>> = Vec::new();
    for (factor, shown) in halves.iter().zip(route.split(" · ")) {
        let Factor::Heating { run, of } = *factor else {
            continue;
        };
        if run < of {
            continue;
        }
        let labels = shown.split('[').nth(1).unwrap().trim_end_matches(']');
        let mut nodes: Vec<&str> = labels
            .split('·')
            .map(|l| l.split('→').next().unwrap())
            .collect();
        nodes.push(labels.rsplit('→').next().unwrap());
        let mirror: Vec<&str> = nodes.iter().rev().copied().collect();
        let canonical = nodes.min(mirror);
        if !crossing.contains(&canonical) {
            crossing.push(canonical);
        }
    }
    crossing.len()
}

/// An unbounded engine under `promote_after(0)`: every anchored run
/// materializes its span, so every answer is read off the full product —
/// unless the promotion rule factors the span (a symmetric square more
/// than eight times its halves), whose rows are read through the halves.
fn materializing(hin: &Arc<Hin>) -> Engine {
    Engine::with_config(
        Arc::clone(hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    )
}

/// Run each of `queries` in turn on `engine`, single-threaded, checking
/// that what `EXPLAIN` forecasts for it is what its execution then does:
/// the mode it runs in, which promotion counter moves, how many halves
/// materialize, and what the next `EXPLAIN` of it counts; and that its
/// answer is `reference`'s, bit for bit.
fn explain_is_what_runs(engine: &Engine, reference: &Engine, queries: &[String]) {
    for q in queries {
        let plan = engine.plan(q).unwrap();
        let before = engine.stats();
        let (got, trace) = engine.execute_traced(q);
        let after = engine.stats();
        let next = engine.plan(q).unwrap();
        let context = format!("{q}\n  planned: {plan}\n  then:    {next}");
        assert_bit_identical(&got.unwrap(), &reference.execute(q).unwrap(), &context);

        let promotes = matches!(plan.promotion, Some(Promotion::Heating { run, of }) if run >= of);
        let refused = matches!(plan.promotion, Some(Promotion::Refused(_)));
        let lazy = matches!(plan.mode, ExecMode::SparseRow { .. });
        let mode = match lazy && !promotes {
            true => TraceMode::SparseRow,
            false => TraceMode::Full,
        };
        assert_eq!(trace.mode, mode, "{context}");
        assert_eq!(
            after.promotions - before.promotions,
            u64::from(promotes),
            "{context}"
        );
        assert_eq!(
            after.promotions_refused - before.promotions_refused,
            u64::from(refused),
            "{context}"
        );
        let crossing = crossing_halves(&plan);
        assert_eq!(
            after.factor_promotions - before.factor_promotions,
            crossing as u64,
            "{context}"
        );
        // a memo hit is forecast, and it is the one thing such a run counts
        let memoized = plan.promotion == Some(Promotion::Memoized);
        assert_eq!(
            after.memo_hits - before.memo_hits,
            u64::from(memoized),
            "{context}"
        );
        if memoized {
            let only_the_hit = EngineStats {
                memo_hits: after.memo_hits,
                ..before
            };
            assert_eq!(after, only_the_hit, "{context}");
        }

        // the next EXPLAIN counts one run more, or starts again after a
        // crossing: the product is resident, refused, or evicted already —
        // and the crossing read stored its row, so the same read is
        // memoized
        match (plan.promotion, next.promotion) {
            (Some(Promotion::Heating { run, of }), next) if run < of => {
                assert_eq!(
                    next,
                    Some(Promotion::Heating { run: run + 1, of }),
                    "{context}"
                )
            }
            (Some(Promotion::Heating { .. }), next) => assert!(
                matches!(
                    next,
                    Some(Promotion::Resident)
                        | Some(Promotion::Memoized)
                        | Some(Promotion::Refused(Refusal::Product { .. }))
                        | Some(Promotion::Heating { run: 1, .. })
                ),
                "{context}"
            ),
            _ => {}
        }
        // a refused span keeps its route until a half materializes
        if !refused || !matches!(next.promotion, Some(Promotion::Refused(_))) {
            continue;
        }
        let (Some(route), Some(then)) = (plan.row_route, next.row_route) else {
            let same = plan.row_route.map(|r| r.at) == next.row_route.map(|r| r.at);
            assert!(same || crossing > 0, "{context}");
            continue;
        };
        if route.at != then.at {
            assert!(crossing > 0, "{context}");
            continue;
        }
        for (was, now) in route.halves.iter().zip(then.halves) {
            match *was {
                Factor::Heating { run, of } if run < of => {
                    assert_eq!(now, Factor::Heating { run: run + 1, of }, "{context}")
                }
                Factor::Heating { .. } => assert!(
                    matches!(now, Factor::Resident | Factor::Heating { run: 1, .. }),
                    "{context}"
                ),
                _ => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `EXPLAIN` is what runs, under a one-shard cache that holds the halves
    /// of the spans queried but not the spans: see
    /// [`explain_is_what_runs`]. Every query runs twice, so that halves
    /// heat, cross and are then read.
    #[test]
    fn explain_is_what_runs_on_every_world(world in worlds()) {
        let hin = world.build();
        let reference = materializing(&hin);
        let (slice, _) = pair_slice(&Engine::from_arc(Arc::clone(&hin)));
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig { shards: 1, byte_budget: Some(slice) },
        );
        let all: Vec<String> = SPANS.iter().flat_map(|s| queries(&world, s)).collect();
        explain_is_what_runs(&engine, &reference, &all);
        explain_is_what_runs(&engine, &reference, &all);
        let stats = engine.stats();
        prop_assert!(stats.promotions_refused > 0, "{:?}", stats);
        prop_assert!(stats.factor_promotions >= 1, "{:?}", stats);
    }

    /// A one-shard cache whose slice holds the two halves of every span
    /// queried but none of the spans: every anchored verb answers as an
    /// unbounded materializing engine does — cold, with the halves
    /// materialized, and with them evicted — and no span's product is
    /// computed more than once: a span the cache refuses is never materialized again.
    #[test]
    fn a_refused_span_answers_through_its_halves_bit_for_bit(world in worlds()) {
        let hin = world.build();
        let reference = materializing(&hin);
        // the slice the pairs need; a span that would fit it is left out
        let (slice, spans) = pair_slice(&Engine::from_arc(Arc::clone(&hin)));
        prop_assert!(!spans.is_empty(), "no span exceeds the {} B slice", slice);
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig { shards: 1, byte_budget: Some(slice) },
        );
        let all: Vec<String> = spans.iter().flat_map(|s| queries(&world, s)).collect();
        let check = |stage: &str| {
            for q in &all {
                let want = reference.execute(q).unwrap();
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
    let reference = materializing(&hin);
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
    // EXPLAIN says what the fourth run does: the split whose half proved
    // oversize is chosen again at once, no other split qualifies, and
    // nothing heats
    let plan = engine.plan(&span(3)).unwrap();
    assert_eq!(plan.row_route, None, "{plan}");
    assert!(plan.to_string().ends_with(" shard slice)"), "{plan}");
    assert_eq!(
        engine.execute(&span(3)).unwrap(),
        reference.execute(&span(3)).unwrap()
    );
    assert_eq!(
        engine.stats().factor_promotions,
        1,
        "the fourth run heats nothing"
    );
    assert_eq!(engine.plan(&span(4)).unwrap().to_string(), plan.to_string());
    for p in 4..53 {
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

/// `EXPLAIN` is what runs on the hub world under the same 64 KB slice (see
/// [`explain_is_what_runs`]): the three-step span heats the paper×paper
/// half, which the two-step span and its mirror heat as a whole, until one
/// of them crosses and the product proves oversize.
#[test]
fn explain_is_what_runs_on_a_hub() {
    let hin = hub_bib();
    let reference = materializing(&hin);
    let engine = Engine::with_cache_config(
        Arc::clone(&hin),
        CacheConfig {
            shards: 1,
            byte_budget: Some(64 * 1024),
        },
    );
    let queries: Vec<String> = (0..12)
        .flat_map(|p| {
            [
                format!("pathcount written_by-^reviewed_by-cites from p{p}"),
                format!("pathcount reviewed_by-^written_by from p{}", p + 100),
                format!("pathcount written_by-^reviewed_by from p{}", p + 200),
            ]
        })
        .collect();
    explain_is_what_runs(&engine, &reference, &queries[..3]);
    explain_is_what_runs(&engine, &reference, &queries);
    explain_is_what_runs(&engine, &reference, &queries);
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
    let reference = materializing(&hin);
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
        // every row was propagated once and then read from the row memo;
        // past ten results a read is never the memo's, so its plan shows
        // the route a propagated row takes
        assert_eq!(stats.anchored_fast_paths, 12, "slice {slice}");
        assert_eq!(stats.memo_hits, 24, "slice {slice}");
        let deep = format!("{} limit 11", q(0));
        let route = engine.plan(&deep).unwrap().row_route;
        if split {
            assert_eq!(
                route,
                Some(RowRoute {
                    at: 2,
                    halves: [Factor::Resident; 2]
                })
            );
            assert!(engine.plan(&deep).unwrap().to_string().ends_with(
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
    let q = |a: usize| format!("pathcount author-paper-venue-paper-term from a{a}");
    // past ten results a read is never the row memo's, so this EXPLAIN
    // names the route whichever rows were read
    let deep = format!("{} limit 11", q(0));
    let explain = || engine.plan(&deep).unwrap().to_string();
    let route = |text: String| text.split("; row: ").nth(1).unwrap().to_string();
    let before = engine.stats();
    for _ in 0..5 {
        assert_eq!(
            route(explain()),
            "heating 1/3[author→paper·paper→venue] · heating 1/3[venue→paper·paper→term])"
        );
    }
    assert_eq!(engine.stats(), before, "EXPLAIN records nothing");
    engine.execute(&q(0)).unwrap();
    let heating = "heating 2/3[author→paper·paper→venue] · heating 2/3[venue→paper·paper→term])";
    assert_eq!(route(explain()), heating);
    // a repeat is a memo hit: it propagates nothing, so heats nothing
    engine.execute(&q(0)).unwrap();
    assert_eq!(route(explain()), heating);
    assert_eq!(engine.stats().memo_hits, 1);
    engine.execute(&q(1)).unwrap();
    engine.execute(&q(2)).unwrap();
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
    let reference = materializing(&hin);
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

/// `EXPLAIN` is what runs on an unbounded engine where the promotion rule
/// factors A-P-V-P-A, whose square is far larger than its halves (see
/// [`explain_is_what_runs`]): a row's first read is refused, heats the
/// halves and stores the row in the row memo, and every later read of the
/// row is a memo hit, forecast as one. The answers are those of an engine
/// whose square was made resident by hand.
#[test]
fn explain_is_what_runs_where_the_rule_factors() {
    let span = "author-paper-venue-paper-author";
    for grouped in [false, true] {
        let hin = venue_world(grouped);
        let reference = Engine::from_arc(Arc::clone(&hin));
        let path = span.split('-').collect::<Vec<_>>();
        let path = hin_similarity::MetaPath::from_type_names(&hin, &path).unwrap();
        reference.commuting_matrix(&path).unwrap();
        let engine = Engine::from_arc(Arc::clone(&hin));
        let plan = engine.plan(&format!("pathsim {span} from a0")).unwrap();
        assert!(
            matches!(
                plan.promotion,
                Some(Promotion::Refused(Refusal::Factored { .. }))
            ),
            "grouped {grouped}: {plan}"
        );
        let queries: Vec<String> = (0..240)
            .flat_map(|a| {
                [
                    format!("pathsim {span} from a{a}"),
                    format!("topk 3 {span} from a{a}"),
                    format!("pathcount {span} from a{a}"),
                ]
            })
            .collect();
        explain_is_what_runs(&engine, &reference, &queries);
        explain_is_what_runs(&engine, &reference, &queries);
        let stats = engine.stats();
        assert_eq!(stats.promotions, 0, "grouped {grouped}");
        assert_eq!(stats.promotions_refused, 480, "grouped {grouped}");
        assert_eq!(stats.memo_hits, 960, "grouped {grouped}");
        assert_eq!(stats.factor_promotions, 2, "grouped {grouped}");
        assert_eq!(stats.cache.len, 2, "grouped {grouped}: the halves alone");
    }
}

/// `EXPLAIN` is what runs on resident spans read through a one-shard cache
/// too small for all of them (see [`explain_is_what_runs`]): the ranked
/// reads of at most ten results ask the row memo first, so a repeated
/// anchor — or `rank` — is forecast as a memoized row and is one, before
/// and after the spans are evicted, and every answer is an unbounded
/// engine's bit for bit.
#[test]
fn explain_is_what_runs_where_resident_reads_are_memoized() {
    let hin = venue_world(false);
    let reference = materializing(&hin);
    // each pass repeats anchors and reads one new one, whose rows bring
    // the spans back for the next eviction
    let queries = |pass: usize| -> Vec<String> {
        [0, 1, 0, 2 + pass, 1]
            .iter()
            .flat_map(|a| {
                [
                    format!("topk 3 author-paper-author from a{a}"),
                    format!("pathsim author-paper-author from a{a}"),
                    format!("pathcount author-paper-venue from a{a} limit 10"),
                    format!("neighbors author-paper-venue from a{a} limit 10"),
                    "rank author-paper-venue limit 4".to_string(),
                    "rank author-paper-author".to_string(),
                ]
            })
            .collect()
    };
    // the slice admits both spans, by estimate and by size, and a filler
    // that takes it whole evicts them
    let cold = Engine::from_arc(Arc::clone(&hin));
    let slice = ["author-paper-author", "author-paper-venue"]
        .map(|span| {
            let types: Vec<&str> = span.split('-').collect();
            let path = hin_similarity::MetaPath::from_type_names(&hin, &types).unwrap();
            let real = reference.commuting_matrix(&path).unwrap().nbytes();
            real + est_bytes(&cold, span, "a0")
        })
        .iter()
        .sum();
    let engine = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig {
            shards: 1,
            byte_budget: Some(slice),
        },
        ExecPolicy::promote_after(0),
    );
    for pass in 0..3 {
        explain_is_what_runs(&engine, &reference, &queries(pass));
        let before = engine.stats().cache.evictions;
        fill_the_slice(&engine, slice);
        assert!(engine.stats().cache.evictions > before, "pass {pass}");
    }
    let stats = engine.stats();
    // one read of each list stores it, every other read is a hit: five
    // anchors, a PathSim and a count row each, and two row-sum lists
    let (reads, stored) = (3 * queries(0).len(), 5 * 2 + 2);
    assert_eq!(stats.memo_hits, (reads - stored) as u64);
    assert_eq!(stats.cache.memo_rows, stored);
}

/// 240 authors, three papers each as first author, four venues. Spread:
/// each paper has a second author far off in the numbering, and an
/// author's three first-author papers go to three venues, so every author
/// reaches every venue (the planner's uniform scatter model prices
/// author×venue a little under its size). Grouped: an author and every
/// co-author publish in venue `author % 4` only, so author×venue holds one
/// entry a row while the model prices it at about three.
fn venue_world(grouped: bool) -> Arc<Hin> {
    sized_venue_world(grouped, 240, 4, 3)
}

/// [`venue_world`] with `authors` authors, `venues` venues and `papers`
/// first-author papers an author.
fn sized_venue_world(grouped: bool, authors: usize, venues: usize, papers: usize) -> Arc<Hin> {
    let mut b = HinBuilder::new();
    let paper = b.add_type("paper");
    let author = b.add_type("author");
    let venue = b.add_type("venue");
    let pa = b.add_relation("written_by", paper, author);
    let pv = b.add_relation("published_in", paper, venue);
    for p in 0..papers * authors {
        let first = p % authors;
        let (second, v) = match grouped {
            true => (
                (first + venues * (1 + p / authors)) % authors,
                first % venues,
            ),
            false => ((p * 7 + 3) % authors, (first + p / authors) % venues),
        };
        let pn = format!("p{p}");
        b.link(pa, &pn, &format!("a{first}"), 1.0).unwrap();
        b.link(pa, &pn, &format!("a{second}"), 1.0).unwrap();
        b.link(pv, &pn, &format!("v{v}"), 1.0).unwrap();
    }
    Arc::new(b.build())
}

/// Whether A-P-V-P-A is factored is a property of the span, priced from
/// its relations alone: making its halves resident, whose real sizes the
/// planner's model misprices, changes neither side of the test nor the
/// verdict. In each of these worlds, pricing the halves and the square
/// against the resident halves instead moves the verdict across the
/// ratio, one way or the other.
#[test]
fn the_factored_verdict_does_not_depend_on_what_is_resident() {
    let span = "author-paper-venue-paper-author";
    let mut factored = Vec::new();
    for (grouped, authors, venues, papers) in [
        (false, 60, 3, 1),
        (false, 60, 4, 1),
        (true, 120, 6, 1),
        (true, 240, 12, 2),
    ] {
        let hin = sized_venue_world(grouped, authors, venues, papers);
        let engine = Engine::from_arc(Arc::clone(&hin));
        let q = format!("pathsim {span} from a0");
        let before = engine.plan(&q).unwrap();
        for half in ["author-paper-venue", "venue-paper-author"] {
            let types: Vec<&str> = half.split('-').collect();
            let path = hin_similarity::MetaPath::from_type_names(&hin, &types).unwrap();
            engine.commuting_matrix(&path).unwrap();
        }
        let after = engine.plan(&q).unwrap();
        let case = format!("{grouped} {authors}×{venues}×{papers}\n  {before}\n  {after}");
        assert_eq!(before.promotion, after.promotion, "{case}");
        factored.push(matches!(
            after.promotion,
            Some(Promotion::Refused(Refusal::Factored { .. }))
        ));
    }
    assert!(factored.contains(&true) && factored.contains(&false));
}

/// PathSim over `H·Hᵀ` with `H` = author×venue, on eight shards whose
/// slices hold `H` or `Hᵀ` but never the span: the cache keeps a product
/// and its transpose in different shards, so both halves become resident
/// and every row is one product through `Hᵀ`, equal to an unbounded
/// materializing engine's bit for bit. Spread, each half fits by estimate
/// and by size, and the two do not fit one slice; grouped, `H`'s row-major
/// estimate is over the slice and only `Hᵀ`'s (the same nonzeros, 5 row
/// pointers against 241) under it, and the half is let in on that cheaper
/// orientation — its real product fits.
#[test]
fn a_symmetric_row_reads_both_halves_from_their_own_slices() {
    let span = "author-paper-venue-paper-author";
    for grouped in [false, true] {
        let hin = venue_world(grouped);
        let reference = materializing(&hin);
        // the real halves, as an unbounded cache keeps them
        reference
            .execute("pathcount author-paper-venue from a0")
            .unwrap();
        let h = reference.stats().cache.bytes;
        reference
            .execute("pathcount venue-paper-author from v0")
            .unwrap();
        let ht = reference.stats().cache.bytes - h;
        // the promotion rule factors this span, so its square is made
        // resident by hand: the answers of record are read off it
        let path = span.split('-').collect::<Vec<_>>();
        let path = hin_similarity::MetaPath::from_type_names(&hin, &path).unwrap();
        reference.commuting_matrix(&path).unwrap();
        let cold = Engine::from_arc(Arc::clone(&hin));
        let (est_h, est_ht) = (
            est_bytes(&cold, "author-paper-venue", "a0"),
            est_bytes(&cold, "venue-paper-author", "v0"),
        );
        let slice = match grouped {
            false => h.max(ht).max(est_h).max(est_ht) + 8,
            true => est_ht,
        };
        let case = format!(
            "grouped {grouped}: slice {slice}, H {h} (est {est_h}), Hᵀ {ht} (est {est_ht})"
        );
        assert!(h <= slice && ht <= slice, "{case}");
        assert!(est_bytes(&cold, span, "a0") > slice, "{case}");
        match grouped {
            false => assert!(h + ht > slice, "{case}: not both in one slice"),
            true => assert!(est_h > slice && est_ht <= slice, "{case}"),
        }
        let engine = Engine::with_cache_config(
            Arc::clone(&hin),
            CacheConfig {
                shards: 8,
                byte_budget: Some(8 * slice),
            },
        );
        let queries: Vec<String> = (0..240)
            .flat_map(|a| {
                [
                    format!("pathsim {span} from a{a}"),
                    format!("topk 3 {span} from a{a}"),
                ]
            })
            .collect();
        for q in &queries {
            let want = reference.execute(q).unwrap();
            assert_bit_identical(&engine.execute(q).unwrap(), &want, &format!("{case}: {q}"));
        }
        let stats = engine.stats();
        assert_eq!(stats.cache.evictions, 0, "{case}");
        assert_eq!(stats.cache.inserts_refused, 0, "{case}");
        assert_eq!((stats.cache.len, stats.cache.bytes), (2, h + ht), "{case}");
        assert_eq!(stats.factor_promotions, 2, "{case}");
        assert_eq!(stats.promotions, 0, "{case}");
        // every read was propagated once or answered from the row memo;
        // past ten results a read is never the memo's, so its plan shows
        // the route a propagated row takes
        let plan = engine.plan(&format!("{} limit 11", queries[0])).unwrap();
        let route = Some(RowRoute {
            at: 2,
            halves: [Factor::Resident; 2],
        });
        assert_eq!(plan.row_route, route, "{case}: {plan}");
        assert!(
            plan.to_string().ends_with(
                "; row: cache[author→paper·paper→venue] · cache[venue→paper·paper→author])"
            ),
            "{case}: {plan}"
        );
    }
}
