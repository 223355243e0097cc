//! The engine compiles a query's shape once — its text with the anchor
//! token cut out — and later texts of that shape resolve only their
//! anchor. These properties hold it to compiling every text whole: for any
//! text, [`Engine::execute_ids_traced`] and [`Engine::plan`] give the
//! answer, plan and error (by its `Display` text) that `resolve` of
//! `parse` and a fresh engine give, on the shape's first use and on every
//! hit after it, and across more distinct shapes than the table holds.
//!
//! Texts are drawn from verbs, paths (symmetric, not, ambiguous, unknown),
//! anchors (known, unknown, quoted with spaces, quoted `limit`, missing,
//! unterminated), `limit` clauses (good, zero, not a number, quoted),
//! trailing words and separators of several kinds.

use std::sync::Arc;

use hin_core::{Hin, HinBuilder};
use hin_query::{parse, resolve, Engine};
use proptest::prelude::*;

/// Papers, authors and venues, one directed paper→paper citation (so the
/// `paper-paper` step is ambiguous), and authors named with spaces and
/// with the `limit` keyword.
fn small_hin() -> Arc<Hin> {
    let mut b = HinBuilder::new();
    let paper = b.add_type("paper");
    let author = b.add_type("author");
    let venue = b.add_type("venue");
    let written_by = b.add_relation("written_by", paper, author);
    let published_in = b.add_relation("published_in", paper, venue);
    let cites = b.add_relation("cites", paper, paper);
    for (p, a) in [
        ("p0", "a0"),
        ("p0", "a1"),
        ("p1", "a1"),
        ("p2", "ann b"),
        ("p2", "limit"),
        ("p3", "the limit 2"),
        ("p3", "a0"),
    ] {
        b.link(written_by, p, a, 1.0).unwrap();
    }
    for (p, v) in [("p0", "v0"), ("p1", "v0"), ("p2", "v1"), ("p3", "v1")] {
        b.link(published_in, p, v, 1.0).unwrap();
    }
    b.link(cites, "p1", "p0", 1.0).unwrap();
    Arc::new(b.build())
}

const VERBS: [&str; 7] = [
    "pathsim",
    "pathcount",
    "topk 2",
    "topk 0",
    "neighbors",
    "rank",
    "frobnicate",
];

const PATHS: [&str; 8] = [
    "author-paper-author",
    "author-paper-venue",
    "author-paper-venue-paper-author",
    "^written_by",
    "author-paper",
    "author-paper-paper-author",
    "author-conference",
    "a--b",
];

/// What follows the path: an anchor clause, or none.
const ANCHORS: [&str; 11] = [
    "from a0",
    "from a1",
    "from \"a1\"",
    "from \"ann b\"",
    "from \"limit\"",
    "from \"the limit 2\"",
    "from limit",
    "from nobody",
    "from \"unterminated",
    "from",
    "",
];

const TAILS: [&str; 8] = [
    "",
    "limit 1",
    "limit 3",
    "limit 0",
    "limit many",
    "\"limit\" 3",
    "limit 2 extra",
    "from a0",
];

const SEPARATORS: [&str; 3] = [" ", "  ", "\t"];

/// One query text from the tables above.
fn text(verb: usize, path: usize, anchor: usize, tail: usize, sep: usize) -> String {
    let sep = SEPARATORS[sep];
    [VERBS[verb], PATHS[path], ANCHORS[anchor], TAILS[tail]]
        .into_iter()
        .filter(|part| !part.is_empty())
        .collect::<Vec<_>>()
        .join(sep)
}

/// `engine`, warmed by whatever ran on it before, answers and plans `q`
/// as a full compile does; `planner` only ever plans, so its plans are a
/// fresh engine's.
fn assert_compiles_whole(hin: &Arc<Hin>, engine: &Engine, planner: &Engine, q: &str) {
    let reference = parse(q).and_then(|parsed| resolve(hin, &parsed));
    let fresh = Engine::from_arc(Arc::clone(hin));
    // planning first leaves the fresh engine fresh for the answer
    let fresh_plan = fresh.plan(q).map(|p| p.to_string());
    let (want, _) = fresh.execute_ids_traced(q);
    let (got, _) = engine.execute_ids_traced(q);
    let plan = planner.plan(q).map(|p| p.to_string());
    match reference {
        Ok(resolved) => {
            assert_eq!(got, want, "{q:?}");
            let got = got.unwrap_or_else(|e| panic!("{q:?}: {e}"));
            assert_eq!(got.verb, resolved.verb, "{q:?}");
            assert_eq!(plan.ok(), fresh_plan.ok(), "{q:?}");
        }
        Err(e) => {
            let want = Some(e.to_string());
            assert_eq!(got.err().map(|e| e.to_string()), want, "{q:?}");
            assert_eq!(plan.err().map(|e| e.to_string()), want, "{q:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A run of texts through one engine: each is run twice, so whatever
    /// compiled is a hit the second time, and texts of one shape with
    /// other anchors hit it too.
    #[test]
    fn a_compiled_shape_answers_as_a_whole_compile(
        texts in prop::collection::vec(
            (0usize..VERBS.len(), 0usize..PATHS.len(), 0usize..ANCHORS.len(),
             0usize..TAILS.len(), 0usize..SEPARATORS.len()),
            1..12,
        ),
    ) {
        let hin = small_hin();
        let engine = Engine::from_arc(Arc::clone(&hin));
        let planner = Engine::from_arc(Arc::clone(&hin));
        for (verb, path, anchor, tail, sep) in texts {
            let q = text(verb, path, anchor, tail, sep);
            assert_compiles_whole(&hin, &engine, &planner, &q);
            assert_compiles_whole(&hin, &engine, &planner, &q);
        }
    }
}

/// More distinct shapes than the table holds (it holds a few hundred and
/// then starts again), each answered before and after the ones that push
/// it out.
#[test]
fn shapes_past_the_table_bound_answer_as_whole_compiles() {
    let hin = small_hin();
    let engine = Engine::from_arc(Arc::clone(&hin));
    let planner = Engine::from_arc(Arc::clone(&hin));
    let shape = |i: usize| {
        let anchor = ["a0", "\"a1\"", "\"the limit 2\""][i % 3];
        match i % 4 {
            0 => format!("pathcount author-paper-venue from {anchor} limit {}", i + 1),
            1 => format!("neighbors author-paper from {anchor} limit {}", i + 1),
            2 => format!("rank venue-paper-author limit {}", i + 1),
            _ => format!("topk {} author-paper-author from {anchor}", i + 1),
        }
    };
    for i in 0..1200 {
        assert_compiles_whole(&hin, &engine, &planner, &shape(i));
        // one pushed out long ago, or still held
        assert_compiles_whole(&hin, &engine, &planner, &shape(i / 2));
    }
}
