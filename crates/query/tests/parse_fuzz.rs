//! Hostile query text: `parse` and then `resolve` against a small network
//! must return `Ok` or a typed [`QueryError`] for any input, never panic.
//! Four families, as `serve/tests/wire_fuzz.rs` gives wire frames:
//! - random bytes, read as UTF-8 with `from_utf8_lossy`;
//! - valid queries of all five verbs with characters flipped, inserted,
//!   deleted or cut off;
//! - counts of 0, `u64::MAX` and 10³⁰ after `topk` and `limit`;
//! - unterminated quotes and paths of ten thousand steps.
//!
//! A mutated query that still resolves is also executed, so an answer or
//! a typed error is checked end to end on it.

use hin_core::{Hin, HinBuilder};
use hin_query::{parse, resolve, Engine, QueryError};
use proptest::prelude::*;

/// Papers, authors and venues, one directed paper→paper citation (so the
/// `paper-paper` step is ambiguous), and an author whose name has a space.
fn small_hin() -> Hin {
    let mut b = HinBuilder::new();
    let paper = b.add_type("paper");
    let author = b.add_type("author");
    let venue = b.add_type("venue");
    let written_by = b.add_relation("written_by", paper, author);
    let published_in = b.add_relation("published_in", paper, venue);
    let cites = b.add_relation("cites", paper, paper);
    for (p, a) in [("p0", "a0"), ("p0", "a1"), ("p1", "a1"), ("p2", "ann b")] {
        b.link(written_by, p, a, 1.0).unwrap();
    }
    for (p, v) in [("p0", "v0"), ("p1", "v0"), ("p2", "v1")] {
        b.link(published_in, p, v, 1.0).unwrap();
    }
    b.link(cites, "p1", "p0", 1.0).unwrap();
    b.build()
}

/// `parse`, then `resolve`: either stage may refuse, with a typed error
/// whose message is not empty.
fn parse_and_resolve(hin: &Hin, input: &str) -> Result<(), QueryError> {
    let outcome = parse(input).and_then(|parsed| resolve(hin, &parsed).map(drop));
    if let Err(e) = &outcome {
        assert!(!e.to_string().is_empty(), "{input:?}: {e:?} renders empty");
    }
    outcome
}

/// One valid query per verb, plus a quoted anchor and a backward step.
const VALID: [&str; 7] = [
    "pathsim author-paper-author from a0",
    "pathcount author-paper-venue from a1 limit 3",
    "topk 2 author-paper-venue-paper-author from a0",
    "rank venue-paper-author limit 5",
    "neighbors ^written_by from a1",
    "pathsim author-paper-author from \"ann b\" limit 1",
    "neighbors author-^written_by-published_in from a0",
];

/// Characters a mutation writes: the grammar's own punctuation, digits,
/// whitespace of several kinds, letters of the vocabulary, and non-ASCII.
const ALPHABET: [char; 16] = [
    '"', '-', '^', ' ', '\t', '\u{3000}', '0', '9', 'a', 'p', 'r', 'x', 'é', '论', '\u{200b}', '\n',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..160)) {
        let hin = small_hin();
        let _ = parse_and_resolve(&hin, &String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_valid_queries_never_panic(
        which in 0usize..VALID.len(),
        edits in prop::collection::vec((0usize..4, 0usize..80, 0usize..ALPHABET.len()), 1..5),
    ) {
        let hin = small_hin();
        let mut chars: Vec<char> = VALID[which].chars().collect();
        for (op, at, c) in edits {
            let at = at % (chars.len() + 1);
            match op {
                0 if at < chars.len() => chars[at] = ALPHABET[c],
                1 => chars.insert(at, ALPHABET[c]),
                2 if at < chars.len() => {
                    chars.remove(at);
                }
                3 => chars.truncate(at),
                _ => {}
            }
        }
        let input: String = chars.into_iter().collect();
        if parse_and_resolve(&hin, &input).is_ok() {
            if let Err(e) = Engine::new(hin).execute(&input) {
                prop_assert!(!e.to_string().is_empty(), "{:?}: {:?}", input, e);
            }
        }
    }
}

#[test]
fn hostile_counts_are_refused_or_honoured() {
    let hin = small_hin();
    let engine = Engine::new(small_hin());
    for count in [
        "0",
        &u64::MAX.to_string(),
        "1000000000000000000000000000000",
    ] {
        for query in [
            format!("topk {count} author-paper-author from a0"),
            format!("pathsim author-paper-author from a0 limit {count}"),
            format!("pathcount author-paper-venue from a0 limit {count}"),
            format!("neighbors author-paper from a1 limit {count}"),
            format!("rank venue-paper-author limit {count}"),
        ] {
            match parse_and_resolve(&hin, &query) {
                // u64::MAX fits a usize here: every answer is the whole row
                Ok(()) => {
                    let out = engine.execute(&query).expect("a resolved query runs");
                    assert!(out.items.len() <= 3, "{query}: {out:?}");
                }
                Err(QueryError::Parse(_)) => {}
                Err(e) => panic!("{query}: only the count can be wrong, got {e:?}"),
            }
        }
    }
    // zero and 10³⁰ are parse errors; u64::MAX is a count
    assert!(matches!(
        parse("topk 0 author-paper-author from a0"),
        Err(QueryError::Parse(_))
    ));
    assert!(matches!(
        parse("rank venue-paper-author limit 1000000000000000000000000000000"),
        Err(QueryError::Parse(_))
    ));
}

#[test]
fn unterminated_quotes_are_parse_errors() {
    let hin = small_hin();
    for query in [
        "\"",
        "pathsim author-paper-author from \"a0",
        "pathsim \"author-paper-author from a0",
        "neighbors ^written_by from \"ann b",
        "rank venue-paper-author limit \"5",
        "\"\"\"",
    ] {
        let err = parse_and_resolve(&hin, query).expect_err(query);
        assert!(matches!(err, QueryError::Parse(_)), "{query}: {err:?}");
    }
}

#[test]
fn ten_thousand_step_paths_resolve_or_are_refused() {
    let hin = small_hin();
    // a valid palindrome: author (paper author) × 5 000
    let long = format!("author{}", "-paper-author".repeat(5_000));
    parse_and_resolve(&hin, &format!("pathcount {long} from a0")).expect("valid long path");
    parse_and_resolve(&hin, &format!("topk 3 {long} from a0")).expect("a palindrome");
    // explicit relation steps, forward and back
    let steps = format!("^written_by{}", "-written_by-^written_by".repeat(5_000));
    parse_and_resolve(&hin, &format!("neighbors {steps} from a0")).expect("relation steps");
    // an ambiguous step at the end, an unknown name in the middle, a
    // stray dash: each a typed error after ten thousand good steps
    for (path, want) in [
        (format!("{long}-paper-paper"), "ambiguous"),
        (format!("{long}-nobody-{long}"), "nobody"),
        (format!("{long}--author"), "empty segment"),
    ] {
        let err = parse_and_resolve(&hin, &format!("pathcount {path} from a0")).expect_err(want);
        assert!(err.to_string().contains(want), "{want}: {err}");
    }
}
