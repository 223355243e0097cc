//! Query text → abstract syntax.
//!
//! Grammar (whitespace-separated; `"…"` quotes names containing spaces):
//!
//! ```text
//! query     := "pathsim"   path "from" node [limit]
//!            | "pathcount" path "from" node [limit]
//!            | "topk" INT  path "from" node
//!            | "rank"      path [limit]
//!            | "neighbors" path "from" node [limit]
//! limit     := "limit" INT
//! path      := segment ("-" segment)*
//! segment   := TYPE_NAME | ["^"] RELATION_NAME
//! ```
//!
//! A path mixes type waypoints (`author-paper-venue`) and explicit relation
//! steps (`^written_by-published_in`); `^` traverses a relation against its
//! stored direction. Resolution against a concrete network happens later,
//! in [`mod@crate::resolve`].

use std::ops::Range;

use crate::error::QueryError;

/// The operation a query requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// PathSim peer scores from an anchor object (symmetric paths only).
    PathSim,
    /// Raw commuting-matrix path counts from an anchor object.
    PathCount,
    /// Rank all start-type objects by total path volume (row sums).
    Rank,
    /// Top-k PathSim neighbors — `pathsim` with a mandatory k.
    TopK,
    /// Objects reachable from an anchor with nonzero path weight.
    Neighbors,
}

impl Verb {
    /// The keyword form.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verb::PathSim => "pathsim",
            Verb::PathCount => "pathcount",
            Verb::Rank => "rank",
            Verb::TopK => "topk",
            Verb::Neighbors => "neighbors",
        }
    }
}

/// One `-`-separated element of a path expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// Type or relation name.
    pub name: String,
    /// `true` when written `^name` (reverse relation traversal).
    pub backward: bool,
}

/// An unresolved meta-path expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathExpr {
    /// The segments in order.
    pub segments: Vec<PathSegment>,
}

impl std::fmt::Display for PathExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            if s.backward {
                write!(f, "^")?;
            }
            write!(f, "{}", s.name)?;
        }
        Ok(())
    }
}

/// A parsed (but not yet schema-resolved) query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedQuery {
    /// Requested operation.
    pub verb: Verb,
    /// The meta-path expression.
    pub path: PathExpr,
    /// Anchor node name (`from …`), when the verb takes one.
    pub from: Option<String>,
    /// Result-size limit (`limit …`, or the k of `topk`).
    pub limit: Option<usize>,
}

/// Parse one query string.
pub fn parse(input: &str) -> Result<ParsedQuery, QueryError> {
    parse_tokens(&tokenize(input)?)
}

/// The grammar over a non-empty token list.
fn parse_tokens(tokens: &[Token<'_>]) -> Result<ParsedQuery, QueryError> {
    let mut pos = 0usize;
    let next = |pos: &mut usize, what: &str| -> Result<Token<'_>, QueryError> {
        let t = *tokens
            .get(*pos)
            .ok_or_else(|| QueryError::Parse(format!("expected {what}, found end of query")))?;
        *pos += 1;
        Ok(t)
    };

    let verb_tok = next(&mut pos, "a verb (pathsim|pathcount|rank|topk|neighbors)")?;
    let verb = match verb_tok.text {
        "pathsim" => Verb::PathSim,
        "pathcount" => Verb::PathCount,
        "rank" => Verb::Rank,
        "topk" => Verb::TopK,
        "neighbors" => Verb::Neighbors,
        other => {
            return Err(QueryError::Parse(format!(
                "unknown verb `{other}`; expected pathsim, pathcount, rank, topk or neighbors"
            )))
        }
    };

    let mut limit = None;
    if verb == Verb::TopK {
        let k = next(&mut pos, "k after `topk`")?;
        limit = Some(parse_count(&k, "topk")?);
    }

    let path_tok = next(&mut pos, "a meta-path expression")?;
    let path = parse_path(path_tok.text)?;

    let mut from = None;
    if matches!(
        verb,
        Verb::PathSim | Verb::PathCount | Verb::TopK | Verb::Neighbors
    ) {
        let kw = next(&mut pos, "`from <node>`")?;
        if kw.text != "from" || kw.quoted {
            return Err(QueryError::Parse(format!(
                "{} needs `from <node>`, found `{}`",
                verb.as_str(),
                kw.text
            )));
        }
        from = Some(next(&mut pos, "a node name after `from`")?.text.to_string());
    }

    if pos < tokens.len() && tokens[pos].text == "limit" && !tokens[pos].quoted {
        if verb == Verb::TopK {
            return Err(QueryError::Parse(
                "`topk` already carries its k; `limit` is not allowed".to_string(),
            ));
        }
        pos += 1;
        let k = next(&mut pos, "a count after `limit`")?;
        limit = Some(parse_count(&k, "limit")?);
    }

    if pos < tokens.len() {
        return Err(QueryError::Parse(format!(
            "unexpected trailing input starting at `{}`",
            tokens[pos].text
        )));
    }

    Ok(ParsedQuery {
        verb,
        path,
        from,
        limit,
    })
}

/// Parse a `-`-separated path expression.
pub fn parse_path(text: &str) -> Result<PathExpr, QueryError> {
    let mut segments = Vec::with_capacity(text.matches('-').count() + 1);
    for raw in text.split('-') {
        if raw.is_empty() {
            return Err(QueryError::Parse(format!(
                "empty segment in path `{text}` (stray or trailing `-`)"
            )));
        }
        let (backward, name) = match raw.strip_prefix('^') {
            Some(rest) => (true, rest),
            None => (false, raw),
        };
        if name.is_empty() {
            return Err(QueryError::Parse(format!(
                "`^` without a relation name in path `{text}`"
            )));
        }
        segments.push(PathSegment {
            name: name.to_string(),
            backward,
        });
    }
    if segments.is_empty() {
        return Err(QueryError::Parse("empty path expression".to_string()));
    }
    Ok(PathExpr { segments })
}

/// One word of a query, borrowed from the query text: a quoted token is
/// the text between its quotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Token<'a> {
    text: &'a str,
    quoted: bool,
}

/// Split `input` into tokens: runs of non-whitespace broken at `"`, and
/// `"…"` spans taken whole. Whitespace is Unicode's ([`char::is_whitespace`],
/// which is also what [`str::trim_start`] skips).
fn tokenize(input: &str) -> Result<Vec<Token<'_>>, QueryError> {
    let tokens = Tokens::new(input)
        .map(|t| t.map(|(_, token)| token))
        .collect::<Result<Vec<_>, _>>()?;
    if tokens.is_empty() {
        return Err(QueryError::Parse("empty query".to_string()));
    }
    Ok(tokens)
}

/// The one tokenizer: `input`'s tokens in order, each with the byte range
/// of `input` it was read from (a quoted token's quotes included). It
/// yields nothing after an unterminated quote, which is its one error.
struct Tokens<'a> {
    input: &'a str,
    rest: &'a str,
}

impl<'a> Tokens<'a> {
    fn new(input: &'a str) -> Self {
        Tokens { input, rest: input }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Result<(Range<usize>, Token<'a>), QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.rest.trim_start();
        let start = self.input.len() - rest.len();
        let token = match rest.strip_prefix('"') {
            Some(quoted) => {
                let Some(end) = quoted.find('"') else {
                    self.rest = "";
                    return Some(Err(QueryError::Parse(format!(
                        "unterminated quoted name in `{}`",
                        self.input
                    ))));
                };
                self.rest = &quoted[end + 1..];
                Token {
                    text: &quoted[..end],
                    quoted: true,
                }
            }
            None if rest.is_empty() => {
                self.rest = rest;
                return None;
            }
            None => {
                let end = rest
                    .find(|c: char| c.is_whitespace() || c == '"')
                    .unwrap_or(rest.len());
                let (text, tail) = rest.split_at(end);
                self.rest = tail;
                Token {
                    text,
                    quoted: false,
                }
            }
        };
        Some(Ok((start..self.input.len() - self.rest.len(), token)))
    }
}

/// A query text with its anchor token cut out: what the engine files a
/// compiled query's shape under, so that texts differing only in their
/// anchor share one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cut<'a> {
    /// The text before the anchor token; the whole text when it has none.
    pub head: &'a str,
    /// The anchor's name (a quoted token's text between its quotes) and
    /// the text after its token, when the text has an anchor.
    pub anchor: Option<(&'a str, &'a str)>,
}

/// Cut `input`'s anchor token out: the token [`parse`] reads as the node
/// name after `from`, found by walking the same tokens `parse` walks, up
/// to it and no further. That is the token after an unquoted `from` that
/// follows the verb and its path (and, for `topk`, its k), whatever those
/// tokens say — a query that does not parse has an anchor too, if it has
/// that token. A text without one (`rank`, or a tokenizing error or the
/// end of the text before it) is not cut.
///
/// The cut takes a quoted anchor's quotes with it, so every text with the
/// same `head` and tail has the same tokens but the anchor's: the tokens
/// before it are read from the same text up to the same boundary, and
/// those after it from the same text starting afresh. So they parse alike
/// but for the anchor, or fail alike.
pub(crate) fn cut(input: &str) -> Cut<'_> {
    let whole = Cut {
        head: input,
        anchor: None,
    };
    let mut tokens = Tokens::new(input).map_while(Result::ok);
    let before_from = match tokens.next() {
        Some((_, verb)) => match verb.text {
            "pathsim" | "pathcount" | "neighbors" => 1,
            "topk" => 2,
            _ => return whole,
        },
        None => return whole,
    };
    let mut tokens = tokens.skip(before_from);
    match tokens.next() {
        Some((_, from)) if from.text == "from" && !from.quoted => {}
        _ => return whole,
    }
    match tokens.next() {
        Some((span, name)) => Cut {
            head: &input[..span.start],
            anchor: Some((name.text, &input[span.end..])),
        },
        None => whole,
    }
}

fn parse_int(tok: &Token) -> Result<usize, QueryError> {
    tok.text
        .parse::<usize>()
        .map_err(|_| QueryError::Parse(format!("expected a number, found `{}`", tok.text)))
}

/// Parse a result count, rejecting zero: `topk 0` / `limit 0` would parse
/// fine and then silently return empty results for every query — in a
/// serving context that reads as "no matches", not "you asked for none".
fn parse_count(tok: &Token, what: &str) -> Result<usize, QueryError> {
    match parse_int(tok)? {
        0 => Err(QueryError::Parse(format!(
            "`{what} {}` asks for zero results; the count after `{what}` must be at least 1",
            tok.text
        ))),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        let q = parse("pathsim author-paper-author from author_a0_0").unwrap();
        assert_eq!(q.verb, Verb::PathSim);
        assert_eq!(q.path.segments.len(), 3);
        assert_eq!(q.from.as_deref(), Some("author_a0_0"));
        assert_eq!(q.limit, None);

        let q = parse("pathcount author-paper-venue from \"ann b\" limit 3").unwrap();
        assert_eq!(q.verb, Verb::PathCount);
        assert_eq!(q.from.as_deref(), Some("ann b"));
        assert_eq!(q.limit, Some(3));

        let q = parse("topk 7 author-paper-author from a0").unwrap();
        assert_eq!(q.verb, Verb::TopK);
        assert_eq!(q.limit, Some(7));

        let q = parse("rank venue-paper-author limit 5").unwrap();
        assert_eq!(q.verb, Verb::Rank);
        assert!(q.from.is_none());
        assert_eq!(q.limit, Some(5));

        let q = parse("neighbors ^written_by from paper_0").unwrap();
        assert_eq!(q.verb, Verb::Neighbors);
        assert!(q.path.segments[0].backward);
        assert_eq!(q.path.segments[0].name, "written_by");
    }

    #[test]
    fn path_round_trips_through_display() {
        for text in [
            "author-paper-author",
            "^written_by-published_in",
            "author-^written_by-paper-venue",
        ] {
            let path = parse_path(text).unwrap();
            assert_eq!(path.to_string(), text);
        }
    }

    #[test]
    fn malformed_queries_are_rejected() {
        // every case: (input, substring expected in the error)
        let cases = [
            ("", "empty query"),
            ("pathsim", "meta-path"),
            ("frobnicate a-b from x", "unknown verb"),
            ("pathsim author-paper-author", "from"),
            ("pathsim author-paper-author from", "node name"),
            ("topk author-paper-author from x", "number"),
            (
                "topk 3 author-paper-author from x limit 4",
                "already carries",
            ),
            ("pathsim a--b from x", "empty segment"),
            ("pathsim a-b- from x", "empty segment"),
            ("pathsim ^-b from x", "`^` without"),
            ("pathsim a-b from x extra", "trailing"),
            ("pathsim a-b from \"unterminated", "unterminated"),
            ("rank a-b limit many", "number"),
            ("topk 0 a-b-a from x", "`topk 0` asks for zero results"),
            ("rank a-b limit 0", "`limit 0` asks for zero results"),
            ("pathsim a-b-a from x limit 0", "at least 1"),
        ];
        for (input, want) in cases {
            let err = parse(input).expect_err(input).to_string();
            assert!(
                err.contains(want),
                "`{input}` → `{err}` (expected to mention `{want}`)"
            );
        }
    }

    #[test]
    fn quoted_from_names_keep_spaces() {
        let q = parse("neighbors written_by from \"Jeffrey D. Ullman\"").unwrap();
        assert_eq!(q.from.as_deref(), Some("Jeffrey D. Ullman"));
    }

    /// The char-by-char tokenizer the borrowing one replaced, kept as its
    /// oracle: owned `(text, quoted)` tokens.
    fn oracle_tokenize(input: &str) -> Result<Vec<(String, bool)>, QueryError> {
        let mut tokens = Vec::new();
        let mut chars = input.chars().peekable();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
            } else if c == '"' {
                chars.next();
                let mut text = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(ch) => text.push(ch),
                        None => {
                            return Err(QueryError::Parse(format!(
                                "unterminated quoted name in `{input}`"
                            )))
                        }
                    }
                }
                tokens.push((text, true));
            } else {
                let mut text = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || ch == '"' {
                        break;
                    }
                    text.push(ch);
                    chars.next();
                }
                tokens.push((text, false));
            }
        }
        if tokens.is_empty() {
            return Err(QueryError::Parse("empty query".to_string()));
        }
        Ok(tokens)
    }

    /// `parse` through the oracle tokenizer.
    fn oracle_parse(input: &str) -> Result<ParsedQuery, QueryError> {
        let owned = oracle_tokenize(input)?;
        let tokens: Vec<Token<'_>> = owned
            .iter()
            .map(|(text, quoted)| Token {
                text,
                quoted: *quoted,
            })
            .collect();
        parse_tokens(&tokens)
    }

    /// Both tokenizers agree on `input`: the same tokens, the same parse,
    /// and byte-identical error text.
    fn assert_agrees(input: &str) {
        let owned = |tokens: Vec<Token<'_>>| -> Vec<(String, bool)> {
            tokens
                .into_iter()
                .map(|t| (t.text.to_string(), t.quoted))
                .collect()
        };
        assert_eq!(
            tokenize(input).map(owned),
            oracle_tokenize(input),
            "{input:?}"
        );
        let (got, want) = (parse(input), oracle_parse(input));
        assert_eq!(got, want, "{input:?}");
        if let (Err(got), Err(want)) = (got, want) {
            assert_eq!(got.to_string(), want.to_string(), "{input:?}");
        }
    }

    /// Query-like pieces: verbs, paths (good and malformed), keywords,
    /// counts, quoted names (spaces, unicode, empty, unterminated, glued to
    /// a word), and non-ASCII words.
    const PIECES: [&str; 30] = [
        "pathsim",
        "pathcount",
        "topk",
        "rank",
        "neighbors",
        "frobnicate",
        "author-paper-author",
        "^written_by-published_in",
        "a--b",
        "^",
        "from",
        "limit",
        "3",
        "0",
        "many",
        "author_a0_0",
        "\"ann b\"",
        "\"Jeffrey D. Ullman\"",
        "\"\"",
        "\"a\u{3000}b\"",
        "\"unterminated",
        "x\"y z\"w",
        "\"",
        "ñame",
        "作者-论文",
        "a\u{200b}b",
        "from\"q\"",
        "-",
        "venue-paper-author",
        "7",
    ];

    /// Separators: ASCII and Unicode whitespace (ideographic space,
    /// no-break space, line separator), nothing at all (gluing the pieces
    /// either side), and a zero-width space, which is not whitespace.
    const SEPARATORS: [&str; 9] = [
        " ", "  ", "\t", "\n", "\u{3000}", "\u{a0}", "\u{2028}", "", "\u{200b}",
    ];

    /// Clauses a query is built from, in order: verb, path, `from`,
    /// anchor, tail — each with some that break it.
    const CLAUSES: [&[&str]; 5] = [
        &[
            "pathsim",
            "pathcount",
            "topk 3",
            "topk",
            "neighbors",
            "rank",
            "\"pathsim\"",
        ],
        &["a-b-a", "^r-s", "a--b", "作者-论文", ""],
        &["from", "from", "from", "\"from\"", "limit", ""],
        &[
            "x",
            "\"ann b\"",
            "\"limit\"",
            "limit",
            "\"\"",
            "\"open",
            "ñame",
            "",
        ],
        &[
            "",
            "limit 2",
            "\"limit\" 2",
            "limit 0",
            "limit",
            "extra",
            "\"q\"",
            "\"open",
        ],
    ];

    /// What an anchor is swapped for.
    const ANCHORS: [&str; 4] = ["y", "\"other one\"", "\"limit 9\"", "\"\""];

    /// What follows each clause: mostly a plain space, so that most texts
    /// get as far as their anchor, and then the [`SEPARATORS`].
    const GLUES: [&str; 13] = [
        " ", " ", " ", " ", " ", "  ", "\t", "\n", "\u{3000}", "\u{a0}", "\u{2028}", "", "\u{200b}",
    ];

    #[test]
    fn borrowing_tokenizer_matches_the_oracle_on_pinned_inputs() {
        for input in [
            "",
            "   ",
            "\u{3000}\t",
            "pathsim author-paper-author from author_a0_0",
            "pathcount author-paper-venue from \"ann b\" limit 3",
            "neighbors written_by from \"Jeffrey D. Ullman\"",
            "pathsim a-b from \"unterminated",
            "\"unterminated pathsim",
            "pathsim a-b from x extra tokens",
            "topk\u{3000}3\u{a0}a-b-a\tfrom\nx",
            "rank a-b limit 2 \"trailing\"",
            "pathsim a-b-a from \"\"",
            "pathsim a-b-a from x\"glued\"",
            "pathsim a-b-a from\"glued\"",
            "neighbors 作者-论文 from ñame",
            "neighbors a\u{200b}b from x",
        ] {
            assert_agrees(input);
        }
    }

    #[test]
    fn cut_takes_out_the_anchor_token_parse_reads() {
        let anchored = |head, name, tail| Cut {
            head,
            anchor: Some((name, tail)),
        };
        let whole = |head| Cut { head, anchor: None };
        for (input, want) in [
            (
                "pathsim a-b-a from x",
                anchored("pathsim a-b-a from ", "x", ""),
            ),
            (
                "topk 3 a-b-a from x limit 4",
                anchored("topk 3 a-b-a from ", "x", " limit 4"),
            ),
            (
                "pathcount a-b from \"ann b\" limit 3",
                anchored("pathcount a-b from ", "ann b", " limit 3"),
            ),
            (
                "neighbors a-b from\"x\"limit 2",
                anchored("neighbors a-b from", "x", "limit 2"),
            ),
            (
                "neighbors a-b from \"limit\"",
                anchored("neighbors a-b from ", "limit", ""),
            ),
            ("rank a-b-a limit 2", whole("rank a-b-a limit 2")),
            (
                "pathsim a-b-a \"from\" x",
                whole("pathsim a-b-a \"from\" x"),
            ),
            ("pathsim a-b-a from", whole("pathsim a-b-a from")),
            ("pathsim \"a-b from x", whole("pathsim \"a-b from x")),
            ("topk a-b-a from x", whole("topk a-b-a from x")),
            ("", whole("")),
        ] {
            assert_eq!(cut(input), want, "{input:?}");
        }
    }

    proptest::proptest! {
        // one text in fifty parses: cheap cases, and many of them
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]
        /// `cut` finds the anchor `parse` reads, and any text cut to the
        /// same head and tail parses the same but for the anchor, or fails
        /// the same. Texts are query clauses glued by any separator, so
        /// that tokens run into each other and into quotes.
        #[test]
        fn a_text_with_the_same_cut_parses_the_same_but_for_the_anchor(
            clauses in (0usize..CLAUSES[0].len(), 0usize..CLAUSES[1].len(),
                        0usize..CLAUSES[2].len(), 0usize..CLAUSES[3].len(),
                        0usize..CLAUSES[4].len()),
            glues in proptest::prop::collection::vec(0usize..GLUES.len(), 5),
            other in 0usize..ANCHORS.len(),
        ) {
            let (verb, path, from, anchor, tail) = clauses;
            let picks = [verb, path, from, anchor, tail];
            let input: String = picks
                .iter()
                .zip(CLAUSES)
                .zip(&glues)
                .map(|((&pick, clause), &glue)| format!("{}{}", clause[pick], GLUES[glue]))
                .collect();
            let parsed = parse(&input);
            let found = cut(&input);
            if let Ok(q) = &parsed {
                assert_eq!(q.from.as_deref(), found.anchor.map(|(name, _)| name), "{input:?}");
            }
            let Some((_, rest)) = found.anchor else { return Ok(()) };
            let swapped = format!("{}{}{rest}", found.head, ANCHORS[other]);
            let swapped_cut = cut(&swapped);
            if (swapped_cut.head, swapped_cut.anchor.map(|a| a.1)) != (found.head, Some(rest)) {
                return Ok(()); // an unquoted anchor glued to its neighbours
            }
            // the same query but for the anchor, or the same error but for
            // the text an unterminated quote quotes back
            let shape = |text: &str| {
                parse(text)
                    .map(|q| ParsedQuery { from: None, ..q })
                    .map_err(|e| e.to_string().replace(text, "…"))
            };
            assert_eq!(shape(&swapped), shape(&input), "{input:?} → {swapped:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn borrowing_tokenizer_matches_the_oracle(
            lead in 0usize..SEPARATORS.len(),
            words in proptest::prop::collection::vec(
                (0usize..PIECES.len(), 0usize..SEPARATORS.len()),
                0..9,
            ),
        ) {
            let mut input = SEPARATORS[lead].to_string();
            for (piece, sep) in words {
                input.push_str(PIECES[piece]);
                input.push_str(SEPARATORS[sep]);
            }
            assert_agrees(&input);
        }
    }
}
