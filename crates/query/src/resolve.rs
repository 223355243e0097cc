//! Path expressions → concrete relation steps, against a network's schema.

use hin_core::{Hin, NodeRef, RelationId, TypeId};
use hin_similarity::{MetaPath, PathStep};

use crate::error::QueryError;
use crate::parse::{ParsedQuery, PathExpr, Verb};

/// A query bound to a concrete network: steps, endpoint types, anchor node.
#[derive(Clone, Debug)]
pub struct ResolvedQuery {
    /// The operation.
    pub verb: Verb,
    /// The resolved meta-path.
    pub path: MetaPath,
    /// Start (anchor-side) type of the path.
    pub start: TypeId,
    /// End (result-side) type of the path.
    pub end: TypeId,
    /// Anchor node, for verbs that take `from`.
    pub from: Option<NodeRef>,
    /// Result-size limit.
    pub limit: Option<usize>,
}

/// Resolve a path expression to relation steps.
///
/// Segment semantics:
/// * a **type name** moves the path to that type through the unique
///   relation connecting it to the current type — zero candidates is a
///   [`QueryError::Hin`] (`NoRelation`), two or more an
///   [`QueryError::AmbiguousRelation`];
/// * a **relation name** (optionally `^`-prefixed for reverse traversal)
///   names the step explicitly, which is also how ambiguous pairs are
///   disambiguated;
/// * a type name equal to the current type is a no-op waypoint when the
///   type has no self-relation (useful to assert positions in long
///   relation-step paths), a step when it has exactly one *symmetric*
///   self-relation, and an [`QueryError::AmbiguousRelation`] for a
///   directed self-relation — traversing `cites` forward (out-citations)
///   and backward (in-citations) are different answers, so the query must
///   say `rel` or `^rel`.
pub fn resolve_path(hin: &Hin, expr: &PathExpr) -> Result<MetaPath, QueryError> {
    let mut steps: Vec<PathStep> = Vec::with_capacity(expr.segments.len());
    let mut current: Option<TypeId> = None;

    for seg in &expr.segments {
        if let Some(rel) = hin.relation_by_name(&seg.name) {
            let info = hin.relation(rel);
            let (src, dst, step) = if seg.backward {
                (info.dst, info.src, PathStep::Backward(rel))
            } else {
                (info.src, info.dst, PathStep::Forward(rel))
            };
            if let Some(cur) = current {
                if cur != src {
                    return Err(QueryError::IncompatibleStep {
                        relation: seg.name.clone(),
                        at: hin.type_name(cur).to_string(),
                        expects: hin.type_name(src).to_string(),
                        backward: seg.backward,
                    });
                }
            }
            steps.push(step);
            current = Some(dst);
            continue;
        }

        if seg.backward {
            // `^` only makes sense on relations
            return Err(QueryError::UnknownName(format!("^{}", seg.name)));
        }

        let ty = hin
            .type_by_name(&seg.name)
            .map_err(|_| QueryError::UnknownName(seg.name.clone()))?;
        let Some(cur) = current else {
            current = Some(ty); // anchor: no step yet
            continue;
        };

        let between = hin.relations_between(cur, ty);
        let mut candidates = candidate_steps(hin, &between);
        match (candidates.next(), candidates.next()) {
            (None, _) if cur == ty => {
                // no-op waypoint: path already at this type
            }
            (None, _) => {
                return Err(QueryError::Hin(hin_core::HinError::NoRelation {
                    src: hin.type_name(cur).to_string(),
                    dst: hin.type_name(ty).to_string(),
                }))
            }
            (Some(step), None) => {
                steps.push(step);
                current = Some(ty);
            }
            (Some(_), Some(_)) => {
                return Err(QueryError::AmbiguousRelation {
                    src: hin.type_name(cur).to_string(),
                    dst: hin.type_name(ty).to_string(),
                    candidates: candidate_steps(hin, &between)
                        .map(|step| step_name(hin, step))
                        .collect(),
                })
            }
        }
    }

    if steps.is_empty() {
        return Err(QueryError::EmptyPath);
    }
    Ok(MetaPath::new(steps))
}

/// The steps a type-name segment could mean, given the relations
/// [`Hin::relations_between`] found for the pair. A *directed*
/// self-relation (e.g. a `cites` paper→paper edge with an asymmetric
/// matrix) contributes both traversal directions — out-citations and
/// in-citations are different answers, so picking one silently would be a
/// guess. Symmetric self-relations (co-authorship) traverse identically
/// either way and stay unambiguous.
fn candidate_steps<'a>(
    hin: &'a Hin,
    between: &'a [(RelationId, bool)],
) -> impl Iterator<Item = PathStep> + 'a {
    between.iter().flat_map(move |&(rel, forward)| {
        let info = hin.relation(rel);
        let both = info.src == info.dst && !info.symmetric;
        [
            (both || forward).then_some(PathStep::Forward(rel)),
            (both || !forward).then_some(PathStep::Backward(rel)),
        ]
        .into_iter()
        .flatten()
    })
}

/// A step as the query language writes it — backward traversals in the
/// `^rel` form, so an ambiguity hint is directly usable.
fn step_name(hin: &Hin, step: PathStep) -> String {
    match step {
        PathStep::Forward(rel) => hin.relation(rel).name.clone(),
        PathStep::Backward(rel) => format!("^{}", hin.relation(rel).name),
    }
}

/// Resolve a full parsed query: path, verb constraints, anchor node.
pub fn resolve(hin: &Hin, parsed: &ParsedQuery) -> Result<ResolvedQuery, QueryError> {
    let (path, start, end) = resolve_shape(hin, parsed)?;
    let from = match &parsed.from {
        Some(name) => Some(hin.node_by_name(start, name)?),
        None => None,
    };

    Ok(ResolvedQuery {
        verb: parsed.verb,
        path,
        start,
        end,
        from,
        limit: parsed.limit,
    })
}

/// Everything [`resolve`] checks before the anchor, which it resolves
/// last: the path, its start and end types, and the verb's constraint on
/// it. What the engine compiles once per query shape.
pub(crate) fn resolve_shape(
    hin: &Hin,
    parsed: &ParsedQuery,
) -> Result<(MetaPath, TypeId, TypeId), QueryError> {
    let path = resolve_path(hin, &parsed.path)?;
    let (start, end) = path.validate(hin)?;

    if matches!(parsed.verb, Verb::PathSim | Verb::TopK) && !path.is_palindrome() {
        return Err(QueryError::NotSymmetric {
            path: parsed.path.to_string(),
        });
    }
    Ok((path, start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse, parse_path};
    use hin_core::HinBuilder;

    /// paper–author (two parallel relations), paper–venue, page–page self.
    fn fixture() -> Hin {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let page = b.add_type("page");
        let wr = b.add_relation("written_by", paper, author);
        b.add_relation("reviewed_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        let links = b.add_relation("links", page, page);
        b.link(wr, "p0", "a0", 1.0).unwrap();
        b.link(pv, "p0", "v0", 1.0).unwrap();
        // symmetric self-relation on pages
        b.link(links, "g0", "g1", 1.0).unwrap();
        b.link(links, "g1", "g0", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn unique_type_steps_resolve() {
        let hin = fixture();
        let q = parse("pathcount venue-paper-venue from v0").unwrap();
        let r = resolve(&hin, &q).unwrap();
        assert_eq!(r.path.len(), 2);
        assert_eq!(hin.type_name(r.start), "venue");
        assert_eq!(hin.type_name(r.end), "venue");
        assert_eq!(r.from, Some(hin.node_by_name(r.start, "v0").unwrap()));
    }

    #[test]
    fn ambiguous_pair_demands_explicit_relation() {
        let hin = fixture();
        let q = parse("pathcount author-paper from a0").unwrap();
        let err = resolve(&hin, &q).unwrap_err();
        match err {
            QueryError::AmbiguousRelation {
                src,
                dst,
                candidates,
            } => {
                assert_eq!((src.as_str(), dst.as_str()), ("author", "paper"));
                // rendered in directly-usable form: author→paper traverses
                // these paper→author relations backward
                assert_eq!(candidates, vec!["^written_by", "^reviewed_by"]);
            }
            other => panic!("expected ambiguity, got {other}"),
        }
        // explicit relation steps cut through the ambiguity
        let q = parse("pathcount ^written_by-written_by from a0").unwrap();
        let r = resolve(&hin, &q).unwrap();
        assert_eq!(r.path.len(), 2);
        assert!(r.path.is_palindrome());
    }

    #[test]
    fn ambiguity_names_every_candidate_in_query_form() {
        // two parallel paper→author relations plus a directed self-relation:
        // a backward pair, then a forward/backward pair, in relation order
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        b.add_relation("written_by", paper, author);
        b.add_relation("reviewed_by", paper, author);
        let cites = b.add_relation("cites", paper, paper);
        b.link(cites, "p0", "p1", 1.0).unwrap(); // directed: no reverse edge
        let venue = b.add_type("venue");
        let published_in = b.add_relation("published_in", paper, venue);
        let hin = b.build();

        let err = resolve(&hin, &parse("rank author-paper").unwrap()).unwrap_err();
        assert_eq!(
            err,
            QueryError::AmbiguousRelation {
                src: "author".to_string(),
                dst: "paper".to_string(),
                candidates: vec!["^written_by".to_string(), "^reviewed_by".to_string()],
            }
        );
        assert_eq!(
            err.to_string(),
            "ambiguous step `author`-`paper`: multiple relations connect these types \
             (^written_by, ^reviewed_by); name one explicitly, e.g. `-^written_by-…`"
        );

        let err = resolve(&hin, &parse("rank ^written_by-paper-paper").unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "ambiguous step `paper`-`paper`: multiple relations connect these types \
             (cites, ^cites); name one explicitly, e.g. `-cites-…`"
        );
        // a lone candidate is the step
        let r = resolve_path(&hin, &parse_path("venue-paper").unwrap()).unwrap();
        assert_eq!(r.steps(), &[PathStep::Backward(published_in)]);
    }

    #[test]
    fn direction_mismatch_is_reported() {
        let hin = fixture();
        // written_by runs paper→author; from venue it cannot start, and the
        // error names the expected type.
        let q = parse("pathcount venue-^published_in-written_by-written_by from v0").unwrap();
        let err = resolve(&hin, &q).unwrap_err();
        match err {
            QueryError::IncompatibleStep {
                relation,
                at,
                expects,
                backward,
            } => {
                assert_eq!(relation, "written_by");
                assert_eq!(at, "author");
                assert_eq!(expects, "paper");
                assert!(!backward);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unknown_names_and_empty_paths() {
        let hin = fixture();
        let q = parse("pathcount author-nosuchtype from a0").unwrap();
        assert_eq!(
            resolve(&hin, &q).unwrap_err(),
            QueryError::UnknownName("nosuchtype".to_string())
        );

        let q = parse("pathcount ^nosuchrel-paper from a0").unwrap();
        assert!(matches!(
            resolve(&hin, &q).unwrap_err(),
            QueryError::UnknownName(_)
        ));

        // a single anchor type resolves to zero steps
        let q = parse("rank author").unwrap();
        assert_eq!(resolve(&hin, &q).unwrap_err(), QueryError::EmptyPath);

        // unrelated types
        let q = parse("rank author-venue").unwrap();
        assert!(matches!(
            resolve(&hin, &q).unwrap_err(),
            QueryError::Hin(hin_core::HinError::NoRelation { .. })
        ));
    }

    #[test]
    fn self_relations_and_waypoints() {
        let hin = fixture();
        // page-page traverses the self-relation
        let q = parse("pathcount page-page from g0").unwrap();
        let r = resolve(&hin, &q).unwrap();
        assert_eq!(r.path.len(), 1);

        // venue-venue has no self-relation: pure waypoint → empty path
        let q = parse("rank venue-venue").unwrap();
        assert_eq!(resolve(&hin, &q).unwrap_err(), QueryError::EmptyPath);

        // waypoint inside a relation-step path asserts the position
        let q = parse("pathcount ^written_by-paper-published_in from a0").unwrap();
        let r = resolve(&hin, &q).unwrap();
        assert_eq!(r.path.len(), 2);
        assert_eq!(hin.type_name(r.end), "venue");
    }

    #[test]
    fn directed_self_relations_are_ambiguous_by_type_name() {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let cites = b.add_relation("cites", paper, paper);
        b.link(cites, "p0", "p1", 1.0).unwrap(); // p0 cites p1; no reverse edge
        let hin = b.build();

        // `paper-paper` could mean out- or in-citations: refuse to guess
        let q = parse("pathcount paper-paper from p0").unwrap();
        match resolve(&hin, &q).unwrap_err() {
            QueryError::AmbiguousRelation { candidates, .. } => {
                assert_eq!(candidates, vec!["cites", "^cites"]);
            }
            other => panic!("expected ambiguity, got {other}"),
        }

        // explicit relation steps resolve both directions
        let fwd = resolve(&hin, &parse("pathcount cites from p0").unwrap()).unwrap();
        assert_eq!(fwd.path.steps(), &[PathStep::Forward(cites)]);
        let bwd = resolve(&hin, &parse("pathcount ^cites from p1").unwrap()).unwrap();
        assert_eq!(bwd.path.steps(), &[PathStep::Backward(cites)]);
    }

    #[test]
    fn pathsim_rejects_asymmetric_paths() {
        let hin = fixture();
        let q = parse("pathsim ^published_in-written_by from v0").unwrap();
        assert_eq!(
            resolve(&hin, &q).unwrap_err(),
            QueryError::NotSymmetric {
                path: "^published_in-written_by".to_string()
            }
        );
    }

    #[test]
    fn unknown_anchor_node() {
        let hin = fixture();
        let q = parse("pathcount venue-paper-venue from nope").unwrap();
        assert!(matches!(
            resolve(&hin, &q).unwrap_err(),
            QueryError::Hin(hin_core::HinError::UnknownNode { .. })
        ));
    }
}
