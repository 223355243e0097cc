//! A deliberately naive evaluator of meta-path queries: hash-map row
//! propagation over the raw adjacency rows of a [`Hin`], no cache, no
//! planner, no sparse kernels, no query engine. Small enough to be
//! obviously right, and independent of every code path the engine uses,
//! so agreement between the two means something: it is the reference
//! answer the engine's tests hold it to.
//!
//! A query's answer is defined by its meta-path's commuting matrix
//! `M = M₁·…·Mₙ` alone (the HIN survey's PathCount and PathSim): row `x`
//! of `M` is `eₓᵀ·M₁·…·Mₙ`, which is what [`evaluate`] computes, one
//! relation at a time, for every row it reads.
//!
//! On integer edge weights every entry of `M` is an exact integer, so any
//! summation order gives the same bits, and a PathSim score is one
//! division of the same integers: an engine that is right agrees with this
//! evaluator bit for bit, not merely within a tolerance.

use std::collections::HashMap;

use hin_core::{Hin, NodeRef, RelationId, TypeId};

type Row = HashMap<usize, f64>;

/// Results a ranking verb returns when the query names no limit.
pub const DEFAULT_LIMIT: usize = 10;

/// One step of a meta-path: a relation, walked from its source type to its
/// destination type (`forward`) or back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The relation walked.
    pub relation: RelationId,
    /// `true` from the relation's source to its destination.
    pub forward: bool,
}

impl Step {
    /// The node types this step leaves from and arrives at.
    pub fn types(self, hin: &Hin) -> (TypeId, TypeId) {
        let r = hin.relation(self.relation);
        match self.forward {
            true => (r.src, r.dst),
            false => (r.dst, r.src),
        }
    }

    /// The same step walked the other way.
    pub fn reversed(self) -> Step {
        Step {
            forward: !self.forward,
            ..self
        }
    }
}

/// What a query asks of its commuting matrix `M`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// PathSim peers of the anchor: `2·M[x][y] / (M[x][x] + M[y][y])` for
    /// every `y ≠ x` on a path from `x`, best [`DEFAULT_LIMIT`].
    PathSim,
    /// PathSim peers of the anchor, the best `k`.
    TopK(usize),
    /// Path counts `M[x][y]` from the anchor, best [`DEFAULT_LIMIT`]; on a
    /// path that starts and ends at one type, the anchor is left out.
    PathCount,
    /// Every object a path from the anchor reaches, by path count; on a
    /// path that starts and ends at one type, the anchor is left out.
    Neighbors,
    /// Objects of the start type by their row sum of `M`, the positive
    /// ones, best [`DEFAULT_LIMIT`].
    Rank,
}

/// One meta-path query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// What is asked.
    pub verb: Verb,
    /// The meta-path, one or more steps chaining type to type.
    pub path: Vec<Step>,
    /// The anchor's id among its type's nodes; `None` for [`Verb::Rank`].
    pub anchor: Option<u32>,
    /// The result cap (`limit n`); ignored by [`Verb::TopK`].
    pub limit: Option<usize>,
}

impl Query {
    /// The type the path starts at.
    pub fn start(&self, hin: &Hin) -> TypeId {
        self.path[0].types(hin).0
    }

    /// The type the path ends at.
    pub fn end(&self, hin: &Hin) -> TypeId {
        self.path[self.path.len() - 1].types(hin).1
    }

    /// The query in the engine's language, its path spelled by relation
    /// names (`^` walks one backward) and its anchor by name, e.g.
    /// `pathsim ^written_by-written_by from a0 limit 3`. Names must be
    /// single tokens.
    pub fn render(&self, hin: &Hin) -> String {
        let verb = match self.verb {
            Verb::PathSim => "pathsim".to_string(),
            Verb::TopK(k) => format!("topk {k}"),
            Verb::PathCount => "pathcount".to_string(),
            Verb::Neighbors => "neighbors".to_string(),
            Verb::Rank => "rank".to_string(),
        };
        let path: Vec<String> = self
            .path
            .iter()
            .map(|s| {
                let name = &hin.relation(s.relation).name;
                match s.forward {
                    true => name.clone(),
                    false => format!("^{name}"),
                }
            })
            .collect();
        let mut text = format!("{verb} {}", path.join("-"));
        if let Some(id) = self.anchor {
            let node = NodeRef {
                ty: self.start(hin),
                id,
            };
            text += &format!(" from {}", hin.node_name(node));
        }
        if let (Some(n), false) = (self.limit, matches!(self.verb, Verb::TopK(_))) {
            text += &format!(" limit {n}");
        }
        text
    }
}

/// A query's answer: the type of the objects returned and `(name, score)`
/// pairs, best first, ties by ascending node id, cut at the query's limit.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Type name of the returned objects.
    pub object_type: String,
    /// `(node name, score)`, best first.
    pub items: Vec<(String, f64)>,
}

/// Push `start` along `path` one relation at a time: `eₓᵀ·M₁·…·Mₙ`.
fn propagate(hin: &Hin, path: &[Step], start: usize) -> Row {
    let mut cur = Row::from([(start, 1.0)]);
    for step in path {
        let r = hin.relation(step.relation);
        let adjacency = if step.forward { &r.fwd } else { &r.bwd };
        let mut next = Row::new();
        for (&node, &weight) in &cur {
            let (cols, vals) = adjacency.row(node);
            for (&col, &val) in cols.iter().zip(vals) {
                *next.entry(col as usize).or_default() += weight * val;
            }
        }
        cur = next;
    }
    cur
}

/// `M[y][y]`: the paths from `y` back to itself.
fn self_paths(hin: &Hin, path: &[Step], y: usize) -> f64 {
    propagate(hin, path, y).get(&y).copied().unwrap_or(0.0)
}

/// Answer `query` over `hin` by definition. Panics on a query the engine
/// would reject: a path that does not chain, a missing anchor, an anchor
/// out of range, or PathSim over a path that is not a palindrome (each
/// step the reverse of its mirror; the middle step of an odd path is
/// free).
pub fn evaluate(hin: &Hin, query: &Query) -> Answer {
    let path = &query.path;
    assert!(
        path.windows(2)
            .all(|w| w[0].types(hin).1 == w[1].types(hin).0),
        "the path's steps chain type to type"
    );
    let (start, end) = (query.start(hin), query.end(hin));
    let x = || query.anchor.expect("an anchored verb names its anchor") as usize;
    let (object, scores, limit) = match query.verb {
        Verb::PathSim | Verb::TopK(_) => {
            let n = path.len();
            let palindrome = (0..n / 2).all(|i| path[i] == path[n - 1 - i].reversed());
            assert!(palindrome, "PathSim needs a palindrome");
            let x = x();
            let xx = self_paths(hin, path, x);
            let mut row = propagate(hin, path, x);
            row.remove(&x);
            for (&y, score) in row.iter_mut() {
                let denom = xx + self_paths(hin, path, y);
                *score = if denom <= 0.0 {
                    0.0
                } else {
                    2.0 * *score / denom
                };
            }
            let k = match query.verb {
                Verb::TopK(k) => k,
                _ => query.limit.unwrap_or(DEFAULT_LIMIT),
            };
            (end, row, k)
        }
        Verb::PathCount | Verb::Neighbors => {
            let x = x();
            let mut row = propagate(hin, path, x);
            if start == end {
                row.remove(&x);
            }
            let all = query.verb == Verb::Neighbors;
            let limit = query
                .limit
                .unwrap_or(if all { usize::MAX } else { DEFAULT_LIMIT });
            (end, row, limit)
        }
        Verb::Rank => {
            let sums = (0..hin.node_count(start))
                .map(|s| (s, propagate(hin, path, s).values().sum::<f64>()))
                .filter(|&(_, total)| total > 0.0);
            (start, sums.collect(), query.limit.unwrap_or(DEFAULT_LIMIT))
        }
    };
    let mut items: Vec<(usize, f64)> = scores.into_iter().collect();
    items.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(limit);
    Answer {
        object_type: hin.type_name(object).to_string(),
        items: items
            .into_iter()
            .map(|(id, score)| {
                let node = NodeRef {
                    ty: object,
                    id: id as u32,
                };
                (hin.node_name(node).to_string(), score)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hin_core::HinBuilder;

    /// papers p0{a0,a1}@v0, p1{a1}@v0, p2{a2}@v1.
    fn bib() -> Hin {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        for (p, a) in [("p0", "a0"), ("p0", "a1"), ("p1", "a1"), ("p2", "a2")] {
            b.link(pa, p, a, 1.0).unwrap();
        }
        for (p, v) in [("p0", "v0"), ("p1", "v0"), ("p2", "v1")] {
            b.link(pv, p, v, 1.0).unwrap();
        }
        b.build()
    }

    fn step(relation: usize, forward: bool) -> Step {
        Step {
            relation: RelationId(relation),
            forward,
        }
    }

    fn query(verb: Verb, path: &[Step], anchor: Option<u32>) -> Query {
        Query {
            verb,
            path: path.to_vec(),
            anchor,
            limit: None,
        }
    }

    fn items(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(n, s)| (n.to_string(), s)).collect()
    }

    #[test]
    fn answers_the_fixture_by_hand() {
        let hin = bib();
        // author-paper-author: a0 wrote p0; a1 wrote p0 and p1
        let apa = [step(0, false), step(0, true)];
        let count = evaluate(&hin, &query(Verb::PathCount, &apa, Some(1)));
        assert_eq!(count.object_type, "author");
        assert_eq!(count.items, items(&[("a0", 1.0)]));
        // M[a0][a1] = 1, M[a0][a0] = 1, M[a1][a1] = 2
        let peers = evaluate(&hin, &query(Verb::PathSim, &apa, Some(0)));
        assert_eq!(peers.items, items(&[("a1", 2.0 * 1.0 / 3.0)]));
        let vpa = [step(1, false), step(0, true)];
        let rank = evaluate(&hin, &query(Verb::Rank, &vpa, None));
        assert_eq!(rank.object_type, "venue");
        assert_eq!(rank.items, items(&[("v0", 3.0), ("v1", 1.0)]));
        // a cross-type row keeps the object that shares the anchor's id
        let written = evaluate(&hin, &query(Verb::Neighbors, &[step(0, true)], Some(0)));
        assert_eq!(written.items, items(&[("a0", 1.0), ("a1", 1.0)]));
    }

    #[test]
    fn cuts_at_the_limit_with_ties_by_ascending_id() {
        let hin = bib();
        let pap = [step(0, true), step(0, false)];
        let mut q = query(Verb::Neighbors, &pap, Some(0));
        assert_eq!(evaluate(&hin, &q).items, items(&[("p1", 1.0)]));
        let vpv_from_paper = [step(1, true), step(1, false)];
        q = query(Verb::PathCount, &vpv_from_paper, Some(2));
        assert!(evaluate(&hin, &q).items.is_empty(), "p2 alone at v1");
        let apv = [step(0, false), step(1, true)];
        let mut rank = query(Verb::Rank, &apv, None);
        rank.limit = Some(2);
        assert_eq!(
            evaluate(&hin, &rank).items,
            items(&[("a1", 2.0), ("a0", 1.0)])
        );
        let topk = query(Verb::TopK(1), &[step(1, true), step(1, false)], Some(0));
        assert_eq!(evaluate(&hin, &topk).items, items(&[("p1", 1.0)]));
    }

    #[test]
    fn renders_the_engine_language() {
        let hin = bib();
        let apa = [step(0, false), step(0, true)];
        let mut q = query(Verb::TopK(3), &apa, Some(1));
        q.limit = Some(5);
        assert_eq!(q.render(&hin), "topk 3 ^written_by-written_by from a1");
        let rank = Query {
            limit: Some(2),
            ..query(Verb::Rank, &[step(1, false), step(0, true)], None)
        };
        assert_eq!(rank.render(&hin), "rank ^published_in-written_by limit 2");
    }
}
