//! The engine against an independent reference answer: on generated
//! networks and generated queries, every configuration the engine can run
//! in answers exactly as `hin_synth::naive` does — a hash-map evaluator
//! over the raw adjacency rows that shares no cache, planner, kernel or
//! engine code with it.
//!
//! Edge weights are small integers, so every commuting-matrix entry is an
//! exact integer and every PathSim score one division of the same integers
//! (the contract `anchored_props.rs` states): "exactly" means the same
//! names in the same order with scores equal bit for bit, whatever route
//! the engine took — a propagated row, a promoted span, a row through two
//! resident halves, a product refused at the door, or a restored image.

use std::sync::Arc;

use hin_core::{Hin, HinBuilder, RelationId, TypeId};
use hin_query::{CacheConfig, CacheSnapshot, Engine, ExecPolicy};
use hin_synth::naive::{self, Query, Step, Verb};
use proptest::prelude::*;

/// A random bibliographic world with terms and citations: `papers` with
/// one or two authors, a venue and one or two terms each, and `cites`
/// links between papers, every weight in 1..=3. Every node is interned, so
/// each id below its type's count is a valid anchor.
#[derive(Clone, Debug)]
struct World {
    authors: usize,
    venues: usize,
    terms: usize,
    papers: Vec<Paper>,
    cites: Vec<(usize, usize, u32)>,
}

/// Authors, venue, terms, and the weight of the paper's author, venue and
/// term links.
type Paper = (Vec<usize>, usize, Vec<usize>, [u32; 3]);

/// The world's types, in the order [`World::build`] adds them.
const PAPER: usize = 0;
const TYPES: usize = 4;

impl World {
    fn build(&self) -> Arc<Hin> {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let term = b.add_type("term");
        let written = b.add_relation("written_by", paper, author);
        let published = b.add_relation("published_in", paper, venue);
        let mentions = b.add_relation("mentions", paper, term);
        let cites = b.add_relation("cites", paper, paper);
        for (ty, prefix, n) in [
            (paper, "p", self.papers.len()),
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
                b.link(written, &p, &format!("a{a}"), f64::from(w[0]))
                    .unwrap();
            }
            b.link(published, &p, &format!("v{v}"), f64::from(w[1]))
                .unwrap();
            for t in terms {
                b.link(mentions, &p, &format!("t{t}"), f64::from(w[2]))
                    .unwrap();
            }
        }
        for &(from, to, w) in &self.cites {
            b.link(cites, &format!("p{from}"), &format!("p{to}"), f64::from(w))
                .unwrap();
        }
        Arc::new(b.build())
    }
}

fn worlds() -> impl Strategy<Value = World> {
    (
        (2usize..8, 1usize..4, 2usize..8),
        prop::collection::vec(
            (
                (0usize..64, 0usize..64, 0usize..2),
                (0usize..64, 0usize..64, 0usize..2),
                0usize..64,
                (1u32..4, 1u32..4, 1u32..4),
            ),
            6..24,
        ),
        prop::collection::vec((0usize..64, 0usize..64, 1u32..4), 0..30),
    )
        .prop_map(|((authors, venues, terms), draws, cites)| {
            let n = draws.len();
            World {
                authors,
                venues,
                terms,
                papers: draws
                    .into_iter()
                    .map(|((a0, a1, two_a), (t0, t1, two_t), v, (wa, wv, wt))| {
                        let mut a = vec![a0 % authors];
                        let mut t = vec![t0 % terms];
                        if two_a == 1 && a1 % authors != a[0] {
                            a.push(a1 % authors);
                        }
                        if two_t == 1 && t1 % terms != t[0] {
                            t.push(t1 % terms);
                        }
                        (a, v % venues, t, [wa, wv, wt])
                    })
                    .collect(),
                cites: cites
                    .into_iter()
                    .map(|(f, t, w)| (f % n, t % n, w))
                    .collect(),
            }
        })
}

/// One generated query family: a verb and a path, asked from several
/// anchors. `choices` walk the schema from `start`; a PathSim path is the
/// walk followed by its mirror, with a `cites` step in the middle when
/// `middle` is set and the walk ends at a paper (an odd palindrome).
#[derive(Clone, Debug)]
struct Family {
    verb: u8,
    start: usize,
    choices: Vec<usize>,
    middle: bool,
    limit: Option<usize>,
}

fn families() -> impl Strategy<Value = Vec<Family>> {
    prop::collection::vec(
        (
            0u8..5,
            0usize..TYPES,
            prop::collection::vec(0usize..8, 1..5),
            0u8..2,
            0usize..8,
        )
            .prop_map(|(verb, start, choices, middle, limit)| Family {
                verb,
                start,
                choices,
                middle: middle == 1,
                // one family in two names a limit, often below the answer
                limit: (limit >= 4).then(|| limit - 2),
            }),
        4..8,
    )
}

/// The steps that leave a node of type `ty`.
fn steps_from(ty: usize) -> Vec<Step> {
    let step = |relation, forward| Step {
        relation: RelationId(relation),
        forward,
    };
    match ty {
        PAPER => vec![
            step(0, true),
            step(1, true),
            step(2, true),
            step(3, true),
            step(3, false),
        ],
        // author, venue and term each reach papers through their one
        // relation, walked backward
        t => vec![step(t - 1, false)],
    }
}

impl Family {
    /// Walk `choices` from `start`, at most `max` steps.
    fn walk(&self, hin: &Hin, max: usize) -> Vec<Step> {
        let mut ty = self.start;
        let mut path = Vec::new();
        for &c in self.choices.iter().take(max) {
            let options = steps_from(ty);
            let step = options[c % options.len()];
            ty = step.types(hin).1 .0;
            path.push(step);
        }
        path
    }

    /// This family's queries, one per anchor (one in all for `rank`).
    fn queries(&self, hin: &Hin, anchors: &[usize]) -> Vec<Query> {
        let (verb, path) = match self.verb {
            0 | 1 => {
                let half = self.walk(hin, 3);
                let mut path = half.clone();
                let at_paper = half.last().unwrap().types(hin).1 == TypeId(PAPER);
                if self.middle && at_paper {
                    path.push(steps_from(PAPER)[3]);
                }
                path.extend(half.iter().rev().map(|s| s.reversed()));
                let verb = match self.verb {
                    0 => Verb::PathSim,
                    _ => Verb::TopK(self.limit.unwrap_or(3)),
                };
                (verb, path)
            }
            2 => (Verb::PathCount, self.walk(hin, 4)),
            3 => (Verb::Neighbors, self.walk(hin, 4)),
            _ => (Verb::Rank, self.walk(hin, 4)),
        };
        let query = |anchor| Query {
            verb,
            path: path.clone(),
            anchor,
            limit: self.limit,
        };
        if verb == Verb::Rank {
            return vec![query(None)];
        }
        let count = hin.node_count(TypeId(self.start)) as u32;
        anchors
            .iter()
            .map(|&a| query(Some(a as u32 % count)))
            .collect()
    }
}

/// Names equal, in order, and scores equal bit for bit.
fn matches_naive(engine: &Engine, q: &Query, want: &naive::Answer) -> Result<(), String> {
    let text = q.render(engine.hin());
    let got = engine.execute(&text).map_err(|e| format!("{text}: {e}"))?;
    let same = got.object_type == want.object_type
        && got.items.len() == want.items.len()
        && got
            .items
            .iter()
            .zip(&want.items)
            .all(|((gn, gs), (wn, ws))| gn == wn && gs.to_bits() == ws.to_bits());
    match same {
        true => Ok(()),
        false => Err(format!(
            "{text}\n  engine {} {:?}\n  naive  {} {:?}",
            got.object_type, got.items, want.object_type, want.items
        )),
    }
}

/// Shard slices (bytes) of the one-shard caches. The worlds' products run
/// from a few dozen bytes to several KB, so each slice keeps some spans
/// and refuses others; 2 KB also turns the LRU over on most worlds.
const SLICES: [usize; 4] = [256, 768, 2048, 8192];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every configuration answers every generated query as the naive
    /// evaluator does: the default policy, `promote_after(0)` (each
    /// anchored run materializes), `promote_after(u32::MAX)` (each cold
    /// span propagates), one-shard byte budgets under both promotion
    /// settings, and engines restored from a snapshot, handed over in
    /// process or mounted from its image, unbounded and bounded. Each
    /// engine runs the list twice, so spans heat, promote, are refused or
    /// evicted, and are read again.
    #[test]
    fn every_configuration_answers_as_the_naive_evaluator(
        world in worlds(),
        families in families(),
        anchors in prop::collection::vec(0usize..64, 3..6),
        slice in 0usize..SLICES.len(),
    ) {
        let hin = world.build();
        let queries: Vec<Query> = families
            .iter()
            .flat_map(|f| f.queries(&hin, &anchors))
            .collect();
        let answers: Vec<naive::Answer> = queries.iter().map(|q| naive::evaluate(&hin, q)).collect();

        let engine = |config, policy| Engine::with_config(Arc::clone(&hin), config, policy);
        let one_shard = |slice| CacheConfig { shards: 1, byte_budget: Some(slice) };
        let (default, now, never) = (
            ExecPolicy::default(),
            ExecPolicy::promote_after(0),
            ExecPolicy::promote_after(u32::MAX),
        );
        let mut configs = vec![
            ("default".to_string(), engine(CacheConfig::default(), default)),
            ("promote_after(0)".to_string(), engine(CacheConfig::default(), now)),
            ("promote_after(MAX)".to_string(), engine(CacheConfig::default(), never)),
        ];
        for slice in [2048, SLICES[slice]] {
            configs.push((format!("default, {slice} B slice"), engine(one_shard(slice), default)));
            configs.push((format!("promote_after(0), {slice} B slice"), engine(one_shard(slice), now)));
        }

        // a donor materializes the spans of every other family, and its
        // image is mounted into a fresh engine: restored spans are read,
        // the rest propagate or promote
        let donor = engine(CacheConfig::default(), now);
        for f in families.iter().step_by(2) {
            let q = &f.queries(&hin, &anchors)[0];
            donor.execute(&q.render(&hin)).map_err(|e| e.to_string())?;
        }
        let handed_over = donor.snapshot(None);
        let image = CacheSnapshot::from_bytes(&handed_over.to_bytes())
            .map_err(|e| e.to_string())?;
        for (name, config, snapshot) in [
            ("restored in process".to_string(), CacheConfig::default(), &handed_over),
            ("restored from its image".to_string(), CacheConfig::default(), &image),
            (format!("restored, {} B slice", SLICES[slice]), one_shard(SLICES[slice]), &image),
        ] {
            let restored = engine(config, default);
            let report = restored.restore(snapshot);
            prop_assert_eq!((report.loaded + report.rejected) as usize, snapshot.len());
            if config.byte_budget.is_none() {
                prop_assert_eq!(report.rejected, 0, "the same dataset restores fully");
            }
            configs.push((name, restored));
        }

        for (name, engine) in &configs {
            for pass in 0..2 {
                for (q, want) in queries.iter().zip(&answers) {
                    if let Err(msg) = matches_naive(engine, q, want) {
                        prop_assert!(false, "{} (pass {}): {}", name, pass, msg);
                    }
                }
            }
        }
    }
}
