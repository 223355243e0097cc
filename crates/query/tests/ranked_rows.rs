//! The ranked rows a resident span's sidecar keeps. A read of a resident
//! span asking for at most ten results copies a prefix of the best ten,
//! which the first such read of the row (of the entry, for `rank`) ranked
//! and stored. That is only right if the stored list is exactly what the
//! read would have ranked itself, whatever was asked before it, so:
//!
//! - seeded DBLP-shaped networks, random sequences of all five verbs over
//!   symmetric and reversed paths, limits 1–10, 11, 100 and none, skewed
//!   onto a few hot anchors so rows are read again and again, plus "10,
//!   then 1, then 10" on one row of every scoring;
//! - every answer equals, in names and score bits, the answer of record
//!   computed from the commuting matrix by `hin_similarity`, which is also
//!   what a fresh engine asked that one query answers;
//! - across an unbounded cache, a one-shard cache too small to hold the
//!   working set (evictions between reads), restores through
//!   `CacheSnapshot::open` (mapped) and `from_bytes` into cold and live
//!   engines, and threads racing the first reads of the same rows.
//!
//! Path counts of unit-weight networks are integers, so the engine and the
//! record compute the same divisions of the same integers.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use hin_core::{Hin, NodeRef, TypeId};
use hin_linalg::Csr;
use hin_query::{CacheConfig, CacheSnapshot, Engine, ExecPolicy, QueryOutput};
use hin_similarity::{commuting_matrix, top_k, top_k_pathsim, MetaPath};

/// Symmetric paths: every verb applies.
const SYMMETRIC: [&str; 4] = [
    "author-paper-author",
    "author-paper-venue-paper-author",
    "venue-paper-venue",
    "venue-paper-author-paper-venue",
];

/// Paths that are not palindromes, each beside its reversal: the counting
/// verbs and `rank` apply, and the second of a pair is served by the
/// cache's transpose of the first.
const ASYMMETRIC: [&str; 4] = [
    "author-paper-venue",
    "venue-paper-author",
    "author-paper-term",
    "term-paper-author",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verb {
    PathSim,
    TopK,
    PathCount,
    Neighbors,
    Rank,
}

/// One query: a verb over a path, from an anchor id of the path's start
/// type, with a limit (`topk`'s `k`, which is never `None`).
#[derive(Clone, Copy, Debug)]
struct Query {
    verb: Verb,
    path: &'static str,
    anchor: u32,
    limit: Option<usize>,
}

/// splitmix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seeded network, its answers of record, and query text.
struct World {
    hin: Arc<Hin>,
    matrices: HashMap<&'static str, Csr>,
}

impl World {
    fn new(seed: u64) -> Self {
        let data = hin_synth::DblpConfig {
            n_areas: 3,
            venues_per_area: 4,
            authors_per_area: 20,
            terms_per_area: 8,
            shared_terms: 4,
            n_papers: 180,
            seed,
            ..hin_synth::DblpConfig::default()
        }
        .generate();
        let hin = Arc::new(data.hin);
        let matrices = SYMMETRIC
            .iter()
            .chain(&ASYMMETRIC)
            .map(|&path| {
                let types: Vec<&str> = path.split('-').collect();
                let meta = MetaPath::from_type_names(&hin, &types).expect("path resolves");
                (path, commuting_matrix(&hin, &meta).expect("path commutes"))
            })
            .collect();
        Self { hin, matrices }
    }

    fn ty(&self, name: &str) -> TypeId {
        self.hin.type_by_name(name).expect("type")
    }

    fn ends(path: &str) -> (&str, &str) {
        let start = path.split('-').next().expect("non-empty path");
        let end = path.rsplit('-').next().expect("non-empty path");
        (start, end)
    }

    fn name(&self, ty: TypeId, id: usize) -> &str {
        self.hin.node_name(NodeRef { ty, id: id as u32 })
    }

    fn text(&self, q: &Query) -> String {
        let (start, _) = Self::ends(q.path);
        let from = self.name(self.ty(start), q.anchor as usize);
        let limit = q.limit.map(|n| format!(" limit {n}")).unwrap_or_default();
        let path = q.path;
        match q.verb {
            Verb::PathSim => format!("pathsim {path} from {from}{limit}"),
            Verb::TopK => format!("topk {} {path} from {from}", q.limit.expect("k")),
            Verb::PathCount => format!("pathcount {path} from {from}{limit}"),
            Verb::Neighbors => format!("neighbors {path} from {from}{limit}"),
            Verb::Rank => format!("rank {path}{limit}"),
        }
    }

    /// The answer of record: `hin_similarity`'s top-k over the commuting
    /// matrix, then names — `(type, [(name, score bits)])`.
    fn record(&self, q: &Query) -> (String, Vec<(String, u64)>) {
        let m = &self.matrices[q.path];
        let (start, end) = Self::ends(q.path);
        let x = q.anchor as usize;
        let default = match q.verb {
            Verb::Neighbors => usize::MAX,
            _ => 10,
        };
        let k = q.limit.unwrap_or(default);
        let (ty, top) = match q.verb {
            Verb::PathSim | Verb::TopK => (end, top_k_pathsim(m, x, k)),
            Verb::PathCount | Verb::Neighbors => {
                let (idx, vals) = m.row(x);
                let scored = idx
                    .iter()
                    .zip(vals)
                    .map(|(&y, &v)| (y as usize, v))
                    .filter(|&(y, _)| !(start == end && y == x))
                    .collect();
                (end, top_k(scored, k))
            }
            Verb::Rank => {
                let sums = (0..m.nrows())
                    .map(|r| (r, m.row_sum(r)))
                    .filter(|&(_, s)| s > 0.0)
                    .collect();
                (start, top_k(sums, k))
            }
        };
        let t = self.ty(ty);
        let items = top
            .into_iter()
            .map(|(id, s)| (self.name(t, id).to_string(), s.to_bits()))
            .collect();
        (ty.to_string(), items)
    }

    /// A random query, anchored on one of the first few ids of its start
    /// type most of the time so that rows repeat.
    fn draw(&self, rng: &mut Rng) -> Query {
        let verb = [
            Verb::PathSim,
            Verb::TopK,
            Verb::PathCount,
            Verb::Neighbors,
            Verb::Rank,
        ][rng.below(5)];
        let path = match verb {
            Verb::PathSim | Verb::TopK => SYMMETRIC[rng.below(SYMMETRIC.len())],
            _ if rng.below(2) == 0 => SYMMETRIC[rng.below(SYMMETRIC.len())],
            _ => ASYMMETRIC[rng.below(ASYMMETRIC.len())],
        };
        let (start, _) = Self::ends(path);
        let n = self.hin.node_count(self.ty(start));
        let anchor = match rng.below(4) {
            0 => rng.below(n),
            _ => rng.below(n.min(4)),
        } as u32;
        let limits = match verb {
            Verb::TopK => 12,
            _ => 13,
        };
        let limit = match rng.below(limits) {
            i @ 0..=9 => Some(i + 1),
            10 => Some(11),
            11 => Some(100),
            _ => None,
        };
        Query {
            verb,
            path,
            anchor,
            limit,
        }
    }

    /// A seeded sequence: random queries, then "10, then 1, then 10" on
    /// one row of every scoring, then the random queries again.
    fn sequence(&self, seed: u64, len: usize) -> Vec<Query> {
        let mut rng = Rng(seed);
        let random: Vec<Query> = (0..len).map(|_| self.draw(&mut rng)).collect();
        let mut seq = random.clone();
        for (verb, path) in [
            (Verb::PathSim, "author-paper-venue-paper-author"),
            (Verb::TopK, "author-paper-author"),
            (Verb::PathCount, "author-paper-author"),
            (Verb::Neighbors, "venue-paper-author"),
            (Verb::Rank, "author-paper-venue"),
        ] {
            for limit in [10, 1, 10] {
                seq.push(Query {
                    verb,
                    path,
                    anchor: 1,
                    limit: Some(limit),
                });
            }
        }
        seq.extend(random);
        seq
    }
}

fn eager(hin: &Arc<Hin>, config: CacheConfig) -> Engine {
    Engine::with_config(Arc::clone(hin), config, ExecPolicy::eager())
}

fn shown(out: &QueryOutput) -> (String, Vec<(String, u64)>) {
    let items = out.items.iter().map(|(n, s)| (n.clone(), s.to_bits()));
    (out.object_type.clone(), items.collect())
}

/// Ask `engine` every query of `seq`; each answer must be the record's.
fn check(world: &World, engine: &Engine, seq: &[Query], stage: &str) {
    for q in seq {
        let text = world.text(q);
        let got = engine
            .execute(&text)
            .unwrap_or_else(|e| panic!("{stage}: {text}: {e}"));
        assert_eq!(shown(&got), world.record(q), "{stage}: {text}");
    }
}

#[test]
fn ranked_reads_answer_as_a_fresh_engine_and_the_record_do() {
    for seed in [5, 6] {
        let world = World::new(seed);
        let hin = &world.hin;
        let seq = world.sequence(seed * 1000, 150);

        // the record is what a fresh engine answers, query by query
        for q in seq.iter().step_by(5) {
            let text = world.text(q);
            let fresh = eager(hin, CacheConfig::default()).execute(&text).unwrap();
            assert_eq!(shown(&fresh), world.record(q), "fresh: {text}");
        }

        // unbounded: every span resident, every row's sidecar warm after
        // its first ranked read; and the default policy, lazy first
        let unbounded = eager(hin, CacheConfig::default());
        check(&world, &unbounded, &seq, "unbounded");
        let lazy_first = Engine::from_arc(Arc::clone(hin));
        check(&world, &lazy_first, &seq, "lazy, then promoted");

        // one shard too small for the working set: spans evict between
        // reads and come back with empty sidecars
        let largest = world.matrices.values().map(Csr::nbytes).max().unwrap();
        let tiny = eager(
            hin,
            CacheConfig {
                shards: 1,
                byte_budget: Some(largest + largest / 2),
            },
        );
        check(&world, &tiny, &seq, "tiny budget");
        assert!(
            tiny.stats().cache.evictions > 0,
            "the budget turned the LRU over"
        );

        // restored: the matrices come back, their sidecars do not
        let snap = unbounded.snapshot(None);
        let dir = std::env::temp_dir().join(format!(
            "hin-ranked-rows-{seed}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("cache.hsnp");
        snap.write_to_file(&file).unwrap();
        let mapped = CacheSnapshot::open(&file).expect("open");
        let heap = CacheSnapshot::from_bytes(&snap.to_bytes()).expect("from_bytes");
        for (how, image) in [("mapped", &mapped), ("from_bytes", &heap)] {
            let cold = eager(hin, CacheConfig::default());
            assert!(cold.restore(image).loaded > 0);
            check(&world, &cold, &seq, &format!("{how} into a cold engine"));
            assert_eq!(cold.stats().cache.misses, 0, "{how}: served from the image");
            // over a live engine whose sidecars are warm: every restored
            // entry replaces one, and starts again
            assert!(unbounded.restore(image).loaded > 0);
            check(
                &world,
                &unbounded,
                &seq,
                &format!("{how} over a live engine"),
            );
        }
        drop(mapped);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn racing_first_reads_of_the_same_rows_agree() {
    let world = World::new(7);
    let hin = &world.hin;
    let seq = world.sequence(77, 120);
    for threads in 2..=4 {
        // every span resident, no ranked row stored yet: `neighbors`
        // without a limit and a limit past ten rank and store nothing
        let engine = Arc::new(eager(hin, CacheConfig::default()));
        for path in SYMMETRIC.iter().chain(&ASYMMETRIC) {
            let q = Query {
                verb: Verb::Neighbors,
                path,
                anchor: 0,
                limit: None,
            };
            engine.execute(&world.text(&q)).unwrap();
            let q = Query {
                verb: Verb::Rank,
                limit: Some(11),
                ..q
            };
            engine.execute(&world.text(&q)).unwrap();
        }
        let misses = engine.stats().cache.misses;
        let barrier = Arc::new(Barrier::new(threads));
        std::thread::scope(|s| {
            for t in 0..threads {
                let (engine, barrier, world, seq) = (&engine, &barrier, &world, &seq);
                s.spawn(move || {
                    barrier.wait();
                    // every thread reads the same rows in the same order
                    // from a different start, so first reads collide
                    let start = t * seq.len() / threads / 8;
                    let order = seq[start..].iter().chain(&seq[..start]);
                    for q in order {
                        let text = world.text(q);
                        let got = engine.execute(&text).unwrap();
                        assert_eq!(shown(&got), world.record(q), "{threads} threads: {text}");
                    }
                });
            }
        });
        assert_eq!(
            engine.stats().cache.misses,
            misses,
            "every span stayed resident"
        );
    }
}
