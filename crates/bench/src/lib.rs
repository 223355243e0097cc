//! Shared experiment infrastructure: result-table printing and the
//! baseline algorithms the published evaluations compare against.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of the
//! reproduced papers (its doc comment names which); the Criterion benches
//! under `benches/` regenerate the timing figures. Serving performance is
//! measured by the stand-alone `e2e` program in `src/bin/e2e/`, declared by
//! the repository's `BENCHMARK.json` — not by anything in this library.

use hin_classify::{gnetmine, holdout_accuracy, wvrn, GNetMineConfig, Seeds};
use hin_cleaning::{majority_vote, truthfinder, Claim, TruthFinderConfig};
use hin_clustering::{kmeans, nmi, spectral_clustering, Distance, KMeansConfig, SpectralConfig};
use hin_core::star::StarNet;
use hin_core::BiNet;
use hin_linalg::Csr;
use hin_olap::{Dimension, NetworkCube};
use hin_rankclus::{rankclus, RankClusConfig, RankingMethod};
use hin_ranking::{degree_rank, hits, pagerank, top_k, PageRankConfig, RankVector};
use hin_similarity::{commuting_matrix, simrank, MetaPath, SimRankConfig};
use hin_synth::{BiNetConfig, ClaimsConfig, DblpConfig, DblpData, SyntheticBiNet};

/// The PathSim peer-retrieval study: `exp_pathsim` prints it, and
/// `tests/paper_claims.rs` asserts its headline. A DBLP-shaped network with
/// strong productivity skew (hubs exist), its A-P-V-P-A commuting matrix,
/// and mid-tier query authors, scored by *peer precision*: the share of a
/// top-k list that shares the query's planted area and productivity tier.
pub struct PeerStudy {
    /// The generated network and its ground truth.
    pub data: DblpData,
    /// Papers per author.
    pub papers: Vec<usize>,
    /// The A-P-V-P-A commuting matrix.
    pub m: Csr,
    /// The query authors: the first 40 with 5 to 20 papers.
    pub queries: Vec<usize>,
}

impl PeerStudy {
    /// The study's network at `seed`: four areas of 60 authors, 2 000
    /// papers, Zipf exponent 1.1.
    pub fn new(seed: u64) -> Self {
        let data = DblpConfig {
            n_areas: 4,
            authors_per_area: 60,
            n_papers: 2_000,
            noise: 0.05,
            zipf_exponent: 1.1,
            seed,
            ..Default::default()
        }
        .generate();
        let hin = &data.hin;
        let ap = hin.adjacency(data.author, data.paper).expect("rel");
        let papers: Vec<usize> = (0..hin.node_count(data.author))
            .map(|a| ap.row_nnz(a))
            .collect();
        let apvpa =
            MetaPath::from_type_names(hin, &["author", "paper", "venue", "paper", "author"])
                .expect("path");
        let m = commuting_matrix(hin, &apvpa).expect("commutes");
        let queries = (0..papers.len())
            .filter(|&a| (5..=20).contains(&papers[a]))
            .take(40)
            .collect();
        Self {
            data,
            papers,
            m,
            queries,
        }
    }

    /// Whether `b` is a peer of `a`: the same planted area, and neither
    /// wrote more than three times the other's papers.
    pub fn is_peer(&self, a: usize, b: usize) -> bool {
        let (pa, pb) = (self.papers[a], self.papers[b]);
        self.data.author_area[a] == self.data.author_area[b]
            && pb <= 3 * pa.max(1)
            && pa <= 3 * pb.max(1)
    }

    /// The share of `list` that are peers of `q`; 0 for an empty list.
    pub fn precision(&self, q: usize, list: &[(usize, f64)]) -> f64 {
        if list.is_empty() {
            return 0.0;
        }
        list.iter().filter(|&&(b, _)| self.is_peer(q, b)).count() as f64 / list.len() as f64
    }

    /// Mean [`PeerStudy::precision`] of `rank(q)` over the queries.
    pub fn mean_precision(&self, rank: impl Fn(usize) -> Vec<(usize, f64)>) -> f64 {
        let total: f64 = self
            .queries
            .iter()
            .map(|&q| self.precision(q, &rank(q)))
            .sum();
        total / self.queries.len() as f64
    }
}

/// The regimes of the veracity study, as `(share of good sources, the bad
/// sources' reliability)`: bad sources grow from a minority to nearly two
/// thirds of all sources, and lie more often.
pub const TRUTH_REGIMES: [(f64, f64); 4] = [(0.6, 0.3), (0.5, 0.3), (0.4, 0.25), (0.35, 0.2)];

/// One run of the veracity study (TruthFinder, TKDE'08): `exp_truth`
/// prints it, and `tests/paper_claims.rs` asserts its headline. 40 sources
/// claim values for 250 objects, half the pairs covered; the bad sources
/// coordinate on one false alternative per object, the regime where
/// counting fails and trust must not.
pub struct TruthTrial {
    /// Majority voting's accuracy over the objects it predicts.
    pub voting: f64,
    /// TruthFinder's accuracy over the objects it predicts.
    pub truthfinder: f64,
    /// TruthFinder's mean learned trust of good sources minus that of bad
    /// ones.
    pub trust_gap: f64,
}

impl TruthTrial {
    /// The run at `seed` with a share `frac_good` of good sources (90 %
    /// reliable) and bad sources `reliability_bad` reliable.
    pub fn run(frac_good: f64, reliability_bad: f64, seed: u64) -> Self {
        let data = ClaimsConfig {
            n_objects: 250,
            n_sources: 40,
            frac_good,
            reliability_good: 0.9,
            reliability_bad,
            coverage: 0.5,
            n_false_alternatives: 1, // coordinate the lies
            near_miss_sigma: 0.4,
            seed,
        }
        .generate();
        let claims: Vec<Claim> = data
            .claims
            .iter()
            .map(|c| Claim {
                source: c.source,
                object: c.object,
                value: c.value,
            })
            .collect();
        let accuracy = |pred: &dyn Fn(u32) -> Option<f64>| {
            let (mut correct, mut total) = (0usize, 0usize);
            for (o, &t) in data.true_value.iter().enumerate() {
                if let Some(v) = pred(o as u32) {
                    total += 1;
                    correct += ((v - t).abs() < 1e-9) as usize;
                }
            }
            correct as f64 / total.max(1) as f64
        };
        let vote = majority_vote(data.n_objects, &claims);
        let tf = truthfinder(
            data.n_sources,
            data.n_objects,
            &claims,
            &TruthFinderConfig::default(),
        );
        let mean_trust = |good: bool| {
            let xs: Vec<f64> = tf
                .source_trust
                .iter()
                .zip(&data.source_is_good)
                .filter(|&(_, &g)| g == good)
                .map(|(&t, _)| t)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        Self {
            voting: accuracy(&|o| vote[o as usize]),
            truthfinder: accuracy(&|o| tf.predicted_value(o)),
            trust_gap: mean_trust(true) - mean_trust(false),
        }
    }
}

/// One run of the classification study (GNetMine, Ji et al., ECML/PKDD
/// 2010; tutorial §5): `exp_classify` prints it, and
/// `tests/paper_claims.rs` asserts its headline. A three-area DBLP-shaped
/// network of 1 200 papers; one paper in `every` is labelled with its
/// planted area, and both methods are scored on the papers left unlabelled.
pub struct ClassifyTrial {
    /// Heterogeneous label propagation over every relation (GNetMine).
    pub gnetmine: f64,
    /// The weighted-vote relational neighbor baseline on the papers'
    /// co-author projection (wvRN).
    pub wvrn: f64,
}

impl ClassifyTrial {
    /// Run `run`: the network at seed `700 + run`, and the papers labelled
    /// offset by `run`, so each run labels different papers.
    pub fn run(every: usize, run: u64) -> Self {
        let data = DblpConfig {
            n_areas: 3,
            n_papers: 1_200,
            authors_per_area: 60,
            noise: 0.06,
            area_mixture_alpha: 0.06,
            seed: 700 + run,
            ..Default::default()
        }
        .generate();
        let mut seeds: Vec<Seeds> = (0..data.hin.type_count())
            .map(|t| vec![None; data.hin.node_count(hin_core::TypeId(t))])
            .collect();
        for (p, &area) in data.paper_area.iter().enumerate() {
            if (p + run as usize).is_multiple_of(every) {
                seeds[data.paper.0][p] = Some(area);
            }
        }
        let paper_seeds = &seeds[data.paper.0];
        let g = gnetmine(
            &data.hin,
            &seeds,
            &GNetMineConfig {
                n_classes: 3,
                ..Default::default()
            },
        );
        let pa = data.hin.adjacency(data.paper, data.author).expect("rel");
        let paper_graph = hin_core::projection::project(&pa.transpose());
        let wv = wvrn(&paper_graph, paper_seeds, 3, 50);
        Self {
            gnetmine: holdout_accuracy(&g.labels[data.paper.0], &data.paper_area, paper_seeds),
            wvrn: holdout_accuracy(&wv, &data.paper_area, paper_seeds),
        }
    }
}

/// One run of the RankClus accuracy study (Sun et al., EDBT 2009; tutorial
/// §4): `exp_rankclus_accuracy` prints it, and `tests/paper_claims.rs`
/// asserts its headline. A bi-typed network of [`RankClusTrial::K`]
/// planted clusters of 10 targets and 100 attributes each, with Zipf
/// (0.8) attribute popularity; `cross` is the share of links that leave
/// their cluster and `links_per_x` the links per target. Each method is
/// scored by the NMI of its target clusters against the planted ones.
pub struct RankClusTrial {
    /// The generated network and its planted target clusters.
    pub data: SyntheticBiNet,
    /// The algorithms' seed.
    pub run: u64,
}

impl RankClusTrial {
    /// Clusters planted, and asked of every method.
    pub const K: usize = 3;

    /// Run `run`: the network at seed `100 + run`, the algorithms at `run`.
    pub fn new(cross: f64, links_per_x: f64, run: u64) -> Self {
        let data = BiNetConfig {
            k: Self::K,
            nx_per_cluster: 10,
            ny_per_cluster: 100,
            links_per_x,
            cross,
            zipf_exponent: 0.8,
            seed: 100 + run,
        }
        .generate();
        Self { data, run }
    }

    fn score(&self, assignments: &[usize]) -> f64 {
        nmi(assignments, &self.data.x_labels)
    }

    fn rankclus(&self, ranking: RankingMethod) -> f64 {
        let config = RankClusConfig {
            k: Self::K,
            ranking,
            seed: self.run,
            ..Default::default()
        };
        self.score(&rankclus(&self.data.net, &config).assignments)
    }

    /// RankClus with authority ranking (the paper's method, and the
    /// default configuration).
    pub fn authority(&self) -> f64 {
        self.rankclus(RankClusConfig::default().ranking)
    }

    /// RankClus with simple (degree) ranking.
    pub fn simple(&self) -> f64 {
        self.rankclus(RankingMethod::Simple)
    }

    /// Spectral clustering on SimRank similarity.
    pub fn simrank_spectral(&self) -> f64 {
        self.score(&simrank_spectral_baseline(
            &self.data.net,
            Self::K,
            self.run,
        ))
    }

    /// Cosine k-means on the raw link vectors.
    pub fn kmeans_links(&self) -> f64 {
        self.score(&kmeans_links_baseline(&self.data.net, Self::K, self.run))
    }
}

/// The area×year network cube study (OLAP on information networks,
/// iNextCube VLDB'09; tutorial §7(c)): `exp_olap` prints it, and
/// `tests/paper_claims.rs` asserts its expected shape. A DBLP-shaped
/// network of [`OlapTrial::AREAS`] areas, 5 000 papers, 150 authors per
/// area and [`OlapTrial::YEARS`] years, as a star around its papers.
pub struct OlapTrial {
    /// The generated network and its ground truth.
    pub data: DblpData,
    /// Its star-schema view, papers at the center.
    pub star: StarNet,
    /// The star's author arm.
    pub author_arm: usize,
    /// The star's venue arm.
    pub venue_arm: usize,
}

impl OlapTrial {
    /// Planted research areas: the cube's first dimension.
    pub const AREAS: u32 = 4;
    /// Publication years: the cube's second dimension.
    pub const YEARS: u32 = 8;

    /// The network at `seed` (`exp_olap` prints seed 8).
    pub fn new(seed: u64) -> Self {
        let data = DblpConfig {
            n_areas: Self::AREAS as usize,
            n_papers: 5_000,
            authors_per_area: 150,
            years: Self::YEARS as usize,
            seed,
            ..Default::default()
        }
        .generate();
        let star = data.star();
        let author_arm = star.arm_by_name("author").expect("author arm");
        let venue_arm = star.arm_by_name("venue").expect("venue arm");
        Self {
            data,
            star,
            author_arm,
            venue_arm,
        }
    }

    /// The cube at its finest granularity: coordinates `[area, year]`.
    pub fn cube(&self) -> NetworkCube {
        NetworkCube::build(
            self.star.clone(),
            vec![
                Dimension::new(
                    "area",
                    (0..Self::AREAS).map(|a| format!("area{a}")).collect(),
                    self.data.paper_area.iter().map(|&a| a as u32).collect(),
                ),
                Dimension::new(
                    "year",
                    (0..Self::YEARS).map(|y| format!("y{y}")).collect(),
                    self.data.paper_year.clone(),
                ),
            ],
        )
    }
}

/// Ranking on a homogeneous network (tutorial §2(b)ii; PageRank, HITS):
/// `exp_ranking` prints it, and `tests/paper_claims.rs` asserts its expected
/// shape. A DBLP-shaped network of 3 000 papers and 150 authors per area,
/// projected onto its co-author network, ranked by PageRank, HITS
/// authority and weighted degree.
pub struct RankingTrial {
    /// The generated network and its ground truth.
    pub data: DblpData,
    /// Its co-author projection: the network the rankers run on.
    pub coauthors: Csr,
}

impl RankingTrial {
    /// The damping factors PageRank's convergence is read at.
    pub const DAMPINGS: [f64; 5] = [0.5, 0.7, 0.85, 0.95, 0.99];

    /// The network at `seed` (`exp_ranking` prints seed 2).
    pub fn new(seed: u64) -> Self {
        let data = DblpConfig {
            n_papers: 3_000,
            authors_per_area: 150,
            seed,
            ..Default::default()
        }
        .generate();
        let coauthors = data.coauthor_network();
        Self { data, coauthors }
    }

    /// The top ten authors of PageRank (default configuration), HITS
    /// authority (to 1e-10, at most 200 iterations) and degree, in that
    /// order.
    pub fn top_tens(&self) -> [Vec<usize>; 3] {
        let co = &self.coauthors;
        [
            top_k(&pagerank(co, &PageRankConfig::default()).scores, 10),
            top_k(&hits(co, 1e-10, 200).authority, 10),
            top_k(&degree_rank(co), 10),
        ]
    }

    /// How many of two top-ten lists' authors they share.
    pub fn overlap(a: &[usize], b: &[usize]) -> usize {
        a.iter().filter(|x| b.contains(x)).count()
    }

    /// PageRank to 1e-10 (at most 500 iterations) at each of
    /// [`RankingTrial::DAMPINGS`], in that order.
    pub fn convergence(&self) -> Vec<RankVector> {
        Self::DAMPINGS
            .iter()
            .map(|&damping| {
                let config = PageRankConfig {
                    damping,
                    tol: 1e-10,
                    max_iters: 500,
                };
                pagerank(&self.coauthors, &config)
            })
            .collect()
    }
}

/// Print a GitHub-flavoured markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) {
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Format `mean ± std` to three decimals.
pub fn fmt_ms(mean: f64, std: f64) -> String {
    format!("{mean:.3} ± {std:.3}")
}

/// Baseline from the RankClus evaluation: compute SimRank over the combined
/// bipartite graph (targets ∪ attributes), then spectral-cluster the
/// target–target similarity block. Quadratic in `nx + ny` — exactly why the
/// paper positions RankClus as the scalable alternative (experiment E5).
pub fn simrank_spectral_baseline(net: &BiNet, k: usize, seed: u64) -> Vec<usize> {
    let n = net.nx + net.ny;
    // block bipartite adjacency: x in 0..nx, y in nx..nx+ny
    let edges = net
        .wxy
        .iter()
        .flat_map(|(x, y, w)| {
            let yy = (net.nx as u32) + y;
            [(x, yy, w), (yy, x, w)]
        })
        .collect::<Vec<_>>();
    let g = Csr::from_triplets(n, n, edges);
    let s = simrank(
        &g,
        &SimRankConfig {
            max_iters: 5,
            ..Default::default()
        },
    );
    // target-target similarity as a weighted graph for spectral clustering
    let mut triplets = Vec::new();
    for i in 0..net.nx {
        for j in 0..net.nx {
            if i != j {
                let v = s.scores.get(i, j);
                if v > 1e-9 {
                    triplets.push((i as u32, j as u32, v));
                }
            }
        }
    }
    let sim = Csr::from_triplets(net.nx, net.nx, triplets);
    spectral_clustering(
        &sim,
        &SpectralConfig {
            k,
            seed,
            ..Default::default()
        },
    )
}

/// Baseline: cosine k-means directly on the raw target link vectors
/// (rows of `W_xy`).
pub fn kmeans_links_baseline(net: &BiNet, k: usize, seed: u64) -> Vec<usize> {
    let points: Vec<Vec<f64>> = (0..net.nx)
        .map(|x| {
            let mut row = vec![0.0; net.ny];
            let (idx, vals) = net.wxy.row(x);
            for (&y, &w) in idx.iter().zip(vals) {
                row[y as usize] = w;
            }
            row
        })
        .collect();
    kmeans(
        &points,
        &KMeansConfig {
            k,
            distance: Distance::Cosine,
            max_iters: 100,
            seed,
        },
    )
    .assignments
}

/// PLSA-flavoured text baseline from the NetClus evaluation: cosine k-means
/// over the center objects' term vectors, ignoring all other link types.
pub fn term_kmeans_baseline(center_term: &Csr, k: usize, seed: u64) -> Vec<usize> {
    let points: Vec<Vec<f64>> = (0..center_term.nrows())
        .map(|d| {
            let mut row = vec![0.0; center_term.ncols()];
            let (idx, vals) = center_term.row(d);
            for (&t, &w) in idx.iter().zip(vals) {
                row[t as usize] = w;
            }
            row
        })
        .collect();
    kmeans(
        &points,
        &KMeansConfig {
            k,
            distance: Distance::Cosine,
            max_iters: 100,
            seed,
        },
    )
    .assignments
}

#[cfg(test)]
mod tests {
    use super::*;
    use hin_synth::BiNetConfig;

    #[test]
    fn stats_helpers() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]).1, 0.0);
        assert_eq!(fmt_ms(0.5, 0.1), "0.500 ± 0.100");
    }

    #[test]
    fn baselines_recover_easy_structure() {
        let s = BiNetConfig {
            k: 2,
            nx_per_cluster: 8,
            ny_per_cluster: 40,
            links_per_x: 120.0,
            cross: 0.05,
            zipf_exponent: 0.6,
            seed: 5,
        }
        .generate();
        let a = simrank_spectral_baseline(&s.net, 2, 1);
        let b = kmeans_links_baseline(&s.net, 2, 1);
        let acc_a = hin_clustering::accuracy_hungarian(&a, &s.x_labels);
        let acc_b = hin_clustering::accuracy_hungarian(&b, &s.x_labels);
        assert!(acc_a > 0.8, "simrank+spectral {acc_a}");
        assert!(acc_b > 0.8, "kmeans-links {acc_b}");
    }
}
