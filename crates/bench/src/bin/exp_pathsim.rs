//! E11 — top-k similarity search (PathSim, tutorial §7(b)).
//!
//! Regenerates: the qualitative comparison of PathSim against PathCount,
//! the random-walk measure, SimRank and Personalized PageRank on peer
//! retrieval — the "find peers, not hubs" result of the PathSim paper —
//! quantified as *peer precision*: the fraction of an author's top-k that
//! shares both their planted area and their productivity tier
//! ([`PeerStudy`]; `tests/paper_claims.rs` asserts the headline).
//!
//! Run with: `cargo run --release -p hin-bench --bin exp_pathsim`

use hin_bench::{markdown_table, PeerStudy};
use hin_ranking::PageRankConfig;
use hin_similarity::{
    path_count, ppr_similarity_from, random_walk_measure, simrank, top_k_pathsim, SimRankConfig,
};

fn main() {
    let study = PeerStudy::new(11);
    let (data, m, papers) = (&study.data, &study.m, &study.papers);
    let hin = &data.hin;
    let n_authors = papers.len();

    // homogeneous co-author graph for SimRank / PPR
    let co = data.coauthor_network();
    let sr = simrank(
        &co,
        &SimRankConfig {
            max_iters: 5,
            ..Default::default()
        },
    );
    // the best `K` of a dense score row, the query excluded
    let dense_top = |q: usize, score: &dyn Fn(usize) -> f64| {
        let mut row: Vec<(usize, f64)> = (0..n_authors)
            .filter(|&b| b != q)
            .map(|b| (b, score(b)))
            .collect();
        row.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        row.truncate(K);
        row
    };
    const K: usize = 10;

    let precision = [
        study.mean_precision(|q| top_k_pathsim(m, q, K)),
        study.mean_precision(|q| path_count(m, q, K)),
        study.mean_precision(|q| random_walk_measure(m, q, K)),
        study.mean_precision(|q| dense_top(q, &|b| sr.scores.get(q, b))),
        study.mean_precision(|q| {
            let ppr = ppr_similarity_from(&co, q, &PageRankConfig::default());
            dense_top(q, &|b| ppr[b])
        }),
    ];

    println!(
        "## E11 — peer precision@{K} over {} mid-tier author queries (APVPA path)\n",
        study.queries.len()
    );
    let names = [
        "PathSim",
        "PathCount",
        "random walk",
        "SimRank (co-author)",
        "P-PageRank (co-author)",
    ];
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(&precision)
        .map(|(n, p)| vec![n.to_string(), format!("{p:.3}")])
        .collect();
    markdown_table(&["measure", "peer precision"], &rows);

    // qualitative sample: one query's lists side by side
    let q = study.queries[0];
    let name = |a: usize| {
        hin.node_name(hin_core::NodeRef {
            ty: data.author,
            id: a as u32,
        })
        .to_string()
    };
    println!(
        "\nsample query {} ({} papers, area {}):\n",
        name(q),
        papers[q],
        data.author_area[q]
    );
    let ps = top_k_pathsim(m, q, 5);
    let pc = path_count(m, q, 5);
    let rows: Vec<Vec<String>> = (0..5)
        .map(|i| {
            let fmt = |l: &[(usize, f64)]| {
                l.get(i)
                    .map(|&(b, _)| format!("{} ({}p)", name(b), papers[b]))
                    .unwrap_or_default()
            };
            vec![(i + 1).to_string(), fmt(&ps), fmt(&pc)]
        })
        .collect();
    markdown_table(&["rank", "PathSim", "PathCount"], &rows);
    println!(
        "\nexpected shape (per the PathSim paper): PathSim retrieves same-tier \
         peers; PathCount and the random-walk measure surface hub authors with \
         inflated productivity; SimRank/P-PageRank sit in between."
    );
}
