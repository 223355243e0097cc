//! E2 — ranking on homogeneous networks (tutorial §2(b)ii; PageRank, HITS).
//!
//! Regenerates: top-k ranking comparison (PageRank vs HITS authority vs
//! degree) on the co-author projection, plus convergence-vs-damping
//! behaviour. `tests/paper_claims.rs` asserts the shape of both tables
//! through the same `RankingTrial`.
//!
//! Run with: `cargo run --release -p hin-bench --bin exp_ranking`

use hin_bench::{markdown_table, RankingTrial};

fn main() {
    let trial = RankingTrial::new(2);
    let data = &trial.data;

    println!("## E2a — top-10 authors, three rankers on the co-author network\n");
    let name = |a: usize| {
        data.hin
            .node_name(hin_core::NodeRef {
                ty: data.author,
                id: a as u32,
            })
            .to_string()
    };
    let [pr_top, hits_top, deg_top] = trial.top_tens();
    let rows: Vec<Vec<String>> = (0..10)
        .map(|i| {
            vec![
                (i + 1).to_string(),
                name(pr_top[i]),
                name(hits_top[i]),
                name(deg_top[i]),
            ]
        })
        .collect();
    markdown_table(&["rank", "PageRank", "HITS authority", "degree"], &rows);

    let overlap = RankingTrial::overlap;
    println!(
        "\ntop-10 overlap: PR∩HITS = {}, PR∩degree = {}, HITS∩degree = {}",
        overlap(&pr_top, &hits_top),
        overlap(&pr_top, &deg_top),
        overlap(&hits_top, &deg_top),
    );

    println!("\n## E2b — PageRank convergence vs damping factor\n");
    let rows: Vec<Vec<String>> = RankingTrial::DAMPINGS
        .iter()
        .zip(trial.convergence())
        .map(|(d, r)| {
            vec![
                format!("{d:.2}"),
                r.iterations.to_string(),
                format!("{:.1e}", r.delta),
            ]
        })
        .collect();
    markdown_table(&["damping", "iterations to 1e-10", "final delta"], &rows);
    println!("\nexpected shape: iterations grow as damping → 1.");
}
