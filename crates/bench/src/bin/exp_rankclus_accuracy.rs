//! E4 — RankClus accuracy on synthetic bi-typed networks (EDBT'09 §6.1,
//! Table 4 analogue).
//!
//! Five configurations varying *separation* (cross-cluster link fraction)
//! and *density* (links per target), as in the original sweep; NMI averaged
//! over 5 seeds for RankClus (authority and simple ranking) against the
//! paper's baselines: spectral clustering on SimRank similarity, and cosine
//! k-means on raw link vectors. The runs are `hin_bench::RankClusTrial`,
//! whose D3 headline (authority beats simple ranking) is asserted in
//! `tests/paper_claims.rs`. The printed "expected shape" is the paper's;
//! at these sizes both baselines beat RankClus-authority on D3 and D4.
//!
//! Run with: `cargo run --release -p hin-bench --bin exp_rankclus_accuracy`

use hin_bench::{fmt_ms, markdown_table, mean_std, RankClusTrial};

fn main() {
    // (name, cross, links_per_x) — Dataset1..5 of the paper's sweep:
    // separation degrading D1→D3, density varied at fixed medium
    // separation in D4 (sparse) and D5 (dense)
    let configs = [
        ("D1 cross=.20 den=100", 0.20, 100.0),
        ("D2 cross=.35 den=100", 0.35, 100.0),
        ("D3 cross=.45 den=100", 0.45, 100.0),
        ("D4 cross=.35 den=20", 0.35, 20.0),
        ("D5 cross=.35 den=300", 0.35, 300.0),
    ];
    const RUNS: u64 = 5;

    println!("## E4 — NMI on five synthetic bi-typed configurations (5 runs)\n");
    let mut rows = Vec::new();
    for (name, cross, links) in configs {
        let mut scores: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for run in 0..RUNS {
            let t = RankClusTrial::new(cross, links, run);
            scores[0].push(t.authority());
            scores[1].push(t.simple());
            scores[2].push(t.simrank_spectral());
            scores[3].push(t.kmeans_links());
        }
        let mut row = vec![name.to_string()];
        for s in &scores {
            let (m, sd) = mean_std(s);
            row.push(fmt_ms(m, sd));
        }
        rows.push(row);
    }
    markdown_table(
        &[
            "dataset",
            "RankClus-authority",
            "RankClus-simple",
            "SimRank+spectral",
            "k-means links",
        ],
        &rows,
    );
    println!(
        "\nexpected shape (per EDBT'09): RankClus-authority wins or ties \
         everywhere; degradation as separation falls (D1→D3) and at low \
         density (D4); SimRank+spectral competitive on easy configs but \
         costly (see exp_scalability); simple ranking trails authority."
    );
}
