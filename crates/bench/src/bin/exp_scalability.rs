//! E5 — scalability (RankClus EDBT'09 Fig. 7 analogue).
//!
//! Regenerates: wall-clock of RankClus versus the SimRank+spectral baseline
//! as the network grows. The published figure's shape: RankClus scales
//! roughly linearly in the number of links, the SimRank-based baseline
//! blows up (it is quadratic in objects), with a crossover at trivially
//! small networks. This binary prints the sweep as a table.
//!
//! Run with: `cargo run --release -p hin-bench --bin exp_scalability`

use std::time::Instant;

use hin_bench::{markdown_table, simrank_spectral_baseline};
use hin_rankclus::{rankclus, RankClusConfig};
use hin_synth::BiNetConfig;

fn main() {
    println!("## E5 — runtime vs network size (k=3)\n");
    let mut rows = Vec::new();
    for &(nx, ny, links) in &[
        (10usize, 60usize, 100.0f64),
        (20, 120, 200.0),
        (30, 200, 400.0),
        (60, 400, 800.0),
        (120, 800, 1600.0),
    ] {
        let s = BiNetConfig {
            k: 3,
            nx_per_cluster: nx,
            ny_per_cluster: ny,
            links_per_x: links,
            cross: 0.15,
            zipf_exponent: 0.8,
            seed: 77,
        }
        .generate();
        let nnz = s.net.wxy.nnz();

        let t0 = Instant::now();
        let _ = rankclus(
            &s.net,
            &RankClusConfig {
                k: 3,
                seed: 1,
                n_restarts: 1,
                ..Default::default()
            },
        );
        let rc = t0.elapsed();

        // the baseline is quadratic: skip it once it stops being fun
        let baseline = if s.net.nx + s.net.ny <= 1300 {
            let t1 = Instant::now();
            let _ = simrank_spectral_baseline(&s.net, 3, 1);
            format!("{:.2?}", t1.elapsed())
        } else {
            "(skipped: quadratic)".to_string()
        };

        rows.push(vec![
            format!("{}x{}", 3 * nx, 3 * ny),
            nnz.to_string(),
            format!("{rc:.2?}"),
            baseline,
        ]);
    }
    markdown_table(
        &["|X| x |Y|", "links", "RankClus", "SimRank+spectral"],
        &rows,
    );
    println!(
        "\nexpected shape (per EDBT'09 Fig. 7): RankClus time grows \
         near-linearly with links; the SimRank-based competitor grows \
         super-quadratically and becomes unusable orders of magnitude \
         earlier."
    );
}
