//! E10 — classification of heterogeneous networks (tutorial §5; GNetMine
//! accuracy-vs-label-rate figure shape).
//!
//! Regenerates: holdout accuracy of heterogeneous label propagation versus
//! the homogeneous wvRN baseline as the labeled fraction of papers varies.
//!
//! Run with: `cargo run --release -p hin-bench --bin exp_classify`

use hin_bench::{fmt_ms, markdown_table, mean_std, ClassifyTrial};

fn main() {
    const RUNS: u64 = 5;
    println!("## E10 — paper classification accuracy vs label rate (5 runs)\n");
    let mut rows = Vec::new();
    for &every in &[100usize, 50, 20, 10, 5] {
        let trials: Vec<ClassifyTrial> = (0..RUNS)
            .map(|run| ClassifyTrial::run(every, run))
            .collect();
        let column =
            |f: fn(&ClassifyTrial) -> f64| mean_std(&trials.iter().map(f).collect::<Vec<_>>());
        let (hm, hs) = column(|t| t.gnetmine);
        let (wm, ws) = column(|t| t.wvrn);
        rows.push(vec![
            format!("{:.1}%", 100.0 / every as f64),
            fmt_ms(hm, hs),
            fmt_ms(wm, ws),
        ]);
    }
    markdown_table(
        &["labeled papers", "GNetMine-style", "wvRN (co-author)"],
        &rows,
    );
    println!(
        "\nexpected shape (per GNetMine): heterogeneous propagation dominates \
         at every label rate, with the largest margin when labels are \
         scarcest (venue and term arms carry signal wvRN cannot see)."
    );
}
