//! E12 — OLAP on information networks (tutorial §7(c); iNextCube VLDB'09
//! demo analogue).
//!
//! Regenerates: the area×year network cube over a bibliographic network,
//! its roll-ups, and per-cell network measures (size, venue density, top
//! attribute objects).
//!
//! Run with: `cargo run --release -p hin-bench --bin exp_olap`

use std::time::Instant;

use hin_bench::{markdown_table, OlapTrial};

fn main() {
    let trial = OlapTrial::new(8);
    let star = &trial.star;
    let (author_arm, venue_arm) = (trial.author_arm, trial.venue_arm);

    let t0 = Instant::now();
    let cube = trial.cube();
    let build = t0.elapsed();
    let t1 = Instant::now();
    let by_area = cube.roll_up(1);
    let rollup = t1.elapsed();

    println!(
        "## E12 — area×year network cube over {} papers\n",
        star.n_center
    );
    println!(
        "cells: {} fine, {} after year roll-up; build {:?}, roll-up {:?}\n",
        cube.cell_count(),
        by_area.cell_count(),
        build,
        rollup
    );

    let mut rows = Vec::new();
    for area in 0..OlapTrial::AREAS {
        let cell = by_area.cell(&[area]).expect("area cell");
        let top_authors: Vec<String> = cell
            .top_attributes(author_arm, 3)
            .iter()
            .map(|&(a, m)| format!("{} ({m:.0})", star.arms[author_arm].names[a as usize]))
            .collect();
        rows.push(vec![
            format!("area{area}"),
            cell.size().to_string(),
            format!("{:.2}", cell.density(author_arm)),
            cell.attribute_coverage(venue_arm).to_string(),
            top_authors.join(", "),
        ]);
    }
    markdown_table(
        &[
            "cell",
            "papers",
            "authors/paper",
            "venues used",
            "top authors (link mass)",
        ],
        &rows,
    );

    // slice: one year, per-area sizes
    println!("\n### slice year=3\n");
    let y3 = cube.slice(1, 3);
    let mut rows: Vec<Vec<String>> = y3
        .cells()
        .map(|(c, v)| vec![format!("area{}", c[0]), v.size().to_string()])
        .collect();
    rows.sort();
    markdown_table(&["cell", "papers"], &rows);
    println!(
        "\nexpected shape: cells partition the corpus; roll-up preserves \
         total membership; per-cell top authors come from the cell's own \
         planted area."
    );
}
