//! Querying a bibliographic network with the meta-path engine.
//!
//! Builds a synthetic DBLP-like world, then asks it questions in the
//! engine's query language: peers of an author under different meta-paths,
//! influential venues, and the engine's own plan/cache diagnostics.
//!
//! Run with: `cargo run --release --example query_engine`

use hin::query::Engine;
use hin::synth::DblpConfig;

fn main() {
    let data = DblpConfig {
        n_areas: 3,
        authors_per_area: 50,
        n_papers: 1_200,
        seed: 42,
        ..Default::default()
    }
    .generate();
    println!(
        "network: {} nodes, {} edges\n",
        data.hin.total_nodes(),
        data.hin.total_edges()
    );

    let engine = Engine::new(data.hin);

    // EXPLAIN before executing: the planner chooses the multiplication
    // order from sparse cost estimates, not left-to-right.
    let plan = engine
        .plan("pathcount paper-author-paper-venue from paper_0")
        .unwrap();
    println!("plan for P-A-P-V: {plan}");
    println!("left-deep? {}\n", plan.root.is_left_deep());

    for query in [
        "topk 5 author-paper-author from author_a0_0",
        "topk 5 author-paper-venue-paper-author from author_a0_0",
        "rank venue-paper-author limit 5",
        "neighbors written_by from paper_17",
    ] {
        let out = engine.execute(query).expect("query");
        println!("> {query}");
        for (name, score) in &out.items {
            println!("    {score:>10.4}  {name} ({})", out.object_type);
        }
        println!();
    }

    // the same path again — served from the commuting-matrix cache
    engine
        .execute("topk 5 author-paper-venue-paper-author from author_a1_8")
        .expect("warm query");
    let cache = engine.stats().cache;
    println!(
        "cache: {} entries, {} hits ({} via transpose), {} products computed",
        cache.len, cache.hits, cache.symmetry_hits, cache.misses
    );
}
