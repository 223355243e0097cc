//! PathSim through the engine on rows long enough for the top-k floor to
//! refuse most candidates. The engine's other PathSim tests run on tiny
//! fixtures, whose rows end before the selector is full. Here a seeded
//! DBLP-shaped network gives A-P-V-P-A rows of hundreds of entries, and
//! every author is asked `pathsim … limit L` and `topk L …` at L ∈ {1, 10,
//! 100}:
//! - a resident engine (the square made resident with
//!   `Engine::commuting_matrix`, PathSim read off its row and diagonal)
//!   answers exactly as the definition does, names and score bits;
//! - a lazy engine (rows propagated per anchor, normalizers from half-path
//!   rows) answers exactly as the resident one. Path counts are integers,
//!   so both are the same division of the same integers, the tolerance the
//!   anchored-path property tests hold.

use std::sync::Arc;

use hin_core::{Hin, NodeRef, TypeId};
use hin_linalg::Csr;
use hin_query::{CacheConfig, Engine, ExecPolicy};
use hin_similarity::{commuting_matrix, pathsim_pair, MetaPath};

const PATH: &str = "author-paper-venue-paper-author";

/// The answer of record for anchor `x`: `pathsim_pair` per candidate, full
/// sort, truncate, then names.
fn by_definition(hin: &Hin, author: TypeId, m: &Csr, x: usize, k: usize) -> Vec<(String, u64)> {
    let mut all: Vec<(usize, f64)> = m
        .row_indices(x)
        .iter()
        .map(|&y| y as usize)
        .filter(|&y| y != x)
        .map(|y| (y, pathsim_pair(m, x, y)))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all.into_iter()
        .map(|(id, score)| {
            let name = hin.node_name(NodeRef {
                ty: author,
                id: id as u32,
            });
            (name.to_string(), score.to_bits())
        })
        .collect()
}

fn answer(engine: &Engine, query: &str) -> Vec<(String, u64)> {
    engine
        .execute(query)
        .unwrap_or_else(|e| panic!("{query}: {e}"))
        .items
        .into_iter()
        .map(|(name, score)| (name, score.to_bits()))
        .collect()
}

#[test]
fn long_rows_answer_by_definition_resident_and_lazy() {
    let data = hin_synth::DblpConfig {
        n_areas: 4,
        authors_per_area: 40,
        venues_per_area: 3,
        n_papers: 600,
        seed: 31,
        ..hin_synth::DblpConfig::default()
    }
    .generate();
    let author = data.author;
    let hin = Arc::new(data.hin);
    let path = MetaPath::from_type_names(&hin, &PATH.split('-').collect::<Vec<_>>()).unwrap();
    let m = commuting_matrix(&hin, &path).unwrap();
    let longest = (0..m.nrows()).map(|x| m.row_nnz(x)).max().unwrap();
    assert!(
        longest >= 100,
        "rows in the hundreds, got at most {longest}"
    );

    // every row is a resident read: the square is made resident up front,
    // since A-P-V-P-A is a span the promotion rule factors (its square is
    // far larger than its halves), so no read would promote it
    let resident = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    );
    resident.commuting_matrix(&path).unwrap();
    // promotion pushed out of reach: every cold multi-step anchored query
    // stays on the lazy path
    let lazy = Engine::with_config(
        Arc::clone(&hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(u32::MAX),
    );
    for x in 0..hin.node_count(author) {
        let name = hin.node_name(NodeRef {
            ty: author,
            id: x as u32,
        });
        for limit in [1, 10, 100] {
            let want = by_definition(&hin, author, &m, x, limit);
            for query in [
                format!("pathsim {PATH} from {name} limit {limit}"),
                format!("topk {limit} {PATH} from {name}"),
            ] {
                let got = answer(&resident, &query);
                assert_eq!(got, want, "resident: {query}");
                assert_eq!(answer(&lazy, &query), got, "lazy vs resident: {query}");
            }
        }
    }
    assert!(
        lazy.stats().anchored_fast_paths > 0,
        "the lazy engine answered some rows by propagation"
    );
    assert_eq!(resident.stats().anchored_fast_paths, 0);
}
