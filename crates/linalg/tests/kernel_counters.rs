//! Exact accounting of the row-propagation kernels' profiling counters.
//!
//! The counter sink is process-global, so the unit tests that share the
//! library's test binary can only assert that counters *moved*. This file
//! is a test binary of its own holding a single test: nothing else records
//! into the sink, and every delta can be asserted exactly.

use std::sync::Arc;

use hin_linalg::counters::{self, KernelCounters};
use hin_linalg::{spvm_chain_with, spvm_with, Csr, ScatterScratch, SparseVec};

#[test]
fn spvm_kernels_record_exact_calls_and_flops() {
    let sink = Arc::new(KernelCounters::default());
    assert!(counters::install(Arc::clone(&sink)), "first install");

    // 4×3 then 3×4: row nnz of `a` = [2, 1, 0, 3], of `b` = [1, 2, 1]
    let a = Csr::from_triplets(
        4,
        3,
        [
            (0u32, 0u32, 1.0),
            (0, 2, 2.0),
            (1, 1, 1.0),
            (3, 0, 1.0),
            (3, 1, 1.0),
            (3, 2, 1.0),
        ],
    );
    let b = Csr::from_triplets(
        3,
        4,
        [(0u32, 3u32, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
    );
    let mut scratch = ScatterScratch::new();

    // one propagation: one call, one multiply-add per (vector nonzero,
    // matching matrix-row nonzero) pair — rows 0 and 3 of `a` hold 2 + 3
    let v = SparseVec::new(4, vec![0, 3], vec![1.0, 0.5]);
    let before = sink.snapshot();
    let _ = spvm_with(&v, &a, &mut scratch);
    let after = sink.snapshot();
    assert_eq!(after.spvm_calls - before.spvm_calls, 1);
    assert_eq!(after.spvm_flops - before.spvm_flops, 5);

    // k per-anchor chains: one call per link each
    let anchors = [0usize, 1, 3];
    let mats = [&a, &b];
    let before = sink.snapshot();
    for &i in &anchors {
        let _ = spvm_chain_with(&SparseVec::unit(4, i), &mats, &mut scratch);
    }
    let per_anchor = sink.snapshot();
    let calls = per_anchor.spvm_calls - before.spvm_calls;
    let flops = per_anchor.spvm_flops - before.spvm_flops;
    assert_eq!(calls, (anchors.len() * mats.len()) as u64, "one per link");
    // link 1: row nnz of a at 0, 1, 3 = 2 + 1 + 3; link 2: b's rows reached
    // from {0,2}, {1}, {0,1,2} = (1+1) + 2 + (1+2+1)
    assert_eq!(flops, 6 + 8);
    assert_eq!(
        per_anchor.block_anchors, 0,
        "no kernel counts batch anchors"
    );
    assert_eq!(per_anchor.spgemm_calls, 0, "no matrix product ran");
}
