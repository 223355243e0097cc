//! Exact accounting of the row-propagation kernels' profiling counters.
//!
//! The counter sink is process-global, so the unit tests that share the
//! library's test binary can only assert that counters *moved*. This file
//! is a test binary of its own holding a single test: nothing else records
//! into the sink, and every delta can be asserted exactly.

use std::sync::Arc;

use hin_linalg::counters::{self, KernelCounters};
use hin_linalg::{spvm_chain_rows, spvm_chain_with, spvm_with, Csr, ScatterScratch, SparseVec};

#[test]
fn spvm_and_block_kernels_record_exact_calls_flops_and_anchors() {
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
    assert_eq!(after.block_anchors, before.block_anchors);

    // what k per-anchor chains record…
    let anchors = [0usize, 1, 3];
    let mats = [&a, &b];
    let before = sink.snapshot();
    let rows: Vec<SparseVec> = anchors
        .iter()
        .map(|&i| spvm_chain_with(&SparseVec::unit(4, i), &mats, &mut scratch))
        .collect();
    let per_anchor = sink.snapshot();
    let calls = per_anchor.spvm_calls - before.spvm_calls;
    let flops = per_anchor.spvm_flops - before.spvm_flops;
    assert_eq!(calls, (anchors.len() * mats.len()) as u64, "one per link");
    // link 1: row nnz of a at 0, 1, 3 = 2 + 1 + 3; link 2: b's rows reached
    // from {0,2}, {1}, {0,1,2} = (1+1) + 2 + (1+2+1)
    assert_eq!(flops, 6 + 8);
    assert_eq!(per_anchor.block_anchors, before.block_anchors);

    // …is exactly what one batched propagation of the same k rows records,
    // plus its k anchors (`a`'s rows seed it, so link 1 is free: run it
    // from the identity to count the same two links)
    let eye = Csr::from_triplets(4, 4, (0..4u32).map(|i| (i, i, 1.0)));
    let out = spvm_chain_rows(&eye, &anchors, &mats, 1, &mut scratch);
    let blocked = sink.snapshot();
    assert_eq!(
        blocked.spvm_calls - per_anchor.spvm_calls,
        calls,
        "k per link"
    );
    assert_eq!(blocked.spvm_flops - per_anchor.spvm_flops, flops);
    assert_eq!(
        blocked.block_anchors - per_anchor.block_anchors,
        anchors.len() as u64
    );
    assert_eq!(out, rows, "and the same rows, bit for bit");
    // a lone anchor is not a batch
    let _ = spvm_chain_rows(&eye, &[3], &mats, 1, &mut scratch);
    assert_eq!(sink.snapshot().block_anchors, blocked.block_anchors);
    assert_eq!(blocked.spgemm_calls, 0, "no matrix product ran");
}
