//! The flop floor of the row-parallel product and chain, by their counters.
//!
//! Like `kernel_counters.rs`, a test binary of its own holding a single
//! test, so the process-global counter sink sees this traffic only and the
//! number of row blocks a product was cut into can be asserted exactly.

use std::sync::Arc;

use hin_linalg::counters::{self, KernelCounters};
use hin_linalg::pool::PARALLEL_MIN_FLOPS;
use hin_linalg::{spmm_chain, spmm_chain_parallel, spmm_flops_estimate, Csr};

/// A deterministic scattered `n × n` matrix with `per_row` entries a row.
fn scattered(n: usize, per_row: usize, salt: usize) -> Csr {
    Csr::from_triplets(
        n,
        n,
        (0..n).flat_map(|r| {
            (0..per_row).map(move |j| {
                let c = (r * 37 + j * 11 + salt + j * j) % n;
                (r as u32, c as u32, 0.25 + ((r + j + salt) % 7) as f64 * 0.5)
            })
        }),
    )
}

fn assert_bitwise(got: &Csr, want: &Csr) {
    assert_eq!(got.parts().0, want.parts().0, "indptr");
    assert_eq!(got.parts().1, want.parts().1, "indices");
    let (g, w) = (got.parts().2, want.parts().2);
    assert!(g.iter().zip(w).all(|(g, w)| g.to_bits() == w.to_bits()));
}

#[test]
fn the_flop_floor_decides_between_inline_and_fanned_out() {
    let sink = Arc::new(KernelCounters::default());
    assert!(counters::install(Arc::clone(&sink)), "first install");

    // under the floor: four threads asked for, one block run, inline
    let (a, b) = (scattered(60, 4, 1), scattered(60, 4, 2));
    assert!(spmm_flops_estimate(&a, &b) < PARALLEL_MIN_FLOPS as f64);
    let serial = a.spgemm(&b);
    let before = sink.snapshot();
    let small = a.spgemm_parallel(&b, 4);
    let after = sink.snapshot();
    assert_bitwise(&small, &serial);
    assert_eq!(after.row_blocks - before.row_blocks, 1);
    assert_eq!(after.spgemm_calls - before.spgemm_calls, 1);
    assert_eq!(
        after.spgemm_flops - before.spgemm_flops,
        spmm_flops_estimate(&a, &b) as u64
    );

    // over it: the same call is cut into more than one block, and a thread
    // count of one still is not
    let (a, b) = (scattered(300, 16, 3), scattered(300, 16, 4));
    assert!(spmm_flops_estimate(&a, &b) >= PARALLEL_MIN_FLOPS as f64);
    let serial = a.spgemm(&b);
    let before = sink.snapshot();
    let large = a.spgemm_parallel(&b, 4);
    let after = sink.snapshot();
    assert_bitwise(&large, &serial);
    let blocks = after.row_blocks - before.row_blocks;
    assert!((2..=4).contains(&blocks), "{blocks} blocks");
    let _ = a.spgemm_parallel(&b, 1);
    assert_eq!(sink.snapshot().row_blocks - after.row_blocks, 1);

    // a chain under the floor at four threads runs every link inline on the
    // one scratch the chain owns: allocated once, reused by the next link
    let mats = [
        scattered(60, 4, 5),
        scattered(60, 4, 6),
        scattered(60, 4, 7),
    ];
    let refs: Vec<&Csr> = mats.iter().collect();
    let before = sink.snapshot();
    let chained = spmm_chain_parallel(&refs, 4);
    let after = sink.snapshot();
    assert_bitwise(&chained, &spmm_chain(&refs));
    assert_eq!(after.row_blocks - before.row_blocks, 2, "two links, inline");
    assert_eq!(after.scratch_allocs - before.scratch_allocs, 1);
    assert_eq!(after.scratch_reuses - before.scratch_reuses, 1);

    // the serial chain is the same call at one thread: each link counts its
    // one block and its exact flops, like any inline product
    let serial = sink.snapshot();
    assert_eq!(
        serial.row_blocks - after.row_blocks,
        2,
        "spmm_chain's links"
    );
    assert_eq!(serial.spgemm_calls - after.spgemm_calls, 2);
    assert_eq!(
        serial.spgemm_flops - after.spgemm_flops,
        after.spgemm_flops - before.spgemm_flops
    );
}
