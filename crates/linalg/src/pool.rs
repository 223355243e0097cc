//! Scoped worker pool and row-block partitioning for the parallel sparse
//! kernels.
//!
//! Every output row of an SpMM is independent, so the parallel kernels
//! ([`Csr::spgemm_parallel`](crate::csr::Csr::spgemm_parallel),
//! [`crate::chain::spmm_chain_parallel`], [`crate::spvec::spvm_chain_rows`])
//! partition output rows into contiguous, work-balanced blocks and hand
//! each block to its own worker with its own
//! [`ScatterScratch`](crate::csr::ScatterScratch). Workers are
//! `std::thread::scope` threads — no external threadpool dependency, no
//! long-lived pool state to manage, and borrowed operands flow into the
//! workers without `Arc` ceremony. Rows inside a block run the one serial
//! row kernel, and blocks are stitched back in row order, so the parallel
//! product is bit-identical to the serial one by construction.
//!
//! Dispatch is static — one block per worker — and gated by
//! [`PARALLEL_MIN_FLOPS`]: starting scoped threads costs more than a small
//! product does, so work under the floor runs inline on the caller's
//! thread. The worker count is [`kernel_threads`].

use std::ops::Range;
use std::sync::OnceLock;

/// Environment variable overriding the default kernel worker count.
pub const KERNEL_THREADS_ENV: &str = "HIN_KERNEL_THREADS";

/// Multiply-adds under which a parallel kernel runs inline on the caller's
/// thread instead of fanning out. Measured serial against two workers with
/// no floor (bitmap row kernel, median of 301, 2 vCPU), the pool lost at
/// every product under ≈ 9 k multiply-adds (0.06× at 434, 0.59× at 6.9 k),
/// tied near 9–15 k, and won 1.3–1.6× at every one from 22 k up. Starting
/// two scoped threads cost ≈ 40 µs in that run but ≈ 90–100 µs in an
/// earlier one, where the pool still lost at 24 k (0.85×); the floor stays
/// above both crossovers.
pub const PARALLEL_MIN_FLOPS: usize = 32 * 1024;

/// The worker count the parallel kernels use when the caller doesn't pass
/// one: `HIN_KERNEL_THREADS` when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. Always ≥ 1.
///
/// Resolved once per process: `available_parallelism` re-reads the cgroup
/// files on every call (≈ 14 µs — several anchored queries' worth), and the
/// engine asks on every cache-miss product and every anchored propagation.
/// `HIN_KERNEL_THREADS` is therefore read at first use; changing it later
/// has no effect.
pub fn kernel_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| resolve_threads(std::env::var(KERNEL_THREADS_ENV).ok().as_deref()))
}

/// `setting` (the value of `HIN_KERNEL_THREADS`, if any) as a worker count,
/// falling back to the hardware's parallelism when it is absent, zero or
/// not a number.
fn resolve_threads(setting: Option<&str>) -> usize {
    setting
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Partition `0..nrows` into at most `threads` contiguous blocks balanced
/// by `row_weight` (typically per-row multiply-add counts, so nnz-heavy
/// rows don't pile onto one worker). Blocks are non-empty and cover the
/// range in order; fewer than `threads` blocks come back when there are
/// fewer rows (or all the weight fits earlier).
pub fn row_blocks(
    nrows: usize,
    threads: usize,
    mut row_weight: impl FnMut(usize) -> usize,
) -> Vec<Range<usize>> {
    let threads = threads.max(1);
    if nrows == 0 {
        return Vec::new();
    }
    if threads == 1 || nrows == 1 {
        // one block spanning every row — not a 0..nrows index list
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..nrows];
    }
    // Every row weighs at least 1 so empty rows still advance the split
    // points and no block degenerates to zero rows.
    let weights: Vec<u64> = (0..nrows).map(|r| row_weight(r).max(1) as u64).collect();
    let total: u64 = weights.iter().sum();
    let per_block = total.div_ceil(threads as u64).max(1);
    let mut blocks = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (r, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= per_block && r + 1 < nrows {
            blocks.push(start..r + 1);
            start = r + 1;
            acc = 0;
        }
    }
    blocks.push(start..nrows);
    blocks
}

/// Run `work` over each block on scoped worker threads, returning per-block
/// results in block order. A single block runs inline on the caller's
/// thread — the serial path spawns nothing.
pub fn run_blocks<T: Send>(
    blocks: Vec<Range<usize>>,
    work: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    if blocks.len() <= 1 {
        return blocks.into_iter().map(work).collect();
    }
    let mut slots: Vec<Option<T>> = blocks.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, block) in slots.iter_mut().zip(blocks) {
            let work = &work;
            s.spawn(move || {
                *slot = Some(work(block));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("scoped worker filled its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolution_and_clamping() {
        assert_eq!(resolve_threads(Some("7")), 7);
        assert_eq!(resolve_threads(Some(" 3 ")), 3);
        // absent, zero and junk all fall back to the hardware, clamped ≥ 1
        let hardware = resolve_threads(None);
        assert!(hardware >= 1);
        assert_eq!(resolve_threads(Some("0")), hardware);
        assert_eq!(resolve_threads(Some("many")), hardware);
        // resolved once: every call reports the same count
        assert!(kernel_threads() >= 1);
        assert_eq!(kernel_threads(), kernel_threads());
    }

    #[test]
    fn blocks_cover_contiguously_and_balance_weight() {
        // skewed weights: the heavy head must not drag the whole range
        // into one block
        let w = [100usize, 1, 1, 1, 1, 1, 1, 100];
        let blocks = row_blocks(8, 3, |r| w[r]);
        assert!(!blocks.is_empty() && blocks.len() <= 3);
        assert_eq!(blocks[0].start, 0);
        assert_eq!(blocks.last().unwrap().end, 8);
        for pair in blocks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "contiguous cover");
            assert!(!pair[0].is_empty());
        }
        // uniform weights split near-evenly
        let even = row_blocks(100, 4, |_| 1);
        assert_eq!(even.len(), 4);
        assert!(even.iter().all(|b| b.len() >= 20));
    }

    #[test]
    fn degenerate_block_shapes() {
        assert!(row_blocks(0, 4, |_| 1).is_empty());
        assert_eq!(row_blocks(1, 4, |_| 1), vec![0..1]);
        assert_eq!(row_blocks(5, 1, |_| 1), vec![0..5]);
        // more threads than rows: at most one block per row
        let blocks = row_blocks(3, 8, |_| 1);
        assert!(blocks.len() <= 3);
        assert_eq!(blocks.last().unwrap().end, 3);
    }

    #[test]
    fn run_blocks_returns_in_block_order() {
        let blocks = row_blocks(64, 4, |_| 1);
        let want: Vec<usize> = blocks.iter().map(|b| b.start).collect();
        let got = run_blocks(blocks, |b| b.start);
        assert_eq!(got, want);
        // the single-block inline path
        #[allow(clippy::single_range_in_vec_init)]
        let one_block = vec![0..9];
        assert_eq!(run_blocks(one_block, |b| b.end), vec![9]);
        assert!(run_blocks(Vec::new(), |b| b.end).is_empty());
    }
}
