//! Injectable kernel profiling counters.
//!
//! The serving stack's telemetry wants to know how much *work* the sparse
//! kernels did — multiply-adds performed, scratch buffers grown vs reused —
//! not just how long calls took. [`KernelCounters`] is a process-wide sink
//! the kernels record into when (and only when) one has been installed:
//!
//! ```
//! use std::sync::Arc;
//! use hin_linalg::counters::{self, KernelCounters};
//!
//! let sink = Arc::new(KernelCounters::default());
//! counters::install(Arc::clone(&sink)); // once per process
//! // ... run kernels ...
//! let snap = sink.snapshot();
//! println!("{} multiply-adds", snap.total_flops());
//! ```
//!
//! With no sink installed the hot-path cost is a single relaxed boolean
//! load per kernel call — the kernels stay allocation- and branch-cheap.
//! Installation is once-per-process ([`install`] returns `false` on the
//! second attempt); a long-lived profiler shares the `Arc` and reads
//! [`KernelCounters::snapshot`] whenever it likes. Because the sink is
//! process-global, concurrent users (e.g. parallel tests) observe each
//! other's traffic: assert that counters *increased*, never their exact
//! values.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: OnceLock<Arc<KernelCounters>> = OnceLock::new();

/// Cumulative kernel work counters. All fields are monotone; share behind
/// an `Arc` and read via [`KernelCounters::snapshot`].
#[derive(Debug, Default)]
pub struct KernelCounters {
    /// `Csr::spgemm`/`spgemm_with` invocations.
    pub spgemm_calls: AtomicU64,
    /// Multiply-adds performed by those products (exact, from the sparsity
    /// structure: one per (A-nonzero, matching B-row-nonzero) pair).
    pub spgemm_flops: AtomicU64,
    /// `spvm`/`spvm_with` invocations (each link of a `spvm_chain` counts).
    pub spvm_calls: AtomicU64,
    /// Multiply-adds performed by those propagations.
    pub spvm_flops: AtomicU64,
    /// `ScatterScratch` buffer growths (fresh allocation work).
    pub scratch_allocs: AtomicU64,
    /// `ScatterScratch` uses satisfied by an already-wide-enough buffer.
    pub scratch_reuses: AtomicU64,
    /// Contiguous row blocks the parallel kernels cut their work into
    /// (`Csr::spgemm_parallel`, every link of `spmm_chain` /
    /// `spmm_chain_parallel`, and `spvm_chain_rows` when it fans a batch
    /// out): one per worker block, so a product that ran inline — one
    /// thread asked for, or under `pool::PARALLEL_MIN_FLOPS` — counts 1. A
    /// serial chain link is such a product and counts its one block; only
    /// a bare `Csr::spgemm` / `spgemm_with` counts none.
    pub row_blocks: AtomicU64,
    /// Anchors that propagated as part of a batch of two or more
    /// (`spvm_chain_rows` with k ≥ 2 rows adds k): the batched alternative
    /// to one `spvm_chain` per query. A lone anchor adds nothing.
    pub block_anchors: AtomicU64,
}

impl KernelCounters {
    /// A plain-data copy of the current values.
    pub fn snapshot(&self) -> KernelCountersSnapshot {
        KernelCountersSnapshot {
            spgemm_calls: self.spgemm_calls.load(Ordering::Relaxed),
            spgemm_flops: self.spgemm_flops.load(Ordering::Relaxed),
            spvm_calls: self.spvm_calls.load(Ordering::Relaxed),
            spvm_flops: self.spvm_flops.load(Ordering::Relaxed),
            scratch_allocs: self.scratch_allocs.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
            row_blocks: self.row_blocks.load(Ordering::Relaxed),
            block_anchors: self.block_anchors.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data view of [`KernelCounters`]; fields mirror the atomic struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCountersSnapshot {
    /// See [`KernelCounters::spgemm_calls`].
    pub spgemm_calls: u64,
    /// See [`KernelCounters::spgemm_flops`].
    pub spgemm_flops: u64,
    /// See [`KernelCounters::spvm_calls`].
    pub spvm_calls: u64,
    /// See [`KernelCounters::spvm_flops`].
    pub spvm_flops: u64,
    /// See [`KernelCounters::scratch_allocs`].
    pub scratch_allocs: u64,
    /// See [`KernelCounters::scratch_reuses`].
    pub scratch_reuses: u64,
    /// See [`KernelCounters::row_blocks`].
    pub row_blocks: u64,
    /// See [`KernelCounters::block_anchors`].
    pub block_anchors: u64,
}

impl KernelCountersSnapshot {
    /// Total multiply-adds across both kernel families.
    pub fn total_flops(&self) -> u64 {
        self.spgemm_flops + self.spvm_flops
    }
}

/// Install `sink` as the process-wide counter sink and enable recording.
/// Returns `false` (leaving the existing sink in place) if one was already
/// installed.
pub fn install(sink: Arc<KernelCounters>) -> bool {
    let fresh = SINK.set(sink).is_ok();
    if fresh {
        ENABLED.store(true, Ordering::Release);
    }
    fresh
}

/// The installed sink, if any.
pub fn installed() -> Option<Arc<KernelCounters>> {
    SINK.get().cloned()
}

/// Run `f` against the sink iff one is installed. The disabled path is one
/// relaxed load.
#[inline]
pub(crate) fn with(f: impl FnOnce(&KernelCounters)) {
    if ENABLED.load(Ordering::Relaxed) {
        if let Some(c) = SINK.get() {
            f(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{Csr, ScatterScratch};
    use crate::spvec::{spvm_chain_with, SparseVec};

    // NOTE: the sink is process-global and `cargo test` runs tests of this
    // crate in parallel inside one process, so these assertions are strictly
    // monotone (>=) — never exact — and both tests tolerate traffic from
    // neighbours.

    fn sink() -> Arc<KernelCounters> {
        let sink = Arc::new(KernelCounters::default());
        install(Arc::clone(&sink));
        installed().expect("a sink was just installed")
    }

    #[test]
    fn spgemm_records_calls_and_exact_flops() {
        let sink = sink();
        let before = sink.snapshot();
        let a = Csr::from_triplets(2, 2, [(0u32, 0u32, 1.0), (0, 1, 2.0), (1, 0, 3.0)]);
        let b = Csr::from_triplets(2, 2, [(0u32, 0u32, 1.0), (1, 1, 1.0)]);
        let _ = a.spgemm(&b);
        let after = sink.snapshot();
        assert!(after.spgemm_calls > before.spgemm_calls);
        // a has 3 nonzeros; row 0 of b has 1 nnz, row 1 has 1 nnz → 3 madds
        assert!(after.spgemm_flops >= before.spgemm_flops + 3);
        assert!(after.total_flops() >= before.total_flops() + 3);
    }

    #[test]
    fn spvm_and_scratch_record_work() {
        let sink = sink();
        let before = sink.snapshot();
        let m = Csr::from_triplets(3, 3, [(0u32, 1u32, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let mut scratch = ScatterScratch::new();
        let v = SparseVec::unit(3, 0);
        let _ = spvm_chain_with(&v, &[&m, &m], &mut scratch);
        let _ = spvm_chain_with(&v, &[&m, &m], &mut scratch);
        let after = sink.snapshot();
        assert!(
            after.spvm_calls >= before.spvm_calls + 4,
            "2 chains × 2 links"
        );
        assert!(after.spvm_flops >= before.spvm_flops + 4, "1 madd per link");
        assert!(
            after.scratch_allocs > before.scratch_allocs,
            "first prepare grows the accumulator"
        );
        assert!(
            after.scratch_reuses >= before.scratch_reuses + 3,
            "later links reuse it"
        );
    }
}
