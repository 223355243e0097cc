//! Small, dependency-free linear algebra kernels used across the `hin`
//! workspace.
//!
//! The published systems this workspace reproduces (RankClus, NetClus,
//! SimRank, PathSim, spectral clustering) were originally evaluated on top of
//! MATLAB-grade dense/sparse kernels. Rust's sparse linear algebra ecosystem
//! is comparatively immature, so the handful of kernels the algorithms
//! actually need are implemented here:
//!
//! * [`DMat`] — row-major dense matrices with the usual arithmetic,
//! * [`Csr`] — compressed sparse row matrices with `matvec`, transpose and
//!   sparse×sparse products,
//! * [`chain`] — sparse product cost model (`spmm_flops_estimate`,
//!   `spmm_nnz_estimate`) and matrix-chain multiplication-order planning,
//! * [`spvec`] — [`SparseVec`] and the `spvm`/[`spvm_chain`] row-propagation
//!   kernels (plus their cost model), the sparse-row execution mode
//!   anchored meta-path queries run on; [`spvm_chain_rows`] is the same
//!   propagation looped over a micro-batch of anchors,
//! * [`pool`] — the scoped worker pool behind the row-parallel kernels
//!   ([`Csr::spgemm_parallel`] / [`spmm_chain_parallel`]): flop-balanced
//!   row blocks, per-worker scratch, a flop floor under which work stays
//!   inline, and the thread count ([`kernel_threads`]:
//!   `HIN_KERNEL_THREADS`, else the hardware's),
//! * [`codec`] — the checksummed length-prefixed wire frame, the typed
//!   [`codec::CodecError`] and the FNV integrity hashes (byte, word and
//!   four-lane word) the serving transport and the cache snapshot
//!   container are built from,
//! * [`arena`] — the zero-copy storage tier: shared 8-byte-aligned
//!   [`ArenaBuf`] buffers and `Csr::from_arena` views into them, so a
//!   snapshot restore is one map plus zero per-matrix decodes (with
//!   process-wide view/decode counters and a live arena-bytes gauge),
//! * [`eigen::jacobi_eigen`] — cyclic Jacobi eigendecomposition for symmetric
//!   dense matrices,
//! * [`lanczos::lanczos_symmetric`] — Lanczos iteration for large sparse
//!   symmetric operators,
//! * [`solve::solve_linear`] — Gaussian elimination with partial pivoting,
//! * [`counters`] — injectable process-wide kernel profiling counters
//!   (multiply-adds performed, scratch reuse) the serving-stack telemetry
//!   reads.

pub mod arena;
pub mod chain;
pub mod codec;
pub mod counters;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod lanczos;
pub mod pool;
pub mod solve;
pub mod spvec;
pub mod vector;

pub use arena::{ArenaBuf, ArenaEntry};
pub use chain::{
    spmm_chain, spmm_chain_order, spmm_chain_order_priced, spmm_chain_parallel,
    spmm_flops_estimate, spmm_nnz_estimate, ChainPlan, MatSummary, PlanTree,
};
pub use counters::{KernelCounters, KernelCountersSnapshot};
pub use csr::{Csr, ScatterScratch};
pub use dense::DMat;
pub use pool::kernel_threads;
pub use spvec::{
    spvm, spvm_chain, spvm_chain_flops_estimate, spvm_chain_rows, spvm_chain_with,
    spvm_flops_estimate, spvm_with, SparseVec, SpvmChainEstimate,
};
