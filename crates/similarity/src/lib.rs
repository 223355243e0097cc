//! Similarity measures on information networks (tutorial §2(b)iii and the
//! top-k similarity search frontier of §7(b)).
//!
//! * [`mod@simrank`] — SimRank (KDD'02), both the naive fixed-point iteration
//!   and the partial-sums optimization, for homogeneous networks,
//! * [`ppr`] — Personalized-PageRank similarity,
//! * [`metapath`] — meta-path machinery over heterogeneous schemas:
//!   commuting matrices built by sparse products,
//! * [`pathsim`] — PathSim peer similarity plus the PathCount and
//!   random-walk measures it is compared against in the original paper.

pub mod metapath;
pub mod pathsim;
pub mod ppr;
pub mod simrank;

pub use metapath::{commuting_matrix, MetaPath, PathStep};
pub use pathsim::{
    path_count, pathsim_matrix, pathsim_pair, random_walk_measure, top_k, top_k_pathsim,
    top_k_pathsim_with_diagonal, PathSimTopK, TopK,
};
pub use ppr::{ppr_similarity_from, ppr_similarity_matrix};
pub use simrank::{simrank, simrank_naive, SimRankConfig, SimRankResult};
