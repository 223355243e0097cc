//! Synthetic workload generators.
//!
//! The published evaluations this workspace reproduces ran on proprietary or
//! since-evolved datasets (DBLP snapshots, Flickr crawls, book-seller fact
//! corpora). Each generator here produces the *structural equivalent* that
//! the corresponding experiment actually measures — schema, degree skew,
//! planted ground truth — with every knob the experiments sweep exposed as
//! configuration:
//!
//! * [`dblp`] — star-schema bibliographic networks with planted research
//!   areas (RankClus / NetClus / PathSim / classification experiments),
//! * [`flickr`] — photo-sharing star networks with planted topics,
//! * [`binet`] — direct bi-typed networks with controlled density and
//!   cluster separation (RankClus accuracy sweeps),
//! * [`planted`] — homogeneous planted-partition graphs (SCAN / spectral),
//! * [`claims`] — conflicting-fact corpora with controlled source
//!   reliability (TruthFinder),
//! * [`ambiguous`] — merged-identity reference sets (DISTINCT),
//! * [`growth`] — forest-fire growth traces (densification experiments),
//! * [`random`] — the shared samplers (Zipf, Dirichlet, categorical),
//!
//! and [`naive`], the reference answer to a meta-path query over any of
//! them: a hash-map evaluator that shares no code with the query engine.

pub mod ambiguous;
pub mod binet;
pub mod claims;
pub mod dblp;
pub mod flickr;
pub mod growth;
pub mod naive;
pub mod planted;
pub mod random;

pub use ambiguous::{AmbiguousConfig, AmbiguousData, ReferenceRecord};
pub use binet::{BiNetConfig, SyntheticBiNet};
pub use claims::{Claim, ClaimsConfig, ClaimsData};
pub use dblp::{DblpConfig, DblpData};
pub use flickr::{FlickrConfig, FlickrData};
pub use growth::{forest_fire, GrowthConfig, Snapshot};
pub use planted::{planted_partition, PlantedConfig};
