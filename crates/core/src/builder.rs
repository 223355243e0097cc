//! Incremental construction of [`Hin`] values.

use std::collections::HashMap;

use hin_linalg::Csr;

use crate::error::HinError;
use crate::graph::{Hin, NodeRef, RelationId, RelationInfo, TypeId, TypeInfo};

/// Builder accumulating types, interned nodes and weighted edges, then
/// freezing them into CSR form.
///
/// ```
/// use hin_core::HinBuilder;
/// let mut b = HinBuilder::new();
/// let paper = b.add_type("paper");
/// let venue = b.add_type("venue");
/// let published_in = b.add_relation("published_in", paper, venue);
/// let p = b.intern(paper, "RankClus");
/// let v = b.intern(venue, "EDBT");
/// b.add_edge(published_in, p.id, v.id, 1.0).unwrap();
/// let hin = b.build();
/// assert_eq!(hin.total_edges(), 1);
/// ```
#[derive(Default)]
pub struct HinBuilder {
    types: Vec<TypeInfo>,
    relations: Vec<PendingRelation>,
}

struct PendingRelation {
    name: String,
    src: TypeId,
    dst: TypeId,
    edges: Vec<(u32, u32, f64)>,
}

impl HinBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a node type; type names should be unique (not enforced — the
    /// first type with a name wins lookups).
    pub fn add_type(&mut self, name: &str) -> TypeId {
        self.types.push(TypeInfo {
            name: name.to_string(),
            node_names: Vec::new(),
            index: HashMap::new(),
        });
        TypeId(self.types.len() - 1)
    }

    /// Register a relation between two (not necessarily distinct) types.
    pub fn add_relation(&mut self, name: &str, src: TypeId, dst: TypeId) -> RelationId {
        self.relations.push(PendingRelation {
            name: name.to_string(),
            src,
            dst,
            edges: Vec::new(),
        });
        RelationId(self.relations.len() - 1)
    }

    /// Add a node with the given display name, without checking for
    /// duplicates. Prefer [`HinBuilder::intern`] when names identify nodes:
    /// name lookups ([`HinBuilder::intern`], [`Hin::node_by_name`]) find
    /// the first node added under a name.
    pub fn add_node(&mut self, ty: TypeId, name: &str) -> NodeRef {
        let info = &mut self.types[ty.0];
        info.node_names.push(name.to_string());
        let id = (info.node_names.len() - 1) as u32;
        info.index.entry(name.to_string()).or_insert(id);
        NodeRef { ty, id }
    }

    /// Get-or-create the node of `ty` named `name`.
    pub fn intern(&mut self, ty: TypeId, name: &str) -> NodeRef {
        if let Some(&id) = self.types[ty.0].index.get(name) {
            return NodeRef { ty, id };
        }
        self.add_node(ty, name)
    }

    /// Number of nodes currently interned for `ty`.
    pub fn node_count(&self, ty: TypeId) -> usize {
        self.types[ty.0].node_names.len()
    }

    /// Add a weighted edge; duplicate `(src, dst)` pairs accumulate.
    ///
    /// Non-finite weights (NaN, ±∞) are rejected with
    /// [`HinError::NonFiniteWeight`]: a single dirty row would otherwise
    /// poison every commuting matrix computed from the network and turn
    /// per-request score comparisons into process-wide hazards.
    ///
    /// # Panics
    /// Panics at [`HinBuilder::build`] time when ids are out of range.
    pub fn add_edge(
        &mut self,
        rel: RelationId,
        src_id: u32,
        dst_id: u32,
        weight: f64,
    ) -> Result<(), HinError> {
        if !weight.is_finite() {
            return Err(HinError::NonFiniteWeight {
                relation: self.relations[rel.0].name.clone(),
                src: src_id.to_string(),
                dst: dst_id.to_string(),
                weight: weight.to_string(),
            });
        }
        self.relations[rel.0].edges.push((src_id, dst_id, weight));
        Ok(())
    }

    /// Convenience: intern both endpoints by name and add an edge.
    ///
    /// Like [`HinBuilder::add_edge`], rejects non-finite weights — and does
    /// so *before* interning either endpoint, so a rejected row leaves no
    /// orphan nodes behind.
    pub fn link(
        &mut self,
        rel: RelationId,
        src_name: &str,
        dst_name: &str,
        weight: f64,
    ) -> Result<(), HinError> {
        if !weight.is_finite() {
            return Err(HinError::NonFiniteWeight {
                relation: self.relations[rel.0].name.clone(),
                src: src_name.to_string(),
                dst: dst_name.to_string(),
                weight: weight.to_string(),
            });
        }
        let (src_ty, dst_ty) = {
            let r = &self.relations[rel.0];
            (r.src, r.dst)
        };
        let s = self.intern(src_ty, src_name);
        let d = self.intern(dst_ty, dst_name);
        self.add_edge(rel, s.id, d.id, weight)
    }

    /// Freeze into an immutable [`Hin`], materializing CSR adjacency in both
    /// directions for every relation.
    pub fn build(self) -> Hin {
        let types = self.types;
        let relations = self
            .relations
            .into_iter()
            .map(|p| {
                let nrows = types[p.src.0].node_names.len();
                let ncols = types[p.dst.0].node_names.len();
                let fwd = Csr::from_triplets(nrows, ncols, p.edges);
                let bwd = fwd.transpose();
                // `bwd` *is* the transpose, so symmetry is a plain equality
                // check here — done once so query resolution can ask in O(1)
                let symmetric = p.src == p.dst && fwd == bwd;
                RelationInfo {
                    name: p.name,
                    src: p.src,
                    dst: p.dst,
                    fwd,
                    bwd,
                    symmetric,
                }
            })
            .collect();
        Hin { types, relations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut b = HinBuilder::new();
        let t = b.add_type("t");
        let a = b.intern(t, "a");
        let a2 = b.intern(t, "a");
        let c = b.intern(t, "c");
        assert_eq!(a, a2);
        assert_ne!(a, c);
        assert_eq!(b.node_count(t), 2);
    }

    #[test]
    fn name_lookup_finds_the_first_of_duplicate_names() {
        let mut b = HinBuilder::new();
        let t = b.add_type("t");
        let first = b.add_node(t, "dup");
        let other = b.add_node(t, "other");
        let second = b.add_node(t, "dup");
        assert_ne!(first, second);
        assert_eq!(b.intern(t, "dup"), first);
        let hin = b.build();
        assert_eq!(hin.node_count(t), 3);
        assert_eq!(hin.node_by_name(t, "dup").unwrap(), first);
        assert_eq!(hin.node_by_name(t, "other").unwrap(), other);
        assert!(matches!(
            hin.node_by_name(t, "missing"),
            Err(HinError::UnknownNode { .. })
        ));
    }

    #[test]
    fn link_by_name() {
        let mut b = HinBuilder::new();
        let x = b.add_type("x");
        let y = b.add_type("y");
        let r = b.add_relation("r", x, y);
        b.link(r, "x1", "y1", 2.0).unwrap();
        b.link(r, "x1", "y1", 3.0).unwrap();
        b.link(r, "x2", "y1", 1.0).unwrap();
        let hin = b.build();
        assert_eq!(hin.node_count(x), 2);
        assert_eq!(hin.node_count(y), 1);
        assert_eq!(hin.relation(r).fwd.get(0, 0), 5.0);
        assert_eq!(hin.relation(r).bwd.row_sum(0), 6.0);
    }

    #[test]
    fn non_finite_weights_are_rejected_at_ingestion() {
        let mut b = HinBuilder::new();
        let x = b.add_type("x");
        let y = b.add_type("y");
        let r = b.add_relation("r", x, y);
        b.link(r, "x0", "y0", 1.0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = b.link(r, "x1", "y9", bad).unwrap_err();
            assert!(
                matches!(err, crate::HinError::NonFiniteWeight { .. }),
                "{err}"
            );
            let err = b.add_edge(r, 0, 0, bad).unwrap_err();
            assert!(
                matches!(err, crate::HinError::NonFiniteWeight { .. }),
                "{err}"
            );
        }
        // the rejected rows left no trace: no orphan nodes, no edges
        assert_eq!(b.node_count(x), 1);
        assert_eq!(b.node_count(y), 1);
        let hin = b.build();
        assert_eq!(hin.total_edges(), 1);
    }

    #[test]
    fn empty_network_builds() {
        let hin = HinBuilder::new().build();
        assert_eq!(hin.type_count(), 0);
        assert_eq!(hin.total_edges(), 0);
    }

    #[test]
    fn self_relation_supported() {
        // homogeneous relations (e.g. citation paper→paper) are legal
        let mut b = HinBuilder::new();
        let p = b.add_type("paper");
        let cites = b.add_relation("cites", p, p);
        b.link(cites, "p0", "p1", 1.0).unwrap();
        let hin = b.build();
        assert_eq!(hin.relation(cites).fwd.nrows(), 2);
        assert_eq!(hin.relation(cites).fwd.get(0, 1), 1.0);
    }
}
