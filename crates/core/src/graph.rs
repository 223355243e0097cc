//! The heterogeneous information network value type.

use std::collections::HashMap;

use hin_linalg::Csr;

use crate::error::HinError;
use crate::schema::NetworkSchema;

/// Index of a node type within a [`Hin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub usize);

/// Index of a relation within a [`Hin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub usize);

/// A typed node handle: node `id` within the arena of type `ty`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeRef {
    /// The node's type.
    pub ty: TypeId,
    /// The node's index within its type arena.
    pub id: u32,
}

/// One node type: its name and the display names of its nodes.
#[derive(Clone, Debug)]
pub(crate) struct TypeInfo {
    pub name: String,
    pub node_names: Vec<String>,
    /// Display name → id, filled as nodes are added; the lowest id wins
    /// when several nodes share a name.
    pub index: HashMap<String, u32>,
}

/// One typed relation with both adjacency directions materialized.
#[derive(Clone, Debug)]
pub struct RelationInfo {
    /// Relation name, e.g. `"writes"`.
    pub name: String,
    /// Source node type.
    pub src: TypeId,
    /// Destination node type.
    pub dst: TypeId,
    /// Forward adjacency: rows are `src` nodes, columns `dst` nodes.
    pub fwd: Csr,
    /// Backward adjacency: `fwd` transposed, kept materialized because every
    /// ranking/clustering algorithm walks both directions.
    pub bwd: Csr,
    /// `true` for a self-relation whose adjacency equals its transpose
    /// (e.g. co-authorship). Precomputed at build time; always `false`
    /// for cross-type relations.
    pub symmetric: bool,
}

/// An immutable heterogeneous information network.
///
/// Construct through [`crate::HinBuilder`]. Nodes of each type are dense
/// `0..n` indices; relations store weighted CSR adjacency in both
/// directions.
#[derive(Clone, Debug)]
pub struct Hin {
    pub(crate) types: Vec<TypeInfo>,
    pub(crate) relations: Vec<RelationInfo>,
}

impl Hin {
    /// Number of node types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Name of a node type.
    pub fn type_name(&self, ty: TypeId) -> &str {
        &self.types[ty.0].name
    }

    /// Look a node type up by name.
    pub fn type_by_name(&self, name: &str) -> Result<TypeId, HinError> {
        self.types
            .iter()
            .position(|t| t.name == name)
            .map(TypeId)
            .ok_or_else(|| HinError::UnknownType(name.to_string()))
    }

    /// All type ids.
    pub fn type_ids(&self) -> impl Iterator<Item = TypeId> {
        (0..self.types.len()).map(TypeId)
    }

    /// Number of nodes of the given type.
    pub fn node_count(&self, ty: TypeId) -> usize {
        self.types[ty.0].node_names.len()
    }

    /// Total nodes across all types.
    pub fn total_nodes(&self) -> usize {
        self.types.iter().map(|t| t.node_names.len()).sum()
    }

    /// Total edges (stored forward entries) across all relations.
    pub fn total_edges(&self) -> usize {
        self.relations.iter().map(|r| r.fwd.nnz()).sum()
    }

    /// Display name of a node.
    pub fn node_name(&self, node: NodeRef) -> &str {
        &self.types[node.ty.0].node_names[node.id as usize]
    }

    /// Find a node of `ty` by display name: one hash lookup. When several
    /// nodes share a name, the one with the lowest id is returned.
    pub fn node_by_name(&self, ty: TypeId, name: &str) -> Result<NodeRef, HinError> {
        self.types[ty.0]
            .index
            .get(name)
            .map(|&id| NodeRef { ty, id })
            .ok_or_else(|| HinError::UnknownNode {
                ty: self.type_name(ty).to_string(),
                name: name.to_string(),
            })
    }

    /// The relation with the given id.
    pub fn relation(&self, rel: RelationId) -> &RelationInfo {
        &self.relations[rel.0]
    }

    /// All relation ids.
    pub fn relation_ids(&self) -> impl Iterator<Item = RelationId> {
        (0..self.relations.len()).map(RelationId)
    }

    /// First relation connecting `src` to `dst` in either direction.
    ///
    /// Returns the relation id together with `forward == true` when the
    /// relation is stored as `src → dst`.
    pub fn relation_between(&self, src: TypeId, dst: TypeId) -> Option<(RelationId, bool)> {
        self.relations.iter().enumerate().find_map(|(i, r)| {
            if r.src == src && r.dst == dst {
                Some((RelationId(i), true))
            } else if r.src == dst && r.dst == src {
                Some((RelationId(i), false))
            } else {
                None
            }
        })
    }

    /// All relations connecting `src` to `dst` in either direction, each
    /// with `forward == true` when stored as `src → dst`.
    ///
    /// [`Hin::relation_between`] returns only the first match; query
    /// planning uses this full list to *detect* ambiguity and demand an
    /// explicit relation name instead of silently picking one.
    pub fn relations_between(&self, src: TypeId, dst: TypeId) -> Vec<(RelationId, bool)> {
        self.relations
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                if r.src == src && r.dst == dst {
                    Some((RelationId(i), true))
                } else if r.src == dst && r.dst == src {
                    Some((RelationId(i), false))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relations
            .iter()
            .position(|r| r.name == name)
            .map(RelationId)
    }

    /// Adjacency matrix from `src`-type rows to `dst`-type columns for the
    /// relation connecting them, materializing the right direction.
    pub fn adjacency(&self, src: TypeId, dst: TypeId) -> Result<&Csr, HinError> {
        match self.relation_between(src, dst) {
            Some((rel, true)) => Ok(&self.relations[rel.0].fwd),
            Some((rel, false)) => Ok(&self.relations[rel.0].bwd),
            None => Err(HinError::NoRelation {
                src: self.type_name(src).to_string(),
                dst: self.type_name(dst).to_string(),
            }),
        }
    }

    /// Weighted degree of a node under a specific relation, following the
    /// stored direction that has the node's type as source.
    pub fn degree(&self, node: NodeRef, rel: RelationId) -> f64 {
        let r = &self.relations[rel.0];
        if r.src == node.ty {
            r.fwd.row_sum(node.id as usize)
        } else if r.dst == node.ty {
            r.bwd.row_sum(node.id as usize)
        } else {
            0.0
        }
    }

    /// Neighbors of `node` under relation `rel` as `(neighbor id, weight)`,
    /// resolving direction automatically. Empty when the node's type does not
    /// participate in the relation.
    pub fn neighbors(&self, node: NodeRef, rel: RelationId) -> Vec<(u32, f64)> {
        let r = &self.relations[rel.0];
        let adj = if r.src == node.ty {
            &r.fwd
        } else if r.dst == node.ty {
            &r.bwd
        } else {
            return Vec::new();
        };
        let (idx, vals) = adj.row(node.id as usize);
        idx.iter().copied().zip(vals.iter().copied()).collect()
    }

    /// The network schema: node types as vertices, relations as edges.
    pub fn schema(&self) -> NetworkSchema {
        NetworkSchema::of(self)
    }

    /// Graphviz DOT rendering of the *schema* (types and relations), useful
    /// for inspecting extraction results.
    pub fn schema_dot(&self) -> String {
        let mut out = String::from("digraph schema {\n  rankdir=LR;\n");
        for t in &self.types {
            out.push_str(&format!(
                "  \"{}\" [shape=box,label=\"{} ({})\"];\n",
                t.name,
                t.name,
                t.node_names.len()
            ));
        }
        for r in &self.relations {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{} ({})\"];\n",
                self.type_name(r.src),
                self.type_name(r.dst),
                r.name,
                r.fwd.nnz()
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::HinBuilder;

    #[test]
    fn basic_queries() {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let writes = b.add_relation("writes", author, paper);
        let p0 = b.add_node(paper, "p0");
        let p1 = b.add_node(paper, "p1");
        let a0 = b.add_node(author, "alice");
        let a1 = b.add_node(author, "bob");
        b.add_edge(writes, a0.id, p0.id, 1.0).unwrap();
        b.add_edge(writes, a0.id, p1.id, 1.0).unwrap();
        b.add_edge(writes, a1.id, p1.id, 1.0).unwrap();
        let hin = b.build();

        assert_eq!(hin.type_count(), 2);
        assert_eq!(hin.node_count(paper), 2);
        assert_eq!(hin.total_nodes(), 4);
        assert_eq!(hin.total_edges(), 3);
        assert_eq!(hin.type_name(author), "author");
        assert_eq!(hin.type_by_name("paper").unwrap(), paper);
        assert!(hin.type_by_name("venue").is_err());
        assert_eq!(hin.node_name(a1), "bob");
        assert_eq!(hin.node_by_name(author, "alice").unwrap(), a0);
        assert!(hin.node_by_name(author, "carol").is_err());

        // direction resolution
        let (rel, fwd) = hin.relation_between(author, paper).unwrap();
        assert!(fwd);
        assert_eq!(rel, writes);
        let (rel2, fwd2) = hin.relation_between(paper, author).unwrap();
        assert!(!fwd2);
        assert_eq!(rel2, writes);

        let ap = hin.adjacency(author, paper).unwrap();
        assert_eq!(ap.nrows(), 2);
        assert_eq!(ap.get(0, 1), 1.0);
        let pa = hin.adjacency(paper, author).unwrap();
        assert_eq!(pa.get(1, 0), 1.0);

        assert_eq!(hin.degree(a0, writes), 2.0);
        assert_eq!(hin.degree(p1, writes), 2.0);
        assert_eq!(hin.neighbors(p1, writes), vec![(0, 1.0), (1, 1.0)]);

        let dot = hin.schema_dot();
        assert!(dot.contains("\"author\" -> \"paper\""));
    }

    #[test]
    fn relations_between_lists_all_candidates() {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let writes = b.add_relation("writes", author, paper);
        let reviews = b.add_relation("reviews", author, paper);
        b.add_node(paper, "p0");
        b.add_node(author, "a0");
        let hin = b.build();

        let both = hin.relations_between(author, paper);
        assert_eq!(both, vec![(writes, true), (reviews, true)]);
        let flipped = hin.relations_between(paper, author);
        assert_eq!(flipped, vec![(writes, false), (reviews, false)]);
        assert!(hin.relations_between(paper, paper).is_empty());
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let mut b = HinBuilder::new();
        let x = b.add_type("x");
        let y = b.add_type("y");
        let r = b.add_relation("r", x, y);
        b.add_node(x, "x0");
        b.add_node(y, "y0");
        b.add_edge(r, 0, 0, 1.0).unwrap();
        b.add_edge(r, 0, 0, 2.5).unwrap();
        let hin = b.build();
        assert_eq!(hin.relation(r).fwd.get(0, 0), 3.5);
        assert_eq!(hin.relation(r).bwd.get(0, 0), 3.5);
    }
}
