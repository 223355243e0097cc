//! PathSim and the competing meta-path measures (Sun et al., reference \[6\]
//! of the tutorial; tutorial §7(b) "top-k similarity search in
//! heterogeneous information networks").
//!
//! Given the commuting matrix `M` of a *symmetric* meta-path,
//! `PathSim(x, y) = 2·M[x,y] / (M[x,x] + M[y,y])` — a peer measure that
//! normalizes away the hub advantage that raw path counts and random-walk
//! measures give to high-visibility objects.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hin_linalg::Csr;

/// `2·M[x,y] / (M[x,x] + M[y,y])`, 0 when both self-counts are 0.
#[inline]
fn pathsim_score(mxy: f64, mxx: f64, myy: f64) -> f64 {
    let denom = mxx + myy;
    if denom <= 0.0 {
        0.0
    } else {
        2.0 * mxy / denom
    }
}

/// PathSim between two objects under a symmetric meta-path with commuting
/// matrix `m`. Returns 0 when both self-counts are 0.
pub fn pathsim_pair(m: &Csr, x: usize, y: usize) -> f64 {
    pathsim_score(m.get(x, y), m.get(x, x), m.get(y, y))
}

/// The full PathSim matrix, sparse over the nonzero pattern of `m`.
/// Diagonal entries are 1 whenever the object has any path instance.
///
/// # Panics
/// Panics when `m` is not square.
pub fn pathsim_matrix(m: &Csr) -> Csr {
    assert_eq!(m.nrows(), m.ncols(), "commuting matrix must be square");
    let diag = m.diagonal();
    Csr::from_triplets(
        m.nrows(),
        m.ncols(),
        m.iter().filter_map(|(r, c, v)| {
            let denom = diag[r as usize] + diag[c as usize];
            (denom > 0.0).then(|| (r, c, 2.0 * v / denom))
        }),
    )
}

/// Top-`k` PathSim neighbors of `x` (excluding `x` itself), descending.
///
/// One pass over row `x`: `M[x][x]` is looked up once, `M[x][y]` is the
/// row entry being visited, and each candidate costs one binary search for
/// its `M[y][y]`. When the same matrix answers many anchors, build
/// [`Csr::diagonal`] once and use [`top_k_pathsim_with_diagonal`].
pub fn top_k_pathsim(m: &Csr, x: usize, k: usize) -> Vec<(usize, f64)> {
    pathsim_row(m, x, k, |y| m.get(y, y))
}

/// [`top_k_pathsim`] reading every `M[y][y]` from `diag`, which must be
/// `m.diagonal()`: no search at all, same answer bit for bit.
pub fn top_k_pathsim_with_diagonal(m: &Csr, diag: &[f64], x: usize, k: usize) -> Vec<(usize, f64)> {
    pathsim_row(m, x, k, |y| diag[y])
}

/// The scoring loop behind both `top_k_pathsim` entry points, generic over
/// where the self-counts `M[y][y]` come from.
fn pathsim_row(
    m: &Csr,
    x: usize,
    k: usize,
    self_count: impl Fn(usize) -> f64,
) -> Vec<(usize, f64)> {
    let mxx = self_count(x);
    let (idx, vals) = m.row(x);
    let mut top = TopK::new(k, idx.len());
    for (&y, &mxy) in idx.iter().zip(vals) {
        let y = y as usize;
        if y != x {
            top.push(y, pathsim_score(mxy, mxx, self_count(y)));
        }
    }
    top.into_sorted()
}

/// Top-`k` by raw path count (the PathCount baseline).
pub fn path_count(m: &Csr, x: usize, k: usize) -> Vec<(usize, f64)> {
    row_top_k(m, x, k, |v| v)
}

/// Top-`k` by the random-walk measure: the row-normalized commuting matrix
/// (probability that a path from `x` ends at `y`). Favours hubs — the
/// behaviour PathSim was designed to avoid.
pub fn random_walk_measure(m: &Csr, x: usize, k: usize) -> Vec<(usize, f64)> {
    let row_sum = m.row_sum(x);
    if row_sum <= 0.0 {
        return Vec::new();
    }
    row_top_k(m, x, k, |v| v / row_sum)
}

/// The best `k` entries of row `x` other than `x` itself, each scored
/// `score(value)`.
fn row_top_k(m: &Csr, x: usize, k: usize, score: impl Fn(f64) -> f64) -> Vec<(usize, f64)> {
    let (idx, vals) = m.row(x);
    let mut top = TopK::new(k, idx.len());
    for (&y, &v) in idx.iter().zip(vals) {
        if y as usize != x {
            top.push(y as usize, score(v));
        }
    }
    top.into_sorted()
}

/// The best `k` of `scored` `(id, score)` pairs, best first: score
/// descending by [`f64::total_cmp`] (a NaN orders deterministically instead
/// of panicking), ties by ascending id. Ids must be unique, which makes the
/// order strict — so any selection of the `k` survivors, sorted, is exactly
/// what a full sort + truncate returns. [`TopK`] over `scored`.
pub fn top_k(scored: Vec<(usize, f64)>, k: usize) -> Vec<(usize, f64)> {
    let mut top = TopK::new(k, scored.len());
    for (id, score) in scored {
        top.push(id, score);
    }
    top.into_sorted()
}

/// The order [`top_k`] ranks by: score descending by [`f64::total_cmp`],
/// then id ascending. `Less` means `a` ranks ahead of `b`.
fn best_first(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// A streaming top-`k` selector: `(id, score)` candidates are pushed while
/// a row is scanned, and only the best `k` of them are ever held, so
/// ranking a row allocates for `k` candidates, not for the row. The order
/// is [`top_k`]'s, and so is the answer, bit for bit.
///
/// `len` announced at construction is how many candidates the caller
/// expects to push, at most. When `k >= len` nothing can be cut, so the
/// selector collects every candidate and sorts once at the end; otherwise
/// it keeps a `k`-bounded heap whose root is the worst candidate kept, and
/// a candidate that does not beat the root costs one comparison. Pushing
/// more than `len` candidates is allowed: the answer still holds `k`.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    kept: Kept,
}

#[derive(Debug)]
enum Kept {
    /// `k` at least the announced length: every candidate, unsorted.
    All(Vec<(usize, f64)>),
    /// At most `k` candidates, a max-heap under [`best_first`]: the root
    /// is the worst of them.
    Best(BinaryHeap<Ranked>),
}

impl TopK {
    /// A selector for the best `k` of at most `len` candidates.
    pub fn new(k: usize, len: usize) -> Self {
        let kept = if k >= len {
            Kept::All(Vec::with_capacity(len))
        } else {
            Kept::Best(BinaryHeap::with_capacity(k))
        };
        Self { k, kept }
    }

    /// Offer one candidate. Ids must be unique across pushes.
    #[inline]
    pub fn push(&mut self, id: usize, score: f64) {
        match &mut self.kept {
            Kept::All(all) => all.push((id, score)),
            Kept::Best(heap) => {
                let candidate = Ranked(id, score);
                if heap.len() < self.k {
                    heap.push(candidate);
                } else if let Some(mut worst) = heap.peek_mut() {
                    if candidate < *worst {
                        *worst = candidate;
                    }
                }
            }
        }
    }

    /// The best `k` candidates pushed, best first.
    pub fn into_sorted(self) -> Vec<(usize, f64)> {
        match self.kept {
            Kept::All(mut all) => {
                all.sort_unstable_by(best_first);
                all.truncate(self.k);
                all
            }
            Kept::Best(heap) => heap
                .into_sorted_vec()
                .into_iter()
                .map(|Ranked(id, score)| (id, score))
                .collect(),
        }
    }
}

/// A candidate ordered by [`best_first`], so "greater" is "ranks later".
#[derive(Clone, Copy, Debug)]
struct Ranked(usize, f64);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        best_first(&(self.0, self.1), &(other.0, other.1))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Commuting matrix of APCPA-style path for 3 objects:
    /// object 0: heavy hub (many self-paths), 1 and 2: small peers that
    /// mostly co-occur with each other.
    fn toy() -> Csr {
        Csr::from_triplets(
            3,
            3,
            [
                (0u32, 0u32, 100.0),
                (1, 1, 4.0),
                (2, 2, 4.0),
                (0, 1, 10.0),
                (1, 0, 10.0),
                (1, 2, 4.0),
                (2, 1, 4.0),
            ],
        )
    }

    #[test]
    fn pathsim_prefers_peers_over_hubs() {
        let m = toy();
        // raw count prefers the hub, PathSim prefers the peer
        assert!(m.get(1, 0) > m.get(1, 2));
        let s_hub = pathsim_pair(&m, 1, 0);
        let s_peer = pathsim_pair(&m, 1, 2);
        assert!(
            s_peer > s_hub,
            "peer {s_peer} should beat hub {s_hub} under PathSim"
        );
        assert!((s_peer - 1.0).abs() < 1e-12, "identical peers have sim 1");
    }

    #[test]
    fn matrix_and_pair_agree() {
        let m = toy();
        let s = pathsim_matrix(&m);
        for (r, c, v) in s.iter() {
            assert!((v - pathsim_pair(&m, r as usize, c as usize)).abs() < 1e-12);
        }
        // diagonal is 1 where defined
        assert_eq!(s.get(0, 0), 1.0);
    }

    #[test]
    fn range_and_symmetry() {
        let m = toy();
        let s = pathsim_matrix(&m);
        for (r, c, v) in s.iter() {
            assert!((0.0..=1.0 + 1e-12).contains(&v), "s({r},{c})={v}");
            assert!((v - s.get(c as usize, r as usize)).abs() < 1e-12);
        }
    }

    #[test]
    fn top_k_rankings_differ_by_measure() {
        let m = toy();
        let ps = top_k_pathsim(&m, 1, 2);
        assert_eq!(ps[0].0, 2, "PathSim ranks the peer first");
        let pc = path_count(&m, 1, 2);
        assert_eq!(pc[0].0, 0, "PathCount ranks the hub first");
        let rw = random_walk_measure(&m, 1, 2);
        assert_eq!(rw[0].0, 0, "random walk follows volume");
        assert!((rw[0].1 - 10.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_object() {
        let m = Csr::from_triplets(2, 2, [(0u32, 0u32, 2.0)]);
        assert_eq!(pathsim_pair(&m, 0, 1), 0.0);
        assert!(top_k_pathsim(&m, 1, 5).is_empty());
        assert!(random_walk_measure(&m, 1, 5).is_empty());
    }
}
