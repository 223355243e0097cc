//! PathSim and the competing meta-path measures (Sun et al., reference \[6\]
//! of the tutorial; tutorial §7(b) "top-k similarity search in
//! heterogeneous information networks").
//!
//! Given the commuting matrix `M` of a *symmetric* meta-path,
//! `PathSim(x, y) = 2·M[x,y] / (M[x,x] + M[y,y])` — a peer measure that
//! normalizes away the hub advantage that raw path counts and random-walk
//! measures give to high-visibility objects.

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
    let scored = idx
        .iter()
        .zip(vals)
        .filter(|&(&y, _)| y as usize != x)
        .map(|(&y, &mxy)| (y as usize, pathsim_score(mxy, mxx, self_count(y as usize))))
        .collect();
    top_k(scored, k)
}

/// Top-`k` by raw path count (the PathCount baseline).
pub fn path_count(m: &Csr, x: usize, k: usize) -> Vec<(usize, f64)> {
    let (idx, vals) = m.row(x);
    let counts = idx.iter().map(|&y| y as usize).zip(vals.iter().copied());
    top_k(counts.filter(|&(y, _)| y != x).collect(), k)
}

/// Top-`k` by the random-walk measure: the row-normalized commuting matrix
/// (probability that a path from `x` ends at `y`). Favours hubs — the
/// behaviour PathSim was designed to avoid.
pub fn random_walk_measure(m: &Csr, x: usize, k: usize) -> Vec<(usize, f64)> {
    let row_sum = m.row_sum(x);
    if row_sum <= 0.0 {
        return Vec::new();
    }
    let (idx, vals) = m.row(x);
    let probs = idx
        .iter()
        .map(|&y| y as usize)
        .zip(vals.iter().map(|v| v / row_sum));
    top_k(probs.filter(|&(y, _)| y != x).collect(), k)
}

/// The best `k` of `scored` `(id, score)` pairs, best first: score
/// descending by [`f64::total_cmp`] (a NaN orders deterministically instead
/// of panicking), ties by ascending id. Ids must be unique, which makes the
/// order strict — so selecting the `k` survivors first and sorting only
/// those returns exactly what a full sort + truncate would, in O(len)
/// instead of O(len·log len) when `k` is small.
pub fn top_k(mut scored: Vec<(usize, f64)>, k: usize) -> Vec<(usize, f64)> {
    let best_first = |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if k < scored.len() {
        scored.select_nth_unstable_by(k, best_first);
        scored.truncate(k);
    }
    scored.sort_unstable_by(best_first);
    scored
}

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
