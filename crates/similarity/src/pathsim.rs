//! PathSim and the competing meta-path measures (Sun et al., reference \[6\]
//! of the tutorial; tutorial §7(b) "top-k similarity search in
//! heterogeneous information networks").
//!
//! Given the commuting matrix `M` of a *symmetric* meta-path,
//! `PathSim(x, y) = 2·M[x,y] / (M[x,x] + M[y,y])` — a peer measure that
//! normalizes away the hub advantage that raw path counts and random-walk
//! measures give to high-visibility objects.
//!
//! **Refusing below the floor without dividing.** A top-`k` row scan
//! ([`PathSimTopK`], behind both `top_k_pathsim` entry points and the query
//! engine's lazy rows) refuses almost every candidate: once `k` are kept, a
//! candidate must beat the worst of them, the *floor*. While the floor is a
//! positive normal number, a candidate is refused with one multiply when
//! `2·M[x,y] ≤ b·d`, where `d = M[x,x] + M[y,y]` is the very sum the score
//! divides by, `b = floor·(1 − 2⁻⁴⁰)` is recomputed only when the floor
//! moves, and `b·d` is itself normal. The rule is exact. `b` and `b·d` are
//! each rounded by at most 2⁻⁵³ relative and doubling is exact, so for
//! `d > 0` the real quotient `2·M[x,y] / d` is below `floor·(1 − 2⁻⁴¹)`,
//! whose rounding is strictly below the floor; for `d ≤ 0` the score is 0,
//! below a positive floor. Either way the division would have been refused
//! too. Every other candidate — a floor that is zero, negative, subnormal
//! or not finite, a product that overflows or underflows, a NaN — is
//! divided and offered as before, so answers are the same bit for bit.

use std::cmp::Ordering;

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
    let (idx, vals) = m.row(x);
    let mut top = PathSimTopK::new(k, idx.len(), self_count(x));
    let mut row = idx.iter().zip(vals);
    loop {
        // Refused candidates stream by under a copy of the floor's test,
        // which stays in registers: no call, no store, no test for the
        // anchor. The anchor itself, if not refused, is skipped here.
        let refusal = top.refusal;
        let next = row.find_map(|(&y, &mxy)| {
            let y = y as usize;
            let myy = self_count(y);
            (!refusal.refuses(mxy, myy)).then_some((y, mxy, myy))
        });
        let Some((y, mxy, myy)) = next else {
            break;
        };
        if y != x {
            top.offer(y, mxy, myy);
        }
    }
    top.into_sorted()
}

/// `1 − 2⁻⁴⁰`: the factor between the floor and the refusal bound `b`.
const REFUSAL_MARGIN: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// The top-`k` PathSim candidates of one anchor `x`, offered as raw counts
/// `M[x,y]` and `M[y,y]`. A candidate the floor refuses with one multiply
/// is never divided (the module doc states the rule and why it is exact);
/// every other one is scored as [`pathsim_pair`] scores it and offered to a
/// [`TopK`], whose answer this is, bit for bit.
#[derive(Debug)]
pub struct PathSimTopK {
    top: TopK,
    refusal: Refusal,
}

/// The multiply test of one floor, small enough to copy into a row scan.
#[derive(Clone, Copy, Debug)]
struct Refusal {
    /// The anchor's self-count `M[x,x]`.
    mxx: f64,
    /// `b = floor·(1 − 2⁻⁴⁰)` while the floor is a positive normal number;
    /// NaN, which refuses nothing, otherwise.
    bound: f64,
}

impl Refusal {
    /// Whether `2·M[x,y] ≤ b·d` with `b·d` normal: the score is then below
    /// the floor, and dividing is not needed to know it.
    #[inline]
    fn refuses(self, mxy: f64, myy: f64) -> bool {
        let bd = self.bound * (self.mxx + myy);
        bd.is_normal() & (2.0 * mxy <= bd)
    }
}

impl PathSimTopK {
    /// A selector for the best `k` of at most `len` candidates of an anchor
    /// whose self-count is `mxx`.
    pub fn new(k: usize, len: usize, mxx: f64) -> Self {
        Self {
            top: TopK::new(k, len),
            refusal: Refusal {
                mxx,
                bound: f64::NAN,
            },
        }
    }

    /// Offer candidate `y`, with `M[x,y] = mxy` and `M[y,y] = myy`. Ids
    /// must be unique across pushes.
    #[inline]
    pub fn push(&mut self, y: usize, mxy: f64, myy: f64) {
        if !self.refusal.refuses(mxy, myy) {
            self.offer(y, mxy, myy);
        }
    }

    /// Score a candidate the floor did not refuse and offer it; move `b`
    /// when the floor moves.
    fn offer(&mut self, y: usize, mxy: f64, myy: f64) {
        if self.top.offer(y, pathsim_score(mxy, self.refusal.mxx, myy)) {
            self.refusal.bound = match self.top.floor_score() {
                Some(floor) if floor.is_normal() && floor > 0.0 => floor * REFUSAL_MARGIN,
                _ => f64::NAN,
            };
        }
    }

    /// The best `k` candidates pushed, best first.
    pub fn into_sorted(self) -> Vec<(usize, f64)> {
        self.top.into_sorted()
    }
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

/// [`f64::total_cmp`]'s order as one integer: `order_key(a).cmp(&order_key(b))`
/// is `a.total_cmp(&b)`.
#[inline]
fn order_key(score: f64) -> i64 {
    let bits = score.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A streaming top-`k` selector: `(id, score)` candidates are pushed while
/// a row is scanned, and only the best `k` of them are ever held, so
/// ranking a row allocates for `k` candidates, not for the row. The order
/// is [`top_k`]'s, and so is the answer, bit for bit.
///
/// `len` announced at construction is how many candidates the caller
/// expects to push, at most, and it fixes the mode once. When `k >= len`
/// nothing can be cut: every candidate is collected and sorted once at the
/// end. Otherwise the first `k` are sorted once, and from then on the worst
/// of them is the *floor*, cached as its [`f64::total_cmp`] key (an `i64`)
/// and its id. A candidate whose key is below the floor's is refused with
/// one integer compare and never touches the kept set; at the floor's own
/// key the larger id ranks later, so it is refused too. That is exact: a
/// refused candidate ranks after all `k` kept. A candidate that beats the
/// floor takes its place and moves up past the kept ones it beats.
/// Pushing more than `len` candidates is allowed: the answer still holds
/// `k`.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    /// Every candidate pushed until the selector is full; from then on the
    /// best `k`, sorted best first, so the last is the floor.
    kept: Vec<(usize, f64)>,
    /// How many candidates fill the selector: `k` when it cuts, never
    /// (`usize::MAX`) when it collects.
    fill: usize,
    /// The floor's [`order_key`] once full; `i64::MIN` before, which
    /// refuses nothing.
    floor: i64,
    /// The floor's id once full; `usize::MAX` before.
    floor_id: usize,
}

impl TopK {
    /// A selector for the best `k` of at most `len` candidates.
    pub fn new(k: usize, len: usize) -> Self {
        Self {
            k,
            kept: Vec::with_capacity(k.min(len)),
            fill: if k < len { k } else { usize::MAX },
            floor: i64::MIN,
            floor_id: usize::MAX,
        }
    }

    /// Offer one candidate. Ids must be unique across pushes.
    #[inline]
    pub fn push(&mut self, id: usize, score: f64) {
        self.offer(id, score);
    }

    /// [`TopK::push`], reporting whether the candidate was kept — the only
    /// way the floor moves.
    #[inline]
    fn offer(&mut self, id: usize, score: f64) -> bool {
        let key = order_key(score);
        if key < self.floor || (key == self.floor && id > self.floor_id) {
            return false;
        }
        self.admit(id, score)
    }

    /// Keep a candidate the floor did not refuse: appended while the
    /// selector fills, and once it is full, in place of the floor.
    fn admit(&mut self, id: usize, score: f64) -> bool {
        if self.kept.len() < self.fill {
            self.kept.push((id, score));
            if self.kept.len() == self.fill {
                self.kept.sort_unstable_by(best_first);
                self.set_floor();
            }
            return true;
        }
        if self.k == 0 {
            return false;
        }
        // the floor leaves; the candidate moves up from the bottom slot,
        // where one that has just beaten the floor usually stays
        let candidate = (id, score);
        let mut pos = self.k - 1;
        while pos > 0 && best_first(&candidate, &self.kept[pos - 1]).is_lt() {
            self.kept[pos] = self.kept[pos - 1];
            pos -= 1;
        }
        self.kept[pos] = candidate;
        self.set_floor();
        true
    }

    /// Cache the last kept candidate, the worst, as the floor.
    fn set_floor(&mut self) {
        let &(id, score) = self.kept.last().expect("a full selector keeps k ≥ 1");
        self.floor = order_key(score);
        self.floor_id = id;
    }

    /// The floor's score once the selector is full; `None` before, and
    /// always when it collects.
    fn floor_score(&self) -> Option<f64> {
        match self.kept.last() {
            Some(&(_, score)) if self.kept.len() == self.fill => Some(score),
            _ => None,
        }
    }

    /// The best `k` candidates pushed, best first.
    pub fn into_sorted(mut self) -> Vec<(usize, f64)> {
        self.kept.sort_unstable_by(best_first);
        self.kept.truncate(self.k);
        self.kept
    }
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

    /// Scores `total_cmp` and `partial_cmp` disagree on, ties, and the
    /// extremes of every class.
    const SCORES: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        1.0,
        0.5,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MAX,
    ];

    proptest::proptest! {
        /// After every push, the cached floor is the worst candidate kept —
        /// the `k`-th of everything pushed so far, key and id — once `k`
        /// are in and the selector cuts; before that, and whenever it
        /// collects, it refuses nothing. Ids arrive out of order, so a tie
        /// at the floor comes with a smaller id as often as a larger one.
        #[test]
        fn the_cached_floor_is_the_worst_candidate_kept(
            draws in proptest::prop::collection::vec(0usize..SCORES.len(), 0..80),
            k in 0usize..12,
            salt in 0usize..101,
        ) {
            for (a, b) in SCORES.iter().zip(SCORES.iter().rev()) {
                proptest::prop_assert_eq!(order_key(*a).cmp(&order_key(*b)), a.total_cmp(b));
            }
            let len = draws.len();
            for announced in [len, len / 2, len + 1] {
                let mut top = TopK::new(k, announced);
                let mut pushed = Vec::new();
                for (i, &s) in draws.iter().enumerate() {
                    // 37 is a unit mod 101: unique ids in scrambled order
                    let (id, score) = ((i * 37 + salt) % 101, SCORES[s]);
                    top.push(id, score);
                    pushed.push((id, score));
                    pushed.sort_by(best_first);
                    if k > 0 && k < announced && pushed.len() >= k {
                        let (id, score) = pushed[k - 1];
                        proptest::prop_assert_eq!((top.floor, top.floor_id), (order_key(score), id));
                        proptest::prop_assert_eq!(
                            top.floor_score().map(f64::to_bits),
                            Some(score.to_bits())
                        );
                        proptest::prop_assert_eq!(top.kept.len(), k);
                    } else {
                        proptest::prop_assert_eq!((top.floor, top.floor_id), (i64::MIN, usize::MAX));
                        proptest::prop_assert_eq!(top.floor_score(), None);
                    }
                }
            }
        }
    }
}
