//! Property tests for the linear-algebra kernels.

use proptest::prelude::*;

use hin_linalg::eigen::jacobi_eigen;
use hin_linalg::solve::solve_linear;
use hin_linalg::vector::dot;
use hin_linalg::{Csr, DMat};

fn triplets(n: usize, max: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..n as u32, 0..n as u32, -10.0f64..10.0), 0..max)
}

fn rect_triplets(nr: usize, nc: usize, max: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..nr as u32, 0..nc as u32, -10.0f64..10.0), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_get_matches_triplet_sum(ts in triplets(6, 20)) {
        let m = Csr::from_triplets(6, 6, ts.clone());
        // accumulate expected values
        let mut expect = std::collections::HashMap::new();
        for (r, c, v) in ts {
            *expect.entry((r, c)).or_insert(0.0) += v;
        }
        for ((r, c), v) in expect {
            prop_assert!((m.get(r as usize, c as usize) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_transpose_is_involution(ts in triplets(7, 30)) {
        let m = Csr::from_triplets(7, 7, ts);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_is_linear(ts in triplets(5, 15),
                        x in prop::collection::vec(-5.0f64..5.0, 5),
                        y in prop::collection::vec(-5.0f64..5.0, 5),
                        a in -3.0f64..3.0) {
        let m = Csr::from_triplets(5, 5, ts);
        // M(ax + y) == a·Mx + My
        let axy: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
        let lhs = m.matvec(&axy);
        let mx = m.matvec(&x);
        let my = m.matvec(&y);
        for i in 0..5 {
            prop_assert!((lhs[i] - (a * mx[i] + my[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn matvec_t_equals_transpose_matvec(ts in triplets(6, 25),
                                        x in prop::collection::vec(-5.0f64..5.0, 6)) {
        let m = Csr::from_triplets(6, 6, ts);
        let a = m.matvec_t(&x);
        let b = m.transpose().matvec(&x);
        for i in 0..6 {
            prop_assert!((a[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn spgemm_associates_with_dense(ts1 in triplets(5, 12), ts2 in triplets(5, 12)) {
        let a = Csr::from_triplets(5, 5, ts1);
        let b = Csr::from_triplets(5, 5, ts2);
        let sparse = a.spgemm(&b).to_dense();
        let dense = a.to_dense().matmul(&b.to_dense());
        prop_assert!(sparse.max_abs_diff(&dense) < 1e-9);
    }

    #[test]
    fn jacobi_reconstructs_symmetric(vals in prop::collection::vec(-5.0f64..5.0, 10)) {
        // build a 4x4 symmetric matrix from 10 free entries
        let mut m = DMat::zeros(4, 4);
        let mut it = vals.into_iter();
        for r in 0..4 {
            for c in r..4 {
                let v = it.next().expect("10 entries");
                m.set(r, c, v);
                m.set(c, r, v);
            }
        }
        let e = jacobi_eigen(&m, 1e-13, 100);
        // eigenvalue sum = trace
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - m.trace()).abs() < 1e-7);
        // eigenvectors orthonormal
        for i in 0..4 {
            for j in 0..4 {
                let d = dot(&e.vectors.col(i), &e.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - expect).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn solve_linear_residual(vals in prop::collection::vec(-3.0f64..3.0, 9),
                             b in prop::collection::vec(-3.0f64..3.0, 3)) {
        let mut m = DMat::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                m.set(r, c, vals[r * 3 + c]);
            }
            m.add_to(r, r, 6.0); // diagonal dominance → nonsingular
        }
        let x = solve_linear(&m, &b).expect("dominant");
        let res = m.matvec(&x);
        for i in 0..3 {
            prop_assert!((res[i] - b[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn arena_views_are_content_equal_and_kernel_transparent(ts in triplets(8, 30)) {
        use hin_linalg::{ArenaBuf, ArenaEntry};
        use std::sync::Arc;

        let m = Csr::from_triplets(8, 8, ts);
        // hand-build the arena layout: [indptr u64s | data f64 bits | indices u32s]
        let (indptr, indices, data) = m.parts();
        let mut bytes = Vec::new();
        for &p in indptr {
            bytes.extend_from_slice(&(p as u64).to_le_bytes());
        }
        let data_off = bytes.len();
        for &v in data {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let indices_off = bytes.len();
        for &c in indices {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        let entry = ArenaEntry {
            nrows: 8,
            ncols: 8,
            nnz: m.nnz(),
            indptr_off: 0,
            indices_off,
            data_off,
        };
        let buf = Arc::new(ArenaBuf::from_bytes(&bytes));
        let (view, _) = Csr::from_arena(&buf, entry).expect("valid layout mounts");
        prop_assert_eq!(&view, &m, "views compare equal to owned by content");
        // kernels must not see the backing: same product either way
        prop_assert_eq!(view.spgemm(&view.transpose()), m.spgemm(&m.transpose()));

        // hostile mutations of the entry are typed errors, never panics
        for bad in [
            ArenaEntry { indptr_off: 4, ..entry },             // misaligned
            ArenaEntry { nnz: entry.nnz + 1, ..entry },        // arrays overrun
            ArenaEntry { nrows: usize::MAX, ..entry },         // length overflow
            ArenaEntry { data_off: bytes.len(), ..entry },     // out of bounds
            ArenaEntry { indices_off: 0, ..entry },            // aliases indptr: cols unsorted unless empty
        ] {
            if let Ok((v, _)) = Csr::from_arena(&buf, bad) {
                // an accepted alias must still satisfy every CSR invariant
                prop_assert!(v.nnz() == 0 || v.parts().0.len() == v.nrows() + 1);
            }
        }
    }

    #[test]
    fn parallel_spgemm_is_bit_identical_to_serial(ts1 in rect_triplets(9, 7, 40),
                                                  ts2 in rect_triplets(7, 8, 40)) {
        let a = Csr::from_triplets(9, 7, ts1);
        let b = Csr::from_triplets(7, 8, ts2);
        let serial = a.spgemm(&b);
        let (si, sj, sv) = serial.parts();
        for threads in [1usize, 2, 4] {
            let par = a.spgemm_parallel(&b, threads);
            let (pi, pj, pv) = par.parts();
            prop_assert_eq!(pi, si, "indptr differs at {} threads", threads);
            prop_assert_eq!(pj, sj, "indices differ at {} threads", threads);
            for (x, y) in sv.iter().zip(pv) {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                                "value bits differ at {} threads", threads);
            }
        }
    }

    #[test]
    fn parallel_spmm_chain_is_bit_identical_to_serial(ts1 in rect_triplets(8, 6, 30),
                                                      ts2 in rect_triplets(6, 7, 30),
                                                      ts3 in rect_triplets(7, 5, 30)) {
        use hin_linalg::{spmm_chain, spmm_chain_parallel};
        let a = Csr::from_triplets(8, 6, ts1);
        let b = Csr::from_triplets(6, 7, ts2);
        let c = Csr::from_triplets(7, 5, ts3);
        let mats = [&a, &b, &c];
        let serial = spmm_chain(&mats);
        let (si, sj, sv) = serial.parts();
        for threads in [1usize, 2, 4] {
            let par = spmm_chain_parallel(&mats, threads);
            let (pi, pj, pv) = par.parts();
            prop_assert_eq!(pi, si, "indptr differs at {} threads", threads);
            prop_assert_eq!(pj, sj, "indices differ at {} threads", threads);
            for (x, y) in sv.iter().zip(pv) {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                                "value bits differ at {} threads", threads);
            }
        }
    }

    #[test]
    fn parallel_block_chain_is_bit_identical_to_serial(ts1 in rect_triplets(8, 6, 30),
                                                       ts2 in rect_triplets(6, 7, 30),
                                                       ts3 in rect_triplets(7, 5, 30),
                                                       anchors in prop::collection::vec(0usize..8, 1..7)) {
        use hin_linalg::{spvm_chain, spvm_chain_rows, ScatterScratch, SparseVec};
        let a = Csr::from_triplets(8, 6, ts1);
        let b = Csr::from_triplets(6, 7, ts2);
        let c = Csr::from_triplets(7, 5, ts3);
        // one scratch across every batch: a row must not see its neighbours
        let mut scratch = ScatterScratch::new();
        for threads in [1usize, 2, 4] {
            let rows = spvm_chain_rows(&a, &anchors, &[&b, &c], threads, &mut scratch);
            prop_assert_eq!(rows.len(), anchors.len(), "row count at {} threads", threads);
            for (row, &x) in rows.iter().zip(&anchors) {
                let single = spvm_chain(&SparseVec::unit(8, x), &[&a, &b, &c]);
                prop_assert_eq!(row.indices(), single.indices(),
                                "anchor {} indices at {} threads", x, threads);
                for (g, w) in row.values().iter().zip(single.values()) {
                    prop_assert_eq!(g.to_bits(), w.to_bits(),
                                    "anchor {} value bits at {} threads", x, threads);
                }
            }
        }
    }

    #[test]
    fn row_normalized_preserves_sparsity(ts in triplets(6, 20)) {
        let m = Csr::from_triplets(6, 6, ts);
        let n = m.row_normalized();
        prop_assert_eq!(m.nnz(), n.nnz());
        for r in 0..6 {
            prop_assert_eq!(m.row_indices(r), n.row_indices(r));
        }
    }
}
