//! The autodiff tape and the allocating `Matrix::matmul`/`matmul_t` compute
//! at the Exact tier even when the process-global policy is Fast.
//!
//! `ExecPolicy::global()` reads its tier from `STRUCTMINE_PRECISION` once, on
//! first use, and `--precision fast` exports that variable. If the tape
//! followed the global tier, a Fast run would train on Fast kernels and
//! write tier-free checkpoints that an Exact run later reads. This file is
//! its own test binary, so it can set the variable before anything in the
//! process resolves the global policy.
//!
//! The inputs put a `0.0` in `a` against an `inf` in `b`: the Exact kernel
//! skips zero left-hand terms and stays finite, while the branch-free Fast
//! kernel computes `0 * inf = NaN`, so the two tiers cannot agree by chance.

use structmine_linalg::{ExecPolicy, Matrix, Precision, Rhs};
use structmine_nn::graph::Graph;

/// `rows x 4` with a zero in column 0 of every row.
fn left(rows: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        4,
        (0..rows * 4)
            .map(|i| if i % 4 == 0 { 0.0 } else { i as f32 * 0.25 })
            .collect(),
    )
}

/// `4 x 5` with `inf` across row 0, facing the zeros of [`left`].
fn right() -> Matrix {
    Matrix::from_vec(
        4,
        5,
        (0..20)
            .map(|i| if i < 5 { f32::INFINITY } else { i as f32 - 9.5 })
            .collect(),
    )
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fast_global_policy_never_reaches_the_tape_or_allocating_products() {
    std::env::set_var("STRUCTMINE_PRECISION", "fast");
    assert_eq!(ExecPolicy::global().precision(), Precision::Fast);

    let b = right();
    let bt = b.transpose();
    let exact = ExecPolicy::serial();
    let fast = exact.with_precision(Precision::Fast);
    // Both sides of the per-call pack threshold.
    for rows in [3, 9] {
        let a = left(rows);
        let gemm = |rhs: Rhs<'_>, policy: &ExecPolicy| {
            let mut out = Matrix::zeros(rows, 5);
            a.gemm(rhs, &mut out, policy);
            out
        };
        let want = gemm(Rhs::Dense(&b), &exact);
        assert!(want.data().iter().all(|v| !v.is_nan()));
        assert!(
            gemm(Rhs::Dense(&b), &fast)
                .data()
                .iter()
                .any(|v| v.is_nan()),
            "the inputs must tell the tiers apart"
        );

        assert_eq!(bits(&a.matmul(&b)), bits(&want), "Matrix::matmul");
        assert_eq!(bits(&a.matmul_t(&bt)), bits(&want), "Matrix::matmul_t");

        let mut g = Graph::new();
        let (na, nb, nbt) = (g.leaf(a.clone()), g.leaf(b.clone()), g.leaf(bt.clone()));
        let mm = g.matmul(na, nb);
        let mmt = g.matmul_t(na, nbt);
        assert_eq!(bits(g.value(mm)), bits(&want), "Graph::matmul");
        assert_eq!(bits(g.value(mmt)), bits(&want), "Graph::matmul_t");
    }
}
