//! The GEMM microkernels are bitwise equal to naive loops written in the
//! same per-element operation order, through the public API.
//!
//! The register-blocked kernels promise more than closeness: every output
//! element sees exactly the scalar sequence of the simple schedule, so the
//! result is independent of tile shape, SIMD width and lane count. Each case
//! below checks that promise bit for bit:
//!
//! * NN (`matmul_into`) and TA (`gemm_grouped_transpose_a`) accumulate into
//!   a pre-filled C in ascending k, skipping every step whose A element is
//!   `0.0` or `-0.0`; `matmul_transpose_a` is TA into a fresh zero C;
//! * NT (`matmul_transpose_b_into`) overwrites C with a dot product summed as
//!   the `k % 8` tail elements first, then 8 position-determined lanes.
//!
//! The zero-skip is pinned two ways: B holds `inf`/`NaN` exactly where A is
//! zero (a kernel that multiplied through would write `NaN`), and C starts at
//! `-0.0` on rows whose A is all zero (adding `0 * b` would flip it to `+0`).

use xmoe::tensor::{
    gemm_grouped_transpose_a, matmul_into, matmul_transpose_a, matmul_transpose_b_into, DetRng,
    Tensor,
};

const ROWS: [usize; 5] = [1, 3, 4, 5, 7];
const COLS: [usize; 7] = [1, 7, 8, 15, 16, 17, 88];
const DEPTHS: [usize; 6] = [0, 1, 7, 8, 9, 129];
/// Shapes above the pool's parallel cutoff, so the row-partitioned path runs
/// too: `(rows, n, k)` with uneven row splits.
const LARGE: [(usize, usize, usize); 2] = [(131, 88, 129), (37, 97, 300)];

/// Zero pattern shared by the fixtures: a whole "dead" reduction index every
/// 5th step, an all-zero row 1, and scattered signed zeros elsewhere.
fn is_dead_k(kk: usize) -> bool {
    kk % 5 == 2
}

fn a_value(rng: &mut DetRng, row: usize, kk: usize) -> f32 {
    if is_dead_k(kk) || row == 1 {
        if (row + kk).is_multiple_of(2) {
            0.0
        } else {
            -0.0
        }
    } else if rng.next_below(7) == 0 {
        if rng.next_below(2) == 0 {
            0.0
        } else {
            -0.0
        }
    } else {
        rng.next_f32() * 2.0 - 1.0
    }
}

/// B (or D) value at reduction index `kk`: non-finite on dead indices.
fn b_value(rng: &mut DetRng, kk: usize, j: usize) -> f32 {
    if is_dead_k(kk) {
        [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3]
    } else {
        rng.next_f32() * 2.0 - 1.0
    }
}

/// Pre-filled C: `-0.0` on A's all-zero row 1, random elsewhere.
fn c_prefill(rng: &mut DetRng, rows: usize, n: usize) -> Tensor {
    Tensor::from_fn(
        rows,
        n,
        |i, _| {
            if i == 1 {
                -0.0
            } else {
                rng.next_f32() - 0.5
            }
        },
    )
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {idx} is {g:e}, reference {w:e}"
        );
    }
}

fn assert_finite(c: &[f32], what: &str) {
    assert!(
        c.iter().all(|v| v.is_finite()),
        "{what}: a zero A element was multiplied into an inf/NaN B element"
    );
}

/// `C += A @ B` in i-k-j order with the zero-skip.
fn ref_nn(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let ((m, k), n) = (a.shape(), b.cols());
    for i in 0..m {
        for kk in 0..k {
            let aik = a.get(i, kk);
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                c.set(i, j, c.get(i, j) + aik * b.get(kk, j));
            }
        }
    }
}

/// `C += A^T @ D`, i.e. the NN reference over the materialised transpose.
fn ref_ta(a: &Tensor, d: &Tensor, c: &mut Tensor) {
    ref_nn(&a.transpose(), d, c);
}

/// `C = A @ B^T`: tail elements first, then 8 lanes, then the lanes in order.
fn ref_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let ((m, k), n) = (a.shape(), b.rows());
    let main = k - k % 8;
    Tensor::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for kk in main..k {
            acc += a.get(i, kk) * b.get(j, kk);
        }
        let mut lanes = [0.0f32; 8];
        for kk in 0..main {
            lanes[kk % 8] += a.get(i, kk) * b.get(j, kk);
        }
        for lane in lanes {
            acc += lane;
        }
        acc
    })
}

fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
    ROWS.into_iter()
        .flat_map(|m| COLS.into_iter().map(move |n| (m, n)))
        .flat_map(|(m, n)| DEPTHS.into_iter().map(move |k| (m, n, k)))
        .chain(LARGE)
}

#[test]
fn nn_matches_reference_bitwise() {
    let mut rng = DetRng::new(11);
    for (m, n, k) in shapes() {
        let a = Tensor::from_fn(m, k, |i, kk| a_value(&mut rng, i, kk));
        let b = Tensor::from_fn(k, n, |kk, j| b_value(&mut rng, kk, j));
        let mut want = c_prefill(&mut rng, m, n);
        let mut got = want.clone();
        ref_nn(&a, &b, &mut want);
        matmul_into(&a, &b, &mut got);
        let what = format!("NN m={m} n={n} k={k}");
        assert_finite(got.as_slice(), &what);
        assert_bits_eq(got.as_slice(), want.as_slice(), &what);
    }
}

#[test]
fn ta_matches_reference_bitwise() {
    let mut rng = DetRng::new(12);
    // Here `m` is C's row count (A's columns) and `k` the shared row count.
    for (m, n, k) in shapes() {
        let a = Tensor::from_fn(k, m, |kk, i| a_value(&mut rng, i, kk));
        let d = Tensor::from_fn(k, n, |kk, j| b_value(&mut rng, kk, j));
        let prefill = c_prefill(&mut rng, m, n);
        let mut want = prefill.clone();
        ref_ta(&a, &d, &mut want);
        let what = format!("TA m={m} n={n} k={k}");

        let mut got = prefill.as_slice().to_vec();
        gemm_grouped_transpose_a(a.as_slice(), &[k], m, d.as_slice(), n, &mut got);
        assert_finite(&got, &what);
        assert_bits_eq(&got, want.as_slice(), &what);

        let mut fresh = Tensor::zeros(m, n);
        ref_ta(&a, &d, &mut fresh);
        assert_bits_eq(
            matmul_transpose_a(&a, &d).as_slice(),
            fresh.as_slice(),
            &format!("matmul_transpose_a {what}"),
        );
    }
}

#[test]
fn nt_matches_reference_bitwise() {
    let mut rng = DetRng::new(13);
    for (m, n, k) in shapes() {
        // NT has no zero-skip, so its operands stay finite; the signed zeros
        // of A still pass through the products.
        let a = Tensor::from_fn(m, k, |i, kk| a_value(&mut rng, i, kk));
        let b = Tensor::from_fn(n, k, |_, _| rng.next_f32() * 2.0 - 1.0);
        let want = ref_nt(&a, &b);
        let mut got = c_prefill(&mut rng, m, n);
        matmul_transpose_b_into(&a, &b, &mut got);
        assert_bits_eq(
            got.as_slice(),
            want.as_slice(),
            &format!("NT m={m} n={n} k={k}"),
        );
    }
}
