//! Dense tensor operations: register-blocked multi-threaded GEMM,
//! activations and the row-wise reductions used by MoE gating.

use crate::par::GemmKind;
use crate::Tensor;

/// `C = A @ B` where `A` is `[m, k]` and `B` is `[k, n]`.
///
/// Rows of `C` are partitioned across the persistent worker pool
/// ([`crate::par`]); each lane runs the register-blocked NN microkernel
/// (4 x 16 accumulator tiles, see [`gemm_rows_offset`]) selected at runtime
/// for the widest SIMD the CPU supports. Every instance performs the same
/// per-element operation sequence, so the result does not depend on the ISA
/// or the lane count.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// `C += A @ B` accumulating into an existing output buffer.
///
/// `C` must already have shape `[a.rows, b.cols]`. Accumulation (rather than
/// overwrite) is what the training backward passes need; callers wanting a
/// fresh product should pass a zeroed `C` (as [`matmul`] does).
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "matmul inner-dim mismatch: A is {}x{}, B is {}x{}",
        m, k, kb, n
    );
    assert_eq!(c.shape(), (m, n), "matmul output shape mismatch");
    matmul_slices(a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
}

/// Slice-level [`matmul_into`]: `C += A @ B` where `a` is `m*k` row-major,
/// `b` is `k*n` and `c` is `m*n`. Taking raw slices lets pooled pipelines run
/// segment GEMMs directly on sub-ranges of persistent workspace buffers —
/// e.g. one expert's rows of a dispatch buffer into the matching rows of an
/// activation buffer — without materializing per-segment tensors. Each output
/// row is computed independently in the same k-order as [`matmul_into`], so
/// results are bitwise identical to the tensor-level call.
pub fn matmul_slices(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_slices: A length mismatch");
    assert_eq!(b.len(), k * n, "matmul_slices: B length mismatch");
    assert_eq!(c.len(), m * n, "matmul_slices: C length mismatch");
    if m == 0 || n == 0 {
        return;
    }

    if !crate::par::pool().is_parallel() || m * n * k < crate::par::PAR_CUTOFF {
        gemm_rows_offset(a, b, c, 0, m, k, n);
        return;
    }
    crate::par::par_gemm_rows(a, m, k, b, n, c, GemmKind::Nn);
}

/// `C = A @ B^T` where `A` is `[m, k]` and `B` is `[n, k]`.
///
/// Used by backward passes (`dX = dY @ W^T`). Because both operands are
/// row-major, `C[i][j]` is a dot product of two *contiguous* rows — no
/// transpose is ever needed. Rows of C are partitioned across the worker
/// pool (like [`matmul_into`]); each lane computes 2 x 4 tiles of dot
/// products so every loaded A and B chunk feeds several outputs. This
/// replaced an implementation that materialised a fresh `B^T` allocation on
/// every backward GEMM of every step (see the `bench gemm` table in
/// DESIGN.md).
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(a.rows(), b.rows());
    matmul_transpose_b_into(a, b, &mut c);
    c
}

/// `C = A @ B^T` written (overwritten, not accumulated) into an existing
/// `[m, n]` output — the workspace-pooled form of [`matmul_transpose_b`].
pub fn matmul_transpose_b_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "matmul_transpose_b inner-dim mismatch");
    assert_eq!(
        c.shape(),
        (m, n),
        "matmul_transpose_b output shape mismatch"
    );
    matmul_transpose_b_slices(a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
}

/// Slice-level [`matmul_transpose_b_into`]: `C = A @ B^T` on raw row-major
/// slices (`a` is `m*k`, `b` is `n*k`, `c` is `m*n`, overwritten). Like
/// [`matmul_slices`], this lets pooled backward passes run segment GEMMs on
/// sub-ranges of workspace buffers; each output element is an independent
/// dot product, so results are bitwise identical to the tensor-level call.
pub fn matmul_transpose_b_slices(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
) {
    assert_eq!(
        a.len(),
        m * k,
        "matmul_transpose_b_slices: A length mismatch"
    );
    assert_eq!(
        b.len(),
        n * k,
        "matmul_transpose_b_slices: B length mismatch"
    );
    assert_eq!(
        c.len(),
        m * n,
        "matmul_transpose_b_slices: C length mismatch"
    );
    if m == 0 || n == 0 || k == 0 {
        c.fill(0.0);
        return;
    }
    if !crate::par::pool().is_parallel() || m * n * k < crate::par::PAR_CUTOFF {
        gemm_tb_rows(a, b, c, 0, m, k, n);
        return;
    }
    crate::par::par_gemm_rows(a, m, k, b, n, c, GemmKind::Nt);
}

/// `C = A^T @ D` where `A` is `[r, m]` and `D` is `[r, n]`, without
/// materialising `A^T`.
///
/// This is the weight-gradient shape of every dense layer (`dW = X^T @ dY`).
/// The result is bitwise identical to `matmul(&a.transpose(), d)`: each
/// output element accumulates over the `r` rows in ascending order with the
/// same zero-skip as [`matmul`]. Rows of C are partitioned across the worker
/// pool like [`matmul_into`].
pub fn matmul_transpose_a(a: &Tensor, d: &Tensor) -> Tensor {
    let (r, m) = a.shape();
    let (rd, n) = d.shape();
    assert_eq!(r, rd, "matmul_transpose_a row-count mismatch");
    let mut c = Tensor::zeros(m, n);
    if m == 0 || n == 0 {
        return c;
    }
    let (a, d, cs) = (a.as_slice(), d.as_slice(), c.as_mut_slice());
    if !crate::par::pool().is_parallel() || m * n * r < crate::par::PAR_CUTOFF {
        gemm_ta_rows(a, d, cs, 0, m, r, m, n);
    } else {
        crate::par::par_gemm_rows(a, m, r, d, n, cs, GemmKind::Ta);
    }
    c
}

// ---------------------------------------------------------------------------
// GEMM microkernels
// ---------------------------------------------------------------------------
//
// Each microkernel is one `#[inline(always)]` portable body instantiated
// twice by `runtime_dispatched!`: as compiled for the crate's baseline
// target, and (on x86-64) under `#[target_feature(enable = "avx2")]`. The
// dispatcher picks the AVX2 instance per call when the CPU has it. Both
// instances run the same scalar operation sequence per output element — a
// separate multiply then add (Rust never contracts them into an FMA), in the
// same k-order, with the same zero-skip — so they agree bitwise and only the
// register width the compiler vectorizes onto differs.

/// Rows of the NN/TA accumulator tile.
const SAXPY_ROWS: usize = 4;
/// k-block of the NN/TA kernels: a `SAXPY_KB x 16` panel of B stays in L1
/// while every row tile of the block streams past it.
const SAXPY_KB: usize = 256;
/// Partial-sum lanes of one NT dot product. Position-determined (element
/// `kk` of the 8-aligned prefix always lands in lane `kk % LANES`), so the
/// sum is bit-deterministic for a given `k`.
const LANES: usize = 8;

/// Defines `$name` to run the AVX2 instance of `$body` when the CPU supports
/// it and the portable instance otherwise, and `$avx2` as that AVX2 instance.
macro_rules! runtime_dispatched {
    ($(#[$doc:meta])* fn $name:ident / $avx2:ident => $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed
                // that the running CPU supports every instruction the AVX2
                // instance may use.
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }

        /// The AVX2 instance of the same body; callers must have confirmed
        /// AVX2 support with `is_x86_feature_detected!`.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        fn $avx2($($arg: $ty),*) {
            $body($($arg),*)
        }
    };
}

runtime_dispatched! {
    /// NN microkernel: `C += A @ B` for the `rows_here` rows of C starting at
    /// global row `r0`, where `c_chunk` is the slice for exactly those rows.
    ///
    /// Register-blocked as 4 x 16 accumulator tiles with 8- and 1-wide column
    /// tails and 1-row row tails. Every C element still sees ascending k with
    /// `c += a * b` per step, and rows whose `A[i][k]` is zero skip step `k`
    /// — the i-k-j saxpy's exact per-element sequence.
    fn gemm_rows_offset / gemm_rows_offset_avx2 => nn_body(
        a: &[f32],
        b: &[f32],
        c_chunk: &mut [f32],
        r0: usize,
        rows_here: usize,
        k: usize,
        n: usize,
    )
}

runtime_dispatched! {
    /// NT microkernel: `C = A @ B^T` (overwrite) for the `rows_here` rows of C
    /// starting at global row `r0`; `b` is `[n, k]`.
    ///
    /// Each dot product is split into `LANES` position-determined partial
    /// sums — a single accumulator is a strict-FP dependency chain that cannot
    /// vectorize — and is finished as: the `k % LANES` tail elements in
    /// order, then the lanes in order. Outputs are computed in 2 x 4 tiles
    /// (8 dot products, 8 lanes each) so every loaded chunk of A and B feeds
    /// several outputs.
    fn gemm_tb_rows / gemm_tb_rows_avx2 => nt_body(
        a: &[f32],
        b: &[f32],
        c_chunk: &mut [f32],
        r0: usize,
        rows_here: usize,
        k: usize,
        n: usize,
    )
}

runtime_dispatched! {
    /// TA microkernel: `C += A^T @ D` for the `rows_here` rows of C starting
    /// at row `i0`, where `a` is `[cnt, ac]`, `d` is `[cnt, n]` and `c_chunk`
    /// holds exactly those rows of the `[ac, n]` output. This is the
    /// weight-gradient shape (`dW = X^T @ dY`), computed without a transpose
    /// copy.
    ///
    /// It is the NN kernel reading A down columns instead of along rows:
    /// ascending reduction over the `cnt` rows per element with the same
    /// zero-skip, so results are bitwise identical to
    /// `matmul(&a.transpose(), d)`.
    fn gemm_ta_rows / gemm_ta_rows_avx2 => ta_body(
        a: &[f32],
        d: &[f32],
        c_chunk: &mut [f32],
        i0: usize,
        rows_here: usize,
        cnt: usize,
        ac: usize,
        n: usize,
    )
}

#[inline(always)]
fn nn_body(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, rows: usize, k: usize, n: usize) {
    let s = Saxpy {
        a: &a[r0 * k..(r0 + rows) * k],
        row_stride: k,
        k_stride: 1,
        b,
        n,
    };
    s.run(c, rows, k);
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn ta_body(
    a: &[f32],
    d: &[f32],
    c: &mut [f32],
    i0: usize,
    rows: usize,
    cnt: usize,
    ac: usize,
    n: usize,
) {
    assert_eq!(a.len(), cnt * ac, "gemm_ta_rows: A length mismatch");
    assert!(i0 + rows <= ac, "gemm_ta_rows: rows out of range");
    if cnt == 0 {
        return;
    }
    let s = Saxpy {
        a: &a[i0..],
        row_stride: 1,
        k_stride: ac,
        b: d,
        n,
    };
    s.run(c, rows, cnt);
}

/// The saxpy form shared by NN and TA: `C[i][j] += A(i, kk) * B[kk][j]` over
/// ascending `kk`, where `A(i, kk) = a[i * row_stride + kk * k_stride]` and
/// `b` is `[k, n]`. NN reads A along rows (`k_stride == 1`); TA reads it
/// down columns (`row_stride == 1`).
struct Saxpy<'a> {
    a: &'a [f32],
    row_stride: usize,
    k_stride: usize,
    b: &'a [f32],
    n: usize,
}

impl Saxpy<'_> {
    /// All of C (`rows x n`, accumulated into): k-blocks outermost so each
    /// element's k-order stays ascending, then 16-, 8- and 1-wide column
    /// panels, then row tiles.
    #[inline(always)]
    fn run(&self, c: &mut [f32], rows: usize, k: usize) {
        assert_eq!(c.len(), rows * self.n, "saxpy kernel: C length mismatch");
        for k0 in (0..k).step_by(SAXPY_KB) {
            let k1 = (k0 + SAXPY_KB).min(k);
            let mut j = 0;
            while j + 16 <= self.n {
                self.panel::<16>(c, rows, j, k0, k1);
                j += 16;
            }
            if j + 8 <= self.n {
                self.panel::<8>(c, rows, j, k0, k1);
                j += 8;
            }
            while j < self.n {
                self.panel::<1>(c, rows, j, k0, k1);
                j += 1;
            }
        }
    }

    /// Columns `j0..j0 + NR` of every row, over k-block `k0..k1`.
    #[inline(always)]
    fn panel<const NR: usize>(&self, c: &mut [f32], rows: usize, j0: usize, k0: usize, k1: usize) {
        let mut i = 0;
        while i + SAXPY_ROWS <= rows {
            self.tile::<SAXPY_ROWS, NR>(c, i, j0, k0, k1);
            i += SAXPY_ROWS;
        }
        while i < rows {
            self.tile::<1, NR>(c, i, j0, k0, k1);
            i += 1;
        }
    }

    /// One `MR x NR` tile of C held in registers across the k-block.
    #[inline(always)]
    fn tile<const MR: usize, const NR: usize>(
        &self,
        c: &mut [f32],
        i0: usize,
        j0: usize,
        k0: usize,
        k1: usize,
    ) {
        let n = self.n;
        let mut acc = [[0.0f32; NR]; MR];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&c[(i0 + r) * n + j0..][..NR]);
        }
        for kk in k0..k1 {
            let b_row: [f32; NR] = self.b[kk * n + j0..][..NR]
                .try_into()
                .expect("panel is NR wide");
            let av: [f32; MR] =
                std::array::from_fn(|r| self.a[(i0 + r) * self.row_stride + kk * self.k_stride]);
            for r in 0..MR {
                // The i-k-j schedule's skip, kept per row: it saves the
                // zero-padded rows of the block-sparse/dense pipelines, and
                // it keeps `0 * inf` out of C, which the bitwise tests pin.
                if av[r] == 0.0 {
                    continue;
                }
                for l in 0..NR {
                    acc[r][l] += av[r] * b_row[l];
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            c[(i0 + r) * n + j0..][..NR].copy_from_slice(acc_r);
        }
    }
}

#[inline(always)]
fn nt_body(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, rows: usize, k: usize, n: usize) {
    assert_eq!(c.len(), rows * n, "gemm_tb_rows: C length mismatch");
    let a = &a[r0 * k..(r0 + rows) * k];
    let b = &b[..n * k];
    let mut i = 0;
    while i + 2 <= rows {
        nt_rows::<2>(a, b, c, i, k, n);
        i += 2;
    }
    if i < rows {
        nt_rows::<1>(a, b, c, i, k, n);
    }
}

/// Rows `i0..i0 + MR` of C: 4-wide column tiles, then 1-wide.
#[inline(always)]
fn nt_rows<const MR: usize>(a: &[f32], b: &[f32], c: &mut [f32], i0: usize, k: usize, n: usize) {
    let mut j = 0;
    while j + 4 <= n {
        nt_tile::<MR, 4>(a, b, c, i0, j, k, n);
        j += 4;
    }
    while j < n {
        nt_tile::<MR, 1>(a, b, c, i0, j, k, n);
        j += 1;
    }
}

/// `MR x NR` dot products `C[i0 + r][j0 + q] = <A row i0 + r, B row j0 + q>`.
#[inline(always)]
fn nt_tile<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
) {
    let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
    let b_rows: [&[f32]; NR] = std::array::from_fn(|q| &b[(j0 + q) * k..][..k]);
    let main = k - k % LANES;
    let mut acc = [[0.0f32; NR]; MR];
    for kk in main..k {
        for (acc_r, a_row) in acc.iter_mut().zip(&a_rows) {
            for (cv, b_row) in acc_r.iter_mut().zip(&b_rows) {
                *cv += a_row[kk] * b_row[kk];
            }
        }
    }
    let mut lanes = [[[0.0f32; LANES]; NR]; MR];
    for chunk in 0..main / LANES {
        let k0 = chunk * LANES;
        let av: [[f32; LANES]; MR] =
            std::array::from_fn(|r| a_rows[r][k0..k0 + LANES].try_into().expect("LANES wide"));
        let bv: [[f32; LANES]; NR] =
            std::array::from_fn(|q| b_rows[q][k0..k0 + LANES].try_into().expect("LANES wide"));
        for r in 0..MR {
            for q in 0..NR {
                for l in 0..LANES {
                    lanes[r][q][l] += av[r][l] * bv[q][l];
                }
            }
        }
    }
    for (r, (acc_r, lanes_r)) in acc.iter_mut().zip(&lanes).enumerate() {
        for (q, (cv, lane)) in acc_r.iter_mut().zip(lanes_r).enumerate() {
            for &l in lane {
                *cv += l;
            }
            c[(i0 + r) * n + j0 + q] = *cv;
        }
    }
}

/// Numerically stable row-wise softmax, in place.
pub fn softmax_rows(t: &mut Tensor) {
    let cols = t.cols();
    if cols == 0 {
        return;
    }
    for r in 0..t.rows() {
        let row = t.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Per-row top-k: returns flat `(indices, values)`, each of length
/// `rows * k` with row `r`'s selections at `[r*k .. (r+1)*k]`, ordered by
/// descending value (ties broken by lower index, so results are
/// deterministic). The flat layout replaces the former `Vec<Vec<_>>` return,
/// which cost `2*rows` heap allocations per gating call.
pub fn topk_rows(t: &Tensor, k: usize) -> (Vec<usize>, Vec<f32>) {
    let mut idx_out = Vec::new();
    let mut val_out = Vec::new();
    let mut order = Vec::new();
    topk_rows_into(t, k, &mut idx_out, &mut val_out, &mut order);
    (idx_out, val_out)
}

/// [`topk_rows`] writing into caller-owned buffers (cleared first); `order`
/// is selection scratch. With warm buffers the call is allocation-free.
///
/// The selection comparator totally orders candidate indices (value
/// descending, then index ascending — no two candidates compare equal), so
/// the in-place unstable sort used here is deterministic and agrees bitwise
/// with a stable sort under the same comparator.
pub fn topk_rows_into(
    t: &Tensor,
    k: usize,
    idx_out: &mut Vec<usize>,
    val_out: &mut Vec<f32>,
    order: &mut Vec<usize>,
) {
    assert!(k <= t.cols(), "top-{} of only {} columns", k, t.cols());
    idx_out.clear();
    val_out.clear();
    for r in 0..t.rows() {
        let row = t.row(r);
        order.clear();
        order.extend(0..t.cols());
        // Partial selection: k is small (<= 16 in every paper config).
        order.select_nth_unstable_by(k.saturating_sub(1).min(t.cols() - 1), |&a, &b| {
            row[b].partial_cmp(&row[a]).unwrap().then(a.cmp(&b))
        });
        let top = &mut order[..k];
        top.sort_unstable_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap().then(a.cmp(&b)));
        idx_out.extend_from_slice(top);
        val_out.extend(top.iter().map(|&i| row[i]));
    }
}

/// SiLU (x * sigmoid(x)) applied in place — the expert activation used by
/// DeepSeek-style FFNs.
pub fn silu(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v *= 1.0 / (1.0 + (-*v).exp());
    }
}

/// tanh-approximation GELU, in place.
pub fn gelu(t: &mut Tensor) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in t.as_mut_slice() {
        let x = *v;
        *v = 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh());
    }
}

/// ReLU in place.
pub fn relu(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// `a += b` elementwise; shapes must match.
pub fn add_assign(a: &mut Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// `a *= s` elementwise.
pub fn scale_assign(a: &mut Tensor, s: f32) {
    for x in a.as_mut_slice() {
        *x *= s;
    }
}

/// `dst[i] += w * src[i]` over a row slice, unrolled into 8 independent
/// lanes so the compiler maps it onto SIMD mul-adds. Unlike the dot-product
/// microkernel above, every element here is an *independent* accumulation —
/// no cross-lane reduction — so the lane layout is bitwise identical to the
/// naive scalar loop for any length. This is the replica-merge/combine
/// kernel of the RBD pipeline.
pub fn axpy_slice(dst: &mut [f32], w: f32, src: &[f32]) {
    const LANES: usize = 8;
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    let d_chunks = dst.chunks_exact_mut(LANES);
    let s_chunks = src.chunks_exact(LANES);
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d += w * s;
    }
    let d_chunks = dst.chunks_exact_mut(LANES);
    let s_chunks = src.chunks_exact(LANES);
    for (dc, sc) in d_chunks.zip(s_chunks) {
        for l in 0..LANES {
            dc[l] += w * sc[l];
        }
    }
}

/// `dst[i] += src[i]` over a row slice, 8-lane unrolled; bitwise identical
/// to the scalar loop (independent elements, no reduction).
pub fn add_assign_slice(dst: &mut [f32], src: &[f32]) {
    const LANES: usize = 8;
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    let d_chunks = dst.chunks_exact_mut(LANES);
    let s_chunks = src.chunks_exact(LANES);
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d += s;
    }
    let d_chunks = dst.chunks_exact_mut(LANES);
    let s_chunks = src.chunks_exact(LANES);
    for (dc, sc) in d_chunks.zip(s_chunks) {
        for l in 0..LANES {
            dc[l] += sc[l];
        }
    }
}

/// Append `w * src[i]` for every element of `src` to `dst` (the replica
/// return staging kernel): reserve-then-extend in 8-lane blocks. Values are
/// identical to `dst.extend(src.iter().map(|v| w * v))`.
pub fn scaled_extend(dst: &mut Vec<f32>, w: f32, src: &[f32]) {
    const LANES: usize = 8;
    dst.reserve(src.len());
    let chunks = src.chunks_exact(LANES);
    let rem = chunks.remainder();
    for sc in chunks {
        let mut lanes = [0.0f32; LANES];
        for l in 0..LANES {
            lanes[l] = w * sc[l];
        }
        dst.extend_from_slice(&lanes);
    }
    for &s in rem {
        dst.push(w * s);
    }
}

/// The combine-weight backward kernel shared by the training paths:
/// returns `<dy, y>` and scales `dy *= w` in one pass.
///
/// Deliberately a *scalar sequential* loop: the dot product is a cross-lane
/// reduction, and the bitwise-pinned training trajectories forbid
/// reassociating it. Only the elementwise half would vectorise, which is not
/// worth splitting the fused pass for.
pub fn dot_and_scale(dy: &mut [f32], y: &[f32], w: f32) -> f32 {
    debug_assert_eq!(dy.len(), y.len(), "dot_and_scale length mismatch");
    let mut dot = 0.0f32;
    for (dv, yv) in dy.iter_mut().zip(y) {
        dot += *dv * yv;
        *dv *= w;
    }
    dot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        let mut c = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Tensor::rand_uniform(7, 5, 1.0, 1);
        let b = Tensor::rand_uniform(5, 9, 1.0, 2);
        assert!(matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_matches_naive_threaded_sizes() {
        let a = Tensor::rand_uniform(130, 70, 1.0, 3);
        let b = Tensor::rand_uniform(70, 90, 1.0, 4);
        assert!(matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-3));
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::rand_uniform(12, 12, 1.0, 5);
        let id = Tensor::from_fn(12, 12, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(matmul(&a, &id).allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_zero_dims() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
    }

    #[test]
    #[should_panic(expected = "inner-dim mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 1.0);
        let mut c = Tensor::full(2, 2, 10.0);
        matmul_into(&a, &b, &mut c);
        assert!(c.allclose(&Tensor::full(2, 2, 12.0), 1e-6));
    }

    #[test]
    fn matmul_transpose_b_matches_explicit() {
        let a = Tensor::rand_uniform(20, 30, 1.0, 6);
        let b = Tensor::rand_uniform(25, 30, 1.0, 7);
        let expected = matmul(&a, &b.transpose());
        assert!(matmul_transpose_b(&a, &b).allclose(&expected, 1e-4));
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_threaded_sizes() {
        // Big enough to take the multi-threaded path and exercise k-blocking.
        let a = Tensor::rand_uniform(150, 300, 1.0, 8);
        let b = Tensor::rand_uniform(90, 300, 1.0, 9);
        let expected = matmul(&a, &b.transpose());
        assert!(matmul_transpose_b(&a, &b).allclose(&expected, 1e-3));
    }

    #[test]
    fn matmul_transpose_b_zero_dims() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(3, 5);
        assert_eq!(matmul_transpose_b(&a, &b).shape(), (0, 3));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        softmax_rows(&mut t);
        for r in 0..2 {
            let s: f32 = t.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(t.get(r, 2) > t.get(r, 1) && t.get(r, 1) > t.get(r, 0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut t = Tensor::from_vec(1, 3, vec![1000.0, 1000.0, 999.0]);
        softmax_rows(&mut t);
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
        assert!((t.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn topk_selects_largest_in_order() {
        let t = Tensor::from_vec(1, 5, vec![0.1, 0.9, 0.3, 0.7, 0.5]);
        let (idx, vals) = topk_rows(&t, 3);
        assert_eq!(idx, vec![1, 3, 4]);
        assert_eq!(vals, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn topk_breaks_ties_deterministically() {
        let t = Tensor::from_vec(1, 4, vec![0.5, 0.5, 0.5, 0.5]);
        let (idx, _) = topk_rows(&t, 2);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn topk_full_width_is_argsort() {
        let t = Tensor::from_vec(1, 4, vec![0.2, 0.8, 0.4, 0.6]);
        let (idx, _) = topk_rows(&t, 4);
        assert_eq!(idx, vec![1, 3, 2, 0]);
    }

    #[test]
    fn topk_flat_layout_over_multiple_rows() {
        let t = Tensor::from_vec(2, 3, vec![0.1, 0.9, 0.3, 0.8, 0.2, 0.7]);
        let (idx, vals) = topk_rows(&t, 2);
        assert_eq!(idx, vec![1, 2, 0, 2]);
        assert_eq!(vals, vec![0.9, 0.3, 0.8, 0.7]);
    }

    #[test]
    fn topk_into_reuses_warm_buffers() {
        let t = Tensor::rand_uniform(9, 6, 1.0, 17);
        let (idx, vals) = topk_rows(&t, 3);
        let (mut i2, mut v2, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        topk_rows_into(&t, 3, &mut i2, &mut v2, &mut scratch);
        assert_eq!(idx, i2);
        assert_eq!(vals, v2);
        // Second call with dirty buffers must clear, not append.
        topk_rows_into(&t, 3, &mut i2, &mut v2, &mut scratch);
        assert_eq!(idx, i2);
    }

    #[test]
    fn matmul_slices_segment_equals_tensor_call() {
        // A pooled segment GEMM on a sub-range must be bitwise identical to
        // the tensor-level per-segment call it replaces.
        let big = Tensor::rand_uniform(12, 5, 1.0, 30);
        let w = Tensor::rand_uniform(5, 7, 1.0, 31);
        let seg = big.slice_rows(4, 9);
        let expected = matmul(&seg, &w);
        let mut out = Tensor::zeros(12, 7);
        matmul_slices(
            &big.as_slice()[4 * 5..9 * 5],
            5,
            5,
            w.as_slice(),
            7,
            &mut out.as_mut_slice()[4 * 7..9 * 7],
        );
        assert!(out.slice_rows(4, 9).max_abs_diff(&expected) == 0.0);
    }

    #[test]
    fn matmul_transpose_b_slices_segment_equals_tensor_call() {
        let big = Tensor::rand_uniform(10, 6, 1.0, 32);
        let w = Tensor::rand_uniform(8, 6, 1.0, 33);
        let seg = big.slice_rows(2, 7);
        let expected = matmul_transpose_b(&seg, &w);
        let mut out = Tensor::zeros(10, 8);
        matmul_transpose_b_slices(
            &big.as_slice()[2 * 6..7 * 6],
            5,
            6,
            w.as_slice(),
            8,
            &mut out.as_mut_slice()[2 * 8..7 * 8],
        );
        assert!(out.slice_rows(2, 7).max_abs_diff(&expected) == 0.0);
    }

    /// The AVX2 instances and the portable bodies (called directly, so this
    /// binary's baseline ISA compiles them) agree bit for bit, including on
    /// the zero-skip and the NT tail order, across tile and tail shapes.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_instances_match_portable_bodies_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (7, 9, 17),
            (5, 129, 88),
            (9, 300, 40),
        ] {
            let mut a = Tensor::rand_uniform(m, k, 1.0, 40).as_slice().to_vec();
            for (i, v) in a.iter_mut().enumerate() {
                if i.is_multiple_of(6) {
                    *v = if i.is_multiple_of(12) { 0.0 } else { -0.0 };
                }
            }
            let b = Tensor::rand_uniform(k, n, 1.0, 41);
            let bt = Tensor::rand_uniform(n, k, 1.0, 42);
            let at = Tensor::rand_uniform(k, m, 1.0, 43);
            let c0 = Tensor::rand_uniform(m, n, 1.0, 44);

            let (mut port, mut wide) = (c0.as_slice().to_vec(), c0.as_slice().to_vec());
            nn_body(&a, b.as_slice(), &mut port, 0, m, k, n);
            // SAFETY: `is_x86_feature_detected!("avx2")` confirmed AVX2 above.
            unsafe { gemm_rows_offset_avx2(&a, b.as_slice(), &mut wide, 0, m, k, n) };
            assert_eq!(bits(&port), bits(&wide), "NN m={m} k={k} n={n}");

            nt_body(&a, bt.as_slice(), &mut port, 0, m, k, n);
            // SAFETY: `is_x86_feature_detected!("avx2")` confirmed AVX2 above.
            unsafe { gemm_tb_rows_avx2(&a, bt.as_slice(), &mut wide, 0, m, k, n) };
            assert_eq!(bits(&port), bits(&wide), "NT m={m} k={k} n={n}");

            ta_body(at.as_slice(), b.as_slice(), &mut port, 0, m, k, m, n);
            // SAFETY: `is_x86_feature_detected!("avx2")` confirmed AVX2 above.
            unsafe { gemm_ta_rows_avx2(at.as_slice(), b.as_slice(), &mut wide, 0, m, k, m, n) };
            assert_eq!(bits(&port), bits(&wide), "TA m={m} k={k} n={n}");
        }
    }

    #[test]
    fn silu_known_values() {
        let mut t = Tensor::from_vec(1, 2, vec![0.0, 10.0]);
        silu(&mut t);
        assert!(t.get(0, 0).abs() < 1e-6);
        assert!((t.get(0, 1) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut t = Tensor::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        relu(&mut t);
        assert_eq!(t.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_monotone_near_origin() {
        let mut t = Tensor::from_vec(1, 3, vec![-1.0, 0.0, 1.0]);
        gelu(&mut t);
        assert!(t.get(0, 0) < t.get(0, 1) && t.get(0, 1) < t.get(0, 2));
        assert!(t.get(0, 1).abs() < 1e-6);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        add_assign(&mut a, &b);
        scale_assign(&mut a, 0.5);
        assert!(a.allclose(&Tensor::full(2, 2, 1.5), 1e-6));
    }
}
