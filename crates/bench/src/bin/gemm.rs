//! `bench gemm` — the GEMM microkernels of the MoE hot path.
//!
//! Three sections:
//!
//! 1. **Transpose-free backward** — `matmul_transpose_b` computes
//!    `C = A @ B^T` directly on row-major operands (each `C[i][j]` is a dot
//!    product of two contiguous rows), replacing a kernel that materialized a
//!    fresh `B^T` per call.
//! 2. **The `aik == 0` skip branch** of the forward saxpy microkernel.
//! 3. **Grouped expert GEMM on the persistent worker pool** — one
//!    `gemm_grouped` batch over E uneven expert segments versus the
//!    back-to-back per-expert loop, and the pool versus per-call scoped
//!    thread spawning. These are the tables behind DESIGN.md's "Parallel
//!    execution" section.
//!
//! Modes: no flags runs all three sections informationally (correctness is
//! still asserted); `--grouped` runs the grouped section and turns its
//! performance checks into process-failing gates; `--smoke` is the CI
//! variant — a reduced shape set with the same hard gates.

use std::process::ExitCode;
use std::time::Instant;

use xmoe_bench::{fmt_time, print_table, shape_check};
use xmoe_tensor::{gemm_grouped, matmul, matmul_slices, matmul_transpose_b, pool_size, Tensor};

/// The old implementation: materialize `B^T`, then run the plain kernel.
fn via_materialized_transpose(a: &Tensor, b: &Tensor) -> Tensor {
    matmul(a, &b.transpose())
}

/// The forward microkernel's per-element schedule as a plain loop: i-k-j
/// saxpy, KB-tiled, **with** the `aik == 0.0 → skip` branch (the production
/// `gemm_rows_offset` register-blocks this loop without changing any
/// element's operation order). Single-threaded so the branch cost is not
/// masked by thread scheduling.
fn saxpy_skip_zero(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Tensor::zeros(m, n);
    let (av, bv, cv) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
    const KB: usize = 256;
    for kb0 in (0..k).step_by(KB) {
        let k_end = (kb0 + KB).min(k);
        for i in 0..m {
            let a_row = &av[i * k..(i + 1) * k];
            let c_row = &mut cv[i * n..(i + 1) * n];
            for kk in kb0..k_end {
                let aik = a_row[kk];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &bv[kk * n..(kk + 1) * n];
                for (c, b) in c_row.iter_mut().zip(b_row) {
                    *c += aik * b;
                }
            }
        }
    }
    c
}

/// The same loop **without** the skip branch: every saxpy runs, zeros
/// included.
fn saxpy_branchless(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Tensor::zeros(m, n);
    let (av, bv, cv) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
    const KB: usize = 256;
    for kb0 in (0..k).step_by(KB) {
        let k_end = (kb0 + KB).min(k);
        for i in 0..m {
            let a_row = &av[i * k..(i + 1) * k];
            let c_row = &mut cv[i * n..(i + 1) * n];
            for kk in kb0..k_end {
                let aik = a_row[kk];
                let b_row = &bv[kk * n..(kk + 1) * n];
                for (c, b) in c_row.iter_mut().zip(b_row) {
                    *c += aik * b;
                }
            }
        }
    }
    c
}

fn time_min<F: FnMut() -> Tensor>(reps: usize, mut f: F) -> (f64, Tensor) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out)
}

fn transpose_section() {
    // (m, k, n) for C[m,n] = A[m,k] @ B[n,k]^T — backward shapes: m routed
    // rows, k the ffn/hidden width of dY, n the width being restored.
    let shapes = [
        (1024usize, 256usize, 256usize),
        (2048, 64, 512),
        (512, 512, 128),
        (4096, 128, 64),
    ];
    let reps = 3;

    println!("== bench gemm — `C = A @ B^T` without materializing B^T ==");
    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut all_faster_or_even = true;
    for &(m, k, n) in &shapes {
        let a = Tensor::rand_uniform(m, k, 1.0, 0x6E44 + m as u64);
        let b = Tensor::rand_uniform(n, k, 1.0, 0x6E45 + n as u64);
        let (t_old, c_old) = time_min(reps, || via_materialized_transpose(&a, &b));
        let (t_new, c_new) = time_min(reps, || matmul_transpose_b(&a, &b));
        all_equal &= c_old.allclose(&c_new, 1e-4);
        // Wall-clock on shared CI machines is noisy; require parity within
        // 25% rather than a strict win per shape.
        all_faster_or_even &= t_new <= t_old * 1.25;
        rows.push(vec![
            format!("{m}x{k} @ ({n}x{k})^T"),
            fmt_time(t_old),
            fmt_time(t_new),
            format!("{:.2}x", t_old / t_new),
        ]);
    }
    print_table(
        "backward GEMM: materialized B^T vs transpose-free",
        &["shape", "materialize B^T", "transpose-free", "speedup"],
        &rows,
    );
    shape_check(
        "transpose-free kernel matches the materializing one",
        all_equal,
        "both must compute the same C up to fp32 rounding",
    );
    shape_check(
        "transpose-free kernel is not slower (within noise)",
        all_faster_or_even,
        "it also saves the n*k B^T allocation per call",
    );
    println!("note: the win comes from skipping the per-call B^T allocation + fill;");
    println!("both kernels then stream contiguous rows, so FLOP throughput is similar.");
}

fn skip_branch_section() {
    let shapes = [
        (1024usize, 256usize, 256usize),
        (2048, 64, 512),
        (512, 512, 128),
        (4096, 128, 64),
    ];
    let reps = 3;
    // Zero operand values occur in this codebase only as whole zero rows:
    // block-sparse pad rows and the dense pipeline's under-capacity slots.
    // Measure the branch on dense-random A (the steady-state case, branch
    // always false) and on A with half its rows zeroed (the padded case,
    // branch skips entire saxpy rows).
    println!();
    println!("== bench gemm — the `aik == 0` skip branch in the forward saxpy ==");
    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut dense_log_speedup = 0.0f64;
    let mut padded_win = true;
    for &(m, k, n) in &shapes {
        let dense = Tensor::rand_uniform(m, k, 1.0, 0x6E46 + m as u64);
        let mut padded = dense.clone();
        for r in m / 2..m {
            for v in padded.row_mut(r) {
                *v = 0.0;
            }
        }
        for (label, a) in [("dense", &dense), ("half rows zero", &padded)] {
            let b = Tensor::rand_uniform(k, n, 1.0, 0x6E47 + n as u64);
            let (t_skip, c_skip) = time_min(reps, || saxpy_skip_zero(a, &b));
            let (t_flat, c_flat) = time_min(reps, || saxpy_branchless(a, &b));
            all_equal &= c_skip.allclose(&c_flat, 0.0);
            if label == "dense" {
                dense_log_speedup += (t_flat / t_skip).ln();
            } else {
                padded_win &= t_skip <= t_flat;
            }
            rows.push(vec![
                format!("{m}x{k}x{n} {label}"),
                fmt_time(t_flat),
                fmt_time(t_skip),
                format!("{:.2}x", t_flat / t_skip),
            ]);
        }
    }
    print_table(
        "forward saxpy: branchless vs zero-skip",
        &["operands", "branchless", "zero-skip", "speedup"],
        &rows,
    );
    shape_check(
        "zero-skip matches branchless bitwise",
        all_equal,
        "skipping a saxpy whose multiplier is +0.0 cannot change C",
    );
    let dense_geomean = (dense_log_speedup / shapes.len() as f64).exp();
    shape_check(
        "zero-skip is dense-neutral on average (geomean within 20%)",
        dense_geomean >= 0.8,
        "the always-false branch predicts perfectly; per-shape codegen \
         wobbles cancel out",
    );
    shape_check(
        "zero-skip wins on zero-padded rows",
        padded_win,
        "each zero A row skips a full k*n saxpy sweep",
    );
    println!(
        "dense geomean speedup of zero-skip: {dense_geomean:.2}x \
         (worst shapes trade ~25% on short saxpies, n <= 64)"
    );
    println!("resolution: the branch stays — dense-neutral on average, ~2x win on the");
    println!("zero-padded buffers of the block-sparse and dense pipelines (DESIGN.md).");
}

/// Per-expert segments through their own back-to-back GEMM calls — what the
/// hot path did before grouped scheduling. Each call may itself use the
/// pool above the cutoff, but E small segments never fill the machine.
fn sequential_experts(input: &[f32], counts: &[usize], k: usize, w: &[Tensor], n: usize) -> Tensor {
    let total: usize = counts.iter().sum();
    let mut c = Tensor::zeros(total, n);
    let cv = c.as_mut_slice();
    let mut off = 0usize;
    for (e, &cnt) in counts.iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        matmul_slices(
            &input[off * k..(off + cnt) * k],
            cnt,
            k,
            w[e].as_slice(),
            n,
            &mut cv[off * n..(off + cnt) * n],
        );
        off += cnt;
    }
    c
}

/// One expert's worth of work: expert index, its input rows, its output rows.
type ExpertJob<'a> = (usize, &'a [f32], &'a mut [f32]);

/// Expert-level parallelism via **per-call scoped spawning** — the schedule
/// the persistent pool replaced: experts round-robined over `pool_size()`
/// fresh threads, spawned and joined on every call.
fn scoped_spawn_experts(
    input: &[f32],
    counts: &[usize],
    k: usize,
    w: &[Tensor],
    n: usize,
) -> Tensor {
    let total: usize = counts.iter().sum();
    let mut c = Tensor::zeros(total, n);
    let lanes = pool_size().max(1);
    // Carve disjoint per-expert jobs out of the operand and output buffers.
    let mut jobs: Vec<ExpertJob> = Vec::new();
    let (mut ra, mut rc) = (input, c.as_mut_slice());
    for (e, &cnt) in counts.iter().enumerate() {
        let (sa, ta) = ra.split_at(cnt * k);
        let (sc, tc) = rc.split_at_mut(cnt * n);
        ra = ta;
        rc = tc;
        if cnt > 0 {
            jobs.push((e, sa, sc));
        }
    }
    if lanes == 1 {
        for (e, sa, sc) in jobs {
            matmul_slices(sa, sa.len() / k, k, w[e].as_slice(), n, sc);
        }
        return c;
    }
    let mut per_lane: Vec<Vec<ExpertJob>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        per_lane[i % lanes].push(job);
    }
    std::thread::scope(|s| {
        for lane in per_lane {
            s.spawn(move || {
                for (e, sa, sc) in lane {
                    matmul_slices(sa, sa.len() / k, k, w[e].as_slice(), n, sc);
                }
            });
        }
    });
    c
}

/// The grouped section. Returns `false` when a performance gate misses;
/// bitwise mismatches panic unconditionally (they are correctness bugs, not
/// noise).
fn grouped_section(smoke: bool) -> bool {
    // Fine-grained-expert widths: x[rows,64] @ w1[64,128] per expert — the
    // w1 batch of the DeepSeek-style FFN at reproduction scale.
    let (k, n) = (64usize, 128usize);
    let reps = if smoke { 5 } else { 3 };
    let expert_counts: &[usize] = if smoke { &[8, 64] } else { &[8, 32, 64] };
    let rows_per: &[usize] = if smoke { &[16, 64] } else { &[16, 64, 256] };
    let lanes = pool_size();

    println!();
    println!("== bench gemm — grouped expert GEMM on the persistent pool ==");
    println!("worker pool: {lanes} lane(s); expert FFN slice: [rows,{k}] @ [{k},{n}]");

    let mut grouped_rows = Vec::new();
    let mut scoped_rows = Vec::new();
    let mut many_small_speedup = f64::NAN;
    let mut pool_vs_scoped_many_small = f64::NAN;
    for &e_count in expert_counts {
        for &rpe in rows_per {
            // Uneven segments (±1 around rows-per-expert) so the schedule is
            // exercised on the ragged counts the router actually produces.
            let counts: Vec<usize> = (0..e_count).map(|e| rpe - 1 + (e % 3)).collect();
            let total: usize = counts.iter().sum();
            let input = Tensor::rand_uniform(total, k, 1.0, 0x6E50 + (e_count * rpe) as u64);
            let w: Vec<Tensor> = (0..e_count)
                .map(|e| Tensor::rand_uniform(k, n, 1.0, 0x6E51 + e as u64))
                .collect();
            let run_grouped = || {
                let mut c = Tensor::zeros(total, n);
                gemm_grouped(
                    input.as_slice(),
                    &counts,
                    k,
                    |e| w[e].as_slice(),
                    n,
                    c.as_mut_slice(),
                );
                c
            };
            let (t_seq, c_seq) = time_min(reps, || {
                sequential_experts(input.as_slice(), &counts, k, &w, n)
            });
            let (t_grp, c_grp) = time_min(reps, run_grouped);
            let (t_scp, c_scp) = time_min(reps, || {
                scoped_spawn_experts(input.as_slice(), &counts, k, &w, n)
            });
            assert!(
                c_seq.allclose(&c_grp, 0.0),
                "grouped GEMM diverges bitwise from the sequential loop at \
                 e={e_count} rows/expert={rpe}"
            );
            assert!(
                c_seq.allclose(&c_scp, 0.0),
                "scoped-spawn GEMM diverges bitwise at e={e_count} rows/expert={rpe}"
            );
            let label = format!("e={e_count:<2} rows/expert={rpe}");
            grouped_rows.push(vec![
                label.clone(),
                fmt_time(t_seq),
                fmt_time(t_grp),
                format!("{:.2}x", t_seq / t_grp),
            ]);
            scoped_rows.push(vec![
                label,
                fmt_time(t_scp),
                fmt_time(t_grp),
                format!("{:.2}x", t_scp / t_grp),
            ]);
            if e_count == 64 && rpe == 16 {
                many_small_speedup = t_seq / t_grp;
                pool_vs_scoped_many_small = t_scp / t_grp;
            }
        }
    }
    print_table(
        "grouped vs sequential per-expert GEMM",
        &["shape", "sequential", "grouped (pool)", "speedup"],
        &grouped_rows,
    );
    print_table(
        "persistent pool vs per-call scoped spawn",
        &["shape", "scoped spawn", "grouped (pool)", "speedup"],
        &scoped_rows,
    );

    // Dense sanity shape: one expert holding every row — the grouped entry
    // point degenerates to a single panel-split GEMM and must not lose to
    // the plain kernel beyond noise.
    let (dm, counts) = (1024usize, vec![1024usize]);
    let input = Tensor::rand_uniform(dm, k, 1.0, 0x6E52);
    let w = [Tensor::rand_uniform(k, n, 1.0, 0x6E53)];
    let (t_dense, c_dense) = time_min(reps, || {
        let mut c = Tensor::zeros(dm, n);
        matmul_slices(
            input.as_slice(),
            dm,
            k,
            w[0].as_slice(),
            n,
            c.as_mut_slice(),
        );
        c
    });
    let (t_grp1, c_grp1) = time_min(reps, || {
        let mut c = Tensor::zeros(dm, n);
        gemm_grouped(
            input.as_slice(),
            &counts,
            k,
            |e| w[e].as_slice(),
            n,
            c.as_mut_slice(),
        );
        c
    });
    assert!(
        c_dense.allclose(&c_grp1, 0.0),
        "single-expert grouped GEMM diverges bitwise from matmul"
    );
    println!(
        "dense (e=1, {dm} rows): matmul {} vs grouped {} ({:.2}x)",
        fmt_time(t_dense),
        fmt_time(t_grp1),
        t_dense / t_grp1
    );

    let mut ok = true;
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The throughput gate binds only when real concurrency exists: >= 2
    // worker lanes AND >= 2 hardware threads to run them on. Lanes beyond
    // the core count (XMOE_THREADS oversubscription) cannot speed anything
    // up, and at one lane the grouped path IS the sequential loop.
    if lanes >= 2 && hw >= 2 {
        let gate = many_small_speedup >= 1.3;
        shape_check(
            "grouped GEMM >= 1.3x on the many-small-expert shape (e=64, rows/expert=16)",
            gate,
            &format!("measured {many_small_speedup:.2}x with {lanes} lanes on {hw} cores"),
        );
        ok &= gate;
    } else {
        println!(
            "[shape] SKIP: the >= 1.3x gate needs >= 2 lanes on >= 2 cores \
             (have {lanes} lane(s), {hw} core(s))"
        );
    }
    // The overhead gate binds at any lane count >= 2, oversubscribed or
    // not: replacing per-call spawn+join with a persistent pool must never
    // cost wall-clock beyond noise.
    if lanes >= 2 {
        let pool_gate = pool_vs_scoped_many_small >= 0.8;
        shape_check(
            "persistent pool not slower than scoped spawn (within 25% noise)",
            pool_gate,
            &format!("measured {pool_vs_scoped_many_small:.2}x on the many-small shape"),
        );
        ok &= pool_gate;
    }
    let dense_gate = t_grp1 <= t_dense * 1.25;
    shape_check(
        "grouped GEMM never worse than dense matmul (within 25% noise)",
        dense_gate,
        "a single whole-buffer expert degenerates to the same panel schedule",
    );
    ok &= dense_gate;
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let grouped_only = args.iter().any(|a| a == "--grouped");
    let smoke = args.iter().any(|a| a == "--smoke");
    if !grouped_only && !smoke {
        transpose_section();
        skip_branch_section();
    }
    let ok = grouped_section(smoke);
    if (grouped_only || smoke) && !ok {
        eprintln!("bench gemm: grouped-GEMM gate FAILED (see [shape] lines above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
