//! Microbenchmarks for the tensor substrate kernels: GEMM, the grouped
//! expert GEMMs, gather/scatter (the Triton-kernel analogues of paper
//! §4.1.2) and the sequential GEMM. Self-contained timing harness
//! (`cargo bench -p xmoe-tensor`); prints time per iteration, no external
//! framework. Pin the pool with `XMOE_THREADS=1` for single-lane kernel
//! throughput.

use std::time::{Duration, Instant};

use xmoe_tensor::{
    gather_rows, gemm_grouped, gemm_grouped_transpose_a, gemm_grouped_transpose_b, matmul,
    pool_size, scatter_rows_scaled, sequential_gemm, Tensor,
};

fn bench(name: &str, f: impl FnMut()) {
    bench_flops(name, 0.0, f);
}

/// Runs `f` for ~300 ms after warm-up and prints the time per call, plus the
/// throughput when `flops` (per call) is positive.
fn bench_flops(name: &str, flops: f64, mut f: impl FnMut()) {
    for _ in 0..2 {
        f(); // warmup
    }
    let budget = Duration::from_millis(300);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget && iters < 100_000 {
        f();
        iters += 1;
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    let rate = if flops > 0.0 {
        format!("  {:>7.2} GFLOP/s", flops / per / 1e9)
    } else {
        String::new()
    };
    println!(
        "{name:<40} {:>12.3} us/iter{rate}  ({iters} iters)",
        per * 1e6
    );
}

fn bench_matmul() {
    for &n in &[64usize, 128, 256] {
        let a = Tensor::rand_uniform(n, n, 1.0, 1);
        let b = Tensor::rand_uniform(n, n, 1.0, 2);
        bench(&format!("matmul/{n}"), || {
            std::hint::black_box(matmul(&a, &b));
        });
    }
}

fn bench_gather_scatter() {
    let hidden = 512usize;
    let tokens = 4096usize;
    let src = Tensor::rand_uniform(tokens, hidden, 1.0, 3);
    let ids: Vec<usize> = (0..tokens).map(|i| (i * 7919) % tokens).collect();
    let weights = vec![0.5f32; tokens];
    bench("routing_kernels/gather_4096x512", || {
        std::hint::black_box(gather_rows(&src, &ids));
    });
    let gathered = gather_rows(&src, &ids);
    bench("routing_kernels/scatter_4096x512", || {
        let mut out = Tensor::zeros(tokens, hidden);
        scatter_rows_scaled(&gathered, &ids, &weights, &mut out);
        std::hint::black_box(out);
    });
}

fn bench_sequential_gemm() {
    let hidden = 256;
    let ffn = 128;
    let experts = 16;
    let per_expert = 64usize;
    let input = Tensor::rand_uniform(experts * per_expert, hidden, 1.0, 4);
    let tpe = vec![per_expert; experts];
    let ws: Vec<Tensor> = (0..experts)
        .map(|e| Tensor::rand_uniform(hidden, ffn, 1.0, 100 + e as u64))
        .collect();
    bench("sequential_gemm/16experts_64tok", || {
        std::hint::black_box(sequential_gemm(&input, &tpe, &ws));
    });
}

/// The grouped expert GEMMs at the `train-1rank` benchmark's MoE shape:
/// 64 experts x 40 routed rows, hidden 128 / expert ffn 88, plus a wider
/// 128 -> 256 expert. NN is the forward, NT the activation gradient and TA
/// the weight gradient.
fn bench_grouped() {
    let (experts, rows) = (64usize, 40usize);
    let counts = vec![rows; experts];
    let total = experts * rows;
    println!("grouped GEMMs on {} lane(s)", pool_size());
    for &(k, n) in &[(128usize, 88usize), (88, 128), (128, 256)] {
        let flops = 2.0 * (total * k * n) as f64;
        let a = Tensor::rand_uniform(total, k, 1.0, 5);
        let d = Tensor::rand_uniform(total, n, 1.0, 6);
        let w_nn: Vec<Tensor> = (0..experts)
            .map(|e| Tensor::rand_uniform(k, n, 1.0, 200 + e as u64))
            .collect();
        let w_nt: Vec<Tensor> = (0..experts)
            .map(|e| Tensor::rand_uniform(n, k, 1.0, 300 + e as u64))
            .collect();
        let mut c = vec![0.0f32; total * n];
        bench_flops(
            &format!("grouped_nn/{experts}x{rows}_{k}x{n}"),
            flops,
            || {
                gemm_grouped(a.as_slice(), &counts, k, |e| w_nn[e].as_slice(), n, &mut c);
                std::hint::black_box(&mut c);
            },
        );
        bench_flops(
            &format!("grouped_nt/{experts}x{rows}_{k}x{n}"),
            flops,
            || {
                gemm_grouped_transpose_b(
                    a.as_slice(),
                    &counts,
                    k,
                    |e| w_nt[e].as_slice(),
                    n,
                    &mut c,
                );
                std::hint::black_box(&mut c);
            },
        );
        let mut g = vec![0.0f32; experts * k * n];
        bench_flops(
            &format!("grouped_ta/{experts}x{rows}_{k}x{n}"),
            flops,
            || {
                gemm_grouped_transpose_a(a.as_slice(), &counts, k, d.as_slice(), n, &mut g);
                std::hint::black_box(&mut g);
            },
        );
    }
}

fn main() {
    bench_grouped();
    bench_matmul();
    bench_gather_scatter();
    bench_sequential_gemm();
}
