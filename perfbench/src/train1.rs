//! `train-1rank`: `MoeLm::train_step` in a world of one at the Small
//! model's shape divided by 16 (64 experts, top-6, hidden 128, expert ffn
//! 88), 2 layers, 512 tokens per step. A closed loop: each step waits for
//! the one before it.

use std::time::Instant;

use xmoe_core::gating::{DropPolicy, Router};
use xmoe_core::pft::Pft;
use xmoe_tensor::{gather_rows, gemm_grouped, Tensor};
use xmoe_train::model::TrainConfig;
use xmoe_train::{Adam, MarkovCorpus, MoeLm};

use crate::stats::{bits, mean, run_sessions, Outcome, Timed};
use crate::trace::{self, Tracer};
use crate::{session_seed, ALLOC, WARMUP_STEPS};

const TOKENS_PER_STEP: usize = 512;

fn config(seed: u64) -> TrainConfig {
    let mut c = TrainConfig::fig15(DropPolicy::CapacityOnly);
    c.vocab = 256;
    c.hidden = 128;
    c.ffn = 88;
    c.num_experts = 64;
    c.top_k = 6;
    c.layers = 2;
    c.seq_len = 32;
    c.batch = TOKENS_PER_STEP / 32;
    c.seed = seed;
    c
}

fn corpus(cfg: &TrainConfig) -> MarkovCorpus {
    MarkovCorpus::new(cfg.vocab, 4, cfg.seed ^ 0xC0_4B05)
}

/// A model trained through warm-up, and the corpus positioned after it.
struct Session {
    model: MoeLm,
    corpus: MarkovCorpus,
    losses: Vec<f64>,
    setup_s: f64,
}

fn setup(cfg: &TrainConfig) -> Session {
    let t0 = Instant::now();
    let mut model = MoeLm::new(cfg.clone());
    let mut corpus = corpus(cfg);
    let losses = (0..WARMUP_STEPS)
        .map(|_| model.train_step(&corpus.batch(cfg.batch, cfg.seq_len)).loss)
        .collect();
    Session {
        model,
        corpus,
        losses,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // End-to-end numbers come only from the untraced sessions.
    let window = if traced { seconds / 2.0 } else { seconds };

    let mut trajectories: Vec<Vec<f64>> = Vec::new();
    let sessions = run_sessions(seed, window, |_, seed_k, share| {
        let cfg = config(seed_k);
        let mut sess = setup(&cfg);
        let mut t = Timed {
            setup_s: sess.setup_s,
            ..Timed::default()
        };
        let t_loop = Instant::now();
        while t_loop.elapsed().as_secs_f64() < share {
            let batch = sess.corpus.batch(cfg.batch, cfg.seq_len);
            let a0 = ALLOC.stats().allocs;
            let t_step = Instant::now();
            let stats = sess.model.train_step(&batch);
            t.step_ms.push(t_step.elapsed().as_secs_f64() * 1e3);
            t.allocs += ALLOC.stats().allocs - a0;
            t.failed += u64::from(!stats.loss.is_finite());
            sess.losses.push(stats.loss);
        }
        t.wall_s = t_loop.elapsed().as_secs_f64();
        trajectories.push(sess.losses);
        t
    });
    let cfg = config(session_seed(seed, 0));
    let again = setup(&cfg).losses;
    out.check(
        "loss trajectory repeats bitwise",
        bits(&again) == bits(&trajectories[0][..WARMUP_STEPS]),
        format!("session 0 set up again, {WARMUP_STEPS} steps compared"),
    );
    let untraced_ms: Vec<f64> = sessions.iter().flat_map(|t| t.step_ms.clone()).collect();
    out.set_sessions(sessions, TOKENS_PER_STEP as f64);

    if traced {
        traced_run(&cfg, window, &trajectories[0], &untraced_ms, &mut out);
    }
    out
}

/// The traced run: the same step composed from the layers' public calls
/// (the order `MoeLm::train_step` makes them in), with a span around each,
/// plus replays of gating, PFT construction and the grouped expert GEMMs
/// on each step's MoE inputs.
fn traced_run(
    cfg: &TrainConfig,
    window: f64,
    untraced_losses: &[f64],
    untraced_ms: &[f64],
    out: &mut Outcome,
) {
    let mut model = MoeLm::new(cfg.clone());
    let mut opt = Adam::new(cfg.lr);
    let mut corpus = corpus(cfg);
    let mut tr = Tracer::new(0, Instant::now());
    let mut losses = Vec::new();
    let (mut kept, mut routed, mut gemm_flops) = (0usize, 0usize, 0.0f64);
    let mut routing_matches = true;
    let t_loop = Instant::now();
    let mut step = 0u64;
    while step < (WARMUP_STEPS + 1) as u64 || t_loop.elapsed().as_secs_f64() < window {
        tr.set_step(step);
        let batch = corpus.batch(cfg.batch, cfg.seq_len);
        let (inputs, targets): (Vec<usize>, Vec<usize>) = batch
            .iter()
            .flat_map(|seq| seq.windows(2).map(|w| (w[0], w[1])))
            .unzip();
        // Gate weights as the forward sees them (the update changes them).
        let gates: Vec<Tensor> = model.blocks.iter().map(|b| b.moe.gate.clone()).collect();
        let mut moe_inputs = Vec::with_capacity(cfg.layers);

        tr.open("step");
        let mut x = tr.time("train.embed", || model.embed.forward(&inputs));
        let mut ctxs = Vec::with_capacity(cfg.layers);
        for block in &model.blocks {
            let (x1, mlp_ctx) = tr.time("train.dense_fwd", || block.mlp.forward(&x));
            let (x2, moe_ctx) = tr.time("train.moe_fwd", || block.moe.forward(&x1));
            ctxs.push((mlp_ctx, moe_ctx));
            moe_inputs.push(x1);
            x = x2;
        }
        let (loss, mut d_x) = tr.time("train.head", || model.head.loss_and_backward(&x, &targets));
        for (block, (mlp_ctx, moe_ctx)) in model.blocks.iter_mut().zip(&ctxs).rev() {
            d_x = tr.time("train.moe_bwd", || block.moe.backward(moe_ctx, &d_x));
            d_x = tr.time("train.dense_bwd", || block.mlp.backward(mlp_ctx, &d_x));
        }
        tr.time("train.embed", || model.embed.backward(&inputs, &d_x));
        tr.time("train.optimizer", || {
            let mut pairs: Vec<(&mut Tensor, &Tensor)> = Vec::new();
            pairs.push((&mut model.embed.weight, &model.embed.grad));
            for block in &mut model.blocks {
                let mlp = &mut block.mlp;
                pairs.push((&mut mlp.w1, &mlp.g1));
                pairs.push((&mut mlp.w2, &mlp.g2));
                pairs.push((&mut mlp.norm.gamma, &mlp.norm.g_gamma));
                pairs.push((&mut mlp.norm.beta, &mlp.norm.g_beta));
                let moe = &mut block.moe;
                pairs.push((&mut moe.gate, &moe.g_gate));
                for ((w1, w2), (g1, g2)) in moe.experts.iter_mut().zip(moe.g_experts.iter()) {
                    pairs.push((w1, g1));
                    pairs.push((w2, g2));
                }
            }
            pairs.push((&mut model.head.weight, &model.head.grad));
            opt.step(pairs);
        });
        model.embed.grad.as_mut_slice().fill(0.0);
        model.head.grad.as_mut_slice().fill(0.0);
        for block in &mut model.blocks {
            block.mlp.zero_grads();
            block.moe.zero_grads();
        }
        tr.close();
        losses.push(loss);

        // Replays, outside the step span.
        for (l, ((x1, gate), (_, moe_ctx))) in moe_inputs.iter().zip(gates).zip(&ctxs).enumerate() {
            let moe = &model.blocks[l].moe;
            let router = Router::from_weight(gate, cfg.top_k);
            let gating = tr.time("core.gating", || router.gate(x1));
            let pft = tr.time("core.pft_build", || {
                Pft::construct(&gating, cfg.num_experts, moe.capacity, moe.policy)
            });
            routing_matches &= pft.tokens_per_expert == moe_ctx.tokens_per_expert();
            kept += pft.len();
            routed += x1.rows() * cfg.top_k;
            let a = gather_rows(x1, &pft.token_ids);
            let (mut hid, mut y) = (
                vec![0.0f32; pft.len() * cfg.ffn],
                vec![0.0f32; pft.len() * cfg.hidden],
            );
            let experts = &moe.experts;
            let counts = &pft.tokens_per_expert;
            tr.time("tensor.expert_gemm", || {
                gemm_grouped(
                    a.as_slice(),
                    counts,
                    cfg.hidden,
                    |e| experts[e].0.as_slice(),
                    cfg.ffn,
                    &mut hid,
                );
                gemm_grouped(
                    &hid,
                    counts,
                    cfg.ffn,
                    |e| experts[e].1.as_slice(),
                    cfg.hidden,
                    &mut y,
                );
            });
            gemm_flops += 4.0 * (pft.len() * cfg.hidden * cfg.ffn) as f64;
        }
        step += 1;
    }
    let spans = tr.into_spans();
    let n = step as f64;
    let selft = trace::self_times(&spans);
    let per_step = |name: &str| selft.get(name).copied().unwrap_or(0.0) * 1e3 / n;

    let overlap = losses.len().min(untraced_losses.len());
    out.check(
        "traced step reproduces MoeLm::train_step bitwise",
        bits(&losses[..overlap]) == bits(&untraced_losses[..overlap]),
        format!("{overlap} steps compared"),
    );
    out.check(
        "replayed gating routes as the layer did",
        routing_matches,
        "Router::gate + Pft::construct on the layer's inputs and gate weights",
    );

    for (metric, span) in [
        ("train.embed_ms", "train.embed"),
        ("train.dense_fwd_ms", "train.dense_fwd"),
        ("train.moe_fwd_ms", "train.moe_fwd"),
        ("train.head_ms", "train.head"),
        ("train.moe_bwd_ms", "train.moe_bwd"),
        ("train.dense_bwd_ms", "train.dense_bwd"),
        ("train.optimizer_ms", "train.optimizer"),
    ] {
        out.set(metric, per_step(span));
        out.wall_stages.push((span, per_step(span)));
    }
    out.set("bench.unattributed_ms", per_step("step"));
    out.wall_stages.push(("unattributed", per_step("step")));
    let traced_ms: Vec<f64> = trace::durations(&spans, "step")
        .iter()
        .map(|d| d * 1e3)
        .collect();
    out.wall_stages.push(("Total", mean(&traced_ms)));
    out.set("core.gating_ms", per_step("core.gating"));
    out.set("core.pft_build_ms", per_step("core.pft_build"));
    out.set("core.pft_kept_ratio", kept as f64 / routed.max(1) as f64);
    let gemm_s = selft.get("tensor.expert_gemm").copied().unwrap_or(0.0);
    out.set("tensor.expert_gemm_ms", gemm_s * 1e3 / n);
    out.set(
        "tensor.expert_gemm_gflops",
        gemm_flops / gemm_s.max(1e-12) / 1e9,
    );
    crate::set_overhead(out, untraced_ms, &traced_ms);
    out.spans = spans;
}
