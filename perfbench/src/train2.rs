//! `train-2node`: `DistMoeLm::train_step` under `SimCluster::run`, world 2,
//! on a Frontier spec with one GPU per node, so every remote row crosses the
//! inter-node link. 32 experts, top-8, hidden 64, ffn 48, 32 tokens per
//! rank, capacity with no drops. A closed loop: both ranks finish a step
//! before either starts the next.

use std::time::Instant;

use xmoe_collectives::RankCtx;
use xmoe_core::gating::DropPolicy;
use xmoe_train::model::{build_moe_layers, TrainConfig};
use xmoe_train::{DistMoeLm, MarkovCorpus, MoeLm};

use crate::cluster::{closed_loop, session_timed, RankRun, WORLD};
use crate::stats::{bits, mean, run_sessions, Outcome};
use crate::trace::{self, Tracer};
use crate::{session_seed, WARMUP_STEPS};

const TOKENS_PER_RANK: usize = 32;
/// Steps of session 0 checked against the single-process model. The two
/// sum gradients in different orders, so their losses differ by about 1e-8
/// after one step, and training amplifies that about tenfold every ten
/// steps: near step 60 the gap passes 2e-3 with both models correct.
const REFERENCE_STEPS: usize = 32;
const PHASES: [&str; 4] = [
    "train.fwd_bwd",
    "train.grad_sync",
    "train.update",
    "train.loss_reduce",
];

fn config(seed: u64) -> TrainConfig {
    let mut c = TrainConfig::fig15(DropPolicy::CapacityOnly);
    c.vocab = 64;
    c.hidden = 64;
    c.ffn = 48;
    c.num_experts = 32;
    c.top_k = 8;
    c.layers = 2;
    c.seq_len = 16;
    c.batch = TOKENS_PER_RANK / 16;
    // Per-rank and global capacity must retain the same set, so neither
    // drops anything.
    c.capacity_factor = 1e6;
    c.seed = seed;
    c
}

fn corpus(cfg: &TrainConfig, rank: usize) -> MarkovCorpus {
    MarkovCorpus::new(cfg.vocab, 4, cfg.seed ^ (0x2_0DE0 + rank as u64))
}

/// One rank's model and data, and the global losses it saw.
struct Rank {
    model: DistMoeLm,
    corpus: MarkovCorpus,
    /// The next step's batch.
    batch: Vec<Vec<usize>>,
    warmup: Vec<f64>,
    losses: Vec<f64>,
}

/// One session: build the model on both ranks, warm up, then (when
/// `window > 0`) step until rank 0's clock passes `window`.
fn session(cfg: &TrainConfig, window: f64, traced: bool) -> Vec<RankRun<Rank>> {
    let t0 = Instant::now();
    let full = build_moe_layers(cfg);
    closed_loop(
        t0,
        window,
        traced,
        |ctx| {
            let mut model = DistMoeLm::new(cfg, &full, ctx.rank, WORLD);
            let mut corpus = corpus(cfg, ctx.rank);
            let mut warmup = Vec::new();
            for _ in 0..WARMUP_STEPS {
                let batch = corpus.batch(cfg.batch, cfg.seq_len);
                let loss = model
                    .train_step(&batch, &ctx.world, &mut ctx.clock)
                    .expect("no faults are injected");
                ctx.clock.reset_buckets();
                warmup.push(loss);
            }
            Rank {
                model,
                corpus,
                batch: Vec::new(),
                warmup,
                losses: Vec::new(),
            }
        },
        |r| r.batch = r.corpus.batch(cfg.batch, cfg.seq_len),
        |r, ctx, tr| {
            let res = match tr {
                Some(tr) => traced_step(tr, &mut r.model, &r.batch, ctx),
                None => r.model.train_step(&r.batch, &ctx.world, &mut ctx.clock),
            };
            match res {
                Ok(loss) if loss.is_finite() => {
                    r.losses.push(loss);
                    true
                }
                _ => false,
            }
        },
        |_, _, _| {},
    )
}

fn traced_step(
    tr: &mut Tracer,
    model: &mut DistMoeLm,
    batch: &[Vec<usize>],
    ctx: &mut RankCtx,
) -> Result<f64, xmoe_collectives::CommError> {
    tr.open("step");
    let res = (|| {
        let local = tr.time(PHASES[0], || {
            model.forward_backward(batch, &ctx.world, &mut ctx.clock)
        })?;
        tr.time(PHASES[1], || model.sync_grads(&ctx.world, &mut ctx.clock))?;
        tr.time(PHASES[2], || model.apply_update());
        tr.time(PHASES[3], || {
            model.reduce_loss(local, &ctx.world, &mut ctx.clock)
        })
    })();
    tr.close();
    res
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // End-to-end numbers come only from the untraced sessions.
    let window = if traced { seconds / 2.0 } else { seconds };

    let mut trajectories: Vec<Vec<f64>> = Vec::new();
    let mut ranks_agree = true;
    let sessions = run_sessions(seed, window, |_, seed_k, share| {
        let mut rs = session(&config(seed_k), share, false);
        ranks_agree &= bits(&rs[0].work.losses) == bits(&rs[1].work.losses);
        let r0 = &mut rs[0].work;
        let mut trajectory = std::mem::take(&mut r0.warmup);
        trajectory.append(&mut r0.losses);
        trajectories.push(trajectory);
        session_timed(&mut rs)
    });
    let cfg = config(session_seed(seed, 0));
    let again = session(&cfg, 0.0, false).swap_remove(0).work.warmup;
    out.check(
        "loss trajectory repeats bitwise",
        bits(&again) == bits(&trajectories[0][..WARMUP_STEPS]),
        format!("session 0 set up again, {WARMUP_STEPS} steps compared"),
    );
    out.check(
        "ranks agree on the global loss",
        ranks_agree,
        "every timed step",
    );

    // Single-process reference on the concatenated rank batches, over the
    // first steps of session 0, warm-up and timed.
    let compared = &trajectories[0][..REFERENCE_STEPS.min(trajectories[0].len())];
    let mut reference = MoeLm::new(cfg.clone());
    let mut corpora: Vec<MarkovCorpus> = (0..WORLD).map(|r| corpus(&cfg, r)).collect();
    let mut worst = 0.0f64;
    for &d in compared {
        let concat: Vec<Vec<usize>> = corpora
            .iter_mut()
            .flat_map(|c| c.batch(cfg.batch, cfg.seq_len))
            .collect();
        worst = worst.max((reference.train_step(&concat).loss - d).abs());
    }
    out.check(
        "losses match a single-process MoeLm within 2e-3",
        worst < 2e-3,
        format!(
            "max |dist - single| = {worst:.3e} over {} steps",
            compared.len()
        ),
    );

    let untraced_ms: Vec<f64> = sessions.iter().flat_map(|t| t.step_ms.clone()).collect();
    out.set_sessions(sessions, (WORLD * TOKENS_PER_RANK) as f64);
    let untraced_losses = &trajectories[0];

    if traced {
        let rs = session(&cfg, window, true);
        let n = rs[0].sim.steps.max(1) as f64;
        let traced_ms: Vec<f64> = trace::durations(&rs[0].spans, "step")
            .iter()
            .map(|d| d * 1e3)
            .collect();
        for (metric, span) in [
            ("train.fwd_bwd_ms", PHASES[0]),
            ("train.grad_sync_ms", PHASES[1]),
            ("train.update_ms", PHASES[2]),
            ("train.loss_reduce_ms", PHASES[3]),
        ] {
            let ms = mean(
                &rs.iter()
                    .map(|r| {
                        trace::self_times(&r.spans)
                            .get(span)
                            .copied()
                            .unwrap_or(0.0)
                    })
                    .collect::<Vec<_>>(),
            ) * 1e3
                / n;
            out.set(metric, ms);
            out.wall_stages.push((span, ms));
        }
        // Time one rank waits for the other: per phase and step, the spread
        // of the two ranks' durations.
        let mut skew = 0.0;
        for phase in PHASES {
            let d0 = trace::durations(&rs[0].spans, phase);
            let d1 = trace::durations(&rs[1].spans, phase);
            skew += d0.iter().zip(&d1).map(|(a, b)| (a - b).abs()).sum::<f64>();
        }
        out.set("train.rank_skew_ms", skew * 1e3 / n);
        let unattributed = mean(
            &rs.iter()
                .map(|r| {
                    trace::self_times(&r.spans)
                        .get("step")
                        .copied()
                        .unwrap_or(0.0)
                })
                .collect::<Vec<_>>(),
        ) * 1e3
            / n;
        out.set("bench.unattributed_ms", unattributed);
        out.wall_stages.push(("unattributed", unattributed));
        out.wall_stages.push(("Total", mean(&traced_ms)));

        let sum = |f: &dyn Fn(&RankRun<Rank>) -> f64| rs.iter().map(f).sum::<f64>() / n;
        out.set(
            "collectives.inter_node_mb_per_step",
            sum(&|r| r.traffic.off_node() as f64) / 1e6,
        );
        out.set(
            "collectives.intra_node_mb_per_step",
            sum(&|r| r.traffic.intra_node as f64) / 1e6,
        );
        out.set(
            "collectives.a2a_spans_per_step",
            rs[0].sim.a2a_spans as f64 / n,
        );
        out.set(
            "collectives.allreduce_spans_per_step",
            rs[0].sim.allreduce_spans as f64 / n,
        );
        out.set("collectives.sim_ms_per_step", rs[0].sim.total_s * 1e3 / n);
        out.set(
            "collectives.sim_sync_wait_ms_per_step",
            rs[0].sim.wait_s * 1e3 / n,
        );
        for (stage, _) in &rs[0].sim.stages {
            out.sim_stages.push((stage, rs[0].sim.stage_ms(stage)));
        }
        out.sim_stages.push(("Total", rs[0].sim.total_s * 1e3 / n));
        let r0 = &rs[0].work;
        let traced_losses: Vec<f64> = r0.warmup.iter().chain(&r0.losses).copied().collect();
        let overlap = traced_losses.len().min(untraced_losses.len());
        out.check(
            "traced phases reproduce train_step bitwise",
            overlap > WARMUP_STEPS
                && bits(&traced_losses[..overlap]) == bits(&untraced_losses[..overlap]),
            format!("{overlap} steps compared"),
        );
        crate::set_overhead(&mut out, &untraced_ms, &traced_ms);
        out.spans = rs.into_iter().flat_map(|r| r.spans).collect();
    }
    out
}
