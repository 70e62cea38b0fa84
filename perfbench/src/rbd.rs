//! `rbd-2node`: the `RbdPipeline` forward under
//! `ExecCtx::hier(..).with_state(..).with_rng(..)` (pooled), world 2 on two
//! simulated Frontier nodes. 64 experts, top-8, hidden 128, ffn 88, 512
//! tokens per rank. A closed loop of forwards over a fixed pool of seeded
//! token batches.

use std::time::Instant;

use xmoe_collectives::RankCtx;
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::pft::Pft;
use xmoe_core::pipeline::{
    ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PooledSingleState, RbdPipeline,
};
use xmoe_core::rbd::{redundancy_rate, PilotPolicy, RbdComms};
use xmoe_tensor::{gather_rows, gemm_grouped, DetRng, Tensor};

use crate::cluster::{closed_loop, session_timed, RankRun, WORLD};
use crate::stats::{mean, run_sessions, Outcome};
use crate::trace::{self, Tracer};
use crate::{session_seed, SESSIONS, WARMUP_STEPS};

const H: usize = 128;
const F: usize = 88;
const E: usize = 64;
const K: usize = 8;
const TOKENS: usize = 512;
/// Distinct token batches per rank, cycled by the timed loop.
const INPUTS: usize = 4;
/// Tolerance of the pipeline-equivalence tests.
const TOL: f32 = 2e-4;

fn capacity() -> usize {
    (1.25 * (TOKENS * K) as f64 / E as f64).ceil() as usize
}

/// One rank's expert shard, inputs and pooled pipeline state, and what
/// its checks and replays found.
struct Rank {
    shard: ExpertShard,
    inputs: Vec<Tensor>,
    comms: RbdComms,
    state: PooledSingleState,
    rng: DetRng,
    /// Forwards run by the timed loop so far.
    step: usize,
    /// Latest RBD output of each input, for the equivalence check.
    last: Vec<Option<Tensor>>,
    warmup_bits: Vec<u32>,
    max_diff: f32,
    compared: usize,
    pft_sim_s: f64,
    pft_inter_bytes: u64,
    kept: usize,
    routed: usize,
    redundancy: Vec<f64>,
    gemm_flops: f64,
}

impl Rank {
    fn forward(
        &mut self,
        i: usize,
        pipe: &RbdPipeline,
        router: &Router,
        spec: &MoeLayerSpec,
        ctx: &mut RankCtx,
    ) -> Result<Tensor, xmoe_core::pipeline::PipelineError> {
        pipe.forward(
            &self.inputs[i],
            router,
            &self.shard,
            spec,
            &mut ExecCtx::hier(&self.comms, &mut ctx.clock)
                .with_state(&mut self.state)
                .with_rng(&mut self.rng),
        )
    }

    /// The padding-free EP forward on the same inputs, against the latest
    /// RBD output of each.
    fn compare_with_pft(&mut self, router: &Router, spec: &MoeLayerSpec, ctx: &mut RankCtx) {
        for (i, out) in self.last.iter().enumerate() {
            let t_sim = ctx.clock.now();
            let pft_traffic0 = ctx.world.traffic().off_node();
            let want = PaddingFreePipeline
                .forward(
                    &self.inputs[i],
                    router,
                    &self.shard,
                    spec,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                )
                .expect("no faults are injected");
            ctx.clock.reset_buckets();
            self.pft_sim_s += ctx.clock.now() - t_sim;
            self.pft_inter_bytes += ctx.world.traffic().off_node() - pft_traffic0;
            if let Some(out) = out {
                self.max_diff = self.max_diff.max(out.max_abs_diff(&want));
                self.compared += 1;
            }
        }
    }

    /// Replays of the rank's own routing: gating, PFT build, node
    /// redundancy, and the grouped expert GEMMs over all experts.
    fn replay(&mut self, tr: &mut Tracer, router: &Router, spec: &MoeLayerSpec, seed: u64) {
        let full = ExpertShard::full(E, H, F, seed ^ 0xE7);
        for (i, x) in self.inputs.iter().enumerate() {
            tr.set_step(i as u64);
            let gating = tr.time("core.gating", || router.gate(x));
            let pft = tr.time("core.pft_build", || {
                Pft::construct(&gating, E, spec.capacity, spec.policy)
            });
            self.kept += pft.len();
            self.routed += TOKENS * K;
            self.redundancy
                .push(redundancy_rate(&pft, |e| e * WORLD / E));
            let a = gather_rows(x, &pft.token_ids);
            let (mut hid, mut y) = (vec![0.0f32; pft.len() * F], vec![0.0f32; pft.len() * H]);
            let counts = &pft.tokens_per_expert;
            tr.time("tensor.expert_gemm", || {
                gemm_grouped(
                    a.as_slice(),
                    counts,
                    H,
                    |e| full.experts[e].w1.as_slice(),
                    F,
                    &mut hid,
                );
                gemm_grouped(
                    &hid,
                    counts,
                    F,
                    |e| full.experts[e].w2.as_slice(),
                    H,
                    &mut y,
                );
            });
            self.gemm_flops += 4.0 * (pft.len() * H * F) as f64;
        }
    }
}

fn session(seed: u64, window: f64, traced: bool) -> Vec<RankRun<Rank>> {
    let t0 = Instant::now();
    let router = Router::new(H, E, K, seed);
    let spec = MoeLayerSpec::new(E, capacity());
    let pipe = RbdPipeline {
        policy: PilotPolicy::Random,
    };
    let (router, spec, pipe) = (&router, &spec, &pipe);
    closed_loop(
        t0,
        window,
        traced,
        |ctx| {
            let rank = ctx.rank;
            let mut r = Rank {
                shard: ExpertShard::for_rank(rank, WORLD, E, H, F, seed ^ 0xE7),
                inputs: (0..INPUTS)
                    .map(|i| {
                        Tensor::rand_uniform(
                            TOKENS,
                            H,
                            1.0,
                            seed ^ (0x70C0 + (rank * INPUTS + i) as u64),
                        )
                    })
                    .collect(),
                comms: RbdComms::create(&ctx.world, &mut ctx.clock)
                    .expect("no faults are injected"),
                state: PooledSingleState::default(),
                rng: DetRng::new(seed ^ (0x9170 + rank as u64)),
                step: 0,
                last: vec![None; INPUTS],
                warmup_bits: Vec::new(),
                max_diff: 0.0,
                compared: 0,
                pft_sim_s: 0.0,
                pft_inter_bytes: 0,
                kept: 0,
                routed: 0,
                redundancy: Vec::new(),
                gemm_flops: 0.0,
            };
            for i in 0..WARMUP_STEPS {
                let out = r
                    .forward(i % INPUTS, pipe, router, spec, ctx)
                    .expect("no faults are injected");
                ctx.clock.reset_buckets();
                r.warmup_bits
                    .extend(out.as_slice().iter().map(|v| v.to_bits()));
            }
            r
        },
        |_| {},
        |r, ctx, tr| {
            let i = r.step % INPUTS;
            r.step += 1;
            let res = match tr {
                Some(tr) => tr.time("core.rbd_forward", || r.forward(i, pipe, router, spec, ctx)),
                None => r.forward(i, pipe, router, spec, ctx),
            };
            match res {
                Ok(out) => {
                    if let Some(old) = r.last[i].replace(out) {
                        r.state.ws.recycle(old);
                    }
                    true
                }
                Err(_) => false,
            }
        },
        |r, ctx, tr| {
            r.compare_with_pft(router, spec, ctx);
            if let Some(tr) = tr {
                r.replay(tr, router, spec, seed);
            }
        },
    )
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // End-to-end numbers come only from the untraced sessions.
    let window = if traced { seconds / 2.0 } else { seconds };

    let mut first_warmup: Vec<Vec<u32>> = Vec::new();
    let (mut max_diff, mut compared) = (0.0f32, 0usize);
    let sessions = run_sessions(seed, window, |k, seed_k, share| {
        let mut rs = session(seed_k, share, false);
        if k == 0 {
            first_warmup = rs
                .iter_mut()
                .map(|r| std::mem::take(&mut r.work.warmup_bits))
                .collect();
        }
        max_diff = rs.iter().map(|r| r.work.max_diff).fold(max_diff, f32::max);
        compared += rs.iter().map(|r| r.work.compared).sum::<usize>();
        session_timed(&mut rs)
    });
    let again: Vec<Vec<u32>> = session(session_seed(seed, 0), 0.0, false)
        .into_iter()
        .map(|r| r.work.warmup_bits)
        .collect();
    out.check(
        "RBD output repeats bitwise",
        again == first_warmup,
        format!("session 0 set up again, {WARMUP_STEPS} warm-up forwards compared"),
    );
    out.check(
        "RBD output matches PaddingFreePipeline within 2e-4",
        max_diff <= TOL && compared == SESSIONS * WORLD * INPUTS,
        format!("max abs diff {max_diff:.3e} over {compared} (session, rank, input) outputs"),
    );
    let untraced_ms: Vec<f64> = sessions.iter().flat_map(|t| t.step_ms.clone()).collect();
    out.set_sessions(sessions, (WORLD * TOKENS) as f64);

    if traced {
        let rs = session(session_seed(seed, 0), window, true);
        let r0 = &rs[0];
        let traced_ms: Vec<f64> = trace::durations(&r0.spans, "core.rbd_forward")
            .iter()
            .map(|d| d * 1e3)
            .collect();
        let n = r0.sim.steps.max(1) as f64;
        let sim_ms = r0.sim.total_s * 1e3 / n;
        out.set("sim.step_ms", sim_ms);
        out.set("sim.pft_step_ms", r0.work.pft_sim_s * 1e3 / INPUTS as f64);
        for (metric, stage) in [
            ("sim.gating_us", "gating"),
            ("sim.buffer_dispatch_us", "buffer_dispatch"),
            ("sim.dispatch_a2a_us", "dispatch_a2a"),
            ("sim.expert_us", "expert"),
            ("sim.combine_a2a_us", "combine_a2a"),
            ("sim.buffer_combine_us", "buffer_combine"),
            ("sim.sync_wait_us", "sync_wait"),
            ("sim.other_us", "other"),
        ] {
            out.set(metric, r0.sim.stage_ms(stage) * 1e3);
        }
        for (stage, _) in &r0.sim.stages {
            out.sim_stages.push((stage, r0.sim.stage_ms(stage)));
        }
        out.sim_stages.push(("Total", sim_ms));

        let per_rank = |f: &dyn Fn(&RankRun<Rank>) -> f64| rs.iter().map(f).sum::<f64>() / n;
        out.set(
            "collectives.inter_node_mb_per_step",
            per_rank(&|r| r.traffic.off_node() as f64) / 1e6,
        );
        out.set(
            "collectives.intra_node_mb_per_step",
            per_rank(&|r| r.traffic.intra_node as f64) / 1e6,
        );
        out.set(
            "collectives.pft_inter_node_mb_per_step",
            rs.iter()
                .map(|r| r.work.pft_inter_bytes as f64)
                .sum::<f64>()
                / INPUTS as f64
                / 1e6,
        );
        out.set(
            "collectives.a2a_spans_per_step",
            r0.sim.a2a_spans as f64 / n,
        );
        out.set(
            "collectives.allreduce_spans_per_step",
            r0.sim.allreduce_spans as f64 / n,
        );
        out.set("collectives.sim_ms_per_step", sim_ms);
        out.set(
            "collectives.sim_sync_wait_ms_per_step",
            r0.sim.wait_s * 1e3 / n,
        );

        let selft: Vec<_> = rs.iter().map(|r| trace::self_times(&r.spans)).collect();
        let replay_ms = |name: &str| {
            mean(
                &selft
                    .iter()
                    .map(|s| s.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ) * 1e3
                / INPUTS as f64
        };
        out.set("core.gating_ms", replay_ms("core.gating"));
        out.set("core.pft_build_ms", replay_ms("core.pft_build"));
        let kept: usize = rs.iter().map(|r| r.work.kept).sum();
        let routed: usize = rs.iter().map(|r| r.work.routed).sum();
        out.set("core.pft_kept_ratio", kept as f64 / routed.max(1) as f64);
        out.set(
            "core.rbd_redundancy_rate",
            mean(
                &rs.iter()
                    .flat_map(|r| r.work.redundancy.clone())
                    .collect::<Vec<_>>(),
            ),
        );
        let gemm_ms = replay_ms("tensor.expert_gemm");
        out.set("tensor.expert_gemm_ms", gemm_ms);
        let flops = rs.iter().map(|r| r.work.gemm_flops).sum::<f64>() / (WORLD * INPUTS) as f64;
        out.set(
            "tensor.expert_gemm_gflops",
            flops / (gemm_ms / 1e3).max(1e-12) / 1e9,
        );

        let fwd_ms = mean(&traced_ms);
        out.wall_stages.push(("core.rbd_forward", fwd_ms));
        out.wall_stages.push(("unattributed", 0.0));
        out.wall_stages.push(("Total", fwd_ms));
        out.set("bench.unattributed_ms", 0.0);
        crate::set_overhead(&mut out, &untraced_ms, &traced_ms);
        out.spans = rs.into_iter().flat_map(|r| r.spans).collect();
    }
    out
}
