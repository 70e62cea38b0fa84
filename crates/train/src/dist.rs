//! Distributed expert-parallel training: the full forward **and backward**
//! of the padding-free MoE layer across an EP group, with exactly the
//! paper's communication pattern — two uneven all-to-alls forward and two
//! mirrored ones backward (4 per layer per step, §4.3).
//!
//! The gradient transport reuses [`EpRoute`]: `to_experts`/`to_source`
//! form an adjoint pair (each is a bijective row relocation), so
//! activation gradients travel the forward route in reverse:
//!
//! ```text
//! forward:  dispatch_in --to_experts--> expert_input -> y --to_source--> combine_in
//! backward: d_combine   --to_experts--> d_y -> d_expert_in --to_source--> d_dispatch
//! ```
//!
//! Dense/router/embedding parameters are replicated across ranks and
//! synchronized by averaging gradients (ZeRO-0-style DP); expert weights
//! live on exactly one rank (EP = world) and their gradients are already
//! global because every rank's tokens were dispatched to them.

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_core::gating::{DropPolicy, GatingOutput};
use xmoe_core::pft::Pft;
use xmoe_core::pipeline::padding_free::EpRoute;
use xmoe_core::pipeline::MoeLayerSpec;
use xmoe_tensor::{
    add_assign, gather_rows, matmul, matmul_transpose_a, matmul_transpose_b, scale_assign,
    scatter_rows_scaled, scatter_rows_unit, softmax_rows, topk_rows, Tensor,
};

use crate::adam::Adam;
use crate::attention::Attention;
use crate::checkpoint::Checkpoint;
use crate::elastic::{ElasticRoute, ExpertAssignment};
use crate::layers::{DenseMlp, Embedding, Head};
use crate::moe_layer::TrainableMoe;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

/// A trainable MoE layer whose experts are sharded across an EP group.
#[derive(Clone, Debug)]
pub struct DistMoe {
    /// Replicated router `[H, E]`.
    pub gate: Tensor,
    pub g_gate: Tensor,
    /// This rank's expert blocks `(w1 [H,F], w2 [F,H])`, one per entry of
    /// `local_experts`.
    pub shard: Vec<(Tensor, Tensor)>,
    pub g_shard: Vec<(Tensor, Tensor)>,
    /// Global ids of this rank's local experts, ascending — under the
    /// classic layout a contiguous range, under an elastic assignment any
    /// subset (including replicas of experts other ranks also hold).
    pub local_experts: Vec<usize>,
    /// The full expert→holders map this layer routes by.
    pub assignment: ExpertAssignment,
    /// This rank's dense index in the EP group.
    pub dense_rank: usize,
    /// Expert FFN dimensions, kept explicitly so empty shards (a rank
    /// holding no expert of this layer) stay well-formed.
    pub hidden: usize,
    pub ffn: usize,
    pub num_experts: usize,
    pub top_k: usize,
    pub capacity: usize,
    pub policy: DropPolicy,
}

/// The route a forward pass traveled: the specialized uniform-contiguous
/// [`EpRoute`] (overlap path) or the general [`ElasticRoute`]. Both
/// regroup rows expert-major in (local expert, source rank, source PFT
/// order), so the backward pass is agnostic to which one carried the
/// tokens.
pub enum RouteKind {
    Ep(EpRoute),
    Elastic(ElasticRoute),
}

impl RouteKind {
    fn pft(&self) -> &Pft {
        match self {
            RouteKind::Ep(r) => &r.pft,
            RouteKind::Elastic(r) => &r.pft,
        }
    }

    fn to_experts(
        &self,
        rows: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        match self {
            RouteKind::Ep(r) => r.to_experts(rows, ep, clock),
            RouteKind::Elastic(r) => r.to_experts(rows, ep, clock),
        }
    }

    fn to_source(
        &self,
        rows: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        match self {
            RouteKind::Ep(r) => r.to_source(rows, ep, clock),
            RouteKind::Elastic(r) => r.to_source(rows, ep, clock),
        }
    }
}

/// Saved forward state of one distributed MoE layer.
pub struct DistMoeCtx {
    x: Tensor,
    scores: Tensor,
    route: RouteKind,
    /// Expert-major saves on the *expert* side.
    expert_input: Tensor,
    h_pre: Tensor,
    h_act: Tensor,
    seg_offsets: Vec<usize>,
    /// Expert outputs returned to the *source* side, in PFT order.
    combine_in: Tensor,
}

impl DistMoeCtx {
    /// PFT of this layer's forward (global expert ids, source order).
    pub fn pft(&self) -> &Pft {
        self.route.pft()
    }
}

impl DistMoe {
    /// Shard a single-rank [`TrainableMoe`] across `world` ranks under the
    /// balanced contiguous assignment (rank `r` takes experts
    /// `[r·E/W, (r+1)·E/W)` — the classic layout when the shape divides,
    /// a ragged `{⌊E/W⌋, ⌈E/W⌉}`-per-rank split when it does not);
    /// everyone replicates the router. Used to check the distributed path
    /// against the single-rank one.
    pub fn from_trainable(full: &TrainableMoe, rank: usize, world: usize) -> Self {
        let assignment = ExpertAssignment::contiguous(full.num_experts(), world);
        Self::from_trainable_with_assignment(full, rank, assignment)
    }

    /// Shard a single-rank [`TrainableMoe`] under an arbitrary
    /// [`ExpertAssignment`]: this rank takes a full copy of every expert
    /// the assignment lists it as holding (replicas included).
    pub fn from_trainable_with_assignment(
        full: &TrainableMoe,
        rank: usize,
        assignment: ExpertAssignment,
    ) -> Self {
        let e = full.num_experts();
        assert_eq!(
            assignment.n_experts(),
            e,
            "assignment expert count mismatch"
        );
        assert!(rank < assignment.n_ranks(), "rank outside the assignment");
        let local_experts = assignment.experts_on(rank);
        let shard: Vec<(Tensor, Tensor)> = local_experts
            .iter()
            .map(|&g| full.experts[g].clone())
            .collect();
        let g_shard = shard
            .iter()
            .map(|(a, b)| {
                (
                    Tensor::zeros(a.rows(), a.cols()),
                    Tensor::zeros(b.rows(), b.cols()),
                )
            })
            .collect();
        let (hidden, ffn) = full.experts[0].0.shape();
        Self {
            gate: full.gate.clone(),
            g_gate: Tensor::zeros(full.gate.rows(), full.gate.cols()),
            shard,
            g_shard,
            local_experts,
            dense_rank: rank,
            assignment,
            hidden,
            ffn,
            num_experts: e,
            top_k: full.top_k,
            capacity: full.capacity,
            policy: full.policy,
        }
    }

    fn spec(&self) -> MoeLayerSpec {
        MoeLayerSpec::new(self.num_experts, self.capacity).with_policy(self.policy)
    }

    /// Distributed forward: `out = x + combine(experts(dispatch(x)))`.
    pub fn forward(
        &self,
        x: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<(Tensor, DistMoeCtx), CommError> {
        let hidden = x.cols();
        let logits = matmul(x, &self.gate);
        let mut scores = logits.clone();
        softmax_rows(&mut scores);
        let (top_experts, combine_weights) = topk_rows(&scores, self.top_k);
        let top_logits = top_experts
            .iter()
            .enumerate()
            .map(|(i, &e)| logits.get(i / self.top_k, e))
            .collect();
        let gating = GatingOutput {
            top_experts,
            combine_weights,
            top_logits,
            k: self.top_k,
            scores: scores.clone(),
        };
        let pft = Pft::construct(&gating, self.num_experts, self.capacity, self.policy);

        let dispatch_in = gather_rows(x, &pft.token_ids);
        // The general route serves any assignment; on the uniform layout it
        // is bitwise- and price-identical to the specialized `EpRoute`.
        let route = ElasticRoute::build(pft, &self.assignment, ep, clock)?;
        clock.commit("dispatch_a2a_meta");
        let expert_input = route.to_experts(&dispatch_in, ep, clock)?;
        clock.commit("dispatch_a2a");

        // Per-expert FFN over expert-major segments, saving intermediates.
        let f = self.ffn;
        let total = expert_input.rows();
        let mut h_pre = Tensor::zeros(total, f);
        let mut h_act = Tensor::zeros(total, f);
        let mut y = Tensor::zeros(total, hidden);
        let mut seg_offsets = Vec::with_capacity(self.shard.len() + 1);
        seg_offsets.push(0);
        let mut row = 0usize;
        for (e, &cnt) in route.tokens_per_local_expert.iter().enumerate() {
            if cnt > 0 {
                let seg = expert_input.slice_rows(row, row + cnt);
                let pre = matmul(&seg, &self.shard[e].0);
                let mut act = pre.clone();
                for v in act.as_mut_slice() {
                    *v *= sigmoid(*v);
                }
                let out = matmul(&act, &self.shard[e].1);
                h_pre.as_mut_slice()[row * f..(row + cnt) * f].copy_from_slice(pre.as_slice());
                h_act.as_mut_slice()[row * f..(row + cnt) * f].copy_from_slice(act.as_slice());
                y.as_mut_slice()[row * hidden..(row + cnt) * hidden]
                    .copy_from_slice(out.as_slice());
            }
            row += cnt;
            seg_offsets.push(row);
        }

        let combine_in = route.to_source(&y, ep, clock)?;
        clock.commit("combine_a2a");

        let mut out = x.clone();
        scatter_rows_scaled(
            &combine_in,
            &route.pft.token_ids,
            &route.pft.combine_weights,
            &mut out,
        );
        Ok((
            out,
            DistMoeCtx {
                x: x.clone(),
                scores,
                route: RouteKind::Elastic(route),
                expert_input,
                h_pre,
                h_act,
                seg_offsets,
                combine_in,
            },
        ))
    }

    /// Chunked-overlap distributed forward: bitwise-identical numerics to
    /// [`forward`](Self::forward), with the dispatch and combine all-to-alls
    /// split into `chunks` expert-major chunks pipelined against the
    /// per-expert FFNs via [`EpRoute::exchange_overlap`]. The train path
    /// charges no simulated compute for expert GEMMs (matching the serial
    /// forward), so the schedule — not the clock — is what changes here;
    /// the priced overlap win is measured in `xmoe-core`/`bench overlap`.
    pub fn forward_overlap(
        &self,
        x: &Tensor,
        chunks: usize,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<(Tensor, DistMoeCtx), CommError> {
        assert!(
            self.assignment.is_uniform_contiguous(),
            "the chunked-overlap path specializes the uniform contiguous \
             expert layout; elastic assignments take the serial path"
        );
        let hidden = x.cols();
        let logits = matmul(x, &self.gate);
        let mut scores = logits.clone();
        softmax_rows(&mut scores);
        let (top_experts, combine_weights) = topk_rows(&scores, self.top_k);
        let top_logits = top_experts
            .iter()
            .enumerate()
            .map(|(i, &e)| logits.get(i / self.top_k, e))
            .collect();
        let gating = GatingOutput {
            top_experts,
            combine_weights,
            top_logits,
            k: self.top_k,
            scores: scores.clone(),
        };
        let pft = Pft::construct(&gating, self.num_experts, self.capacity, self.policy);

        let dispatch_in = gather_rows(x, &pft.token_ids);
        let route = EpRoute::build(pft, &self.spec(), ep, clock)?;
        clock.commit("dispatch_a2a_meta");

        let f = self.ffn;
        let counts = route.tokens_per_local_expert.clone();
        let mut seg_offsets = Vec::with_capacity(self.shard.len() + 1);
        seg_offsets.push(0usize);
        for &cnt in &counts {
            seg_offsets.push(seg_offsets.last().unwrap() + cnt);
        }
        let total = *seg_offsets.last().unwrap();
        let mut expert_input = Tensor::zeros(total, hidden);
        let mut h_pre = Tensor::zeros(total, f);
        let mut h_act = Tensor::zeros(total, f);

        let combine_in = route.exchange_overlap(
            &dispatch_in,
            chunks,
            ("dispatch_a2a", "expert", "combine_a2a"),
            ep,
            clock,
            |_c, plan, chunk_in, _clock| {
                // Chunk c covers local experts [e0, e1); its rows are the
                // expert-major slice [seg_offsets[e0], seg_offsets[e1]) of
                // the full buffer, so saving them in place reproduces the
                // serial `expert_input`/`h_pre`/`h_act` exactly.
                let (e0, e1) = plan.experts;
                let row0 = seg_offsets[e0];
                expert_input.as_mut_slice()[row0 * hidden..(row0 + chunk_in.rows()) * hidden]
                    .copy_from_slice(chunk_in.as_slice());
                let mut y_chunk = Tensor::zeros(chunk_in.rows(), hidden);
                let mut row = 0usize;
                for e in e0..e1 {
                    let cnt = counts[e];
                    if cnt > 0 {
                        let seg = chunk_in.slice_rows(row, row + cnt);
                        let pre = matmul(&seg, &self.shard[e].0);
                        let mut act = pre.clone();
                        for v in act.as_mut_slice() {
                            *v *= sigmoid(*v);
                        }
                        let out = matmul(&act, &self.shard[e].1);
                        let g0 = row0 + row;
                        h_pre.as_mut_slice()[g0 * f..(g0 + cnt) * f]
                            .copy_from_slice(pre.as_slice());
                        h_act.as_mut_slice()[g0 * f..(g0 + cnt) * f]
                            .copy_from_slice(act.as_slice());
                        y_chunk.as_mut_slice()[row * hidden..(row + cnt) * hidden]
                            .copy_from_slice(out.as_slice());
                    }
                    row += cnt;
                }
                y_chunk
            },
        )?;

        let mut out = x.clone();
        scatter_rows_scaled(
            &combine_in,
            &route.pft.token_ids,
            &route.pft.combine_weights,
            &mut out,
        );
        Ok((
            out,
            DistMoeCtx {
                x: x.clone(),
                scores,
                route: RouteKind::Ep(route),
                expert_input,
                h_pre,
                h_act,
                seg_offsets,
                combine_in,
            },
        ))
    }

    /// Distributed backward: accumulates local grads, returns `d_x`.
    /// Mirrors the forward route with two more all-to-alls.
    pub fn backward(
        &mut self,
        ctx: &DistMoeCtx,
        d_out: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let hidden = ctx.x.cols();
        let pft = ctx.route.pft();
        let b = pft.len();
        let mut d_x = d_out.clone(); // residual

        // Source side: d_combine rows (PFT order) and combine-weight grads.
        let mut d_combine = gather_rows(d_out, &pft.token_ids);
        let mut d_w = vec![0.0f32; b];
        for i in 0..b {
            let w = ctx.route.pft().combine_weights[i];
            let y_row = ctx.combine_in.row(i);
            let dc = d_combine.row_mut(i);
            d_w[i] = xmoe_tensor::dot_and_scale(dc, y_row, w);
        }

        // Backward all-to-all #1: gradients to the expert side.
        let d_y = ctx.route.to_experts(&d_combine, ep, clock)?;
        clock.commit("bwd_combine_a2a");

        // Expert FFN backward over segments; expert grads stay local.
        let mut d_expert_in = Tensor::zeros(ctx.expert_input.rows(), hidden);
        for e in 0..self.shard.len() {
            let (start, end) = (ctx.seg_offsets[e], ctx.seg_offsets[e + 1]);
            if start == end {
                continue;
            }
            let seg_x = ctx.expert_input.slice_rows(start, end);
            let seg_pre = ctx.h_pre.slice_rows(start, end);
            let seg_act = ctx.h_act.slice_rows(start, end);
            let seg_dy = d_y.slice_rows(start, end);
            let dw2 = matmul_transpose_a(&seg_act, &seg_dy);
            add_assign(&mut self.g_shard[e].1, &dw2);
            let mut d_h = matmul_transpose_b(&seg_dy, &self.shard[e].1);
            for (d, &pre) in d_h.as_mut_slice().iter_mut().zip(seg_pre.as_slice()) {
                *d *= silu_grad(pre);
            }
            let dw1 = matmul_transpose_a(&seg_x, &d_h);
            add_assign(&mut self.g_shard[e].0, &dw1);
            let d_seg = matmul_transpose_b(&d_h, &self.shard[e].0);
            d_expert_in.as_mut_slice()[start * hidden..end * hidden]
                .copy_from_slice(d_seg.as_slice());
        }

        // Backward all-to-all #2: dispatch gradients back to sources.
        let d_dispatch = ctx.route.to_source(&d_expert_in, ep, clock)?;
        clock.commit("bwd_dispatch_a2a");
        let pft = ctx.route.pft();
        scatter_rows_unit(&d_dispatch, &pft.token_ids, &mut d_x);

        // Router backward (local; router is replicated).
        let e_count = self.num_experts;
        let mut d_scores = Tensor::zeros(ctx.x.rows(), e_count);
        for i in 0..b {
            let t = pft.token_ids[i];
            let e = pft.expert_ids[i];
            let v = d_scores.get(t, e);
            d_scores.set(t, e, v + d_w[i]);
        }
        let mut d_logits = Tensor::zeros(ctx.x.rows(), e_count);
        for t in 0..ctx.x.rows() {
            let s_row = ctx.scores.row(t);
            let ds_row = d_scores.row(t);
            let inner: f32 = s_row.iter().zip(ds_row).map(|(s, d)| s * d).sum();
            let dl = d_logits.row_mut(t);
            for j in 0..e_count {
                dl[j] = s_row[j] * (ds_row[j] - inner);
            }
        }
        let dg = matmul_transpose_a(&ctx.x, &d_logits);
        add_assign(&mut self.g_gate, &dg);
        let d_x_gate = matmul_transpose_b(&d_logits, &self.gate);
        add_assign(&mut d_x, &d_x_gate);
        Ok(d_x)
    }

    /// Chunked-overlap distributed backward: bitwise-identical gradients to
    /// [`backward`](Self::backward). The backward chain has the same shape
    /// as the forward one — a dispatch-direction all-to-all (`d_combine` to
    /// the expert side), per-expert GEMMs, and a combine-direction
    /// all-to-all (`d_expert_in` back to sources) — so it pipelines through
    /// the same [`EpRoute::exchange_overlap`] primitive.
    pub fn backward_overlap(
        &mut self,
        ctx: &DistMoeCtx,
        d_out: &Tensor,
        chunks: usize,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let RouteKind::Ep(route) = &ctx.route else {
            panic!("backward_overlap requires a forward_overlap context (EpRoute)");
        };
        let hidden = ctx.x.cols();
        let b = route.pft.len();
        let mut d_x = d_out.clone(); // residual

        let mut d_combine = gather_rows(d_out, &route.pft.token_ids);
        let mut d_w = vec![0.0f32; b];
        for i in 0..b {
            let w = route.pft.combine_weights[i];
            let y_row = ctx.combine_in.row(i);
            let dc = d_combine.row_mut(i);
            d_w[i] = xmoe_tensor::dot_and_scale(dc, y_row, w);
        }

        let shard = &self.shard;
        let g_shard = &mut self.g_shard;
        let d_dispatch = route.exchange_overlap(
            &d_combine,
            chunks,
            ("bwd_combine_a2a", "bwd_expert", "bwd_dispatch_a2a"),
            ep,
            clock,
            |_c, plan, chunk_dy, _clock| {
                let (e0, e1) = plan.experts;
                let mut d_chunk = Tensor::zeros(chunk_dy.rows(), hidden);
                let mut row = 0usize;
                for e in e0..e1 {
                    let (start, end) = (ctx.seg_offsets[e], ctx.seg_offsets[e + 1]);
                    let cnt = end - start;
                    if cnt > 0 {
                        let seg_x = ctx.expert_input.slice_rows(start, end);
                        let seg_pre = ctx.h_pre.slice_rows(start, end);
                        let seg_act = ctx.h_act.slice_rows(start, end);
                        let seg_dy = chunk_dy.slice_rows(row, row + cnt);
                        let dw2 = matmul_transpose_a(&seg_act, &seg_dy);
                        add_assign(&mut g_shard[e].1, &dw2);
                        let mut d_h = matmul_transpose_b(&seg_dy, &shard[e].1);
                        for (d, &pre) in d_h.as_mut_slice().iter_mut().zip(seg_pre.as_slice()) {
                            *d *= silu_grad(pre);
                        }
                        let dw1 = matmul_transpose_a(&seg_x, &d_h);
                        add_assign(&mut g_shard[e].0, &dw1);
                        let d_seg = matmul_transpose_b(&d_h, &shard[e].0);
                        d_chunk.as_mut_slice()[row * hidden..(row + cnt) * hidden]
                            .copy_from_slice(d_seg.as_slice());
                    }
                    row += cnt;
                }
                d_chunk
            },
        )?;
        scatter_rows_unit(&d_dispatch, &route.pft.token_ids, &mut d_x);

        // Router backward (local; router is replicated) — identical to the
        // serial path.
        let e_count = self.num_experts;
        let mut d_scores = Tensor::zeros(ctx.x.rows(), e_count);
        for i in 0..b {
            let t = route.pft.token_ids[i];
            let e = route.pft.expert_ids[i];
            let v = d_scores.get(t, e);
            d_scores.set(t, e, v + d_w[i]);
        }
        let mut d_logits = Tensor::zeros(ctx.x.rows(), e_count);
        for t in 0..ctx.x.rows() {
            let s_row = ctx.scores.row(t);
            let ds_row = d_scores.row(t);
            let inner: f32 = s_row.iter().zip(ds_row).map(|(s, d)| s * d).sum();
            let dl = d_logits.row_mut(t);
            for j in 0..e_count {
                dl[j] = s_row[j] * (ds_row[j] - inner);
            }
        }
        let dg = matmul_transpose_a(&ctx.x, &d_logits);
        add_assign(&mut self.g_gate, &dg);
        let d_x_gate = matmul_transpose_b(&d_logits, &self.gate);
        add_assign(&mut d_x, &d_x_gate);
        Ok(d_x)
    }

    pub fn zero_grads(&mut self) {
        for v in self.g_gate.as_mut_slice() {
            *v = 0.0;
        }
        for (a, b) in &mut self.g_shard {
            for v in a.as_mut_slice() {
                *v = 0.0;
            }
            for v in b.as_mut_slice() {
                *v = 0.0;
            }
        }
    }

    /// Checkpointed forward: compute the output but save only the layer
    /// input. The §4.3 trade-off made executable — the backward pass must
    /// recompute the forward, *including its two all-to-alls*, so a
    /// checkpointed MoE layer costs 6 all-to-alls per step instead of 4.
    pub fn forward_ckpt(
        &self,
        x: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<(Tensor, Tensor), CommError> {
        let (out, _ctx) = self.forward(x, ep, clock)?;
        // Discard the context; keep only the input.
        Ok((out, x.clone()))
    }

    /// Backward for a checkpointed layer: recompute forward from the saved
    /// input (2 extra all-to-alls, labelled `dispatch_a2a`/`combine_a2a`
    /// again), then run the normal backward (2 more).
    pub fn backward_ckpt(
        &mut self,
        saved_input: &Tensor,
        d_out: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let (_, ctx) = self.forward(saved_input, ep, clock)?;
        self.backward(&ctx, d_out, ep, clock)
    }
}

/// Mutable hook over an activation buffer — the chaos engine's `site=act`
/// injection point in [`DistMoeLm::forward_backward_hooked`].
pub type ActHook<'a> = &'a mut dyn FnMut(&mut [f32]);

/// A data+expert-parallel MoE language model: one rank's replica of the
/// dense stack plus its expert shards, with gradient synchronization over
/// the world communicator.
/// One distributed transformer block.
pub struct DistBlock {
    pub attn: Option<Attention>,
    pub mlp: DenseMlp,
    pub moe: DistMoe,
}

pub struct DistMoeLm {
    pub embed: Embedding,
    pub blocks: Vec<DistBlock>,
    pub head: Head,
    opt: Adam,
    world_size: usize,
    seq_len: usize,
    /// When set, every step appends each token's route (this rank's dense
    /// index + the chosen global experts) — the rebalance histogram feed.
    track_routes: bool,
    route_samples: Vec<(u32, Vec<u16>)>,
}

impl DistMoeLm {
    /// Shard a single-rank reference model (see
    /// [`crate::model::MoeLm`]-equivalent construction in tests) across
    /// `world` ranks under the balanced contiguous expert assignment. All
    /// replicated parameters start identical.
    pub fn new(
        cfg: &crate::model::TrainConfig,
        full_layers: &[TrainableMoe],
        rank: usize,
        world: usize,
    ) -> Self {
        let assignment = ExpertAssignment::contiguous(cfg.num_experts, world);
        Self::new_with_assignment(cfg, full_layers, rank, assignment)
    }

    /// [`Self::new`] under an arbitrary [`ExpertAssignment`] (the layout a
    /// rebalance decision produced, or a solved placement).
    pub fn new_with_assignment(
        cfg: &crate::model::TrainConfig,
        full_layers: &[TrainableMoe],
        rank: usize,
        assignment: ExpertAssignment,
    ) -> Self {
        let world = assignment.n_ranks();
        let blocks = full_layers
            .iter()
            .enumerate()
            .map(|(l, full)| {
                let s = cfg.seed.wrapping_add(l as u64 * 7001);
                DistBlock {
                    attn: cfg
                        .use_attention
                        .then(|| Attention::new(cfg.hidden, cfg.n_heads, s ^ 0xA77)),
                    mlp: DenseMlp::new(cfg.hidden, cfg.hidden * 2, s),
                    moe: DistMoe::from_trainable_with_assignment(full, rank, assignment.clone()),
                }
            })
            .collect();
        Self {
            embed: Embedding::new(cfg.vocab, cfg.hidden, cfg.seed),
            head: Head::new(cfg.hidden, cfg.vocab, cfg.seed ^ 0x4EAD),
            blocks,
            opt: Adam::new(cfg.lr),
            world_size: world,
            seq_len: cfg.seq_len,
            track_routes: false,
            route_samples: Vec::new(),
        }
    }

    /// The expert assignment every block routes by.
    pub fn assignment(&self) -> &ExpertAssignment {
        &self.blocks[0].moe.assignment
    }

    /// Enable/disable per-step route collection for the rebalance
    /// histogram (off by default; costs one pass over each block's PFT).
    pub fn set_route_tracking(&mut self, on: bool) {
        self.track_routes = on;
        if !on {
            self.route_samples.clear();
        }
    }

    /// Drain the routes collected since the last call: `(src dense rank,
    /// global experts chosen)` per routed token, in step order.
    pub fn take_route_samples(&mut self) -> Vec<(u32, Vec<u16>)> {
        std::mem::take(&mut self.route_samples)
    }

    /// Add `delta` to the router logit column of `expert` in every block —
    /// the deterministic skew injector benches and tests drive hot-expert
    /// scenarios with. The bias lives in the (replicated, checkpointed)
    /// gate weights, so trajectories stay comparable across restores.
    pub fn bias_router(&mut self, expert: usize, delta: f32) {
        for block in &mut self.blocks {
            let gate = &mut block.moe.gate;
            for r in 0..gate.rows() {
                let v = gate.get(r, expert);
                gate.set(r, expert, v + delta);
            }
        }
    }

    /// One training step over this rank's local batch, with gradient
    /// averaging across the world and a local Adam update (replicated
    /// parameters stay bitwise-identical across ranks because they see
    /// identical averaged gradients).
    ///
    /// Composed from the phase methods below in the canonical order; the
    /// guarded chaos step composes the same phases with detection and
    /// injection hooks in between, so both paths share one set of float
    /// operations and the unguarded trajectory is bitwise-unchanged.
    pub fn train_step(
        &mut self,
        batch: &[Vec<usize>],
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<f64, CommError> {
        let local_loss = self.forward_backward(batch, world, clock)?;
        self.sync_grads(world, clock)?;
        self.apply_update();
        self.reduce_loss(local_loss, world, clock)
    }

    /// Phase 1: forward + backward over the local batch, accumulating
    /// gradients. Returns the local mean loss.
    pub fn forward_backward(
        &mut self,
        batch: &[Vec<usize>],
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<f64, CommError> {
        self.forward_backward_hooked(batch, 1.0, None, world, clock)
    }

    /// Phase 1 with guard hooks: `loss_scale` multiplies the head gradient
    /// (a power of two keeps scaling bitwise-invertible), and `act_hook`
    /// — when present — runs over the pre-head activation buffer, which is
    /// where the chaos engine injects `site=act` corruption.
    pub fn forward_backward_hooked(
        &mut self,
        batch: &[Vec<usize>],
        loss_scale: f32,
        act_hook: Option<ActHook<'_>>,
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<f64, CommError> {
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for seq in batch {
            for w in seq.windows(2) {
                inputs.push(w[0]);
                targets.push(w[1]);
            }
        }
        let mut x = self.embed.forward(&inputs);
        let mut ctxs = Vec::new();
        for block in &self.blocks {
            let attn_ctx = block.attn.as_ref().map(|a| {
                let (x1, c) = a.forward(&x, self.seq_len);
                x = x1;
                c
            });
            let (x1, c1) = block.mlp.forward(&x);
            let (x2, c2) = block.moe.forward(&x1, world, clock)?;
            ctxs.push((attn_ctx, c1, c2));
            x = x2;
        }
        if self.track_routes {
            // Regroup each block's expert-major PFT back into per-token
            // routes (expert ids come out ascending per token —
            // deterministic), tagged with this rank's dense index.
            let me = world.rank() as u32;
            for (_, _, c2) in &ctxs {
                let pft = c2.pft();
                let mut per_tok: Vec<Vec<u16>> = vec![Vec::new(); inputs.len()];
                for (i, &t) in pft.token_ids.iter().enumerate() {
                    per_tok[t].push(pft.expert_ids[i] as u16);
                }
                for experts in per_tok {
                    if !experts.is_empty() {
                        self.route_samples.push((me, experts));
                    }
                }
            }
        }
        if let Some(hook) = act_hook {
            hook(x.as_mut_slice());
        }
        // The scale enters inside the head backward, at `d_logits`, so the
        // head's own weight gradient carries it like every other gradient
        // (scaling the returned `d_x` here would leave `head.grad`
        // unscaled and the later exact unscale would shrink it).
        let (local_loss, mut d_x) = self.head.loss_and_backward_scaled(&x, &targets, loss_scale);
        for (block, (ca, c1, c2)) in self.blocks.iter_mut().zip(&ctxs).rev() {
            d_x = block.moe.backward(c2, &d_x, world, clock)?;
            d_x = block.mlp.backward(c1, &d_x);
            if let (Some(a), Some(c)) = (block.attn.as_mut(), ca.as_ref()) {
                d_x = a.backward(c, &d_x);
            }
        }
        self.embed.backward(&inputs, &d_x);
        Ok(local_loss)
    }

    /// Phase 2: gradient synchronization.
    ///
    /// Global loss is the average of per-rank means (equal token counts),
    /// so every gradient carries a 1/W factor; replicated parameters
    /// additionally all-reduce. Expert grads are already global (every
    /// rank's tokens were dispatched there); they only need the scaling.
    pub fn sync_grads(
        &mut self,
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<(), CommError> {
        let inv = 1.0 / self.world_size as f32;
        fn reduce_avg(
            t: &mut Tensor,
            inv: f32,
            world: &Communicator,
            clock: &mut SimClock,
        ) -> Result<(), CommError> {
            scale_assign(t, inv);
            world.all_reduce_sum_f32(t.as_mut_slice(), clock)
        }
        reduce_avg(&mut self.embed.grad, inv, world, clock)?;
        reduce_avg(&mut self.head.grad, inv, world, clock)?;
        for block in &mut self.blocks {
            if let Some(a) = block.attn.as_mut() {
                reduce_avg(&mut a.gq, inv, world, clock)?;
                reduce_avg(&mut a.gk, inv, world, clock)?;
                reduce_avg(&mut a.gv, inv, world, clock)?;
                reduce_avg(&mut a.go, inv, world, clock)?;
                reduce_avg(&mut a.norm.g_gamma, inv, world, clock)?;
                reduce_avg(&mut a.norm.g_beta, inv, world, clock)?;
            }
            let mlp = &mut block.mlp;
            reduce_avg(&mut mlp.g1, inv, world, clock)?;
            reduce_avg(&mut mlp.g2, inv, world, clock)?;
            reduce_avg(&mut mlp.norm.g_gamma, inv, world, clock)?;
            reduce_avg(&mut mlp.norm.g_beta, inv, world, clock)?;
            let moe = &mut block.moe;
            reduce_avg(&mut moe.g_gate, inv, world, clock)?;
            // Replicated experts: each holder accumulated only its stripe
            // of the expert's tokens, so the partials must merge. Every
            // rank joins the reduce for every replicated expert (w1 then
            // w2, experts ascending — canonical group-index order;
            // non-holders contribute zeros), so all holders end with the
            // bitwise-identical merged gradient, identical Adam updates,
            // and replicas that never drift apart.
            for g in moe.assignment.replicated_experts() {
                let local = moe.local_experts.iter().position(|&x| x == g);
                for which in 0..2 {
                    let (rows, cols) = if which == 0 {
                        (moe.hidden, moe.ffn)
                    } else {
                        (moe.ffn, moe.hidden)
                    };
                    match local {
                        Some(i) => {
                            let t = if which == 0 {
                                &mut moe.g_shard[i].0
                            } else {
                                &mut moe.g_shard[i].1
                            };
                            world.all_reduce_sum_f32(t.as_mut_slice(), clock)?;
                        }
                        None => {
                            let mut zeros = vec![0.0f32; rows * cols];
                            world.all_reduce_sum_f32(&mut zeros, clock)?;
                        }
                    }
                }
            }
            for (g1, g2) in &mut moe.g_shard {
                scale_assign(g1, inv);
                scale_assign(g2, inv);
            }
        }
        clock.commit("grad_allreduce");
        Ok(())
    }

    /// Phase 3: local Adam update over the canonical parameter order, then
    /// zero every gradient for the next step.
    pub fn apply_update(&mut self) {
        let mut pairs: Vec<(&mut Tensor, &Tensor)> = Vec::new();
        pairs.push((&mut self.embed.weight, &self.embed.grad));
        for block in &mut self.blocks {
            if let Some(a) = block.attn.as_mut() {
                pairs.push((&mut a.wq, &a.gq));
                pairs.push((&mut a.wk, &a.gk));
                pairs.push((&mut a.wv, &a.gv));
                pairs.push((&mut a.wo, &a.go));
                pairs.push((&mut a.norm.gamma, &a.norm.g_gamma));
                pairs.push((&mut a.norm.beta, &a.norm.g_beta));
            }
            let mlp = &mut block.mlp;
            pairs.push((&mut mlp.w1, &mlp.g1));
            pairs.push((&mut mlp.w2, &mlp.g2));
            pairs.push((&mut mlp.norm.gamma, &mlp.norm.g_gamma));
            pairs.push((&mut mlp.norm.beta, &mlp.norm.g_beta));
            let moe = &mut block.moe;
            pairs.push((&mut moe.gate, &moe.g_gate));
            for ((w1, w2), (g1, g2)) in moe.shard.iter_mut().zip(moe.g_shard.iter()) {
                pairs.push((w1, g1));
                pairs.push((w2, g2));
            }
        }
        pairs.push((&mut self.head.weight, &self.head.grad));
        self.opt.step(pairs);
        self.zero_all_grads();
    }

    /// Zero every gradient buffer — also the whole of a skipped step's
    /// cleanup (discarding a poisoned gradient without touching params).
    pub fn zero_all_grads(&mut self) {
        for v in self.embed.grad.as_mut_slice() {
            *v = 0.0;
        }
        for v in self.head.grad.as_mut_slice() {
            *v = 0.0;
        }
        for block in &mut self.blocks {
            if let Some(a) = block.attn.as_mut() {
                a.zero_grads();
            }
            block.mlp.zero_grads();
            block.moe.zero_grads();
        }
    }

    /// Average the local loss across ranks for the global curve.
    pub fn reduce_loss(
        &self,
        local_loss: f64,
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<f64, CommError> {
        let mut l = vec![local_loss as f32];
        world.all_reduce_sum_f32(&mut l, clock)?;
        clock.commit("loss_allreduce");
        Ok((l[0] / self.world_size as f32) as f64)
    }

    /// Visit every gradient buffer under its canonical name, in the same
    /// replicated-first order `sync_grads` uses. Shard gradients are named
    /// by global expert id. Read-only — the guard's scan path.
    pub fn visit_grads(&self, f: &mut dyn FnMut(&str, &[f32])) {
        f("embed.weight", self.embed.grad.as_slice());
        f("head.weight", self.head.grad.as_slice());
        for (l, block) in self.blocks.iter().enumerate() {
            if let Some(a) = &block.attn {
                f(&format!("block{l}.attn.wq"), a.gq.as_slice());
                f(&format!("block{l}.attn.wk"), a.gk.as_slice());
                f(&format!("block{l}.attn.wv"), a.gv.as_slice());
                f(&format!("block{l}.attn.wo"), a.go.as_slice());
                f(&format!("block{l}.attn.gamma"), a.norm.g_gamma.as_slice());
                f(&format!("block{l}.attn.beta"), a.norm.g_beta.as_slice());
            }
            f(&format!("block{l}.mlp.w1"), block.mlp.g1.as_slice());
            f(&format!("block{l}.mlp.w2"), block.mlp.g2.as_slice());
            f(
                &format!("block{l}.mlp.gamma"),
                block.mlp.norm.g_gamma.as_slice(),
            );
            f(
                &format!("block{l}.mlp.beta"),
                block.mlp.norm.g_beta.as_slice(),
            );
            f(&format!("block{l}.moe.gate"), block.moe.g_gate.as_slice());
            for (i, (g1, g2)) in block.moe.g_shard.iter().enumerate() {
                let g = block.moe.local_experts[i];
                f(&format!("block{l}.moe.expert{g}.w1"), g1.as_slice());
                f(&format!("block{l}.moe.expert{g}.w2"), g2.as_slice());
            }
        }
    }

    /// Mutable variant of [`Self::visit_grads`] — the guard's injection
    /// and unscale path.
    pub fn visit_grads_mut(&mut self, f: &mut dyn FnMut(&str, &mut [f32])) {
        f("embed.weight", self.embed.grad.as_mut_slice());
        f("head.weight", self.head.grad.as_mut_slice());
        for (l, block) in self.blocks.iter_mut().enumerate() {
            if let Some(a) = block.attn.as_mut() {
                f(&format!("block{l}.attn.wq"), a.gq.as_mut_slice());
                f(&format!("block{l}.attn.wk"), a.gk.as_mut_slice());
                f(&format!("block{l}.attn.wv"), a.gv.as_mut_slice());
                f(&format!("block{l}.attn.wo"), a.go.as_mut_slice());
                f(
                    &format!("block{l}.attn.gamma"),
                    a.norm.g_gamma.as_mut_slice(),
                );
                f(&format!("block{l}.attn.beta"), a.norm.g_beta.as_mut_slice());
            }
            let mlp = &mut block.mlp;
            f(&format!("block{l}.mlp.w1"), mlp.g1.as_mut_slice());
            f(&format!("block{l}.mlp.w2"), mlp.g2.as_mut_slice());
            f(
                &format!("block{l}.mlp.gamma"),
                mlp.norm.g_gamma.as_mut_slice(),
            );
            f(
                &format!("block{l}.mlp.beta"),
                mlp.norm.g_beta.as_mut_slice(),
            );
            let moe = &mut block.moe;
            f(&format!("block{l}.moe.gate"), moe.g_gate.as_mut_slice());
            let locals = moe.local_experts.clone();
            for (i, (g1, g2)) in moe.g_shard.iter_mut().enumerate() {
                let g = locals[i];
                f(&format!("block{l}.moe.expert{g}.w1"), g1.as_mut_slice());
                f(&format!("block{l}.moe.expert{g}.w2"), g2.as_mut_slice());
            }
        }
    }

    /// Total f32 elements across every gradient buffer (replicated +
    /// local shard) — what the SDC injector reduces its element hash by.
    pub fn grad_elem_count(&self) -> usize {
        let mut n = 0usize;
        self.visit_grads(&mut |_, xs| n += xs.len());
        n
    }

    /// Is this gradient buffer replicated across ranks (all-reduced by
    /// `sync_grads`) rather than a local expert shard?
    pub fn is_replicated_grad(name: &str) -> bool {
        !name.contains(".moe.expert")
    }

    /// Snapshot the *canonical full model* into a [`Checkpoint`]: replicated
    /// parameters are taken locally (they are bitwise-identical on every
    /// rank), expert shards and their Adam moments are all-gathered so every
    /// rank ends up holding the complete expert set under global names.
    /// Because the result is rank-agnostic, a checkpoint captured at world
    /// size W restores onto any world size up to the expert count (ragged
    /// splits included) and onto any [`ExpertAssignment`] — the substrate
    /// of elastic recovery, rank join and live migration.
    ///
    /// `step` is the number of *completed* training steps; `rng_state` is
    /// the data-stream RNG state at that point (see
    /// [`crate::chaos`]). Collective time is charged under `checkpoint`.
    pub fn capture_checkpoint(
        &self,
        step: u64,
        rng_state: u64,
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Checkpoint, CommError> {
        let (mm, vv) = self.opt.moments();
        let moment = |idx: usize, t: &Tensor, bufs: &[Vec<f32>]| -> Tensor {
            match bufs.get(idx) {
                Some(b) => Tensor::from_vec(t.rows(), t.cols(), b.clone()),
                // Adam initializes moment slots lazily; before the first
                // step they are implicitly zero.
                None => Tensor::zeros(t.rows(), t.cols()),
            }
        };
        let mut ckpt = Checkpoint::new(step, rng_state, self.opt.step_count());
        // Walk the exact Adam visitation order of `train_step`, tracking the
        // moment index; replicated params go straight in, expert slots are
        // filled from the gathered blobs below.
        let mut idx = 0usize;
        let push = |ckpt: &mut Checkpoint, idx: &mut usize, name: String, t: &Tensor| {
            ckpt.push(format!("adam.m.{name}"), moment(*idx, t, mm));
            ckpt.push(format!("adam.v.{name}"), moment(*idx, t, vv));
            ckpt.push(name, t.clone());
            *idx += 1;
        };
        push(
            &mut ckpt,
            &mut idx,
            "embed.weight".into(),
            &self.embed.weight,
        );
        for (l, block) in self.blocks.iter().enumerate() {
            if let Some(a) = &block.attn {
                push(&mut ckpt, &mut idx, format!("block{l}.attn.wq"), &a.wq);
                push(&mut ckpt, &mut idx, format!("block{l}.attn.wk"), &a.wk);
                push(&mut ckpt, &mut idx, format!("block{l}.attn.wv"), &a.wv);
                push(&mut ckpt, &mut idx, format!("block{l}.attn.wo"), &a.wo);
                push(
                    &mut ckpt,
                    &mut idx,
                    format!("block{l}.attn.gamma"),
                    &a.norm.gamma,
                );
                push(
                    &mut ckpt,
                    &mut idx,
                    format!("block{l}.attn.beta"),
                    &a.norm.beta,
                );
            }
            let mlp = &block.mlp;
            push(&mut ckpt, &mut idx, format!("block{l}.mlp.w1"), &mlp.w1);
            push(&mut ckpt, &mut idx, format!("block{l}.mlp.w2"), &mlp.w2);
            push(
                &mut ckpt,
                &mut idx,
                format!("block{l}.mlp.gamma"),
                &mlp.norm.gamma,
            );
            push(
                &mut ckpt,
                &mut idx,
                format!("block{l}.mlp.beta"),
                &mlp.norm.beta,
            );
            let moe = &block.moe;
            push(&mut ckpt, &mut idx, format!("block{l}.moe.gate"), &moe.gate);

            // Expert shards: each rank contributes, per local expert,
            // `w1 | m(w1) | v(w1) | w2 | m(w2) | v(w2)` as one flat blob.
            // The all-gather gives every rank the full expert set; global
            // expert g is read from its *primary* holder's blob (replicas
            // are bitwise-identical, so the primary copy is canonical),
            // at g's position in that holder's ascending local order.
            let per = moe.shard.len();
            let (h, f) = (moe.hidden, moe.ffn);
            let slot = 6 * h * f;
            let mut blob = Vec::with_capacity(per * slot);
            for (i, (w1, w2)) in moe.shard.iter().enumerate() {
                for t in [
                    w1.clone(),
                    moment(idx + 2 * i, w1, mm),
                    moment(idx + 2 * i, w1, vv),
                ] {
                    blob.extend_from_slice(t.as_slice());
                }
                for t in [
                    w2.clone(),
                    moment(idx + 2 * i + 1, w2, mm),
                    moment(idx + 2 * i + 1, w2, vv),
                ] {
                    blob.extend_from_slice(t.as_slice());
                }
            }
            idx += 2 * per;
            let blobs = world.all_gather(blob, clock)?;
            for g in 0..moe.num_experts {
                let owner = moe.assignment.primary(g);
                let s = moe
                    .assignment
                    .experts_on(owner)
                    .iter()
                    .position(|&x| x == g)
                    .expect("primary holder does not list its own expert");
                let base = s * slot;
                let chunk = |k: usize, rows: usize, cols: usize| -> Tensor {
                    let start = base + k * h * f;
                    Tensor::from_vec(rows, cols, blobs[owner][start..start + h * f].to_vec())
                };
                let name = format!("block{l}.moe.expert{g}");
                ckpt.push(format!("adam.m.{name}.w1"), chunk(1, h, f));
                ckpt.push(format!("adam.v.{name}.w1"), chunk(2, h, f));
                ckpt.push(format!("{name}.w1"), chunk(0, h, f));
                ckpt.push(format!("adam.m.{name}.w2"), chunk(4, f, h));
                ckpt.push(format!("adam.v.{name}.w2"), chunk(5, f, h));
                ckpt.push(format!("{name}.w2"), chunk(3, f, h));
            }
        }
        push(&mut ckpt, &mut idx, "head.weight".into(), &self.head.weight);

        // Charge the serialization as a bandwidth-bound write and claim the
        // gathers under one stage label.
        let bytes: usize = ckpt
            .entries()
            .iter()
            .map(|(n, t)| n.len() + 20 + t.len() * 4)
            .sum();
        let t_io = world.cost().mem_bound_time(bytes as f64);
        clock.charge("checkpoint", t_io);
        clock.commit("checkpoint");
        Ok(ckpt)
    }

    /// Rebuild a model at `(rank, world)` from a canonical [`Checkpoint`]:
    /// construct the skeleton, overwrite every parameter by name, slice
    /// this rank's contiguous expert share (balanced even when the world
    /// does not divide the expert count) out of the global expert set,
    /// and restore the Adam moments in this rank's visitation order.
    ///
    /// Restoring a 16-rank checkpoint at world size 8 is exactly the elastic
    /// recovery path: survivors each adopt twice the experts, with optimizer
    /// state intact, and the subsequent loss trajectory is bitwise identical
    /// to a fresh 8-rank run resumed from the same bytes.
    pub fn from_checkpoint(
        cfg: &crate::model::TrainConfig,
        ckpt: &Checkpoint,
        rank: usize,
        world: usize,
    ) -> Self {
        let assignment = ExpertAssignment::contiguous(cfg.num_experts, world);
        Self::from_checkpoint_with_assignment(cfg, ckpt, rank, assignment)
    }

    /// [`Self::from_checkpoint`] restoring into an arbitrary
    /// [`ExpertAssignment`] — the migration commit path: the canonical
    /// global-expert-id keying means any layout (ragged, migrated,
    /// replicated) loads from the same bytes.
    pub fn from_checkpoint_with_assignment(
        cfg: &crate::model::TrainConfig,
        ckpt: &Checkpoint,
        rank: usize,
        assignment: ExpertAssignment,
    ) -> Self {
        let full_layers = crate::model::build_moe_layers(cfg);
        let mut model = Self::new_with_assignment(cfg, &full_layers, rank, assignment);
        let mut m: Vec<Vec<f32>> = Vec::new();
        let mut v: Vec<Vec<f32>> = Vec::new();
        {
            let mut load = |name: String, dst: &mut Tensor| {
                let src = ckpt
                    .tensor(&name)
                    .unwrap_or_else(|| panic!("checkpoint missing entry {name}"));
                assert_eq!(
                    src.shape(),
                    dst.shape(),
                    "checkpoint entry {name} has the wrong shape"
                );
                dst.as_mut_slice().copy_from_slice(src.as_slice());
                let grab = |prefix: &str| -> Vec<f32> {
                    ckpt.tensor(&format!("{prefix}.{name}"))
                        .map(|t| t.as_slice().to_vec())
                        .unwrap_or_else(|| vec![0.0; src.len()])
                };
                m.push(grab("adam.m"));
                v.push(grab("adam.v"));
            };
            load("embed.weight".into(), &mut model.embed.weight);
            for (l, block) in model.blocks.iter_mut().enumerate() {
                if let Some(a) = block.attn.as_mut() {
                    load(format!("block{l}.attn.wq"), &mut a.wq);
                    load(format!("block{l}.attn.wk"), &mut a.wk);
                    load(format!("block{l}.attn.wv"), &mut a.wv);
                    load(format!("block{l}.attn.wo"), &mut a.wo);
                    load(format!("block{l}.attn.gamma"), &mut a.norm.gamma);
                    load(format!("block{l}.attn.beta"), &mut a.norm.beta);
                }
                let mlp = &mut block.mlp;
                load(format!("block{l}.mlp.w1"), &mut mlp.w1);
                load(format!("block{l}.mlp.w2"), &mut mlp.w2);
                load(format!("block{l}.mlp.gamma"), &mut mlp.norm.gamma);
                load(format!("block{l}.mlp.beta"), &mut mlp.norm.beta);
                let moe = &mut block.moe;
                load(format!("block{l}.moe.gate"), &mut moe.gate);
                let locals = moe.local_experts.clone();
                for (i, (w1, w2)) in moe.shard.iter_mut().enumerate() {
                    let g = locals[i];
                    load(format!("block{l}.moe.expert{g}.w1"), w1);
                    load(format!("block{l}.moe.expert{g}.w2"), w2);
                }
            }
            load("head.weight".into(), &mut model.head.weight);
        }
        model.opt.restore(ckpt.adam_step, m, v);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_collectives::SimCluster;

    fn tiny_full(seed: u64) -> TrainableMoe {
        // 8 experts over H=8, F=6, top-2, ample capacity.
        TrainableMoe::new(8, 6, 8, 2, 100_000, DropPolicy::CapacityOnly, seed)
    }

    #[test]
    fn overlapped_forward_backward_is_bitwise_identical_to_serial() {
        let full = tiny_full(77);
        let world = 4;
        for chunks in [1usize, 2] {
            let results = SimCluster::frontier(world).run(|ctx| {
                let x = Tensor::rand_uniform(12, 8, 1.0, 810 + ctx.rank as u64);
                let d_out = Tensor::rand_uniform(12, 8, 1.0, 910 + ctx.rank as u64);

                let mut serial = DistMoe::from_trainable(&full, ctx.rank, world);
                let (out_s, ctx_s) = serial.forward(&x, &ctx.world, &mut ctx.clock).unwrap();
                let dx_s = serial
                    .backward(&ctx_s, &d_out, &ctx.world, &mut ctx.clock)
                    .unwrap();

                let mut over = DistMoe::from_trainable(&full, ctx.rank, world);
                let (out_o, ctx_o) = over
                    .forward_overlap(&x, chunks, &ctx.world, &mut ctx.clock)
                    .unwrap();
                let dx_o = over
                    .backward_overlap(&ctx_o, &d_out, chunks, &ctx.world, &mut ctx.clock)
                    .unwrap();

                let grads_equal = serial
                    .g_shard
                    .iter()
                    .zip(&over.g_shard)
                    .all(|((a1, a2), (b1, b2))| a1.allclose(b1, 0.0) && a2.allclose(b2, 0.0))
                    && serial.g_gate.allclose(&over.g_gate, 0.0);
                (
                    out_s.allclose(&out_o, 0.0),
                    dx_s.allclose(&dx_o, 0.0),
                    grads_equal,
                )
            });
            for (rank, (out_eq, dx_eq, grads_eq)) in results.iter().enumerate() {
                assert!(
                    out_eq,
                    "chunks {chunks} rank {rank}: forward outputs differ"
                );
                assert!(dx_eq, "chunks {chunks} rank {rank}: input grads differ");
                assert!(grads_eq, "chunks {chunks} rank {rank}: weight grads differ");
            }
        }
    }

    #[test]
    fn distributed_forward_matches_single_rank() {
        let full = tiny_full(61);
        let world = 4;
        let outs = SimCluster::frontier(world).run(|ctx| {
            let layer = DistMoe::from_trainable(&full, ctx.rank, world);
            let x = Tensor::rand_uniform(10, 8, 1.0, 700 + ctx.rank as u64);
            let (out, _) = layer.forward(&x, &ctx.world, &mut ctx.clock).unwrap();
            out
        });
        for rank in 0..world {
            let x = Tensor::rand_uniform(10, 8, 1.0, 700 + rank as u64);
            let (want, _) = full.forward(&x);
            assert!(
                outs[rank].allclose(&want, 1e-4),
                "rank {rank} fwd diff {}",
                outs[rank].max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn distributed_backward_matches_single_rank_gradients() {
        let full = tiny_full(71);
        let world = 4;
        // Each rank runs fwd+bwd on its own batch with its own upstream
        // gradient; the distributed per-expert grads must equal the sum of
        // single-rank per-batch grads (experts see every rank's tokens).
        let dist = SimCluster::frontier(world).run(|ctx| {
            let mut layer = DistMoe::from_trainable(&full, ctx.rank, world);
            let x = Tensor::rand_uniform(12, 8, 1.0, 800 + ctx.rank as u64);
            let d_out = Tensor::rand_uniform(12, 8, 1.0, 900 + ctx.rank as u64);
            let (_, ctx_f) = layer.forward(&x, &ctx.world, &mut ctx.clock).unwrap();
            let d_x = layer
                .backward(&ctx_f, &d_out, &ctx.world, &mut ctx.clock)
                .unwrap();
            (layer.g_shard.clone(), layer.g_gate.clone(), d_x)
        });

        // Single-rank reference: accumulate over the same four batches.
        let mut reference = full.clone();
        let mut ref_dx = Vec::new();
        for rank in 0..world {
            let x = Tensor::rand_uniform(12, 8, 1.0, 800 + rank as u64);
            let d_out = Tensor::rand_uniform(12, 8, 1.0, 900 + rank as u64);
            let (_, c) = reference.forward(&x);
            ref_dx.push(reference.backward(&c, &d_out));
        }

        // Expert grads: distributed rank r's shard e_local corresponds to
        // global expert r*2 + e_local.
        for rank in 0..world {
            let (g_shard, _, _) = &dist[rank];
            for (e_local, (g1, g2)) in g_shard.iter().enumerate() {
                let global = rank * 2 + e_local;
                assert!(
                    g1.allclose(&reference.g_experts[global].0, 1e-3),
                    "dW1 expert {global}: diff {}",
                    g1.max_abs_diff(&reference.g_experts[global].0)
                );
                assert!(
                    g2.allclose(&reference.g_experts[global].1, 1e-3),
                    "dW2 expert {global}: diff {}",
                    g2.max_abs_diff(&reference.g_experts[global].1)
                );
            }
        }
        // Router grads: distributed per-rank g_gate covers only the local
        // batch; the sum over ranks must equal the reference accumulation.
        let mut summed = Tensor::zeros(8, 8);
        for (_, g_gate, _) in &dist {
            add_assign(&mut summed, g_gate);
        }
        assert!(
            summed.allclose(&reference.g_gate, 1e-3),
            "router grad diff {}",
            summed.max_abs_diff(&reference.g_gate)
        );
        // Input gradients per rank match the per-batch reference.
        for rank in 0..world {
            assert!(
                dist[rank].2.allclose(&ref_dx[rank], 1e-3),
                "d_x rank {rank} diff {}",
                dist[rank].2.max_abs_diff(&ref_dx[rank])
            );
        }
    }

    #[test]
    fn checkpointed_layer_matches_and_costs_six_alltoalls() {
        // §4.3 executable: checkpointing reproduces identical gradients but
        // pays 6 all-to-alls per layer per step (2 fwd + 2 recompute +
        // 2 bwd) versus 4 without.
        let full = tiny_full(97);
        let world = 2;
        let results = SimCluster::frontier(world).run(|ctx| {
            let x = Tensor::rand_uniform(6, 8, 1.0, 970 + ctx.rank as u64);
            let d_out = Tensor::rand_uniform(6, 8, 1.0, 980 + ctx.rank as u64);
            // Plain path.
            let mut plain = DistMoe::from_trainable(&full, ctx.rank, world);
            let (out_a, c) = plain.forward(&x, &ctx.world, &mut ctx.clock).unwrap();
            let dx_a = plain
                .backward(&c, &d_out, &ctx.world, &mut ctx.clock)
                .unwrap();
            let plain_a2a = ctx.clock.bucket("dispatch_a2a")
                + ctx.clock.bucket("combine_a2a")
                + ctx.clock.bucket("bwd_dispatch_a2a")
                + ctx.clock.bucket("bwd_combine_a2a");
            ctx.clock.reset_buckets();
            // Checkpointed path.
            let mut ckpt = DistMoe::from_trainable(&full, ctx.rank, world);
            let (out_b, saved) = ckpt.forward_ckpt(&x, &ctx.world, &mut ctx.clock).unwrap();
            let dx_b = ckpt
                .backward_ckpt(&saved, &d_out, &ctx.world, &mut ctx.clock)
                .unwrap();
            let ckpt_a2a = ctx.clock.bucket("dispatch_a2a")
                + ctx.clock.bucket("combine_a2a")
                + ctx.clock.bucket("bwd_dispatch_a2a")
                + ctx.clock.bucket("bwd_combine_a2a");
            let grads_equal = plain
                .g_shard
                .iter()
                .zip(&ckpt.g_shard)
                .all(|((a1, a2), (b1, b2))| a1.allclose(b1, 1e-5) && a2.allclose(b2, 1e-5));
            (
                out_a.allclose(&out_b, 1e-6),
                dx_a.allclose(&dx_b, 1e-5),
                grads_equal,
                ckpt_a2a / plain_a2a,
            )
        });
        for (rank, (out_eq, dx_eq, g_eq, a2a_ratio)) in results.iter().enumerate() {
            assert!(out_eq, "rank {rank}: outputs differ");
            assert!(dx_eq, "rank {rank}: input grads differ");
            assert!(g_eq, "rank {rank}: expert grads differ");
            // 6 a2as vs 4: ratio ~1.5 in simulated time.
            assert!(
                (1.3..1.7).contains(a2a_ratio),
                "rank {rank}: a2a time ratio {a2a_ratio} (expected ~1.5)"
            );
        }
    }

    #[test]
    fn backward_charges_two_more_alltoalls() {
        let full = tiny_full(81);
        let world = 2;
        let buckets = SimCluster::frontier(world).run(|ctx| {
            let mut layer = DistMoe::from_trainable(&full, ctx.rank, world);
            let x = Tensor::rand_uniform(6, 8, 1.0, 810 + ctx.rank as u64);
            let (out, c) = layer.forward(&x, &ctx.world, &mut ctx.clock).unwrap();
            let _ = layer
                .backward(&c, &out, &ctx.world, &mut ctx.clock)
                .unwrap();
            ctx.clock.buckets().to_vec()
        });
        for b in &buckets {
            let names: Vec<&str> = b.iter().map(|(l, _)| l.as_str()).collect();
            for want in [
                "dispatch_a2a",
                "combine_a2a",
                "bwd_combine_a2a",
                "bwd_dispatch_a2a",
            ] {
                assert!(names.contains(&want), "missing {want} in {names:?}");
            }
        }
    }
}
