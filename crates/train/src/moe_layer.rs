//! The trainable MoE layer: forward and exact hand-written backward.
//!
//! Forward is the padding-free pipeline of `xmoe-core` (gating → PFT →
//! gather → per-expert FFN → weighted scatter) with a residual connection.
//! Backward propagates through every path, including the router: the
//! combine weight `w_i = scores[t, e_i]` carries gradient
//! `d_w_i = <d_out[t], y_i>` back into the gating softmax, which is the
//! standard top-k MoE router gradient (dropped assignments receive none).

use xmoe_core::gating::{
    clamp_logits, row_logsumexp, row_logsumexp_into, z_loss_value, DropPolicy, GatingOutput,
    RouterGuard,
};
use xmoe_core::pft::{Pft, PftScratch};
use xmoe_tensor::{
    add_assign, add_assign_slice, gather_rows, gather_rows_into, gemm_grouped,
    gemm_grouped_transpose_a, gemm_grouped_transpose_b, matmul, matmul_into, matmul_slices,
    matmul_transpose_a, matmul_transpose_b, matmul_transpose_b_slices, scatter_rows_unit,
    softmax_rows, topk_rows, topk_rows_into, Tensor, Workspace,
};

/// A trainable MoE layer (all experts local — the loss-validation
/// experiment runs single-process, mirroring the paper's 16-GPU run whose
/// *numerics* are data-parallel-invariant).
#[derive(Clone, Debug)]
pub struct TrainableMoe {
    /// Router projection `[H, E]`.
    pub gate: Tensor,
    pub g_gate: Tensor,
    /// Expert weights `(w1 [H,F], w2 [F,H])`.
    pub experts: Vec<(Tensor, Tensor)>,
    pub g_experts: Vec<(Tensor, Tensor)>,
    pub top_k: usize,
    pub capacity: usize,
    pub policy: DropPolicy,
    /// Switch-Transformer-style load-balancing auxiliary loss coefficient
    /// (`0.0` disables it): `L_aux = alpha * E * sum_e f_e * P_e`, where
    /// `f_e` is the fraction of routed assignments expert `e` received and
    /// `P_e` the mean gate probability it was given. Gradient flows through
    /// `P_e` only (`f_e` is piecewise constant), the standard treatment.
    pub aux_alpha: f32,
    /// Router numerical-health guards: logit clamping + ST-MoE z-loss.
    /// Defaults are inert (`0.0`/`0.0`), so existing numerics are
    /// bit-for-bit unchanged unless a guard is explicitly enabled.
    pub router_guard: RouterGuard,
}

/// Saved forward state.
#[derive(Default)]
pub struct MoeCtx {
    x: Tensor,
    scores: Tensor,
    pft: Pft,
    dispatch_in: Tensor,
    h_pre: Tensor,
    h_act: Tensor,
    y: Tensor,
    /// Row ranges per expert within the dispatch buffers.
    seg_offsets: Vec<usize>,
    /// Per-token router z = logsumexp(logits); populated only when the
    /// z-loss guard is active.
    lse: Vec<f32>,
    /// How many logits the clamp guard limited this forward.
    logits_clamped: usize,
}

impl MoeCtx {
    /// Routed assignments dropped during this forward.
    pub fn dropped(&self) -> usize {
        self.pft.dropped
    }

    /// Retained routed assignments.
    pub fn routed(&self) -> usize {
        self.pft.len()
    }

    /// Per-expert retained token counts of this forward.
    pub fn tokens_per_expert(&self) -> &[usize] {
        &self.pft.tokens_per_expert
    }

    /// Logits limited by the clamp guard during this forward (0 when the
    /// guard is off or nothing was out of range) — a router-health signal.
    pub fn logits_clamped(&self) -> usize {
        self.logits_clamped
    }
}

/// Reusable scratch for the pooled training step: the workspace arena plus
/// every persistent staging buffer [`TrainableMoe::forward_pooled`] and
/// [`TrainableMoe::backward_scaled_pooled`] need. One instance per layer
/// per rank; after warm-up every lease is served from warm memory and a
/// steady-state step performs no transient heap allocation.
#[derive(Default)]
pub struct MoeTrainScratch {
    /// Arena leasing step-lifetime tensors. The tensors the pooled methods
    /// *return* (forward output, input gradient) are leased from here too —
    /// recycle them once consumed to keep the steady state allocation-free.
    pub ws: Workspace,
    /// Saved forward state, rebuilt in place each step.
    pub ctx: MoeCtx,
    logits: Tensor,
    order: Vec<usize>,
    gating: GatingOutput,
    pft_scratch: PftScratch,
    d_w: Vec<f32>,
    aux_f: Vec<f32>,
    xt: Tensor,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

impl TrainableMoe {
    pub fn new(
        hidden: usize,
        ffn: usize,
        num_experts: usize,
        top_k: usize,
        capacity: usize,
        policy: DropPolicy,
        seed: u64,
    ) -> Self {
        let experts: Vec<(Tensor, Tensor)> = (0..num_experts)
            .map(|e| {
                let s = seed.wrapping_add(e as u64 * 101);
                (
                    Tensor::rand_init(hidden, ffn, hidden, s),
                    Tensor::rand_init(ffn, hidden, ffn, s ^ 0xF0F0),
                )
            })
            .collect();
        let g_experts = experts
            .iter()
            .map(|(a, b)| {
                (
                    Tensor::zeros(a.rows(), a.cols()),
                    Tensor::zeros(b.rows(), b.cols()),
                )
            })
            .collect();
        Self {
            gate: Tensor::rand_init(hidden, num_experts, hidden, seed ^ 0x51DE),
            g_gate: Tensor::zeros(hidden, num_experts),
            experts,
            g_experts,
            top_k,
            capacity,
            policy,
            aux_alpha: 0.0,
            router_guard: RouterGuard::default(),
        }
    }

    /// Enable the load-balancing auxiliary loss.
    pub fn with_aux(mut self, alpha: f32) -> Self {
        self.aux_alpha = alpha;
        self
    }

    /// Enable router health guards (logit clamp + z-loss).
    pub fn with_router_guard(mut self, guard: RouterGuard) -> Self {
        self.router_guard = guard;
        self
    }

    /// Per-expert assignment fractions `f_e` of the last forward.
    fn load_fractions(ctx: &MoeCtx) -> Vec<f32> {
        let total: usize = ctx.pft.tokens_per_expert.iter().sum();
        let denom = total.max(1) as f32;
        ctx.pft
            .tokens_per_expert
            .iter()
            .map(|&c| c as f32 / denom)
            .collect()
    }

    /// Value of the auxiliary loss for a saved forward context.
    pub fn aux_loss(&self, ctx: &MoeCtx) -> f64 {
        if self.aux_alpha == 0.0 {
            return 0.0;
        }
        let e_count = self.num_experts();
        let s = ctx.x.rows().max(1);
        let f = Self::load_fractions(ctx);
        let mut acc = 0.0f64;
        for e in 0..e_count {
            let mut p_mean = 0.0f64;
            for t in 0..ctx.x.rows() {
                p_mean += ctx.scores.get(t, e) as f64;
            }
            p_mean /= s as f64;
            acc += f[e] as f64 * p_mean;
        }
        self.aux_alpha as f64 * e_count as f64 * acc
    }

    /// Value of the z-loss term for a saved forward context (0 when the
    /// guard is off).
    pub fn z_loss(&self, ctx: &MoeCtx) -> f64 {
        if self.router_guard.z_loss_coef == 0.0 {
            return 0.0;
        }
        self.router_guard.z_loss_coef as f64 * z_loss_value(&ctx.lse)
    }

    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    /// Fraction of routed assignments dropped in the most recent forward —
    /// the quantity §5.6 attributes the loss gap to.
    pub fn last_drop_fraction(ctx: &MoeCtx, top_k: usize) -> f64 {
        let total = ctx.x.rows() * top_k;
        if total == 0 {
            return 0.0;
        }
        ctx.pft.dropped as f64 / total as f64
    }

    /// Forward: `out = x + combine(experts(dispatch(x)))`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, MoeCtx) {
        let mut logits = matmul(x, &self.gate);
        let logits_clamped = clamp_logits(&mut logits, self.router_guard.logit_clamp);
        let lse = if self.router_guard.z_loss_coef != 0.0 {
            row_logsumexp(&logits)
        } else {
            Vec::new()
        };
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
        let pft = Pft::construct(&gating, self.num_experts(), self.capacity, self.policy);

        let dispatch_in = gather_rows(x, &pft.token_ids);
        let b = pft.len();
        let f = self.experts[0].0.cols();
        let h = x.cols();
        let mut h_pre = Tensor::zeros(b, f);
        let mut h_act = Tensor::zeros(b, f);
        let mut y = Tensor::zeros(b, h);
        // Grouped expert FFN: all segments in two pooled GEMM batches
        // (bitwise identical to the former per-expert matmul loop — see
        // xmoe_tensor::par). Every dispatch row belongs to exactly one
        // segment, so whole-buffer elementwise passes equal per-segment ones.
        gemm_grouped(
            dispatch_in.as_slice(),
            &pft.tokens_per_expert,
            h,
            |e| self.experts[e].0.as_slice(),
            f,
            h_pre.as_mut_slice(),
        );
        h_act.as_mut_slice().copy_from_slice(h_pre.as_slice());
        for v in h_act.as_mut_slice() {
            *v *= sigmoid(*v);
        }
        gemm_grouped(
            h_act.as_slice(),
            &pft.tokens_per_expert,
            f,
            |e| self.experts[e].1.as_slice(),
            h,
            y.as_mut_slice(),
        );
        let mut seg_offsets = Vec::with_capacity(self.num_experts() + 1);
        seg_offsets.push(0);
        let mut row = 0usize;
        for &cnt in &pft.tokens_per_expert {
            row += cnt;
            seg_offsets.push(row);
        }

        let mut out = x.clone();
        xmoe_tensor::scatter_rows_scaled(&y, &pft.token_ids, &pft.combine_weights, &mut out);
        (
            out,
            MoeCtx {
                x: x.clone(),
                scores,
                pft,
                dispatch_in,
                h_pre,
                h_act,
                y,
                seg_offsets,
                lse,
                logits_clamped,
            },
        )
    }

    /// Backward: accumulates `g_gate` / `g_experts`, returns `d_x`.
    pub fn backward(&mut self, ctx: &MoeCtx, d_out: &Tensor) -> Tensor {
        self.backward_scaled(ctx, d_out, 1.0)
    }

    /// Backward under a dynamic loss scale: `d_out` already carries
    /// `loss_scale` (the caller multiplied the head gradient), so the
    /// locally-generated aux and z-loss gradients are multiplied by the
    /// same scale here — every term of the router gradient shares one
    /// scale, and unscaling restores the exact unscaled mix. Power-of-two
    /// scales keep this bitwise-invertible.
    pub fn backward_scaled(&mut self, ctx: &MoeCtx, d_out: &Tensor, loss_scale: f32) -> Tensor {
        let h = ctx.x.cols();
        let b = ctx.pft.len();
        let mut d_x = d_out.clone(); // residual path

        // d_y[i] = w_i * d_out[t_i]; d_w_i = <d_out[t_i], y[i]>.
        let mut d_y = gather_rows(d_out, &ctx.pft.token_ids);
        let mut d_w = vec![0.0f32; b];
        for i in 0..b {
            let w = ctx.pft.combine_weights[i];
            let y_row = ctx.y.row(i);
            let dy_row = d_y.row_mut(i);
            d_w[i] = xmoe_tensor::dot_and_scale(dy_row, y_row, w);
        }

        // Grouped FFN backward over all expert segments at once: three
        // grouped GEMM batches plus the SiLU elementwise pass, bitwise
        // identical to the former sequential per-expert loop (the
        // transpose-A kernel reproduces `matmul(seg.transpose(), dy)`'s
        // accumulation order without materialising the transpose). Weight
        // gradients stage into per-expert blocks of `dw*_all`, then
        // accumulate into `g_experts` expert by expert — `add_assign_slice`
        // is bitwise identical to the scalar add the old loop used.
        let counts = &ctx.pft.tokens_per_expert;
        let f = self.experts[0].0.cols();
        let e_count = self.num_experts();
        // dW2_e = act_e^T dy_e.
        let mut dw2_all = Tensor::zeros(e_count * f, h);
        gemm_grouped_transpose_a(
            ctx.h_act.as_slice(),
            counts,
            f,
            d_y.as_slice(),
            h,
            dw2_all.as_mut_slice(),
        );
        // d_act = dy W2^T; through SiLU.
        let mut d_h = Tensor::zeros(b, f);
        gemm_grouped_transpose_b(
            d_y.as_slice(),
            counts,
            h,
            |e| self.experts[e].1.as_slice(),
            f,
            d_h.as_mut_slice(),
        );
        for (d, &pre) in d_h.as_mut_slice().iter_mut().zip(ctx.h_pre.as_slice()) {
            *d *= silu_grad(pre);
        }
        // dW1_e = x_e^T d_h_e.
        let mut dw1_all = Tensor::zeros(e_count * h, f);
        gemm_grouped_transpose_a(
            ctx.dispatch_in.as_slice(),
            counts,
            h,
            d_h.as_slice(),
            f,
            dw1_all.as_mut_slice(),
        );
        // d_seg = d_h W1^T.
        let mut d_dispatch = Tensor::zeros(b, h);
        gemm_grouped_transpose_b(
            d_h.as_slice(),
            counts,
            f,
            |e| self.experts[e].0.as_slice(),
            h,
            d_dispatch.as_mut_slice(),
        );
        for (e, &cnt) in counts.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            add_assign_slice(
                self.g_experts[e].1.as_mut_slice(),
                &dw2_all.as_slice()[e * f * h..(e + 1) * f * h],
            );
            add_assign_slice(
                self.g_experts[e].0.as_mut_slice(),
                &dw1_all.as_slice()[e * h * f..(e + 1) * h * f],
            );
        }
        // Scatter dispatch grads back to token positions (gather transpose).
        scatter_rows_unit(&d_dispatch, &ctx.pft.token_ids, &mut d_x);

        // Router backward: d_scores at retained (t, e) entries, then softmax.
        let e_count = self.num_experts();
        let mut d_scores = Tensor::zeros(ctx.x.rows(), e_count);
        for i in 0..b {
            let t = ctx.pft.token_ids[i];
            let e = ctx.pft.expert_ids[i];
            let v = d_scores.get(t, e);
            d_scores.set(t, e, v + d_w[i]);
        }
        // Auxiliary load-balancing loss: dL/dscores[t, e] = alpha*E*f_e/S,
        // multiplied by the loss scale so it matches the main-loss term.
        if self.aux_alpha != 0.0 {
            let f = Self::load_fractions(ctx);
            let s_inv = 1.0 / ctx.x.rows().max(1) as f32;
            let coef = self.aux_alpha * e_count as f32 * s_inv * loss_scale;
            for t in 0..ctx.x.rows() {
                let row = d_scores.row_mut(t);
                for e in 0..e_count {
                    row[e] += coef * f[e];
                }
            }
        }
        let mut d_logits = Tensor::zeros(ctx.x.rows(), e_count);
        for t in 0..ctx.x.rows() {
            let s_row = ctx.scores.row(t);
            let ds_row = d_scores.row(t);
            let inner: f32 = s_row.iter().zip(ds_row).map(|(s, d)| s * d).sum();
            let dl_row = d_logits.row_mut(t);
            for j in 0..e_count {
                dl_row[j] = s_row[j] * (ds_row[j] - inner);
            }
        }
        // z-loss gradient goes straight onto the logits (z is a direct
        // function of them): dL_z/dl[t,j] = coef * (2/S) * z_t * scores[t,j],
        // again carrying the loss scale of the main term.
        if self.router_guard.z_loss_coef != 0.0 {
            let coef =
                self.router_guard.z_loss_coef * 2.0 * loss_scale / ctx.x.rows().max(1) as f32;
            for t in 0..ctx.x.rows() {
                let z = ctx.lse[t];
                let s_row = ctx.scores.row(t);
                let dl_row = d_logits.row_mut(t);
                for j in 0..e_count {
                    dl_row[j] += coef * z * s_row[j];
                }
            }
        }
        let dg = matmul_transpose_a(&ctx.x, &d_logits);
        add_assign(&mut self.g_gate, &dg);
        let d_x_gate = matmul_transpose_b(&d_logits, &self.gate);
        add_assign(&mut d_x, &d_x_gate);
        d_x
    }

    /// [`Self::forward`] with every step-lifetime buffer reused from `st`.
    /// Bitwise identical to the owned path (same kernels over the same
    /// slices, zero-filled lease targets). The saved forward state lands in
    /// `st.ctx`; the returned output is leased from `st.ws` — recycle it
    /// once consumed.
    pub fn forward_pooled(&self, x: &Tensor, st: &mut MoeTrainScratch) -> Tensor {
        let e_count = self.num_experts();
        let h = x.cols();
        st.logits.resize(x.rows(), e_count);
        matmul_into(x, &self.gate, &mut st.logits);
        st.ctx.logits_clamped = clamp_logits(&mut st.logits, self.router_guard.logit_clamp);
        if self.router_guard.z_loss_coef != 0.0 {
            row_logsumexp_into(&st.logits, &mut st.ctx.lse);
        } else {
            st.ctx.lse.clear();
        }
        st.ctx.scores.resize(x.rows(), e_count);
        st.ctx
            .scores
            .as_mut_slice()
            .copy_from_slice(st.logits.as_slice());
        softmax_rows(&mut st.ctx.scores);
        topk_rows_into(
            &st.ctx.scores,
            self.top_k,
            &mut st.gating.top_experts,
            &mut st.gating.combine_weights,
            &mut st.order,
        );
        let logits = &st.logits;
        let k = self.top_k;
        st.gating.top_logits.clear();
        st.gating.top_logits.extend(
            st.gating
                .top_experts
                .iter()
                .enumerate()
                .map(|(i, &e)| logits.get(i / k, e)),
        );
        st.gating.k = k;
        st.gating.scores.resize(x.rows(), e_count);
        st.gating
            .scores
            .as_mut_slice()
            .copy_from_slice(st.ctx.scores.as_slice());
        Pft::construct_into(
            &st.gating,
            e_count,
            self.capacity,
            self.policy,
            &mut st.pft_scratch,
            &mut st.ctx.pft,
        );

        gather_rows_into(x, &st.ctx.pft.token_ids, &mut st.ctx.dispatch_in);
        let b = st.ctx.pft.len();
        let f = self.experts[0].0.cols();
        st.ctx.h_pre.resize(b, f);
        st.ctx.h_act.resize(b, f);
        st.ctx.y.resize(b, h);
        // Grouped expert FFN on the resized (zero-filled) staging buffers —
        // the accumulating grouped GEMM equals the owned path's fresh
        // matmuls bitwise.
        gemm_grouped(
            st.ctx.dispatch_in.as_slice(),
            &st.ctx.pft.tokens_per_expert,
            h,
            |e| self.experts[e].0.as_slice(),
            f,
            st.ctx.h_pre.as_mut_slice(),
        );
        st.ctx
            .h_act
            .as_mut_slice()
            .copy_from_slice(st.ctx.h_pre.as_slice());
        for v in st.ctx.h_act.as_mut_slice() {
            *v *= sigmoid(*v);
        }
        gemm_grouped(
            st.ctx.h_act.as_slice(),
            &st.ctx.pft.tokens_per_expert,
            f,
            |e| self.experts[e].1.as_slice(),
            h,
            st.ctx.y.as_mut_slice(),
        );
        st.ctx.seg_offsets.clear();
        st.ctx.seg_offsets.push(0);
        let mut row = 0usize;
        for &cnt in &st.ctx.pft.tokens_per_expert {
            row += cnt;
            st.ctx.seg_offsets.push(row);
        }

        st.ctx.x.resize(x.rows(), h);
        st.ctx.x.as_mut_slice().copy_from_slice(x.as_slice());
        let mut out = st.ws.take(x.rows(), h);
        out.as_mut_slice().copy_from_slice(x.as_slice());
        xmoe_tensor::scatter_rows_scaled(
            &st.ctx.y,
            &st.ctx.pft.token_ids,
            &st.ctx.pft.combine_weights,
            &mut out,
        );
        out
    }

    /// Pooled [`Self::backward`]: consumes the forward state saved in
    /// `st.ctx` by [`Self::forward_pooled`].
    pub fn backward_pooled(&mut self, st: &mut MoeTrainScratch, d_out: &Tensor) -> Tensor {
        self.backward_scaled_pooled(st, d_out, 1.0)
    }

    /// Pooled [`Self::backward_scaled`], bitwise identical to it. Gradient
    /// accumulation stages every GEMM into a zero-filled leased temp and
    /// `add_assign`s it (accumulating directly into `g_*` would reassociate
    /// the float sums). The returned input gradient is leased from `st.ws`.
    pub fn backward_scaled_pooled(
        &mut self,
        st: &mut MoeTrainScratch,
        d_out: &Tensor,
        loss_scale: f32,
    ) -> Tensor {
        let h = st.ctx.x.cols();
        let b = st.ctx.pft.len();
        let mut d_x = st.ws.take(d_out.rows(), d_out.cols());
        d_x.as_mut_slice().copy_from_slice(d_out.as_slice()); // residual path

        // d_y[i] = w_i * d_out[t_i]; d_w_i = <d_out[t_i], y[i]>.
        let mut d_y = st.ws.take(0, 0);
        gather_rows_into(d_out, &st.ctx.pft.token_ids, &mut d_y);
        st.d_w.clear();
        st.d_w.resize(b, 0.0);
        for i in 0..b {
            let w = st.ctx.pft.combine_weights[i];
            let y_row = st.ctx.y.row(i);
            let dy_row = d_y.row_mut(i);
            st.d_w[i] = xmoe_tensor::dot_and_scale(dy_row, y_row, w);
        }

        // Grouped FFN backward — the pooled twin of the owned path, with the
        // staging buffers leased from the workspace arena. No transpose is
        // ever materialised (the grouped transpose-A kernel reads A
        // column-wise in the exact accumulation order of the old
        // transpose-then-matmul), which also retires the former `t_seg`
        // per-segment transpose scratch.
        let f = self.experts[0].0.cols();
        let e_count = self.num_experts();
        // Disjoint field borrows: segment table from the saved context,
        // leases from the arena.
        let (ws, ctx) = (&mut st.ws, &st.ctx);
        let counts = &ctx.pft.tokens_per_expert;
        // dW2_e = act_e^T dy_e.
        let mut dw2_all = ws.take(e_count * f, h);
        gemm_grouped_transpose_a(
            ctx.h_act.as_slice(),
            counts,
            f,
            d_y.as_slice(),
            h,
            dw2_all.as_mut_slice(),
        );
        // d_act = dy W2^T; through SiLU.
        let mut d_h = ws.take(b, f);
        gemm_grouped_transpose_b(
            d_y.as_slice(),
            counts,
            h,
            |e| self.experts[e].1.as_slice(),
            f,
            d_h.as_mut_slice(),
        );
        for (d, &pre) in d_h.as_mut_slice().iter_mut().zip(ctx.h_pre.as_slice()) {
            *d *= silu_grad(pre);
        }
        // dW1_e = x_e^T d_h_e.
        let mut dw1_all = ws.take(e_count * h, f);
        gemm_grouped_transpose_a(
            ctx.dispatch_in.as_slice(),
            counts,
            h,
            d_h.as_slice(),
            f,
            dw1_all.as_mut_slice(),
        );
        // d_seg = d_h W1^T, written straight into the dispatch-grad buffer
        // (the kernel overwrites, so this equals the owned path).
        let mut d_dispatch = ws.take(b, h);
        gemm_grouped_transpose_b(
            d_h.as_slice(),
            counts,
            f,
            |e| self.experts[e].0.as_slice(),
            h,
            d_dispatch.as_mut_slice(),
        );
        ws.recycle(d_h);
        for (e, &cnt) in counts.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            add_assign_slice(
                self.g_experts[e].1.as_mut_slice(),
                &dw2_all.as_slice()[e * f * h..(e + 1) * f * h],
            );
            add_assign_slice(
                self.g_experts[e].0.as_mut_slice(),
                &dw1_all.as_slice()[e * h * f..(e + 1) * h * f],
            );
        }
        ws.recycle(dw2_all);
        ws.recycle(dw1_all);
        ws.recycle(d_y);
        // Scatter dispatch grads back to token positions (gather transpose).
        scatter_rows_unit(&d_dispatch, &st.ctx.pft.token_ids, &mut d_x);
        st.ws.recycle(d_dispatch);

        // Router backward: d_scores at retained (t, e) entries, then softmax.
        let e_count = self.num_experts();
        let s_rows = st.ctx.x.rows();
        let mut d_scores = st.ws.take(s_rows, e_count);
        for i in 0..b {
            let t = st.ctx.pft.token_ids[i];
            let e = st.ctx.pft.expert_ids[i];
            let v = d_scores.get(t, e);
            d_scores.set(t, e, v + st.d_w[i]);
        }
        if self.aux_alpha != 0.0 {
            let total: usize = st.ctx.pft.tokens_per_expert.iter().sum();
            let denom = total.max(1) as f32;
            st.aux_f.clear();
            st.aux_f.extend(
                st.ctx
                    .pft
                    .tokens_per_expert
                    .iter()
                    .map(|&c| c as f32 / denom),
            );
            let s_inv = 1.0 / s_rows.max(1) as f32;
            let coef = self.aux_alpha * e_count as f32 * s_inv * loss_scale;
            for t in 0..s_rows {
                let row = d_scores.row_mut(t);
                for e in 0..e_count {
                    row[e] += coef * st.aux_f[e];
                }
            }
        }
        let mut d_logits = st.ws.take(s_rows, e_count);
        for t in 0..s_rows {
            let s_row = st.ctx.scores.row(t);
            let ds_row = d_scores.row(t);
            let inner: f32 = s_row.iter().zip(ds_row).map(|(s, d)| s * d).sum();
            let dl_row = d_logits.row_mut(t);
            for j in 0..e_count {
                dl_row[j] = s_row[j] * (ds_row[j] - inner);
            }
        }
        if self.router_guard.z_loss_coef != 0.0 {
            let coef = self.router_guard.z_loss_coef * 2.0 * loss_scale / s_rows.max(1) as f32;
            for t in 0..s_rows {
                let z = st.ctx.lse[t];
                let s_row = st.ctx.scores.row(t);
                let dl_row = d_logits.row_mut(t);
                for j in 0..e_count {
                    dl_row[j] += coef * z * s_row[j];
                }
            }
        }
        st.ws.recycle(d_scores);
        st.ctx.x.transpose_into(&mut st.xt);
        let mut dg = st.ws.take(h, e_count);
        matmul_slices(
            st.xt.as_slice(),
            h,
            s_rows,
            d_logits.as_slice(),
            e_count,
            dg.as_mut_slice(),
        );
        add_assign(&mut self.g_gate, &dg);
        st.ws.recycle(dg);
        let mut d_x_gate = st.ws.take(s_rows, h);
        matmul_transpose_b_slices(
            d_logits.as_slice(),
            s_rows,
            e_count,
            self.gate.as_slice(),
            h,
            d_x_gate.as_mut_slice(),
        );
        add_assign(&mut d_x, &d_x_gate);
        st.ws.recycle(d_x_gate);
        st.ws.recycle(d_logits);
        d_x
    }

    /// Zero all gradients.
    pub fn zero_grads(&mut self) {
        for v in self.g_gate.as_mut_slice() {
            *v = 0.0;
        }
        for (g1, g2) in &mut self.g_experts {
            for v in g1.as_mut_slice() {
                *v = 0.0;
            }
            for v in g2.as_mut_slice() {
                *v = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: DropPolicy, capacity: usize, seed: u64) -> TrainableMoe {
        TrainableMoe::new(6, 5, 4, 2, capacity, policy, seed)
    }

    /// Scalar probe loss: fixed random projection of the output.
    fn probe_loss(layer: &TrainableMoe, x: &Tensor, probe: &Tensor) -> f64 {
        let (out, _) = layer.forward(x);
        out.as_slice()
            .iter()
            .zip(probe.as_slice())
            .map(|(&o, &p)| (o * p) as f64)
            .sum()
    }

    #[test]
    fn forward_shapes_and_residual() {
        let layer = tiny(DropPolicy::CapacityOnly, 100, 1);
        let x = Tensor::rand_uniform(7, 6, 1.0, 2);
        let (out, ctx) = layer.forward(&x);
        assert_eq!(out.shape(), (7, 6));
        assert_eq!(ctx.pft.len(), 7 * 2);
        // With zeroed expert w2, output would equal x; with real weights it
        // must differ (the MoE contributes).
        assert!(!out.allclose(&x, 1e-6));
    }

    #[test]
    fn expert_gradients_match_finite_difference_under_topk() {
        // Expert weights do not influence routing, so their gradients are
        // exactly differentiable even with k < E.
        let base = tiny(DropPolicy::CapacityOnly, 100, 11);
        let x = Tensor::rand_uniform(5, 6, 1.0, 12);
        let probe = Tensor::rand_uniform(5, 6, 1.0, 13);
        let mut layer = base.clone();
        let (_, ctx) = layer.forward(&x);
        let _ = layer.backward(&ctx, &probe);

        let eps = 1e-2f32;
        let rel_ok = |fd: f64, an: f64| (fd - an).abs() < 3e-2 * (1.0 + an.abs().max(fd.abs()));
        for &(e, r, c) in &[(0usize, 0usize, 0usize), (1, 2, 3), (3, 5, 1)] {
            let w0 = base.experts[e].0.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.experts[e].0.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.experts[e].0.set(r, c, w0 - eps);
                (probe_loss(&up, &x, &probe) - probe_loss(&dn, &x, &probe)) / (2.0 * eps as f64)
            };
            let an = layer.g_experts[e].0.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dW1[{e}][{r},{c}] fd {fd} an {an}");
        }
        for &(e, r, c) in &[(0usize, 1usize, 2usize), (2, 4, 5)] {
            let w0 = base.experts[e].1.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.experts[e].1.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.experts[e].1.set(r, c, w0 - eps);
                (probe_loss(&up, &x, &probe) - probe_loss(&dn, &x, &probe)) / (2.0 * eps as f64)
            };
            let an = layer.g_experts[e].1.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dW2[{e}][{r},{c}] fd {fd} an {an}");
        }
    }

    #[test]
    fn router_and_input_gradients_match_fd_with_full_k() {
        // With k = E every expert is selected, so there is no selection
        // boundary and the router/input gradients are exact.
        let mut base = tiny(DropPolicy::CapacityOnly, 100, 51);
        base.top_k = base.num_experts();
        let x = Tensor::rand_uniform(5, 6, 1.0, 52);
        let probe = Tensor::rand_uniform(5, 6, 1.0, 53);
        let mut layer = base.clone();
        let (_, ctx) = layer.forward(&x);
        let d_x = layer.backward(&ctx, &probe);

        let eps = 1e-2f32;
        let rel_ok = |fd: f64, an: f64| (fd - an).abs() < 3e-2 * (1.0 + an.abs().max(fd.abs()));
        for &(r, c) in &[(0usize, 0usize), (3, 2), (5, 3)] {
            let w0 = base.gate.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.gate.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.gate.set(r, c, w0 - eps);
                (probe_loss(&up, &x, &probe) - probe_loss(&dn, &x, &probe)) / (2.0 * eps as f64)
            };
            let an = layer.g_gate.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dGate[{r},{c}] fd {fd} an {an}");
        }
        for &(r, c) in &[(0usize, 0usize), (2, 4)] {
            let v0 = x.get(r, c);
            let fd = {
                let mut up = x.clone();
                up.set(r, c, v0 + eps);
                let mut dn = x.clone();
                dn.set(r, c, v0 - eps);
                (probe_loss(&base, &up, &probe) - probe_loss(&base, &dn, &probe))
                    / (2.0 * eps as f64)
            };
            let an = d_x.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dX[{r},{c}] fd {fd} an {an}");
        }
    }

    #[test]
    fn z_loss_gradient_matches_fd_with_full_k() {
        // Total loss = probe projection + z-loss; with k = E the router
        // gradient is exact, so FD over gate weights must match backward
        // including the z term.
        let mut base = tiny(DropPolicy::CapacityOnly, 100, 61);
        base.top_k = base.num_experts();
        let base = base.with_router_guard(RouterGuard {
            logit_clamp: 0.0,
            z_loss_coef: 0.1,
        });
        let x = Tensor::rand_uniform(5, 6, 1.0, 62);
        let probe = Tensor::rand_uniform(5, 6, 1.0, 63);
        let total_loss = |layer: &TrainableMoe| -> f64 {
            let (out, ctx) = layer.forward(&x);
            let p: f64 = out
                .as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&o, &q)| (o * q) as f64)
                .sum();
            p + layer.z_loss(&ctx)
        };
        let mut layer = base.clone();
        let (_, ctx) = layer.forward(&x);
        assert!(layer.z_loss(&ctx) > 0.0);
        let _ = layer.backward(&ctx, &probe);

        let eps = 1e-2f32;
        let rel_ok = |fd: f64, an: f64| (fd - an).abs() < 3e-2 * (1.0 + an.abs().max(fd.abs()));
        for &(r, c) in &[(0usize, 0usize), (3, 2), (5, 3)] {
            let w0 = base.gate.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.gate.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.gate.set(r, c, w0 - eps);
                (total_loss(&up) - total_loss(&dn)) / (2.0 * eps as f64)
            };
            let an = layer.g_gate.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dGate[{r},{c}] fd {fd} an {an}");
        }
    }

    #[test]
    fn scaled_backward_scales_aux_and_z_terms_with_the_main_loss() {
        // Under a dynamic loss scale every router-gradient term — main
        // loss (via d_out), aux load-balancing loss, and z-loss — must
        // carry the same scale, or unscaling would change the effective
        // aux/z weighting by 1/scale. Power-of-two scaling commutes
        // bitwise with every float op in backward, so the scaled run must
        // equal scale × the unscaled run exactly.
        let scale = 4.0f32;
        let base = tiny(DropPolicy::CapacityOnly, 100, 81)
            .with_aux(0.05)
            .with_router_guard(RouterGuard {
                logit_clamp: 0.0,
                z_loss_coef: 0.1,
            });
        let x = Tensor::rand_uniform(5, 6, 1.0, 82);
        let probe = Tensor::rand_uniform(5, 6, 1.0, 83);
        let mut probe_scaled = probe.clone();
        for v in probe_scaled.as_mut_slice() {
            *v *= scale;
        }

        let mut plain = base.clone();
        let (_, ctx) = plain.forward(&x);
        let d_x = plain.backward(&ctx, &probe);

        let mut scaled = base.clone();
        let (_, ctx_s) = scaled.forward(&x);
        let d_x_s = scaled.backward_scaled(&ctx_s, &probe_scaled, scale);

        let eq = |a: &Tensor, b: &Tensor| {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(&p, &s)| (p * scale).to_bits() == s.to_bits())
        };
        assert!(eq(&plain.g_gate, &scaled.g_gate), "router grad not scaled");
        for (e, ((p1, p2), (s1, s2))) in plain.g_experts.iter().zip(&scaled.g_experts).enumerate() {
            assert!(eq(p1, s1) && eq(p2, s2), "expert {e} grads not scaled");
        }
        assert!(eq(&d_x, &d_x_s), "input grad not scaled");
    }

    #[test]
    fn logit_clamp_bounds_scores_and_reports_hits() {
        let mut hot = tiny(DropPolicy::CapacityOnly, 100, 71);
        // Blow up the router projection so raw logits leave [-1, 1].
        for v in hot.gate.as_mut_slice() {
            *v *= 100.0;
        }
        let x = Tensor::rand_uniform(6, 6, 1.0, 72);
        let unguarded = hot.clone();
        let (_, ctx_raw) = unguarded.forward(&x);
        assert_eq!(ctx_raw.logits_clamped(), 0);
        let guarded = hot.with_router_guard(RouterGuard {
            logit_clamp: 1.0,
            z_loss_coef: 0.0,
        });
        let (out, ctx) = guarded.forward(&x);
        assert!(ctx.logits_clamped() > 0);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        // With all logits in [-1, 1] no softmax score can exceed
        // e^2 / (E - 1 + e^2) < 1; the router can no longer saturate.
        let e = ctx.scores.cols() as f32;
        let cap = (2.0f32).exp() / (e - 1.0 + (2.0f32).exp());
        for t in 0..ctx.scores.rows() {
            for j in 0..ctx.scores.cols() {
                assert!(ctx.scores.get(t, j) <= cap + 1e-6);
            }
        }
    }

    #[test]
    fn dropped_tokens_receive_no_expert_gradient() {
        // Capacity 1: most assignments drop; gradients must remain finite
        // and the drop fraction visible.
        let layer = tiny(DropPolicy::CapacityOnly, 1, 21);
        let x = Tensor::rand_uniform(8, 6, 1.0, 22);
        let (out, ctx) = layer.forward(&x);
        assert!(ctx.pft.dropped > 0);
        let frac = TrainableMoe::last_drop_fraction(&ctx, 2);
        assert!(frac > 0.0 && frac < 1.0);
        let mut l2 = layer.clone();
        let d = Tensor::full(out.rows(), out.cols(), 1.0);
        let d_x = l2.backward(&ctx, &d);
        // The guard's non-finite scan is the recoverable path production
        // runs use (a Divergence trips a policy instead of aborting); a
        // clean backward must report no anomaly through it.
        assert_eq!(crate::guard::check_finite("d_x", d_x.as_slice()), Ok(()));
    }

    #[test]
    fn negative_logit_policy_drops_more() {
        let x = Tensor::rand_uniform(16, 6, 1.0, 31);
        let cap = 100;
        let (_, ctx_x) = tiny(DropPolicy::CapacityOnly, cap, 30).forward(&x);
        let (_, ctx_d) = tiny(DropPolicy::CapacityAndNegativeLogit, cap, 30).forward(&x);
        assert!(ctx_d.pft.dropped >= ctx_x.pft.dropped);
        assert!(ctx_d.pft.len() <= ctx_x.pft.len());
    }

    #[test]
    fn pooled_step_is_bitwise_identical_to_owned() {
        // Aux loss, both router guards, capacity drops, and a loss scale
        // all on at once: the pooled step must still reproduce the owned
        // step bit for bit, and after warm-up the arena must serve every
        // lease from its free lists.
        let base = tiny(DropPolicy::CapacityOnly, 4, 91)
            .with_aux(0.05)
            .with_router_guard(RouterGuard {
                logit_clamp: 1.0,
                z_loss_coef: 0.1,
            });
        let mut owned = base.clone();
        let mut pooled = base.clone();
        let mut st = MoeTrainScratch::default();
        let scale = 2.0f32;
        for step in 0..4u64 {
            let x = Tensor::rand_uniform(9, 6, 1.0, 900 + step);
            let probe = Tensor::rand_uniform(9, 6, 1.0, 950 + step);
            let (out_o, ctx) = owned.forward(&x);
            let d_o = owned.backward_scaled(&ctx, &probe, scale);
            let out_p = pooled.forward_pooled(&x, &mut st);
            let d_p = pooled.backward_scaled_pooled(&mut st, &probe, scale);
            assert!(out_o.allclose(&out_p, 0.0), "step {step}: forward diverged");
            assert!(d_o.allclose(&d_p, 0.0), "step {step}: d_x diverged");
            assert_eq!(ctx.dropped(), st.ctx.dropped(), "step {step}: drops");
            st.ws.recycle(out_p);
            st.ws.recycle(d_p);
        }
        assert!(
            owned.g_gate.allclose(&pooled.g_gate, 0.0),
            "g_gate diverged"
        );
        for (e, ((a1, a2), (b1, b2))) in owned.g_experts.iter().zip(&pooled.g_experts).enumerate() {
            assert!(
                a1.allclose(b1, 0.0) && a2.allclose(b2, 0.0),
                "expert {e} grads diverged"
            );
        }
        let before = st.ws.stats().pool_misses;
        let x = Tensor::rand_uniform(9, 6, 1.0, 990);
        let probe = Tensor::rand_uniform(9, 6, 1.0, 991);
        let out = pooled.forward_pooled(&x, &mut st);
        let d = pooled.backward_scaled_pooled(&mut st, &probe, scale);
        st.ws.recycle(out);
        st.ws.recycle(d);
        assert_eq!(
            st.ws.stats().pool_misses,
            before,
            "warm step missed the pool"
        );
    }

    #[test]
    fn zero_grads_clears_everything() {
        let mut layer = tiny(DropPolicy::CapacityOnly, 100, 41);
        let x = Tensor::rand_uniform(4, 6, 1.0, 42);
        let (out, ctx) = layer.forward(&x);
        let d = Tensor::full(out.rows(), out.cols(), 1.0);
        let _ = layer.backward(&ctx, &d);
        assert!(layer.g_gate.norm() > 0.0);
        layer.zero_grads();
        assert_eq!(layer.g_gate.norm(), 0.0);
        assert!(layer
            .g_experts
            .iter()
            .all(|(a, b)| a.norm() == 0.0 && b.norm() == 0.0));
    }
}
