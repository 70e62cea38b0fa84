//! The trainable MoE layer: forward and exact hand-written backward.
//!
//! Forward is the padding-free pipeline of `xmoe-core` (gating → PFT →
//! gather → per-expert FFN → weighted scatter) with a residual connection.
//! Backward propagates through every path, including the router: the
//! combine weight `w_i = scores[t, e_i]` carries gradient
//! `d_w_i = <d_out[t], y_i>` back into the gating softmax, which is the
//! standard top-k MoE router gradient (dropped assignments receive none).
//!
//! The layer math is written once, here: the grouped expert FFN
//! ([`ffn_forward`], [`ffn_backward`]), the combine backward
//! ([`combine_backward`]) and the router backward ([`RouterBackward`]).
//! [`TrainableMoe`] and the expert-parallel [`crate::dist::DistMoe`] both
//! run these, around core's [`gate_with`].

use xmoe_core::gating::{
    gate_with, z_loss_value, DropPolicy, GateScratch, GatingOutput, RouterGuard,
};
use xmoe_core::pft::{Pft, PftScratch};
use xmoe_tensor::{
    add_assign, add_assign_slice, dot_and_scale, gather_rows_into, gemm_grouped,
    gemm_grouped_transpose_a, gemm_grouped_transpose_b, matmul_transpose_a_slices,
    matmul_transpose_b_slices, scatter_rows_scaled, scatter_rows_unit, Tensor, Workspace,
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

/// Reusable scratch for the training step: the workspace arena, the saved
/// forward state, and the gating/PFT staging buffers. One instance per
/// layer per rank keeps a steady-state step free of transient heap
/// allocation; [`TrainableMoe::forward`] runs the same body on a
/// throwaway instance, and [`TrainableMoe::backward`] on a throwaway
/// arena.
#[derive(Default)]
pub struct MoeTrainScratch {
    /// Arena leasing step-lifetime tensors. The tensors the pooled methods
    /// *return* (forward output, input gradient) are leased from here too —
    /// recycle them once consumed to keep the steady state allocation-free.
    pub ws: Workspace,
    /// Saved forward state, rebuilt in place each step.
    pub ctx: MoeCtx,
    gate_scratch: GateScratch,
    gating: GatingOutput,
    pft_scratch: PftScratch,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

/// Grouped expert FFN forward over expert-major segments: for each expert
/// `e` with `counts[e]` rows of `x`, `h_pre = x W1_e`, `h_act =
/// silu(h_pre)`, `y = h_act W2_e`. `h_pre`, `h_act` (`[rows, F]`) and `y`
/// (`[rows, H]`) must arrive zero-filled — the grouped GEMM accumulates —
/// and results are bitwise identical to a per-expert `matmul` loop.
pub(crate) fn ffn_forward(
    experts: &[(Tensor, Tensor)],
    counts: &[usize],
    x: &[f32],
    h_pre: &mut [f32],
    h_act: &mut [f32],
    y: &mut [f32],
) {
    let Some((w1, _)) = experts.first() else {
        return;
    };
    let (h, f) = w1.shape();
    gemm_grouped(x, counts, h, |e| experts[e].0.as_slice(), f, h_pre);
    // Every row belongs to exactly one segment, so whole-buffer
    // elementwise passes equal per-segment ones.
    h_act.copy_from_slice(h_pre);
    for v in h_act.iter_mut() {
        *v *= sigmoid(*v);
    }
    gemm_grouped(h_act, counts, f, |e| experts[e].1.as_slice(), h, y);
}

/// Backward of [`ffn_forward`]: given the saved `(x, h_pre, h_act)` and
/// the output gradient `d_y`, accumulates each expert's weight gradients
/// into `grads` and overwrites `d_x` (`[rows, H]`) with the input
/// gradient. No transpose is materialised: the grouped transpose-A kernel
/// reproduces `matmul(seg.transpose(), dy)`'s accumulation order.
pub(crate) fn ffn_backward(
    experts: &[(Tensor, Tensor)],
    grads: &mut [(Tensor, Tensor)],
    counts: &[usize],
    (x, h_pre, h_act): (&[f32], &[f32], &[f32]),
    d_y: &[f32],
    d_x: &mut [f32],
    ws: &mut Workspace,
) {
    let Some((w1, _)) = experts.first() else {
        return;
    };
    let (h, f) = w1.shape();
    let (rows, e_count) = (counts.iter().sum(), counts.len());
    // dW2_e = act_e^T dy_e.
    let mut dw = ws.take(e_count * f, h);
    gemm_grouped_transpose_a(h_act, counts, f, d_y, h, dw.as_mut_slice());
    add_expert_grads(grads.iter_mut().map(|g| &mut g.1), &dw, f * h, counts);
    ws.recycle(dw);
    // d_act = dy W2^T; through SiLU.
    let mut d_h = ws.take(rows, f);
    gemm_grouped_transpose_b(
        d_y,
        counts,
        h,
        |e| experts[e].1.as_slice(),
        f,
        d_h.as_mut_slice(),
    );
    for (d, &pre) in d_h.as_mut_slice().iter_mut().zip(h_pre) {
        *d *= silu_grad(pre);
    }
    // dW1_e = x_e^T d_h_e.
    let mut dw = ws.take(e_count * h, f);
    gemm_grouped_transpose_a(x, counts, h, d_h.as_slice(), f, dw.as_mut_slice());
    add_expert_grads(grads.iter_mut().map(|g| &mut g.0), &dw, h * f, counts);
    ws.recycle(dw);
    // d_x = d_h W1^T.
    gemm_grouped_transpose_b(
        d_h.as_slice(),
        counts,
        f,
        |e| experts[e].0.as_slice(),
        h,
        d_x,
    );
    ws.recycle(d_h);
}

/// Add each expert's `block`-element slice of the staged weight gradient
/// `dw` (one block per expert, stacked row-wise) to its accumulator in
/// `acc`, skipping experts that received no tokens. Staging into a
/// zero-filled lease and adding once keeps the float sums in the
/// per-expert GEMM's order; accumulating straight into the gradient would
/// reassociate them.
fn add_expert_grads<'a>(
    acc: impl Iterator<Item = &'a mut Tensor>,
    dw: &Tensor,
    block: usize,
    counts: &[usize],
) {
    for ((g, &cnt), staged) in acc.zip(counts).zip(dw.as_slice().chunks(block)) {
        if cnt > 0 {
            add_assign_slice(g.as_mut_slice(), staged);
        }
    }
}

/// Combine backward: for every PFT row `i`, `d_y[i] = w_i * d_out[t_i]`
/// and `d_w[i] = <d_out[t_i], y[i]>`, where `y` holds the expert outputs
/// in PFT order. Returns `(d_y, d_w)` leased from `ws`, `d_w` as a
/// `[rows, 1]` column.
pub(crate) fn combine_backward(
    d_out: &Tensor,
    pft: &Pft,
    y: &Tensor,
    ws: &mut Workspace,
) -> (Tensor, Tensor) {
    let mut d_y = ws.take(0, 0);
    gather_rows_into(d_out, &pft.token_ids, &mut d_y);
    let mut d_w = ws.take(pft.len(), 1);
    for (i, dw) in d_w.as_mut_slice().iter_mut().enumerate() {
        *dw = dot_and_scale(d_y.row_mut(i), y.row(i), pft.combine_weights[i]);
    }
    (d_y, d_w)
}

/// Inputs of the router backward: the saved forward (`x`, the softmax
/// `scores`, the PFT and the z statistics), the combine-weight gradients
/// from [`combine_backward`], and the router's loss terms.
pub(crate) struct RouterBackward<'a> {
    pub x: &'a Tensor,
    pub scores: &'a Tensor,
    pub pft: &'a Pft,
    /// Per-token logsumexp of the logits (read only when the z-loss is on).
    pub lse: &'a [f32],
    pub d_w: &'a [f32],
    pub gate: &'a Tensor,
    pub aux_alpha: f32,
    pub z_loss_coef: f32,
    /// Scale the caller's `d_out` carries; the locally generated aux and
    /// z-loss gradients are multiplied by it too.
    pub loss_scale: f32,
}

impl RouterBackward<'_> {
    /// Scatter `d_w` into `d_scores` at the retained `(t, e)` entries, add
    /// the aux load-balancing term, back through the softmax, add the z
    /// term, then accumulate `dG = x^T d_logits` into `g_gate` and add
    /// `d_logits G^T` into `d_x`.
    pub(crate) fn run(&self, g_gate: &mut Tensor, d_x: &mut Tensor, ws: &mut Workspace) {
        let (s_rows, h) = self.x.shape();
        let e_count = self.scores.cols();
        let mut d_scores = ws.take(s_rows, e_count);
        for (i, &dw) in self.d_w.iter().enumerate() {
            let (t, e) = (self.pft.token_ids[i], self.pft.expert_ids[i]);
            let v = d_scores.get(t, e);
            d_scores.set(t, e, v + dw);
        }
        // Auxiliary load-balancing loss: dL/dscores[t, e] = alpha*E*f_e/S.
        if self.aux_alpha != 0.0 {
            let total: usize = self.pft.tokens_per_expert.iter().sum();
            let denom = total.max(1) as f32;
            let s_inv = 1.0 / s_rows.max(1) as f32;
            let coef = self.aux_alpha * e_count as f32 * s_inv * self.loss_scale;
            for t in 0..s_rows {
                let row = d_scores.row_mut(t);
                for (v, &c) in row.iter_mut().zip(&self.pft.tokens_per_expert) {
                    *v += coef * (c as f32 / denom);
                }
            }
        }
        let mut d_logits = ws.take(s_rows, e_count);
        for t in 0..s_rows {
            let s_row = self.scores.row(t);
            let ds_row = d_scores.row(t);
            let inner: f32 = s_row.iter().zip(ds_row).map(|(s, d)| s * d).sum();
            let dl_row = d_logits.row_mut(t);
            for j in 0..e_count {
                dl_row[j] = s_row[j] * (ds_row[j] - inner);
            }
        }
        // z-loss gradient goes straight onto the logits (z is a direct
        // function of them): dL_z/dl[t,j] = coef * (2/S) * z_t * scores[t,j].
        if self.z_loss_coef != 0.0 {
            let coef = self.z_loss_coef * 2.0 * self.loss_scale / s_rows.max(1) as f32;
            for t in 0..s_rows {
                let z = self.lse[t];
                let s_row = self.scores.row(t);
                let dl_row = d_logits.row_mut(t);
                for j in 0..e_count {
                    dl_row[j] += coef * z * s_row[j];
                }
            }
        }
        // dG = x^T d_logits, into a lease.
        let mut dg = ws.take(h, e_count);
        matmul_transpose_a_slices(
            self.x.as_slice(),
            s_rows,
            h,
            d_logits.as_slice(),
            e_count,
            dg.as_mut_slice(),
        );
        add_assign(g_gate, &dg);
        let mut d_x_gate = ws.take(s_rows, h);
        matmul_transpose_b_slices(
            d_logits.as_slice(),
            s_rows,
            e_count,
            self.gate.as_slice(),
            h,
            d_x_gate.as_mut_slice(),
        );
        add_assign(d_x, &d_x_gate);
        for t in [d_scores, d_logits, dg, d_x_gate] {
            ws.recycle(t);
        }
    }
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

    /// Value of the auxiliary loss for a saved forward context.
    pub fn aux_loss(&self, ctx: &MoeCtx) -> f64 {
        if self.aux_alpha == 0.0 {
            return 0.0;
        }
        let e_count = self.num_experts();
        let s = ctx.x.rows().max(1);
        let total: usize = ctx.pft.tokens_per_expert.iter().sum();
        let denom = total.max(1) as f32;
        let mut acc = 0.0f64;
        for (e, &c) in ctx.pft.tokens_per_expert.iter().enumerate() {
            let mut p_mean = 0.0f64;
            for t in 0..ctx.x.rows() {
                p_mean += ctx.scores.get(t, e) as f64;
            }
            p_mean /= s as f64;
            acc += (c as f32 / denom) as f64 * p_mean;
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
    /// [`Self::forward_pooled`] on a throwaway scratch.
    pub fn forward(&self, x: &Tensor) -> (Tensor, MoeCtx) {
        let mut st = MoeTrainScratch::default();
        let out = self.forward_pooled(x, &mut st);
        (out, st.ctx)
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
        self.backward_in(ctx, &mut Workspace::new(), d_out, loss_scale)
    }

    /// The layer forward — gating → PFT → gather → grouped expert FFN →
    /// weighted scatter — with every step-lifetime buffer reused from `st`.
    /// The saved forward state lands in `st.ctx`; the returned output is
    /// leased from `st.ws` — recycle it once consumed.
    pub fn forward_pooled(&self, x: &Tensor, st: &mut MoeTrainScratch) -> Tensor {
        let ctx = &mut st.ctx;
        let guard = self.router_guard;
        ctx.lse.clear();
        ctx.logits_clamped = gate_with(
            x,
            &self.gate,
            self.top_k,
            guard.logit_clamp,
            (guard.z_loss_coef != 0.0).then_some(&mut ctx.lse),
            &mut st.gate_scratch,
            &mut st.gating,
        );
        Pft::construct_into(
            &st.gating,
            self.num_experts(),
            self.capacity,
            self.policy,
            &mut st.pft_scratch,
            &mut ctx.pft,
        );
        // The backward needs the scores; the next gating call refills the
        // swapped-out buffer, so this saves them without a copy.
        std::mem::swap(&mut ctx.scores, &mut st.gating.scores);

        gather_rows_into(x, &ctx.pft.token_ids, &mut ctx.dispatch_in);
        let (b, h, f) = (ctx.pft.len(), x.cols(), self.experts[0].0.cols());
        ctx.h_pre.resize(b, f);
        ctx.h_act.resize(b, f);
        ctx.y.resize(b, h);
        ffn_forward(
            &self.experts,
            &ctx.pft.tokens_per_expert,
            ctx.dispatch_in.as_slice(),
            ctx.h_pre.as_mut_slice(),
            ctx.h_act.as_mut_slice(),
            ctx.y.as_mut_slice(),
        );

        ctx.x.resize(x.rows(), h);
        ctx.x.as_mut_slice().copy_from_slice(x.as_slice());
        let mut out = st.ws.take(x.rows(), h);
        out.as_mut_slice().copy_from_slice(x.as_slice());
        scatter_rows_scaled(
            &ctx.y,
            &ctx.pft.token_ids,
            &ctx.pft.combine_weights,
            &mut out,
        );
        out
    }

    /// [`Self::backward`] of the forward state saved in `st.ctx` by
    /// [`Self::forward_pooled`].
    pub fn backward_pooled(&mut self, st: &mut MoeTrainScratch, d_out: &Tensor) -> Tensor {
        self.backward_scaled_pooled(st, d_out, 1.0)
    }

    /// [`Self::backward_scaled`] of the forward state saved in `st.ctx`,
    /// leasing from `st.ws`. The returned input gradient is leased from
    /// `st.ws` too.
    pub fn backward_scaled_pooled(
        &mut self,
        st: &mut MoeTrainScratch,
        d_out: &Tensor,
        loss_scale: f32,
    ) -> Tensor {
        self.backward_in(&st.ctx, &mut st.ws, d_out, loss_scale)
    }

    /// The layer backward: combine backward, grouped expert FFN backward,
    /// scatter of the dispatch gradient, router backward. Every temporary
    /// and the returned `d_x` are leased from `ws`.
    fn backward_in(
        &mut self,
        ctx: &MoeCtx,
        ws: &mut Workspace,
        d_out: &Tensor,
        loss_scale: f32,
    ) -> Tensor {
        let mut d_x = ws.take(d_out.rows(), d_out.cols());
        d_x.as_mut_slice().copy_from_slice(d_out.as_slice()); // residual path
        let (d_y, d_w) = combine_backward(d_out, &ctx.pft, &ctx.y, ws);
        let mut d_dispatch = ws.take(ctx.pft.len(), d_out.cols());
        ffn_backward(
            &self.experts,
            &mut self.g_experts,
            &ctx.pft.tokens_per_expert,
            (
                ctx.dispatch_in.as_slice(),
                ctx.h_pre.as_slice(),
                ctx.h_act.as_slice(),
            ),
            d_y.as_slice(),
            d_dispatch.as_mut_slice(),
            ws,
        );
        // Scatter dispatch grads back to token positions (gather transpose).
        scatter_rows_unit(&d_dispatch, &ctx.pft.token_ids, &mut d_x);
        RouterBackward {
            x: &ctx.x,
            scores: &ctx.scores,
            pft: &ctx.pft,
            lse: &ctx.lse,
            d_w: d_w.as_slice(),
            gate: &self.gate,
            aux_alpha: self.aux_alpha,
            z_loss_coef: self.router_guard.z_loss_coef,
            loss_scale,
        }
        .run(&mut self.g_gate, &mut d_x, ws);
        for t in [d_y, d_w, d_dispatch] {
            ws.recycle(t);
        }
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
