//! X-MoE's padding-free MoE layer (paper §4.1, Listing 1).
//!
//! Stage labels charged to the [`SimClock`] match the Fig 11 breakdown:
//! `gating`, `buffer_dispatch`, `dispatch_a2a`, `expert`, `combine_a2a`,
//! `buffer_combine`.
//!
//! The uneven exchange is factored into a reusable [`EpRoute`]: built once
//! per batch from the PFT's per-expert counts and an [`ExpertAssignment`]
//! (any expert layout: contiguous, ragged, migrated or replicated), it can
//! push any row payload along the dispatch direction
//! ([`EpRoute::to_experts`]) or back along the combine direction
//! ([`EpRoute::to_source`]), or run a whole dispatch → compute → combine
//! round trip, serial or chunked ([`EpRoute::exchange`]). The training
//! backward pass reuses the same route in reverse — gradients travel the
//! exact same two all-to-alls mirrored (the paper's 4 all-to-alls per
//! layer per step).

use std::borrow::Cow;

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::{gather_rows, gather_rows_into, scatter_rows_scaled, Tensor, Workspace};

use crate::assignment::ExpertAssignment;
use crate::expert::ExpertShard;
use crate::gating::{GateScratch, GatingOutput, Router};
use crate::pft::{Pft, PftScratch};
use crate::pipeline::{rows_to_vec, vecs_to_tensor, MoeLayerSpec};

/// Single-rank reference: all experts local, no communication.
///
/// `call` in Listing 1 minus the all-to-alls (a 1-rank EP group).
pub fn forward_single(
    tokens: &Tensor,
    router: &Router,
    experts: &ExpertShard,
    spec: &MoeLayerSpec,
) -> Tensor {
    // One engine, two callers: the owned variant is the pooled variant run
    // against a throwaway state (pooled gating and construction are
    // bitwise identical to their owned counterparts, pinned by tests).
    let mut state = PooledSingleState::default();
    forward_single_pooled(tokens, router, experts, spec, &mut state)
}

/// Persistent state for every pooled pipeline: the workspace arena plus
/// every buffer the pipelines reuse across steps. One instance per rank,
/// reused for the lifetime of the layer. The padding-free, block-sparse and
/// RBD paths all lease from the same state, so a rank running several
/// pipelines still converges to one arena high-water mark.
#[derive(Default)]
pub struct PooledSingleState {
    /// The arena backing transient leases (dispatch, MLP scratch, output).
    pub ws: Workspace,
    pub(crate) gate_scratch: GateScratch,
    pub(crate) gating: GatingOutput,
    pub(crate) pft_scratch: PftScratch,
    pub(crate) pft: Pft,
    pub(crate) dispatch_in: Tensor,
    /// RBD-specific plan/staging scratch (see [`crate::rbd`]).
    pub(crate) rbd: crate::rbd::RbdScratch,
}

/// [`forward_single`] with every intermediate buffer served from a
/// [`PooledSingleState`]: pooled gating, pooled PFT construction, pooled
/// dispatch staging and pooled segment GEMMs. Bitwise identical to the
/// unpooled variant; after the first (warm-up) call, steady-state calls
/// perform zero transient heap allocations. The returned output is leased
/// from `state.ws` — recycle it there when done.
pub fn forward_single_pooled(
    tokens: &Tensor,
    router: &Router,
    experts: &ExpertShard,
    spec: &MoeLayerSpec,
    state: &mut PooledSingleState,
) -> Tensor {
    forward_single_with(tokens, router, experts, spec, state, |input, counts, ws| {
        experts.forward_segments_pooled(input, counts, ws)
    })
}

/// The one single-rank body every pooled pipeline shares: pooled gating →
/// PFT → gather → `expert_step` → weighted scatter. `expert_step` gets the
/// expert-sorted dispatch rows and the per-expert counts, and returns one
/// output row per input row leased from the workspace (the body recycles
/// it).
pub(crate) fn forward_single_with<F>(
    tokens: &Tensor,
    router: &Router,
    experts: &ExpertShard,
    spec: &MoeLayerSpec,
    state: &mut PooledSingleState,
    expert_step: F,
) -> Tensor
where
    F: FnOnce(&Tensor, &[usize], &mut Workspace) -> Tensor,
{
    assert_eq!(
        experts.len(),
        spec.num_experts,
        "single-rank forward needs the full expert set"
    );
    router.gate_into(tokens, &mut state.gate_scratch, &mut state.gating);
    Pft::construct_into(
        &state.gating,
        spec.num_experts,
        spec.capacity,
        spec.policy,
        &mut state.pft_scratch,
        &mut state.pft,
    );
    gather_rows_into(tokens, &state.pft.token_ids, &mut state.dispatch_in);
    let mlp_out = expert_step(
        &state.dispatch_in,
        &state.pft.tokens_per_expert,
        &mut state.ws,
    );
    let mut out = state.ws.take(tokens.rows(), tokens.cols());
    scatter_rows_scaled(
        &mlp_out,
        &state.pft.token_ids,
        &state.pft.combine_weights,
        &mut out,
    );
    state.ws.recycle(mlp_out);
    out
}

/// Stage labels of the forward exchange: (to experts, expert compute, back
/// to sources).
pub const FORWARD_STAGES: (&str, &str, &str) = ("dispatch_a2a", "expert", "combine_a2a");

/// The routing plan of one uneven EP exchange over any
/// [`ExpertAssignment`], reusable for forward activations and backward
/// gradients.
///
/// Wire layout: senders emit each expert's PFT segment to that expert's
/// serving rank, grouped by destination rank with ascending global expert
/// id inside each group; receivers regroup the concatenated-by-source wire
/// buffer expert-major — (local expert ascending, source rank ascending,
/// source PFT order) — so the expert GEMM order does not depend on which
/// rank serves which copy.
pub struct EpRoute {
    /// The PFT this route was built from (source-side ERI arrays).
    pub pft: Pft,
    /// Per-destination-rank entry counts on the send side.
    pub send_per_dst: Vec<usize>,
    /// Entry counts received from each source rank.
    pub recv_per_src: Vec<usize>,
    /// Entry counts per local expert after the expert-major regroup.
    pub tokens_per_local_expert: Vec<usize>,
    /// Send position → PFT row, and its inverse; `None` when the PFT's
    /// expert order already groups rows by destination (every contiguous
    /// single-holder layout), so no regroup is needed.
    send_perm: Option<(Vec<usize>, Vec<usize>)>,
    /// `tpe_send[dst][j]` = rows this rank sends to `dst`'s `j`-th local
    /// expert, and `tpe_recv[src][j]` = rows inbound from `src` for local
    /// expert `j` (the two sides of the count exchange), kept to derive
    /// per-chunk sub-routes.
    tpe_send: Vec<Vec<u64>>,
    tpe_recv: Vec<Vec<u64>>,
    /// The whole exchange as one chunk (the serial schedule).
    full: ChunkPlan,
}

/// One chunk of an [`EpRoute`]: the sub-route covering a contiguous range of
/// local experts, used to pipeline the uneven exchange against the expert
/// GEMMs. Concatenating the chunks' expert-major buffers in order
/// reconstructs the full route's expert-major buffer exactly.
pub struct ChunkPlan {
    /// This rank's local-expert range `[e0, e1)` the chunk covers.
    pub experts: (usize, usize),
    /// Send rows `[start, end)` in send order, per destination rank (each
    /// destination's local experts are contiguous in send order, so its
    /// chunk slice is too).
    pub send_ranges: Vec<(usize, usize)>,
    /// Rows received from each source rank in this chunk.
    pub recv_per_src: Vec<usize>,
    /// Chunk-local wire→expert-major permutation.
    perm: Vec<usize>,
    /// Inverse of `perm`.
    inv_perm: Vec<usize>,
}

impl ChunkPlan {
    /// Chunk `c` of `k`: on every rank `d`, the local experts
    /// `[c·n_d/k, (c+1)·n_d/k)` of its `n_d`.
    fn new(tpe_send: &[Vec<u64>], tpe_recv: &[Vec<u64>], c: usize, k: usize) -> ChunkPlan {
        let upto = |counts: &[u64], j: usize| counts[..j].iter().sum::<u64>() as usize;
        let mut base = 0usize;
        let send_ranges = tpe_send
            .iter()
            .map(|counts| {
                let n = counts.len();
                let range = (
                    base + upto(counts, c * n / k),
                    base + upto(counts, (c + 1) * n / k),
                );
                base += upto(counts, n);
                range
            })
            .collect();

        let e_local = tpe_recv.first().map_or(0, Vec::len);
        let (e0, e1) = (c * e_local / k, (c + 1) * e_local / k);
        let recv_per_src: Vec<usize> = tpe_recv
            .iter()
            .map(|r| r[e0..e1].iter().sum::<u64>() as usize)
            .collect();
        // Wire order is (src, local expert); regroup (local expert, src) so
        // chunk buffers concatenate into the full expert-major order.
        let (mut starts, mut total) = (Vec::with_capacity(recv_per_src.len()), 0usize);
        for &cnt in &recv_per_src {
            starts.push(total);
            total += cnt;
        }
        let mut perm = Vec::with_capacity(total);
        for e in e0..e1 {
            for (counts, &start) in tpe_recv.iter().zip(&starts) {
                let start = start + counts[e0..e].iter().sum::<u64>() as usize;
                perm.extend(start..start + counts[e] as usize);
            }
        }
        let mut inv_perm = vec![0usize; perm.len()];
        for (expert_major, &wire) in perm.iter().enumerate() {
            inv_perm[wire] = expert_major;
        }
        ChunkPlan {
            experts: (e0, e1),
            send_ranges,
            recv_per_src,
            perm,
            inv_perm,
        }
    }

    /// Rows on the expert side of this chunk.
    pub fn recv_total(&self) -> usize {
        self.perm.len()
    }

    /// Per-destination dispatch payloads of this chunk, cut from rows in
    /// send order.
    fn dispatch_parts(&self, send: &Tensor) -> Vec<Vec<f32>> {
        self.send_ranges
            .iter()
            .map(|&(s0, s1)| rows_to_vec(send, s0, s1))
            .collect()
    }

    /// The chunk's arrived wire payloads, regrouped expert-major.
    fn expert_major(&self, recv: Vec<Vec<f32>>, hidden: usize) -> Tensor {
        let wire = vecs_to_tensor(recv, hidden);
        debug_assert_eq!(wire.rows(), self.recv_total());
        gather_rows(&wire, &self.perm)
    }

    /// Per-source combine payloads of the chunk's expert-major rows.
    fn combine_parts(&self, rows: &Tensor) -> Vec<Vec<f32>> {
        let wire = gather_rows(rows, &self.inv_perm);
        let mut offset = 0usize;
        self.recv_per_src
            .iter()
            .map(|&cnt| {
                offset += cnt;
                rows_to_vec(&wire, offset - cnt, offset)
            })
            .collect()
    }
}

impl EpRoute {
    /// Collectively build the route: exchanges the per-(destination, local
    /// expert) counts so every destination knows its inbound segment sizes
    /// (Listing 1 line 44) — one `u64` all-to-all, claimed by the caller
    /// (`clock.commit("dispatch_a2a_meta")`).
    pub fn build(
        pft: Pft,
        assignment: &ExpertAssignment,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<EpRoute, CommError> {
        let w = ep.size();
        let me = ep.rank();
        let e = assignment.n_experts();
        assert_eq!(assignment.n_ranks(), w, "assignment world != communicator");
        assert_eq!(pft.tokens_per_expert.len(), e, "PFT expert count mismatch");
        let mut pre = vec![0usize; e + 1];
        for (g, &c) in pft.tokens_per_expert.iter().enumerate() {
            pre[g + 1] = pre[g] + c;
        }
        // Destination `d` gets my rows for each of its local experts that
        // *I* route to `d` (none when my stripe of a replicated expert
        // lands elsewhere), in ascending expert order.
        let mut tpe_send = Vec::with_capacity(w);
        let mut send_perm = Vec::with_capacity(pft.len());
        let mut send_per_dst = Vec::with_capacity(w);
        for d in 0..w {
            let mark = send_perm.len();
            let counts = assignment
                .experts_on(d)
                .into_iter()
                .map(|g| {
                    if assignment.serving_rank(g, me) != d {
                        return 0;
                    }
                    send_perm.extend(pre[g]..pre[g + 1]);
                    pft.tokens_per_expert[g] as u64
                })
                .collect();
            tpe_send.push(counts);
            send_per_dst.push(send_perm.len() - mark);
        }
        debug_assert_eq!(send_perm.len(), pft.len(), "every PFT row routes once");
        let send_perm = if send_perm.iter().enumerate().all(|(i, &p)| i == p) {
            None
        } else {
            let mut inv = vec![0usize; send_perm.len()];
            for (k, &p) in send_perm.iter().enumerate() {
                inv[p] = k;
            }
            Some((send_perm, inv))
        };
        let tpe_recv = ep.all_to_all_v(tpe_send.clone(), clock)?;

        let mut tokens_per_local_expert = vec![0usize; tpe_recv[0].len()];
        for r in &tpe_recv {
            for (j, &c) in r.iter().enumerate() {
                tokens_per_local_expert[j] += c as usize;
            }
        }
        let full = ChunkPlan::new(&tpe_send, &tpe_recv, 0, 1);
        Ok(EpRoute {
            pft,
            send_per_dst,
            recv_per_src: full.recv_per_src.clone(),
            tokens_per_local_expert,
            send_perm,
            tpe_send,
            tpe_recv,
            full,
        })
    }

    /// Split the route into `K = chunks.clamp(1, max_d n_d)` sub-routes,
    /// where `n_d` is rank `d`'s local expert count: chunk `c` covers rank
    /// `d`'s local experts `[c·n_d/K, (c+1)·n_d/K)` (possibly empty on a
    /// rank with fewer than `K` experts).
    ///
    /// `K` and every rank's boundaries are pure functions of the shared
    /// assignment, so every rank derives the same plan and the chunked
    /// collectives stay in SPMD order.
    pub fn chunk_plans(&self, chunks: usize) -> Vec<ChunkPlan> {
        let max_local = self.tpe_send.iter().map(Vec::len).max().unwrap_or(0);
        let k = chunks.clamp(1, max_local.max(1));
        (0..k)
            .map(|c| ChunkPlan::new(&self.tpe_send, &self.tpe_recv, c, k))
            .collect()
    }

    /// Rows received on this rank (the expert-side buffer length).
    pub fn recv_total(&self) -> usize {
        self.full.recv_total()
    }

    /// `rows` (PFT order) regrouped into send order.
    fn send_order<'a>(&self, rows: &'a Tensor) -> Cow<'a, Tensor> {
        debug_assert_eq!(rows.rows(), self.pft.len(), "payload must be in PFT order");
        match &self.send_perm {
            None => Cow::Borrowed(rows),
            Some((perm, _)) => Cow::Owned(gather_rows(rows, perm)),
        }
    }

    /// Send-ordered `rows` back in PFT order.
    fn pft_order(&self, rows: Tensor) -> Tensor {
        match &self.send_perm {
            None => rows,
            Some((_, inv)) => gather_rows(&rows, inv),
        }
    }

    /// Carry PFT-ordered `rows` to the experts, run `compute` on each
    /// received expert-major block and carry its output back to PFT order
    /// on the sources. `compute(experts, block, clock)` gets the block's
    /// local-expert range `[e0, e1)`, must return one output row per input
    /// row, and charges its own time.
    ///
    /// `stages = (to experts, compute, back to sources)` name the stage
    /// buckets. With `chunks <= 1` the exchange is one serial all-to-all
    /// each way around a single `compute` over every local expert. With
    /// `chunks > 1` it is split into the [`Self::chunk_plans`] sub-routes
    /// and pipelined (paper §4.1's dispatch–compute overlap): every
    /// dispatch chunk is issued up front (a NIC send queue), and chunk
    /// `i`'s compute runs on the `compute` overlap track while chunk
    /// `i+1`'s payload is still in flight on the `comm` track.
    ///
    /// Three tracks model a full-duplex NIC: dispatch chunks drain
    /// back-to-back on `comm` (inbound), compute runs on `compute`, and
    /// combine chunks drain on `comm_out` (outbound) — a combine transfer
    /// cannot start before its own compute finished (enforced per chunk via
    /// `advance_to_op`) but does not block dispatch chunks still in flight
    /// the other way. Leftover pending time inside a chunk's compute is
    /// committed under the compute label.
    ///
    /// Concatenating the chunk buffers in order reproduces the full route's
    /// expert-major buffer exactly, so both schedules give bitwise-identical
    /// results — only the simulated timeline differs.
    pub fn exchange<F>(
        &self,
        rows: &Tensor,
        chunks: usize,
        stages: (&str, &str, &str),
        ep: &Communicator,
        clock: &mut SimClock,
        mut compute: F,
    ) -> Result<Tensor, CommError>
    where
        F: FnMut((usize, usize), &Tensor, &mut SimClock) -> Tensor,
    {
        let (dispatch_label, compute_label, combine_label) = stages;
        if chunks <= 1 {
            let input = self.to_experts(rows, ep, clock)?;
            clock.commit(dispatch_label);
            let output = compute(self.full.experts, &input, clock);
            let back = self.to_source(&output, ep, clock)?;
            clock.commit(combine_label);
            return Ok(back);
        }

        let hidden = rows.cols();
        let send = self.send_order(rows);
        let plans = self.chunk_plans(chunks);

        clock.begin_overlap("dispatch_compute");
        clock.set_track("comm");
        // Issue every dispatch chunk before waiting on any: the sends sit in
        // the FIFO per-(src,dst) channels like a NIC send queue, and the comm
        // track serializes their priced transfer times as the waits drain.
        // Issuing never blocks, so the interleaved schedule cannot deadlock.
        let mut dispatch_pending = Vec::with_capacity(plans.len());
        for plan in &plans {
            dispatch_pending.push(ep.issue_all_to_all_v(plan.dispatch_parts(&send), clock)?);
        }

        let mut out = Tensor::zeros(self.pft.len(), hidden);
        let mut combine_pending = Vec::with_capacity(plans.len());
        let mut compute_done_at = Vec::with_capacity(plans.len());
        for (plan, pending) in plans.iter().zip(dispatch_pending) {
            clock.set_track("comm");
            let recv = pending.wait(clock)?;
            clock.commit(dispatch_label);
            let arrived = clock.track_time("comm").expect("comm track exists");
            let chunk_in = plan.expert_major(recv, hidden);

            clock.set_track("compute");
            // Honest cross-track dependency: the compute cannot start before
            // its chunk has arrived.
            clock.advance_to_op(compute_label, arrived);
            let chunk_out = compute(plan.experts, &chunk_in, clock);
            clock.commit(compute_label);
            assert_eq!(
                chunk_out.rows(),
                plan.recv_total(),
                "compute must map chunk rows 1:1"
            );
            compute_done_at.push(clock.track_time("compute").expect("compute track exists"));

            // Issue the combine send from the compute track: injection is
            // free, and the message carries the compute-done stamp so peers
            // cannot see chunk c's rows earlier than its compute finished.
            // Transfer time is priced on the outbound track in the drain
            // loop below.
            combine_pending.push(ep.issue_all_to_all_v(plan.combine_parts(&chunk_out), clock)?);
        }

        // Drain the combine exchanges in issue order on the outbound track;
        // each chunk's rows return to the send positions they were
        // dispatched from. The per-chunk `advance_to_op` pins the transfer
        // start at the chunk's own compute completion; `wait` then maxes in
        // the peers' injection stamps.
        clock.set_track("comm_out");
        for ((plan, pending), done) in plans.iter().zip(combine_pending).zip(compute_done_at) {
            clock.advance_to_op(combine_label, done);
            let recv = pending.wait(clock)?;
            clock.commit(combine_label);
            for (dst, data) in recv.into_iter().enumerate() {
                let (s0, s1) = plan.send_ranges[dst];
                debug_assert_eq!(data.len(), (s1 - s0) * hidden);
                out.as_mut_slice()[s0 * hidden..s1 * hidden].copy_from_slice(&data);
            }
        }
        clock.end_overlap();
        Ok(self.pft_order(out))
    }

    /// Push `rows` (PFT order, `[B, H]`) along the dispatch direction;
    /// returns the expert-major `[B_exp, H]` buffer on the receiving side.
    pub fn to_experts(
        &self,
        rows: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let parts = self.full.dispatch_parts(&self.send_order(rows));
        let recv = ep.all_to_all_v(parts, clock)?;
        Ok(self.full.expert_major(recv, rows.cols()))
    }

    /// Push `rows` (expert-major, `[B_exp, H]`) back to their source
    /// ranks; returns `[B, H]` in the sender's original PFT order.
    pub fn to_source(
        &self,
        rows: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        debug_assert_eq!(
            rows.rows(),
            self.recv_total(),
            "payload must be expert-major"
        );
        let recv = ep.all_to_all_v(self.full.combine_parts(rows), clock)?;
        // Chunks arrive per destination in the order dispatch rows were
        // sent, so plain concatenation restores send order.
        Ok(self.pft_order(vecs_to_tensor(recv, rows.cols())))
    }
}

/// Distributed padding-free MoE layer over an expert-parallel group.
///
/// Every rank passes its local `[S, H]` token batch; experts are sharded
/// blockwise over the EP group (`shard`). Returns the local `[S, H]` output.
pub fn forward_ep(
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    ep: &Communicator,
    clock: &mut SimClock,
) -> Result<Tensor, CommError> {
    forward_ep_overlap(tokens, router, shard, spec, 1, ep, clock)
}

/// [`forward_ep`] with the dispatch/combine exchanges split into `chunks`
/// expert-contiguous pieces and pipelined against the expert GEMMs via
/// [`EpRoute::exchange`]. The output is bitwise identical to
/// [`forward_ep`]; only the simulated timeline differs — the `comm` and
/// `compute` tracks of the overlap region advance concurrently, so the
/// step's wall clock hides whichever side is shorter.
pub fn forward_ep_overlap(
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    chunks: usize,
    ep: &Communicator,
    clock: &mut SimClock,
) -> Result<Tensor, CommError> {
    let cost = ep.cost();
    let hidden = tokens.cols();
    let ffn = shard.experts.first().map_or(0, |e| e.w1.cols());
    forward_ep_with(
        tokens,
        router,
        spec,
        chunks,
        ep,
        clock,
        |counts, input, clock| {
            let out = shard.forward_segments(input, counts);
            let flops = 4.0 * input.rows() as f64 * hidden as f64 * ffn as f64;
            clock.charge("expert", cost.compute_time(flops));
            out
        },
    )
}

/// The one distributed padding-free body: gating → PFT → gather → route on
/// the contiguous expert layout → [`EpRoute::exchange`] → weighted scatter.
/// `expert_step(counts, block, clock)` is the exchange's compute step: it
/// gets one expert-major block and per-local-expert row counts that are
/// zero outside the block's experts, and charges its own stage time.
pub(crate) fn forward_ep_with<F>(
    tokens: &Tensor,
    router: &Router,
    spec: &MoeLayerSpec,
    chunks: usize,
    ep: &Communicator,
    clock: &mut SimClock,
    mut expert_step: F,
) -> Result<Tensor, CommError>
where
    F: FnMut(&[usize], &Tensor, &mut SimClock) -> Tensor,
{
    let cost = ep.cost();
    let hidden = tokens.cols();

    // --- Gating + PFT construction -------------------------------------
    let gating = router.gate(tokens);
    let pft = Pft::construct(&gating, spec.num_experts, spec.capacity, spec.policy);
    let gate_flops = 2.0 * tokens.rows() as f64 * hidden as f64 * spec.num_experts as f64;
    let pft_bytes = (tokens.rows() * gating.k()) as f64 * 32.0;
    clock.charge(
        "gating",
        cost.compute_time(gate_flops) + cost.mem_bound_time(pft_bytes),
    );

    // --- Buffer dispatch: local gather into the dispatch matrix --------
    let dispatch_in = gather_rows(tokens, &pft.token_ids);
    clock.charge(
        "buffer_dispatch",
        cost.mem_bound_time(2.0 * (pft.len() * hidden * 4) as f64),
    );

    // --- Dispatch all-to-all (uneven, no padding) → experts → combine ---
    // The count-exchange metadata all-to-all is charged separately from the
    // token payload so payload comparisons across pipelines stay apples to
    // apples.
    let assignment = ExpertAssignment::contiguous(spec.num_experts, ep.size());
    let route = EpRoute::build(pft, &assignment, ep, clock)?;
    clock.commit("dispatch_a2a_meta");
    let counts = &route.tokens_per_local_expert;
    let combine_in = route.exchange(
        &dispatch_in,
        chunks,
        FORWARD_STAGES,
        ep,
        clock,
        |(e0, e1), block, clock| {
            // A full-length count vector zeroed outside [e0, e1) makes the
            // segment GEMMs walk exactly the serial schedule's row slices
            // for these experts.
            let mut block_counts = vec![0usize; counts.len()];
            block_counts[e0..e1].copy_from_slice(&counts[e0..e1]);
            expert_step(&block_counts, block, clock)
        },
    )?;

    // --- Buffer combine: weighted scatter back to sequence order -------
    let mut out = Tensor::zeros(tokens.rows(), hidden);
    scatter_rows_scaled(
        &combine_in,
        &route.pft.token_ids,
        &route.pft.combine_weights,
        &mut out,
    );
    clock.charge(
        "buffer_combine",
        cost.mem_bound_time(2.0 * (route.pft.len() * hidden * 4) as f64),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::DropPolicy;
    use xmoe_collectives::{SimCluster, Span};

    fn spec(e: usize, cap: usize) -> MoeLayerSpec {
        MoeLayerSpec::new(e, cap).with_policy(DropPolicy::CapacityOnly)
    }

    #[test]
    fn single_rank_output_is_weighted_expert_mix() {
        // One token, one expert, top-1: output must equal w * expert(x).
        let router = Router::new(8, 2, 1, 3);
        let experts = ExpertShard::full(2, 8, 16, 4);
        let tokens = Tensor::rand_uniform(1, 8, 1.0, 5);
        let out = forward_single(&tokens, &router, &experts, &spec(2, 100));
        let g = router.gate(&tokens);
        let e = g.top_experts[0];
        let w = g.combine_weights[0];
        let mut expected = experts.experts[e].forward(&tokens);
        xmoe_tensor::scale_assign(&mut expected, w);
        assert!(out.allclose(&expected, 1e-5));
    }

    #[test]
    fn pooled_single_rank_is_bitwise_identical_across_steps() {
        let (s, h, f, e, k) = (24, 16, 8, 8, 3);
        let router = Router::new(h, e, k, 31);
        let experts = ExpertShard::full(e, h, f, 32);
        let sp = spec(e, 7); // tight capacity: drops exercised too
        let mut state = PooledSingleState::default();
        for step in 0..4 {
            let tokens = Tensor::rand_uniform(s, h, 1.0, 100 + step);
            let expected = forward_single(&tokens, &router, &experts, &sp);
            let out = forward_single_pooled(&tokens, &router, &experts, &sp, &mut state);
            assert!(out.allclose(&expected, 0.0), "step {step} diverged");
            state.ws.recycle(out);
        }
        // Warm-up allocates two arena buffers (the recycled MLP scratch is
        // reused for the combine output); subsequent steps only reuse.
        assert_eq!(state.ws.stats().pool_misses, 2);
    }

    #[test]
    fn distributed_matches_single_rank_reference() {
        let (s, h, f, e, k) = (24, 16, 8, 8, 3);
        let seed = 11;
        for world in [2usize, 4, 8] {
            let reference = {
                let router = Router::new(h, e, k, seed);
                let experts = ExpertShard::full(e, h, f, seed + 1);
                let sp = spec(e, 10_000);
                SimCluster::frontier(world).run(|ctx| {
                    // Every rank gets a *different* local batch.
                    let tokens = Tensor::rand_uniform(s, h, 1.0, 100 + ctx.rank as u64);
                    forward_single(&tokens, &router, &experts, &sp)
                })
            };
            let distributed = {
                let router = Router::new(h, e, k, seed);
                let sp = spec(e, 10_000);
                SimCluster::frontier(world).run(|ctx| {
                    let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, seed + 1);
                    let tokens = Tensor::rand_uniform(s, h, 1.0, 100 + ctx.rank as u64);
                    forward_ep(&tokens, &router, &shard, &sp, &ctx.world, &mut ctx.clock).unwrap()
                })
            };
            for (r, (a, b)) in reference.iter().zip(&distributed).enumerate() {
                assert!(
                    a.allclose(b, 1e-4),
                    "world {world} rank {r}: max diff {}",
                    a.max_abs_diff(b)
                );
            }
        }
    }

    #[test]
    fn distributed_charges_all_pipeline_stages() {
        let (s, h, f, e, k) = (16, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 21);
        let sp = spec(e, 1000);
        let buckets = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 22);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 23);
            let _ = forward_ep(&tokens, &router, &shard, &sp, &ctx.world, &mut ctx.clock).unwrap();
            ctx.clock.buckets().to_vec()
        });
        for labels in &buckets {
            let names: Vec<&str> = labels.iter().map(|(l, _)| l.as_str()).collect();
            for want in [
                "gating",
                "buffer_dispatch",
                "dispatch_a2a",
                "expert",
                "combine_a2a",
                "buffer_combine",
            ] {
                assert!(names.contains(&want), "missing stage {want}: {names:?}");
            }
            assert!(labels.iter().all(|(_, t)| *t >= 0.0));
        }
    }

    #[test]
    fn capacity_drops_do_not_break_distributed_equivalence() {
        // Tight capacity: both paths must drop the same entries.
        let (s, h, f, e, k) = (32, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 31);
        let experts_full = ExpertShard::full(e, h, f, 32);
        let sp = spec(e, 5); // tight
        let tokens = Tensor::rand_uniform(s, h, 1.0, 33);
        let reference = forward_single(&tokens, &router, &experts_full, &sp);
        let distributed = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 32);
            forward_ep(&tokens, &router, &shard, &sp, &ctx.world, &mut ctx.clock).unwrap()
        });
        for d in &distributed {
            assert!(
                d.allclose(&reference, 1e-4),
                "max diff {}",
                d.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn route_roundtrip_restores_pft_order() {
        // to_experts followed by to_source must return every row to its
        // original position (the property backward relies on).
        let (s, h, e, k) = (20usize, 6usize, 8usize, 3usize);
        let router = Router::new(h, e, k, 41);
        let sp = spec(e, 1000);
        let ok = SimCluster::frontier(4).run(|ctx| {
            let tokens = Tensor::rand_uniform(s, h, 1.0, 200 + ctx.rank as u64);
            let gating = router.gate(&tokens);
            let pft = Pft::construct(&gating, e, sp.capacity, sp.policy);
            let payload = Tensor::rand_uniform(pft.len(), h, 1.0, 300 + ctx.rank as u64);
            let route = EpRoute::build(
                pft,
                &ExpertAssignment::contiguous(e, 4),
                &ctx.world,
                &mut ctx.clock,
            )
            .unwrap();
            let there = route
                .to_experts(&payload, &ctx.world, &mut ctx.clock)
                .unwrap();
            let back = route.to_source(&there, &ctx.world, &mut ctx.clock).unwrap();
            back.allclose(&payload, 0.0)
        });
        assert!(ok.iter().all(|&b| b), "route roundtrip failed: {ok:?}");
    }

    #[test]
    fn overlap_forward_is_bitwise_identical_to_serial() {
        let (s, h, f, e, k) = (24, 16, 8, 8, 3);
        for world in [2usize, 4] {
            let serial = {
                let router = Router::new(h, e, k, 61);
                let sp = spec(e, 10_000);
                SimCluster::frontier(world).run(|ctx| {
                    let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 62);
                    let tokens = Tensor::rand_uniform(s, h, 1.0, 500 + ctx.rank as u64);
                    forward_ep(&tokens, &router, &shard, &sp, &ctx.world, &mut ctx.clock).unwrap()
                })
            };
            for chunks in [1usize, 2, 4, 9] {
                let router = Router::new(h, e, k, 61);
                let sp = spec(e, 10_000);
                let overlapped = SimCluster::frontier(world).run(|ctx| {
                    let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 62);
                    let tokens = Tensor::rand_uniform(s, h, 1.0, 500 + ctx.rank as u64);
                    forward_ep_overlap(
                        &tokens,
                        &router,
                        &shard,
                        &sp,
                        chunks,
                        &ctx.world,
                        &mut ctx.clock,
                    )
                    .unwrap()
                });
                for (r, (a, b)) in serial.iter().zip(&overlapped).enumerate() {
                    assert!(
                        a.allclose(b, 0.0),
                        "world {world} chunks {chunks} rank {r}: not bitwise identical \
                         (max diff {})",
                        a.max_abs_diff(b)
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_hides_time_and_tracks_stay_exact() {
        // The overlapped schedule must never be slower than its own serial
        // work sum, and the per-track spans must sum exactly.
        let (s, h, f, e, k) = (48, 16, 8, 8, 4);
        let router = Router::new(h, e, k, 71);
        let sp = spec(e, 10_000);
        let world = 4;
        let reports = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 72);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 600 + ctx.rank as u64);
            let _ =
                forward_ep_overlap(&tokens, &router, &shard, &sp, 4, &ctx.world, &mut ctx.clock)
                    .unwrap();
            ctx.clock.flush();
            let wall = ctx.clock.now();
            let work: f64 = ctx.clock.buckets().iter().map(|(_, t)| t).sum();
            let spans = ctx.clock.spans().to_vec();
            (wall, work, spans)
        });
        for (wall, work, spans) in reports {
            // Overlap hides time: total work strictly exceeds the wall
            // clock whenever both tracks did anything.
            assert!(work >= wall - 1e-12, "work {work} < wall {wall}");
            // Per-track exactness: within each track, spans are
            // back-to-back (sum == cursor advance over the track).
            for track in ["comm", "compute"] {
                let mut t: Vec<&Span> = spans
                    .iter()
                    .filter(|sp| sp.track.as_deref() == Some(track))
                    .collect();
                t.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
                for w in t.windows(2) {
                    assert!(
                        (w[0].start + w[0].dur - w[1].start).abs() < 1e-9,
                        "gap inside track {track}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_plans_partition_the_route() {
        let (s, h, e, k) = (32usize, 6usize, 8usize, 3usize);
        let router = Router::new(h, e, k, 81);
        let sp = spec(e, 1000);
        let world = 4;
        let ok = SimCluster::frontier(world).run(|ctx| {
            let tokens = Tensor::rand_uniform(s, h, 1.0, 700 + ctx.rank as u64);
            let gating = router.gate(&tokens);
            let pft = Pft::construct(&gating, e, sp.capacity, sp.policy);
            let route = EpRoute::build(
                pft,
                &ExpertAssignment::contiguous(e, world),
                &ctx.world,
                &mut ctx.clock,
            )
            .unwrap();
            for chunks in [1usize, 2, 3, 100] {
                let plans = route.chunk_plans(chunks);
                // Expert ranges tile [0, e_local).
                let e_local = route.tokens_per_local_expert.len();
                assert_eq!(plans[0].experts.0, 0);
                assert_eq!(plans.last().unwrap().experts.1, e_local);
                for w in plans.windows(2) {
                    assert_eq!(w[0].experts.1, w[1].experts.0);
                }
                // Per-destination send ranges tile each destination's PFT
                // slice, and recv counts sum to the full route's.
                for d in 0..world {
                    for w in plans.windows(2) {
                        assert_eq!(w[0].send_ranges[d].1, w[1].send_ranges[d].0);
                    }
                }
                let sent: usize = plans
                    .iter()
                    .flat_map(|p| p.send_ranges.iter().map(|&(a, b)| b - a))
                    .sum();
                assert_eq!(sent, route.pft.len());
                for src in 0..world {
                    let recv: usize = plans.iter().map(|p| p.recv_per_src[src]).sum();
                    assert_eq!(recv, route.recv_per_src[src]);
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn route_counts_are_consistent() {
        let (s, h, e, k) = (16usize, 6usize, 4usize, 2usize);
        let router = Router::new(h, e, k, 51);
        let sp = spec(e, 1000);
        let checks = SimCluster::frontier(4).run(|ctx| {
            let tokens = Tensor::rand_uniform(s, h, 1.0, 400 + ctx.rank as u64);
            let gating = router.gate(&tokens);
            let pft = Pft::construct(&gating, e, sp.capacity, sp.policy);
            let b = pft.len();
            let route = EpRoute::build(
                pft,
                &ExpertAssignment::contiguous(e, 4),
                &ctx.world,
                &mut ctx.clock,
            )
            .unwrap();
            let send_total: usize = route.send_per_dst.iter().sum();
            let recv_total: usize = route.recv_per_src.iter().sum();
            let expert_total: usize = route.tokens_per_local_expert.iter().sum();
            (
                send_total == b,
                recv_total == route.recv_total(),
                expert_total == route.recv_total(),
            )
        });
        for (a, b, c) in checks {
            assert!(a && b && c);
        }
    }
}
