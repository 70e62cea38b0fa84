//! SSMB — hybrid parallelism with Sequence-Sharded MoE Blocks (paper §4.3,
//! Fig 8).
//!
//! Dense (attention) blocks run tensor parallelism, which **replicates the
//! full input sequence on every TP rank**. Entering the MoE block with those
//! replicas means the dominant activations (`A_dispatch`, `A_combine`) are
//! duplicated TP-fold. The SSMB insight: every MoE-block op (gating,
//! dispatch, expert FFN, combine) is token-wise, so each TP rank can keep
//! only its `S / TP` slice of the sequence, act as an EP rank over the
//! shard, and an all-gather after combine restores the replicated layout the
//! next TP block expects. Activation memory for the MoE block drops by the
//! TP degree; the only extra communication is one all-gather of `[S, H]`
//! per layer (and one in backward).

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::Tensor;

use crate::expert::ExpertShard;
use crate::gating::Router;
use crate::pipeline::{padding_free, MoeLayerSpec};

/// The communicators of one SSMB-parallel worker.
pub struct SsmbComms {
    /// The EP group the MoE block runs over (all TP x DP workers).
    pub ep: Communicator,
    /// The TP group whose ranks hold replicas of the same sequence; the
    /// sequence is sharded across it and re-gathered at block exit.
    pub tp: Communicator,
}

impl SsmbComms {
    /// Collectively build from a world communicator: TP groups are
    /// consecutive ranks of size `tp`, the EP group is the whole world.
    pub fn create(
        world: &Communicator,
        tp: usize,
        clock: &mut SimClock,
    ) -> Result<Self, CommError> {
        assert!(
            tp >= 1 && world.size().is_multiple_of(tp),
            "TP must divide world size"
        );
        let tp_color = world.rank() / tp;
        let tp_comm = world.split(tp_color, clock)?;
        Ok(Self {
            ep: world.clone(),
            tp: tp_comm,
        })
    }
}

/// The `S / TP` slice of the replicated sequence this TP rank keeps inside
/// the MoE block (step ① of Fig 8: "drop a fraction of the tokens").
pub fn shard_range(seq_len: usize, tp_size: usize, tp_rank: usize) -> (usize, usize) {
    assert_eq!(seq_len % tp_size, 0, "sequence length must divide TP size");
    let per = seq_len / tp_size;
    (tp_rank * per, (tp_rank + 1) * per)
}

/// Forward one MoE block under SSMB.
///
/// `tokens` is the full replicated `[S, H]` sequence every TP rank holds
/// coming out of the dense block. Each rank keeps its shard, runs the
/// padding-free MoE pipeline as an EP rank over `comms.ep`, then all-gathers
/// the shard outputs over `comms.tp` to restore the full `[S, H]` sequence.
///
/// `capacity` inside `spec` applies per shard: the per-expert retention
/// budget scales with the local token count, consistent with how each DP
/// rank already applies capacity to its own local batch.
pub fn forward_ssmb(
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    comms: &SsmbComms,
    clock: &mut SimClock,
) -> Result<Tensor, CommError> {
    sharded(tokens, comms, clock, |my_slice, clock| {
        padding_free::forward_ep(my_slice, router, shard, spec, &comms.ep, clock)
    })
}

/// [`forward_ssmb`] with the MoE block's dispatch/combine exchanges
/// pipelined against the expert GEMMs in `chunks` expert-contiguous pieces
/// (see [`padding_free::forward_ep_overlap`]). Bitwise identical output;
/// the trailing all-gather stays serial (it is a layout restore, not part
/// of the dispatch–compute critical path).
#[allow(clippy::too_many_arguments)]
pub fn forward_ssmb_overlap(
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    comms: &SsmbComms,
    chunks: usize,
    clock: &mut SimClock,
) -> Result<Tensor, CommError> {
    sharded(tokens, comms, clock, |my_slice, clock| {
        padding_free::forward_ep_overlap(my_slice, router, shard, spec, chunks, &comms.ep, clock)
    })
}

/// The complete X-MoE data path: SSMB sequence sharding composed with
/// Redundancy-Bypassing Dispatch — each TP rank keeps its `S/TP` shard,
/// dispatches it with pilot/replica routing over the hierarchical network,
/// and the trailing all-gather restores the replicated layout.
#[allow(clippy::too_many_arguments)]
pub fn forward_ssmb_rbd(
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    comms: &SsmbComms,
    rbd: &crate::rbd::RbdComms,
    rng: &mut xmoe_tensor::DetRng,
    clock: &mut SimClock,
) -> Result<Tensor, crate::pipeline::PipelineError> {
    sharded(tokens, comms, clock, |my_slice, clock| {
        crate::rbd::forward_ep_rbd(my_slice, router, shard, spec, rbd, rng, clock)
    })
}

/// The SSMB boundary around an inner MoE forward: ① keep this TP rank's
/// `S/TP` slice of the replicated sequence, ② run `inner` over it as an EP
/// rank, ③ all-gather the shard outputs over the TP group (committed as
/// `ssmb_allgather`) to restore the replicated `[S, H]` layout.
fn sharded<E, F>(
    tokens: &Tensor,
    comms: &SsmbComms,
    clock: &mut SimClock,
    inner: F,
) -> Result<Tensor, E>
where
    E: From<CommError>,
    F: FnOnce(&Tensor, &mut SimClock) -> Result<Tensor, E>,
{
    let (start, end) = shard_range(tokens.rows(), comms.tp.size(), comms.tp.rank());
    let local_out = inner(&tokens.slice_rows(start, end), clock)?;
    let gathered = comms.tp.all_gather(local_out.into_vec(), clock)?;
    clock.commit("ssmb_allgather");
    Ok(crate::pipeline::vecs_to_tensor(gathered, tokens.cols()))
}

/// Reference without sequence sharding (the "TED-style" MoE entry): every
/// TP rank redundantly processes the full replicated sequence.
pub fn forward_unsharded(
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    comms: &SsmbComms,
    clock: &mut SimClock,
) -> Result<Tensor, CommError> {
    padding_free::forward_ep(tokens, router, shard, spec, &comms.ep, clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_collectives::SimCluster;

    #[test]
    fn shard_ranges_partition_the_sequence() {
        assert_eq!(shard_range(8, 2, 0), (0, 4));
        assert_eq!(shard_range(8, 2, 1), (4, 8));
        assert_eq!(shard_range(12, 4, 2), (6, 9));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn shard_range_requires_divisibility() {
        let _ = shard_range(10, 4, 0);
    }

    #[test]
    fn ssmb_matches_unsharded_output() {
        // 4 ranks: TP=2, DP=2; every rank holds the same replicated
        // sequence per DP group. With ample capacity, sharding the sequence
        // must not change the MoE block output (token-wise ops).
        let (s, h, f, e, k) = (16, 12, 8, 8, 3);
        let router = Router::new(h, e, k, 61);
        let spec = MoeLayerSpec::new(e, 10_000);
        let world = 4;
        let tp = 2;
        let run = |use_ssmb: bool| {
            let router = &router;
            let spec = &spec;
            SimCluster::frontier(world).run(move |ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 62);
                // DP group = rank / tp; same sequence within a TP group.
                let dp_group = ctx.rank / tp;
                let tokens = Tensor::rand_uniform(s, h, 1.0, 400 + dp_group as u64);
                let comms = SsmbComms::create(&ctx.world, tp, &mut ctx.clock).unwrap();
                if use_ssmb {
                    forward_ssmb(&tokens, router, &shard, spec, &comms, &mut ctx.clock).unwrap()
                } else {
                    forward_unsharded(&tokens, router, &shard, spec, &comms, &mut ctx.clock)
                        .unwrap()
                }
            })
        };
        let ssmb = run(true);
        let unsharded = run(false);
        for (r, (a, b)) in ssmb.iter().zip(&unsharded).enumerate() {
            assert!(
                a.allclose(b, 1e-4),
                "rank {r}: SSMB output diverges, max diff {}",
                a.max_abs_diff(b)
            );
        }
    }

    #[test]
    fn ssmb_output_is_replicated_within_tp_group() {
        let (s, h, f, e, k) = (8, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 71);
        let spec = MoeLayerSpec::new(e, 10_000);
        let out = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 72);
            let dp_group = ctx.rank / 2;
            let tokens = Tensor::rand_uniform(s, h, 1.0, 500 + dp_group as u64);
            let comms = SsmbComms::create(&ctx.world, 2, &mut ctx.clock).unwrap();
            forward_ssmb(&tokens, &router, &shard, &spec, &comms, &mut ctx.clock).unwrap()
        });
        assert!(out[0].allclose(&out[1], 1e-6), "TP group 0 replicas differ");
        assert!(out[2].allclose(&out[3], 1e-6), "TP group 1 replicas differ");
    }

    #[test]
    fn ssmb_overlap_is_bitwise_identical() {
        let (s, h, f, e, k) = (16, 12, 8, 8, 3);
        let router = Router::new(h, e, k, 61);
        let spec = MoeLayerSpec::new(e, 10_000);
        let world = 4;
        let tp = 2;
        let run = |chunks: Option<usize>| {
            let router = &router;
            let spec = &spec;
            SimCluster::frontier(world).run(move |ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 62);
                let dp_group = ctx.rank / tp;
                let tokens = Tensor::rand_uniform(s, h, 1.0, 400 + dp_group as u64);
                let comms = SsmbComms::create(&ctx.world, tp, &mut ctx.clock).unwrap();
                match chunks {
                    Some(c) => forward_ssmb_overlap(
                        &tokens,
                        router,
                        &shard,
                        spec,
                        &comms,
                        c,
                        &mut ctx.clock,
                    )
                    .unwrap(),
                    None => {
                        forward_ssmb(&tokens, router, &shard, spec, &comms, &mut ctx.clock).unwrap()
                    }
                }
            })
        };
        let serial = run(None);
        let overlapped = run(Some(2));
        for (r, (a, b)) in serial.iter().zip(&overlapped).enumerate() {
            assert!(
                a.allclose(b, 0.0),
                "rank {r}: SSMB overlap not bitwise identical, max diff {}",
                a.max_abs_diff(b)
            );
        }
    }

    #[test]
    fn ssmb_charges_the_allgather() {
        let (s, h, f, e, k) = (8, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 81);
        let spec = MoeLayerSpec::new(e, 10_000);
        let buckets = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 82);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 83);
            let comms = SsmbComms::create(&ctx.world, 2, &mut ctx.clock).unwrap();
            let _ = forward_ssmb(&tokens, &router, &shard, &spec, &comms, &mut ctx.clock).unwrap();
            ctx.clock.bucket("ssmb_allgather")
        });
        assert!(
            buckets.iter().all(|&t| t > 0.0),
            "all-gather must be charged: {buckets:?}"
        );
    }

    #[test]
    fn full_xmoe_path_ssmb_plus_rbd_matches_reference() {
        // The paper's complete system: 16 ranks (2 simulated nodes),
        // TP = 2 sequence sharding, RBD transport — output must equal the
        // plain SSMB forward (and hence the single-rank reference).
        let (s, h, f, e, k) = (16, 12, 8, 16, 5);
        let router = Router::new(h, e, k, 131);
        let spec = MoeLayerSpec::new(e, 10_000);
        let run = |use_rbd: bool| {
            let router = &router;
            let spec = &spec;
            SimCluster::frontier(16).run(move |ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, 16, e, h, f, 132);
                let dp_group = ctx.rank / 2;
                let tokens = Tensor::rand_uniform(s, h, 1.0, 700 + dp_group as u64);
                let comms = SsmbComms::create(&ctx.world, 2, &mut ctx.clock).unwrap();
                if use_rbd {
                    let rbd = crate::rbd::RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
                    let mut rng = xmoe_tensor::DetRng::new(133 + ctx.rank as u64);
                    forward_ssmb_rbd(
                        &tokens,
                        router,
                        &shard,
                        spec,
                        &comms,
                        &rbd,
                        &mut rng,
                        &mut ctx.clock,
                    )
                    .unwrap()
                } else {
                    forward_ssmb(&tokens, router, &shard, spec, &comms, &mut ctx.clock).unwrap()
                }
            })
        };
        let with_rbd = run(true);
        let plain = run(false);
        for (r, (a, b)) in with_rbd.iter().zip(&plain).enumerate() {
            assert!(
                a.allclose(b, 1e-4),
                "rank {r}: SSMB+RBD diverges from SSMB, max diff {}",
                a.max_abs_diff(b)
            );
        }
    }

    #[test]
    fn tp1_ssmb_degenerates_to_plain_ep() {
        let (s, h, f, e, k) = (8, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 91);
        let spec = MoeLayerSpec::new(e, 10_000);
        let out = SimCluster::frontier(2).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 2, e, h, f, 92);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 93 + ctx.rank as u64);
            let comms = SsmbComms::create(&ctx.world, 1, &mut ctx.clock).unwrap();
            let ssmb =
                forward_ssmb(&tokens, &router, &shard, &spec, &comms, &mut ctx.clock).unwrap();
            let plain = padding_free::forward_ep(
                &tokens,
                &router,
                &shard,
                &spec,
                &ctx.world,
                &mut ctx.clock,
            )
            .unwrap();
            ssmb.allclose(&plain, 1e-6)
        });
        assert!(out.iter().all(|&ok| ok));
    }
}
