//! Cross-commit bitwise pins of the training trajectories.
//!
//! Every other determinism test compares two runs of the *same* build
//! (owned vs pooled, serial vs overlap, 1 vs 8 lanes). These constants
//! were captured from an earlier build, so a refactor of the MoE layer,
//! the gating, the expert GEMMs or the distributed exchange that moves a
//! single bit of any loss fails here — even when it moves both sides of
//! a within-build comparison in lockstep.
//!
//! Each constant holds the `f64::to_bits` of every step's loss, followed
//! by a checksum of the final parameters (one per rank for distributed
//! runs): the distributed loss is reduced in `f32`, so the weights pin
//! bits the loss alone would round away. When a pin fails, the assertion
//! message prints the current trajectory in constant form.

use xmoe::collectives::SimCluster;
use xmoe::core::gating::DropPolicy;
use xmoe::tensor::Tensor;
use xmoe::train::model::build_moe_layers;
use xmoe::train::{Checkpoint, DistMoeLm, ExpertAssignment, MarkovCorpus, MoeLm, TrainConfig};

/// `MoeLm` at `TrainConfig::fig15(CapacityOnly)`, corpus seed 999:
/// 6 losses + the parameter checksum.
const FIG15_CAPACITY_ONLY: [u64; 7] = [
    0x4010b64640c21492,
    0x40106b4e8f101f38,
    0x401021192c5fd949,
    0x400ffed0d676cd18,
    0x400f99fa95a40d8f,
    0x400f46ecbc52004d,
    0xcaf51cbc0c321e8c,
];
/// The same run under `CapacityAndNegativeLogit`.
const FIG15_NEGATIVE_LOGIT: [u64; 7] = [
    0x4010b64e04fd27c6,
    0x40106b4d2598c65d,
    0x4010213d06ba692e,
    0x400ffea5df057683,
    0x400f9a3a03cdba23,
    0x400f46c1e2c5bb39,
    0x441eedf9240a4a84,
];
/// 4-rank `DistMoeLm`: 3 steps, checkpoint encode/decode/restore, 3 steps;
/// 6 losses + 4 per-rank parameter checksums.
const DIST_CKPT_ROUND_TRIP: [u64; 10] = [
    0x400bbf74c0000000,
    0x400bb002c0000000,
    0x400b9cf7a0000000,
    0x400b7db2e0000000,
    0x400b064980000000,
    0x400b014880000000,
    0x7e344914abb4328e,
    0xcd36b054eeb0da43,
    0xebc7710527a1c710,
    0x295deedec96230e1,
];
/// 4-rank `DistMoeLm` on a migrated + replicated expert assignment:
/// 4 losses + 4 per-rank parameter checksums.
const DIST_ELASTIC_LAYOUT: [u64; 8] = [
    0x400bbf74c0000000,
    0x400bb002c0000000,
    0x400b9cf7a0000000,
    0x400b7db2e0000000,
    0x5ad0677e4fe7ccdc,
    0xd73ce84637787d88,
    0x07d607eca827665e,
    0x0946decac7c620f9,
];

fn bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Order-sensitive bit-exact checksum over parameter tensors.
fn checksum<'a>(params: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    params.into_iter().fold(0, |acc, t| {
        t.as_slice().iter().fold(acc, |h, v| {
            (h.rotate_left(5) ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3)
        })
    })
}

fn moelm_params(m: &MoeLm) -> u64 {
    let mut ps = vec![&m.embed.weight, &m.head.weight];
    for b in &m.blocks {
        ps.extend([&b.mlp.w1, &b.mlp.w2, &b.moe.gate]);
        ps.extend(b.moe.experts.iter().flat_map(|(w1, w2)| [w1, w2]));
    }
    checksum(ps)
}

fn dist_params(m: &DistMoeLm) -> u64 {
    let mut ps = vec![&m.embed.weight, &m.head.weight];
    for b in &m.blocks {
        ps.extend([&b.mlp.w1, &b.mlp.w2, &b.moe.gate]);
        ps.extend(b.moe.shard.iter().flat_map(|(w1, w2)| [w1, w2]));
    }
    checksum(ps)
}

fn check(name: &str, got: &[u64], want: &[u64]) {
    let hex: Vec<String> = got.iter().map(|b| format!("0x{b:016x}")).collect();
    assert_eq!(
        got,
        want,
        "{name}: trajectory moved; now [{}]",
        hex.join(", ")
    );
}

fn fig15_trajectory(policy: DropPolicy, steps: usize) -> Vec<u64> {
    let cfg = TrainConfig::fig15(policy);
    let mut corpus = MarkovCorpus::new(cfg.vocab, 4, 999);
    let mut model = MoeLm::new(cfg.clone());
    let losses: Vec<f64> = (0..steps)
        .map(|_| model.train_step(&corpus.batch(cfg.batch, cfg.seq_len)).loss)
        .collect();
    let mut out = bits(&losses);
    out.push(moelm_params(&model));
    out
}

/// The `tests/distributed_training.rs` configuration.
fn dist_cfg() -> TrainConfig {
    let mut c = TrainConfig::fig15(DropPolicy::CapacityOnly);
    c.vocab = 32;
    c.hidden = 16;
    c.ffn = 8;
    c.num_experts = 8;
    c.top_k = 2;
    c.layers = 2;
    c.seq_len = 12;
    c.batch = 2;
    c.capacity_factor = 1e6;
    c.seed = 2025;
    c
}

const WORLD: usize = 4;

/// Per-rank batches: rank `r` draws from its own corpus.
fn rank_batches(cfg: &TrainConfig, steps: usize) -> Vec<Vec<Vec<Vec<usize>>>> {
    (0..WORLD)
        .map(|r| {
            let mut corpus = MarkovCorpus::new(cfg.vocab, 3, 4000 + r as u64);
            (0..steps)
                .map(|_| corpus.batch(cfg.batch, cfg.seq_len))
                .collect()
        })
        .collect()
}

/// The globally averaged loss is identical on every rank: check that,
/// then return rank 0's loss bits followed by every rank's parameter
/// checksum.
fn agreed(per_rank: Vec<(Vec<f64>, u64)>) -> Vec<u64> {
    let mut out = bits(&per_rank[0].0);
    for (rank, (losses, fp)) in per_rank.iter().enumerate() {
        assert_eq!(bits(losses), bits(&per_rank[0].0), "rank {rank} disagrees");
        out.push(*fp);
    }
    out
}

#[test]
fn moelm_fig15_capacity_only_trajectory_is_pinned() {
    let got = fig15_trajectory(DropPolicy::CapacityOnly, 6);
    check("FIG15_CAPACITY_ONLY", &got, &FIG15_CAPACITY_ONLY);
}

#[test]
fn moelm_fig15_negative_logit_trajectory_is_pinned() {
    let got = fig15_trajectory(DropPolicy::CapacityAndNegativeLogit, 6);
    check("FIG15_NEGATIVE_LOGIT", &got, &FIG15_NEGATIVE_LOGIT);
}

#[test]
fn distributed_trajectory_through_checkpoint_restore_is_pinned() {
    let cfg = dist_cfg();
    let batches = rank_batches(&cfg, 6);
    let full_layers = build_moe_layers(&cfg);
    let per_rank = {
        let (cfg, batches, full_layers) = (&cfg, &batches, &full_layers);
        SimCluster::frontier(WORLD).run(move |ctx| {
            let mut model = DistMoeLm::new(cfg, full_layers, ctx.rank, WORLD);
            let mut losses = Vec::new();
            for batch in &batches[ctx.rank][..3] {
                losses.push(model.train_step(batch, &ctx.world, &mut ctx.clock).unwrap());
            }
            let bytes = model
                .capture_checkpoint(3, 0, &ctx.world, &mut ctx.clock)
                .unwrap()
                .encode();
            let ckpt = Checkpoint::decode(&bytes).unwrap();
            let mut model = DistMoeLm::from_checkpoint(cfg, &ckpt, ctx.rank, WORLD);
            for batch in &batches[ctx.rank][3..] {
                losses.push(model.train_step(batch, &ctx.world, &mut ctx.clock).unwrap());
            }
            (losses, dist_params(&model))
        })
    };
    check(
        "DIST_CKPT_ROUND_TRIP",
        &agreed(per_rank),
        &DIST_CKPT_ROUND_TRIP,
    );
}

#[test]
fn distributed_trajectory_on_elastic_layout_is_pinned() {
    let cfg = dist_cfg();
    let batches = rank_batches(&cfg, 4);
    let full_layers = build_moe_layers(&cfg);
    let mut assignment = ExpertAssignment::contiguous(cfg.num_experts, WORLD);
    assignment.migrate(1, 3);
    assignment.replicate(5, 0);
    let per_rank = {
        let (cfg, batches, full_layers, assignment) = (&cfg, &batches, &full_layers, &assignment);
        SimCluster::frontier(WORLD).run(move |ctx| {
            let mut model =
                DistMoeLm::new_with_assignment(cfg, full_layers, ctx.rank, assignment.clone());
            let losses = batches[ctx.rank]
                .iter()
                .map(|batch| model.train_step(batch, &ctx.world, &mut ctx.clock).unwrap())
                .collect();
            (losses, dist_params(&model))
        })
    };
    check(
        "DIST_ELASTIC_LAYOUT",
        &agreed(per_rank),
        &DIST_ELASTIC_LAYOUT,
    );
}
