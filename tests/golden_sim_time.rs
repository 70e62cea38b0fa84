//! Cross-commit bitwise pins of simulated time.
//!
//! `pool_determinism` checks that simulated time does not move with the
//! worker-lane count, but only within one build. These constants were
//! captured from an earlier build, so a change to the exchange, the
//! chunking, the stage labels or the cost model that moves one bit of any
//! rank's `SimClock::now()` or of any stage bucket fails here.
//!
//! Each pin is, per rank, the `f64::to_bits` of `now()` followed by every
//! bucket `(label, to_bits)` in first-charge order. When a pin fails, the
//! assertion message prints the current values in constant form.

use xmoe::collectives::{RankCtx, SimClock, SimCluster};
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::pipeline::{block_sparse, padding_free, MoeLayerSpec};
use xmoe::tensor::Tensor;
use xmoe::train::model::build_moe_layers;
use xmoe::train::{DistMoeLm, ExpertAssignment, MarkovCorpus, TrainConfig};

const WORLD: usize = 4;
const S: usize = 24;
const H: usize = 8;
const F: usize = 8;
const E: usize = 8;
const K: usize = 3;
/// Tight enough that some routed entries are dropped.
const CAPACITY: usize = 7;

/// One rank's clock: `now()` bits, then `(label, bits)` per bucket.
type Pin = (u64, &'static [(&'static str, u64)]);
type Got = Vec<(u64, Vec<(String, u64)>)>;

/// Padding-free EP forward, serial (`forward_ep`).
const EP_SERIAL: [Pin; WORLD] = [
    (
        0x3f092d163bdc65b8,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e2235ede6b8874c),
            ("sync_wait:dispatch_a2a_meta", 0x3dd5fd7fe1796480),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3ef0c8c56c336c82),
            ("expert", 0x3de53b275226ec96),
            ("sync_wait:combine_a2a", 0x3da399109a800000),
            ("combine_a2a", 0x3ef0c8c56c336c82),
            ("buffer_combine", 0x3e2235ede6b8874c),
        ],
    ),
    (
        0x3f092d18fb8c61e7,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e22e5d9e5c45270),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3ef0c8c56c336c82),
            ("expert", 0x3de5a3ad000a225e),
            ("sync_wait:combine_a2a", 0x3d9a216b78800000),
            ("combine_a2a", 0x3ef0c8c56c336c82),
            ("buffer_combine", 0x3e22e5d9e5c45270),
        ],
    ),
    (
        0x3f092d14dc0467a1,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e21ddf7e732a1b9),
            ("sync_wait:dispatch_a2a_meta", 0x3de07e1fe91b0b70),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3ef0c8c56c336c82),
            ("expert", 0x3de5a3ad000a225e),
            ("sync_wait:combine_a2a", 0x3d9a216b78800000),
            ("combine_a2a", 0x3ef0c8c56c336c82),
            ("buffer_combine", 0x3e21ddf7e732a1b9),
        ],
    ),
    (
        0x3f092d163bdc65b8,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e2235ede6b8874c),
            ("sync_wait:dispatch_a2a_meta", 0x3dd5fd7fe1796480),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3ef0c8c56c336c82),
            ("expert", 0x3de674b85bd08ded),
            ("combine_a2a", 0x3ef0c8c56c336c82),
            ("buffer_combine", 0x3e2235ede6b8874c),
        ],
    ),
];
/// Padding-free EP forward, `forward_ep_overlap` with 2 chunks.
const EP_OVERLAP_2: [Pin; WORLD] = [
    (
        0x3f10c80debe8d382,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e2235ede6b8874c),
            ("sync_wait:dispatch_a2a_meta", 0x3dd5fd7fe1796480),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3f00c7de8674ad08),
            ("sync_wait:expert", 0x3f00c7dbf9312e3c),
            ("expert", 0x3de53b275226ec96),
            ("sync_wait:combine_a2a", 0x3ef0c7e43dc42f74),
            ("combine_a2a", 0x3f00c7de8674ad08),
            ("buffer_combine", 0x3e2235ede6b8874c),
        ],
    ),
    (
        0x3f10c80f4bc0d19a,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e22e5d9e5c45270),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3f00c7de8674ad08),
            ("sync_wait:expert", 0x3f00c7dbdf0fc2c3),
            ("expert", 0x3de5a3ad000a225e),
            ("sync_wait:combine_a2a", 0x3ef0c7e43dc42f74),
            ("combine_a2a", 0x3f00c7de8674ad08),
            ("buffer_combine", 0x3e22e5d9e5c45270),
        ],
    ),
    (
        0x3f10c80d3bfcd476,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e21ddf7e732a1b9),
            ("sync_wait:dispatch_a2a_meta", 0x3de07e1fe91b0b70),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3f00c7de8674ad08),
            ("sync_wait:expert", 0x3f00c7dbaaccebd2),
            ("expert", 0x3de5a3ad000a225e),
            ("sync_wait:combine_a2a", 0x3ef0c7e43dc42f74),
            ("combine_a2a", 0x3f00c7de8674ad08),
            ("buffer_combine", 0x3e21ddf7e732a1b9),
        ],
    ),
    (
        0x3f10c80debe8d382,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e2235ede6b8874c),
            ("sync_wait:dispatch_a2a_meta", 0x3dd5fd7fe1796480),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3f00c7de8674ad08),
            ("sync_wait:expert", 0x3f00c7dbaaccebd2),
            ("expert", 0x3de674b85bd08ded),
            ("sync_wait:combine_a2a", 0x3ef0c7e43dc42f74),
            ("combine_a2a", 0x3f00c7de8674ad08),
            ("buffer_combine", 0x3e2235ede6b8874c),
        ],
    ),
];
/// Block-sparse EP forward, block 4.
const EP_BLOCK_SPARSE_4: [Pin; WORLD] = [
    (
        0x3f092daee4a4fd6b,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e32b9dee6015fa8),
            ("sync_wait:dispatch_a2a_meta", 0x3dd5fd7fe1796480),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3ef0c8c56c336c82),
            ("expert", 0x3de6dd3e09b3c3b5),
            ("buffer_combine", 0x3e3209f2e6f59482),
            ("sync_wait:combine_a2a", 0x3de07e1fe9180000),
            ("combine_a2a", 0x3ef0c8c56c336c82),
        ],
    ),
    (
        0x3f092db1a454f99a,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e3311d4e587453a),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3ef0c8c56c336c82),
            ("expert", 0x3de6dd3e09b3c3b5),
            ("buffer_combine", 0x3e328de3e63e6cde),
            ("sync_wait:combine_a2a", 0x3dd5fd7fe1780000),
            ("combine_a2a", 0x3ef0c8c56c336c82),
        ],
    ),
    (
        0x3f092dad84ccff54,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e328de3e63e6cde),
            ("sync_wait:dispatch_a2a_meta", 0x3de07e1fe91b0b70),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3ef0c8c56c336c82),
            ("expert", 0x3de6dd3e09b3c3b5),
            ("buffer_combine", 0x3e3209f2e6f59482),
            ("sync_wait:combine_a2a", 0x3dd5fd7fe1780000),
            ("combine_a2a", 0x3ef0c8c56c336c82),
        ],
    ),
    (
        0x3f092daee4a4fd6b,
        &[
            ("gating", 0x3e1959f8627d61d4),
            ("buffer_dispatch", 0x3e32b9dee6015fa8),
            ("sync_wait:dispatch_a2a_meta", 0x3dd5fd7fe1796480),
            ("dispatch_a2a_meta", 0x3ef0c7081ed5d6a8),
            ("dispatch_a2a", 0x3ef0c8c56c336c82),
            ("expert", 0x3de6dd3e09b3c3b5),
            ("buffer_combine", 0x3e328de3e63e6cde),
            ("combine_a2a", 0x3ef0c8c56c336c82),
        ],
    ),
];
/// 3 `DistMoeLm` training steps on the contiguous layout.
const DIST_UNIFORM_3: [Pin; WORLD] = [
    (
        0x3f60b7a44dd2f3be,
        &[
            ("dispatch_a2a_meta", 0x3f192a8c2e40c1fc),
            ("dispatch_a2a", 0x3f1930ea34e7eb43),
            ("combine_a2a", 0x3f1930ea34e7eb43),
            ("bwd_combine_a2a", 0x3f1930ea34e7eb43),
            ("bwd_dispatch_a2a", 0x3f1930ea34e7eb43),
            ("grad_allreduce", 0x3f57991404ba0f0c),
            ("loss_allreduce", 0x3f1f75146cdd17b0),
        ],
    ),
    (
        0x3f60b7a44dd2f3be,
        &[
            ("dispatch_a2a_meta", 0x3f192a8c2e40c1fc),
            ("dispatch_a2a", 0x3f1930ea34e7eb43),
            ("combine_a2a", 0x3f1930ea34e7eb43),
            ("bwd_combine_a2a", 0x3f1930ea34e7eb43),
            ("bwd_dispatch_a2a", 0x3f1930ea34e7eb43),
            ("grad_allreduce", 0x3f57991404ba0f0c),
            ("loss_allreduce", 0x3f1f75146cdd17b0),
        ],
    ),
    (
        0x3f60b7a44dd2f3be,
        &[
            ("dispatch_a2a_meta", 0x3f192a8c2e40c1fc),
            ("dispatch_a2a", 0x3f1930ea34e7eb43),
            ("combine_a2a", 0x3f1930ea34e7eb43),
            ("bwd_combine_a2a", 0x3f1930ea34e7eb43),
            ("bwd_dispatch_a2a", 0x3f1930ea34e7eb43),
            ("grad_allreduce", 0x3f57991404ba0f0c),
            ("loss_allreduce", 0x3f1f75146cdd17b0),
        ],
    ),
    (
        0x3f60b7a44dd2f3be,
        &[
            ("dispatch_a2a_meta", 0x3f192a8c2e40c1fc),
            ("dispatch_a2a", 0x3f1930ea34e7eb43),
            ("combine_a2a", 0x3f1930ea34e7eb43),
            ("bwd_combine_a2a", 0x3f1930ea34e7eb43),
            ("bwd_dispatch_a2a", 0x3f1930ea34e7eb43),
            ("grad_allreduce", 0x3f57991404ba0f0c),
            ("loss_allreduce", 0x3f1f75146cdd17b0),
        ],
    ),
];
/// 3 `DistMoeLm` training steps on a migrated + replicated layout.
const DIST_ELASTIC_3: [Pin; WORLD] = [
    (
        0x3f64a6befcc5aff1,
        &[
            ("dispatch_a2a_meta", 0x3f192a988cd8b0d2),
            ("dispatch_a2a", 0x3f1933e65e03c67d),
            ("combine_a2a", 0x3f1933e65e03c67d),
            ("bwd_combine_a2a", 0x3f1933e65e03c67d),
            ("bwd_dispatch_a2a", 0x3f1933e65e03c67d),
            ("grad_allreduce", 0x3f5f7689926f11bf),
            ("loss_allreduce", 0x3f1f75146cdd17b0),
        ],
    ),
    (
        0x3f64a6befcc5aff1,
        &[
            ("dispatch_a2a_meta", 0x3f192a988cd8b0d2),
            ("dispatch_a2a", 0x3f1933e65e03c67d),
            ("combine_a2a", 0x3f1933e65e03c67d),
            ("bwd_combine_a2a", 0x3f1933e65e03c67d),
            ("bwd_dispatch_a2a", 0x3f1933e65e03c67d),
            ("grad_allreduce", 0x3f5f7689926f11bf),
            ("loss_allreduce", 0x3f1f75146cdd17b0),
        ],
    ),
    (
        0x3f64a6befcc5aff1,
        &[
            ("dispatch_a2a_meta", 0x3f192a988cd8b0d2),
            ("dispatch_a2a", 0x3f1933e65e03c67d),
            ("combine_a2a", 0x3f1933e65e03c67d),
            ("bwd_combine_a2a", 0x3f1933e65e03c67d),
            ("bwd_dispatch_a2a", 0x3f1933e65e03c67d),
            ("grad_allreduce", 0x3f5f7689926f11bf),
            ("loss_allreduce", 0x3f1f75146cdd17b0),
        ],
    ),
    (
        0x3f64a6befcc5aff1,
        &[
            ("dispatch_a2a_meta", 0x3f192a988cd8b0d2),
            ("dispatch_a2a", 0x3f1933e65e03c67d),
            ("combine_a2a", 0x3f1933e65e03c67d),
            ("bwd_combine_a2a", 0x3f1933e65e03c67d),
            ("bwd_dispatch_a2a", 0x3f1933e65e03c67d),
            ("grad_allreduce", 0x3f5f7689926f11bf),
            ("loss_allreduce", 0x3f1f75146cdd17b0),
        ],
    ),
];

fn capture(clock: &mut SimClock) -> (u64, Vec<(String, u64)>) {
    clock.flush();
    let buckets = clock
        .buckets()
        .iter()
        .map(|(label, t)| (label.clone(), t.to_bits()))
        .collect();
    (clock.now().to_bits(), buckets)
}

fn check(name: &str, got: &Got, want: &[Pin]) {
    let want: Got = want
        .iter()
        .map(|(now, buckets)| {
            let buckets = buckets.iter().map(|(l, b)| (l.to_string(), *b)).collect();
            (*now, buckets)
        })
        .collect();
    let mut current = format!("const {name}: [Pin; WORLD] = [\n");
    for (now, buckets) in got {
        current += &format!("    (\n        0x{now:016x},\n        &[\n");
        for (label, bits) in buckets {
            current += &format!("            ({label:?}, 0x{bits:016x}),\n");
        }
        current += "        ],\n    ),\n";
    }
    current += "];";
    assert!(*got == want, "{name}: simulated time moved; now\n{current}");
}

/// Run one EP forward on every rank and capture its clock.
fn ep_forward(
    forward: impl Fn(&Tensor, &Router, &ExpertShard, &MoeLayerSpec, &mut RankCtx) + Sync,
) -> Got {
    let router = Router::new(H, E, K, 0x51D);
    let spec = MoeLayerSpec::new(E, CAPACITY).with_policy(DropPolicy::CapacityOnly);
    let (router, spec, forward) = (&router, &spec, &forward);
    SimCluster::frontier(WORLD).run(move |ctx| {
        let shard = ExpertShard::for_rank(ctx.rank, WORLD, E, H, F, 0x51E);
        let tokens = Tensor::rand_uniform(S, H, 1.0, 0x51F + ctx.rank as u64);
        forward(&tokens, router, &shard, spec, ctx);
        capture(&mut ctx.clock)
    })
}

#[test]
fn padding_free_ep_serial_sim_time_is_pinned() {
    let got = ep_forward(|tokens, router, shard, spec, ctx| {
        padding_free::forward_ep(tokens, router, shard, spec, &ctx.world, &mut ctx.clock).unwrap();
    });
    check("EP_SERIAL", &got, &EP_SERIAL);
}

#[test]
fn padding_free_ep_overlap_sim_time_is_pinned() {
    let got = ep_forward(|tokens, router, shard, spec, ctx| {
        padding_free::forward_ep_overlap(
            tokens,
            router,
            shard,
            spec,
            2,
            &ctx.world,
            &mut ctx.clock,
        )
        .unwrap();
    });
    check("EP_OVERLAP_2", &got, &EP_OVERLAP_2);
}

#[test]
fn block_sparse_ep_sim_time_is_pinned() {
    let got = ep_forward(|tokens, router, shard, spec, ctx| {
        block_sparse::forward_ep_block_sparse(
            tokens,
            router,
            shard,
            spec,
            4,
            &ctx.world,
            &mut ctx.clock,
        )
        .unwrap();
    });
    check("EP_BLOCK_SPARSE_4", &got, &EP_BLOCK_SPARSE_4);
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

/// Three `DistMoeLm` steps under `assignment`, each rank on its own corpus.
fn dist_steps(assignment: &ExpertAssignment) -> Got {
    let cfg = dist_cfg();
    let full_layers = build_moe_layers(&cfg);
    let (cfg, full_layers) = (&cfg, &full_layers);
    SimCluster::frontier(WORLD).run(move |ctx| {
        let mut model =
            DistMoeLm::new_with_assignment(cfg, full_layers, ctx.rank, assignment.clone());
        let mut corpus = MarkovCorpus::new(cfg.vocab, 3, 4000 + ctx.rank as u64);
        for _ in 0..3 {
            let batch = corpus.batch(cfg.batch, cfg.seq_len);
            model
                .train_step(&batch, &ctx.world, &mut ctx.clock)
                .unwrap();
        }
        capture(&mut ctx.clock)
    })
}

#[test]
fn distributed_steps_on_uniform_layout_sim_time_is_pinned() {
    let got = dist_steps(&ExpertAssignment::contiguous(E, WORLD));
    check("DIST_UNIFORM_3", &got, &DIST_UNIFORM_3);
}

#[test]
fn distributed_steps_on_elastic_layout_sim_time_is_pinned() {
    let mut assignment = ExpertAssignment::contiguous(E, WORLD);
    assignment.migrate(1, 3);
    assignment.replicate(5, 0);
    let got = dist_steps(&assignment);
    check("DIST_ELASTIC_3", &got, &DIST_ELASTIC_3);
}
