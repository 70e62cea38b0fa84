//! `DistMoe`'s chunked entry points on every expert layout: on a migrated,
//! replicated or uniform assignment, `forward_overlap`/`backward_overlap`
//! pipeline the exchange over the same route the serial path uses, and
//! must stay bitwise identical to `forward`/`backward` — for any chunk
//! count, and whichever forward produced the saved context.

use xmoe::collectives::SimCluster;
use xmoe::core::gating::DropPolicy;
use xmoe::tensor::Tensor;
use xmoe::train::{DistMoe, ExpertAssignment, TrainableMoe};

const WORLD: usize = 4;
const EXPERTS: usize = 8;

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_grads(a: &DistMoe, b: &DistMoe) -> bool {
    same_bits(&a.g_gate, &b.g_gate)
        && a.g_shard.len() == b.g_shard.len()
        && a.g_shard
            .iter()
            .zip(&b.g_shard)
            .all(|((a1, a2), (b1, b2))| same_bits(a1, b1) && same_bits(a2, b2))
}

/// Asserts, on every rank and for chunks 1, 2 and 3, that
/// `forward_overlap` + `backward_overlap` and serial `forward` +
/// `backward_overlap` both reproduce the serial `forward` + `backward`
/// output, `d_x`, `g_shard` and `g_gate` bit for bit.
fn check_layout(name: &str, assignment: &ExpertAssignment) {
    let full = TrainableMoe::new(8, 6, EXPERTS, 2, 100_000, DropPolicy::CapacityOnly, 4401);
    for chunks in [1usize, 2, 3] {
        let results = {
            let full = &full;
            SimCluster::frontier(WORLD).run(move |ctx| {
                let x = Tensor::rand_uniform(12, 8, 1.0, 4500 + ctx.rank as u64);
                let d_out = Tensor::rand_uniform(12, 8, 1.0, 4600 + ctx.rank as u64);
                let layer =
                    DistMoe::from_trainable_with_assignment(full, ctx.rank, assignment.clone());

                let mut serial = layer.clone();
                let (out_s, c) = serial.forward(&x, &ctx.world, &mut ctx.clock).unwrap();
                let dx_s = serial
                    .backward(&c, &d_out, &ctx.world, &mut ctx.clock)
                    .unwrap();

                let mut over = layer.clone();
                let (out_o, c) = over
                    .forward_overlap(&x, chunks, &ctx.world, &mut ctx.clock)
                    .unwrap();
                let dx_o = over
                    .backward_overlap(&c, &d_out, chunks, &ctx.world, &mut ctx.clock)
                    .unwrap();

                let mut mixed = layer.clone();
                let (out_m, c) = mixed.forward(&x, &ctx.world, &mut ctx.clock).unwrap();
                let dx_m = mixed
                    .backward_overlap(&c, &d_out, chunks, &ctx.world, &mut ctx.clock)
                    .unwrap();

                [
                    [
                        same_bits(&out_s, &out_o),
                        same_bits(&dx_s, &dx_o),
                        same_grads(&serial, &over),
                    ],
                    [
                        same_bits(&out_s, &out_m),
                        same_bits(&dx_s, &dx_m),
                        same_grads(&serial, &mixed),
                    ],
                ]
            })
        };
        for (rank, pair) in results.iter().enumerate() {
            for (fwd, [out, dx, grads]) in ["forward_overlap", "forward"].iter().zip(pair) {
                let at = format!("{name} chunks {chunks} rank {rank} ({fwd} + backward_overlap)");
                assert!(out, "{at}: output differs from serial");
                assert!(dx, "{at}: d_x differs from serial");
                assert!(grads, "{at}: g_shard/g_gate differ from serial");
            }
        }
    }
}

#[test]
fn migrated_assignment_overlap_matches_serial_bitwise() {
    let mut asg = ExpertAssignment::contiguous(EXPERTS, WORLD);
    asg.migrate(1, 3);
    asg.migrate(4, 0);
    assert!(!asg.is_uniform_contiguous());
    check_layout("migrated", &asg);
}

#[test]
fn replicated_assignment_overlap_matches_serial_bitwise() {
    let mut asg = ExpertAssignment::contiguous(EXPERTS, WORLD);
    asg.replicate(5, 0);
    asg.replicate(2, 3);
    assert!(!asg.replicated_experts().is_empty());
    check_layout("replicated", &asg);
}

#[test]
fn uniform_assignment_overlap_matches_serial_bitwise() {
    let asg = ExpertAssignment::contiguous(EXPERTS, WORLD);
    assert!(asg.is_uniform_contiguous());
    check_layout("uniform", &asg);
}
