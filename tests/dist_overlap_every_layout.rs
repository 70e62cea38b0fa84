//! `DistMoe`'s chunked dispatch–compute overlap on expert layouts other
//! than the uniform contiguous one: migrated, replicated and ragged
//! (6 experts over 4 ranks, so ranks hold 1 or 2 experts).
//!
//! With 2 chunks, `forward_overlap` and `backward_overlap` must each open
//! an overlap region with tracked `comm` and `compute` spans; within the
//! region every track's spans run back to back from its opening time; the
//! serial spans plus the region's wall (the max over tracks) reproduce
//! the clock's advance; and output, `d_x`, `g_shard` and `g_gate` stay
//! bitwise equal to the serial `forward` + `backward`.

use xmoe::collectives::{SimClock, SimCluster, Span};
use xmoe::core::gating::DropPolicy;
use xmoe::tensor::Tensor;
use xmoe::train::{DistMoe, ExpertAssignment, TrainableMoe};

const WORLD: usize = 4;
const CHUNKS: usize = 2;

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

/// Check the overlap-region invariants over the spans one call recorded,
/// while the clock advanced from `t_start` to `t_end`.
fn check_region(spans: &[Span], t_start: f64, t_end: f64) -> Result<(), String> {
    let tracked: Vec<&Span> = spans.iter().filter(|s| s.track.is_some()).collect();
    let t0 = tracked
        .iter()
        .map(|s| s.start)
        .fold(f64::INFINITY, f64::min);
    let mut wall_end = t0;
    for name in ["comm", "compute", "comm_out"] {
        let track: Vec<&&Span> = tracked
            .iter()
            .filter(|s| s.track.as_deref() == Some(name))
            .collect();
        if track.is_empty() && name != "comm_out" {
            return Err(format!("no spans on the {name} track"));
        }
        let mut cursor = t0;
        for s in track {
            if (s.start - cursor).abs() >= 1e-9 {
                return Err(format!(
                    "{name} track: gap before {} ({} vs {cursor})",
                    s.label, s.start
                ));
            }
            cursor = s.start + s.dur;
        }
        wall_end = wall_end.max(cursor);
    }
    let serial: f64 = spans
        .iter()
        .filter(|s| s.track.is_none())
        .map(|s| s.dur)
        .sum();
    let wall = wall_end - t0;
    if (serial + wall - (t_end - t_start)).abs() >= 1e-9 {
        return Err(format!(
            "serial {serial} + region wall {wall} != clock advance {}",
            t_end - t_start
        ));
    }
    Ok(())
}

fn check_layout(name: &str, experts: usize, assignment: &ExpertAssignment) {
    let full = TrainableMoe::new(8, 6, experts, 2, 100_000, DropPolicy::CapacityOnly, 4701);
    let results = {
        let full = &full;
        SimCluster::frontier(WORLD).run(move |ctx| {
            let x = Tensor::rand_uniform(12, 8, 1.0, 4800 + ctx.rank as u64);
            let d_out = Tensor::rand_uniform(12, 8, 1.0, 4900 + ctx.rank as u64);
            let layer = DistMoe::from_trainable_with_assignment(full, ctx.rank, assignment.clone());

            let mut over = layer.clone();
            let (out_o, c) = over
                .forward_overlap(&x, CHUNKS, &ctx.world, &mut ctx.clock)
                .unwrap();
            let (fwd_spans, t_mid) = (ctx.clock.spans().len(), ctx.clock.now());
            let dx_o = over
                .backward_overlap(&c, &d_out, CHUNKS, &ctx.world, &mut ctx.clock)
                .unwrap();
            ctx.clock.flush();
            let spans = ctx.clock.spans();
            let fwd = check_region(&spans[..fwd_spans], 0.0, t_mid);
            let bwd = check_region(&spans[fwd_spans..], t_mid, ctx.clock.now());

            let mut serial = layer.clone();
            let mut clock = SimClock::new();
            let (out_s, c) = serial.forward(&x, &ctx.world, &mut clock).unwrap();
            let dx_s = serial.backward(&c, &d_out, &ctx.world, &mut clock).unwrap();
            let bitwise = [
                same_bits(&out_s, &out_o),
                same_bits(&dx_s, &dx_o),
                same_grads(&serial, &over),
            ];
            (fwd, bwd, bitwise)
        })
    };
    for (rank, (fwd, bwd, [out, dx, grads])) in results.iter().enumerate() {
        let at = format!("{name} rank {rank}");
        assert_eq!(fwd, &Ok(()), "{at}: forward_overlap region");
        assert_eq!(bwd, &Ok(()), "{at}: backward_overlap region");
        assert!(out, "{at}: output differs from serial");
        assert!(dx, "{at}: d_x differs from serial");
        assert!(grads, "{at}: g_shard/g_gate differ from serial");
    }
}

#[test]
fn migrated_layout_overlaps_and_matches_serial_bitwise() {
    let mut asg = ExpertAssignment::contiguous(8, WORLD);
    asg.migrate(1, 3);
    asg.migrate(4, 0);
    assert!(!asg.is_uniform_contiguous());
    check_layout("migrated", 8, &asg);
}

#[test]
fn replicated_layout_overlaps_and_matches_serial_bitwise() {
    let mut asg = ExpertAssignment::contiguous(8, WORLD);
    asg.replicate(5, 0);
    asg.replicate(2, 3);
    assert!(!asg.replicated_experts().is_empty());
    check_layout("replicated", 8, &asg);
}

#[test]
fn ragged_layout_overlaps_and_matches_serial_bitwise() {
    let asg = ExpertAssignment::contiguous(6, WORLD);
    assert!(!asg.is_uniform_contiguous());
    check_layout("ragged", 6, &asg);
}
