//! The two-node world shared by `train-2node` and `rbd-2node`, the closed
//! loop that runs their sessions, and the simulated-clock tallies they read.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use xmoe_collectives::{RankCtx, SimClock, SimCluster, TrafficStats};
use xmoe_topology::{ClusterTopology, CongestionModel, CostModel, MachineSpec};

use crate::stats::Timed;
use crate::trace::{Span, Tracer};

/// Ranks of the two-node workloads; never more than the machine's cores.
pub const WORLD: usize = 2;

/// Two simulated Frontier nodes with one GPU each.
pub fn two_node_cluster() -> SimCluster {
    let mut spec = MachineSpec::frontier();
    spec.gpus_per_node = 1;
    let topo = ClusterTopology::new(spec, WORLD);
    SimCluster::new(CostModel::new(topo).with_congestion(CongestionModel::none()))
}

/// Step boundaries of a two-rank closed loop: both ranks stop after the
/// same step.
struct Pacer {
    barrier: Barrier,
    stop: AtomicBool,
}

impl Pacer {
    fn new() -> Self {
        Self {
            barrier: Barrier::new(WORLD),
            stop: AtomicBool::new(false),
        }
    }

    /// Wait until both ranks get here.
    fn sync(&self) {
        self.barrier.wait();
    }

    /// End of a step: true on both ranks once rank 0's loop, started at
    /// `t_loop`, has run for `window` seconds. Rank 0 publishes its decision
    /// before the barrier and cannot publish the next one until rank 1
    /// joins the next step's collectives, so both ranks read the same value.
    fn done(&self, rank: usize, t_loop: Instant, window: f64) -> bool {
        if rank == 0 {
            let done = t_loop.elapsed().as_secs_f64() >= window;
            self.stop.store(done, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.stop.load(Ordering::SeqCst)
    }
}

/// What one rank measured in one session of [`closed_loop`].
pub struct RankRun<W> {
    /// The workload's own per-rank state, as the loop left it.
    pub work: W,
    /// Setup time (rank 0's, on every rank), step times, failures and
    /// allocations of this rank.
    pub timed: Timed,
    /// Bytes this rank sent during the timed steps.
    pub traffic: TrafficStats,
    /// Simulated-clock tallies of the timed steps (traced runs only).
    pub sim: SimTally,
    /// Spans of the traced steps and of whatever `finish` recorded.
    pub spans: Vec<Span>,
}

/// One session of a two-rank closed loop. `setup` builds a rank's state and
/// runs its warm-up; once both ranks are through it, setup time is read
/// from `t0`, which the caller starts before building anything the ranks
/// share. Then each rank calls `prepare`, which makes the step's inputs
/// outside the timed region, and `step` (given the tracer when `traced`)
/// until rank 0 has looped for `window` seconds, both ranks stopping after
/// the same step; `step` returns false for a failed step. Last, `finish`
/// runs on each rank with the world still up. A `window` of 0 stops after
/// setup.
pub fn closed_loop<W: Send>(
    t0: Instant,
    window: f64,
    traced: bool,
    setup: impl Fn(&mut RankCtx) -> W + Sync,
    prepare: impl Fn(&mut W) + Sync,
    step: impl Fn(&mut W, &mut RankCtx, Option<&mut Tracer>) -> bool + Sync,
    finish: impl Fn(&mut W, &mut RankCtx, Option<&mut Tracer>) + Sync,
) -> Vec<RankRun<W>> {
    let pacer = Pacer::new();
    let origin = Instant::now();
    let setup_done = Mutex::new(0.0f64);
    let mut runs = two_node_cluster().run(|ctx: &mut RankCtx| {
        let work = setup(ctx);
        pacer.sync();
        if ctx.rank == 0 {
            *setup_done.lock().expect("setup timer poisoned") = t0.elapsed().as_secs_f64();
        }
        let mut run = RankRun {
            work,
            timed: Timed::default(),
            traffic: TrafficStats::default(),
            sim: SimTally::default(),
            spans: Vec::new(),
        };
        if window <= 0.0 {
            return run;
        }
        let mut tr = Tracer::new(ctx.rank, origin);
        let traffic0 = ctx.world.traffic();
        let t_loop = Instant::now();
        let mut id = 0u64;
        loop {
            tr.set_step(id);
            prepare(&mut run.work);
            let a0 = xmoe_tensor::thread_tracked_allocs();
            let t_sim = ctx.clock.now();
            let t = Instant::now();
            let ok = step(&mut run.work, ctx, traced.then_some(&mut tr));
            run.timed.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run.timed.allocs += xmoe_tensor::thread_tracked_allocs() - a0;
            if traced {
                run.sim.observe(&mut ctx.clock, t_sim);
            } else {
                ctx.clock.reset_buckets();
            }
            run.timed.failed += u64::from(!ok);
            id += 1;
            if pacer.done(ctx.rank, t_loop, window) {
                break;
            }
        }
        run.timed.wall_s = t_loop.elapsed().as_secs_f64();
        run.traffic = traffic_since(&traffic0, &ctx.world.traffic());
        finish(&mut run.work, ctx, traced.then_some(&mut tr));
        run.spans = tr.into_spans();
        run
    });
    let setup_s = *setup_done.lock().expect("setup timer poisoned");
    for r in &mut runs {
        r.timed.setup_s = setup_s;
    }
    runs
}

/// A two-rank session as one closed-loop session: rank 0's clock, the
/// larger of the ranks' failure counts, both ranks' allocations.
pub fn session_timed<W>(runs: &mut [RankRun<W>]) -> Timed {
    let failed = runs.iter().map(|r| r.timed.failed).max().unwrap_or(0);
    let allocs = runs.iter().map(|r| r.timed.allocs).sum();
    Timed {
        failed,
        allocs,
        ..std::mem::take(&mut runs[0].timed)
    }
}

/// Bytes moved between two `Communicator::traffic` readings.
fn traffic_since(before: &TrafficStats, after: &TrafficStats) -> TrafficStats {
    TrafficStats {
        intra_node: after.intra_node - before.intra_node,
        inter_node: after.inter_node - before.inter_node,
        cross_rack: after.cross_rack - before.cross_rack,
    }
}

/// Simulated-clock tallies over the traced steps of one rank.
#[derive(Default)]
pub struct SimTally {
    pub steps: usize,
    pub total_s: f64,
    pub wait_s: f64,
    pub a2a_spans: usize,
    pub allreduce_spans: usize,
    pub stages: Vec<(&'static str, f64)>,
}

/// The Fig 11/12 stage a clock bucket belongs to.
fn stage_of(bucket: &str) -> &'static str {
    if bucket.starts_with("sync_wait:") {
        "sync_wait"
    } else if bucket.contains("dispatch_a2a") {
        "dispatch_a2a"
    } else if bucket.contains("combine_a2a") {
        "combine_a2a"
    } else if bucket.contains("allreduce") {
        "allreduce"
    } else {
        match bucket {
            "gating" => "gating",
            "buffer_dispatch" => "buffer_dispatch",
            "expert" => "expert",
            "buffer_combine" => "buffer_combine",
            _ => "other",
        }
    }
}

impl SimTally {
    /// Fold one step's clock into the tally, then clear the clock's spans
    /// and buckets (the time itself keeps running).
    pub fn observe(&mut self, clock: &mut SimClock, t_before: f64) {
        clock.flush();
        self.steps += 1;
        self.total_s += clock.now() - t_before;
        for (label, t) in clock.buckets() {
            let stage = stage_of(label);
            match self.stages.iter_mut().find(|(s, _)| *s == stage) {
                Some(e) => e.1 += t,
                None => self.stages.push((stage, *t)),
            }
        }
        for s in clock.spans() {
            if s.wait {
                self.wait_s += s.dur;
            } else if !s.retry && s.label.contains("a2a") {
                self.a2a_spans += 1;
            } else if !s.retry && s.label.contains("allreduce") {
                self.allreduce_spans += 1;
            }
        }
        clock.reset_buckets();
    }

    pub fn stage_ms(&self, stage: &str) -> f64 {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0.0, |(_, t)| t * 1e3 / self.steps.max(1) as f64)
    }
}
