//! `serve-bursty`: `xmoe_serve::serve` on the Small model, 32 simulated
//! ranks, routing skew 8, optimized placement, bursty arrivals (the CLI's
//! on/off process) at 2000 req/s. An open loop in simulated time: each
//! request's latency counts from its scheduled arrival. A run cycles
//! through a fixed set of seeded traffic draws, so every repeat of a draw
//! must reproduce its outputs.

use std::time::Instant;

use xmoe_core::config::MoeModelConfig;
use xmoe_serve::{
    serve, ArrivalProcess, PlacementMode, ServeConfig, ServeEngine, ServeReport, TrafficConfig,
};

use crate::stats::{cpu_ticks, mean, median, quantile, steal_between, Outcome};
use crate::trace::{self, Tracer};
use crate::SESSIONS;

const RANKS: usize = 32;
const RATE_RPS: f64 = 2000.0;
/// Requests per trace: one burst and its drain. A burst brings about 1000
/// requests, so a 900-request trace ends inside the first burst for every
/// draw; the backlog it leaves makes 2-7% of the requests late. Draws then
/// differ by under 2% in engine steps and tokens per step.
const REQUESTS: usize = 900;
/// Distinct traffic draws; one cycle serves one trace of each. Runs stop
/// only at the end of a cycle, so every draw weighs the same in every
/// statistic, and every repeat of a draw must reproduce its first trace
/// bitwise.
const TRAFFICS: usize = 2;
/// Cycles a run serves at least, whatever the window: two to compare
/// outputs across, one more so the steal filter has one to drop.
const MIN_CYCLES: usize = 3;
/// Requests of the warm-up trace each setup serves.
const WARMUP_REQUESTS: usize = 100;

fn config(seed: u64, traffic: usize, requests: usize) -> ServeConfig {
    let traffic_seed = (seed << 8 | traffic as u64) ^ 0x5E4F;
    let traffic = TrafficConfig::steady(RATE_RPS, traffic_seed)
        .with_arrival(ArrivalProcess::Bursty {
            on_s: 0.05,
            off_s: 0.3,
            burst_mult: 10.0,
        })
        .with_skew(8.0, 6);
    ServeConfig::new(MoeModelConfig::small(), RANKS, traffic)
        .with_requests(requests)
        .with_placement(PlacementMode::Optimized)
}

/// Wall-clock cost of one cycle: a trace of each draw.
#[derive(Default)]
struct Cycle {
    /// Wall ms per engine step of each trace: the step samples.
    step_ms: Vec<f64>,
    wall_s: f64,
    steps: f64,
    tokens: f64,
    /// Share of CPU time stolen while the cycle ran.
    steal: f64,
}

/// Output tokens the run emitted, deadline or not.
fn emitted(rep: &ServeReport) -> f64 {
    (rep.throughput_tps * rep.duration_s).round()
}

/// A report's own invariants; `None` when they hold.
fn report_fault(rep: &ServeReport) -> Option<String> {
    if !rep.ledger_ok {
        Some("KV ledger cross-check failed".into())
    } else if rep.completed + rep.rejected != rep.requests {
        Some(format!(
            "completed {} + rejected {} != requests {}",
            rep.completed, rep.rejected, rep.requests
        ))
    } else {
        None
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let window = if traced { seconds / 2.0 } else { seconds };

    let mut setup_s = Vec::new();
    let mut warm_sums = Vec::new();
    for _ in 0..SESSIONS {
        let t0 = Instant::now();
        let rep = serve(config(seed, 0, WARMUP_REQUESTS)).expect("the serving config is valid");
        setup_s.push(t0.elapsed().as_secs_f64());
        warm_sums.push(rep.output_checksum.to_bits());
    }
    out.set("setup_s", median(&setup_s));
    out.check(
        "warm-up output_checksum repeats bitwise across setups",
        warm_sums.iter().all(|&c| c == warm_sums[0]),
        format!("{SESSIONS} warm-up traces of {WARMUP_REQUESTS} requests"),
    );

    // Whole cycles, until the next one would end past the window.
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut firsts: Vec<ServeReport> = Vec::new();
    let mut faults = Vec::new();
    let (mut repeats, mut mismatches) = (0usize, 0usize);
    let t_loop = Instant::now();
    loop {
        let elapsed = t_loop.elapsed().as_secs_f64();
        let per_cycle = elapsed / cycles.len().max(1) as f64;
        if cycles.len() >= MIN_CYCLES && elapsed + per_cycle > window {
            break;
        }
        let mut cycle = Cycle::default();
        let ticks = cpu_ticks();
        for draw in 0..TRAFFICS {
            let t = Instant::now();
            let res = serve(config(seed, draw, REQUESTS));
            let dt = t.elapsed().as_secs_f64();
            out.attempted += 1;
            let rep = match res {
                Ok(rep) => rep,
                Err(e) => {
                    out.failed += 1;
                    faults.push(e.to_string());
                    continue;
                }
            };
            cycle.step_ms.push(dt * 1e3 / rep.steps.max(1) as f64);
            cycle.wall_s += dt;
            cycle.steps += rep.steps as f64;
            cycle.tokens += emitted(&rep);
            faults.extend(report_fault(&rep));
            match firsts.get(draw) {
                Some(first) => {
                    repeats += 1;
                    mismatches += usize::from(
                        first.output_checksum.to_bits() != rep.output_checksum.to_bits(),
                    );
                }
                None => firsts.push(rep),
            }
        }
        cycle.steal = steal_between(ticks, cpu_ticks());
        cycles.push(cycle);
    }
    out.check(
        "every report has ledger_ok and completed + rejected = requests",
        faults.is_empty(),
        faults
            .first()
            .cloned()
            .unwrap_or_else(|| format!("{} traces", out.attempted)),
    );
    out.check(
        "output_checksum repeats bitwise across traces of one draw",
        repeats > 0 && mismatches == 0,
        format!("{repeats} repeated traces, {mismatches} mismatched"),
    );
    if firsts.len() < TRAFFICS {
        return out;
    }
    let n = firsts.len() as f64;
    let total = |f: &dyn Fn(&ServeReport) -> f64| firsts.iter().map(f).sum::<f64>();
    let each = |f: &dyn Fn(&ServeReport) -> f64| firsts.iter().map(f).collect::<Vec<_>>();
    let requests = total(&|r| r.requests as f64);
    let misses = total(&|r| r.deadline_miss_rate * r.requests as f64);
    // The share of requests served by their deadline: a simulated outcome of
    // the serving policy, not a failed operation of the benchmark.
    out.set("ok_frac", 1.0 - misses / requests);
    // Wall-clock numbers drop the third of the cycles with the most CPU
    // steal, for the reason `Outcome::set_sessions` gives.
    let all_ms: Vec<f64> = cycles.iter().flat_map(|c| c.step_ms.clone()).collect();
    cycles.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    cycles.truncate(cycles.len() - cycles.len() / 3);
    let step_ms: Vec<f64> = cycles.iter().flat_map(|c| c.step_ms.clone()).collect();
    let sum = |f: fn(&Cycle) -> f64| cycles.iter().map(f).sum::<f64>();
    out.set("wall_tokens_per_s", sum(|c| c.tokens) / sum(|c| c.wall_s));
    out.set("step_ms_p50", median(&step_ms));
    out.set("step_ms_p90", quantile(&step_ms, 0.9));
    out.set(
        "bench.kept_steal_pct",
        median(&cycles.iter().map(|c| c.steal * 100.0).collect::<Vec<_>>()),
    );
    out.step_samples = step_ms.len();

    let steps = total(&|r| r.steps as f64);
    out.set("serve.engine_steps", steps / n);
    out.set("serve.output_tokens_per_step", total(&emitted) / steps);
    out.set("serve.preemptions", total(&|r| r.preemptions as f64) / n);
    out.set("serve.rejected", total(&|r| r.rejected as f64) / n);
    out.set(
        "serve.wall_us_per_engine_step",
        sum(|c| c.wall_s) * 1e6 / sum(|c| c.steps),
    );
    out.set("serve.sim_dispatch_ms", total(&|r| r.dispatch_s) * 1e3 / n);
    out.set(
        "serve.off_node_mb",
        total(&|r| r.off_node_bytes as f64) / n / 1e6,
    );
    out.set("serve.sim_p50_ms", median(&each(&|r| r.p50_s)) * 1e3);
    out.set("serve.sim_p99_ms", median(&each(&|r| r.p99_s)) * 1e3);
    out.set("serve.sim_goodput_tok_per_s", total(&|r| r.goodput_tps) / n);
    out.set("serve.deadline_miss_frac", misses / requests);
    out.set(
        "topology.placement_resolves",
        total(&|r| r.resolves as f64) / n,
    );
    out.set(
        "topology.migrated_experts",
        total(&|r| r.migrated_experts as f64) / n,
    );
    let sim_step_ms = total(&|r| r.duration_s) * 1e3 / steps;
    let dispatch_ms = total(&|r| r.dispatch_s) * 1e3 / steps;

    if traced {
        let mut tr = Tracer::new(0, Instant::now());
        let t_loop = Instant::now();
        let mut traced_ms = Vec::new();
        let mut traced_steps = 0.0;
        let mut n = 0usize;
        while n < TRAFFICS || !n.is_multiple_of(TRAFFICS) || t_loop.elapsed().as_secs_f64() < window
        {
            tr.set_step(n as u64);
            tr.open("step");
            let engine = tr.time("serve.engine_new", || {
                ServeEngine::new(config(seed, n % TRAFFICS, REQUESTS))
            });
            let rep = engine.map(|e| tr.time("serve.engine_run", || e.run()));
            tr.close();
            match rep {
                Ok(rep) => {
                    if let Some(fault) = report_fault(&rep) {
                        out.check("traced trace report is consistent", false, fault);
                    }
                    let dur = trace::durations(tr.spans(), "step")
                        .last()
                        .copied()
                        .unwrap_or(0.0);
                    traced_ms.push(dur * 1e3 / rep.steps.max(1) as f64);
                    traced_steps += rep.steps as f64;
                }
                Err(e) => out.check("traced trace report is consistent", false, e.to_string()),
            }
            n += 1;
        }
        let spans = tr.into_spans();
        let selft = trace::self_times(&spans);
        // Stage times per engine step, like `step_ms_*`.
        let per_step =
            |name: &str| selft.get(name).copied().unwrap_or(0.0) * 1e3 / traced_steps.max(1.0);
        for name in ["serve.engine_new", "serve.engine_run"] {
            out.wall_stages.push((name, per_step(name)));
        }
        out.set("bench.unattributed_ms", per_step("step"));
        out.wall_stages.push(("unattributed", per_step("step")));
        out.wall_stages.push(("Total", mean(&traced_ms)));
        out.sim_stages.push(("dispatch+combine_a2a", dispatch_ms));
        out.sim_stages.push(("Total", sim_step_ms));
        crate::set_overhead(&mut out, &all_ms, &traced_ms);
        out.spans = spans;
    }
    out
}
