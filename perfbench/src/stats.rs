//! Order statistics and the per-run outcome every workload returns.

use std::collections::BTreeMap;

use crate::trace::Span;
use crate::{session_seed, KEPT_SESSIONS, SESSIONS};

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples; 0
/// for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Bit patterns, for comparing float trajectories exactly.
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Everything one workload run reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations (steps, forwards or requests).
    pub attempted: u64,
    /// Timed operations that returned an error or a non-finite loss.
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Metric values by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind the step percentiles.
    pub step_samples: usize,
    /// Wall-clock self time per traced call, ms per step (traced runs).
    pub wall_stages: Vec<(&'static str, f64)>,
    /// Simulated time per stage, ms per step (traced runs).
    pub sim_stages: Vec<(&'static str, f64)>,
    /// Every span recorded by the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Setup, step and failure metrics of a closed loop timed over several
    /// sessions. Failures and allocations count over every session. The
    /// timing metrics count only the [`KEPT_SESSIONS`] sessions with the
    /// least CPU steal: on a shared host the hypervisor hands this machine's
    /// CPUs to other guests in bursts of seconds, and a session caught in
    /// one is slowed by the host, not by the program. Each kept session
    /// yields a setup time, a p50, a p90 and a token rate (its steps' tokens
    /// over its wall time); each metric is the median over kept sessions, so
    /// a minority of disturbed sessions cannot move it.
    pub fn set_sessions(&mut self, mut sessions: Vec<Timed>, tokens_per_step: f64) {
        let steps: usize = sessions.iter().map(|t| t.step_ms.len()).sum();
        self.attempted += steps as u64;
        let failed = sessions.iter().map(|t| t.failed).sum();
        self.failed += failed;
        let per_step = |n: u64| n as f64 / steps.max(1) as f64;
        self.set("ok_frac", 1.0 - per_step(failed));
        self.set(
            "tensor.allocs_per_step",
            per_step(sessions.iter().map(|t| t.allocs).sum()),
        );

        sessions.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        sessions.truncate(KEPT_SESSIONS);
        let over = |f: &dyn Fn(&Timed) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
        self.set("setup_s", over(&|t| t.setup_s));
        self.set("step_ms_p50", over(&|t| median(&t.step_ms)));
        self.set("step_ms_p90", over(&|t| quantile(&t.step_ms, 0.9)));
        self.set(
            "wall_tokens_per_s",
            over(&|t| t.step_ms.len() as f64 * tokens_per_step / t.wall_s),
        );
        self.set("bench.kept_steal_pct", over(&|t| t.steal * 100.0));
        self.step_samples = sessions.iter().map(|t| t.step_ms.len()).sum();
    }
}

/// Machine-wide `(steal, total)` CPU ticks so far, from `/proc/stat`. Steal
/// is time the hypervisor ran other guests on this machine's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings; 0 where
/// the machine does not report steal.
pub fn steal_between(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// One session of a closed loop.
#[derive(Default)]
pub struct Timed {
    pub setup_s: f64,
    pub step_ms: Vec<f64>,
    pub wall_s: f64,
    /// Timed steps that returned an error or a non-finite loss.
    pub failed: u64,
    /// Heap allocations made by the timed steps.
    pub allocs: u64,
    /// Share of CPU time stolen while the session ran, setup included.
    pub steal: f64,
}

/// Run the [`SESSIONS`] sessions of a closed loop: session `k` runs
/// `session(k, seed_k, share)` under its own seed for an equal share of
/// `window`, and is stamped with the CPU steal seen while it ran.
pub fn run_sessions(
    seed: u64,
    window: f64,
    mut session: impl FnMut(usize, u64, f64) -> Timed,
) -> Vec<Timed> {
    (0..SESSIONS)
        .map(|k| {
            let ticks = cpu_ticks();
            let mut t = session(k, session_seed(seed, k), window / SESSIONS as f64);
            t.steal = steal_between(ticks, cpu_ticks());
            t
        })
        .collect()
}
