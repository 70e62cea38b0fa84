//! Elastic training: replicated/migrated expert assignments and the
//! histogram-driven rebalance policy (ROADMAP item 4; the training-side
//! twin of the placement solver).
//!
//! Two pieces:
//!
//! * [`ExpertAssignment`] (re-exported from `xmoe-core`) — which EP ranks
//!   hold which global expert. The expert-parallel route
//!   ([`xmoe_core::pipeline::padding_free::EpRoute`]) is built from one,
//!   so `DistMoe` dispatches over any layout — contiguous, ragged,
//!   migrated or replicated — through the same exchange, serial or
//!   chunked.
//! * [`RebalancePolicy`] — feeds per-window routing skew to a reused
//!   [`SpikeDetector`], and when it trips (or the skew threshold is
//!   crossed) prices *migrate* (the [`optimize_placement`] solve)
//!   against *replicate-the-hottest-expert* with
//!   [`CostModel::sparse_exchange_time`], committing the winner only if it
//!   is strictly cheaper than the current assignment — the same
//!   never-worse contract `optimize_placement` gives against naive.
//!
//! Determinism: every decision input (merged histogram, current
//! assignment, cost model) is identical on all ranks, so all ranks pick
//! the identical action with no extra coordination; the migration itself
//! round-trips through the rank-agnostic in-memory checkpoint capture, so
//! the post-migration model is bitwise what a fresh run launched in the
//! new layout would hold.

pub use xmoe_core::ExpertAssignment;
use xmoe_topology::{optimize_placement, CostModel, PlacementCost, RoutingHistogram};

use crate::guard::{SpikeDetector, Verdict};

/// Price an assignment (replicas included) against a routing histogram —
/// [`xmoe_topology::placement_cost`] generalized to multi-holder experts.
/// Dispatch keeps the node-dedup discipline (one copy per destination
/// node, striped pilot slot); per-rank expert load follows the serving
/// stripe, so replicating a hot expert visibly splits both its receive
/// traffic and its GEMM load.
pub fn assignment_cost(
    asg: &ExpertAssignment,
    hist: &RoutingHistogram,
    cost: &CostModel,
    bytes_per_token: u64,
) -> PlacementCost {
    let topo = cost.topology();
    let n = asg.n_ranks();
    assert!(n <= topo.n_ranks(), "assignment exceeds topology");
    let scale = if hist.sampled_routed == 0 {
        0.0
    } else {
        hist.total_routed as f64 / hist.sampled_routed as f64
    };
    let gpn = topo.spec().gpus_per_node;
    let mut copies = vec![0u64; n * n];
    let mut rank_pairs = vec![0u64; n];
    let mut nodes: Vec<usize> = Vec::with_capacity(8);
    for r in &hist.routes {
        let src = r.src_rank as usize;
        nodes.clear();
        for &e in &r.experts {
            let dst_rank = asg.serving_rank(e as usize, src);
            rank_pairs[dst_rank] += 1;
            let node = topo.node_of(dst_rank);
            if !nodes.contains(&node) {
                nodes.push(node);
            }
        }
        for &node in &nodes {
            let base = node * gpn;
            let dst = base + (src % gpn).min(n - 1 - base);
            copies[src * n + dst] += 1;
        }
    }
    let mut off_node = 0u64;
    for src in 0..n {
        for dst in 0..n {
            if copies[src * n + dst] > 0 && !topo.same_node(src, dst) {
                off_node += copies[src * n + dst] * bytes_per_token;
            }
        }
    }
    let group: Vec<usize> = (0..n).collect();
    let dispatch_time = cost.sparse_exchange_time(&group, &|i, j| {
        (copies[i * n + j] as f64 * scale) as u64 * bytes_per_token
    });
    PlacementCost {
        off_node_bytes: (off_node as f64 * scale) as u64,
        dispatch_time,
        max_rank_load: rank_pairs
            .into_iter()
            .map(|p| (p as f64 * scale) as u64)
            .max()
            .unwrap_or(0),
    }
}

/// Knobs of the live-rebalance policy.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// Skew trigger: evaluate candidates when the window's max-over-mean
    /// expert load reaches this (the CLI's `--rebalance <threshold>`).
    pub threshold: f64,
    /// Profiling window in steps; the histogram merges and the policy
    /// evaluates every `every` steps.
    pub every: u64,
    /// Dispatch payload bytes per routed token (hidden · 4 for f32).
    pub bytes_per_token: u64,
    /// Cap on committed rebalances per run (keeps long runs from
    /// thrashing; tests pin 1 so the post-migration trajectory is final).
    pub max_actions: usize,
    /// Per-rank budget for *extra* replica state
    /// ([`xmoe_core::memory::expert_replica_bytes`]); replication
    /// candidates that would exceed it are discarded.
    pub replica_budget_bytes: u64,
    /// Drift detector ([`SpikeDetector`]) parameters over the per-window
    /// skew series: a sudden skew spike triggers evaluation even below
    /// `threshold`.
    pub spike_factor: f64,
    pub spike_window: usize,
    pub spike_min_history: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            threshold: 1.5,
            every: 8,
            bytes_per_token: 64,
            max_actions: 1,
            replica_budget_bytes: u64::MAX,
            spike_factor: 2.0,
            spike_window: 8,
            spike_min_history: 4,
        }
    }
}

/// What one committed rebalance did, for the report/trace.
#[derive(Clone, Debug)]
pub struct RebalanceDecision {
    /// Step the new assignment takes effect at.
    pub step: u64,
    /// `"migrate"` or `"replicate"`.
    pub kind: &'static str,
    /// Experts whose holder set changed.
    pub moved_experts: Vec<usize>,
    /// Priced dispatch time under the old / new assignment.
    pub dispatch_before: f64,
    pub dispatch_after: f64,
    /// Weight + optimizer bytes the transfer moved (filled by the engine
    /// from the model dimensions).
    pub migration_bytes: u64,
}

/// Histogram-driven rebalance: skew detection plus priced candidate
/// selection with the never-worse acceptance rule.
pub struct RebalancePolicy {
    cfg: RebalanceConfig,
    detector: SpikeDetector,
    actions: usize,
}

impl RebalancePolicy {
    pub fn new(cfg: RebalanceConfig) -> Self {
        let detector =
            SpikeDetector::new(cfg.spike_factor, cfg.spike_window, cfg.spike_min_history);
        Self {
            cfg,
            detector,
            actions: 0,
        }
    }

    pub fn config(&self) -> &RebalanceConfig {
        &self.cfg
    }

    /// Close one profiling window: observe its skew, and if the detector
    /// trips (or the threshold is crossed) price the candidates and return
    /// the new assignment when one strictly beats the current one.
    ///
    /// Deterministic: given identical inputs every rank returns the
    /// identical decision, so callers need no extra agreement round.
    pub fn observe_window(
        &mut self,
        hist: &RoutingHistogram,
        current: &ExpertAssignment,
        cost: &CostModel,
        extra_replica_bytes: u64,
    ) -> Option<(ExpertAssignment, &'static str)> {
        let skew = hist.skew();
        let spiked = matches!(self.detector.observe(skew), Verdict::Spike { .. });
        if self.actions >= self.cfg.max_actions {
            return None;
        }
        if !spiked && skew < self.cfg.threshold {
            return None;
        }
        let bpt = self.cfg.bytes_per_token;
        let before = assignment_cost(current, hist, cost, bpt);

        // Candidate A: full migrate via the PR 7 solver (primary holders
        // only; replicas collapse onto their primaries first).
        let solved = optimize_placement(hist, cost, bpt);
        let migrate = ExpertAssignment::from_placement(&solved);

        // Candidate B: replicate the hottest expert onto the least-loaded
        // rank not yet holding it (ties to the lowest index on both sides).
        let replicate = self.replicate_candidate(hist, current, extra_replica_bytes);

        let mut best: Option<(ExpertAssignment, &'static str, PlacementCost)> = None;
        for (cand, kind) in [(Some(migrate), "migrate"), (replicate, "replicate")] {
            let Some(cand) = cand else { continue };
            if cand == *current {
                continue;
            }
            let after = assignment_cost(&cand, hist, cost, bpt);
            // Never-worse: strictly faster dispatch, no added off-node
            // traffic — the optimize_placement contract, held against the
            // *live* assignment rather than naive.
            if after.dispatch_time >= before.dispatch_time
                || after.off_node_bytes > before.off_node_bytes
            {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, _, b)) => after.dispatch_time < b.dispatch_time,
            };
            if better {
                best = Some((cand, kind, after));
            }
        }
        let (cand, kind, _) = best?;
        self.actions += 1;
        Some((cand, kind))
    }

    /// Build the replicate-hottest candidate, or `None` when every rank
    /// already holds the hot expert or the replica budget is exhausted.
    fn replicate_candidate(
        &self,
        hist: &RoutingHistogram,
        current: &ExpertAssignment,
        extra_replica_bytes: u64,
    ) -> Option<ExpertAssignment> {
        if extra_replica_bytes > self.cfg.replica_budget_bytes {
            return None;
        }
        let hot = (0..hist.n_experts).max_by_key(|&e| (hist.expert_load[e], usize::MAX - e))?;
        // Least-loaded rank by hosted (token, expert) pairs under the
        // serving stripe, among ranks not yet holding the hot expert.
        let n = current.n_ranks();
        let mut rank_pairs = vec![0u64; n];
        for r in &hist.routes {
            for &e in &r.experts {
                rank_pairs[current.serving_rank(e as usize, r.src_rank as usize)] += 1;
            }
        }
        let target = (0..n)
            .filter(|r| !current.holders(hot).contains(r))
            .min_by_key(|&r| (rank_pairs[r], r))?;
        let mut cand = current.clone();
        cand.replicate(hot, target);
        Some(cand)
    }
}
