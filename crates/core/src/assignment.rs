//! Which EP ranks hold which global expert.
//!
//! The classic layout (contiguous, one holder each) is one point in the
//! space; migration rewrites a holder, replication adds one, and ragged
//! worlds (expert count not divisible by world size) get a balanced
//! contiguous split with per-rank counts in `{⌊E/W⌋, ⌈E/W⌉}`. The
//! expert-parallel route ([`crate::pipeline::padding_free::EpRoute`]) is
//! built from an assignment, so every layout travels the same exchange.

use xmoe_topology::ExpertPlacement;

/// Which EP ranks hold which global expert: `holders[e]` is the ascending,
/// non-empty set of ranks carrying a full copy of expert `e`'s weights and
/// optimizer moments.
///
/// A source rank `s` routes expert `e`'s tokens to
/// `holders[e][s % holders[e].len()]` — a static stripe that splits a
/// replicated expert's traffic (and its expert GEMM) across the holders
/// without any per-token coordination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpertAssignment {
    holders: Vec<Vec<usize>>,
    n_ranks: usize,
}

impl ExpertAssignment {
    /// Balanced contiguous split: rank `r` holds experts
    /// `r·E/W .. (r+1)·E/W` (integer bounds). Divisible shapes reproduce
    /// the classic `E/W`-per-rank layout exactly; ragged shapes give every
    /// rank `⌊E/W⌋` or `⌈E/W⌉` experts with no empty tail.
    pub fn contiguous(n_experts: usize, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "assignment needs at least one rank");
        assert!(
            n_experts >= n_ranks,
            "cannot shard {n_experts} experts over {n_ranks} ranks: \
             every EP rank must host at least one expert"
        );
        let mut holders = vec![Vec::new(); n_experts];
        for r in 0..n_ranks {
            for h in &mut holders[r * n_experts / n_ranks..(r + 1) * n_experts / n_ranks] {
                h.push(r);
            }
        }
        Self { holders, n_ranks }
    }

    /// Adopt a solved placement (each expert on exactly one rank).
    pub fn from_placement(p: &ExpertPlacement) -> Self {
        Self {
            holders: p.expert_to_rank.iter().map(|&r| vec![r]).collect(),
            n_ranks: p.n_ranks,
        }
    }

    /// Primary-holder view of this assignment (drops replicas), for
    /// interop with the single-holder placement APIs.
    pub fn to_placement(&self) -> ExpertPlacement {
        ExpertPlacement {
            expert_to_rank: self.holders.iter().map(|h| h[0]).collect(),
            n_ranks: self.n_ranks,
        }
    }

    pub fn n_experts(&self) -> usize {
        self.holders.len()
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Ranks holding expert `e`, ascending.
    pub fn holders(&self, e: usize) -> &[usize] {
        &self.holders[e]
    }

    /// Canonical owner of expert `e` (lowest-ranked holder) — the copy
    /// checkpoints and scatters read.
    pub fn primary(&self, e: usize) -> usize {
        self.holders[e][0]
    }

    /// The rank source `src` sends expert `e`'s tokens to.
    pub fn serving_rank(&self, e: usize, src: usize) -> usize {
        let h = &self.holders[e];
        h[src % h.len()]
    }

    /// Global experts hosted on `rank`, ascending — the order of the
    /// rank's local shard.
    pub fn experts_on(&self, rank: usize) -> Vec<usize> {
        (0..self.holders.len())
            .filter(|&e| self.holders[e].contains(&rank))
            .collect()
    }

    /// Experts with more than one holder, ascending.
    pub fn replicated_experts(&self) -> Vec<usize> {
        (0..self.holders.len())
            .filter(|&e| self.holders[e].len() > 1)
            .collect()
    }

    /// True for the classic layout: divisible shape, single holder,
    /// expert `e` on rank `e / (E/W)`.
    pub fn is_uniform_contiguous(&self) -> bool {
        let e = self.n_experts();
        if !e.is_multiple_of(self.n_ranks) {
            return false;
        }
        let per = e / self.n_ranks;
        self.holders
            .iter()
            .enumerate()
            .all(|(g, h)| h.len() == 1 && h[0] == g / per)
    }

    /// Move expert `e` to be held by `to` alone.
    pub fn migrate(&mut self, e: usize, to: usize) {
        assert!(to < self.n_ranks, "migration target out of range");
        self.holders[e] = vec![to];
    }

    /// Add `rank` as a holder of expert `e` (no-op if already holding).
    pub fn replicate(&mut self, e: usize, rank: usize) {
        assert!(rank < self.n_ranks, "replica target out of range");
        if !self.holders[e].contains(&rank) {
            self.holders[e].push(rank);
            self.holders[e].sort_unstable();
        }
    }

    /// Experts whose holder set differs from `other`'s — each one's
    /// weights + moments must move (or copy) to apply `other`.
    pub fn changed_experts(&self, other: &ExpertAssignment) -> Vec<usize> {
        assert_eq!(self.n_experts(), other.n_experts());
        (0..self.holders.len())
            .filter(|&e| self.holders[e] != other.holders[e])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_matches_classic_layout_when_divisible() {
        let a = ExpertAssignment::contiguous(8, 4);
        assert!(a.is_uniform_contiguous());
        for e in 0..8 {
            assert_eq!(a.holders(e), &[e / 2]);
            assert_eq!(a.serving_rank(e, 3), e / 2);
        }
        assert_eq!(a.experts_on(2), vec![4, 5]);
    }

    #[test]
    fn contiguous_ragged_split_is_balanced_with_no_empty_rank() {
        let a = ExpertAssignment::contiguous(8, 3);
        assert!(!a.is_uniform_contiguous());
        let sizes: Vec<usize> = (0..3).map(|r| a.experts_on(r).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
        // Contiguity: each rank's experts are a consecutive range.
        for r in 0..3 {
            let ex = a.experts_on(r);
            assert!(ex.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    #[test]
    fn replication_stripes_sources_across_holders() {
        let mut a = ExpertAssignment::contiguous(4, 2);
        a.replicate(0, 1);
        assert_eq!(a.holders(0), &[0, 1]);
        assert_eq!(a.serving_rank(0, 0), 0);
        assert_eq!(a.serving_rank(0, 1), 1);
        assert_eq!(a.primary(0), 0);
        assert_eq!(a.replicated_experts(), vec![0]);
        // Both holders list expert 0 in their local shard.
        assert_eq!(a.experts_on(0), vec![0, 1]);
        assert_eq!(a.experts_on(1), vec![0, 2, 3]);
        assert_eq!(a.changed_experts(&ExpertAssignment::contiguous(4, 2)), [0]);
    }

    #[test]
    fn migrate_rewrites_the_holder() {
        let mut a = ExpertAssignment::contiguous(4, 2);
        a.migrate(3, 0);
        assert_eq!(a.holders(3), &[0]);
        assert!(!a.is_uniform_contiguous());
        assert_eq!(a.to_placement().rank_of(3), 0);
    }
}
