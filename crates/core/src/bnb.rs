//! Exact DMCS by branch-and-bound — scales past the bitmask enumerator.
//!
//! [`crate::Exact`] enumerates all `2^k` node subsets and is hard-capped at
//! 26-node components. This solver enumerates only the *connected* subsets
//! containing the queries (each exactly once, via the classic
//! include/forbid expansion over a growing frontier) and prunes subtrees
//! whose best attainable density modularity cannot beat the incumbent. The
//! incumbent is seeded with FPA's heuristic answer, so on community-like
//! inputs large parts of the tree are cut immediately. In practice this
//! solves sparse components of 40–60 nodes where the bitmask sweep is
//! hopeless, which widens the graphs on which the `approx` experiment can
//! report true optimality gaps.
//!
//! ## The bound
//!
//! For the current connected set `S` (internal edges `l_S`, degree sum
//! `d_S`) let `A` be `S` plus everything still reachable from `S` through
//! non-forbidden nodes, and let `U` be the number of edges inside `A`. Any
//! completion `C` satisfies `S ⊆ C ⊆ A`, so with `t = |C| − |S|` added
//! nodes:
//!
//! - `l_C ≤ min(U, l_S + top_t)` where `top_t` is the sum of the `t`
//!   largest within-`A` degrees among `A \ S` (every added internal edge
//!   has an added endpoint, so it is counted at least once in that sum);
//! - `d_C ≥ d_S + req + bot_t'` where `req` is the degree sum of the
//!   queries still missing from `S` (they *must* be added) and `bot_t'`
//!   the `t' = t − #missing` smallest original degrees of the remaining
//!   candidates.
//!
//! Maximising `(l_C − d_C²/(4m)) / (|S|+t)` over `t` with those two
//! monotone prefix arrays gives an admissible upper bound in
//! `O(|A| log |A|)` per tree node.

use crate::measure::density_modularity_counts;
use crate::{query_component, CommunitySearch, Fpa, SearchError, SearchResult};
use dmcs_graph::{Graph, GraphError, NodeId};

/// Exact DMCS via branch-and-bound over connected subsets.
///
/// ```
/// use dmcs_core::{BranchAndBound, CommunitySearch, Fpa};
/// use dmcs_graph::GraphBuilder;
///
/// // Two triangles joined by a bridge; the optimum from node 0 is its
/// // own triangle, and FPA happens to find it — now certified.
/// let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
/// let opt = BranchAndBound::default().search(&g, &[0]).unwrap();
/// assert_eq!(opt.community, vec![0, 1, 2]);
/// let h = Fpa::default().search(&g, &[0]).unwrap();
/// assert!((h.density_modularity - opt.density_modularity).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BranchAndBound {
    /// Hard cap on the component size accepted (default 64). The solver is
    /// still exponential in the worst case; the cap keeps misuse from
    /// hanging a test run.
    pub max_nodes: usize,
    /// Budget on branch-tree nodes expanded (default 50 million). When
    /// exhausted the solver aborts with
    /// [`GraphError::NoFeasibleSolution`] rather than silently returning a
    /// non-optimal answer.
    pub node_budget: u64,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        BranchAndBound {
            max_nodes: 64,
            node_budget: 50_000_000,
        }
    }
}

impl CommunitySearch for BranchAndBound {
    fn name(&self) -> &'static str {
        "exact-bnb"
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        let comp = query_component(g, query)?;
        if comp.len() > self.max_nodes {
            return Err(SearchError::Graph(GraphError::NoFeasibleSolution(
                "component exceeds the branch-and-bound node cap",
            )));
        }

        // Seed the incumbent with the FPA heuristic (never worse than no
        // incumbent; usually close to the optimum).
        let mut best_dm = f64::NEG_INFINITY;
        let mut best: Vec<NodeId> = Vec::new();
        if let Ok(h) = Fpa::default().search(g, query) {
            best_dm = h.density_modularity;
            best = h.community;
        }

        let mut solver = Solver::new(g, &comp, query, best_dm, best, self.node_budget);
        solver.seed_and_run()?;

        let mut community = solver.best;
        community.sort_unstable();
        Ok(SearchResult {
            community,
            density_modularity: solver.best_dm,
            removal_order: Vec::new(),
            iterations: solver.expanded as usize,
        })
    }
}

struct Solver<'g> {
    g: &'g Graph,
    /// Nodes of the query's component (the search universe).
    in_comp: Vec<bool>,
    query: Vec<NodeId>,
    /// Current connected set, as a stack plus membership flags.
    s: Vec<NodeId>,
    in_s: Vec<bool>,
    /// Nodes excluded for the rest of the current subtree.
    forbidden: Vec<bool>,
    /// Frontier-membership flags (candidates already queued for expansion).
    in_cand: Vec<bool>,
    /// Incremental counts for the current set.
    l_s: u64,
    d_s: u64,
    m: u64,
    missing_queries: usize,
    is_query: Vec<bool>,
    best_dm: f64,
    best: Vec<NodeId>,
    expanded: u64,
    budget: u64,
    /// Scratch buffers reused across bound computations.
    scratch_reach: Vec<NodeId>,
    scratch_seen: Vec<bool>,
}

impl<'g> Solver<'g> {
    fn new(
        g: &'g Graph,
        comp: &[NodeId],
        query: &[NodeId],
        best_dm: f64,
        best: Vec<NodeId>,
        budget: u64,
    ) -> Self {
        let n = g.n();
        let mut in_comp = vec![false; n];
        for &v in comp {
            in_comp[v as usize] = true;
        }
        let mut is_query = vec![false; n];
        for &q in query {
            is_query[q as usize] = true;
        }
        Solver {
            g,
            in_comp,
            query: query.to_vec(),
            s: Vec::new(),
            in_s: vec![false; n],
            forbidden: vec![false; n],
            in_cand: vec![false; n],
            l_s: 0,
            d_s: 0,
            m: g.m() as u64,
            missing_queries: query.len(),
            is_query,
            best_dm,
            best,
            expanded: 0,
            budget,
            scratch_reach: Vec::new(),
            scratch_seen: vec![false; n],
        }
    }

    fn seed_and_run(&mut self) -> Result<(), SearchError> {
        // Root: S = {q0}; the frontier is q0's neighbourhood.
        let q0 = self.query[0];
        self.include(q0);
        let ext: Vec<NodeId> = self
            .g
            .neighbors(q0)
            .iter()
            .copied()
            .filter(|&w| self.in_comp[w as usize] && !self.in_s[w as usize])
            .collect();
        for &w in &ext {
            self.in_cand[w as usize] = true;
        }
        let out = self.recurse(&ext);
        for &w in &ext {
            self.in_cand[w as usize] = false;
        }
        self.exclude(q0);
        out
    }

    fn include(&mut self, v: NodeId) {
        let k_vs = self
            .g
            .neighbors(v)
            .iter()
            .filter(|&&w| self.in_s[w as usize])
            .count() as u64;
        self.l_s += k_vs;
        self.d_s += self.g.degree(v) as u64;
        self.in_s[v as usize] = true;
        self.s.push(v);
        if self.is_query[v as usize] {
            self.missing_queries -= 1;
        }
    }

    fn exclude(&mut self, v: NodeId) {
        debug_assert_eq!(self.s.last(), Some(&v));
        self.s.pop();
        self.in_s[v as usize] = false;
        if self.is_query[v as usize] {
            self.missing_queries += 1;
        }
        let k_vs = self
            .g
            .neighbors(v)
            .iter()
            .filter(|&&w| self.in_s[w as usize])
            .count() as u64;
        self.l_s -= k_vs;
        self.d_s -= self.g.degree(v) as u64;
    }

    fn recurse(&mut self, ext: &[NodeId]) -> Result<(), SearchError> {
        self.expanded += 1;
        if self.expanded > self.budget {
            return Err(SearchError::Graph(GraphError::NoFeasibleSolution(
                "branch-and-bound node budget exhausted",
            )));
        }
        // Feasible leaf value: S itself, when it already holds every query.
        if self.missing_queries == 0 {
            let dm = density_modularity_counts(self.l_s, self.d_s, self.s.len(), self.m);
            if dm > self.best_dm {
                self.best_dm = dm;
                self.best = self.s.clone();
            }
        }
        if !self.bound_beats_incumbent() {
            return Ok(());
        }

        let mut newly_forbidden: Vec<NodeId> = Vec::with_capacity(ext.len());
        let mut result = Ok(());
        for (i, &v) in ext.iter().enumerate() {
            // Branch 1: include v. The frontier keeps the not-yet-tried
            // candidates and gains v's fresh neighbours.
            self.include(v);
            let mut next: Vec<NodeId> = ext[i + 1..].to_vec();
            let mut added: Vec<NodeId> = Vec::new();
            for &w in self.g.neighbors(v) {
                let wi = w as usize;
                if self.in_comp[wi] && !self.in_s[wi] && !self.forbidden[wi] && !self.in_cand[wi] {
                    self.in_cand[wi] = true;
                    added.push(w);
                    next.push(w);
                }
            }
            result = self.recurse(&next);
            for &w in &added {
                self.in_cand[w as usize] = false;
            }
            self.exclude(v);
            if result.is_err() {
                break;
            }
            // Branch 2 (implicit): v is forbidden for the remaining
            // candidates of this level.
            self.forbidden[v as usize] = true;
            newly_forbidden.push(v);
        }
        for &v in &newly_forbidden {
            self.forbidden[v as usize] = false;
        }
        result
    }

    /// Admissible upper bound on the DM of any connected completion of the
    /// current `S`; returns `false` when the subtree cannot beat the
    /// incumbent (or cannot reach a missing query at all).
    fn bound_beats_incumbent(&mut self) -> bool {
        // Reachable closure A of S through non-forbidden nodes.
        self.scratch_reach.clear();
        for &v in &self.s {
            self.scratch_seen[v as usize] = true;
            self.scratch_reach.push(v);
        }
        let mut head = 0;
        while head < self.scratch_reach.len() {
            let v = self.scratch_reach[head];
            head += 1;
            for &w in self.g.neighbors(v) {
                let wi = w as usize;
                if self.in_comp[wi] && !self.scratch_seen[wi] && !self.forbidden[wi] {
                    self.scratch_seen[wi] = true;
                    self.scratch_reach.push(w);
                }
            }
        }

        // Infeasible: some query can no longer be connected to S.
        let feasible = self.query.iter().all(|&q| self.scratch_seen[q as usize]);

        let mut ok = false;
        if feasible {
            // U: edges inside A; candidate degree lists.
            let mut u_edges = 0u64;
            let mut cand_deg_a: Vec<u64> = Vec::new(); // within-A degree, for the edge bound
            let mut cand_deg_g: Vec<u64> = Vec::new(); // original degree, for the d_C bound
            let mut required_deg = 0u64; // original degrees of missing queries
            for &v in &self.scratch_reach {
                let deg_a = self
                    .g
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| self.scratch_seen[w as usize])
                    .count() as u64;
                u_edges += deg_a;
                if !self.in_s[v as usize] {
                    if self.is_query[v as usize] {
                        required_deg += self.g.degree(v) as u64;
                    } else {
                        cand_deg_a.push(deg_a);
                        cand_deg_g.push(self.g.degree(v) as u64);
                    }
                }
            }
            u_edges /= 2;
            // Missing queries also contribute to the optimistic edge bound.
            for &q in &self.query {
                if !self.in_s[q as usize] {
                    let deg_a = self
                        .g
                        .neighbors(q)
                        .iter()
                        .filter(|&&w| self.scratch_seen[w as usize])
                        .count() as u64;
                    cand_deg_a.push(deg_a);
                }
            }
            cand_deg_a.sort_unstable_by(|a, b| b.cmp(a)); // descending: optimistic edges
            cand_deg_g.sort_unstable(); // ascending: optimistic (small) degrees
            let n_missing = self.missing_queries;

            // Sweep t = number of added nodes, t >= n_missing.
            let mut add_edges = 0u64;
            let mut add_deg = required_deg;
            let mut bound = f64::NEG_INFINITY;
            let max_t = cand_deg_a.len();
            for t in n_missing..=max_t {
                if t > n_missing {
                    // t-th added node: best-case edges from the t-th largest
                    // within-A degree, best-case degree from the
                    // (t-n_missing)-th smallest candidate degree.
                    add_edges += cand_deg_a[t - 1];
                    add_deg += cand_deg_g[t - 1 - n_missing];
                } else {
                    // The mandatory query additions still bring their edges.
                    add_edges = cand_deg_a.iter().take(n_missing).sum();
                }
                let l_max = (self.l_s + add_edges).min(u_edges);
                let dm =
                    density_modularity_counts(l_max, self.d_s + add_deg, self.s.len() + t, self.m);
                if dm > bound {
                    bound = dm;
                }
            }
            ok = bound > self.best_dm + 1e-12;
        }

        for &v in &self.scratch_reach {
            self.scratch_seen[v as usize] = false;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exact;
    use dmcs_gen::random::erdos_renyi;
    use dmcs_graph::GraphBuilder;

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn finds_the_triangle() {
        let g = barbell();
        let r = BranchAndBound::default().search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
    }

    #[test]
    fn agrees_with_bitmask_enumeration_on_random_graphs() {
        for seed in 0..25u64 {
            let g = erdos_renyi(14, 0.25, seed);
            for q in [0u32, 7] {
                let (Ok(a), Ok(b)) = (
                    Exact.search(&g, &[q]),
                    BranchAndBound::default().search(&g, &[q]),
                ) else {
                    continue;
                };
                assert!(
                    (a.density_modularity - b.density_modularity).abs() < 1e-9,
                    "seed {seed} q {q}: bitmask {} vs bnb {}",
                    a.density_modularity,
                    b.density_modularity
                );
            }
        }
    }

    #[test]
    fn agrees_with_bitmask_on_multi_query() {
        for seed in 0..12u64 {
            let g = erdos_renyi(12, 0.3, seed);
            let query = [0u32, 5, 9];
            let (Ok(a), Ok(b)) = (
                Exact.search(&g, &query),
                BranchAndBound::default().search(&g, &query),
            ) else {
                continue;
            };
            assert!((a.density_modularity - b.density_modularity).abs() < 1e-9);
            for q in query {
                assert!(b.community.contains(&q));
            }
        }
    }

    #[test]
    fn handles_components_beyond_the_bitmask_cap() {
        // 5 cliques of 6 = 30 nodes: over Exact's 26-node cap.
        let g = dmcs_gen::ring::ring_of_cliques(5, 6);
        assert!(Exact.search(&g, &[0]).is_err());
        let r = BranchAndBound::default().search(&g, &[0]).unwrap();
        // The optimum on the ring is the query's own clique (Example 3).
        assert_eq!(r.community.len(), 6);
        let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
        assert!(view.is_connected());
    }

    #[test]
    fn dominates_heuristics() {
        for seed in 0..8u64 {
            let g = erdos_renyi(20, 0.2, seed);
            let Ok(opt) = BranchAndBound::default().search(&g, &[0]) else {
                continue;
            };
            let h = Fpa::default().search(&g, &[0]).unwrap();
            assert!(h.density_modularity <= opt.density_modularity + 1e-9);
        }
    }

    #[test]
    fn node_cap_and_budget_are_enforced() {
        let g = dmcs_gen::ring::ring_of_cliques(12, 6); // 72 nodes
        assert!(BranchAndBound::default().search(&g, &[0]).is_err());
        let tiny_budget = BranchAndBound {
            max_nodes: 64,
            node_budget: 3,
        };
        let g2 = erdos_renyi(20, 0.3, 1);
        assert!(tiny_budget.search(&g2, &[0]).is_err());
    }

    #[test]
    fn result_is_connected_and_contains_queries() {
        for seed in 0..6u64 {
            let g = erdos_renyi(18, 0.2, seed);
            let Ok(r) = BranchAndBound::default().search(&g, &[0, 3]) else {
                continue;
            };
            assert!(r.community.contains(&0) && r.community.contains(&3));
            let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
            assert!(view.is_connected());
        }
    }
}
