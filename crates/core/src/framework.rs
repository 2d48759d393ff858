//! The Algorithm 1 framework, compositional.
//!
//! Figure 3 of the paper factors the two proposed algorithms into a 2×2
//! grid: a *removable-node rule* — (a) non-articulation nodes or (b) the
//! farthest distance layer — crossed with a *best-node scorer* — (c) the
//! density-modularity gain Λ or (d) the density ratio Θ. NCA = (a)+(c),
//! NCA-DR = (a)+(d), FPA-DMG = (b)+(c), FPA = (b)+(d).
//!
//! [`Nca`](crate::Nca) and [`Fpa`](crate::Fpa) are hand-specialised for
//! speed (FPA's per-layer indexed heap only makes sense with the stable Θ);
//! this module provides the *generic* peeler so new rule/scorer
//! combinations — e.g. degree-based scorers, hybrid rules — can be
//! composed and compared without touching the tuned implementations. The
//! tests verify the framework reproduces the four named variants'
//! objective values.

use crate::measure::{density_ratio, dm_gain};
use crate::peel::{PeelState, TieRule};
use crate::{validate_query, CommunitySearch, SearchError, SearchResult};
use dmcs_graph::articulation::removable_non_articulation;
use dmcs_graph::traversal::{component_of, multi_source_bfs};
use dmcs_graph::{Graph, NodeId};

/// Which nodes may be removed this iteration (Figure 3, left column).
/// (`Send + Sync` so composed peelers satisfy [`CommunitySearch`]'s
/// thread-safety supertrait; rules are configuration, not shared state.)
pub trait RemovableRule: Send + Sync {
    /// Candidate removable nodes of the current state. `protected[v]`
    /// marks query/seed nodes that must never be offered.
    fn removable(&mut self, st: &PeelState<'_>, protected: &[bool]) -> Vec<NodeId>;
}

/// How to rank removable candidates (Figure 3, right column). Higher is
/// removed first. (`Send + Sync` — see [`RemovableRule`].)
pub trait Scorer: Send + Sync {
    /// Score of removing `v` from the current subgraph.
    fn score(&self, st: &PeelState<'_>, v: NodeId) -> f64;
}

/// Rule (a): any non-articulation, non-protected node.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonArticulationRule;

impl RemovableRule for NonArticulationRule {
    fn removable(&mut self, st: &PeelState<'_>, protected: &[bool]) -> Vec<NodeId> {
        removable_non_articulation(st.view(), protected)
    }
}

/// Rule (b): the alive nodes of the farthest remaining distance layer.
#[derive(Debug, Clone)]
pub struct FarthestLayerRule {
    dist: Vec<u32>,
}

impl FarthestLayerRule {
    /// Precompute distances from the (protected) seed set.
    pub fn new(g: &Graph, seed: &[NodeId]) -> Self {
        FarthestLayerRule {
            dist: multi_source_bfs(g, seed),
        }
    }
}

impl RemovableRule for FarthestLayerRule {
    fn removable(&mut self, st: &PeelState<'_>, protected: &[bool]) -> Vec<NodeId> {
        let mut max_d = 0u32;
        let mut layer = Vec::new();
        for v in st.view().iter_alive() {
            if protected[v as usize] {
                continue;
            }
            let d = self.dist[v as usize];
            match d.cmp(&max_d) {
                std::cmp::Ordering::Greater => {
                    max_d = d;
                    layer.clear();
                    layer.push(v);
                }
                std::cmp::Ordering::Equal => layer.push(v),
                std::cmp::Ordering::Less => {}
            }
        }
        layer
    }
}

/// Scorer (c): the density-modularity gain Λ (Definition 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct GainScorer;

impl Scorer for GainScorer {
    fn score(&self, st: &PeelState<'_>, v: NodeId) -> f64 {
        let k = st.view().local_degree(v) as u64;
        let d_v = st.view().graph().degree(v) as u64;
        dm_gain(st.m(), k, st.d_s(), d_v) as f64
    }
}

/// Scorer (d): the density ratio Θ (Definition 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct RatioScorer;

impl Scorer for RatioScorer {
    fn score(&self, st: &PeelState<'_>, v: NodeId) -> f64 {
        let k = st.view().local_degree(v) as u64;
        density_ratio(st.view().graph().degree(v) as u64, k)
    }
}

/// The generic Algorithm 1 peeler over any rule × scorer combination.
pub struct GenericPeeler<R, S> {
    rule_factory: fn(&Graph, &[NodeId]) -> R,
    scorer: S,
    name: &'static str,
    tie: TieRule,
    _marker: std::marker::PhantomData<R>,
}

impl<R: RemovableRule, S: Scorer> GenericPeeler<R, S> {
    /// Compose a peeler from a rule factory (receives the graph and the
    /// protected seed), a scorer, and the snapshot tie rule (the tuned NCA
    /// keeps the earlier snapshot on DM ties; Algorithm 2 prefers the
    /// later one).
    pub fn new(
        name: &'static str,
        rule_factory: fn(&Graph, &[NodeId]) -> R,
        scorer: S,
        tie: TieRule,
    ) -> Self {
        GenericPeeler {
            rule_factory,
            scorer,
            name,
            tie,
            _marker: std::marker::PhantomData,
        }
    }
}

/// NCA via the framework: (a) + (c).
pub fn generic_nca() -> GenericPeeler<NonArticulationRule, GainScorer> {
    GenericPeeler::new(
        "generic-NCA",
        |_, _| NonArticulationRule,
        GainScorer,
        TieRule::KeepEarlier,
    )
}

/// NCA-DR via the framework: (a) + (d).
pub fn generic_nca_dr() -> GenericPeeler<NonArticulationRule, RatioScorer> {
    GenericPeeler::new(
        "generic-NCA-DR",
        |_, _| NonArticulationRule,
        RatioScorer,
        TieRule::KeepEarlier,
    )
}

/// FPA-DMG via the framework: (b) + (c).
pub fn generic_fpa_dmg() -> GenericPeeler<FarthestLayerRule, GainScorer> {
    GenericPeeler::new(
        "generic-FPA-DMG",
        FarthestLayerRule::new,
        GainScorer,
        TieRule::PreferLater,
    )
}

/// FPA (no layer pruning) via the framework: (b) + (d).
pub fn generic_fpa() -> GenericPeeler<FarthestLayerRule, RatioScorer> {
    GenericPeeler::new(
        "generic-FPA",
        FarthestLayerRule::new,
        RatioScorer,
        TieRule::PreferLater,
    )
}

impl<R: RemovableRule, S: Scorer> CommunitySearch for GenericPeeler<R, S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn search(&self, g: &Graph, query: &[NodeId]) -> Result<SearchResult, SearchError> {
        validate_query(g, query)?;
        let seed = dmcs_graph::steiner::steiner_seed(g, query)?;
        let comp = component_of(g, seed[0]);
        let mut protected = vec![false; g.n()];
        for &s in &seed {
            protected[s as usize] = true;
        }
        let mut rule = (self.rule_factory)(g, &seed);
        // Tie-breaks mirror the tuned implementations: on equal score
        // remove the candidate farthest from the seed ("keep the node
        // closely located to the query nodes", §5.4); on equal distance
        // the smallest id (FPA's heap order).
        let dist = multi_source_bfs(g, &seed);
        let mut st = PeelState::new(g, &comp, self.tie);
        let mut iterations = 0usize;
        loop {
            let cand = rule.removable(&st, &protected);
            if cand.is_empty() || st.size() <= seed.len() {
                break;
            }
            let (&best, _) = cand
                .iter()
                .map(|v| (v, self.scorer.score(&st, *v)))
                .max_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .expect("scores not NaN")
                        .then(dist[*a.0 as usize].cmp(&dist[*b.0 as usize]))
                        .then(b.0.cmp(a.0))
                })
                .expect("cand non-empty");
            st.remove(best);
            iterations += 1;
        }
        let (community, dm, removal_order) = st.finish();
        Ok(SearchResult {
            community,
            density_modularity: dm,
            removal_order,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fpa, FpaDmg, Nca, NcaDr};
    use dmcs_graph::GraphBuilder;

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn framework_matches_named_variants_on_objective() {
        let g = barbell();
        for q in 0..6u32 {
            let pairs: Vec<(f64, f64, &str)> = vec![
                (
                    generic_nca().search(&g, &[q]).unwrap().density_modularity,
                    Nca::default().search(&g, &[q]).unwrap().density_modularity,
                    "NCA",
                ),
                (
                    generic_nca_dr()
                        .search(&g, &[q])
                        .unwrap()
                        .density_modularity,
                    NcaDr.search(&g, &[q]).unwrap().density_modularity,
                    "NCA-DR",
                ),
                (
                    generic_fpa_dmg()
                        .search(&g, &[q])
                        .unwrap()
                        .density_modularity,
                    FpaDmg.search(&g, &[q]).unwrap().density_modularity,
                    "FPA-DMG",
                ),
                (
                    generic_fpa().search(&g, &[q]).unwrap().density_modularity,
                    Fpa::without_pruning()
                        .search(&g, &[q])
                        .unwrap()
                        .density_modularity,
                    "FPA",
                ),
            ];
            for (generic, tuned, label) in pairs {
                assert!(
                    (generic - tuned).abs() < 1e-9,
                    "{label} framework {generic} vs tuned {tuned} (query {q})"
                );
            }
        }
    }

    #[test]
    fn framework_results_are_valid_communities() {
        let g = dmcs_gen::ring::ring_of_cliques(4, 4);
        for q in [0u32, 5, 10] {
            let r = generic_fpa().search(&g, &[q]).unwrap();
            assert!(r.community.contains(&q));
            let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
            assert!(view.is_connected());
        }
    }

    #[test]
    fn custom_scorer_composes() {
        // A novel combination the paper never names: farthest layer +
        // *minimum local degree* (peel weakly-attached nodes first).
        #[derive(Default)]
        struct MinLocalDegree;
        impl Scorer for MinLocalDegree {
            fn score(&self, st: &PeelState<'_>, v: NodeId) -> f64 {
                -(st.view().local_degree(v) as f64)
            }
        }
        let peeler = GenericPeeler::new(
            "layer+mindeg",
            FarthestLayerRule::new,
            MinLocalDegree,
            TieRule::PreferLater,
        );
        let g = barbell();
        let r = peeler.search(&g, &[0]).unwrap();
        assert_eq!(r.community, vec![0, 1, 2]);
    }

    #[test]
    fn multi_query_seed_protected_in_framework() {
        let g = barbell();
        let r = generic_fpa().search(&g, &[0, 5]).unwrap();
        for v in [0, 2, 3, 5] {
            assert!(r.community.contains(&v));
        }
    }

    #[test]
    fn custom_rule_composes() {
        // A novel removable-node rule: among non-articulation nodes, offer
        // only those of minimal alive degree (k-core-style peeling made
        // connectivity-safe by the articulation mask).
        #[derive(Default)]
        struct SparsestSafeRule;
        impl RemovableRule for SparsestSafeRule {
            fn removable(&mut self, st: &PeelState<'_>, protected: &[bool]) -> Vec<NodeId> {
                let safe = removable_non_articulation(st.view(), protected);
                let min = safe
                    .iter()
                    .map(|&v| st.view().local_degree(v))
                    .min()
                    .unwrap_or(0);
                safe.into_iter()
                    .filter(|&v| st.view().local_degree(v) == min)
                    .collect()
            }
        }
        let peeler = GenericPeeler::new(
            "sparsest-safe+ratio",
            |_, _| SparsestSafeRule,
            RatioScorer,
            TieRule::KeepEarlier,
        );
        let g = barbell();
        for q in 0..6u32 {
            let r = peeler.search(&g, &[q]).unwrap();
            assert!(r.community.contains(&q));
            let view = dmcs_graph::SubgraphView::from_nodes(&g, &r.community);
            assert!(view.is_connected());
        }
    }

    #[test]
    fn framework_errors_propagate() {
        let g = barbell();
        assert!(generic_fpa().search(&g, &[]).is_err());
        assert!(generic_nca().search(&g, &[42]).is_err());
        let split = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(generic_fpa().search(&split, &[0, 3]).is_err());
    }

    #[test]
    fn framework_never_beats_exact_on_small_graphs() {
        for seed in 0..6u64 {
            let g = dmcs_gen::random::erdos_renyi(12, 0.3, seed);
            let Ok(opt) = crate::Exact.search(&g, &[0]) else {
                continue;
            };
            for dm in [
                generic_nca().search(&g, &[0]).unwrap().density_modularity,
                generic_nca_dr()
                    .search(&g, &[0])
                    .unwrap()
                    .density_modularity,
                generic_fpa().search(&g, &[0]).unwrap().density_modularity,
                generic_fpa_dmg()
                    .search(&g, &[0])
                    .unwrap()
                    .density_modularity,
            ] {
                assert!(dm <= opt.density_modularity + 1e-9, "seed {seed}");
            }
        }
    }
}
