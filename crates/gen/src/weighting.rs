//! Community-correlated edge weighting: turn any generated topology with
//! ground-truth communities into a weighted graph whose weights carry
//! the community signal.
//!
//! Real interaction networks are weighted (co-authorship counts, message
//! volumes), and the weights concentrate inside communities — that is the
//! premise of Definition 2's weighted density modularity. This module
//! synthesises that regime: intra-community edges draw from a high base
//! weight, inter-community edges from a low one, both jittered with a
//! seeded multiplicative noise so weights are not trivially separable.

use dmcs_graph::weighted::{valid_weight, WEIGHT_CONSTRAINT};
use dmcs_graph::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`weight_by_communities`].
#[derive(Debug, Clone, Copy)]
pub struct WeightingConfig {
    /// Base weight of intra-community edges.
    pub w_in: f64,
    /// Base weight of inter-community edges.
    pub w_out: f64,
    /// Multiplicative jitter: each weight is scaled by a uniform draw
    /// from `[1 − noise, 1 + noise]`. Clamped into `[0, 1)`.
    pub noise: f64,
    /// RNG seed for the jitter.
    pub seed: u64,
}

impl Default for WeightingConfig {
    fn default() -> Self {
        WeightingConfig {
            w_in: 5.0,
            w_out: 1.0,
            noise: 0.2,
            seed: 0x5EED,
        }
    }
}

/// Weight `g`'s edges by community co-membership: an edge is *intra* when
/// its endpoints share at least one community in `communities` (supports
/// overlapping covers). Returns the same topology with a weights lane.
///
/// # Panics
///
/// If `cfg.w_in` or `cfg.w_out` is not a valid edge weight
/// ([`valid_weight`]), whether or not an edge would use it.
pub fn weight_by_communities(
    g: &Graph,
    communities: &[Vec<NodeId>],
    cfg: WeightingConfig,
) -> Graph {
    for (field, w) in [("w_in", cfg.w_in), ("w_out", cfg.w_out)] {
        assert!(
            valid_weight(w),
            "WeightingConfig::{field} {w} {WEIGHT_CONSTRAINT}"
        );
    }
    let noise = cfg.noise.clamp(0.0, 0.999);
    // membership[v] = sorted community indices containing v.
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); g.n()];
    for (ci, comm) in communities.iter().enumerate() {
        for &v in comm {
            if (v as usize) < g.n() {
                membership[v as usize].push(ci as u32);
            }
        }
    }
    let share = |u: NodeId, v: NodeId| -> bool {
        // Merge-walk over the two sorted membership lists.
        let (a, b) = (&membership[u as usize], &membership[v as usize]);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        false
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = GraphBuilder::weighted(g.n());
    for (u, v) in g.edges() {
        let base = if share(u, v) { cfg.w_in } else { cfg.w_out };
        let jitter = 1.0 + rng.gen_range(-noise..=noise);
        b.add_weighted_edge(u, v, base * jitter);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barbell() -> (Graph, Vec<Vec<NodeId>>) {
        let g =
            GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        (g, vec![vec![0, 1, 2], vec![3, 4, 5]])
    }

    #[test]
    fn intra_edges_are_heavier() {
        let (g, comms) = barbell();
        let cfg = WeightingConfig {
            noise: 0.0,
            ..Default::default()
        };
        let wg = weight_by_communities(&g, &comms, cfg);
        assert_eq!(wg.edge_weight(0, 1), Some(5.0));
        assert_eq!(wg.edge_weight(3, 5), Some(5.0));
        assert_eq!(wg.edge_weight(2, 3), Some(1.0), "bridge is inter");
        assert_eq!(wg.m(), g.m());
    }

    #[test]
    fn noise_stays_in_band_and_is_deterministic() {
        let (g, comms) = barbell();
        let cfg = WeightingConfig {
            noise: 0.2,
            ..Default::default()
        };
        let a = weight_by_communities(&g, &comms, cfg);
        let b = weight_by_communities(&g, &comms, cfg);
        for (u, v) in g.edges() {
            let wa = a.edge_weight(u, v).unwrap();
            assert_eq!(wa, b.edge_weight(u, v).unwrap(), "same seed, same weights");
            let base = if (u < 3) == (v < 3) { 5.0 } else { 1.0 };
            assert!(wa >= base * 0.8 - 1e-12 && wa <= base * 1.2 + 1e-12);
        }
    }

    #[test]
    fn overlapping_membership_counts_as_intra() {
        // Node 2 in both communities: edges 1-2 and 2-3 are both intra.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let comms = vec![vec![0, 1, 2], vec![2, 3]];
        let cfg = WeightingConfig {
            noise: 0.0,
            ..Default::default()
        };
        let wg = weight_by_communities(&g, &comms, cfg);
        assert_eq!(wg.edge_weight(1, 2), Some(5.0));
        assert_eq!(wg.edge_weight(2, 3), Some(5.0));
        assert_eq!(wg.edge_weight(0, 1), Some(5.0));
    }

    #[test]
    fn nodes_outside_every_community_get_w_out() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        let comms = vec![vec![0, 1]];
        let cfg = WeightingConfig {
            noise: 0.0,
            ..Default::default()
        };
        let wg = weight_by_communities(&g, &comms, cfg);
        assert_eq!(wg.edge_weight(0, 1), Some(5.0));
        assert_eq!(wg.edge_weight(1, 2), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "WeightingConfig::w_out 0 must be finite and strictly positive")]
    fn a_zero_base_weight_fails_before_the_build() {
        let (g, comms) = barbell();
        let cfg = WeightingConfig {
            w_out: 0.0,
            ..Default::default()
        };
        weight_by_communities(&g, &comms, cfg);
    }

    #[test]
    fn works_on_lfr_output() {
        let lg = crate::lfr::generate(&crate::lfr::LfrConfig {
            n: 300,
            min_community: 10,
            max_community: 60,
            ..Default::default()
        });
        let wg = weight_by_communities(&lg.graph, &lg.communities, WeightingConfig::default());
        assert_eq!(wg.m(), lg.graph.m());
        assert!(
            wg.total_weight() > lg.graph.m() as f64,
            "weights average above 1"
        );
    }
}
