//! Eigenvector centrality by power iteration (Fig 20 case study: the paper
//! ranks the query author by betweenness and eigenvector centrality inside
//! each returned community).

use crate::{Graph, NodeId};

/// Eigenvector centrality restricted to the induced subgraph on `nodes`.
///
/// Power iteration with L2 normalisation; converges for connected non-
/// bipartite subgraphs, and in practice for the small communities the case
/// study inspects. Returns a score per entry of `nodes` (aligned).
pub fn eigenvector_centrality_within(
    g: &Graph,
    nodes: &[NodeId],
    max_iter: usize,
    tol: f64,
) -> Vec<f64> {
    let k = nodes.len();
    if k == 0 {
        return Vec::new();
    }
    let mut local = vec![usize::MAX; g.n()];
    for (i, &v) in nodes.iter().enumerate() {
        local[v as usize] = i;
    }
    let mut x = vec![1.0 / (k as f64).sqrt(); k];
    let mut next = vec![0.0f64; k];
    for _ in 0..max_iter {
        // Iterate with A + I: same eigenvectors as A, but the spectral
        // shift prevents the sign oscillation bipartite subgraphs (stars!)
        // would otherwise cause.
        next.copy_from_slice(&x);
        for (i, &v) in nodes.iter().enumerate() {
            let xi = x[i];
            for &w in g.neighbors(v) {
                let j = local[w as usize];
                if j != usize::MAX {
                    next[j] += xi;
                }
            }
        }
        let norm = next.iter().map(|a| a * a).sum::<f64>().sqrt();
        if norm == 0.0 {
            return next; // no internal edges: all zeros
        }
        let mut diff = 0.0f64;
        for i in 0..k {
            next[i] /= norm;
            diff += (next[i] - x[i]).abs();
        }
        std::mem::swap(&mut x, &mut next);
        if diff < tol {
            break;
        }
    }
    x
}

/// 1-based rank of `v` among `nodes` under `scores` (descending; ties share
/// the better rank). Used by the Fig 20 case study to report "ranked 45th
/// in betweenness".
pub fn rank_of(nodes: &[NodeId], scores: &[f64], v: NodeId) -> Option<usize> {
    let idx = nodes.iter().position(|&u| u == v)?;
    let mine = scores[idx];
    Some(1 + scores.iter().filter(|&&s| s > mine).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn star_center_dominates() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let c = eigenvector_centrality_within(&g, &[0, 1, 2, 3, 4], 200, 1e-12);
        assert!(c[0] > c[1]);
        assert!((c[1] - c[2]).abs() < 1e-9);
    }

    #[test]
    fn clique_is_uniform() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let c = eigenvector_centrality_within(&g, &[0, 1, 2, 3], 200, 1e-12);
        for i in 1..4 {
            assert!((c[i] - c[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn restriction_ignores_outside_edges() {
        // Triangle 0-1-2 plus heavy hub 3 connected to 1 and 2: restricting
        // to the triangle must ignore node 3 entirely.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
        let c = eigenvector_centrality_within(&g, &[0, 1, 2], 200, 1e-12);
        assert!((c[0] - c[1]).abs() < 1e-9);
        assert!((c[1] - c[2]).abs() < 1e-9);
    }

    #[test]
    fn rank_descending_with_ties() {
        let nodes = vec![10, 11, 12];
        let scores = vec![0.3, 0.9, 0.3];
        assert_eq!(rank_of(&nodes, &scores, 11), Some(1));
        assert_eq!(rank_of(&nodes, &scores, 10), Some(2));
        assert_eq!(rank_of(&nodes, &scores, 12), Some(2));
        assert_eq!(rank_of(&nodes, &scores, 99), None);
    }

    #[test]
    fn empty_input() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        assert!(eigenvector_centrality_within(&g, &[], 10, 1e-6).is_empty());
    }
}
