//! Community goodness functions.
//!
//! Conventions (unweighted graph `G`, candidate community `C`):
//! - `l_C` — number of edges of the induced subgraph `G[C]`;
//! - `d_C` — sum of **full-graph** degrees of the nodes of `C`;
//! - `m = |E|` — edges of the whole graph.
//!
//! Classic modularity (Definition 1):
//! `CM(C) = l_C/m − (d_C / 2m)²`.
//!
//! Density modularity (Definition 2, unweighted):
//! `DM(C) = l_C/|C| − d_C² / (4 m |C|)`. Its weighted form reads edge
//! weights for edges, strengths for degrees and `w_G` for `m`; the
//! peeling kernels evaluate both on the sums of a [`Lane`].
//!
//! These are the forms the paper's own worked examples use (Example 3 and
//! the appendix proofs). Example 2 reports values exactly twice these —
//! the paper is inconsistent by a constant factor of 2 between
//! Definition 2 and Example 2 — and a constant factor changes no argmax,
//! no gain ordering and no algorithm; tests pin both relationships down.

use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{Graph, NodeId};
use std::ops::{AddAssign, Div, SubAssign};

/// Classic modularity from counts: `l/m − (d/2m)²`.
#[inline]
pub fn classic_modularity_counts(l_c: u64, d_c: u64, m: u64) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let m = m as f64;
    let l = l_c as f64;
    let d = d_c as f64;
    l / m - (d / (2.0 * m)).powi(2)
}

/// Classic modularity of the node set `c` in `g`.
pub fn classic_modularity(g: &Graph, c: &[NodeId]) -> f64 {
    classic_modularity_counts(g.internal_edges(c), g.degree_sum(c), g.m() as u64)
}

/// Density modularity from counts: `l/|C| − d²/(4m|C|)`.
#[inline]
pub fn density_modularity_counts(l_c: u64, d_c: u64, size: usize, m: u64) -> f64 {
    density_modularity_sums(l_c as f64, d_c as f64, size, m as f64)
}

/// Density modularity from [`Lane`] sums, in the operation order of
/// [`density_modularity_counts`]: `l/|C| − d²/(4·total·|C|)` with `l`
/// the internal weight, `d` the strength sum and `total` = `w_G`.
#[inline]
pub fn density_modularity_sums(l: f64, d: f64, size: usize, total: f64) -> f64 {
    if size == 0 || total == 0.0 {
        return f64::NEG_INFINITY;
    }
    let s = size as f64;
    l / s - d * d / (4.0 * total * s)
}

/// The weight lane the peeling kernels sum over; Definition 2 and the
/// Θ stability of Lemma 5 hold on either. `u64` counts unit edges from
/// the CSR (`l_C`, degrees, `m`); `f64` sums edge weights from the
/// graph's weights lane (`w_C`, strengths, `w_G`; unit weights when the
/// graph carries none). On unit weights every `f64` sum is an exact
/// integer, so both lanes score every node set bit for bit alike.
pub trait Lane: Copy + Default + Div<Output = Self> + AddAssign + SubAssign {
    /// The gain Λ (Definition 6): exact `i128` on counts, `f64` on
    /// strengths.
    type Gain: Copy + Default + PartialOrd;
    /// Whether the lane's sums differ from the edge counts a
    /// [`SubgraphView`](dmcs_graph::SubgraphView) keeps, so that a peel
    /// state must keep `k_{v,S}` and `l_S` itself.
    const SUMS: bool;
    /// `m`, or `w_G`.
    fn total(g: &Graph) -> Self;
    /// `d_v`: the degree, or the strength.
    fn node(g: &Graph, v: NodeId) -> Self;
    /// `v`'s neighbours, each with its edge's value on the lane.
    fn row(g: &Graph, v: NodeId) -> impl Iterator<Item = (NodeId, Self)> + '_;
    /// `k` unit edges on the lane.
    fn count(k: u64) -> Self;
    /// The value as an `f64`.
    fn to_f64(self) -> f64;
    /// `Λ_v = −4·m·k_{v,S} + 2·d_S·d_v − d_v²` (Definition 6).
    fn gain(m: Self, k_vs: Self, d_s: Self, d_v: Self) -> Self::Gain;
    /// A per-node array over `0..n`, all zero, from `ws`'s pool (empty
    /// when the lane keeps no [`SUMS`](Lane::SUMS)).
    fn take_sums(ws: &mut QueryWorkspace, n: usize) -> Vec<Self>;
    /// Return a [`Lane::take_sums`] array, naming the entries written.
    fn put_sums(ws: &mut QueryWorkspace, sums: Vec<Self>, written: &[NodeId]);
}

impl Lane for u64 {
    type Gain = i128;
    const SUMS: bool = false;
    fn total(g: &Graph) -> u64 {
        g.m() as u64
    }
    fn node(g: &Graph, v: NodeId) -> u64 {
        g.degree(v) as u64
    }
    fn row(g: &Graph, v: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        g.neighbors(v).iter().map(|&u| (u, 1))
    }
    fn count(k: u64) -> u64 {
        k
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn gain(m: u64, k_vs: u64, d_s: u64, d_v: u64) -> i128 {
        dm_gain(m, k_vs, d_s, d_v)
    }
    fn take_sums(_: &mut QueryWorkspace, _: usize) -> Vec<u64> {
        Vec::new()
    }
    fn put_sums(_: &mut QueryWorkspace, _: Vec<u64>, _: &[NodeId]) {}
}

impl Lane for f64 {
    type Gain = f64;
    const SUMS: bool = true;
    fn total(g: &Graph) -> f64 {
        g.total_weight()
    }
    fn node(g: &Graph, v: NodeId) -> f64 {
        g.strength(v)
    }
    fn row(g: &Graph, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        g.weighted_neighbors(v)
    }
    fn count(k: u64) -> f64 {
        k as f64
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn gain(m: f64, k_vs: f64, d_s: f64, d_v: f64) -> f64 {
        -4.0 * m * k_vs + 2.0 * d_s * d_v - d_v * d_v
    }
    fn take_sums(ws: &mut QueryWorkspace, n: usize) -> Vec<f64> {
        ws.take_weights(n)
    }
    fn put_sums(ws: &mut QueryWorkspace, sums: Vec<f64>, written: &[NodeId]) {
        ws.put_weights(sums, written);
    }
}

/// Density modularity of the node set `c` in `g` (Definition 2,
/// unweighted).
pub fn density_modularity(g: &Graph, c: &[NodeId]) -> f64 {
    density_modularity_counts(g.internal_edges(c), g.degree_sum(c), c.len(), g.m() as u64)
}

/// Single-community term of the generalized modularity density (Guo,
/// Singh & Bassler 2020) with χ = 1: the classic modularity term scaled by
/// the community's internal edge density `2 l_C / (|C|(|C|−1))`. This is
/// the Fig 12 comparator.
pub fn generalized_modularity_density(g: &Graph, c: &[NodeId]) -> f64 {
    let n_c = c.len();
    if n_c < 2 {
        return 0.0;
    }
    let l_c = g.internal_edges(c);
    let cm = classic_modularity_counts(l_c, g.degree_sum(c), g.m() as u64);
    let density = 2.0 * l_c as f64 / (n_c as f64 * (n_c - 1) as f64);
    cm * density
}

/// Updated density modularity (Definition 5): the density modularity of
/// `S ∖ {v}`, from the counts of `S`.
///
/// `(l_S − k_{v,S}) / (|S|−1) − (d_S − d_v)² / (4m(|S|−1))`.
#[inline]
pub fn updated_density_modularity(
    l_s: u64,
    k_vs: u64,
    d_s: u64,
    d_v: u64,
    size: usize,
    m: u64,
) -> f64 {
    density_modularity_counts(l_s - k_vs, d_s - d_v, size - 1, m)
}

/// Density-modularity gain (Definition 6):
/// `Λ_v = −4m·k_{v,S} + 2 d_S d_v − d_v²`.
///
/// Strictly order-equivalent to [`updated_density_modularity`] when
/// comparing candidates over the same subgraph `S` (the fixed terms
/// `l_S`, `d_S²`, `1/(|S|−1)` drop out) — property-tested below.
#[inline]
pub fn dm_gain(m: u64, k_vs: u64, d_s: u64, d_v: u64) -> i128 {
    -4 * (m as i128) * (k_vs as i128) + 2 * (d_s as i128) * (d_v as i128) - (d_v as i128).pow(2)
}

/// Density ratio (Definition 7): `Θ_v = d_v / k_{v,S}`, with `k = 0`
/// mapped to `+∞` (an alive node with no alive neighbours is the cheapest
/// possible removal).
#[inline]
pub fn density_ratio(d_v: u64, k_vs: u64) -> f64 {
    if k_vs == 0 {
        f64::INFINITY
    } else {
        d_v as f64 / k_vs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_gen::{ring, toy};

    const EPS: f64 = 1e-6;

    #[test]
    fn example1_classic_modularity() {
        // Paper Example 1: CM(A) = (12 − 14²/52)/52 = 0.158284,
        // CM(A∪B) = (28 − 28²/52)/52 = 0.2485207.
        let g = toy::figure1();
        let cm_a = classic_modularity(&g, &toy::figure1_community_a());
        let cm_ab = classic_modularity(&g, &toy::figure1_community_ab());
        assert!((cm_a - 0.158284).abs() < EPS, "CM(A) = {cm_a}");
        assert!((cm_ab - 0.2485207).abs() < EPS, "CM(A∪B) = {cm_ab}");
        // The free-rider effect of CM: the merged community wins.
        assert!(cm_ab > cm_a);
    }

    #[test]
    fn example2_density_modularity() {
        // Paper Example 2 reports DM(A) = 1.028846 and DM(A∪B) = 0.8076923
        // using a factor-2 variant of Definition 2; under Definition 2
        // itself the values are exactly half. Both orderings agree: A wins.
        let g = toy::figure1();
        let dm_a = density_modularity(&g, &toy::figure1_community_a());
        let dm_ab = density_modularity(&g, &toy::figure1_community_ab());
        assert!(
            (2.0 * dm_a - 1.028846).abs() < EPS,
            "2·DM(A) = {}",
            2.0 * dm_a
        );
        assert!(
            (2.0 * dm_ab - 0.8076923).abs() < EPS,
            "2·DM(A∪B) = {}",
            2.0 * dm_ab
        );
        assert!(dm_a > dm_ab, "density modularity must prefer A");
    }

    #[test]
    fn example3_ring_of_cliques() {
        // Paper Example 3 (30 cliques of 6, |E| = 480):
        //   CM(merged) = 0.06013889 > CM(split) = 0.03013889
        //   DM(merged) = 2.405556  < DM(split)  = 2.411111
        let g = ring::ring_of_cliques(30, 6);
        let split = ring::split_community(0, 6);
        let merged = ring::merged_community(0, 30, 6);
        let cm_split = classic_modularity(&g, &split);
        let cm_merged = classic_modularity(&g, &merged);
        assert!((cm_split - 0.03013889).abs() < EPS, "CM split {cm_split}");
        assert!(
            (cm_merged - 0.06013889).abs() < EPS,
            "CM merged {cm_merged}"
        );
        assert!(
            cm_merged > cm_split,
            "classic modularity merges (resolution limit)"
        );

        let dm_split = density_modularity(&g, &split);
        let dm_merged = density_modularity(&g, &merged);
        assert!((dm_split - 2.411111).abs() < EPS, "DM split {dm_split}");
        assert!((dm_merged - 2.405556).abs() < EPS, "DM merged {dm_merged}");
        assert!(dm_split > dm_merged, "density modularity splits");
    }

    #[test]
    fn updated_dm_matches_recomputation() {
        let g = toy::figure1();
        let ab = toy::figure1_community_ab();
        let l = g.internal_edges(&ab);
        let d = g.degree_sum(&ab);
        let m = g.m() as u64;
        // Remove node 15 (degree 1, one internal edge).
        let v: NodeId = 15;
        let k_vs = 1u64;
        let d_v = g.degree(v) as u64;
        let predicted = updated_density_modularity(l, k_vs, d, d_v, ab.len(), m);
        let after: Vec<NodeId> = ab.iter().copied().filter(|&u| u != v).collect();
        let actual = density_modularity(&g, &after);
        assert!((predicted - actual).abs() < 1e-12);
    }

    #[test]
    fn gain_orders_like_updated_dm() {
        // Property (Definition 6's justification): over a fixed S, the
        // ranking by Λ equals the ranking by updated DM.
        let g = ring::ring_of_cliques(5, 4);
        let s: Vec<NodeId> = (0..12).collect(); // three cliques
        let l_s = g.internal_edges(&s);
        let d_s = g.degree_sum(&s);
        let m = g.m() as u64;
        let mut in_s = vec![false; g.n()];
        for &v in &s {
            in_s[v as usize] = true;
        }
        let mut pairs: Vec<(i128, f64)> = Vec::new();
        for &v in &s {
            let k_vs = g.neighbors(v).iter().filter(|&&w| in_s[w as usize]).count() as u64;
            let d_v = g.degree(v) as u64;
            let gain = dm_gain(m, k_vs, d_s, d_v);
            let upd = updated_density_modularity(l_s, k_vs, d_s, d_v, s.len(), m);
            pairs.push((gain, upd));
        }
        for i in 0..pairs.len() {
            for j in 0..pairs.len() {
                if pairs[i].0 > pairs[j].0 {
                    assert!(
                        pairs[i].1 >= pairs[j].1 - 1e-12,
                        "Λ ordering disagrees with updated DM"
                    );
                }
            }
        }
    }

    #[test]
    fn density_ratio_edge_cases() {
        assert_eq!(density_ratio(5, 0), f64::INFINITY);
        assert!((density_ratio(6, 3) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gmd_penalises_sparse_communities() {
        let g = ring::ring_of_cliques(30, 6);
        let split = ring::split_community(0, 6);
        let merged = ring::merged_community(0, 30, 6);
        // GMD also prefers the split community (its whole point).
        assert!(
            generalized_modularity_density(&g, &split)
                > generalized_modularity_density(&g, &merged)
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let g = toy::figure1();
        assert_eq!(density_modularity(&g, &[]), f64::NEG_INFINITY);
        assert_eq!(generalized_modularity_density(&g, &[3]), 0.0);
        assert_eq!(classic_modularity_counts(0, 0, 0), 0.0);
    }

    #[test]
    fn dm_identity_with_classic_modularity() {
        // DM(C) = (m / |C|) * CM'(C) where CM'(C) = (2 l − d²/2m)/(2m)·2 —
        // concretely: DM = CM * m / |C| * ... simplest check: both formulas
        // derive from the same (l, d) pair.
        let g = toy::figure1();
        let a = toy::figure1_community_a();
        let m = g.m() as f64;
        let cm = classic_modularity(&g, &a);
        let dm = density_modularity(&g, &a);
        assert!((dm - cm * m / a.len() as f64).abs() < 1e-12);
    }
}
