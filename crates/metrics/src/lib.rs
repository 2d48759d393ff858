//! # dmcs-metrics — community-evaluation metrics
//!
//! The DMCS paper evaluates community search as a binary classification
//! problem (§6.1): the ground-truth community containing the query is the
//! positive class, every other node the negative class. The accuracy of a
//! returned community is then measured with:
//!
//! - [`nmi`] — Normalized Mutual Information (Danon et al. 2005),
//! - [`ari`] — Adjusted Rand Index (Hubert & Arabie 1985),
//! - [`f_score`] — F1 of the positive class (van Rijsbergen 1979), which
//!   the paper notes is over-optimistic for imbalanced classes, and
//! - [`mcc`] — Matthews correlation coefficient (Chicco & Jurman 2020,
//!   the corrective the paper cites).
//!
//! General partition-vs-partition forms ([`nmi_partition`],
//! [`ari_partition`]) are provided too — the binary forms are thin wrappers
//! that first build the two-block partitions `{C, V∖C}`.
//!
//! Two extension modules go beyond the paper's protocol: [`overlap`]
//! compares whole *covers* (overlapping community families) via ONMI,
//! average best-match F1 and the Omega index, and [`goodness`] scores a
//! single community on ground-truth-free structural statistics
//! (conductance, expansion, cut ratio, ...).

#![warn(missing_docs)]

pub mod confusion;
pub mod goodness;
pub mod overlap;

pub use confusion::Confusion;
pub use goodness::Goodness;

/// Node identifier, layout-compatible with `dmcs_graph::NodeId` (this
/// crate stays dependency-free, so the alias is re-declared here).
pub type NodeId = u32;

/// Build a two-block membership vector over `n` nodes: label 1 inside
/// `community`, 0 outside. Node ids outside `0..n` are ignored.
pub fn binary_membership(n: usize, community: &[u32]) -> Vec<u32> {
    let mut labels = vec![0u32; n];
    for &v in community {
        if (v as usize) < n {
            labels[v as usize] = 1;
        }
    }
    labels
}

/// NMI between a predicted community and the ground truth, in the paper's
/// binary-classification framing over `n` nodes.
pub fn nmi(n: usize, predicted: &[u32], truth: &[u32]) -> f64 {
    nmi_partition(
        &binary_membership(n, predicted),
        &binary_membership(n, truth),
    )
}

/// ARI between a predicted community and the ground truth (binary framing).
pub fn ari(n: usize, predicted: &[u32], truth: &[u32]) -> f64 {
    ari_partition(
        &binary_membership(n, predicted),
        &binary_membership(n, truth),
    )
}

/// F1 score of the positive class (the predicted community) against the
/// ground-truth community.
pub fn f_score(n: usize, predicted: &[u32], truth: &[u32]) -> f64 {
    Confusion::from_sets(n, predicted, truth).f1()
}

/// Matthews correlation coefficient of the binary classification.
pub fn mcc(n: usize, predicted: &[u32], truth: &[u32]) -> f64 {
    Confusion::from_sets(n, predicted, truth).mcc()
}

/// Normalized Mutual Information between two hard partitions given as
/// per-node labels (equal length). Normalisation: arithmetic mean of the
/// entropies (Danon et al. 2005). Returns 1.0 when both partitions are the
/// same single cluster (zero entropy on both sides is a perfect, if
/// degenerate, agreement).
pub fn nmi_partition(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "partitions must label the same nodes");
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    let nf = n as f64;
    let count_a = label_counts(a);
    let count_b = label_counts(b);
    let mut joint: std::collections::HashMap<(u32, u32), u64> = std::collections::HashMap::new();
    for i in 0..n {
        *joint.entry((a[i], b[i])).or_insert(0) += 1;
    }
    let mut mi = 0.0f64;
    for (&(la, lb), &c) in &joint {
        let p = c as f64 / nf;
        let pa = count_a[&la] as f64 / nf;
        let pb = count_b[&lb] as f64 / nf;
        if p > 0.0 {
            mi += p * (p / (pa * pb)).ln();
        }
    }
    let ha = entropy(&count_a, nf);
    let hb = entropy(&count_b, nf);
    if ha == 0.0 && hb == 0.0 {
        return 1.0;
    }
    let denom = (ha + hb) / 2.0;
    if denom == 0.0 {
        return 0.0;
    }
    (mi / denom).clamp(0.0, 1.0)
}

/// Adjusted Rand Index between two hard partitions given as per-node
/// labels. 1 for identical partitions, ≈0 in expectation for independent
/// ones, possibly negative for adversarial disagreement.
pub fn ari_partition(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "partitions must label the same nodes");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut joint: std::collections::HashMap<(u32, u32), u64> = std::collections::HashMap::new();
    for i in 0..n {
        *joint.entry((a[i], b[i])).or_insert(0) += 1;
    }
    let count_a = label_counts(a);
    let count_b = label_counts(b);
    let comb2 = |x: u64| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
    let sum_ij: f64 = joint.values().map(|&c| comb2(c)).sum();
    let sum_a: f64 = count_a.values().map(|&c| comb2(c)).sum();
    let sum_b: f64 = count_b.values().map(|&c| comb2(c)).sum();
    let total = comb2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = (sum_a + sum_b) / 2.0;
    if (max_index - expected).abs() < 1e-15 {
        // Degenerate (e.g. both partitions a single cluster): identical.
        return if sum_a == sum_b && sum_ij == sum_a {
            1.0
        } else {
            0.0
        };
    }
    (sum_ij - expected) / (max_index - expected)
}

fn label_counts(labels: &[u32]) -> std::collections::HashMap<u32, u64> {
    let mut m = std::collections::HashMap::new();
    for &l in labels {
        *m.entry(l).or_insert(0) += 1;
    }
    m
}

fn entropy(counts: &std::collections::HashMap<u32, u64>, n: f64) -> f64 {
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            if p > 0.0 {
                -p * p.ln()
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_are_perfect() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi_partition(&a, &a) - 1.0).abs() < 1e-12);
        assert!((ari_partition(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabeled_partitions_are_perfect() {
        let a = vec![0, 0, 1, 1];
        let b = vec![7, 7, 3, 3];
        assert!((nmi_partition(&a, &b) - 1.0).abs() < 1e-12);
        assert!((ari_partition(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_partitions_score_low() {
        // a splits {0,1}/{2,3}; b splits {0,2}/{1,3}: independent.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 1, 0, 1];
        assert!(nmi_partition(&a, &b) < 1e-9);
        assert!(ari_partition(&a, &b).abs() < 0.5);
    }

    #[test]
    fn binary_framing_matches_sets() {
        // 6 nodes, truth {0,1,2}, predicted {0,1,3}.
        let truth = vec![0, 1, 2];
        let pred = vec![0, 1, 3];
        let f = f_score(6, &pred, &truth);
        // precision = 2/3, recall = 2/3 -> F1 = 2/3.
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
        assert!(nmi(6, &pred, &truth) > 0.0);
        assert!(nmi(6, &pred, &pred.clone()) > 0.999);
    }

    #[test]
    fn perfect_prediction_maxes_all_metrics() {
        let truth = vec![1, 2, 3];
        assert!((nmi(8, &truth, &truth) - 1.0).abs() < 1e-12);
        assert!((ari(8, &truth, &truth) - 1.0).abs() < 1e-12);
        assert!((f_score(8, &truth, &truth) - 1.0).abs() < 1e-12);
        assert!((mcc(8, &truth, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f_score_is_overoptimistic_versus_nmi_on_imbalanced_data() {
        // The §6.1 caveat: F-score "returns overoptimistic inflated
        // results" on imbalanced classes — predict a community 10x larger
        // than the tiny truth and F stays noticeably above NMI.
        let truth: Vec<u32> = (0..10).collect();
        let pred: Vec<u32> = (0..100).collect();
        let n = 1000;
        let f = f_score(n, &pred, &truth);
        let i = nmi(n, &pred, &truth);
        // Reference values: F = 2/11 ≈ 0.1818, NMI ≈ 0.1233.
        assert!((f - 2.0 / 11.0).abs() < 1e-12);
        assert!(i < f, "NMI {i} should be harsher than F {f}");
    }

    #[test]
    fn ari_can_go_negative() {
        // Anti-correlated partitions on 4 nodes.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 1, 1, 0];
        assert!(ari_partition(&a, &b) <= 0.0);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(nmi_partition(&[], &[]), 1.0);
        assert_eq!(ari_partition(&[0], &[0]), 1.0);
        let all_same = vec![0, 0, 0];
        assert_eq!(ari_partition(&all_same, &all_same), 1.0);
    }
}
