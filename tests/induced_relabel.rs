//! `Graph::induced` against the two relabelling copies it replaced, kept
//! here as oracles: the builder round trip `induced` made (with a binary
//! search per slot for the weights), and the per-row `apply_order` the
//! bfs mirror was built with. On random graphs of both lanes and random
//! node lists (empty, one node, subsets whose neighbours fall outside,
//! full permutations) the new copy must have the same `n`, offsets,
//! rows, slot weights, strengths and w_G, all compared as bits.

use dmcs::graph::layout::{compute_order, ComputeGraph, LayoutPolicy};
use dmcs::graph::{Graph, GraphBuilder, NodeId, NodeMap};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A relabelled CSR as an oracle produced it; the lane's strengths are
/// summed in row order and w_G is half their sum, as
/// `Graph::attach_weights` derives them.
#[derive(Debug)]
struct OracleCopy {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    slot_weight: Option<Vec<f64>>,
}

/// `Graph::induced` as it was: a `GraphBuilder` round trip, then each
/// slot's weight looked up in the host graph.
fn oracle_induced(g: &Graph, nodes: &[NodeId]) -> OracleCopy {
    let mut new_id = vec![NodeId::MAX; g.n()];
    for (i, &v) in nodes.iter().enumerate() {
        new_id[v as usize] = i as NodeId;
    }
    let mut b = GraphBuilder::new(nodes.len());
    for &v in nodes {
        for &w in g.neighbors(v) {
            if v < w && new_id[w as usize] != NodeId::MAX {
                b.add_edge(new_id[v as usize], new_id[w as usize]);
            }
        }
    }
    let sub = b.build();
    let slot_weight = g.is_weighted().then(|| {
        let mut slot_weight = vec![0.0f64; 2 * sub.m()];
        for (i, &v) in nodes.iter().enumerate() {
            let base = sub.csr_offset(i as NodeId);
            for (slot, &w_new) in sub.neighbors(i as NodeId).iter().enumerate() {
                let w_old = nodes[w_new as usize];
                slot_weight[base + slot] = g
                    .edge_weight(v, w_old)
                    .expect("kept edge exists in the host graph");
            }
        }
        slot_weight
    });
    let offsets = sub
        .nodes()
        .map(|v| sub.csr_offset(v))
        .chain([2 * sub.m()])
        .collect();
    let neighbors = sub
        .nodes()
        .flat_map(|v| sub.neighbors(v).to_vec())
        .collect();
    OracleCopy {
        offsets,
        neighbors,
        slot_weight,
    }
}

/// `layout::apply_order` as it was: each row translated through a
/// `NodeMap` with its weights, then sorted.
fn oracle_apply_order(g: &Graph, order: &[NodeId]) -> OracleCopy {
    assert_eq!(order.len(), g.n(), "order must cover every node");
    let map = NodeMap::from_order(order);
    let mut offsets = vec![0usize];
    let mut neighbors = Vec::new();
    let mut slot_weight = g.is_weighted().then(Vec::new);
    let mut row: Vec<(NodeId, f64)> = Vec::new();
    for &external in order {
        row.clear();
        for (u, w) in g.weighted_neighbors(external) {
            row.push((map.to_internal(u), w));
        }
        row.sort_unstable_by_key(|&(v, _)| v);
        neighbors.extend(row.iter().map(|&(v, _)| v));
        if let Some(sw) = &mut slot_weight {
            sw.extend(row.iter().map(|&(_, w)| w));
        }
        offsets.push(neighbors.len());
    }
    OracleCopy {
        offsets,
        neighbors,
        slot_weight,
    }
}

/// `got` is the oracle's copy, bit for bit.
fn same_copy(got: &Graph, want: &OracleCopy) -> Result<(), String> {
    let n = want.offsets.len() - 1;
    if got.n() != n || 2 * got.m() != want.neighbors.len() {
        return Err(format!(
            "n, m {}, {} vs {n}, {}",
            got.n(),
            got.m(),
            want.neighbors.len() / 2
        ));
    }
    let mut strengths = Vec::with_capacity(n);
    for v in 0..n {
        let span = want.offsets[v]..want.offsets[v + 1];
        if got.csr_offset(v as NodeId) != span.start {
            return Err(format!("offset of {v}"));
        }
        if got.neighbors(v as NodeId) != &want.neighbors[span.clone()] {
            return Err(format!(
                "row {v}: {:?} vs {:?}",
                got.neighbors(v as NodeId),
                &want.neighbors[span]
            ));
        }
        if let Some(sw) = &want.slot_weight {
            let bits: Vec<u64> = got
                .weighted_neighbors(v as NodeId)
                .map(|(_, w)| w.to_bits())
                .collect();
            let expect: Vec<u64> = sw[span.clone()].iter().map(|w| w.to_bits()).collect();
            if bits != expect {
                return Err(format!("weights of row {v}: {bits:?} vs {expect:?}"));
            }
            let strength: f64 = sw[span].iter().sum();
            if got.strength(v as NodeId).to_bits() != strength.to_bits() {
                return Err(format!("strength of {v}"));
            }
            strengths.push(strength);
        }
    }
    if got.is_weighted() != want.slot_weight.is_some() {
        return Err(format!(
            "lane {} vs {}",
            got.is_weighted(),
            want.slot_weight.is_some()
        ));
    }
    if want.slot_weight.is_some() {
        let total = strengths.iter().sum::<f64>() / 2.0;
        if got.total_weight().to_bits() != total.to_bits() {
            return Err(format!("w_G {} vs {total}", got.total_weight()));
        }
    }
    Ok(())
}

/// A random graph on up to 40 nodes, with a weights lane (weights
/// uniform in [0.5, 4)) when `weighted`.
fn random_graph(rng: &mut StdRng, weighted: bool) -> Graph {
    let n = rng.gen_range(0..40u32);
    let m = if n < 2 { 0 } else { rng.gen_range(0..4 * n) };
    let mut b = if weighted {
        GraphBuilder::weighted(n as usize)
    } else {
        GraphBuilder::new(n as usize)
    };
    for _ in 0..m {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if weighted {
            b.add_weighted_edge(u, v, rng.gen_range(0.5..4.0));
        } else {
            b.add_edge(u, v);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn induced_matches_the_old_copies(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weighted = rng.gen_bool(0.5);
        let g = random_graph(&mut rng, weighted);
        let mut all: Vec<NodeId> = g.nodes().collect();
        all.shuffle(&mut rng);
        let one = all.len().min(1);
        let some = rng.gen_range(0..=all.len());
        for nodes in [&[][..], &all[..one], &all[..some]] {
            let outcome = same_copy(&g.induced(nodes), &oracle_induced(&g, nodes));
            prop_assert!(outcome.is_ok(), "{:?}: {}", nodes, outcome.unwrap_err());
        }
        // A full permutation: both old copies agree with the new one.
        let permuted = g.induced(&all);
        for want in [oracle_induced(&g, &all), oracle_apply_order(&g, &all)] {
            let outcome = same_copy(&permuted, &want);
            prop_assert!(outcome.is_ok(), "{:?}: {}", all, outcome.unwrap_err());
        }
        // The bfs mirror is the old `apply_order` on the bfs order.
        let order = compute_order(&g, LayoutPolicy::Bfs).expect("bfs has an order");
        let mirror = ComputeGraph::build(&g, LayoutPolicy::Bfs).expect("bfs builds a mirror");
        let outcome = same_copy(mirror.graph(), &oracle_apply_order(&g, &order));
        prop_assert!(outcome.is_ok(), "bfs mirror: {}", outcome.unwrap_err());
    }
}
