//! Articulation (cut) nodes via an iterative Hopcroft–Tarjan DFS.
//!
//! NCA's removable-node test (§5.2.1): a node is removable iff it is not a
//! query node and not an articulation node of the *current* subgraph. The
//! paper notes the test must be re-run after every removal because removals
//! flip articulation status both ways; this module therefore computes the
//! full articulation set over a [`SubgraphView`] in `O(|V| + |E|)` per call
//! with zero recursion (real LFR components are deep enough to overflow the
//! call stack otherwise).

use crate::{NodeId, SubgraphView};

/// Compute the articulation nodes of the alive subgraph of `view`.
///
/// Returns a boolean mask indexed by node id (`false` for dead nodes).
/// Standard low-link rules (Hopcroft & Tarjan 1973):
/// - a DFS root is an articulation node iff it has ≥ 2 DFS children;
/// - a non-root `u` is one iff some child `c` has `low[c] >= disc[u]`.
pub fn articulation_nodes(view: &SubgraphView<'_>) -> Vec<bool> {
    let g = view.graph();
    let n = g.n();
    let mut disc = vec![0u32; n]; // 0 = unvisited; otherwise discovery time + 1
    let mut low = vec![0u32; n];
    let mut is_art = vec![false; n];
    let mut timer = 1u32;

    // Explicit DFS stack: (node, parent, neighbor cursor index into CSR).
    struct Frame {
        node: NodeId,
        parent: NodeId,
        cursor: usize,
        children: u32,
    }
    let mut stack: Vec<Frame> = Vec::new();

    for root in view.iter_alive() {
        if disc[root as usize] != 0 {
            continue;
        }
        disc[root as usize] = timer;
        low[root as usize] = timer;
        timer += 1;
        stack.push(Frame {
            node: root,
            parent: NodeId::MAX,
            cursor: 0,
            children: 0,
        });
        let mut root_children = 0u32;

        while let Some(frame) = stack.last_mut() {
            let u = frame.node;
            let nbrs = g.neighbors(u);
            let mut advanced = false;
            while frame.cursor < nbrs.len() {
                let w = nbrs[frame.cursor];
                frame.cursor += 1;
                if !view.contains(w) {
                    continue;
                }
                if disc[w as usize] == 0 {
                    // Tree edge: descend.
                    frame.children += 1;
                    if u == root {
                        root_children += 1;
                    }
                    disc[w as usize] = timer;
                    low[w as usize] = timer;
                    timer += 1;
                    stack.push(Frame {
                        node: w,
                        parent: u,
                        cursor: 0,
                        children: 0,
                    });
                    advanced = true;
                    break;
                } else if w != frame.parent {
                    // Back edge.
                    low[u as usize] = low[u as usize].min(disc[w as usize]);
                }
            }
            if advanced {
                continue;
            }
            // Finished u: propagate low-link to parent and apply the rule.
            let finished = stack.pop().expect("frame exists");
            let u = finished.node;
            let p = finished.parent;
            if p != NodeId::MAX {
                low[p as usize] = low[p as usize].min(low[u as usize]);
                if p != root && low[u as usize] >= disc[p as usize] {
                    is_art[p as usize] = true;
                }
            }
        }
        if root_children >= 2 {
            is_art[root as usize] = true;
        }
    }
    is_art
}

/// Brute-force articulation test used by the property tests: `v` is an
/// articulation node iff removing it increases the number of connected
/// components among the remaining alive nodes.
pub fn is_articulation_brute_force(view: &SubgraphView<'_>, v: NodeId) -> bool {
    if !view.contains(v) || view.n_alive() <= 2 {
        return false;
    }
    let count_components = |view: &SubgraphView<'_>, skip: Option<NodeId>| -> usize {
        let g = view.graph();
        let mut seen = vec![false; g.n()];
        let mut comps = 0usize;
        for s in view.iter_alive() {
            if Some(s) == skip || seen[s as usize] {
                continue;
            }
            comps += 1;
            let mut stack = vec![s];
            seen[s as usize] = true;
            while let Some(u) = stack.pop() {
                for w in view.alive_neighbors(u) {
                    if Some(w) != skip && !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
        }
        comps
    };
    count_components(view, Some(v)) > count_components(view, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphBuilder, SubgraphView};

    fn arts_of(g: &Graph) -> Vec<NodeId> {
        let view = SubgraphView::full(g);
        articulation_nodes(&view)
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    #[test]
    fn path_interior_nodes_are_articulation() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(arts_of(&g), vec![1, 2]);
    }

    #[test]
    fn cycle_has_no_articulation() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(arts_of(&g).is_empty());
    }

    #[test]
    fn bridge_between_triangles() {
        // Two triangles joined by node 2: 0-1-2 and 2-3-4.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        assert_eq!(arts_of(&g), vec![2]);
        // 2 stays an articulation node of the view without node 0: it
        // is still the only link between 1 and the other triangle.
        let mut view = SubgraphView::full(&g);
        view.remove(0);
        assert_eq!(arts_of_view(&view), vec![2]);
    }

    #[test]
    fn root_with_two_children() {
        // Star: center 0 with leaves 1,2,3.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(arts_of(&g), vec![0]);
    }

    #[test]
    fn respects_view_removals() {
        // 0-1-2-3-0 cycle with chord 1-3: removing 0 makes nothing an
        // articulation node; removing 2 leaves 1-3 path intact.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let mut view = SubgraphView::full(&g);
        assert!(arts_of_view(&view).is_empty());
        view.remove(0);
        assert!(arts_of_view(&view).is_empty()); // 1-2-3 triangle-ish path with chord
        view.remove(2);
        // remaining: 1-3 edge, no articulation in a 2-node graph
        assert!(arts_of_view(&view).is_empty());
    }

    fn arts_of_view(view: &SubgraphView<'_>) -> Vec<NodeId> {
        articulation_nodes(view)
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    #[test]
    fn matches_brute_force_on_randomish_graph() {
        // Deterministic pseudo-random graph, n=24, p≈0.15.
        let mut edges = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 0..24u32 {
            for v in (u + 1)..24 {
                if next() % 100 < 15 {
                    edges.push((u, v));
                }
            }
        }
        let g = GraphBuilder::from_edges(24, &edges);
        let view = SubgraphView::full(&g);
        let fast = articulation_nodes(&view);
        for v in 0..24u32 {
            assert_eq!(
                fast[v as usize],
                is_articulation_brute_force(&view, v),
                "node {v} disagrees"
            );
        }
    }

    #[test]
    fn two_node_graph_has_none() {
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        assert!(arts_of(&g).is_empty());
    }
}
