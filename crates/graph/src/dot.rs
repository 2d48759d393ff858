//! Graphviz DOT export — visualise a graph with its communities, the way
//! the paper draws Figures 1, 6 and 20.
//!
//! The output is a plain `graph { ... }` block: render with
//! `dot -Tsvg out.dot` or `neato` for force-directed layouts. Nodes in
//! the first community are filled with the first palette colour, and so
//! on; overlap is resolved in favour of the earliest community (pass the
//! search result first to spotlight it).

use crate::{Graph, NodeId};
use std::io::{BufWriter, Write};

/// Fill colours cycled over communities (Graphviz X11 names).
const PALETTE: [&str; 8] = [
    "lightskyblue",
    "salmon",
    "palegreen",
    "gold",
    "plum",
    "lightgray",
    "khaki",
    "aquamarine",
];

/// Write `g` in DOT format, colouring each community. `labels`, when
/// given, maps dense ids to display names (e.g. original file ids);
/// otherwise the dense id is printed.
pub fn write_dot<W: Write>(
    g: &Graph,
    communities: &[&[NodeId]],
    labels: Option<&dyn Fn(NodeId) -> String>,
    writer: W,
) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "graph dmcs {{")?;
    writeln!(w, "  node [style=filled, fillcolor=white, shape=circle];")?;
    // First community wins on overlap.
    let mut colour = vec![usize::MAX; g.n()];
    for (i, comm) in communities.iter().enumerate() {
        for &v in comm.iter() {
            let c = &mut colour[v as usize];
            if *c == usize::MAX {
                *c = i;
            }
        }
    }
    for v in 0..g.n() as NodeId {
        let name = labels.map_or_else(|| v.to_string(), |f| f(v));
        let c = colour[v as usize];
        if c == usize::MAX {
            writeln!(w, "  {v} [label=\"{name}\"];")?;
        } else {
            writeln!(
                w,
                "  {v} [label=\"{name}\", fillcolor={}];",
                PALETTE[c % PALETTE.len()]
            )?;
        }
    }
    for (u, v) in g.edges() {
        writeln!(w, "  {u} -- {v};")?;
    }
    writeln!(w, "}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> Graph {
        GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    /// The DOT text of `g` with one highlighted community.
    fn dot_string(g: &Graph, community: &[NodeId]) -> String {
        let mut buf = Vec::new();
        write_dot(g, &[community], None, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn emits_all_nodes_and_edges() {
        let g = triangle_plus_tail();
        let dot = dot_string(&g, &[0, 1, 2]);
        assert!(dot.starts_with("graph dmcs {"));
        assert!(dot.trim_end().ends_with('}'));
        for v in 0..4 {
            assert!(dot.contains(&format!("label=\"{v}\"")), "node {v} missing");
        }
        assert_eq!(dot.matches(" -- ").count(), 4, "four edges");
    }

    #[test]
    fn community_members_are_coloured() {
        let g = triangle_plus_tail();
        let dot = dot_string(&g, &[0, 1, 2]);
        assert_eq!(dot.matches("fillcolor=lightskyblue").count(), 3);
        // The tail node keeps the default fill.
        let tail_line = dot
            .lines()
            .find(|l| l.contains("label=\"3\""))
            .expect("node 3 present");
        assert!(!tail_line.contains("lightskyblue"));
    }

    #[test]
    fn earlier_community_wins_overlap() {
        let g = triangle_plus_tail();
        let a: &[NodeId] = &[0, 1];
        let b: &[NodeId] = &[1, 2];
        let mut buf = Vec::new();
        write_dot(&g, &[a, b], None, &mut buf).unwrap();
        let dot = String::from_utf8(buf).unwrap();
        let node1 = dot.lines().find(|l| l.contains("label=\"1\"")).unwrap();
        assert!(
            node1.contains(PALETTE[0]),
            "overlap resolved to first: {node1}"
        );
    }

    #[test]
    fn custom_labels() {
        let g = triangle_plus_tail();
        let names = ["alice", "bob", "carol", "dave"];
        let f = |v: NodeId| names[v as usize].to_string();
        let mut buf = Vec::new();
        write_dot(&g, &[], Some(&f), &mut buf).unwrap();
        let dot = String::from_utf8(buf).unwrap();
        assert!(dot.contains("label=\"carol\""));
    }

    #[test]
    fn palette_cycles_beyond_eight_communities() {
        let mut b = GraphBuilder::new(10);
        for i in 0..9u32 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let singles: Vec<Vec<NodeId>> = (0..10u32).map(|v| vec![v]).collect();
        let refs: Vec<&[NodeId]> = singles.iter().map(|c| c.as_slice()).collect();
        let mut buf = Vec::new();
        write_dot(&g, &refs, None, &mut buf).unwrap();
        let dot = String::from_utf8(buf).unwrap();
        // Community 8 cycles back to the first palette entry.
        assert_eq!(dot.matches(PALETTE[0]).count(), 2);
    }
}
