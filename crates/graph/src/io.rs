//! Edge-list I/O in the SNAP-compatible format the paper's datasets ship
//! in: one `u v` pair per line, `#`-prefixed comments, whitespace
//! separated. Community files are one community per line (node ids
//! whitespace separated) — the format of SNAP's `-cmty.txt` ground-truth
//! files. This is what lets a downstream user run the reproduction on the
//! real DBLP/Youtube/LiveJournal snapshots.

use crate::{Graph, GraphBuilder, NodeId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parse an edge list from a reader. Node ids may be arbitrary `u64`s;
/// they are densely re-labelled in first-appearance order. Returns the
/// graph and the mapping `dense id -> original id`.
pub fn read_edge_list<R: Read>(reader: R) -> std::io::Result<(Graph, Vec<u64>)> {
    let mut b = GraphBuilder::new(0);
    let mut ids: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
    let mut original: Vec<u64> = Vec::new();
    let mut dense = |raw: u64, original: &mut Vec<u64>| -> NodeId {
        *ids.entry(raw).or_insert_with(|| {
            let id = original.len() as NodeId;
            original.push(raw);
            id
        })
    };
    let mut line = String::new();
    let mut r = BufReader::new(reader);
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (Some(a), Some(bb)) = (it.next(), it.next()) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed edge line: {trimmed:?}"),
            ));
        };
        let parse = |s: &str| -> std::io::Result<u64> {
            s.parse()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}")))
        };
        let (u, v) = (parse(a)?, parse(bb)?);
        let du = dense(u, &mut original);
        let dv = dense(v, &mut original);
        b.add_edge(du, dv);
    }
    Ok((b.build(), original))
}

/// Load an edge list from a file path.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> std::io::Result<(Graph, Vec<u64>)> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Write a graph as an edge list (`u v` per line, dense ids).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# {} nodes, {} edges", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Save a graph to a file path.
pub fn save_edge_list<P: AsRef<Path>>(g: &Graph, path: P) -> std::io::Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Parse a weighted edge list: strictly one `u v w` triple per line
/// (`#`/`%` comments and blank lines skipped). Returns the weighted
/// graph and the dense-id -> original-id mapping.
///
/// The grammar is deliberately strict — every violation is an
/// `InvalidData` error naming the 1-based line, so a malformed dataset
/// fails loudly at load time instead of skewing every weighted answer:
///
/// - a **missing** weight column (`u v`) is an error, not a silent 1.0
///   — run without `--weighted` (or add an explicit weight) for
///   unweighted files;
/// - a **non-finite, zero or negative** weight is an error;
/// - a **duplicate** edge (either orientation) is an error — weighted
///   duplicates previously accumulated silently;
/// - a **trailing** fourth column is an error;
/// - a **self-loop** is an error (the model is a simple graph).
pub fn read_weighted_edge_list<R: Read>(reader: R) -> std::io::Result<(Graph, Vec<u64>)> {
    let mut edges: Vec<(u64, u64, f64)> = Vec::new();
    let mut seen: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
    let mut ids: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
    let mut original: Vec<u64> = Vec::new();
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let bad = |msg: String| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {line_no}: {msg}"),
            )
        };
        let mut it = trimmed.split_whitespace();
        let (Some(a), Some(b), Some(wt)) = (it.next(), it.next(), it.next()) else {
            return Err(bad(format!(
                "expected `u v w`, got {trimmed:?} (missing weight column?)"
            )));
        };
        if let Some(extra) = it.next() {
            return Err(bad(format!("trailing token {extra:?} after `u v w`")));
        }
        let u: u64 = a.parse().map_err(|_| bad(format!("bad node id {a:?}")))?;
        let v: u64 = b.parse().map_err(|_| bad(format!("bad node id {b:?}")))?;
        let w: f64 = wt.parse().map_err(|_| bad(format!("bad weight {wt:?}")))?;
        if !crate::weighted::valid_weight(w) {
            return Err(bad(format!(
                "weight {w} {}",
                crate::weighted::WEIGHT_CONSTRAINT
            )));
        }
        if u == v {
            return Err(bad(format!("self-loop {u} {u} (simple graph)")));
        }
        if !seen.insert((u.min(v), u.max(v))) {
            return Err(bad(format!("duplicate edge {u} {v}")));
        }
        edges.push((u, v, w));
        for raw in [u, v] {
            ids.entry(raw).or_insert_with(|| {
                let id = original.len() as NodeId;
                original.push(raw);
                id
            });
        }
    }
    let mut b = crate::weighted::WeightedGraphBuilder::new(original.len());
    for (u, v, w) in edges {
        b.add_edge(ids[&u], ids[&v], w);
    }
    Ok((b.build(), original))
}

/// Write a weighted graph as `u v w` lines (dense ids).
pub fn write_weighted_edge_list<W: Write>(g: &Graph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# {} nodes, {} edges, weighted", g.n(), g.m())?;
    for u in 0..g.n() as NodeId {
        for (v, wt) in g.weighted_neighbors(u) {
            if u < v {
                writeln!(w, "{u} {v} {wt}")?;
            }
        }
    }
    w.flush()
}

/// Parse SNAP-style community files: one community per line, original node
/// ids, mapped through `original -> dense` (the inverse of the mapping
/// [`read_edge_list`] returns). Unknown node ids are skipped.
pub fn read_communities<R: Read>(
    reader: R,
    original_ids: &[u64],
) -> std::io::Result<Vec<Vec<NodeId>>> {
    let lookup: std::collections::HashMap<u64, NodeId> = original_ids
        .iter()
        .enumerate()
        .map(|(i, &raw)| (raw, i as NodeId))
        .collect();
    let mut out = Vec::new();
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut comm: Vec<NodeId> = trimmed
            .split_whitespace()
            .filter_map(|tok| tok.parse::<u64>().ok())
            .filter_map(|raw| lookup.get(&raw).copied())
            .collect();
        if comm.is_empty() {
            continue;
        }
        comm.sort_unstable();
        comm.dedup();
        out.push(comm);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_text() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, original) = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.m(), g.m());
        assert_eq!(original.len(), 4);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# snap header\n\n% other comment\n10 20\n20 30\n";
        let (g, original) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(original, vec![10, 20, 30]);
    }

    #[test]
    fn sparse_original_ids_are_densified() {
        let text = "1000000 5\n5 99\n";
        let (g, original) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert!(g.has_edge(0, 1)); // 1000000 <-> 5
        assert_eq!(original[0], 1_000_000);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(read_edge_list("1\n".as_bytes()).is_err());
        assert!(read_edge_list("a b\n".as_bytes()).is_err());
    }

    #[test]
    fn communities_map_to_dense_ids() {
        let edges = "10 20\n20 30\n30 40\n";
        let (_, original) = read_edge_list(edges.as_bytes()).unwrap();
        let cmty = "10 20 30\n40 99999\n# comment\n\n";
        let comms = read_communities(cmty.as_bytes(), &original).unwrap();
        assert_eq!(comms, vec![vec![0, 1, 2], vec![3]]); // 99999 unknown, dropped
    }

    #[test]
    fn duplicate_edges_collapse() {
        let text = "1 2\n2 1\n1 2\n";
        let (g, _) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn weighted_roundtrip() {
        let mut b = crate::weighted::WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 2.5);
        b.add_edge(1, 2, 0.5);
        let g = b.build();
        let mut buf = Vec::new();
        write_weighted_edge_list(&g, &mut buf).unwrap();
        let (g2, original) = read_weighted_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.n(), 3);
        assert_eq!(g2.m(), 2);
        assert!((g2.total_weight() - 3.0).abs() < 1e-12);
        // Weight survives the trip (ids may be relabelled).
        let a = original.iter().position(|&x| x == 0).unwrap() as NodeId;
        let bb = original.iter().position(|&x| x == 1).unwrap() as NodeId;
        assert_eq!(g2.edge_weight(a, bb), Some(2.5));
    }

    #[test]
    fn weighted_rejects_missing_weight_with_line_number() {
        // A missing third column no longer defaults to 1.0 — it is a
        // typed load error naming the offending line.
        let err = read_weighted_edge_list("5 6 1.0\n6 7\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("missing weight"), "{msg}");
    }

    #[test]
    fn weighted_rejects_bad_weights_with_line_numbers() {
        for (text, needle) in [
            ("0 1 -2\n", "finite and strictly positive"),
            ("0 1 0\n", "finite and strictly positive"),
            ("0 1 inf\n", "finite and strictly positive"),
            ("0 1 nan\n", "finite and strictly positive"),
            ("0 1 abc\n", "bad weight"),
            ("0\n", "missing weight"),
            ("x 1 2.0\n", "bad node id"),
            ("0 1 2.0 9\n", "trailing token"),
            ("3 3 2.0\n", "self-loop"),
        ] {
            let err = read_weighted_edge_list(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{text:?}");
            let msg = err.to_string();
            assert!(msg.contains("line 1"), "{text:?}: {msg}");
            assert!(msg.contains(needle), "{text:?}: {msg}");
        }
    }

    #[test]
    fn weighted_rejects_duplicate_edges_with_line_numbers() {
        // Either orientation counts as the same undirected edge.
        let err = read_weighted_edge_list("1 2 1.0\n# ok\n2 1 3.0\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("duplicate edge 2 1"), "{msg}");
    }

    #[test]
    fn weighted_skips_comments() {
        let (g, original) =
            read_weighted_edge_list("# header\n% alt\n\n10 20 2.0\n".as_bytes()).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(original, vec![10, 20]);
    }
}
