//! Edge-list I/O in the SNAP-compatible format the paper's datasets ship
//! in: one `u v` pair per line, `#`-prefixed comments, whitespace
//! separated. Community files are one community per line (node ids
//! whitespace separated) — the format of SNAP's `-cmty.txt` ground-truth
//! files. This is what lets a downstream user run the reproduction on the
//! real DBLP/Youtube/LiveJournal snapshots.
//!
//! The edge-list readers make one pass over the bytes through a fixed
//! 64 KiB buffer; a line that does not end inside the buffer is
//! gathered on the side. Their grammar is `str`'s:
//!
//! - only `\n` ends a line, and a line that is not valid UTF-8 (a
//!   comment too) fails the load with `InvalidData`, "stream did not
//!   contain valid UTF-8";
//! - each line is trimmed with [`str::trim`], and an empty line or one
//!   starting with `#` or `%` is skipped;
//! - tokens split on [`char::is_whitespace`]: ASCII space, `\t`, `\n`,
//!   `\x0B`, `\x0C`, `\r` and non-ASCII whitespace such as U+00A0;
//! - ids parse with `u64`'s [`FromStr`](std::str::FromStr) (a leading `+`
//!   is accepted), and the error is its text.
//!
//! An all-ASCII line that is blank, a comment, or whose first two tokens
//! are 1–19 digits each is read straight from the buffer; every other
//! line is read as `str`, so both give the same ids and the same errors.

use crate::{Graph, GraphBuilder, NodeId};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// Parse an edge list from a reader: one `u v` pair per line, extra
/// columns ignored, under the grammar of the [module docs](self). Node
/// ids may be arbitrary `u64`s; they are densely re-labelled in
/// first-appearance order (the first token, then the second), and a
/// self-loop or duplicate line assigns ids too. Returns the graph and
/// the mapping `dense id -> original id`; the graph has one node per
/// original id, so a node seen only in self-loops is isolated.
///
/// The first line that fails decides the error: `InvalidData` with
/// `malformed edge line: {trimmed:?}` for fewer than two tokens, or the
/// `u64` parse error of the first bad id.
pub fn read_edge_list<R: Read>(reader: R) -> std::io::Result<(Graph, Vec<u64>)> {
    let mut r = BufReader::with_capacity(READ_BUFFER_BYTES, reader);
    let mut ids = DenseIds::default();
    let mut b = GraphBuilder::new(0);
    let mut edge = |(u, v): (u64, u64)| {
        let du = ids.dense(u);
        let dv = ids.dense(v);
        b.add_edge(du, dv);
    };
    let mut line = Vec::new();
    loop {
        // The buffered lines `ascii_line` reads, then the line it stopped
        // at, read whole (it may run past the buffer), through `str`.
        let used = match r.fill_buf() {
            Ok(buf) => {
                let mut used = 0;
                while let Some((pair, len)) = ascii_line(&buf[used..]) {
                    if let Some(pair) = pair {
                        edge(pair);
                    }
                    used += len;
                }
                used
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        r.consume(used);
        if !next_line(&mut r, &mut line)? {
            break;
        }
        if let Some(pair) = str_pair(utf8(&line)?)? {
            edge(pair);
        }
    }
    let original = ids.original;
    b.reserve_nodes(original.len());
    Ok((b.build(), original))
}

/// Buffer size of the edge-list readers.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Read the next line, `\n` included, into `line`; `false` at the end
/// of the stream.
fn next_line(r: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<bool> {
    line.clear();
    Ok(r.read_until(b'\n', line)? > 0)
}

/// `line` as text, or the error [`BufRead::read_line`] gives for bytes
/// that are not UTF-8.
fn utf8(line: &[u8]) -> std::io::Result<&str> {
    std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

/// `line` trimmed, or `None` when it is blank or a `#`/`%` comment.
fn content(line: &str) -> Option<&str> {
    let trimmed = line.trim();
    let skip = trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%');
    (!skip).then_some(trimmed)
}

/// The `u v` pair of an edge line, or `None` for a blank or comment
/// line: the reference grammar, on text.
fn str_pair(line: &str) -> std::io::Result<Option<(u64, u64)>> {
    let Some(trimmed) = content(line) else {
        return Ok(None);
    };
    let mut it = trimmed.split_whitespace();
    let (Some(a), Some(b)) = (it.next(), it.next()) else {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("malformed edge line: {trimmed:?}"),
        ));
    };
    let parse = |s: &str| -> std::io::Result<u64> {
        s.parse()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("{e}")))
    };
    Ok(Some((parse(a)?, parse(b)?)))
}

/// The line at the front of `bytes` when it ends there (with `\n`), is
/// all ASCII, and is blank, a `#`/`%` comment, or has 1–19 digits (no
/// sign, so no overflow) as each of its first two tokens: its pair
/// (`None` for a blank or comment) and its length. `None` for any other
/// line, which [`str_pair`] reads instead.
fn ascii_line(bytes: &[u8]) -> Option<(Option<(u64, u64)>, usize)> {
    let mut i = skip_blanks(bytes, 0);
    let mut pair = None;
    if !matches!(bytes.get(i)?, b'\n' | b'#' | b'%') {
        let (u, end) = ascii_id(bytes, i)?;
        let (v, end) = ascii_id(bytes, skip_blanks(bytes, end))?;
        pair = Some((u, v));
        i = end;
    }
    let len = i + bytes[i..].iter().position(|&b| b == b'\n')?;
    bytes[i..len].is_ascii().then_some((pair, len + 1))
}

/// Whether `b` is ASCII whitespace other than `\n`, as
/// [`char::is_whitespace`] sees it (so `\x0B` counts, which
/// [`u8::is_ascii_whitespace`] leaves out).
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | 0x0B | 0x0C | b'\r')
}

/// The index of the first byte at or after `i` that is not a blank.
fn skip_blanks(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(|&b| is_blank(b)) {
        i += 1;
    }
    i
}

/// The value of 1–19 ASCII digits at `bytes[start..]` followed by a
/// blank or `\n`, and the index past them.
fn ascii_id(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
    let mut x = 0u64;
    let mut i = start;
    while let Some(&b) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
        if i - start == 19 {
            return None;
        }
        x = x * 10 + u64::from(b - b'0');
        i += 1;
    }
    let next = *bytes.get(i)?;
    (i > start && (next == b'\n' || is_blank(next))).then_some((x, i))
}

/// The raw-id → dense-id index of one graph: dense ids in
/// first-appearance order, and the raw id of each. The edge-list readers
/// build one while they load, and a serving front end keeps one for the
/// queries and `add` updates it maps.
///
/// Small raw ids index a direct `u32` table, which doubles while it
/// stays within 4 slots per dense id (or 4096 slots); any other id goes
/// through a hash map, and moves to the table when it grows over it. So
/// the memory follows the number of ids, not the largest one.
///
/// ```
/// use dmcs_graph::io::DenseIds;
///
/// let mut ids = DenseIds::from_original(vec![7, 1 << 40]);
/// assert_eq!((ids.get(7), ids.get(1 << 40), ids.get(8)), (Some(0), Some(1), None));
/// assert_eq!(ids.dense(8), 2);
/// assert_eq!(ids.original(), &[7, 1 << 40, 8]);
/// ```
#[derive(Debug, Default)]
pub struct DenseIds {
    original: Vec<u64>,
    /// `direct[raw]` is `dense + 1`, or 0 for an unseen id.
    direct: Vec<NodeId>,
    sparse: std::collections::HashMap<u64, NodeId>,
}

/// The direct table of [`DenseIds`] may hold this many slots per
/// dense id…
const DIRECT_SLOTS_PER_ID: usize = 4;
/// …or this many, whichever is more.
const DIRECT_SLOTS_MIN: usize = 1 << 12;

impl DenseIds {
    /// The index of a loaded graph: `original[dense]` is the raw id of
    /// dense node `dense`, as the edge-list readers return it. A raw id
    /// listed twice keeps its first dense id.
    pub fn from_original(original: Vec<u64>) -> Self {
        let mut ids = DenseIds::default();
        for (dense, &raw) in original.iter().enumerate() {
            ids.index(raw, dense as NodeId);
        }
        ids.original = original;
        ids
    }

    /// The dense id of `raw`, if it has one.
    pub fn get(&self, raw: u64) -> Option<NodeId> {
        match usize::try_from(raw).ok().and_then(|i| self.direct.get(i)) {
            Some(&slot) => slot.checked_sub(1),
            None => self.sparse.get(&raw).copied(),
        }
    }

    /// The dense id of `raw`, assigning the next one on first sight.
    pub fn dense(&mut self, raw: u64) -> NodeId {
        let next = self.original.len() as NodeId;
        let id = self.index(raw, next);
        if id == next {
            self.original.push(raw);
        }
        id
    }

    /// The raw id of each dense id, in dense order.
    pub fn original(&self) -> &[u64] {
        &self.original
    }

    /// The dense id `raw` has, or `id` once it is recorded as raw's;
    /// `id` is also the count of dense ids before it.
    fn index(&mut self, raw: u64, id: NodeId) -> NodeId {
        if raw >= self.direct.len() as u64 {
            let Some(len) = direct_len_for(raw, id as usize) else {
                return *self.sparse.entry(raw).or_insert(id);
            };
            self.direct.resize(len, 0);
            let direct = &mut self.direct;
            self.sparse.retain(|&raw, &mut id| {
                match usize::try_from(raw).ok().and_then(|i| direct.get_mut(i)) {
                    Some(slot) => {
                        *slot = id + 1;
                        false
                    }
                    None => true,
                }
            });
        }
        let slot = &mut self.direct[raw as usize];
        if *slot == 0 {
            *slot = id + 1;
        }
        *slot - 1
    }
}

/// The length of a [`DenseIds`] direct table that has `ids` dense ids
/// once it covers `raw`, if it may grow that far.
fn direct_len_for(raw: u64, ids: usize) -> Option<usize> {
    let cap = (DIRECT_SLOTS_PER_ID * (ids + 1)).max(DIRECT_SLOTS_MIN);
    let len = usize::try_from(raw)
        .ok()?
        .checked_add(1)?
        .checked_next_power_of_two()?;
    (len <= cap).then_some(len)
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
/// (`#`/`%` comments and blank lines skipped; lines, trimming and
/// tokens as in the [module docs](self)). Returns the weighted graph and
/// the dense-id -> original-id mapping; ids are numbered in first
/// appearance, the first token then the second, over accepted lines.
///
/// The grammar is deliberately strict — every violation is an
/// `InvalidData` error naming the 1-based line, so a malformed dataset
/// fails loudly at load time instead of skewing every weighted answer.
/// A line is checked in this order, and the first failing line wins (a
/// line that is not UTF-8 fails as in [`read_edge_list`], without a line
/// number):
///
/// - a **missing** weight column (`u v`) is an error, not a silent 1.0
///   — run without `--weighted` (or add an explicit weight) for
///   unweighted files;
/// - a **trailing** fourth column is an error;
/// - a bad node id (either) or weight (`str::parse::<f64>`) is an error;
/// - a **non-finite, zero or negative** weight is an error;
/// - a **self-loop** is an error (the model is a simple graph);
/// - a **duplicate** edge (either orientation) is an error, so weights
///   never accumulate silently.
pub fn read_weighted_edge_list<R: Read>(reader: R) -> std::io::Result<(Graph, Vec<u64>)> {
    let mut builder = GraphBuilder::weighted(0);
    let mut seen: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
    let mut ids = DenseIds::default();
    let mut r = BufReader::with_capacity(READ_BUFFER_BYTES, reader);
    let mut line = Vec::new();
    let mut line_no = 0usize;
    while next_line(&mut r, &mut line)? {
        line_no += 1;
        let Some(trimmed) = content(utf8(&line)?) else {
            continue;
        };
        let bad = |msg: String| {
            std::io::Error::new(ErrorKind::InvalidData, format!("line {line_no}: {msg}"))
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
        let du = ids.dense(u);
        let dv = ids.dense(v);
        builder.add_weighted_edge(du, dv, w);
    }
    Ok((builder.build(), ids.original))
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
/// [`read_edge_list`] returns). Blank lines and `#`/`%` comments are
/// skipped, as in the edge lists; unknown node ids are skipped.
pub fn read_communities<R: Read>(
    reader: R,
    original_ids: &[u64],
) -> std::io::Result<Vec<Vec<NodeId>>> {
    let lookup = DenseIds::from_original(original_ids.to_vec());
    let mut out = Vec::new();
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let Some(trimmed) = content(&line) else {
            continue;
        };
        let mut comm: Vec<NodeId> = trimmed
            .split_whitespace()
            .filter_map(|tok| tok.parse::<u64>().ok())
            .filter_map(|raw| lookup.get(raw))
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
    fn a_node_seen_only_in_self_loops_is_isolated() {
        let (g, original) = read_edge_list("1 2\n2 4\n1 4\n3 3\n".as_bytes()).unwrap();
        assert_eq!(original, vec![1, 2, 4, 3]);
        assert_eq!((g.n(), g.m()), (4, 3));
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn ids_keep_their_dense_id_when_the_direct_table_takes_them_over() {
        // 5000 and u64::MAX start in the hash map; the 2100 small ids
        // after them let the direct table grow over 5000, not u64::MAX.
        let mut text = String::from("5000 18446744073709551615\n");
        for i in 0..2100 {
            text.push_str(&format!("{} {}\n", i + 1, i + 2));
        }
        text.push_str("5000 1\n18446744073709551615 1\n");
        let (g, original) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(&original[..3], &[5000, u64::MAX, 1]);
        assert_eq!(original.len(), 2103);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
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
    fn community_files_skip_both_comment_styles() {
        let (_, original) = read_edge_list("10 20\n20 30\n30 40\n".as_bytes()).unwrap();
        let cmty = "% 10 40\n10 20 30\n# 20 40\n";
        let comms = read_communities(cmty.as_bytes(), &original).unwrap();
        assert_eq!(comms, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let text = "1 2\n2 1\n1 2\n";
        let (g, _) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn weighted_roundtrip() {
        let mut b = GraphBuilder::weighted(3);
        b.add_weighted_edge(0, 1, 2.5);
        b.add_weighted_edge(1, 2, 0.5);
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
