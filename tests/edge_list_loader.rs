//! The edge-list readers against the line-by-line `str` readers and the
//! comparison-sort CSR build they replaced, kept here as oracles:
//! generated texts (comments, every kind of whitespace, CRLF, signs,
//! overflow, invalid UTF-8, long lines, a missing final newline) must
//! load to the same `original` and rows, or fail with the same error,
//! through readers that return a few bytes per call. The counting-sort
//! build must give the same rows as the sort on random pair lists, and a
//! weighted build the same rows, slot weights, strengths and w_G bits as
//! the `BTreeMap` build; a perfbench-shaped file of more than 1 MiB must
//! load to the graph its first-appearance numbering predicts.

use dmcs::core::{CommunitySearch, Fpa};
use dmcs::graph::io::{load_edge_list, read_edge_list, read_weighted_edge_list};
use dmcs::graph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, ErrorKind, Read};

// ---------------------------------------------------------------------
// Oracles: the readers and the builds as they were before the byte
// scanner and the counting sorts.
// ---------------------------------------------------------------------

/// A CSR as the sort-based build produced it.
#[derive(Debug)]
struct OracleCsr {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
}

impl OracleCsr {
    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    fn row(&self, v: usize) -> &[NodeId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// The sort-based build: `n` grows to the largest endpoint, pairs are
/// normalised, sorted and deduplicated, then scattered, and every row is
/// sorted again.
fn oracle_build(n: usize, pairs: &[(NodeId, NodeId)]) -> OracleCsr {
    let mut n = n;
    let mut edges = Vec::new();
    for &(u, v) in pairs {
        if u == v {
            continue;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        n = n.max(b as usize + 1);
        edges.push((a, b));
    }
    edges.sort_unstable();
    edges.dedup();
    let mut deg = vec![0usize; n];
    for &(u, v) in &edges {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut acc = 0usize;
    for d in &deg {
        acc += d;
        offsets.push(acc);
    }
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0 as NodeId; acc];
    for &(u, v) in &edges {
        neighbors[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        neighbors[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    for v in 0..n {
        neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    OracleCsr { offsets, neighbors }
}

/// The line-by-line reader: `read_line`, `trim`, `split_whitespace`,
/// `str::parse`, a `HashMap` id map, and a build whose `n` stops at the
/// largest endpoint of a kept edge.
fn oracle_read_edge_list<R: Read>(reader: R) -> std::io::Result<(OracleCsr, Vec<u64>)> {
    let mut pairs = Vec::new();
    let mut ids: HashMap<u64, NodeId> = HashMap::new();
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
                ErrorKind::InvalidData,
                format!("malformed edge line: {trimmed:?}"),
            ));
        };
        let parse = |s: &str| -> std::io::Result<u64> {
            s.parse()
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("{e}")))
        };
        let (u, v) = (parse(a)?, parse(bb)?);
        let du = dense(u, &mut original);
        let dv = dense(v, &mut original);
        pairs.push((du, dv));
    }
    Ok((oracle_build(0, &pairs), original))
}

/// A weighted graph as the `BTreeMap` builder produced it: the sorted
/// CSR, each slot's weight found by binary search, strengths summed in
/// row order and the total as half their sum.
#[derive(Debug)]
struct OracleWeighted {
    csr: OracleCsr,
    slot_weight: Vec<f64>,
    strength: Vec<f64>,
    total: f64,
}

fn oracle_weighted_build(n: usize, edges: &[(NodeId, NodeId, f64)]) -> OracleWeighted {
    let mut acc: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
    let mut n = n;
    for &(u, v, w) in edges {
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        n = n.max(key.1 as usize + 1);
        *acc.entry(key).or_insert(0.0) += w;
    }
    let pairs: Vec<(NodeId, NodeId)> = acc.keys().copied().collect();
    let csr = oracle_build(n, &pairs);
    let mut slot_weight = vec![0.0f64; csr.neighbors.len()];
    for (&(u, v), &w) in &acc {
        let su = csr.offsets[u as usize] + csr.row(u as usize).binary_search(&v).unwrap();
        let sv = csr.offsets[v as usize] + csr.row(v as usize).binary_search(&u).unwrap();
        slot_weight[su] = w;
        slot_weight[sv] = w;
    }
    let strength: Vec<f64> = csr
        .offsets
        .windows(2)
        .map(|w| slot_weight[w[0]..w[1]].iter().sum())
        .collect();
    let total = strength.iter().sum::<f64>() / 2.0;
    OracleWeighted {
        csr,
        slot_weight,
        strength,
        total,
    }
}

/// The strict weighted reader over `BufRead::lines`.
fn oracle_read_weighted_edge_list<R: Read>(
    reader: R,
) -> std::io::Result<(OracleWeighted, Vec<u64>)> {
    let mut edges: Vec<(u64, u64, f64)> = Vec::new();
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut ids: HashMap<u64, NodeId> = HashMap::new();
    let mut original: Vec<u64> = Vec::new();
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
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
        if !dmcs::graph::weighted::valid_weight(w) {
            return Err(bad(format!(
                "weight {w} {}",
                dmcs::graph::weighted::WEIGHT_CONSTRAINT
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
    let dense: Vec<(NodeId, NodeId, f64)> = edges
        .iter()
        .map(|&(u, v, w)| (ids[&u], ids[&v], w))
        .collect();
    Ok((oracle_weighted_build(original.len(), &dense), original))
}

// ---------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------

/// The new graph has every row the oracle has, one node per original
/// id, and empty rows past the oracle's `n`.
fn same_rows(g: &Graph, want: &OracleCsr, original: &[u64]) -> Result<(), String> {
    if g.n() != original.len() {
        return Err(format!("n {} but {} original ids", g.n(), original.len()));
    }
    if want.n() > g.n() {
        return Err(format!("oracle n {} above n {}", want.n(), g.n()));
    }
    for v in 0..g.n() {
        let row = if v < want.n() { want.row(v) } else { &[] };
        if g.neighbors(v as NodeId) != row {
            return Err(format!(
                "row {v}: {:?} vs {row:?}",
                g.neighbors(v as NodeId)
            ));
        }
    }
    if 2 * g.m() != want.neighbors.len() {
        return Err(format!("m {} vs {}", g.m(), want.neighbors.len() / 2));
    }
    Ok(())
}

/// The graph carries a weights lane, and its slot weights, strengths
/// and w_G have the oracle's bits (on the oracle's rows).
fn same_lane(g: &Graph, want: &OracleWeighted) -> Result<(), String> {
    if !g.is_weighted() {
        return Err("no weights lane".into());
    }
    for v in 0..want.csr.n() {
        let got: Vec<u64> = g
            .weighted_neighbors(v as NodeId)
            .map(|(_, w)| w.to_bits())
            .collect();
        let span = want.csr.offsets[v]..want.csr.offsets[v + 1];
        let expect: Vec<u64> = want.slot_weight[span].iter().map(|w| w.to_bits()).collect();
        if got != expect {
            return Err(format!("weights of row {v}: {got:?} vs {expect:?}"));
        }
        if g.strength(v as NodeId).to_bits() != want.strength[v].to_bits() {
            return Err(format!("strength of {v}"));
        }
    }
    if g.total_weight().to_bits() != want.total.to_bits() {
        return Err(format!("w_G {} vs {}", g.total_weight(), want.total));
    }
    Ok(())
}

fn same_error(got: &std::io::Error, want: &std::io::Error) -> Result<(), String> {
    if got.kind() != want.kind() || got.to_string() != want.to_string() {
        return Err(format!("error {got:?} vs {want:?}"));
    }
    Ok(())
}

fn check_unweighted(text: &[u8], reader: impl Read) -> Result<(), String> {
    match (read_edge_list(reader), oracle_read_edge_list(text)) {
        (Ok((g, original)), Ok((want, want_original))) => {
            if original != want_original {
                return Err(format!("original {original:?} vs {want_original:?}"));
            }
            same_rows(&g, &want, &original)
        }
        (Err(got), Err(want)) => same_error(&got, &want),
        (got, want) => Err(format!(
            "outcome {:?} vs {:?}",
            got.map(|(_, o)| o),
            want.map(|(_, o)| o)
        )),
    }
}

fn check_weighted(text: &[u8], reader: impl Read) -> Result<(), String> {
    match (
        read_weighted_edge_list(reader),
        oracle_read_weighted_edge_list(text),
    ) {
        (Ok((g, original)), Ok((want, want_original))) => {
            if original != want_original {
                return Err(format!("original {original:?} vs {want_original:?}"));
            }
            same_rows(&g, &want.csr, &original)?;
            same_lane(&g, &want)
        }
        (Err(got), Err(want)) => same_error(&got, &want),
        (got, want) => Err(format!(
            "outcome {:?} vs {:?}",
            got.map(|(_, o)| o),
            want.map(|(_, o)| o)
        )),
    }
}

/// A reader that hands out a few bytes per call and is sometimes
/// interrupted, so lines cross every kind of read boundary.
struct Trickle {
    bytes: Vec<u8>,
    at: usize,
    rng: StdRng,
    max_read: usize,
}

impl Trickle {
    fn new(bytes: &[u8], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_read = [1, 3, 17, 4096, 1 << 20][rng.gen_range(0..5usize)];
        Trickle {
            bytes: bytes.to_vec(),
            at: 0,
            rng,
            max_read,
        }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.rng.gen_bool(0.05) {
            return Err(ErrorKind::Interrupted.into());
        }
        let want = self.rng.gen_range(1..=self.max_read).min(buf.len());
        let got = want.min(self.bytes.len() - self.at);
        buf[..got].copy_from_slice(&self.bytes[self.at..self.at + got]);
        self.at += got;
        Ok(got)
    }
}

// ---------------------------------------------------------------------
// Text generation.
// ---------------------------------------------------------------------

/// Whitespace that separates tokens and is trimmed: ASCII (with
/// `\x0B`, which `u8::is_ascii_whitespace` leaves out) and not.
const BLANKS: [&str; 11] = [
    " ", "  ", "\t", "\x0B", "\x0C", "\r", " \t ", "\u{a0}", "\u{3000}", "\u{2003}", "\u{85}",
];

/// Tokens that are not ids (errors in the first two columns, ignored
/// after them): signs, decimals, letters, non-ASCII digits and
/// characters that look blank but are not whitespace.
const JUNK: [&str; 12] = [
    "a",
    "-1",
    "1.5",
    "+",
    "++1",
    "1a",
    "\u{663}",
    "\u{200b}1",
    "\u{feff}2",
    "\x1c",
    "x\u{e9}",
    "-",
];

fn blank(rng: &mut StdRng) -> &'static str {
    BLANKS[rng.gen_range(0..BLANKS.len())]
}

fn blanks(rng: &mut StdRng, max: usize) -> String {
    (0..rng.gen_range(0..=max)).map(|_| blank(rng)).collect()
}

/// A token that parses as an id: mostly small (so lines repeat, reverse
/// and loop), sometimes signed, zero-padded or near `u64::MAX`.
fn id_token(rng: &mut StdRng) -> String {
    let small = rng.gen_range(0..12u64);
    match rng.gen_range(0..20) {
        0 => format!("+{small}"),
        1 => format!("00{small}"),
        2 => u64::MAX.to_string(),
        3 => (u64::MAX - small).to_string(),
        4 => "9999999999999999999".to_string(),
        5 => "10000000000000000000".to_string(),
        6 => format!("+{}", u64::MAX),
        7 => rng.gen_range(0..1u64 << 40).to_string(),
        _ => small.to_string(),
    }
}

/// A token that fails to parse as an id.
fn bad_id_token(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => "18446744073709551616".to_string(),
        1 => "99999999999999999999".to_string(),
        2 => "123456789012345678901234567890".to_string(),
        _ => JUNK[rng.gen_range(0..JUNK.len())].to_string(),
    }
}

/// Comment text, sometimes non-ASCII.
fn comment(rng: &mut StdRng) -> String {
    let mark = if rng.gen_bool(0.5) { "#" } else { "%" };
    let body = match rng.gen_range(0..4) {
        0 => String::new(),
        1 => " snap header 1 2".to_string(),
        2 => "\u{e9}t\u{e9} \u{3000} 3 4".to_string(),
        _ => format!(" {} {}", id_token(rng), id_token(rng)),
    };
    format!("{}{mark}{body}", blanks(rng, 2))
}

/// Line content for the unweighted grammar. With `errors`, a few lines
/// fail: one token, a bad id, invalid UTF-8.
fn unweighted_line(rng: &mut StdRng, errors: bool) -> Vec<u8> {
    if errors && rng.gen_bool(0.04) {
        return match rng.gen_range(0..5) {
            0 => format!("{}{}{}", blanks(rng, 2), id_token(rng), blanks(rng, 2)).into_bytes(),
            1 => format!(
                "{}{}{} {}",
                bad_id_token(rng),
                blank(rng),
                id_token(rng),
                id_token(rng)
            )
            .into_bytes(),
            2 => format!("{}{}{}", id_token(rng), blank(rng), bad_id_token(rng)).into_bytes(),
            3 => {
                let mut line = comment(rng).into_bytes();
                line.insert(line.len() / 2 + 1, 0xFF);
                line
            }
            _ => {
                let mut line = format!("{} {}", id_token(rng), id_token(rng)).into_bytes();
                line.extend_from_slice(&[b' ', 0xC3]);
                line
            }
        };
    }
    match rng.gen_range(0..200) {
        0..=9 => blanks(rng, 3).into_bytes(),
        10..=29 => comment(rng).into_bytes(),
        30 => {
            // Longer than the readers' 64 KiB buffer.
            let filler = "x".repeat(70_000);
            if rng.gen_bool(0.5) {
                format!("#{filler}").into_bytes()
            } else {
                format!("{} {} {filler}", id_token(rng), id_token(rng)).into_bytes()
            }
        }
        _ => {
            let mut line = format!(
                "{}{}{}{}",
                blanks(rng, 2),
                id_token(rng),
                blank(rng),
                id_token(rng)
            );
            for _ in 0..rng.gen_range(0..3) {
                line.push_str(blank(rng));
                let extra = if rng.gen_bool(0.5) {
                    id_token(rng)
                } else {
                    bad_id_token(rng)
                };
                line.push_str(&extra);
            }
            line.push_str(&blanks(rng, 2));
            line.into_bytes()
        }
    }
}

/// Line content for the weighted grammar. With `errors`, a few lines
/// break a check and edges may repeat or loop; without, every edge line
/// is a new simple edge (`used` holds the ones written).
fn weighted_line(rng: &mut StdRng, errors: bool, used: &mut HashSet<(u64, u64)>) -> Vec<u8> {
    const WEIGHTS: [&str; 9] = ["1", "2.5", "0.125", "1e3", "+3", ".5", "5.", "1E-3", "7"];
    const BAD_WEIGHTS: [&str; 7] = ["0", "-1", "inf", "NaN", "abc", "1e400", "-0"];
    let small = |rng: &mut StdRng| rng.gen_range(0..10u64).to_string();
    if errors && rng.gen_bool(0.05) {
        return match rng.gen_range(0..7) {
            0 => format!("{} {}", small(rng), small(rng)).into_bytes(),
            1 => format!("{} {} 1 9", small(rng), small(rng)).into_bytes(),
            2 => format!("{} {} 1", bad_id_token(rng), small(rng)).into_bytes(),
            3 => format!(
                "{} {} {}",
                small(rng),
                small(rng),
                BAD_WEIGHTS[rng.gen_range(0..BAD_WEIGHTS.len())]
            )
            .into_bytes(),
            4 => {
                let x = small(rng);
                format!("{x} {x} 2").into_bytes()
            }
            5 => {
                let mut line = b"# \xE2\x82".to_vec();
                line.push(b'!');
                line
            }
            _ => small(rng).into_bytes(),
        };
    }
    let (u, v) = (rng.gen_range(0..30u64), rng.gen_range(0..30u64));
    if rng.gen_bool(1.0 / 6.0) || (!errors && (u == v || !used.insert((u.min(v), u.max(v))))) {
        return if rng.gen_bool(0.5) {
            blanks(rng, 3).into_bytes()
        } else {
            comment(rng).into_bytes()
        };
    }
    format!(
        "{}{u}{}{v}{}{}{}",
        blanks(rng, 2),
        blank(rng),
        blank(rng),
        WEIGHTS[rng.gen_range(0..WEIGHTS.len())],
        blanks(rng, 2)
    )
    .into_bytes()
}

/// Lines joined by `\n` or `\r\n`, the last one sometimes without an
/// end.
fn text_of(rng: &mut StdRng, lines: Vec<Vec<u8>>) -> Vec<u8> {
    let mut text = Vec::new();
    let count = lines.len();
    for (i, line) in lines.into_iter().enumerate() {
        text.extend_from_slice(&line);
        if i + 1 < count || rng.gen_bool(0.7) {
            text.extend_from_slice(if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" });
        }
    }
    text
}

fn unweighted_text(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let errors = rng.gen_bool(0.5);
    let lines = (0..rng.gen_range(0..60))
        .map(|_| unweighted_line(&mut rng, errors))
        .collect();
    text_of(&mut rng, lines)
}

fn weighted_text(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let errors = rng.gen_bool(0.5);
    let mut used = HashSet::new();
    let lines = (0..rng.gen_range(0..40))
        .map(|_| weighted_line(&mut rng, errors, &mut used))
        .collect();
    text_of(&mut rng, lines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn unweighted_reader_matches_the_line_reader(seed in 0u64..u64::MAX) {
        let text = unweighted_text(seed);
        let outcome = check_unweighted(&text, Trickle::new(&text, seed))
            .and_then(|()| check_unweighted(&text, &text[..]));
        prop_assert!(outcome.is_ok(), "{}: {:?}", outcome.unwrap_err(), String::from_utf8_lossy(&text));
    }

    #[test]
    fn weighted_reader_matches_the_line_reader(seed in 0u64..u64::MAX) {
        let text = weighted_text(seed);
        let outcome = check_weighted(&text, Trickle::new(&text, seed))
            .and_then(|()| check_weighted(&text, &text[..]));
        prop_assert!(outcome.is_ok(), "{}: {:?}", outcome.unwrap_err(), String::from_utf8_lossy(&text));
    }

    #[test]
    fn counting_sort_build_matches_the_sort_build(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let declared = rng.gen_range(0..40usize);
        let reach = declared + rng.gen_range(1..6usize);
        // Endpoints below 5 repeat most pairs three times and more, and
        // usually leave the declared n above the last endpoint.
        let ends = if rng.gen_bool(0.3) { reach.min(5) } else { reach } as NodeId;
        let count = if rng.gen_bool(0.1) { 0 } else { rng.gen_range(0..200) };
        let mut pairs: Vec<(NodeId, NodeId)> = (0..count)
            .map(|_| (rng.gen_range(0..ends), rng.gen_range(0..ends)))
            .collect();
        if rng.gen_bool(0.25) {
            // Already in (u, v) order: the build keeps the order it has.
            pairs = pairs.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
            pairs.sort_unstable();
        }
        let want = oracle_build(declared, &pairs);
        let g = match rng.gen_range(0..3) {
            0 => GraphBuilder::from_edges(declared, &pairs),
            1 => {
                let mut b = GraphBuilder::with_capacity(declared, pairs.len());
                b.extend_edges(pairs.iter().copied());
                b.build()
            }
            _ => {
                let mut b = GraphBuilder::new(declared);
                for &(u, v) in &pairs {
                    b.add_edge(u, v);
                }
                b.build()
            }
        };
        prop_assert_eq!(g.n(), want.n());
        prop_assert_eq!(2 * g.m(), want.neighbors.len());
        for v in 0..g.n() {
            prop_assert_eq!(g.csr_offset(v as NodeId), want.offsets[v]);
            prop_assert_eq!(g.neighbors(v as NodeId), want.row(v), "row {}", v);
        }
        prop_assert!(!g.is_weighted());

        // The weighted legs: the same pairs through a weighted builder,
        // most with a weight in [0.5, 4), the rest through `add_edge`
        // (weight 1.0). Copies of a pair sum in insertion order.
        let weights: Vec<Option<f64>> = pairs
            .iter()
            .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(0.5..4.0)))
            .collect();
        let triples: Vec<(NodeId, NodeId, f64)> = pairs
            .iter()
            .zip(&weights)
            .map(|(&(u, v), w)| (u, v, w.unwrap_or(1.0)))
            .collect();
        let want = oracle_weighted_build(declared, &triples);
        let mut b = GraphBuilder::weighted(declared);
        for (&(u, v), w) in pairs.iter().zip(&weights) {
            match *w {
                Some(w) => b.add_weighted_edge(u, v, w),
                None => b.add_edge(u, v),
            }
        }
        let g = b.build();
        prop_assert_eq!(g.n(), want.csr.n());
        prop_assert_eq!(2 * g.m(), want.csr.neighbors.len());
        for v in 0..g.n() {
            prop_assert_eq!(g.csr_offset(v as NodeId), want.csr.offsets[v]);
            prop_assert_eq!(g.neighbors(v as NodeId), want.csr.row(v), "row {}", v);
        }
        let lane = same_lane(&g, &want);
        prop_assert!(lane.is_ok(), "{}", lane.unwrap_err());
    }
}

#[test]
fn weighted_builds_match_the_btreemap_build_on_fixed_lists() {
    type Case<'a> = (usize, &'a [(NodeId, NodeId, f64)]);
    let cases: [Case; 6] = [
        // Empty: still a lane, on the declared nodes.
        (0, &[]),
        (4, &[]),
        // Three and four copies of one pair, in both orientations,
        // between other edges: (0.1 + 0.2) + 0.3 is not (0.3 + 0.2) + 0.1.
        (
            0,
            &[
                (1, 0, 0.1),
                (2, 3, 1.0),
                (0, 1, 0.2),
                (3, 2, 0.7),
                (1, 0, 0.3),
                (0, 1, 1e-17),
            ],
        ),
        (0, &[(0, 1, 0.3), (0, 1, 0.2), (0, 1, 0.1)]),
        // Self-loops are dropped and do not grow n.
        (2, &[(5, 5, 2.0), (0, 1, 1.5), (1, 1, 4.0)]),
        // A declared n above the last endpoint.
        (9, &[(3, 1, 2.5), (1, 2, 0.75)]),
    ];
    for (declared, edges) in cases {
        let want = oracle_weighted_build(declared, edges);
        let mut b = GraphBuilder::weighted(declared);
        for &(u, v, w) in edges {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build();
        assert_eq!(g.n(), want.csr.n(), "{edges:?}");
        for v in 0..g.n() {
            assert_eq!(g.neighbors(v as NodeId), want.csr.row(v), "{edges:?}");
        }
        same_lane(&g, &want).unwrap_or_else(|e| panic!("{edges:?}: {e}"));
    }
}

// ---------------------------------------------------------------------
// Fixed cases of the grammar.
// ---------------------------------------------------------------------

#[test]
fn fixed_texts_match_the_line_reader() {
    let texts: [&[u8]; 23] = [
        b"",
        b"\n\n",
        b"1 2",
        b"1\x0B2\n2\x0C3\r\n",
        "1\u{a0}2\n\u{3000}2 3\u{3000}\n".as_bytes(),
        b"+1 +2\n",
        b"18446744073709551615 0\n",
        b"18446744073709551616 0\n",
        b"1 99999999999999999999\n",
        b"0000000000000000000001 2\n",
        b"1 2 3 4 x\n",
        b"7\n",
        b"   \t\n1 a\n",
        b"# \xFF\n1 2\n",
        b"1 2\n\xC3\n1 x\n",
        b"1 x\n\xC3\n",
        b"%c\n#c\n  # c\n3 3\n",
        b"5 6\r\n6 5\r\n5 6",
        "1\u{85}2\n".as_bytes(),
        "1\u{200b}2 3\n".as_bytes(),
        b"\x1c1 2\n",
        b"\x1c 1 2\n",
        b"1 2\x1c 3\n",
    ];
    for text in texts {
        let outcome = check_unweighted(text, text);
        assert!(outcome.is_ok(), "{text:?}: {outcome:?}");
    }
}

#[test]
fn errors_keep_the_line_readers_texts() {
    let cases: [(&[u8], &str); 6] = [
        (b"1\n", "malformed edge line: \"1\""),
        (b"  7 \r\n", "malformed edge line: \"7\""),
        (b"a b\n", "invalid digit found in string"),
        (
            b"1 18446744073709551616\n",
            "number too large to fit in target type",
        ),
        (b"1 2\n# \xFF\n3 x\n", "stream did not contain valid UTF-8"),
        (b"1 x\n\xFF\n", "invalid digit found in string"),
    ];
    for (text, want) in cases {
        let err = read_edge_list(text).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{text:?}");
        assert_eq!(err.to_string(), want, "{text:?}");
    }
}

// ---------------------------------------------------------------------
// A perfbench-shaped file.
// ---------------------------------------------------------------------

/// Planted blocks of `block` nodes in groups of `group`: a random
/// recursive tree per block, then `1.5 n` draws inside a node's group
/// and `0.4 n` inside its block, duplicates and loops dropped. Every
/// block is one component.
fn planted(rng: &mut StdRng, blocks: usize, block: usize, group: usize) -> Vec<(u32, u32)> {
    let n = blocks * block;
    let mut seen = HashSet::new();
    let mut edges = Vec::new();
    let mut add = |u: usize, v: usize| {
        if u != v && seen.insert((u.min(v), u.max(v))) {
            edges.push((u as u32, v as u32));
        }
    };
    for b in 0..blocks {
        for i in 1..block {
            let j = rng.gen_range(0..i);
            add(b * block + i, b * block + j);
        }
    }
    for _ in 0..3 * n / 2 {
        let u = rng.gen_range(0..n);
        add(u, u / group * group + rng.gen_range(0..group));
    }
    for _ in 0..2 * n / 5 {
        let u = rng.gen_range(0..n);
        add(u, u / block * block + rng.gen_range(0..block));
    }
    edges
}

#[test]
fn a_perfbench_shaped_file_loads_to_its_first_appearance_graph() {
    let (blocks, block) = (250, 200);
    let n = blocks * block;
    let mut rng = StdRng::seed_from_u64(11);
    let mut edges = planted(&mut rng, blocks, block, 50);
    let mut file_id: Vec<u64> = (0..n as u64).collect();
    file_id.shuffle(&mut rng);
    edges.shuffle(&mut rng);

    let mut text = String::new();
    let mut original: Vec<u64> = Vec::new();
    let mut dense_of: HashMap<u64, NodeId> = HashMap::new();
    let mut pairs = Vec::with_capacity(edges.len());
    for &(a, b) in &edges {
        let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
        let (fa, fb) = (file_id[a as usize], file_id[b as usize]);
        text.push_str(&format!("{fa} {fb}\n"));
        let mut dense = |raw: u64| {
            *dense_of.entry(raw).or_insert_with(|| {
                original.push(raw);
                original.len() as NodeId - 1
            })
        };
        let (da, db) = (dense(fa), dense(fb));
        pairs.push((da.min(db), da.max(db)));
    }
    pairs.sort_unstable();
    assert!(text.len() >= 1 << 20, "{} bytes", text.len());
    assert_eq!(original.len(), n, "every node is on some edge");

    let path = std::env::temp_dir().join(format!("dmcs_planted_{}.txt", std::process::id()));
    std::fs::write(&path, &text).unwrap();
    let loaded = load_edge_list(&path);
    std::fs::remove_file(&path).unwrap();
    let (g, got_original) = loaded.unwrap();
    let want = GraphBuilder::from_edges(original.len(), &pairs);
    assert_eq!(got_original, original);
    assert_eq!((g.n(), g.m()), (want.n(), want.m()));
    for v in 0..g.n() as NodeId {
        assert_eq!(g.neighbors(v), want.neighbors(v), "row {v}");
    }

    let fpa = Fpa::default();
    for b in 0..blocks {
        let q = dense_of[&file_id[b * block + rng.gen_range(0..block)]];
        assert_eq!(fpa.search(&g, &[q]), fpa.search(&want, &[q]), "block {b}");
    }
}
