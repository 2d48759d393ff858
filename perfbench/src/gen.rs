//! Seeded inputs: edge lists and op streams.
//!
//! Nothing here calls the program under test, so a seed yields the same
//! bytes on every commit. Graphs are planted partitions (dense blocks,
//! optionally split into groups, optionally joined into one component),
//! written with randomly permuted node ids and shuffled edge lines, so
//! the daemon's first-appearance id assignment scatters every block
//! across the id space the way real load-order ids do.

use std::collections::HashSet;

/// Capacity of the daemon's response cache (`DEFAULT_CACHE_CAPACITY`);
/// the workloads are sized against it.
pub const CACHE_CAPACITY: usize = 1024;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeHot,
    ServeChurn,
    BatchOffline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::ServeChurn,
        Workload::BatchOffline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
            Workload::ServeChurn => "serve_churn",
            Workload::BatchOffline => "batch_offline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Daemon flags beyond `--graph`/`--unix`.
    pub fn serve_flags(self) -> &'static [&'static str] {
        match self {
            Workload::ServeCold | Workload::ServeChurn => &["--layout", "bfs"],
            Workload::ServeHot | Workload::BatchOffline => &[],
        }
    }

    /// Ops per second per connection (per batch process for
    /// `batch_offline`) that the workload reaches on a 2-core host;
    /// a run sends `seconds × rate` of them.
    pub fn rates(self) -> &'static [f64] {
        match self {
            Workload::ServeCold => &[125.0, 125.0],
            Workload::ServeHot => &[20_000.0, 20_000.0],
            // The writer, then the reader.
            Workload::ServeChurn => &[280.0, 12_000.0],
            Workload::BatchOffline => &[1.0],
        }
    }

    /// Whether the snapshot carries a BFS compute mirror.
    pub fn bfs_layout(self) -> bool {
        self.serve_flags().contains(&"bfs")
    }
}

/// SplitMix64: tiny, seedable and stable across toolchains.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..k` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=k)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One request of a connection's op stream. Queries index the
/// workload's query table; updates index its edge table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Query(u32),
    Del(u32),
    Add(u32),
    Repin,
}

/// Measured shape of generated inputs (checked against [`ShapeRange`]).
#[derive(Clone, Debug)]
pub struct Shape {
    pub n: usize,
    pub m: usize,
    pub components: usize,
    pub largest_share: f64,
    pub distinct_queries: usize,
    pub single_frac: f64,
}

/// Allowed shape per workload: what every seed must produce.
#[derive(Clone, Copy, Debug)]
pub struct ShapeRange {
    pub n: (usize, usize),
    pub m: (usize, usize),
    pub components: (usize, usize),
    pub largest_share: (f64, f64),
    pub distinct_queries: (usize, usize),
    pub single_frac: (f64, f64),
}

impl Shape {
    pub fn violations(&self, r: &ShapeRange) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, v: f64, lo: f64, hi: f64| {
            if !(lo..=hi).contains(&v) {
                out.push(format!("{name} {v} outside [{lo}, {hi}]"));
            }
        };
        check("n", self.n as f64, r.n.0 as f64, r.n.1 as f64);
        check("m", self.m as f64, r.m.0 as f64, r.m.1 as f64);
        check(
            "components",
            self.components as f64,
            r.components.0 as f64,
            r.components.1 as f64,
        );
        check(
            "largest_share",
            self.largest_share,
            r.largest_share.0,
            r.largest_share.1,
        );
        check(
            "distinct_queries",
            self.distinct_queries as f64,
            r.distinct_queries.0 as f64,
            r.distinct_queries.1 as f64,
        );
        check(
            "single_frac",
            self.single_frac,
            r.single_frac.0,
            r.single_frac.1,
        );
        out
    }
}

/// Everything a run feeds the program, plus what the checker needs.
pub struct Inputs {
    pub workload: Workload,
    /// The edge-list file, byte for byte (`u v` per line, file ids).
    pub edge_text: String,
    /// Dense id -> file id, in first-appearance order (how the program's
    /// reader numbers nodes).
    pub original: Vec<u64>,
    /// The graph in dense ids: `(min, max)` pairs, sorted.
    pub dense_edges: Vec<(u32, u32)>,
    /// Query table, file ids in request order.
    pub queries: Vec<Vec<u64>>,
    /// Edge table for updates, file ids as written in the edge list.
    pub edge_pool: Vec<(u64, u64)>,
    /// Per-connection op streams (daemon workloads). Long enough that a
    /// run ends on its clock, not on the stream.
    pub clients: Vec<Vec<Op>>,
    /// `batch_offline`: query-table indices in file order.
    pub batch: Vec<u32>,
    pub shape: Shape,
}

struct Planted {
    blocks: usize,
    block_size: usize,
    groups: usize,
    d_group: f64,
    d_block: f64,
    d_global: f64,
    /// Join consecutive blocks into one connected component.
    chain: bool,
}

fn planted(rng: &mut Rng, p: &Planted) -> (usize, Vec<(u32, u32)>) {
    let n = p.blocks * p.block_size;
    let gsize = p.block_size / p.groups;
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut edges = Vec::new();
    let mut add = |u: usize, v: usize, edges: &mut Vec<(u32, u32)>| {
        if u != v {
            let e = (u.min(v) as u32, u.max(v) as u32);
            if seen.insert(e) {
                edges.push(e);
            }
        }
    };
    // A random recursive tree per block keeps every block connected and
    // every node present in the edge list.
    for b in 0..p.blocks {
        let base = b * p.block_size;
        for i in 1..p.block_size {
            let j = rng.below(i);
            add(base + i, base + j, &mut edges);
        }
        if p.chain && b > 0 {
            let prev = (b - 1) * p.block_size + rng.below(p.block_size);
            add(base, prev, &mut edges);
        }
    }
    let draws = |d: f64| (n as f64 * d / 2.0).round() as usize;
    for _ in 0..draws(p.d_group) {
        let u = rng.below(n);
        let v = u / gsize * gsize + rng.below(gsize);
        add(u, v, &mut edges);
    }
    for _ in 0..draws(p.d_block) {
        let u = rng.below(n);
        let v = u / p.block_size * p.block_size + rng.below(p.block_size);
        add(u, v, &mut edges);
    }
    for _ in 0..draws(p.d_global) {
        let (u, v) = (rng.below(n), rng.below(n));
        add(u, v, &mut edges);
    }
    (n, edges)
}

fn components(n: usize, edges: &[(u32, u32)]) -> (usize, usize) {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            p[x as usize] = p[p[x as usize] as usize];
            x = p[x as usize];
        }
        x
    }
    for &(u, v) in edges {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        if a != b {
            parent[a as usize] = b;
        }
    }
    let mut size = vec![0usize; n];
    for x in 0..n as u32 {
        let r = find(&mut parent, x);
        size[r as usize] += 1;
    }
    let count = size.iter().filter(|&&s| s > 0).count();
    (count, size.into_iter().max().unwrap_or(0))
}

/// Query generator over planted blocks: `single` of the draws are one
/// node, the rest two distinct nodes of one block. `distinct` draws
/// never repeat a query.
struct QueryGen<'a> {
    ids: &'a [u64],
    n: usize,
    block_size: usize,
    seen: HashSet<Vec<u64>>,
}

impl QueryGen<'_> {
    fn draw(&mut self, rng: &mut Rng, single: f64, nodes_in_multi: usize) -> Vec<u64> {
        loop {
            let q: Vec<u64> = if rng.unit() < single {
                vec![self.ids[rng.below(self.n)]]
            } else {
                let base = rng.below(self.n / self.block_size) * self.block_size;
                let mut picked: Vec<usize> = Vec::new();
                while picked.len() < nodes_in_multi {
                    let v = base + rng.below(self.block_size);
                    if !picked.contains(&v) {
                        picked.push(v);
                    }
                }
                picked.iter().map(|&v| self.ids[v]).collect()
            };
            let mut key = q.clone();
            key.sort_unstable();
            if self.seen.insert(key) {
                return q;
            }
        }
    }
}

/// Per-workload generation parameters.
const COLD_STREAM: usize = 5_000;
const HOT_STREAM: usize = 600_000;
const HOT_DISTINCT: usize = 300;
/// Large enough that the misses after each reader repin (up to a
/// quarter of its queries) put the p90 well inside the miss latencies
/// rather than on the edge between hits and misses.
const CHURN_HOT_SET: usize = 64;
const CHURN_CYCLES: usize = 4_000;
const CHURN_READER_QUERIES_PER_REPIN: usize = 256;
const CHURN_READER_STREAM: usize = 400_000;
const BATCH_QUERIES: usize = 4_000;
const ZIPF_S: f64 = 1.1;

/// The shape every seed of `w` must produce.
pub fn shape_range(w: Workload) -> ShapeRange {
    match w {
        Workload::ServeCold => ShapeRange {
            n: (20_000, 20_000),
            m: (125_000, 155_000),
            components: (1, 1),
            largest_share: (1.0, 1.0),
            distinct_queries: (CACHE_CAPACITY + 1, usize::MAX),
            single_frac: (0.75, 0.85),
        },
        Workload::ServeHot => ShapeRange {
            n: (50_000, 50_000),
            m: (130_000, 160_000),
            components: (250, 250),
            largest_share: (0.004, 0.004),
            distinct_queries: (100, 500),
            single_frac: (0.70, 0.90),
        },
        Workload::ServeChurn => ShapeRange {
            n: (50_000, 50_000),
            m: (130_000, 160_000),
            components: (250, 250),
            largest_share: (0.004, 0.004),
            distinct_queries: (16, 64),
            single_frac: (0.50, 1.0),
        },
        Workload::BatchOffline => ShapeRange {
            n: (100_000, 100_000),
            m: (260_000, 320_000),
            components: (500, 500),
            largest_share: (0.002, 0.002),
            distinct_queries: (3_500, 3_700),
            single_frac: (0.0, 0.0),
        },
    }
}

/// Stream seed for `(workload, seed)`: distinct workloads never share a
/// stream.
fn stream_seed(w: Workload, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in w.name().bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub fn generate(w: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(stream_seed(w, seed));
    let params = match w {
        Workload::ServeCold => Planted {
            blocks: 40,
            block_size: 500,
            groups: 1,
            d_group: 10.0,
            d_block: 0.0,
            d_global: 2.0,
            chain: true,
        },
        Workload::ServeHot | Workload::ServeChurn => Planted {
            blocks: 250,
            block_size: 200,
            groups: 4,
            d_group: 3.0,
            d_block: 0.8,
            d_global: 0.0,
            chain: false,
        },
        Workload::BatchOffline => Planted {
            blocks: 500,
            block_size: 200,
            groups: 4,
            d_group: 3.0,
            d_block: 0.8,
            d_global: 0.0,
            chain: false,
        },
    };
    let (n, mut gen_edges) = planted(&mut rng, &params);

    // File ids: a random permutation; edge lines shuffled and randomly
    // oriented.
    let mut ids: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut ids);
    rng.shuffle(&mut gen_edges);
    let mut edge_text = String::with_capacity(gen_edges.len() * 14);
    let mut edge_pool = Vec::with_capacity(gen_edges.len());
    let mut dense_of: Vec<u32> = vec![u32::MAX; n];
    let mut original = Vec::with_capacity(n);
    let mut dense_edges = Vec::with_capacity(gen_edges.len());
    for &(a, b) in &gen_edges {
        let (a, b) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
        let (fa, fb) = (ids[a as usize], ids[b as usize]);
        edge_text.push_str(&format!("{fa} {fb}\n"));
        edge_pool.push((fa, fb));
        let mut dense = |g: u32| -> u32 {
            if dense_of[g as usize] == u32::MAX {
                dense_of[g as usize] = original.len() as u32;
                original.push(ids[g as usize]);
            }
            dense_of[g as usize]
        };
        let (da, db) = (dense(a), dense(b));
        dense_edges.push((da.min(db), da.max(db)));
    }
    dense_edges.sort_unstable();
    let (comp_count, largest) = components(n, &dense_edges);

    let mut qgen = QueryGen {
        ids: &ids,
        n,
        block_size: params.block_size,
        seen: HashSet::new(),
    };
    let mut queries: Vec<Vec<u64>> = Vec::new();
    let mut clients: Vec<Vec<Op>> = Vec::new();
    let mut batch: Vec<u32> = Vec::new();
    match w {
        Workload::ServeCold => {
            // Every query distinct across both clients: all misses.
            for _ in 0..2 {
                let mut ops = Vec::with_capacity(COLD_STREAM);
                for _ in 0..COLD_STREAM {
                    queries.push(qgen.draw(&mut rng, 0.8, 2));
                    ops.push(Op::Query(queries.len() as u32 - 1));
                }
                clients.push(ops);
            }
        }
        Workload::ServeHot => {
            for _ in 0..HOT_DISTINCT {
                queries.push(qgen.draw(&mut rng, 0.8, 2));
            }
            let zipf = Zipf::new(HOT_DISTINCT, ZIPF_S);
            for _ in 0..2 {
                clients.push(
                    (0..HOT_STREAM)
                        .map(|_| Op::Query(zipf.sample(&mut rng) as u32))
                        .collect(),
                );
            }
        }
        Workload::ServeChurn => {
            for _ in 0..CHURN_HOT_SET {
                queries.push(qgen.draw(&mut rng, 0.8, 2));
            }
            // Writer: del/add pairs on existing edges (each pair restores
            // the edge, so every del names an edge that exists), then a
            // repin every two pairs.
            let mut writer = Vec::with_capacity(CHURN_CYCLES * 5);
            for _ in 0..CHURN_CYCLES {
                for _ in 0..2 {
                    let e = rng.below(edge_pool.len()) as u32;
                    writer.extend([Op::Del(e), Op::Add(e)]);
                }
                writer.push(Op::Repin);
            }
            let zipf = Zipf::new(CHURN_HOT_SET, ZIPF_S);
            let mut reader = Vec::with_capacity(CHURN_READER_STREAM);
            while reader.len() < CHURN_READER_STREAM {
                for _ in 0..CHURN_READER_QUERIES_PER_REPIN {
                    reader.push(Op::Query(zipf.sample(&mut rng) as u32));
                }
                reader.push(Op::Repin);
            }
            clients.push(writer);
            clients.push(reader);
        }
        Workload::BatchOffline => {
            // Multi-node queries visiting components round-robin (in a
            // shuffled component order), ~10% repeats of earlier lines.
            let blocks = params.blocks;
            let mut order: Vec<usize> = (0..blocks).collect();
            rng.shuffle(&mut order);
            for i in 0..BATCH_QUERIES {
                if i > 0 && rng.unit() < 0.1 {
                    batch.push(batch[rng.below(batch.len())]);
                    continue;
                }
                let base = order[i % blocks] * params.block_size;
                let k = 2 + rng.below(2);
                loop {
                    let mut picked: Vec<usize> = Vec::new();
                    while picked.len() < k {
                        let v = base + rng.below(params.block_size);
                        if !picked.contains(&v) {
                            picked.push(v);
                        }
                    }
                    let q: Vec<u64> = picked.iter().map(|&v| ids[v]).collect();
                    let mut key = q.clone();
                    key.sort_unstable();
                    if qgen.seen.insert(key) {
                        queries.push(q);
                        break;
                    }
                }
                batch.push(queries.len() as u32 - 1);
            }
        }
    }

    let single = queries.iter().filter(|q| q.len() == 1).count();
    let shape = Shape {
        n: original.len(),
        m: dense_edges.len(),
        components: comp_count,
        largest_share: (largest as f64 / n as f64 * 1e6).round() / 1e6,
        distinct_queries: queries.len(),
        single_frac: single as f64 / queries.len().max(1) as f64,
    };
    Inputs {
        workload: w,
        edge_text,
        original,
        dense_edges,
        queries,
        edge_pool,
        clients,
        batch,
        shape,
    }
}

impl Inputs {
    /// The wire line for `op` (no trailing newline).
    pub fn line(&self, op: Op) -> String {
        match op {
            Op::Query(q) => {
                let ids: Vec<String> = self.queries[q as usize]
                    .iter()
                    .map(u64::to_string)
                    .collect();
                format!("{{\"op\":\"query\",\"nodes\":[{}]}}", ids.join(","))
            }
            Op::Del(e) | Op::Add(e) => {
                let (u, v) = self.edge_pool[e as usize];
                let action = if matches!(op, Op::Del(_)) {
                    "del"
                } else {
                    "add"
                };
                format!("{{\"op\":\"update\",\"action\":\"{action}\",\"u\":{u},\"v\":{v}}}")
            }
            Op::Repin => "{\"op\":\"repin\"}".to_string(),
        }
    }

    /// The `--queries` file of `batch_offline`.
    pub fn batch_text(&self) -> String {
        let mut out = String::new();
        for &q in &self.batch {
            let ids: Vec<String> = self.queries[q as usize]
                .iter()
                .map(u64::to_string)
                .collect();
            out.push_str(&ids.join(","));
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of every byte the program is fed: the edge list,
    /// the batch file and the first `ops` ops of every stream.
    pub fn digest(&self, ops: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.edge_text.as_bytes());
        eat(self.batch_text().as_bytes());
        for stream in &self.clients {
            for &op in stream.iter().take(ops) {
                eat(self.line(op).as_bytes());
                eat(b"\n");
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_shapes_hold() {
        for w in Workload::ALL {
            let a = generate(w, 7);
            let b = generate(w, 7);
            assert_eq!(a.digest(2_000), b.digest(2_000), "{}", w.name());
            for seed in [1, 2] {
                let s = generate(w, seed).shape;
                let bad = s.violations(&shape_range(w));
                assert!(bad.is_empty(), "{} seed {seed}: {bad:?}", w.name());
            }
        }
        assert_ne!(
            generate(Workload::ServeHot, 1).digest(100),
            generate(Workload::ServeHot, 2).digest(100)
        );
    }
}
