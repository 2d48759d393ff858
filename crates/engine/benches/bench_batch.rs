//! Batch-engine benchmarks backing the engine's two performance claims:
//!
//! 1. **Concurrency** — `batch_throughput` runs the same 64-query batch
//!    through `BatchRunner` at 1 and 4 worker threads over an SBM graph.
//!    On a ≥4-core machine the 4-thread batch should finish ≥2× faster
//!    per iteration (community searches are embarrassingly parallel and
//!    the graph is shared read-only).
//! 2. **Workspace reuse** — `workspace_reuse` compares per-query FPA and
//!    NCA latency with a fresh allocation per query (`search`) against a
//!    recycled per-worker `QueryWorkspace` (`search_with_workspace`):
//!    the reused path skips the `O(n)` alive-mask / degree / distance
//!    allocations every query.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dmcs_core::{CommunitySearch, Fpa, Nca};
use dmcs_engine::{AlgoSpec, BatchRunner, Engine, QueryRequest, QueryResponse, Session};
use dmcs_gen::sbm;
use dmcs_graph::layout::{ComputeGraph, NodeMap};
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{Graph, GraphStore, LayoutPolicy, NodeId, Snapshot};

/// Eight planted blocks of 100 nodes: big enough that per-query state
/// dominates, small enough that a full batch fits one bench iteration.
fn sbm_graph() -> (Graph, Vec<Vec<NodeId>>) {
    let blocks = [100usize; 8];
    let (g, comms) = sbm::planted_partition(&blocks, 0.12, 0.004, 42);
    // One single-node query per block member sample: 8 per block.
    let queries: Vec<Vec<NodeId>> = comms
        .iter()
        .flat_map(|c| c.iter().step_by(c.len() / 8).take(8).map(|&v| vec![v]))
        .collect();
    (g, queries)
}

fn bench_batch_throughput(c: &mut Criterion) {
    let (g, queries) = sbm_graph();
    let snap = Snapshot::freeze(g);
    let requests = QueryRequest::from_node_lists(&queries);
    let mut group = c.benchmark_group("batch_throughput_sbm800");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let runner = BatchRunner::new(AlgoSpec::new("fpa"), threads).unwrap();
        group.bench_function(format!("fpa_threads{threads}"), |b| {
            b.iter(|| black_box(runner.run(black_box(&snap), black_box(&requests)).unwrap()))
        });
    }
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    let (g, queries) = sbm_graph();
    let mut group = c.benchmark_group("workspace_reuse_sbm800");
    group.sample_size(10);

    let fpa = Fpa::default();
    let mut i = 0usize;
    group.bench_function("fpa_fresh_alloc_per_query", |b| {
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(fpa.search(&g, q).unwrap())
        })
    });
    let mut ws = QueryWorkspace::new();
    let mut j = 0usize;
    group.bench_function("fpa_reused_workspace", |b| {
        b.iter(|| {
            let q = &queries[j % queries.len()];
            j += 1;
            black_box(fpa.search_with_workspace(&g, q, &mut ws).unwrap())
        })
    });

    let nca = Nca::default();
    let mut i = 0usize;
    group.bench_function("nca_fresh_alloc_per_query", |b| {
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(nca.search(&g, q).unwrap())
        })
    });
    let mut ws = QueryWorkspace::new();
    let mut j = 0usize;
    group.bench_function("nca_reused_workspace", |b| {
        b.iter(|| {
            let q = &queries[j % queries.len()];
            j += 1;
            black_box(nca.search_with_workspace(&g, q, &mut ws).unwrap())
        })
    });
    group.finish();

    // Serving-shaped workload: a big fragmented graph (250 disconnected
    // blocks, 50k nodes) where each query touches one ~200-node
    // component. Per-query work is O(component), but the fresh-allocation
    // path pays four O(n) array constructions per query (alive mask,
    // local degrees, BFS distances, component scan); the workspace's
    // sparse resets drop all of them.
    let blocks = [200usize; 250];
    let (frag, comms) = sbm::planted_partition(&blocks, 0.06, 0.0, 7);
    let frag_queries: Vec<Vec<NodeId>> = comms.iter().map(|c| vec![c[0]]).collect();
    let mut group = c.benchmark_group("workspace_reuse_fragmented50k");
    group.sample_size(10);
    let mut i = 0usize;
    group.bench_function("fpa_fresh_alloc_per_query", |b| {
        b.iter(|| {
            let q = &frag_queries[i % frag_queries.len()];
            i += 1;
            black_box(fpa.search(&frag, q).unwrap())
        })
    });
    let mut ws = QueryWorkspace::new();
    let mut j = 0usize;
    group.bench_function("fpa_reused_workspace", |b| {
        b.iter(|| {
            let q = &frag_queries[j % frag_queries.len()];
            j += 1;
            black_box(fpa.search_with_workspace(&frag, q, &mut ws).unwrap())
        })
    });
    group.finish();
}

/// The serving-API claim behind `Engine::session`: a client issuing
/// repeated *single* queries through one long-lived [`Session`] beats
/// spinning a fresh one-query `Engine::run_batch` per request, because
/// the session keeps its `QueryWorkspace` (and resolved algorithm)
/// across queries while each fresh batch re-allocates both. Same
/// fragmented-50k graph as the workspace-reuse benchmark above.
fn bench_session_vs_fresh_batch(c: &mut Criterion) {
    let blocks = [200usize; 250];
    let (frag, comms) = sbm::planted_partition(&blocks, 0.06, 0.0, 7);
    let queries: Vec<Vec<NodeId>> = comms.iter().map(|c| vec![c[0]]).collect();
    // Cache capacity 0: this bench isolates workspace/session reuse,
    // not the result cache (bench_store covers cached repeats).
    let engine = Engine::with_cache_capacity(GraphStore::from_graph(frag), 0);
    let spec = AlgoSpec::new("fpa");

    let mut group = c.benchmark_group("session_reuse_fragmented50k");
    group.sample_size(10);

    let mut i = 0usize;
    group.bench_function("fresh_run_batch_per_query", |b| {
        b.iter(|| {
            let q = queries[i % queries.len()].clone();
            i += 1;
            let report = engine.run_batch(&spec, &[QueryRequest::new(q)], 1).unwrap();
            black_box(report.succeeded())
        })
    });

    let mut session: Session = engine.session(&spec).unwrap();
    let mut j = 0usize;
    group.bench_function("session_repeated_single_queries", |b| {
        b.iter(|| {
            let q = &queries[j % queries.len()];
            j += 1;
            black_box(session.search(q).unwrap())
        })
    });
    group.finish();
}

/// A deterministic random permutation (`order[internal] = external`,
/// a permutation `Graph::induced` renumbers by) via Fisher–Yates over a
/// splitmix-style generator — no external RNG crates.
fn scramble_order(n: usize, mut state: u64) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A scrambled fragmented workload (`n_blocks` components of 200 nodes)
/// shared by the locality and planning benchmarks below: the
/// planted-partition generator emits its blocks *contiguously* (already
/// the best possible layout), so the graph is first scrambled by a
/// random permutation — the realistic "ids arrived in load order" case —
/// and the layout pass has real work to undo. Returns the scrambled
/// graph plus each block's members in scrambled id space.
fn scrambled_fragmented(n_blocks: usize) -> (Graph, Vec<Vec<NodeId>>) {
    scrambled_blocks(n_blocks, 200, 0.04)
}

/// The same scrambled-fragmented construction with a chosen block size
/// and intra-block density (`scrambled_fragmented` is the 200-node
/// incarnation the locality/planning groups share).
fn scrambled_blocks(n_blocks: usize, per: usize, p_in: f64) -> (Graph, Vec<Vec<NodeId>>) {
    let blocks = vec![per; n_blocks];
    let (frag, comms) = sbm::planted_partition(&blocks, p_in, 0.0, 7);
    let order = scramble_order(frag.n(), 0xD1CE_5EED);
    let scrambled = frag.induced(&order);
    let mut inv = vec![0 as NodeId; frag.n()];
    for (i, &ext) in order.iter().enumerate() {
        inv[ext as usize] = i as NodeId;
    }
    let comms: Vec<Vec<NodeId>> = comms
        .iter()
        .map(|c| c.iter().map(|&v| inv[v as usize]).collect())
        .collect();
    (scrambled, comms)
}

/// The baseline a batch is measured against: one canonical session,
/// without the component memo and the mirror, answering `requests` in
/// submission order — an ungrouped, memo-free batch on one worker.
fn reference_answers(
    snap: &Snapshot,
    spec: &AlgoSpec,
    requests: &[QueryRequest],
) -> Vec<QueryResponse> {
    let mut session = Session::new(snap.clone(), spec)
        .unwrap()
        .without_mirror()
        .without_memo();
    requests.iter().map(|r| session.query(r).unwrap()).collect()
}

/// **Locality claim** — `layout_fpa_fragmented50k` runs the same
/// per-query FPA workload against each layout policy's compute mirror
/// of the scrambled graph (identity = the scrambled CSR itself).
/// BFS makes each ~200-node component contiguous again, so the
/// peeling loops and distance-array writes touch a compact id range
/// instead of 250 cache lines scattered over 50k slots.
fn bench_layout_locality(c: &mut Criterion) {
    let (scrambled, comms) = scrambled_fragmented(250);
    let queries: Vec<Vec<NodeId>> = comms.iter().map(|c| vec![c[0], c[c.len() / 2]]).collect();
    let fpa = Fpa::default();
    let mut group = c.benchmark_group("layout_fpa_fragmented50k");
    group.sample_size(30);
    for policy in LayoutPolicy::ALL {
        let (graph, map): (Graph, NodeMap) = match ComputeGraph::build(&scrambled, policy) {
            Some(mirror) => (mirror.graph().clone(), mirror.map().clone()),
            None => (scrambled.clone(), NodeMap::identity()),
        };
        let queries: Vec<Vec<NodeId>> = queries
            .iter()
            .map(|q| q.iter().map(|&v| map.to_internal(v)).collect())
            .collect();
        let mut ws = QueryWorkspace::new();
        let mut i = 0usize;
        group.bench_function(policy.as_str(), |b| {
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(fpa.search_with_workspace(&graph, q, &mut ws).unwrap())
            })
        });
    }
    group.finish();
}

/// **Scheduling claim** — `batch_sched_fragmented100k` runs a 4000-query
/// batch (8 queries per component, interleaved round-robin across the
/// 500 components — the worst case for any per-worker locality) through
/// the reference session (`plan_off`: ungrouped, no memo, canonical
/// substrate) and through `BatchRunner` (component-grouped group
/// stealing + per-worker component memo). Results are bit-identical
/// either way — the batch tests and tests/batch_plan.rs pin that — so
/// the delta is pure scheduling.
fn bench_batch_scheduling(c: &mut Criterion) {
    let (scrambled, comms) = scrambled_fragmented(500);
    // Multi-node queries throughout: that is the paper's multi-query
    // setting, and the case component scheduling targets — connectivity
    // validation for an unmemoized multi-node query costs a full-graph
    // BFS, which membership in the memoized component replaces.
    let mut queries: Vec<Vec<NodeId>> = Vec::new();
    for round in 0..8usize {
        for comm in &comms {
            let h = comm.len() / 2;
            queries.push(match round % 4 {
                0 => vec![comm[round], comm[h + round]],
                1 => vec![comm[round + 4], comm[h / 2 + round]],
                2 => vec![comm[round + 8], comm[h + round + 4], comm[h / 4 + round]],
                _ => vec![comm[round + 12], comm[h / 3 + round]],
            });
        }
    }
    // `plan_auto_bfs` stacks both tentpole levers: the batch served
    // from a physically BFS-renumbered store (what a fresh load under
    // `--layout bfs` order would look like) *and* component-grouped
    // scheduling — against the scrambled, ungrouped, memo-free
    // baseline. `plan_auto` on the scrambled store isolates the pure
    // scheduling win.
    let bfs = ComputeGraph::build(&scrambled, LayoutPolicy::Bfs).expect("bfs builds a mirror");
    let bfs_queries: Vec<Vec<NodeId>> = queries
        .iter()
        .map(|q| q.iter().map(|&v| bfs.map().to_internal(v)).collect())
        .collect();
    let scrambled_snap = Snapshot::freeze(scrambled);
    let requests = QueryRequest::from_node_lists(&queries);
    let spec = AlgoSpec::new("fpa");
    let mut group = c.benchmark_group("batch_sched_fragmented100k");
    group.sample_size(20);
    group.bench_function("plan_off", |b| {
        b.iter(|| {
            black_box(reference_answers(
                black_box(&scrambled_snap),
                &spec,
                black_box(&requests),
            ))
        })
    });
    // One worker: the benefit measured here is the component-consecutive
    // execution order and the memo it feeds (on multicore, grouping
    // additionally parallelises across groups — group stealing — but a
    // thread count above the machine's core count only adds scheduler
    // noise to both sides of the comparison).
    let cases = [
        ("plan_auto", scrambled_snap, requests),
        (
            "plan_auto_bfs",
            Snapshot::freeze(bfs.graph().clone()),
            QueryRequest::from_node_lists(&bfs_queries),
        ),
    ];
    let runner = BatchRunner::new(spec, 1).unwrap();
    for (label, snap, requests) in &cases {
        group.bench_function(*label, |b| {
            b.iter(|| black_box(runner.run(black_box(snap), black_box(requests)).unwrap()))
        });
    }
    group.finish();
}

/// **Memo claim** — `session_memo_fragmented50k` isolates the session
/// fix: consecutive same-component queries on one session used to
/// re-derive the component per query (an `O(n)` validation BFS plus a
/// collect-and-sort); the armed workspace memo now proves connectivity
/// by membership and reuses the component slice.
fn bench_session_memo(c: &mut Criterion) {
    let (scrambled, comms) = scrambled_fragmented(250);
    // Consecutive same-component queries, the serving pattern the memo
    // targets (a client exploring one region before moving on).
    let queries: Vec<Vec<NodeId>> = comms
        .iter()
        .flat_map(|c| {
            [
                vec![c[0]],
                vec![c[0], c[c.len() / 2]],
                vec![c[1]],
                vec![c[2], c[c.len() / 4]],
            ]
        })
        .collect();
    let spec = AlgoSpec::new("fpa");
    let snap = Snapshot::freeze(scrambled);
    let mut group = c.benchmark_group("session_memo_fragmented50k");
    group.sample_size(30);

    let mut off = Session::new(snap.clone(), &spec).unwrap().without_memo();
    let mut i = 0usize;
    group.bench_function("memo_off", |b| {
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(off.search(q).unwrap())
        })
    });

    let mut on = Session::new(snap, &spec).unwrap();
    let mut j = 0usize;
    group.bench_function("memo_on", |b| {
        b.iter(|| {
            let q = &queries[j % queries.len()];
            j += 1;
            black_box(on.search(q).unwrap())
        })
    });
    group.finish();
    // Regression guard: the memoized session must actually have reused
    // components (3 of every 4 consecutive queries share one).
    assert!(off.memo_hits() == 0, "disarmed session must never hit");
    assert!(
        on.memo_hits() > 0,
        "memoized session answered consecutive same-component queries \
         without a single memo hit — the session memo regressed"
    );
}

/// **Mirror-serving claim** — `mirror_fpa_fragmented50k` runs the same
/// single-node FPA workload through [`Session::search`] with mirror
/// serving on (per layout policy) and off (`canonical`, the scrambled
/// CSR). The responses are byte-identical — the session tests and
/// `layout_invariance` pin that — so the delta is pure substrate: the
/// mirror packs each ~200-node component into a contiguous id range,
/// and the canonical tie-break shim's id translation is the only tax.
/// Queries sweep the components in two passes (never two consecutive
/// queries in one component), so every call is a component-memo miss —
/// the cold-component serving shape the mirror exists for; the memo's
/// own win is priced separately by `session_memo_fragmented50k`.
fn bench_mirror_serving(c: &mut Criterion) {
    let (scrambled, comms) = scrambled_fragmented(250);
    let queries: Vec<Vec<NodeId>> = comms
        .iter()
        .map(|c| vec![c[0]])
        .chain(comms.iter().map(|c| vec![c[c.len() / 2]]))
        .collect();
    let spec = AlgoSpec::new("fpa");
    let mut group = c.benchmark_group("mirror_fpa_fragmented50k");
    group.sample_size(30);
    // Single-core box with noisy neighbours: a longer window keeps the
    // substrate ratio from wobbling run to run.
    group.measurement_time(std::time::Duration::from_secs(10));

    let canonical_snap = Snapshot::freeze(scrambled.clone());
    let mut canonical = Session::new(canonical_snap, &spec)
        .unwrap()
        .without_mirror();
    let mut i = 0usize;
    group.bench_function("canonical", |b| {
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(canonical.search(q).unwrap())
        })
    });

    for policy in LayoutPolicy::ALL {
        let store = GraphStore::from_graph(scrambled.clone()).with_layout(policy);
        let mut session = Session::new(store.snapshot(), &spec).unwrap();
        let mut j = 0usize;
        group.bench_function(format!("mirror_{}", policy.as_str()), |b| {
            b.iter(|| {
                let q = &queries[j % queries.len()];
                j += 1;
                black_box(session.search(q).unwrap())
            })
        });
        // Regression guard: the non-identity sessions must actually have
        // served from the mirror, not silently fallen back.
        assert_eq!(
            session.mirror_served() > 0,
            policy != LayoutPolicy::Identity,
            "mirror serving active exactly for non-identity policies"
        );
    }
    group.finish();
}

/// **Bitset-frontier claim** — `validate_bfs_fragmented50k` compares the
/// validation BFS the engine used to run (a fresh `vec![false; n]`
/// bytemask per call) against the pooled `u64` bitset frontier
/// ([`same_component_with_workspace`]): 8× less frontier memory touched
/// per visit plus zero allocations once the workspace is warm.
fn bench_validation_bfs(c: &mut Criterion) {
    use dmcs_graph::traversal::same_component_with_workspace;
    let (scrambled, comms) = scrambled_fragmented(250);
    // Two-node in-component queries: the BFS must actually run (single
    // nodes short-circuit) and walk a whole ~200-node component.
    let queries: Vec<Vec<NodeId>> = comms.iter().map(|c| vec![c[0], c[c.len() - 1]]).collect();
    let mut group = c.benchmark_group("validate_bfs_fragmented50k");
    group.sample_size(30);

    let mut i = 0usize;
    group.bench_function("bytemask_fresh", |b| {
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            // The pre-bitset shape: allocate a bytemask and a queue per
            // call, scan the mask as `bool`s.
            let mut visited = vec![false; scrambled.n()];
            let mut queue: Vec<NodeId> = Vec::new();
            visited[q[0] as usize] = true;
            queue.push(q[0]);
            let mut head = 0usize;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &w in scrambled.neighbors(u) {
                    if !visited[w as usize] {
                        visited[w as usize] = true;
                        queue.push(w);
                    }
                }
            }
            black_box(q[1..].iter().all(|&v| visited[v as usize]))
        })
    });

    let mut ws = QueryWorkspace::new();
    let mut j = 0usize;
    group.bench_function("bitset_pooled", |b| {
        b.iter(|| {
            let q = &queries[j % queries.len()];
            j += 1;
            black_box(same_component_with_workspace(&scrambled, q, &mut ws))
        })
    });
    group.finish();
}

/// **Skew-aware planning claim** — `plan_skew_giant50k` runs a batch
/// over one 40k-node giant component plus 50 two-hundred-node
/// villages: fragmented by *count* (51 components), but 80% of the mass
/// is the giant, and so is virtually all of the traffic. A count-only
/// planner would turn grouping on — a no-op here (the giant's queries
/// form one group in submission order) that on multi-worker runs would
/// pin the giant's entire query stream to a single worker. The
/// skew-aware planner sees `skew > 0.75`, skips grouping and keeps only
/// the memo — it must never lose to the reference session (`plan_off`:
/// ungrouped, no memo).
fn bench_plan_skew(c: &mut Criterion) {
    let giant = 40_000usize;
    let villages = 50usize;
    let per = 200usize;
    let mut b = dmcs_graph::GraphBuilder::new(giant + villages * per);
    for v in 0..giant as NodeId {
        b.add_edge(v, (v + 1) % giant as NodeId); // ring: connected
        if v % 13 == 0 {
            b.add_edge(v, (v + giant as NodeId / 7) % giant as NodeId);
        }
    }
    for blk in 0..villages {
        let base = (giant + blk * per) as NodeId;
        for i in 0..per as NodeId {
            b.add_edge(base + i, base + (i + 1) % per as NodeId);
            if i % 7 == 0 {
                b.add_edge(base + i, base + (i + per as NodeId / 3) % per as NodeId);
            }
        }
    }
    let snap = Snapshot::freeze(b.build());
    assert!(snap.component_index().count() > 1, "fragmented by count");
    let skew = snap.component_index().largest() as f64 / snap.graph().n() as f64;
    assert!(
        skew > 0.75 && skew < 0.9,
        "giant plus villages: skew {skew}"
    );

    // Giant-dominated traffic with an occasional village single — the
    // skewed serving shape: each giant two-node query validates and
    // peels the full 40k component (memoized consecutively under auto),
    // and the rare village query is what evicts a naive memo.
    let mut queries: Vec<Vec<NodeId>> = Vec::new();
    for i in 0..150usize {
        let a = ((i * 2_347) % (giant - 40)) as NodeId;
        queries.push(vec![a, a + 23]);
        if i % 37 == 0 {
            let blk = (i / 37) % villages;
            queries.push(vec![(giant + blk * per) as NodeId]);
        }
    }
    let requests = QueryRequest::from_node_lists(&queries);
    let spec = AlgoSpec::new("fpa");

    let auto = BatchRunner::new(spec.clone(), 1).unwrap();
    let auto_plan = auto.run(&snap, &requests).unwrap().plan;
    assert_eq!(auto_plan, "auto:memo", "skew must veto grouping");

    let mut group = c.benchmark_group("plan_skew_giant50k");
    group.sample_size(10);
    // One worker: the CI containers are single-core, so the comparison
    // isolates what the memo recovers per query. The multi-worker
    // serialization cost of grouping a giant is structural (workers
    // steal whole groups; see `BatchRunner::run`) and is not priced
    // here.
    group.bench_function("plan_off", |b| {
        b.iter(|| {
            black_box(reference_answers(
                black_box(&snap),
                &spec,
                black_box(&requests),
            ))
        })
    });
    group.bench_function("plan_auto", |b| {
        b.iter(|| black_box(auto.run(black_box(&snap), black_box(&requests)).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_throughput,
    bench_workspace_reuse,
    bench_session_vs_fresh_batch,
    bench_layout_locality,
    bench_batch_scheduling,
    bench_session_memo,
    bench_mirror_serving,
    bench_validation_bfs,
    bench_plan_skew
);
criterion_main!(benches);
