//! Concurrent batch execution: fan a slice of [`QueryRequest`]s out
//! across scoped worker threads over one pinned graph snapshot, with
//! deterministic result ordering and a throughput summary.
//!
//! Each worker is a thin wrapper over a per-thread
//! [`Session`], so the `O(n)` per-query allocations
//! (alive masks, degree and distance arrays) are paid once per worker,
//! not once per query. Every worker, the only one of a one-thread batch
//! included, runs the same loop on a scoped thread: it pulls work from a
//! shared atomic counter (work stealing by construction — a slow query
//! never stalls the others). Responses are re-ordered by index before
//! returning, so the output of [`BatchRunner::run`] is bit-identical to
//! sequential execution regardless of the thread count — a property the
//! engine's property tests pin down for every registered algorithm.
//!
//! Three serving optimisations happen transparently:
//!
//! - **In-batch dedup** — requests with the same node list are answered
//!   once and the answer is fanned back out to every duplicate in
//!   submission order (tags stay per-request).
//!   [`BatchReport::unique_queries`] reports how much work the dedup
//!   saved.
//! - **Cross-batch caching** — when a shared
//!   [`ResponseCache`] is attached (as
//!   [`Engine::run_batch`](crate::Engine::run_batch) does), workers
//!   consult it per executed query; [`BatchReport::cache_hits`] /
//!   [`cache_misses`](BatchReport::cache_misses) surface the outcome.
//! - **Component-aware scheduling** — when [`QueryPlan::choose`] finds
//!   the snapshot fragmented, work items are
//!   grouped by the connected component of their first query node
//!   (from the snapshot's cached [`ComponentIndex`](
//!   dmcs_graph::ComponentIndex)) and workers steal *groups* instead
//!   of single queries. Consecutive queries on a worker then share a
//!   component, so the worker session's memoized component BFS is
//!   reused ([`BatchReport::shared_bfs_reuses`]) and the peeling loops
//!   walk cache-warm CSR rows. Grouping only permutes execution order;
//!   responses are still re-ordered to submission order, so output
//!   stays bit-identical to the ungrouped path.
//!
//! All queries run against the **pinned** [`Snapshot`]: updates landing
//! in the owning [`GraphStore`](dmcs_graph::GraphStore) mid-batch do not
//! tear the batch.

use crate::cache::ResponseCache;
use crate::error::EngineError;
use crate::plan::{PlanMode, QueryPlan};
use crate::registry::AlgoSpec;
use crate::request::{QueryRequest, QueryResponse};
use crate::session::Session;
use dmcs_graph::{NodeId, Snapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A completed batch: per-request responses in submission order plus the
/// latency/throughput summary a serving deployment monitors.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Responses, index-aligned with the submitted requests.
    pub responses: Vec<QueryResponse>,
    /// End-to-end wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Queries completed per wall-clock second.
    pub queries_per_sec: f64,
    /// Median per-query latency (seconds).
    pub p50_seconds: f64,
    /// 95th-percentile per-query latency (seconds).
    pub p95_seconds: f64,
    /// Distinct node lists actually dispatched — duplicates beyond this
    /// were answered by fan-out.
    pub unique_queries: usize,
    /// Executed queries answered from the shared result cache (0 when no
    /// cache was attached).
    pub cache_hits: usize,
    /// Executed queries that missed the shared result cache (0 when no
    /// cache was attached).
    pub cache_misses: usize,
    /// Connected-component groups the scheduler formed (0 when the plan
    /// ran ungrouped).
    pub groups: usize,
    /// Work items dispatched through component-grouped scheduling (0
    /// when the plan ran ungrouped).
    pub grouped_queries: usize,
    /// Queries that reused a component BFS memoized by an earlier query
    /// on the same worker session, weighted FPA queries included. The
    /// count repeats exactly only with one worker: with more, work
    /// stealing decides which worker's memo a query meets.
    pub shared_bfs_reuses: u64,
    /// Queries executed on the snapshot's renumbered compute mirror (0
    /// unless the worker [`Session`]s serve from it).
    pub mirror_served: u64,
    /// Largest-component mass fraction of the snapshot the planner saw
    /// (`1.0` for a connected or empty graph) — the statistic behind
    /// the grouping decision.
    pub skew: f64,
    /// Label of the plan that ran the batch: `"auto:"`, then `grouped+`
    /// when the batch grouped, `memo`, and `+mirror` when the worker
    /// sessions served from the compute mirror (e.g.
    /// `"auto:grouped+memo"`). Empty when no planner ran (a query
    /// stream's report): its summary then leaves out `plan` and `skew`.
    pub plan: &'static str,
}

impl BatchReport {
    /// Assemble a report from finished responses: computes throughput
    /// and the latency percentiles. The scheduling counters start at 0
    /// and the plan empty; [`BatchRunner::run`] fills them in.
    pub fn from_responses(
        responses: Vec<QueryResponse>,
        wall_seconds: f64,
        unique_queries: usize,
        cache_hits: usize,
        cache_misses: usize,
    ) -> Self {
        let mut latencies: Vec<f64> = responses.iter().map(|r| r.seconds).collect();
        latencies.sort_unstable_by(f64::total_cmp);
        BatchReport {
            responses,
            ..BatchReport::from_latencies(
                latencies.iter().map(|&s| (s, 1)),
                wall_seconds,
                unique_queries,
                cache_hits,
                cache_misses,
            )
        }
    }

    /// [`BatchReport::from_responses`] for a caller that kept only the
    /// queries' latencies, as `(seconds, count)` runs in ascending
    /// [`f64::total_cmp`] order (a value may span several runs): the
    /// report's `responses` stay empty. A
    /// [`StreamTally`](crate::ops::StreamTally) builds a stream's
    /// summary this way, since a long-lived connection cannot afford to
    /// keep every response.
    pub(crate) fn from_latencies(
        runs: impl Iterator<Item = (f64, usize)> + Clone,
        wall_seconds: f64,
        unique_queries: usize,
        cache_hits: usize,
        cache_misses: usize,
    ) -> Self {
        let queries: usize = runs.clone().map(|(_, count)| count).sum();
        let p50_seconds = nearest_rank(runs.clone(), queries, 0.50);
        let p95_seconds = nearest_rank(runs, queries, 0.95);
        let queries_per_sec = if wall_seconds > 0.0 {
            queries as f64 / wall_seconds
        } else {
            0.0
        };
        BatchReport {
            responses: Vec::new(),
            wall_seconds,
            queries_per_sec,
            p50_seconds,
            p95_seconds,
            unique_queries,
            cache_hits,
            cache_misses,
            groups: 0,
            grouped_queries: 0,
            shared_bfs_reuses: 0,
            mirror_served: 0,
            skew: 1.0,
            plan: "",
        }
    }

    /// Whether a planner scheduled the report's queries: a batch. A
    /// query stream's report has no plan, and its summary leaves out
    /// `plan` and `skew`.
    pub fn planned(&self) -> bool {
        !self.plan.is_empty()
    }

    /// Number of requests that produced a community.
    pub fn succeeded(&self) -> usize {
        self.responses.iter().filter(|r| r.is_ok()).count()
    }
}

/// The nearest-rank `p` percentile of `len` values given as `runs`,
/// `(value, count)` pairs in ascending [`f64::total_cmp`] order whose
/// counts sum to `len`: the value at 1-based rank `ceil(len·p)`,
/// clamped to `1..=len`, and 0 when there are no values. Every summary's
/// `p50_seconds` and `p95_seconds` come from here.
fn nearest_rank(runs: impl Iterator<Item = (f64, usize)>, len: usize, p: f64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let rank = ((len as f64 * p).ceil() as usize).clamp(1, len);
    let mut seen = 0;
    runs.map(|(value, count)| {
        seen += count;
        (seen, value)
    })
    .find(|&(seen, _)| seen >= rank)
    .map_or(0.0, |(_, value)| value)
}

/// Executes batches of requests with a default algorithm and a worker
/// count.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    spec: AlgoSpec,
    threads: usize,
    cache: Option<Arc<ResponseCache>>,
}

/// What the worker scope hands back: submission-indexed responses plus
/// the workers' summed memo-hit and mirror-served counters.
type WorkerHarvest = (Vec<(usize, QueryResponse)>, u64, u64);

/// The summary label of a batch's plan: every worker session memoizes;
/// `grouped` and `mirror` say whether the batch grouped and whether its
/// sessions served from the compute mirror.
fn plan_label(grouped: bool, mirror: bool) -> &'static str {
    match (grouped, mirror) {
        (false, false) => "auto:memo",
        (true, false) => "auto:grouped+memo",
        (false, true) => "auto:memo+mirror",
        (true, true) => "auto:grouped+memo+mirror",
    }
}

impl BatchRunner {
    /// Runner for `spec` on `threads` workers.
    ///
    /// `threads == 0` is an [`EngineError::BadParam`]; an unregistered
    /// label is an [`EngineError::UnknownAlgo`] (detected here, not at
    /// run time). A thread count larger than a batch is clamped to one
    /// worker per distinct request when the batch runs.
    pub fn new(spec: AlgoSpec, threads: usize) -> Result<Self, EngineError> {
        if threads == 0 {
            return Err(EngineError::bad_param(
                "batch thread count must be at least 1 (got 0)",
            ));
        }
        spec.build()?;
        Ok(BatchRunner {
            spec,
            threads,
            cache: None,
        })
    }

    /// Attach a shared result cache; worker sessions consult it per
    /// executed query and the report's hit/miss counters light up.
    pub fn with_cache(mut self, cache: Arc<ResponseCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Configured worker count (before per-batch clamping).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Open one worker session over `snap` with [`Session::new`]'s
    /// defaults, attaching the shared cache when configured.
    fn worker_session(&self, snap: &Snapshot) -> Result<Session, EngineError> {
        let session = Session::new(snap.clone(), &self.spec)?;
        Ok(match &self.cache {
            Some(cache) => session.with_cache(Arc::clone(cache)),
            None => session,
        })
    }

    /// Run every request against the pinned snapshot and aggregate the
    /// report. Responses come back in submission order whatever the
    /// thread count.
    ///
    /// Per-query search failures land inside their [`QueryResponse`];
    /// a batch aborts only if a worker session fails to open.
    pub fn run(
        &self,
        snap: &Snapshot,
        requests: &[QueryRequest],
    ) -> Result<BatchReport, EngineError> {
        let start = Instant::now();

        // Dedup: answer each distinct node list once, fan back out below
        // (the correlation tag deliberately excluded).
        let mut seen: HashMap<&[NodeId], usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new(); // representative request index
        let mut assign: Vec<usize> = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let slot = *seen.entry(req.nodes.as_slice()).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
            assign.push(slot);
        }
        let work: Vec<&QueryRequest> = unique.iter().map(|&i| &requests[i]).collect();
        let plan = QueryPlan::choose(PlanMode::Auto, snap);
        // One distinct query leaves nothing to group; the report's label
        // says what ran.
        let grouped = plan.grouped && work.len() >= 2;

        // Schedule: under a grouped plan, one group per connected
        // component of the first query node (groups ordered by first
        // appearance, members in submission order); otherwise one
        // singleton group per work item, which is plain per-query work
        // stealing. Grouping is a heuristic about *locality only* —
        // multi-node or out-of-range queries still validate inside the
        // search, whatever group they land in.
        let groups: Vec<Vec<usize>> = if grouped {
            let index = snap.component_index();
            let mut by_label: HashMap<u32, usize> = HashMap::new();
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for (i, req) in work.iter().enumerate() {
                // Out-of-range first nodes (doomed to a validation
                // error) share one sentinel group.
                let label = req.nodes.first().map_or(u32::MAX, |&v| {
                    if (v as usize) < snap.n() {
                        index.label(v)
                    } else {
                        u32::MAX
                    }
                });
                let slot = *by_label.entry(label).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[slot].push(i);
            }
            groups
        } else {
            (0..work.len()).map(|i| vec![i]).collect()
        };

        // Workers steal whole groups, so a group's queries stay on one
        // session (and its memo); a slow group never stalls the others.
        // One worker is the same loop on a single scoped thread. The
        // sessions share the snapshot and spec, so they share a
        // substrate, which the label reports.
        let workers = self.threads.min(groups.len()).max(1);
        let sessions = (0..workers)
            .map(|_| self.worker_session(snap))
            .collect::<Result<Vec<_>, _>>()?;
        let on_mirror = sessions.iter().any(Session::mirrored);
        let next = AtomicUsize::new(0);
        let (work, groups) = (&work, &groups);
        let (mut indexed, shared_bfs_reuses, mirror_served) =
            std::thread::scope(|scope| -> Result<WorkerHarvest, EngineError> {
                let mut handles = Vec::with_capacity(workers);
                for mut session in sessions {
                    let next = &next;
                    // Workers carry per-request Results home instead of
                    // unwrapping on their own thread (a worker must not
                    // decide to panic for the whole batch).
                    handles.push(scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let g = next.fetch_add(1, Ordering::Relaxed);
                            let Some(group) = groups.get(g) else { break };
                            for &i in group {
                                local.push((i, session.query(work[i])));
                            }
                        }
                        (local, session.memo_hits(), session.mirror_served())
                    }));
                }
                let mut indexed = Vec::with_capacity(work.len());
                let mut reuses = 0u64;
                let mut mirrored = 0u64;
                for h in handles {
                    match h.join() {
                        Ok((local, hits, served)) => {
                            reuses += hits;
                            mirrored += served;
                            for (i, r) in local {
                                indexed.push((i, r?));
                            }
                        }
                        // A worker panic is a bug in search code; re-raise
                        // it on the batch thread rather than inventing an
                        // error value for it.
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                Ok((indexed, reuses, mirrored))
            })?;
        // Grouped order is an execution detail; answers go home in
        // submission order whatever the plan or thread count.
        indexed.sort_unstable_by_key(|&(i, _)| i);
        let executed: Vec<QueryResponse> = indexed.into_iter().map(|(_, r)| r).collect();
        let wall_seconds = start.elapsed().as_secs_f64();

        let (cache_hits, cache_misses) = if self.cache.is_some() {
            let hits = executed.iter().filter(|r| r.cached).count();
            (hits, executed.len() - hits)
        } else {
            (0, 0)
        };

        // Fan the executed answers back out to submission order; each
        // duplicate echoes its own request (tag and all) around the
        // shared answer.
        let responses: Vec<QueryResponse> = assign
            .iter()
            .zip(requests)
            .map(|(&slot, req)| {
                let mut resp = executed[slot].clone();
                resp.request = req.clone();
                resp
            })
            .collect();

        Ok(BatchReport {
            groups: if grouped { groups.len() } else { 0 },
            grouped_queries: if grouped { work.len() } else { 0 },
            shared_bfs_reuses,
            mirror_served,
            skew: plan.skew,
            plan: plan_label(grouped, on_mirror),
            ..BatchReport::from_responses(
                responses,
                wall_seconds,
                work.len(),
                cache_hits,
                cache_misses,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::{Graph, GraphBuilder};

    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    fn barbell_snap() -> Snapshot {
        Snapshot::freeze(barbell())
    }

    fn requests() -> Vec<QueryRequest> {
        QueryRequest::from_node_lists(&(0..6u32).map(|v| vec![v]).collect::<Vec<Vec<NodeId>>>())
    }

    /// The reference answers: one canonical session without the memo
    /// and the mirror, answering `reqs` in submission order.
    fn reference(snap: &Snapshot, algo: &str, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        let mut session = Session::new(snap.clone(), &AlgoSpec::new(algo))
            .unwrap()
            .without_mirror()
            .without_memo();
        reqs.iter().map(|r| session.query(r).unwrap()).collect()
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let snap = barbell_snap();
        let reqs = requests();
        let seq = BatchRunner::new(AlgoSpec::new("fpa"), 1)
            .unwrap()
            .run(&snap, &reqs)
            .unwrap();
        let par = BatchRunner::new(AlgoSpec::new("fpa"), 4)
            .unwrap()
            .run(&snap, &reqs)
            .unwrap();
        assert_eq!(seq.responses.len(), par.responses.len());
        for (s, p) in seq.responses.iter().zip(&par.responses) {
            assert_eq!(s.request, p.request);
            assert_eq!(s.result, p.result);
        }
        assert_eq!(seq.unique_queries, 6, "all distinct, nothing deduped");
    }

    #[test]
    fn zero_threads_is_a_bad_param_and_excess_threads_clamp() {
        let err = BatchRunner::new(AlgoSpec::new("fpa"), 0).unwrap_err();
        assert!(matches!(err, EngineError::BadParam { .. }), "{err:?}");
        assert_eq!(err.exit_code(), 2);

        // 64 threads over 3 requests: clamped to one worker per request,
        // still deterministic and complete.
        let reqs = QueryRequest::from_node_lists(&[vec![0], vec![3], vec![5]]);
        let runner = BatchRunner::new(AlgoSpec::new("fpa"), 64).unwrap();
        assert_eq!(runner.threads(), 64);
        let report = runner.run(&barbell_snap(), &reqs).unwrap();
        assert_eq!(report.responses.len(), 3);
        assert_eq!(report.succeeded(), 3);
    }

    #[test]
    fn unknown_default_algo_fails_at_construction() {
        let err = BatchRunner::new(AlgoSpec::new("zeus"), 2).unwrap_err();
        assert!(matches!(err, EngineError::UnknownAlgo { .. }));
    }

    #[test]
    fn per_query_errors_do_not_abort_the_batch() {
        // A multi-node query spanning two components fails; the batch
        // records the error and keeps going.
        let split = Snapshot::freeze(GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]));
        let reqs = QueryRequest::from_node_lists(&[vec![0u32], vec![0, 3], vec![2]]);
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 2)
            .unwrap()
            .run(&split, &reqs)
            .unwrap();
        assert_eq!(report.responses.len(), 3);
        assert!(report.responses[0].is_ok());
        assert!(!report.responses[1].is_ok());
        assert!(report.responses[2].is_ok());
        assert_eq!(report.succeeded(), 2);
    }

    #[test]
    fn report_statistics_are_sane() {
        let report = BatchRunner::new(AlgoSpec::new("nca"), 2)
            .unwrap()
            .run(&barbell_snap(), &requests())
            .unwrap();
        assert!(report.wall_seconds > 0.0);
        assert!(report.queries_per_sec > 0.0);
        assert!(report.p50_seconds <= report.p95_seconds);
        assert_eq!(report.succeeded(), 6);
        assert_eq!((report.cache_hits, report.cache_misses), (0, 0));
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 4)
            .unwrap()
            .run(&barbell_snap(), &[])
            .unwrap();
        assert!(report.responses.is_empty());
        assert_eq!(report.p50_seconds, 0.0);
        assert_eq!(report.unique_queries, 0);
    }

    #[test]
    fn duplicate_requests_are_answered_once_and_fanned_out() {
        let reqs = vec![
            QueryRequest::new(vec![0]).with_tag("a"),
            QueryRequest::new(vec![5]),
            QueryRequest::new(vec![0]).with_tag("b"), // dup of [0]
            QueryRequest::new(vec![0, 5]),            // NOT a dup (nodes differ)
            QueryRequest::new(vec![5]),               // dup of [5]
        ];
        for threads in [1usize, 3] {
            let report = BatchRunner::new(AlgoSpec::new("fpa"), threads)
                .unwrap()
                .run(&barbell_snap(), &reqs)
                .unwrap();
            assert_eq!(report.unique_queries, 3, "{threads} threads");
            assert_eq!(report.responses.len(), 5, "every request answered");
            // Duplicates share the answer (and its timing) but keep
            // their own request echo.
            assert_eq!(report.responses[0].result, report.responses[2].result);
            assert_eq!(report.responses[0].seconds, report.responses[2].seconds);
            assert_eq!(report.responses[0].request.tag.as_deref(), Some("a"));
            assert_eq!(report.responses[2].request.tag.as_deref(), Some("b"));
            assert_eq!(report.responses[1].result, report.responses[4].result);
            assert_ne!(report.responses[3].result, report.responses[0].result);
        }
    }

    #[test]
    fn dedup_output_matches_the_undeduped_answer() {
        // A batch of pure duplicates must answer exactly like a batch of
        // one, fanned out.
        let single = BatchRunner::new(AlgoSpec::new("fpa"), 1)
            .unwrap()
            .run(&barbell_snap(), &[QueryRequest::new(vec![0])])
            .unwrap();
        let many: Vec<QueryRequest> = (0..8).map(|_| QueryRequest::new(vec![0])).collect();
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 4)
            .unwrap()
            .run(&barbell_snap(), &many)
            .unwrap();
        assert_eq!(report.unique_queries, 1);
        for resp in &report.responses {
            assert_eq!(resp.result, single.responses[0].result);
        }
    }

    /// Three components (two triangles and a 4-path) with queries
    /// interleaved across them — the worst case for per-query component
    /// derivation and the best case for grouping.
    fn fragmented_snap() -> Snapshot {
        let mut b = GraphBuilder::new(10);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v);
        }
        for (u, v) in [(6, 7), (7, 8), (8, 9)] {
            b.add_edge(u, v);
        }
        Snapshot::freeze(b.build())
    }

    fn interleaved_requests() -> Vec<QueryRequest> {
        QueryRequest::from_node_lists(&[
            vec![0u32],
            vec![3],
            vec![6],
            vec![1],
            vec![4],
            vec![7, 9],
            vec![2],
            vec![5, 3],
            vec![8],
        ])
    }

    #[test]
    fn grouped_batches_match_the_reference_session_bit_identically() {
        let snap = fragmented_snap();
        let reqs = interleaved_requests();
        let expect = reference(&snap, "fpa", &reqs);
        for threads in [1usize, 2, 4] {
            let grouped = BatchRunner::new(AlgoSpec::new("fpa"), threads)
                .unwrap()
                .run(&snap, &reqs)
                .unwrap();
            assert_eq!(grouped.plan, "auto:grouped+memo", "{threads} threads");
            assert_eq!(grouped.groups, 3, "{threads} threads");
            assert_eq!(grouped.grouped_queries, reqs.len(), "{threads} threads");
            for (a, b) in expect.iter().zip(&grouped.responses) {
                assert_eq!(a.request, b.request, "{threads} threads");
                assert_eq!(a.result, b.result, "{threads} threads");
                assert_eq!(a.algo, b.algo, "{threads} threads");
            }
        }
    }

    #[test]
    fn grouping_reuses_component_bfs_across_a_group() {
        // Single worker: all 9 queries run on one session; with three
        // groups of 3 the first of each group misses the memo and the
        // other two hit it.
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 1)
            .unwrap()
            .run(&fragmented_snap(), &interleaved_requests())
            .unwrap();
        assert_eq!(report.groups, 3);
        assert_eq!(report.shared_bfs_reuses, 6);
    }

    #[test]
    fn one_distinct_query_is_labelled_ungrouped() {
        // Three disjoint triangles: the planner would group, but a batch
        // of one distinct query (sent twice) has nothing to group.
        let edges = [
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (6, 7),
            (7, 8),
            (6, 8),
        ];
        let snap = Snapshot::freeze(GraphBuilder::from_edges(9, &edges));
        let reqs = QueryRequest::from_node_lists(&[vec![0u32], vec![0]]);
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 2)
            .unwrap()
            .run(&snap, &reqs)
            .unwrap();
        assert_eq!((report.groups, report.grouped_queries), (0, 0));
        assert_eq!(report.plan, "auto:memo");
        // Two distinct queries do group, and say so.
        let reqs = QueryRequest::from_node_lists(&[vec![0u32], vec![3]]);
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 2)
            .unwrap()
            .run(&snap, &reqs)
            .unwrap();
        assert_eq!((report.groups, report.plan), (2, "auto:grouped+memo"));
    }

    #[test]
    fn connected_graphs_plan_memo_without_grouping() {
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 2)
            .unwrap()
            .run(&barbell_snap(), &requests())
            .unwrap();
        assert_eq!(report.plan, "auto:memo");
        assert_eq!((report.groups, report.grouped_queries), (0, 0));
    }

    #[test]
    fn out_of_range_queries_share_the_sentinel_group() {
        let reqs = QueryRequest::from_node_lists(&[vec![0u32], vec![99], vec![3], vec![98]]);
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 2)
            .unwrap()
            .run(&barbell_snap(), &reqs)
            .unwrap();
        // Barbell is connected → ungrouped; the doomed queries still
        // answer with their validation error.
        assert!(report.responses[0].is_ok());
        assert!(!report.responses[1].is_ok());
        let split = fragmented_snap();
        let report = BatchRunner::new(AlgoSpec::new("fpa"), 2)
            .unwrap()
            .run(&split, &reqs)
            .unwrap();
        assert_eq!(report.groups, 3, "two components + one sentinel group");
        assert!(!report.responses[3].is_ok());
    }

    #[test]
    fn mirror_serving_batches_match_the_reference_session_bit_identically() {
        use dmcs_graph::{GraphStore, LayoutPolicy};
        // `fragmented_snap`'s shape under labels the bfs layout permutes
        // (`fragmented_snap` itself is already in bfs order), placed so
        // each multi-node request stays inside one component.
        let mut b = GraphBuilder::new(10);
        for (u, v) in [(7, 9), (9, 2), (7, 2), (0, 4), (4, 8), (0, 8)] {
            b.add_edge(u, v);
        }
        for (u, v) in [(5, 1), (1, 6), (6, 3)] {
            b.add_edge(u, v);
        }
        let store = GraphStore::from_graph(b.build());
        store.set_layout_policy(LayoutPolicy::Bfs);
        let snap = store.snapshot();
        let reqs = interleaved_requests();
        let expect = reference(&snap, "fpa", &reqs);
        for threads in [1usize, 2, 4] {
            let mirrored = BatchRunner::new(AlgoSpec::new("fpa"), threads)
                .unwrap()
                .run(&snap, &reqs)
                .unwrap();
            assert_eq!(mirrored.plan, "auto:grouped+memo+mirror");
            assert_eq!(mirrored.succeeded(), reqs.len(), "{threads} threads");
            // Every query, multi-node ones included, ran on the mirror.
            assert_eq!(
                mirrored.mirror_served,
                reqs.len() as u64,
                "{threads} threads"
            );
            assert!((mirrored.skew - 0.4).abs() < 1e-12);
            for (a, b) in expect.iter().zip(&mirrored.responses) {
                assert_eq!(a.result, b.result, "{threads} threads");
            }
        }
        // A weighted spec and a baseline that is not mirror-safe run on
        // the canonical CSR, and their label says so.
        for spec in [AlgoSpec::new("fpa").weighted(), AlgoSpec::new("kc")] {
            let report = BatchRunner::new(spec.clone(), 2)
                .unwrap()
                .run(&snap, &reqs)
                .unwrap();
            assert_eq!(report.mirror_served, 0, "{}", spec.name);
            assert_eq!(report.plan, "auto:grouped+memo", "{}", spec.name);
        }
    }

    #[test]
    fn attached_cache_counts_hits_across_batches() {
        let cache = Arc::new(ResponseCache::new(64));
        let snap = barbell_snap();
        let runner = BatchRunner::new(AlgoSpec::new("fpa"), 2)
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let first = runner.run(&snap, &requests()).unwrap();
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.cache_misses, 6);
        let second = runner.run(&snap, &requests()).unwrap();
        assert_eq!(second.cache_hits, 6, "same snapshot version: all hits");
        assert_eq!(second.cache_misses, 0);
        for (a, b) in first.responses.iter().zip(&second.responses) {
            assert_eq!(a.result, b.result);
            assert_eq!(a.seconds, b.seconds, "hits replay original timings");
        }
    }
}
