//! Stats-driven batch planning: pick *execution order* — never
//! results — from cheap per-snapshot graph statistics.
//!
//! Only a batch plans: [`BatchRunner::run`](crate::BatchRunner::run) is
//! the program's one caller of [`QueryPlan::choose`], because a batch is
//! the only work whose order can be rearranged. A query stream (a `dmcs serve`
//! connection, an `--updates` script) answers each query as it arrives
//! and never asks the planner, so it never pays for the component index.
//!
//! The planner reads the snapshot's component index (a one-pass
//! union-find computed lazily and cached on the snapshot, see
//! [`Snapshot::component_index`](dmcs_graph::Snapshot::component_index))
//! and decides one thing, **`grouped`**: whether a
//! [`BatchRunner`](crate::BatchRunner) schedules queries
//! component-by-component so that consecutive queries on a worker share
//! a connected component (and therefore the worker session's component
//! memo, which spares multi-node queries their connectivity-validation
//! BFS). Grouping only pays when the graph is fragmented; on a
//! single-component graph it is a no-op reordering, so the planner turns
//! it off. The worker sessions themselves are plain
//! [`Session::new`](crate::Session::new) sessions: the memo is always
//! armed, and the session alone decides whether it serves from the
//! snapshot's compute mirror.
//!
//! Grouping is **skew-aware**, not just count-aware: a graph that is one
//! giant component plus dust has many components but no locality to
//! recover — nearly every query lands in the giant component anyway, so
//! grouping would only pay scheduling overhead. The planner computes the
//! largest-component mass fraction ([`QueryPlan::skew`]) from the
//! snapshot's component index and groups only fragmented snapshots whose
//! mass is actually spread out.
//!
//! ## Why the planner never touches the algorithm
//!
//! Grouping only permutes the order in which workers *execute* queries
//! (the report still lists responses in submission order), and a DMCS
//! answer reads only its query's component and the edge count. The
//! planner deliberately has no authority over *which* algorithm answers
//! a query — the peeling algorithms break ties by node id and track
//! best-snapshots by removal order, so substituting an "equivalent"
//! algorithm (or reordering its removals) could return a different,
//! equally valid community. The engine's contract is byte-identical
//! output for identical requests, whatever the execution order.

use dmcs_graph::Snapshot;

/// The planner's mode, named by `--plan auto` on a batch run. `Auto` is
/// the only one: every batch runs the one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Choose the execution order from per-snapshot statistics.
    #[default]
    Auto,
}

impl std::str::FromStr for PlanMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(PlanMode::Auto),
            other => Err(format!("unknown plan mode '{other}' (expected auto)")),
        }
    }
}

/// The execution order chosen for one snapshot. It cannot change a
/// response (see the module docs for why that is a hard rule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPlan {
    /// Schedule batch queries grouped by connected component.
    pub grouped: bool,
    /// Largest-component mass fraction of the snapshot (`1.0` on a
    /// connected or empty graph) — the statistic behind the grouping
    /// decision, surfaced in batch summaries.
    pub skew: f64,
}

/// Above this largest-component mass fraction the snapshot is treated as
/// "one giant component plus dust": grouping cannot recover locality
/// that was never spread out, so the plan skips it.
const SKEW_GROUPING_CUTOFF: f64 = 0.75;

impl QueryPlan {
    /// Choose the plan for `snapshot`: group exactly when the snapshot
    /// is fragmented **and** its mass is spread out
    /// (`skew < SKEW_GROUPING_CUTOFF`, 0.75). `PlanMode::Auto` is the
    /// only mode.
    pub fn choose(_mode: PlanMode, snapshot: &Snapshot) -> QueryPlan {
        let index = snapshot.component_index();
        let n = snapshot.graph().n();
        let skew = if n == 0 {
            1.0
        } else {
            index.largest() as f64 / n as f64
        };
        QueryPlan {
            grouped: index.count() > 1 && skew < SKEW_GROUPING_CUTOFF,
            skew,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    #[test]
    fn auto_is_the_only_mode() {
        assert_eq!("auto".parse::<PlanMode>(), Ok(PlanMode::Auto));
        assert_eq!(
            "off".parse::<PlanMode>(),
            Err("unknown plan mode 'off' (expected auto)".to_string())
        );
        assert_eq!(PlanMode::default(), PlanMode::Auto);
    }

    #[test]
    fn groups_only_fragmented_snapshots() {
        let connected = Snapshot::freeze(GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]));
        let plan = QueryPlan::choose(PlanMode::Auto, &connected);
        assert!(!plan.grouped);
        assert!((plan.skew - 1.0).abs() < 1e-12);

        let split = Snapshot::freeze(GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]));
        let plan = QueryPlan::choose(PlanMode::Auto, &split);
        assert!(plan.grouped);
        assert!((plan.skew - 0.5).abs() < 1e-12);
    }

    #[test]
    fn skew_disables_grouping_on_giant_plus_dust() {
        // A 16-node path plus 2 isolated dust components: fragmented by
        // count (3 components) but 16/18 ≈ 0.89 of the mass is one giant
        // component — grouping has no locality to recover.
        let edges: Vec<(u32, u32)> = (0..15u32).map(|v| (v, v + 1)).collect();
        let giant = Snapshot::freeze(GraphBuilder::from_edges(18, &edges));
        assert!(giant.component_index().count() > 1);
        let plan = QueryPlan::choose(PlanMode::Auto, &giant);
        assert!(!plan.grouped, "skew {} must veto grouping", plan.skew);
        assert!(plan.skew > SKEW_GROUPING_CUTOFF);
    }
}
