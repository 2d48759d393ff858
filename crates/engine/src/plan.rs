//! Stats-driven batch planning: pick *execution strategy* — never
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
//! and decides three things:
//!
//! - **`grouped`** — whether a [`BatchRunner`](crate::BatchRunner)
//!   should schedule queries component-by-component so that consecutive
//!   queries on a worker share a connected component (and therefore the
//!   worker session's component memo, which spares multi-node queries
//!   their connectivity-validation BFS). Grouping only pays when
//!   the graph is fragmented; on a single-component graph it is a no-op
//!   reordering, so the planner turns it off.
//! - **`memoize`** — whether worker sessions arm the per-workspace
//!   component memo at all ([`QueryWorkspace::arm_component_memo`](
//!   dmcs_graph::view::QueryWorkspace::arm_component_memo)).
//! - **`mirror`** — whether sessions of mirror-safe, unweighted specs
//!   execute every query on the snapshot's renumbered compute mirror
//!   (the canonical tie-break shim keeps the output byte-identical; see
//!   `dmcs_graph::layout`).
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
//! Every knob the planner controls is **result-invariant**: grouping
//! only permutes the order in which workers *execute* queries (the
//! report still lists responses in submission order), and the component
//! memo short-circuits a BFS whose outcome is fully determined by the
//! snapshot. The planner deliberately has no authority over *which*
//! algorithm answers a query — the peeling algorithms break ties by
//! node id and track best-snapshots by removal order, so substituting
//! an "equivalent" algorithm (or reordering its removals) could return
//! a different, equally valid community. The engine's contract is
//! byte-identical output for identical requests, with or without a
//! plan; strategy choices that cannot alter bytes are the planner's
//! entire vocabulary.

use dmcs_graph::Snapshot;

/// Planner switch, selected with `--plan auto|off` on a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Choose strategy from per-snapshot statistics (the default).
    #[default]
    Auto,
    /// Disable planning: ungrouped scheduling, no component memo. The
    /// baseline execution path, kept selectable for benchmarks and for
    /// bisecting suspected planner regressions.
    Off,
}

impl PlanMode {
    /// Stable lowercase name, the inverse of the [`FromStr`](std::str::FromStr) parse.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanMode::Auto => "auto",
            PlanMode::Off => "off",
        }
    }
}

impl std::str::FromStr for PlanMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(PlanMode::Auto),
            "off" => Ok(PlanMode::Off),
            other => Err(format!("unknown plan mode '{other}' (expected auto|off)")),
        }
    }
}

impl std::fmt::Display for PlanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The execution strategy chosen for one snapshot: all fields are
/// result-invariant (see the module docs for why that is a hard rule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPlan {
    /// Schedule batch queries grouped by connected component.
    pub grouped: bool,
    /// Arm the per-worker component memo.
    pub memoize: bool,
    /// Let sessions serve mirror-safe searches from the renumbered
    /// compute mirror (only ever true when the snapshot carries one).
    pub mirror: bool,
    /// Largest-component mass fraction of the snapshot (`1.0` on a
    /// connected or empty graph) — the statistic behind the grouping
    /// decision, surfaced in batch summaries.
    pub skew: f64,
    /// Human-readable label surfaced in batch summaries, e.g.
    /// `"auto:grouped+memo"`.
    pub label: &'static str,
}

/// Above this largest-component mass fraction the snapshot is treated as
/// "one giant component plus dust": grouping cannot recover locality
/// that was never spread out, so Auto plans skip it.
const SKEW_GROUPING_CUTOFF: f64 = 0.75;

impl QueryPlan {
    /// Choose a plan for `snapshot` under `mode`.
    ///
    /// `Auto` always memoizes (the memo is free when it never hits),
    /// groups exactly when the snapshot is fragmented **and** its mass
    /// is spread out (`skew < SKEW_GROUPING_CUTOFF`, 0.75), and serves
    /// from the mirror whenever the snapshot carries one — the
    /// canonical tie-break shim makes that unconditionally safe, and
    /// eligibility (algorithm, weights) is the session's call when it
    /// opens. `Off` disables everything; `skew` is still reported so
    /// observability does not depend on the plan.
    pub fn choose(mode: PlanMode, snapshot: &Snapshot) -> QueryPlan {
        let index = snapshot.component_index();
        let n = snapshot.graph().n();
        let skew = if n == 0 {
            1.0
        } else {
            index.largest() as f64 / n as f64
        };
        match mode {
            PlanMode::Off => QueryPlan {
                grouped: false,
                memoize: false,
                mirror: false,
                skew,
                label: "off",
            },
            PlanMode::Auto => {
                let grouped = index.count() > 1 && skew < SKEW_GROUPING_CUTOFF;
                let mirror = snapshot.compute().is_some();
                QueryPlan {
                    grouped,
                    memoize: true,
                    mirror,
                    skew,
                    label: auto_label(grouped, mirror),
                }
            }
        }
    }

    /// This plan without component grouping, labelled for what runs: a
    /// batch with at most one distinct query has nothing to group.
    pub(crate) fn ungrouped(self) -> QueryPlan {
        if !self.grouped {
            return self;
        }
        QueryPlan {
            grouped: false,
            label: auto_label(false, self.mirror),
            ..self
        }
    }
}

/// The label of an `Auto` plan (which always memoizes).
fn auto_label(grouped: bool, mirror: bool) -> &'static str {
    match (grouped, mirror) {
        (false, false) => "auto:memo",
        (true, false) => "auto:grouped+memo",
        (false, true) => "auto:memo+mirror",
        (true, true) => "auto:grouped+memo+mirror",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_graph::GraphBuilder;

    #[test]
    fn mode_round_trips_through_strings() {
        for mode in [PlanMode::Auto, PlanMode::Off] {
            assert_eq!(mode.as_str().parse::<PlanMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.as_str());
        }
        assert!("tortoise".parse::<PlanMode>().is_err());
        assert_eq!(PlanMode::default(), PlanMode::Auto);
    }

    #[test]
    fn auto_groups_only_fragmented_snapshots() {
        let connected = Snapshot::freeze(GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]));
        let plan = QueryPlan::choose(PlanMode::Auto, &connected);
        assert!(!plan.grouped && plan.memoize && !plan.mirror);
        assert_eq!(plan.label, "auto:memo");
        assert!((plan.skew - 1.0).abs() < 1e-12);

        let split = Snapshot::freeze(GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]));
        let plan = QueryPlan::choose(PlanMode::Auto, &split);
        assert!(plan.grouped && plan.memoize);
        assert_eq!(plan.label, "auto:grouped+memo");
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
        assert_eq!(plan.label, "auto:memo");
    }

    #[test]
    fn auto_serves_from_the_mirror_when_one_exists() {
        use dmcs_graph::{GraphStore, LayoutPolicy};
        let store = GraphStore::from_graph(GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]));
        let plan = QueryPlan::choose(PlanMode::Auto, &store.snapshot());
        assert!(!plan.mirror, "identity layout builds no mirror");
        store.set_layout_policy(LayoutPolicy::Bfs);
        let plan = QueryPlan::choose(PlanMode::Auto, &store.snapshot());
        assert!(plan.mirror && plan.grouped);
        assert_eq!(plan.label, "auto:grouped+memo+mirror");
        // Off never mirrors, but still reports the skew statistic.
        let off = QueryPlan::choose(PlanMode::Off, &store.snapshot());
        assert!(!off.mirror);
        assert!((off.skew - 0.5).abs() < 1e-12);
    }

    #[test]
    fn off_disables_everything() {
        let split = Snapshot::freeze(GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]));
        let plan = QueryPlan::choose(PlanMode::Off, &split);
        assert!(!plan.grouped && !plan.memoize && !plan.mirror);
        assert_eq!(plan.label, "off");
    }
}
