//! The algorithm registry: the **single** construction site for every
//! [`CommunitySearch`] implementation in the workspace.
//!
//! A query names an algorithm by its stable label (the paper's legend
//! name where one exists) plus a small parameter bag; the registry turns
//! that [`AlgoSpec`] into a boxed searcher. The CLI's `--algo` flag, the
//! baseline line-ups of the experiment harness, and the batch engine all
//! resolve through here, so adding an algorithm (or renaming one) is a
//! one-row change and help text / docs are generated rather than
//! hand-maintained.

use crate::error::EngineError;
use dmcs_baselines::{
    CliquePercolation, Cnm, Gn, HighCore, HighTruss, Huang2015, Icwi2008, KCore, KTruss, Kecc,
    LocalKCore, Louvain, Lpa, PprSweep, Wu2015,
};
use dmcs_core::{BranchAndBound, CommunitySearch, Exact, Fpa, FpaDmg, Nca, NcaDr};

/// Tunable parameters an [`AlgoSpec`] carries to the factory. Algorithms
/// ignore the fields they have no use for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AlgoParams {
    /// `k` for the parameterised baselines (`kc` / `kt` / `kecc` / `ls`);
    /// `kt` clamps to at least 3 (a 2-truss is every edge).
    pub k: u32,
    /// FPA's layer-based pruning strategy (§5.7). Only `fpa` and `fpa-w`
    /// read it, on either weighting.
    pub layer_pruning: bool,
    /// Serve the *weighted* density modularity: `fpa`/`nca` build their
    /// kernels on edge weights (exactly what the canonical
    /// `fpa-w`/`nca-w` labels build). Entries that are not
    /// [`weight_aware`](AlgoEntry::weight_aware) ignore it. Participates
    /// in cache and batch-dedup keys — a weighted and an unweighted
    /// request never share an answer.
    pub weighted: bool,
}

impl Default for AlgoParams {
    fn default() -> Self {
        AlgoParams {
            k: 3,
            layer_pruning: true,
            weighted: false,
        }
    }
}

/// One registry row: the stable label, a one-line summary for generated
/// help text, whether `k` is meaningful, whether the algorithm can serve
/// the weighted objective, and the factory.
pub struct AlgoEntry {
    /// Stable lookup label (lowercase; the CLI's `--algo` value).
    pub name: &'static str,
    /// One-line description, rendered into `--help` and the README.
    pub summary: &'static str,
    /// Whether the `k` parameter changes this algorithm's behaviour.
    pub uses_k: bool,
    /// Whether this algorithm can maximise the *weighted* density
    /// modularity (the CLI's `--weighted` accepts exactly these labels).
    pub weight_aware: bool,
    /// Whether the (unweighted) searcher carries the canonical tie-break
    /// shim and may therefore execute on a renumbered compute mirror
    /// with byte-identical output (sessions consult this before
    /// mirror-serving; see `dmcs_graph::layout`). Weighted serving is
    /// never mirror-safe — floating-point sums depend on traversal
    /// order — so `serves_weighted` specs stay canonical regardless.
    pub mirror_safe: bool,
    factory: fn(&AlgoParams) -> Box<dyn CommunitySearch>,
}

impl AlgoEntry {
    /// Instantiate this algorithm with `params`.
    pub fn build(&self, params: &AlgoParams) -> Box<dyn CommunitySearch> {
        (self.factory)(params)
    }
}

/// Every community-search algorithm in the workspace, in presentation
/// order: the paper's two algorithms and their ablations, the exact
/// solvers, then the baselines of §6.1 and the extensions.
pub const REGISTRY: &[AlgoEntry] = &[
    AlgoEntry {
        name: "fpa",
        summary: "Fast Peeling Algorithm (§5.5, layer pruning §5.7) — the paper's default",
        uses_k: false,
        weight_aware: true,
        mirror_safe: true,
        factory: |p| {
            Box::new(Fpa {
                layer_pruning: p.layer_pruning,
                weighted: p.weighted,
            })
        },
    },
    AlgoEntry {
        name: "nca",
        summary: "Non-articulation Cancellation Algorithm (§5.4)",
        uses_k: false,
        weight_aware: true,
        mirror_safe: true,
        factory: |p| {
            Box::new(Nca {
                weighted: p.weighted,
            })
        },
    },
    AlgoEntry {
        name: "fpa-w",
        summary: "FPA on the weighted density modularity (Definition 2, weighted form)",
        uses_k: false,
        weight_aware: true,
        mirror_safe: false,
        factory: |p| {
            Box::new(Fpa {
                layer_pruning: p.layer_pruning,
                weighted: true,
            })
        },
    },
    AlgoEntry {
        name: "nca-w",
        summary: "NCA on the weighted density modularity",
        uses_k: false,
        weight_aware: true,
        mirror_safe: false,
        factory: |_| Box::new(Nca::default().weighted()),
    },
    AlgoEntry {
        name: "fpa-dmg",
        summary: "FPA ablation scored by the unstable DM gain (Fig 3 (b)+(c))",
        uses_k: false,
        weight_aware: false,
        mirror_safe: true,
        factory: |_| Box::new(FpaDmg),
    },
    AlgoEntry {
        name: "nca-dr",
        summary: "NCA ablation scored by the density ratio (Fig 3 (a)+(d))",
        uses_k: false,
        weight_aware: false,
        mirror_safe: true,
        factory: |_| Box::new(NcaDr),
    },
    AlgoEntry {
        name: "exact",
        summary: "bitmask exact optimum (components up to 26 nodes)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(Exact),
    },
    AlgoEntry {
        name: "bnb",
        summary: "branch-and-bound exact optimum (~30-node components)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(BranchAndBound::default()),
    },
    AlgoEntry {
        name: "kc",
        summary: "connected k-core of the queries (Sozio & Gionis 2010)",
        uses_k: true,
        weight_aware: false,
        mirror_safe: false,
        factory: |p| Box::new(KCore::new(p.k)),
    },
    AlgoEntry {
        name: "kt",
        summary: "triangle-connected k-truss community (Huang et al. 2014)",
        uses_k: true,
        weight_aware: false,
        mirror_safe: false,
        factory: |p| Box::new(KTruss::new(p.k.max(3))),
    },
    AlgoEntry {
        name: "kecc",
        summary: "k-edge-connected component (Chang et al. 2015)",
        uses_k: true,
        weight_aware: false,
        mirror_safe: false,
        factory: |p| Box::new(Kecc::new(p.k.into())),
    },
    AlgoEntry {
        name: "highcore",
        summary: "k-core with k maximised",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(HighCore),
    },
    AlgoEntry {
        name: "hightruss",
        summary: "k-truss with k maximised",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(HighTruss),
    },
    AlgoEntry {
        name: "ls",
        summary: "local k-core expansion",
        uses_k: true,
        weight_aware: false,
        mirror_safe: false,
        factory: |p| Box::new(LocalKCore::new(p.k)),
    },
    AlgoEntry {
        name: "huang2015",
        summary: "closest truss community, 2-approx (Huang et al. 2015)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(Huang2015::default()),
    },
    AlgoEntry {
        name: "wu2015",
        summary: "query-biased density deletion, η=0.5 (Wu et al. 2015)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(Wu2015::default()),
    },
    AlgoEntry {
        name: "clique",
        summary: "densest clique-percolation community (Yuan et al. 2017)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(CliquePercolation::default()),
    },
    AlgoEntry {
        name: "cnm",
        summary: "agglomerative modularity, best-DM intermediate (Clauset et al. 2004)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(Cnm),
    },
    AlgoEntry {
        name: "gn",
        summary: "divisive edge-betweenness, best-DM intermediate (Girvan & Newman 2002)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(Gn::default()),
    },
    AlgoEntry {
        name: "icwi2008",
        summary: "Luo's local-modularity greedy (Luo et al. 2008)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(Icwi2008),
    },
    AlgoEntry {
        name: "lpa",
        summary: "label propagation, label block of the query (Raghavan et al. 2007)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(Lpa::default()),
    },
    AlgoEntry {
        name: "louvain",
        summary: "Louvain detection, community of the query (Blondel et al. 2008)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(Louvain::default()),
    },
    AlgoEntry {
        name: "ppr",
        summary: "personalized-PageRank sweep cut (Andersen et al. 2006)",
        uses_k: false,
        weight_aware: false,
        mirror_safe: false,
        factory: |_| Box::new(PprSweep::default()),
    },
];

/// Look up a registry row by its (case-insensitive) label.
pub fn find(name: &str) -> Option<&'static AlgoEntry> {
    REGISTRY.iter().find(|e| e.name.eq_ignore_ascii_case(name))
}

/// Levenshtein edit distance between two (short) ASCII labels.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<u8>, Vec<u8>) = (a.bytes().collect(), b.bytes().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The registered label nearest to `name` by edit distance, if it is
/// close enough to be a plausible typo (distance ≤ 2, or ≤ a third of
/// the label length for long labels). Drives the "did you mean ...?"
/// part of [`EngineError::UnknownAlgo`].
pub fn suggest(name: &str) -> Option<&'static str> {
    let name = name.to_lowercase();
    let (best, dist) = REGISTRY
        .iter()
        .map(|e| (e.name, edit_distance(&name, e.name)))
        .min_by_key(|&(_, d)| d)?;
    let threshold = 2usize.max(name.len() / 3);
    (dist <= threshold && dist < name.len()).then_some(best)
}

/// All registered labels, in registry order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name).collect()
}

/// Generated `--algo` help: one aligned `name  summary` line per
/// algorithm. The CLI embeds this in its usage text so documentation
/// cannot drift from the registry.
pub fn algo_help() -> String {
    let width = REGISTRY.iter().map(|e| e.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for e in REGISTRY {
        let k = if e.uses_k { "  [uses --k]" } else { "" };
        let w = if e.weight_aware { "  [weights]" } else { "" };
        out.push_str(&format!(
            "      {:width$}  {}{}{}\n",
            e.name, e.summary, k, w
        ));
    }
    out
}

/// An algorithm request: registry label + parameters. The unit of
/// dispatch everywhere — CLI flags parse into one, experiment line-ups
/// are lists of them, the batch engine executes them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AlgoSpec {
    /// Registry label, e.g. `"fpa"`.
    pub name: String,
    /// Parameters handed to the factory.
    pub params: AlgoParams,
}

impl AlgoSpec {
    /// Spec for `name` with default parameters.
    pub fn new(name: &str) -> Self {
        AlgoSpec {
            name: name.to_lowercase(),
            params: AlgoParams::default(),
        }
    }

    /// Spec for `name` with the given `k`.
    pub fn with_k(name: &str, k: u32) -> Self {
        AlgoSpec {
            name: name.to_lowercase(),
            params: AlgoParams {
                k,
                ..AlgoParams::default()
            },
        }
    }

    /// Disable FPA's layer pruning (no effect on other algorithms).
    pub fn without_pruning(mut self) -> Self {
        self.params.layer_pruning = false;
        self
    }

    /// Serve the weighted density modularity (see
    /// [`AlgoParams::weighted`]): `AlgoSpec::new("fpa").weighted()`
    /// builds the same searcher as `AlgoSpec::new("fpa-w")`.
    pub fn weighted(mut self) -> Self {
        self.params.weighted = true;
        self
    }

    /// Whether this spec resolves to a searcher maximising the
    /// *weighted* objective: either [`AlgoParams::weighted`] is set or
    /// the label is one of the canonical weighted entries (`fpa-w` /
    /// `nca-w`, which build the weighted searchers unconditionally).
    /// The JSON `summary.weighted` field reports this.
    pub fn serves_weighted(&self) -> bool {
        self.params.weighted || matches!(self.name.as_str(), "fpa-w" | "nca-w")
    }

    /// Instantiate the algorithm. An unregistered label is an
    /// [`EngineError::UnknownAlgo`] carrying the nearest-name suggestion.
    pub fn build(&self) -> Result<Box<dyn CommunitySearch>, EngineError> {
        find(&self.name)
            .map(|e| e.build(&self.params))
            .ok_or_else(|| EngineError::unknown_algo(self.name.clone()))
    }
}

/// The default baseline line-up of the synthetic experiments (Fig 8/9):
/// `kc` (k=3), `kt` (k=4), `kecc` (k=3), `huang2015`, `wu2015` (η=0.5),
/// `highcore`, `hightruss` — §6.1 "Parameter Setting".
pub fn default_baseline_specs() -> Vec<AlgoSpec> {
    vec![
        AlgoSpec::with_k("kc", 3),
        AlgoSpec::with_k("kt", 4),
        AlgoSpec::with_k("kecc", 3),
        AlgoSpec::new("huang2015"),
        AlgoSpec::new("wu2015"),
        AlgoSpec::new("highcore"),
        AlgoSpec::new("hightruss"),
    ]
}

/// The extended line-up of the small-graph experiments (Fig 15/16), which
/// adds the expensive algorithms: `clique`, `GN`, `CNM`, `icwi2008`.
pub fn small_graph_baseline_specs() -> Vec<AlgoSpec> {
    let mut v = vec![
        AlgoSpec::new("clique"),
        AlgoSpec::new("gn"),
        AlgoSpec::new("cnm"),
        AlgoSpec::new("icwi2008"),
    ];
    v.extend(default_baseline_specs());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_builds_and_lookup_is_case_insensitive() {
        let params = AlgoParams::default();
        for e in REGISTRY {
            let algo = e.build(&params);
            assert!(!algo.name().is_empty(), "{} has a display name", e.name);
        }
        assert!(find("FPA").is_some());
        assert!(find("zeus").is_none());
    }

    #[test]
    fn labels_and_display_names_are_unique() {
        let mut labels = names();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), REGISTRY.len());
        let mut display: Vec<&str> = REGISTRY
            .iter()
            .map(|e| e.build(&AlgoParams::default()).name())
            .collect();
        display.sort_unstable();
        display.dedup();
        assert_eq!(display.len(), REGISTRY.len());
    }

    #[test]
    fn lineups_have_expected_sizes_and_build() {
        let build = |specs: Vec<AlgoSpec>| -> Vec<_> {
            specs
                .iter()
                .map(|s| s.build().expect("registered algorithm"))
                .collect()
        };
        assert_eq!(build(default_baseline_specs()).len(), 7);
        assert_eq!(build(small_graph_baseline_specs()).len(), 11);
    }

    #[test]
    fn suggestions_catch_typos_but_not_noise() {
        assert_eq!(suggest("fpa-dgm"), Some("fpa-dmg"));
        assert_eq!(suggest("luovain"), Some("louvain"));
        assert_eq!(suggest("NCA"), Some("nca"), "case-insensitive");
        assert_eq!(suggest("qqqqqqqqqq"), None);
    }

    #[test]
    fn spec_params_reach_the_factory() {
        let spec = AlgoSpec::new("fpa").without_pruning();
        assert!(spec.build().is_ok());
        assert!(!spec.params.layer_pruning);
        let kc = AlgoSpec::with_k("kc", 5);
        assert_eq!(kc.params.k, 5);
        assert!(AlgoSpec::new("no-such-algo").build().is_err());
    }

    #[test]
    fn weightedness_threads_through_specs_and_labels() {
        // The weighted param reroutes fpa/nca to the weighted searchers…
        assert_eq!(
            AlgoSpec::new("fpa").weighted().build().unwrap().name(),
            "W-FPA"
        );
        assert_eq!(
            AlgoSpec::new("nca").weighted().build().unwrap().name(),
            "W-NCA"
        );
        // …which is exactly what the canonical -w labels build.
        assert_eq!(AlgoSpec::new("fpa-w").build().unwrap().name(), "W-FPA");
        assert_eq!(AlgoSpec::new("nca-w").build().unwrap().name(), "W-NCA");
        // Unweighted specs keep the classic implementations.
        assert_eq!(AlgoSpec::new("fpa").build().unwrap().name(), "FPA");
        // Weight-awareness is a registry attribute the CLI validates on.
        for (label, aware) in [
            ("fpa", true),
            ("nca-w", true),
            ("kc", false),
            ("louvain", false),
        ] {
            assert_eq!(find(label).unwrap().weight_aware, aware, "{label}");
        }
        // Typos near the weighted labels get suggestions.
        assert_eq!(suggest("fpa-v"), Some("fpa-w"));
        assert_eq!(suggest("nca-W"), Some("nca-w"));
        // serves_weighted covers both routes to a weighted searcher.
        assert!(AlgoSpec::new("fpa-w").serves_weighted());
        assert!(AlgoSpec::new("fpa").weighted().serves_weighted());
        assert!(!AlgoSpec::new("fpa").serves_weighted());
    }

    #[test]
    fn mirror_safety_covers_exactly_the_shimmed_peelers() {
        let safe: Vec<&str> = REGISTRY
            .iter()
            .filter(|e| e.mirror_safe)
            .map(|e| e.name)
            .collect();
        assert_eq!(safe, ["fpa", "nca", "fpa-dmg", "nca-dr"]);
        // The canonical weighted labels must never mirror-serve.
        assert!(!find("fpa-w").unwrap().mirror_safe);
        assert!(!find("nca-w").unwrap().mirror_safe);
    }

    #[test]
    fn algo_help_lists_every_label() {
        let help = algo_help();
        for e in REGISTRY {
            assert!(help.contains(e.name), "{} missing from help", e.name);
        }
    }
}
