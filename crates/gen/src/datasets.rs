//! Dataset bundles: a graph plus its ground-truth communities, and the
//! registry of every dataset the experiment harness loads (Table 1 of the
//! paper, with the substitutions documented in DESIGN.md §3).

use crate::{karate, lfr, sbm};
use dmcs_graph::{Graph, NodeId};

/// A graph with ground-truth community information.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name (matches Table 1 or the stand-in naming).
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// Ground-truth communities (node sets). May overlap when
    /// `overlapping` is true.
    pub communities: Vec<Vec<NodeId>>,
    /// Whether community membership is overlapping (Table 1's "overlap"
    /// column).
    pub overlapping: bool,
}

impl Dataset {
    /// Table-1 style statistics row: (|V|, |E|, |C|).
    pub fn stats(&self) -> (usize, usize, usize) {
        (self.graph.n(), self.graph.m(), self.communities.len())
    }
}

/// The Karate dataset with its two factions.
pub fn karate_dataset() -> Dataset {
    Dataset {
        name: "Karate".to_string(),
        graph: karate::karate(),
        communities: vec![karate::faction_mr_hi(), karate::faction_officer()],
        overlapping: false,
    }
}

/// The four small "distinct ground-truth communities" datasets of Fig 15:
/// Karate (exact) plus the Dolphin / Mexican / Polblogs stand-ins.
pub fn small_real_world(seed: u64) -> Vec<Dataset> {
    vec![
        sbm::dolphin_like(seed),
        karate_dataset(),
        sbm::mexican_like(seed.wrapping_add(1)),
        sbm::polblogs_like(seed.wrapping_add(2)),
    ]
}

/// Reduced-scale stand-ins for the large overlapping-community datasets of
/// Fig 17 (DBLP / Youtube / LiveJournal). Overlapping LFR graphs whose
/// *relative* scale ordering matches the originals.
pub fn large_overlapping(seed: u64) -> Vec<Dataset> {
    let mk = |name: &str, n: usize, avg: f64, seed: u64| -> Dataset {
        let cfg = lfr::LfrConfig {
            n,
            avg_degree: avg,
            max_degree: (n / 20).max(30),
            mu: 0.25,
            overlap_fraction: 0.15,
            seed,
            ..lfr::LfrConfig::default()
        };
        let g = lfr::generate(&cfg);
        Dataset {
            name: name.to_string(),
            graph: g.graph,
            communities: g.communities,
            overlapping: true,
        }
    };
    vec![
        // DBLP: n=317k, avg deg ~6.6 -> stand-in 8k, sparse.
        mk("DBLP-like", 8_000, 6.6, seed),
        // Youtube: n=1.13M, avg deg ~5.3 -> stand-in 12k, sparser.
        mk("Youtube-like", 12_000, 5.3, seed.wrapping_add(1)),
        // LiveJournal: n=4M, avg deg ~17 -> stand-in 16k, denser.
        mk("LiveJournal-like", 16_000, 12.0, seed.wrapping_add(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn karate_dataset_stats() {
        let d = karate_dataset();
        assert_eq!(d.stats(), (34, 78, 2));
        assert!(!d.overlapping);
    }

    #[test]
    fn small_real_world_matches_table1_sizes() {
        let ds = small_real_world(11);
        let stats: Vec<_> = ds.iter().map(|d| (d.name.clone(), d.stats())).collect();
        assert_eq!(stats[0].1, (62, 159, 2)); // dolphin-like
        assert_eq!(stats[1].1, (34, 78, 2)); // karate
        assert_eq!(stats[2].1, (35, 117, 2)); // mexican-like
        assert_eq!(stats[3].1, (1224, 16718, 2)); // polblogs-like
    }
}
