//! Weighted DMCS: community search when the signal lives in the edge
//! weights — e.g. co-authorship counts, interaction frequencies, call
//! volumes — rather than in the raw topology.
//!
//! ```text
//! cargo run --release --example weighted_search
//! ```

use dmcs::core::{Fpa, Nca};
use dmcs::gen::sbm;
use dmcs::graph::weighted::WeightedGraphBuilder;
use dmcs::metrics::nmi;
use dmcs::prelude::CommunitySearch;

fn main() {
    // Two planted blocks of 30 with nearly indistinguishable topology:
    // p_in = 0.30 vs p_out = 0.22. Unweighted search has almost nothing
    // to work with.
    let block = 30usize;
    let (topo, comms) = sbm::planted_partition(&[block, block], 0.30, 0.22, 42);
    let truth = &comms[0];

    // But interactions *inside* a block are five times heavier.
    let mut b = WeightedGraphBuilder::new(topo.n());
    for (u, v) in topo.edges() {
        let same_block = ((u as usize) < block) == ((v as usize) < block);
        b.add_edge(u, v, if same_block { 5.0 } else { 1.0 });
    }
    let wg = b.build();

    let q = truth[0];
    println!("planted 2x{block} blocks, p_in=0.30 / p_out=0.22, intra weight 5x, query {q}\n");

    let unweighted = Fpa::default().search(&topo, &[q]).expect("valid query");
    let wfpa = Fpa::default()
        .weighted()
        .search(&wg, &[q])
        .expect("valid query");
    let wnca = Nca::default()
        .weighted()
        .search(&wg, &[q])
        .expect("valid query");

    let n = topo.n();
    let report = |label: &str, community: &[u32], dm: f64| {
        println!(
            "  {label:<18} |C| = {:>3}   NMI vs block = {:.3}   objective = {:.3}",
            community.len(),
            nmi(n, community, truth),
            dm
        );
    };
    report(
        "FPA (unweighted)",
        &unweighted.community,
        unweighted.density_modularity,
    );
    report("W-FPA", &wfpa.community, wfpa.density_modularity);
    report("W-NCA", &wnca.community, wnca.density_modularity);

    // Weighted DM of the planted block vs the whole graph, for reference.
    println!(
        "\n  weighted DM(block) = {:.3}   weighted DM(V) = {:.3}",
        wg.weighted_density_modularity(truth),
        wg.weighted_density_modularity(&(0..n as u32).collect::<Vec<_>>())
    );
    println!(
        "\nThe weighted searches should recover most of the planted block;\n\
         the unweighted FPA sees a near-uniform topology and cannot."
    );
}
