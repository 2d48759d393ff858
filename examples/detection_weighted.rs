//! The two extensions in one tour: DM-based community *detection* (the
//! paper's §7 future work) and *weighted* DMCS (the general form of
//! Definition 2).
//!
//! ```text
//! cargo run --release --example detection_weighted
//! ```

use dmcs::core::detect::{detect_communities, partition_density_modularity, DetectConfig};
use dmcs::core::{CommunitySearch, Fpa};
use dmcs::gen::ring;
use dmcs::graph::weighted::WeightedGraphBuilder;

fn main() {
    // --- Part 1: detection on the resolution-limit showcase.
    // Classic-modularity detectors famously merge adjacent cliques on this
    // ring (Fortunato & Barthélemy 2007); DM-based detection must not.
    let g = ring::ring_of_cliques(12, 5);
    let (labels, comms) = detect_communities(&g, DetectConfig::default());
    println!(
        "ring of 12 five-cliques: DM detection found {} communities (want 12)",
        comms.len()
    );
    let sizes: Vec<usize> = comms.iter().map(|c| c.len()).collect();
    println!("community sizes: {sizes:?}");
    println!(
        "partition density modularity: {:.3}",
        partition_density_modularity(&g, &comms)
    );
    assert_eq!(labels.len(), g.n());

    // --- Part 2: weighted DMCS.
    // A collaboration graph where edge weight = number of joint papers.
    // Two triangles share a bridge; the right one collaborates 10x more.
    let mut b = WeightedGraphBuilder::new(6);
    b.add_edge(0, 1, 1.0);
    b.add_edge(1, 2, 1.0);
    b.add_edge(0, 2, 1.0);
    b.add_edge(3, 4, 10.0);
    b.add_edge(4, 5, 10.0);
    b.add_edge(3, 5, 10.0);
    b.add_edge(2, 3, 0.5);
    let wg = b.build();
    println!("\nweighted barbell (right side 10x heavier):");
    for q in [0u32, 4] {
        let r = Fpa::default()
            .weighted()
            .search(&wg, &[q])
            .expect("valid query");
        println!(
            "  query {q} -> community {:?} (weighted DM = {:.3})",
            r.community, r.density_modularity
        );
    }
    // Note the normalisation at work: the heavy triangle's larger w_C is
    // offset by its larger strength penalty d_C²/(4 w_G) — both triangles
    // are equally "good" communities relative to their own scale, and the
    // bridge node is excluded from both.
    println!(
        "\nwith the bridge absorbed: DM({{2..5}}) = {:.3} < DM({{3,4,5}}) = {:.3}",
        wg.weighted_density_modularity(&[2, 3, 4, 5]),
        wg.weighted_density_modularity(&[3, 4, 5])
    );
}
