//! Regenerate the data behind every figure/theorem of the paper.
//!
//! ```text
//! cargo run --release -p rim-bench --bin figures            # everything
//! cargo run --release -p rim-bench --bin figures -- F8 S1   # selected ids
//! cargo run --release -p rim-bench --bin figures -- --csv results/
//! cargo run --release -p rim-bench --bin figures -- --svg figures/  # SVG renders
//! ```
//!
//! Experiment ids: F1 F1T F2 T41 F7 F8 T52 F9 T56 T56L S1 S2 S3 X1 X2
//! P1 M1 A1 A2 B2D (see DESIGN.md for the paper artifact each id
//! reproduces).

#![forbid(unsafe_code)]

use rim_bench::experiments as ex;
use rim_bench::record::{render_table, to_csv};
use std::path::{Path, PathBuf};

/// Renders the paper's visual figures as SVG files.
fn write_svgs(dir: &Path) {
    use rim_highway::exponential::two_chains;
    use rim_topology_control::nnf::nearest_neighbor_forest;
    use rim_udg::udg::unit_disk_graph;
    use rim_viz::{render_highway_arcs, render_topology, RenderOptions};

    std::fs::create_dir_all(dir).expect("create svg dir");
    let save = |name: &str, content: String| {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write svg");
        println!("(wrote {})", path.display());
    };

    // Figure 2: the five-node sample with its interference disks.
    let ns = rim_udg::NodeSet::new(vec![
        rim_geom::Point::new(0.0, 0.0),
        rim_geom::Point::new(-0.2, 0.0),
        rim_geom::Point::new(0.8, 0.0),
        rim_geom::Point::new(1.3, 0.65),
        rim_geom::Point::new(-0.15, 0.08),
    ]);
    let fig2 = rim_udg::Topology::from_pairs(ns, &[(0, 1), (2, 3), (1, 4)]);
    save(
        "fig2_sample.svg",
        render_topology(
            &fig2,
            RenderOptions {
                show_disks: true,
                show_interference: true,
                ..RenderOptions::default()
            },
        ),
    );

    // Figures 3-5: the two-chain construction, NNF vs witness.
    let tc = two_chains(10);
    let udg = unit_disk_graph(&tc.nodes);
    let nnf = nearest_neighbor_forest(&tc.nodes, &udg);
    save("fig4_nnf.svg", render_topology(&nnf, RenderOptions::default()));
    save(
        "fig5_witness.svg",
        render_topology(&tc.witness_topology(), RenderOptions::default()),
    );

    // Figure 7: the linearly connected exponential chain (log axis).
    let chain = rim_highway::exponential_chain(16);
    save(
        "fig7_linear_chain.svg",
        render_highway_arcs(&chain, &chain.linear_topology(), true),
    );

    // Figure 8: A_exp on the exponential chain, arcs + hollow hubs.
    let aexp = rim_highway::a_exp(&chain);
    save(
        "fig8_aexp.svg",
        render_highway_arcs(&chain, &aexp.topology, true),
    );

    // Figure 9: A_gen on a uniform highway (linear axis).
    let h = rim_workloads::uniform_highway(60, 2.5, 17);
    let agen = rim_highway::a_gen(&h);
    save(
        "fig9_agen.svg",
        render_highway_arcs(&h, &agen.topology, false),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv_dir: Option<PathBuf> = None;
    let mut svg_dir: Option<PathBuf> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--csv" {
            csv_dir = Some(PathBuf::from(
                it.next().expect("--csv needs a directory"),
            ));
        } else if a == "--svg" {
            svg_dir = Some(PathBuf::from(
                it.next().expect("--svg needs a directory"),
            ));
        } else {
            selected.push(a.to_uppercase());
        }
    }
    if let Some(dir) = &svg_dir {
        write_svgs(dir);
    }
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    if selected.iter().any(|s| s == "SVG-ONLY") {
        return;
    }
    for ex::Experiment { id, title, run } in ex::EXPERIMENTS {
        if !want(id) {
            continue;
        }
        println!("\n=== {id}: {title} ===");
        let rows = run();
        print!("{}", render_table(&rows));
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{}.csv", id.to_lowercase()));
            std::fs::write(&path, to_csv(&rows)).expect("write csv");
            println!("(wrote {})", path.display());
        }
    }
}
