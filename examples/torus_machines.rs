//! Machine-model tour: the BlueGene/L torus, task mappings, and the MCR
//! cluster comparison (§4.1 and Figure 1).
//!
//! Shows (a) the raw machine models, (b) how the Figure 1 folded-planes
//! task mapping keeps expand/fold groups physically compact compared to
//! naive mappings, and (c) the same BFS run costed on BlueGene/L vs the
//! MCR Linux cluster — the paper's "conventional platform" comparison.
//!
//! ```sh
//! cargo run --release --example torus_machines
//! ```

use bgl_bfs::comm::ChunkPolicy;
use bgl_bfs::core::bfs2d;
use bgl_bfs::torus::{
    mean_hop_distance, LogicalArray, MachineConfig, TaskMapping, TaskMappingKind,
};
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // (a) the machines.
    for (name, m) in [
        ("BlueGene/L (full)", MachineConfig::bluegene_l_full()),
        (
            "BlueGene/L (half, the paper's partition)",
            MachineConfig::bluegene_l_half(),
        ),
        ("MCR Linux cluster", MachineConfig::mcr_cluster()),
    ] {
        let hops = match m.kind {
            bgl_bfs::torus::MachineKind::Torus3D => mean_hop_distance(m.dims),
            bgl_bfs::torus::MachineKind::Flat => 1.0,
        };
        println!(
            "{name}: {} nodes, {} MiB/node, {:.0} MB/s per link, mean hop distance {:.1}",
            m.node_count(),
            m.memory_per_node / (1024 * 1024),
            m.link_bandwidth / 1e6,
            hops
        );
    }

    // (b) task mappings for a 16x16 logical processor array.
    let logical = LogicalArray::new(16, 16);
    let dims = TaskMapping::paper_torus_for(logical);
    println!(
        "\nmapping a 16x16 logical array onto a {}x{}x{} torus (Figure 1):",
        dims.x, dims.y, dims.z
    );
    println!(
        "{:>15} {:>22} {:>22}",
        "mapping", "mean expand ring hops", "mean fold ring hops"
    );
    for (name, kind) in [
        ("folded planes", TaskMappingKind::FoldedPlanes),
        ("row major", TaskMappingKind::RowMajor),
        ("scrambled", TaskMappingKind::Scrambled),
    ] {
        let m = TaskMapping::new(kind, logical, dims);
        println!(
            "{:>15} {:>22.1} {:>22.1}",
            name,
            m.mean_expand_ring_cost(),
            m.mean_fold_ring_cost()
        );
    }

    // (c) the same search costed on both machines.
    let spec = GraphSpec::poisson(64_000, 10.0, 11);
    let grid = ProcessorGrid::new(8, 8);
    let graph = DistGraph::build(spec, grid);
    println!("\nsame BFS (n=64000, k=10, 8x8 grid) on both machines:");
    for (name, machine) in [
        (
            "BlueGene/L",
            MachineConfig::bluegene_l_partition(MachineConfig::fit_partition(64)),
        ),
        ("MCR cluster", MachineConfig::mcr_cluster()),
    ] {
        let mut world = SimWorld::new(
            grid,
            machine,
            TaskMappingKind::FoldedPlanes,
            ChunkPolicy::Unbounded,
        );
        let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0)?;
        println!(
            "  {name:<12}: {:.3} ms simulated ({:.3} ms comm, {:.3} ms compute)",
            r.stats.sim_time * 1e3,
            r.stats.comm_time * 1e3,
            r.stats.compute_time * 1e3
        );
    }
    println!(
        "\nthe MCR model has faster per-node compute but higher per-message latency — \
         the trade the paper explored by running on both platforms."
    );
    Ok(())
}
