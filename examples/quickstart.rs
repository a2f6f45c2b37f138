//! Quickstart: derive a pod, compose a Scale-Out Processor, and compare
//! it against a conventional server chip.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use scale_out_processors::core::designs::{reference_chip, DesignKind};
use scale_out_processors::core::pod::{optimal_pod, preferred_pod, PodSearchSpace};
use scale_out_processors::exec::cli::Command;
use scale_out_processors::tech::{CoreKind, TechnologyNode};

static CLI: Command = Command::new(
    "quickstart",
    "",
    (0, 0),
    "derive a pod, compose a Scale-Out Processor, compare it with a conventional chip",
);

fn main() {
    CLI.parse(std::env::args().skip(1));
    let node = TechnologyNode::N40;

    // 1. Derive the performance-density-optimal pod for out-of-order
    //    cores: sweep core count x LLC capacity x interconnect.
    let space = PodSearchSpace::thesis_chapter3(CoreKind::OutOfOrder, node);
    let peak = optimal_pod(&space);
    let pod = preferred_pod(&space, 0.05);
    println!(
        "performance-density peak: {} cores + {}MB (PD {:.4})",
        peak.config.cores, peak.config.llc_mb, peak.performance_density
    );
    println!(
        "adopted pod (within 5%):  {} cores + {}MB crossbar",
        pod.config.cores, pod.config.llc_mb
    );
    println!(
        "  {:.0}mm2, {:.1}W, {:.1}GB/s worst-case off-chip demand",
        pod.area_mm2, pod.power_w, pod.bandwidth_gbps
    );

    // 2. Tile pods onto a die under area/power/bandwidth budgets.
    let sop = reference_chip(DesignKind::ScaleOut(CoreKind::OutOfOrder), node);
    println!(
        "\nScale-Out Processor: {} cores, {} channels, {:.0}mm2, {:.0}W",
        sop.cores, sop.memory_channels, sop.die_mm2, sop.power_w
    );

    // 3. Compare against the conventional server chip.
    let conv = reference_chip(DesignKind::Conventional, node);
    println!("\nperformance density (aggregate app-IPC per mm2):");
    println!("  conventional  {:.3}", conv.performance_density);
    println!(
        "  scale-out     {:.3}  ({:.1}x)",
        sop.performance_density,
        sop.performance_density / conv.performance_density
    );
}
