//! Simulate a 64-core pod on three on-chip networks — the chapter-4
//! NOC-Out experiment — with the cycle-level CMP simulator.
//!
//! ```text
//! cargo run --release --example nocout_pod [workload]
//! ```
//!
//! where `workload` is one of: dataserving, mapreduce-c, mapreduce-w,
//! streaming, sat, frontend, search (default: search). Anything else
//! exits 2 naming the valid set.

use scale_out_processors::exec::cli::Command;
use scale_out_processors::noc::{NocAreaBreakdown, NocConfig, TopologyKind};
use scale_out_processors::sim::{Machine, SimConfig};
use scale_out_processors::workloads::Workload;

static CLI: Command = Command::new(
    "nocout_pod",
    "[workload]",
    (0, 1),
    "simulate the 64-core pod on the mesh, flattened butterfly and NOC-Out",
)
.choices(&[
    "dataserving",
    "mapreduce-c",
    "mapreduce-w",
    "streaming",
    "sat",
    "frontend",
    "search",
]);

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let workload = match args.positional(0) {
        Some("dataserving") => Workload::DataServing,
        Some("mapreduce-c") => Workload::MapReduceC,
        Some("mapreduce-w") => Workload::MapReduceW,
        Some("streaming") => Workload::MediaStreaming,
        Some("sat") => Workload::SatSolver,
        Some("frontend") => Workload::WebFrontend,
        _ => Workload::WebSearch,
    };
    println!("64-core pod, 8MB LLC, 4 x DDR3 — workload: {workload}\n");
    println!(
        "{:22} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "fabric", "agg IPC", "pkt lat", "snoop%", "LLC miss%", "NOC mm2"
    );
    let mut mesh_ipc = None;
    for kind in [
        TopologyKind::Mesh,
        TopologyKind::FlattenedButterfly,
        TopologyKind::NocOut,
    ] {
        let cfg = SimConfig::pod_64(workload, kind);
        let area =
            NocAreaBreakdown::of(&NocConfig::pod_64(kind).build_topology(), cfg.noc.link_bits);
        let r = Machine::new(cfg).run(6_000, 14_000);
        let ipc = r.aggregate_ipc();
        mesh_ipc.get_or_insert(ipc);
        println!(
            "{:22} {:>9.2} {:>9.1} {:>7.1}% {:>8.1}% {:>9.2}   p50<{} p99<{}",
            format!("{kind:?}"),
            ipc,
            r.mean_packet_latency,
            r.snoop_fraction() * 100.0,
            r.llc_misses as f64 / r.llc_accesses.max(1) as f64 * 100.0,
            area.total_mm2(),
            r.request_latency.quantile_upper(0.5),
            r.request_latency.quantile_upper(0.99),
        );
    }
    println!(
        "\nNOC-Out's pitch: flattened-butterfly performance at about a tenth of\nits network area, and {}+% over the mesh.",
        5
    );
}
