//! Validate the analytic model against the cycle-level simulator for one
//! workload — a single panel of Fig 3.3, with error statistics and a
//! SimFlex-style confidence interval on each simulated point.
//!
//! ```text
//! cargo run --release --example validate_model [search|sat|dataserving|mapreduce-w]
//! ```
//!
//! The default is `search`; any other argument exits 2 naming the valid
//! set.

use scale_out_processors::exec::cli::Command;
use scale_out_processors::model::{DesignPoint, ErrorStats, Interconnect};
use scale_out_processors::noc::TopologyKind;
use scale_out_processors::sim::{measure, SimConfig};
use scale_out_processors::tech::{CoreKind, TechnologyNode};
use scale_out_processors::workloads::Workload;

static CLI: Command = Command::new(
    "validate_model",
    "[workload]",
    (0, 1),
    "model-vs-simulator IPC for one workload on a 4MB-LLC crossbar",
)
.choices(&["search", "sat", "dataserving", "mapreduce-w"]);

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let workload = match args.positional(0) {
        Some("sat") => Workload::SatSolver,
        Some("dataserving") => Workload::DataServing,
        Some("mapreduce-w") => Workload::MapReduceW,
        _ => Workload::WebSearch,
    };
    println!("model validation: {workload}, crossbar, 4MB LLC\n");
    println!(
        "  {:>6} {:>12} {:>10} {:>8} {:>8}",
        "cores", "sim (95% CI)", "model", "error", "rel CI"
    );
    let mut stats = ErrorStats::new();
    for cores in [1u32, 2, 4, 8, 16, 32] {
        let cfg = SimConfig::validation(workload, cores, TopologyKind::Crossbar);
        let sampled = measure(cfg, 4, 1_500, 4_000);
        let sim = sampled.mean / f64::from(cores);
        let model = DesignPoint::new(CoreKind::OutOfOrder, cores, 4.0, Interconnect::Crossbar)
            .at_node(TechnologyNode::N40)
            .evaluate(workload)
            .per_core_ipc;
        stats.record(model, sim);
        println!(
            "  {:>6} {:>5.2} ±{:>4.2} {:>10.2} {:>7.0}% {:>7.1}%",
            cores,
            sim,
            sampled.ci95 / f64::from(cores),
            model,
            ((model - sim) / sim * 100.0).abs(),
            sampled.relative_error() * 100.0
        );
    }
    println!(
        "\n  mean |error| {:.0}%, bias {:+.0}%, shape correlation {:.2}",
        stats.mean_abs_error() * 100.0,
        stats.bias() * 100.0,
        stats.correlation()
    );
    println!("  (the thesis' model, parameterised from its own simulator, reports");
    println!("   a few percent; ours is independently calibrated — see EXPERIMENTS.md)");
}
