//! Availability-derated datacenter capacity: run the graceful-degradation
//! sweep (pod throughput vs fraction of dead routers), fit the measured
//! curve, and price the degrade-vs-drain repair policies against the
//! chapter-5 TCO model.
//!
//! ```text
//! cargo run --release --example derated_capacity [--quick]
//! ```

use scale_out_processors::bench::degradation;
use scale_out_processors::core::designs::DesignKind;
use scale_out_processors::exec::cli::{Command, Flag};
use scale_out_processors::tco::{derated_performance, Datacenter, DegradationCurve, TcoParams};
use scale_out_processors::tech::CoreKind;

static CLI: Command = Command::new(
    "derated_capacity",
    "",
    (0, 0),
    "price degrade-vs-drain repair against the measured degradation curve",
)
.flags(&[Flag::switch("--quick", "shorter degradation sweep")]);

fn main() {
    let quick = CLI.parse(std::env::args().skip(1)).switch("--quick");

    println!("Measuring the degradation curve (seeded router deaths)...\n");
    let rows = degradation::sweep(quick);
    println!("  dead  failed%  relative");
    for r in &rows {
        println!(
            "  {:>4}  {:>6.1}%  {:>7.4}",
            r.dead_routers,
            r.failed_fraction * 100.0,
            r.relative_performance
        );
    }

    let curve = DegradationCurve::new(
        rows.iter()
            .map(|r| (r.failed_fraction, r.relative_performance))
            .collect(),
    );

    // Steady state: failure rate x repair latency leaves ~6% of routers
    // dead inside a damaged pod, and ~20% of pods carrying some damage.
    let expected_failed = 0.0625;
    let damaged_pods = 0.20;
    let (degrade, drain) = derated_performance(&curve, expected_failed, damaged_pods);

    let params = TcoParams::thesis();
    let dc = Datacenter::for_design(DesignKind::ScaleOut(CoreKind::InOrder), &params, 64);
    let healthy = dc.perf_per_tco();

    println!("\nScale-Out (IO) 20MW facility, {} racks", params.racks());
    println!(
        "  {:>5.1}% of pods damaged, {:>5.2}% of routers dead inside them",
        damaged_pods * 100.0,
        expected_failed * 100.0
    );
    println!(
        "  perf/TCO healthy:          {healthy:10.3}\n  \
           perf/TCO degrade-in-place: {:10.3}  ({:.1}% retained)\n  \
           perf/TCO drain-and-repair: {:10.3}  ({:.1}% retained)",
        healthy * degrade,
        degrade * 100.0,
        healthy * drain,
        drain * 100.0
    );
    println!(
        "\ngraceful degradation retains {:.1}% more datacenter capacity than\n\
         draining damaged pods outright.",
        (degrade - drain) * 100.0
    );
}
