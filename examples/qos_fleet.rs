//! Provision a mixed-QoS facility: out-of-order Scale-Out chips for the
//! latency-sensitive pool, in-order for batch (§5.3.1's guidance).
//!
//! ```text
//! cargo run --release --example qos_fleet [latency_fraction]
//! ```
//!
//! `latency_fraction` is a number in [0, 1] (default 0.6); anything else
//! exits 2.

use scale_out_processors::exec::cli::{fail, Command};
use scale_out_processors::tco::{MixedFleet, TcoParams};
use scale_out_processors::workloads::QosClass;

static CLI: Command = Command::new(
    "qos_fleet",
    "[latency_fraction]",
    (0, 1),
    "provision a mixed latency/batch facility (fraction in [0, 1], default 0.6)",
);

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let fraction = args.positional(0).map_or(0.6, |a| {
        a.parse::<f64>()
            .ok()
            .filter(|f| (0.0..=1.0).contains(f))
            .unwrap_or_else(|| {
                fail(format_args!(
                    "qos_fleet: latency_fraction must be a number in [0, 1], got {a:?}"
                ))
            })
    });
    let params = TcoParams::thesis();
    println!(
        "mixed fleet: {:.0}% latency-sensitive, {:.0}% batch\n",
        fraction * 100.0,
        (1.0 - fraction) * 100.0
    );
    let fleet = MixedFleet::provision(fraction, &params, 64);
    for pool in &fleet.pools {
        println!(
            "  {:18} {:>4.0}%  {:22} perf/TCO {:.3}",
            format!("{:?}", pool.qos),
            pool.fraction * 100.0,
            pool.datacenter.chip.label,
            pool.datacenter.perf_per_tco()
        );
    }
    println!("\n  blended perf/TCO: {:.3}", fleet.perf_per_tco());
    println!(
        "  ({} serves the tight-latency tier; {} mops up throughput)",
        fleet.chip_for(QosClass::LatencySensitive),
        fleet.chip_for(QosClass::Batch)
    );
    println!("\nsweep of the mix:");
    for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let f = MixedFleet::provision(pct, &params, 64);
        println!(
            "  {:>3.0}% latency -> blended perf/TCO {:.3}",
            pct * 100.0,
            f.perf_per_tco()
        );
    }
}
