//! Size a 20MW datacenter around each server-chip design and compare
//! performance per TCO dollar — the chapter-5 study.
//!
//! ```text
//! cargo run --release --example datacenter_tco [memory_gb]
//! ```
//!
//! `memory_gb` is a positive whole number (default 64); anything else
//! exits 2.

use scale_out_processors::core::designs::DesignKind;
use scale_out_processors::exec::cli::{fail, Command};
use scale_out_processors::tco::{Datacenter, TcoParams};

static CLI: Command = Command::new(
    "datacenter_tco",
    "[memory_gb]",
    (0, 1),
    "compare 20MW datacenters built around each chip (GB of DRAM per server, default 64)",
);

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let memory_gb = args.positional(0).map_or(64, |a| {
        a.parse::<u32>()
            .ok()
            .filter(|&gb| gb > 0)
            .unwrap_or_else(|| {
                fail(format_args!(
                    "datacenter_tco: memory_gb must be a positive whole number, got {a:?}"
                ))
            })
    });
    let params = TcoParams::thesis();
    println!(
        "20MW facility, {} racks, {}GB DRAM per 1U server\n",
        params.racks(),
        memory_gb
    );
    println!(
        "{:22} {:>8} {:>8} {:>12} {:>10} {:>10}",
        "chip", "sockets", "perf(x)", "TCO $/month", "perf/TCO", "perf/W"
    );
    let base = Datacenter::for_design(DesignKind::Conventional, &params, memory_gb);
    for design in DesignKind::table_5_1() {
        let dc = Datacenter::for_design(design, &params, memory_gb);
        println!(
            "{:22} {:>8} {:>8.2} {:>12.0} {:>10.3} {:>10.4}",
            dc.chip.label,
            dc.sockets_per_server,
            dc.performance / base.performance,
            dc.tco.total_usd(),
            dc.perf_per_tco(),
            dc.perf_per_watt()
        );
    }
    let sop = Datacenter::for_design(
        DesignKind::ScaleOut(scale_out_processors::tech::CoreKind::InOrder),
        &params,
        memory_gb,
    );
    println!(
        "\nheadline: Scale-Out (IO) delivers {:.1}x the performance/TCO of the\nconventional-processor datacenter (thesis: 4.4x-7.1x across designs).",
        sop.perf_per_tco() / base.perf_per_tco()
    );
}
