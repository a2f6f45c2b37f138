//! Explore 3D-stacked pods: fixed-pod versus fixed-distance scaling —
//! the chapter-6 post-Moore study.
//!
//! ```text
//! cargo run --release --example stacked_3d
//! ```

use scale_out_processors::exec::cli::Command;
use scale_out_processors::tech::CoreKind;
use scale_out_processors::threed::{compose_3d, Pod3d, StackStrategy};

static CLI: Command = Command::new(
    "stacked_3d",
    "",
    (0, 0),
    "fixed-pod versus fixed-distance 3D pod scaling",
);

fn main() {
    CLI.parse(std::env::args().skip(1));
    for (kind, base_cores, base_mb) in [
        (CoreKind::OutOfOrder, 32, 2.0),
        (CoreKind::InOrder, 64, 2.0),
    ] {
        println!("== {kind:?} pods (base: {base_cores} cores + {base_mb}MB per die) ==");
        println!(
            "  {:>4} {:14} {:>10} {:>10} {:>6} {:>10}",
            "dies", "strategy", "pod cfg", "footprint", "pods", "PD3D"
        );
        for dies in [1u32, 2, 4] {
            for strategy in [StackStrategy::FixedPod, StackStrategy::FixedDistance] {
                if dies == 1 && strategy == StackStrategy::FixedDistance {
                    continue;
                }
                let pod = Pod3d::new(kind, base_cores, base_mb, dies, strategy);
                let chip = compose_3d(&pod);
                println!(
                    "  {:>4} {:14} {:>5}c/{:>2.0}MB {:>8.1}mm2 {:>5} {:>10.4}",
                    dies,
                    format!("{strategy:?}"),
                    pod.total_cores(),
                    pod.total_llc_mb(),
                    pod.footprint_mm2(),
                    chip.pods,
                    chip.performance_density_3d
                );
            }
        }
        println!();
    }
    println!("stacking keeps Moore-style gains flowing once planar scaling stops:");
    println!("either the same pod gets physically smaller (fixed-pod) or it grows");
    println!("without getting slower (fixed-distance).");
}
