//! Benchmarks the flit-level NOC simulator under pod traffic: the engine
//! behind Figs 4.6-4.8.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sop_noc::{MessageClass, Network, NocConfig, TopologyKind};

fn drive(kind: TopologyKind, cycles: u64) -> u64 {
    let mut net = Network::new(NocConfig::pod_64(kind));
    let cores = net.core_endpoints().to_vec();
    let llcs = net.llc_endpoints().to_vec();
    let mut delivered = Vec::new();
    for cycle in 0..cycles {
        for (i, &c) in cores.iter().enumerate() {
            if (cycle as usize + i).is_multiple_of(25) {
                let dst = llcs[(i * 13 + cycle as usize) % llcs.len()];
                if dst != c {
                    net.inject(c, dst, MessageClass::Request, cycle);
                    net.inject(dst, c, MessageClass::Response, cycle);
                }
            }
        }
        net.step(cycle, &mut delivered);
        delivered.clear();
    }
    net.counters().flit_hops
}

fn noc_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("noc/2k_cycles_under_load");
    group.sample_size(10);
    for kind in [
        TopologyKind::Mesh,
        TopologyKind::FlattenedButterfly,
        TopologyKind::NocOut,
    ] {
        group.bench_function(format!("{kind:?}"), |b| {
            b.iter_batched(|| (), |_| drive(kind, 2_000), BatchSize::PerIteration)
        });
    }
    group.finish();
}

criterion_group!(benches, noc_throughput);
criterion_main!(benches);
