//! Pinned output of the flit-level NOC's switch allocator.
//!
//! Every fabric is driven with the same fixed, seeded mix of traffic —
//! 1-flit requests and snoops, 5-flit responses, and self-injected
//! packets that never touch the fabric — under both the worklist
//! engine (`Network::step`) and the full reference sweep
//! (`Network::step_full`). Each run is folded into one FNV-1a hash over
//! the delivered sequence (packet, source, destination, class, injection
//! and delivery cycle), the traffic counters (flit-millimetres as
//! bits) and every channel's utilization. The constants below were
//! recorded before the allocator was rewritten around request bitsets,
//! so any change to which flit wins which output, or when, fails here.

use scale_out_processors::noc::{Delivered, MessageClass, Network, NocConfig, TopologyKind};

/// Cycles of injection before the network is drained.
const INJECT_CYCLES: u64 = 600;
/// Drain horizon; every scenario empties long before it.
const DRAIN_CYCLES: u64 = 20_000;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// xorshift64*: a fixed stream, independent of any crate's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// True with probability `per_mille / 1000`.
    fn chance(&mut self, per_mille: u64) -> bool {
        self.next() % 1000 < per_mille
    }

    fn pick(&mut self, from: &[usize]) -> usize {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// One network step in either engine, appending what it delivered.
fn step(net: &mut Network, cycle: u64, full: bool, out: &mut Vec<Delivered>) {
    if full {
        net.step_full(cycle, out);
    } else {
        net.step(cycle, out);
    }
}

/// Drives `net` with the fixed traffic mix and hashes everything it
/// observably produced.
fn run(mut net: Network, full: bool) -> u64 {
    let cores = net.core_endpoints().to_vec();
    let llcs = net.llc_endpoints().to_vec();
    // About one response and a fifth of a snoop per cycle in total,
    // whatever the bank count.
    let response_per_mille = (1000 / llcs.len() as u64).max(1);
    let snoop_per_mille = (200 / llcs.len() as u64).max(1);
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut delivered = Vec::new();
    let mut cycle = 0;
    while cycle < INJECT_CYCLES {
        for &c in &cores {
            if rng.chance(60) {
                let dst = rng.pick(&llcs);
                net.inject(c, dst, MessageClass::Request, cycle);
            }
            if rng.chance(5) {
                net.inject(c, c, MessageClass::Request, cycle);
            }
            // A hot bank: its ejection port and the channels into it
            // saturate, so credits run out and round-robin decides.
            if rng.chance(10) {
                net.inject(c, llcs[0], MessageClass::Request, cycle);
            }
        }
        for &b in &llcs {
            if rng.chance(response_per_mille) {
                let dst = rng.pick(&cores);
                net.inject(b, dst, MessageClass::Response, cycle);
            }
            if rng.chance(snoop_per_mille) {
                let dst = rng.pick(&cores);
                net.inject(b, dst, MessageClass::SnoopRequest, cycle);
            }
            if rng.chance(3) {
                net.inject(b, b, MessageClass::Response, cycle);
            }
        }
        step(&mut net, cycle, full, &mut delivered);
        cycle += 1;
    }
    while net.in_flight() > 0 {
        assert!(
            cycle < INJECT_CYCLES + DRAIN_CYCLES,
            "network failed to drain"
        );
        step(&mut net, cycle, full, &mut delivered);
        cycle += 1;
    }
    let mut h = Fnv::new();
    h.word(delivered.len() as u64);
    for d in &delivered {
        h.word(u64::from(d.packet.index()));
        h.word(d.packet.generation());
        h.word(d.src as u64);
        h.word(d.dst as u64);
        h.word(d.class.vc() as u64);
        h.word(d.injected_at);
        h.word(d.delivered_at);
    }
    let c = net.counters();
    h.word(c.flit_hops);
    h.word(c.flit_mm.to_bits());
    h.word(c.packets);
    h.word(c.total_latency);
    for vc in 0..3 {
        h.word(c.class_flit_hops[vc]);
        h.word(c.class_packets[vc]);
        h.word(c.class_latency[vc]);
    }
    for (node, port, u) in net.channel_utilization(cycle) {
        h.word(node as u64);
        h.word(port as u64);
        h.word(u.to_bits());
    }
    h.0
}

/// Asserts both engines reproduce the recorded hash.
fn check(name: &str, build: impl Fn() -> Network, want: u64) {
    for full in [false, true] {
        let got = run(build(), full);
        assert_eq!(
            got, want,
            "{name} (step_full: {full}): got {got:#018x}, recorded {want:#018x}"
        );
    }
}

#[test]
fn pod_64_mesh_allocation_is_pinned() {
    check(
        "mesh",
        || Network::new(NocConfig::pod_64(TopologyKind::Mesh)),
        0xf882_3379_2780_b494,
    );
}

#[test]
fn pod_64_flattened_butterfly_allocation_is_pinned() {
    check(
        "flattened butterfly",
        || Network::new(NocConfig::pod_64(TopologyKind::FlattenedButterfly)),
        0xf69d_3bde_0a90_77bf,
    );
}

#[test]
fn pod_64_nocout_allocation_is_pinned() {
    check(
        "NOC-Out",
        || Network::new(NocConfig::pod_64(TopologyKind::NocOut)),
        0xbe90_0041_4e4e_47e8,
    );
}

#[test]
fn pod_64_crossbar_allocation_is_pinned() {
    check(
        "crossbar",
        || Network::new(NocConfig::pod_64(TopologyKind::Crossbar)),
        0x589e_b747_2d36_4bc9,
    );
}

#[test]
fn pod_64_ideal_allocation_is_pinned() {
    check(
        "ideal",
        || Network::new(NocConfig::pod_64(TopologyKind::Ideal)),
        0xd58e_3ec1_f574_a5c1,
    );
}

/// A 321-input hub: the request bitsets span six 64-bit words.
#[test]
fn wide_ideal_star_allocation_is_pinned() {
    let cfg = NocConfig {
        cores: 256,
        llc_tiles: 64,
        ..NocConfig::pod_64(TopologyKind::Ideal)
    };
    check("ideal 256x64", || Network::new(cfg), 0x4d06_5e9e_c07b_cc8b);
}

/// Rerouted tables and a slower router change which inputs contend for
/// which outputs.
#[test]
fn faulted_mesh_allocation_is_pinned() {
    check(
        "faulted mesh",
        || {
            let mut net = Network::new(NocConfig::pod_64(TopologyKind::Mesh));
            assert!(!net.fail_link(27, 0).is_partitioned());
            assert!(!net.degrade_router(36).is_partitioned());
            net
        },
        0x89bc_612b_4797_07ee,
    );
}
