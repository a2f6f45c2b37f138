//! ORION-style area and power accounting (§4.3.2, Fig 4.7, §4.4.4).
//!
//! Area is computed from the actual topology structure: link repeaters
//! from total wire length (wires route over logic, so only repeaters
//! count), input buffers from channel count x VCs x depth x width, and
//! switch fabrics quadratically in aggregate port width. Power combines
//! wire and router switching energy (from the simulator's traffic
//! counters) with buffer leakage.

use crate::message::MessageClass;
use crate::sim::TrafficCounters;
use crate::topology::{NodeRole, Topology, TopologyKind};

/// Repeater area per bit-millimetre of link at 32nm, mm².
const REPEATER_MM2_PER_BIT_MM: f64 = 2.0e-5;
/// Buffer area per bit at 32nm (flip-flop based), mm².
const BUFFER_MM2_PER_BIT: f64 = 3.2e-6;
/// Switch-fabric area coefficient: mm² per (port x bit)².
const XBAR_MM2_PER_PORTBIT2: f64 = 3.8e-8;
/// Wire energy per bit-millimetre (50fJ, §4.3.2).
const WIRE_J_PER_BIT_MM: f64 = 50e-15;
/// Router energy (buffer write+read and switch) per bit per hop.
const ROUTER_J_PER_BIT_HOP: f64 = 90e-15;
/// Leakage per buffer bit in watts.
const LEAK_W_PER_BIT: f64 = 6.0e-7;

/// Virtual channels per port (one per message class).
const VCS: f64 = MessageClass::ALL.len() as f64;

fn vc_depth_for(topo: &Topology, node: usize) -> f64 {
    match topo.roles[node] {
        // Tree mux/demux nodes need only enough to cover a 1-cycle hop,
        // and carry two message classes each way (§4.2.2).
        NodeRole::Core(_) | NodeRole::TreeNode if topo.kind == TopologyKind::NocOut => 2.0,
        _ => match topo.kind {
            // Deep buffers cover the long-range links' flight time.
            TopologyKind::FlattenedButterfly => 7.0,
            _ => 5.0,
        },
    }
}

/// Die-area breakdown of a NOC instance (the Fig 4.7 bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocAreaBreakdown {
    /// Link repeater area, mm².
    pub links_mm2: f64,
    /// Input buffer area, mm².
    pub buffers_mm2: f64,
    /// Switch fabric (crossbar) area, mm².
    pub crossbars_mm2: f64,
}

impl NocAreaBreakdown {
    /// Computes the breakdown for a topology with `link_bits`-wide links.
    pub fn of(topo: &Topology, link_bits: u32) -> Self {
        let bits = f64::from(link_bits);
        let links_mm2 = topo.total_wire_mm() * bits * REPEATER_MM2_PER_BIT_MM;
        let mut buffers_mm2 = 0.0;
        let mut crossbars_mm2 = 0.0;
        // Input buffering sits at the downstream end of each channel.
        for u in 0..topo.len() {
            for ch in &topo.channels[u] {
                let depth = vc_depth_for(topo, ch.to);
                // NocOut trees carry 2 VCs; everything else carries 3.
                let vcs = if topo.kind == TopologyKind::NocOut
                    && matches!(topo.roles[ch.to], NodeRole::Core(_) | NodeRole::TreeNode)
                {
                    2.0
                } else {
                    VCS
                };
                buffers_mm2 += vcs * depth * bits * BUFFER_MM2_PER_BIT;
            }
        }
        for node in 0..topo.len() {
            // Ports: outgoing channels + local. (Input count matches
            // output count in all our fabrics.)
            let ports = topo.channels[node].len() as f64 + 1.0;
            if topo.pipeline[node] == 0 {
                continue; // pure wire joints (star leaves) have no switch
            }
            let portbits = ports * bits;
            crossbars_mm2 += portbits * portbits * XBAR_MM2_PER_PORTBIT2;
        }
        NocAreaBreakdown {
            links_mm2,
            buffers_mm2,
            crossbars_mm2,
        }
    }

    /// Total NOC area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.links_mm2 + self.buffers_mm2 + self.crossbars_mm2
    }
}

/// NOC power estimate (§4.4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocPowerEstimate {
    /// Dynamic power in the links, W.
    pub link_w: f64,
    /// Dynamic power in buffers and switches, W.
    pub router_w: f64,
    /// Leakage (dominated by buffers), W.
    pub leakage_w: f64,
}

impl NocPowerEstimate {
    /// Estimates power from traffic accumulated over `cycles` at `ghz`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn of(
        topo: &Topology,
        counters: &TrafficCounters,
        cycles: u64,
        ghz: f64,
        link_bits: u32,
    ) -> Self {
        assert!(cycles > 0, "need a non-empty simulation window");
        let seconds = cycles as f64 / (ghz * 1e9);
        let bits = f64::from(link_bits);
        let link_w = counters.flit_mm * bits * WIRE_J_PER_BIT_MM / seconds;
        let router_w = counters.flit_hops as f64 * bits * ROUTER_J_PER_BIT_HOP / seconds;
        let area = NocAreaBreakdown::of(topo, link_bits);
        let buffer_bits = area.buffers_mm2 / BUFFER_MM2_PER_BIT;
        NocPowerEstimate {
            link_w,
            router_w,
            leakage_w: buffer_bits * LEAK_W_PER_BIT,
        }
    }

    /// Total NOC power in watts.
    pub fn total_w(&self) -> f64 {
        self.link_w + self.router_w + self.leakage_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Network, NocConfig};
    use crate::topology::TopologyKind;

    fn area_of(kind: TopologyKind) -> NocAreaBreakdown {
        let cfg = NocConfig::pod_64(kind);
        NocAreaBreakdown::of(&cfg.build_topology(), cfg.link_bits)
    }

    #[test]
    fn fig_4_7_mesh_area() {
        let a = area_of(TopologyKind::Mesh).total_mm2();
        assert!((3.0..4.8).contains(&a), "mesh {a}");
    }

    #[test]
    fn fig_4_7_fbfly_area_explodes() {
        let a = area_of(TopologyKind::FlattenedButterfly).total_mm2();
        assert!(a > 20.0, "fbfly {a}");
    }

    #[test]
    fn fig_4_7_nocout_is_smallest() {
        let no = area_of(TopologyKind::NocOut).total_mm2();
        let mesh = area_of(TopologyKind::Mesh).total_mm2();
        let fb = area_of(TopologyKind::FlattenedButterfly).total_mm2();
        assert!((1.8..3.4).contains(&no), "nocout {no}");
        assert!(no < mesh && no < fb);
        // §4.4.5: about 10x less area than the butterfly, ~28% less than
        // the mesh.
        assert!(fb / no > 7.0, "ratio {}", fb / no);
    }

    #[test]
    fn nocout_spine_dominates_its_area() {
        // Fig 4.7: the LLC-row butterfly is ~64% of NOC-Out's area, and
        // each tree network only ~18%. We check the coarser property that
        // links+crossbars (spine-heavy) outweigh tree buffering.
        let a = area_of(TopologyKind::NocOut);
        assert!(a.links_mm2 + a.crossbars_mm2 > a.buffers_mm2);
    }

    #[test]
    fn narrower_links_shrink_area_roughly_linearly() {
        let cfg = NocConfig::pod_64(TopologyKind::FlattenedButterfly);
        let full = NocAreaBreakdown::of(&cfg.build_topology(), 128).total_mm2();
        let fifth = NocAreaBreakdown::of(&cfg.build_topology(), 25).total_mm2();
        assert!(fifth < full / 3.5, "full {full} fifth {fifth}");
    }

    #[test]
    fn power_ordering_matches_section_4_4_4() {
        // Same offered traffic on each fabric; NOC-Out should burn the
        // least (short distances), and the butterfly less than the mesh
        // (fewer hops).
        let mut results = Vec::new();
        for kind in [
            TopologyKind::Mesh,
            TopologyKind::FlattenedButterfly,
            TopologyKind::NocOut,
        ] {
            let mut net = Network::new(NocConfig::pod_64(kind));
            let cores = net.core_endpoints().to_vec();
            let llcs = net.llc_endpoints().to_vec();
            let horizon = 6_000u64;
            let mut delivered = Vec::new();
            for cycle in 0..horizon {
                for (i, &c) in cores.iter().enumerate() {
                    if (cycle as usize + i * 3).is_multiple_of(40) {
                        let dst = llcs[(i * 7 + cycle as usize) % llcs.len()];
                        if dst != c {
                            net.inject(c, dst, MessageClass::Request, cycle);
                            net.inject(dst, c, MessageClass::Response, cycle);
                        }
                    }
                }
                net.step(cycle, &mut delivered);
                delivered.clear();
            }
            net.drain(20_000);
            let p = NocPowerEstimate::of(
                net.topology(),
                &net.counters(),
                horizon,
                2.0,
                net.config().link_bits,
            );
            results.push((kind, p.total_w()));
        }
        let mesh = results[0].1;
        let fb = results[1].1;
        let no = results[2].1;
        assert!(no < mesh, "nocout {no} vs mesh {mesh}");
        assert!(no < fb, "nocout {no} vs fbfly {fb}");
        // All fabrics stay in the low single-digit watts (§4.4.4).
        for (kind, w) in results {
            assert!(w < 5.0, "{kind:?} power {w}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_cycle_power_panics() {
        let cfg = NocConfig::pod_64(TopologyKind::Mesh);
        let topo = cfg.build_topology();
        NocPowerEstimate::of(&topo, &TrafficCounters::default(), 0, 2.0, 128);
    }
}
