//! The event-driven engine must be indistinguishable from per-cycle
//! simulation.
//!
//! `Machine::set_reference_mode(true)` disables every fast-path shortcut:
//! the machine ticks every cycle, sweeps every router, and polls every
//! core — the semantics the event-driven engine (idle-cycle jumps, the
//! active-router worklist, per-core poll scheduling) claims to reproduce
//! exactly. These tests run both engines over the chapter-3 validation
//! configurations and a chapter-4 pod and require the *entire* result —
//! every named metric, histogram bucket, and NOC counter — to be equal.

use scale_out_processors::exec::Exec;
use scale_out_processors::noc::TopologyKind;
use scale_out_processors::sim::{Machine, SimConfig, SimResult};
use scale_out_processors::workloads::Workload;

/// Runs one window on a fresh machine in each mode and returns both
/// results.
fn both_modes(cfg: SimConfig, warm: u64, measure: u64) -> (SimResult, SimResult) {
    let mut event = Machine::new(cfg);
    let mut reference = Machine::new(cfg);
    reference.set_reference_mode(true);
    (
        event.run_window(warm, measure),
        reference.run_window(warm, measure),
    )
}

fn assert_equivalent(cfg: SimConfig, warm: u64, measure: u64, what: &str) {
    let (event, reference) = both_modes(cfg, warm, measure);
    assert_eq!(
        event, reference,
        "event-driven diverged from per-cycle reference: {what}"
    );
}

#[test]
fn validation_configs_match_reference() {
    for topology in [TopologyKind::Crossbar, TopologyKind::Mesh] {
        for cores in [1u32, 4, 16] {
            for workload in [Workload::WebSearch, Workload::DataServing] {
                let cfg = SimConfig::validation(workload, cores, topology);
                assert_equivalent(
                    cfg,
                    500,
                    1_500,
                    &format!("{workload:?} x{cores} on {topology:?}"),
                );
            }
        }
    }
}

#[test]
fn pod_64_nocout_matches_reference() {
    let cfg = SimConfig::pod_64(Workload::WebSearch, TopologyKind::NocOut);
    assert_equivalent(cfg, 1_500, 3_000, "pod_64 WebSearch on NOC-Out");
}

#[test]
fn pod_64_flattened_butterfly_matches_reference() {
    let cfg = SimConfig::pod_64(Workload::MapReduceC, TopologyKind::FlattenedButterfly);
    assert_equivalent(
        cfg,
        1_500,
        3_000,
        "pod_64 MapReduceC on flattened butterfly",
    );
}

/// Consecutive windows over one long execution (the SimFlex sampling
/// pattern) must also agree: the event engine's carried-over state —
/// worklists, poll schedules, pending events — matches the reference
/// between windows, not just within one.
#[test]
fn consecutive_windows_match_reference() {
    let cfg = SimConfig::validation(Workload::MediaStreaming, 4, TopologyKind::Mesh);
    let mut event = Machine::new(cfg);
    let mut reference = Machine::new(cfg);
    reference.set_reference_mode(true);
    for window in 0..2 {
        let e = event.run_window(500, 1_000);
        let r = reference.run_window(500, 1_000);
        assert_eq!(e, r, "window {window} diverged");
    }
}

/// Worker threads for the concurrent runs below: more than one, so
/// machines really do run side by side.
const WORKERS: usize = 4;

/// Copies of each configuration run at once, so identical machines share
/// the pool as well as different ones.
const COPIES: usize = 2;

/// Parallelism lives across independent runs (the `sop-exec` worker
/// pool), never inside one. Machines simulated concurrently on that pool
/// must each produce exactly the per-cycle reference result — every
/// named metric, histogram bucket, and NOC counter — for `windows`
/// consecutive windows. Same discipline as `tests/fleet_determinism.rs`:
/// the worker count is a host resource knob, and no state may leak from
/// one machine to another.
fn assert_concurrent_equivalent(
    cfgs: &[(SimConfig, String)],
    windows: usize,
    warm: u64,
    measure: u64,
) {
    let run = |cfg: SimConfig, reference: bool| -> Vec<SimResult> {
        let mut machine = Machine::new(cfg);
        machine.set_reference_mode(reference);
        (0..windows)
            .map(|_| machine.run_window(warm, measure))
            .collect()
    };
    let items: Vec<(usize, SimConfig)> = cfgs
        .iter()
        .enumerate()
        .flat_map(|(i, (cfg, _))| std::iter::repeat_n((i, *cfg), COPIES))
        .collect();
    let got = Exec::with_workers(WORKERS).map(items, |(i, cfg)| (i, run(cfg, false)));
    for (i, results) in got {
        let (cfg, what) = &cfgs[i];
        let expect = run(*cfg, true);
        for (window, (g, e)) in results.iter().zip(&expect).enumerate() {
            assert_eq!(g, e, "concurrent run diverged: {what}, window {window}");
        }
    }
}

#[test]
fn parallel_validation_configs_match_reference() {
    let mut cfgs = Vec::new();
    for topology in [TopologyKind::Crossbar, TopologyKind::Mesh] {
        for cores in [4u32, 16] {
            cfgs.push((
                SimConfig::validation(Workload::WebSearch, cores, topology),
                format!("WebSearch x{cores} on {topology:?}"),
            ));
        }
    }
    assert_concurrent_equivalent(&cfgs, 1, 500, 1_500);
}

#[test]
fn parallel_pod_64_nocout_matches_reference() {
    let cfg = SimConfig::pod_64(Workload::WebSearch, TopologyKind::NocOut);
    assert_concurrent_equivalent(
        &[(cfg, "pod_64 WebSearch on NOC-Out".into())],
        1,
        1_500,
        3_000,
    );
}

#[test]
fn parallel_pod_64_flattened_butterfly_matches_reference() {
    let cfg = SimConfig::pod_64(Workload::MapReduceC, TopologyKind::FlattenedButterfly);
    assert_concurrent_equivalent(
        &[(cfg, "pod_64 MapReduceC on flattened butterfly".into())],
        1,
        1_500,
        3_000,
    );
}

/// Carried-over engine state must stay equivalent across consecutive
/// windows when pods run concurrently too. The 64-core pod carries the
/// most state across a window boundary.
#[test]
fn parallel_consecutive_windows_match_reference() {
    let cfg = SimConfig::pod_64(Workload::DataServing, TopologyKind::Mesh);
    assert_concurrent_equivalent(&[(cfg, "pod_64 DataServing on Mesh".into())], 2, 500, 1_000);
}
