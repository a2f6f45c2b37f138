//! Zero-overhead-when-disabled guard for host self-profiling.
//!
//! The profiler is compiled into every build; this suite pins the
//! contract that leaving it disarmed changes nothing: a machine that
//! never calls `enable_profiling` produces bit-identical results under
//! both engines and exports no `prof.*` keys, and a stable report built
//! from such a run is byte-for-byte reproducible. Arming the profiler
//! adds the `prof.*` keys and nothing else — host-side timing must
//! never perturb the simulated machine. The NOC's sub-phases are
//! children of its row: armed, they tile its self-time; disarmed, they
//! add no keys.

use scale_out_processors::noc::TopologyKind;
use scale_out_processors::obs::prof::{Component, NocPhase};
use scale_out_processors::obs::{
    diff_reports, stabilized, DiffConfig, ProfBreakdown, Registry, Report, SpanLog,
};
use scale_out_processors::sim::{Machine, SimConfig, SimResult};
use scale_out_processors::workloads::Workload;

fn run(armed: bool, reference: bool) -> SimResult {
    let cfg = SimConfig::validation(Workload::WebSearch, 8, TopologyKind::Mesh);
    let mut m = Machine::new(cfg);
    m.set_reference_mode(reference);
    if armed {
        m.enable_profiling();
    }
    m.run_window(1_000, 3_000)
}

/// Serializes a run the way `repro --json --stable` does, minus the
/// wall-clock dependent parts `stabilized` strips anyway.
fn stable_report(r: &SimResult) -> String {
    let mut metrics = Registry::new();
    metrics.merge(&r.metrics);
    let report = Report::new("prof-zero-cost", "profiling guard");
    let doc = report.to_json(&SpanLog::new(), &metrics);
    stabilized(&doc).to_pretty_string()
}

#[test]
fn disarmed_runs_are_byte_identical_and_prof_free() {
    let a = run(false, false);
    let b = run(false, false);
    assert_eq!(a, b, "disarmed event-driven runs are bit-deterministic");
    assert_eq!(stable_report(&a), stable_report(&b));
    let reference = run(false, true);
    assert_eq!(a, reference, "engines agree with the profiler compiled in");
    assert!(
        !a.metrics.iter().any(|(k, _)| k.starts_with("prof.")),
        "disarmed run must not export prof.* keys"
    );
}

#[test]
fn arming_the_profiler_only_adds_prof_keys() {
    let off = run(false, false);
    let on = run(true, false);
    // Identical except for the additional prof.* metrics.
    let mut cfg = DiffConfig::exact();
    cfg.ignore.push("metrics.prof.".to_owned());
    let off_doc = scale_out_processors::obs::json::parse(&stable_report(&off)).expect("json");
    let on_doc = scale_out_processors::obs::json::parse(&stable_report(&on)).expect("json");
    let d = diff_reports(&off_doc, &on_doc, &cfg);
    assert!(
        d.ok(),
        "profiling perturbed the simulation: {:?}",
        d.violations
    );
    let breakdown = ProfBreakdown::from_registry(&on.metrics)
        .expect("armed run exports prof.advance for the breakdown");
    assert!(breakdown.consistent(), "self-times exceed the advance wall");
    assert!(breakdown.advance_ns > 0);
}

#[test]
fn noc_sub_phases_tile_the_noc_self_time() {
    for reference in [false, true] {
        let on = run(true, reference);
        let m = &on.metrics;
        let noc_ns = m.counter(&format!("{}.ns", Component::Noc.key()));
        let noc_calls = m.counter(&format!("{}.calls", Component::Noc.key()));
        assert!(noc_calls > 0, "the NOC stepped");
        let mut sub_ns = 0;
        for phase in NocPhase::ALL {
            let calls = m.counter(&format!("{}.calls", phase.key()));
            assert_eq!(calls, noc_calls, "{phase:?}: one lap per NOC step");
            sub_ns += m.counter(&format!("{}.ns", phase.key()));
        }
        // The sub-phases run back to back inside the NOC region, so they
        // never exceed it; what is left is the call and two clock reads.
        assert!(sub_ns <= noc_ns, "sub-phases {sub_ns} ns > NOC {noc_ns} ns");
        assert!(
            sub_ns * 4 >= noc_ns,
            "sub-phases cover under a quarter of the NOC: {sub_ns} of {noc_ns} ns"
        );
        let breakdown = ProfBreakdown::from_registry(m).expect("armed");
        assert!(breakdown.consistent());
        let noc = &breakdown.rows[0];
        assert_eq!(noc.key, Component::Noc.key());
        let children: Vec<_> = noc.children.iter().map(|c| c.key).collect();
        let phases: Vec<_> = NocPhase::ALL.iter().map(|p| p.key()).collect();
        assert_eq!(children, phases);
        let table = breakdown.render();
        for phase in NocPhase::ALL {
            assert!(table.contains(&format!("  {}", phase.label())), "{table}");
        }
    }
    let off = run(false, false);
    assert!(
        !off.metrics.iter().any(|(k, _)| k.starts_with("prof.noc")),
        "disarmed run must not export NOC sub-phase keys"
    );
}
