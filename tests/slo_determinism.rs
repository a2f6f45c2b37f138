//! The SLO monitoring plane is a pure function of its seed.
//!
//! The burn-rate engine sits downstream of every feedback loop the
//! resilience layer has — retries, hedges, health probes, the shedder —
//! and its outputs are the ones an operator would page on. The bar is
//! the same as for the simulation itself: the detection tick, TTD, and
//! the whole incident timeline must be byte-identical at any worker
//! count and cache state, and detection must land strictly before the
//! scripted repair on the committed storm scenario.

mod common;

use common::{assert_schedule_independent, fleet_report, Scratch};
use scale_out_processors::obs::Json;

fn metric(doc: &Json, key: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metrics.{key} missing"))
}

#[test]
fn slo_verdicts_are_byte_identical_across_worker_counts_and_cache_states() {
    assert_schedule_independent("storm");
}

#[test]
fn storm_detection_timeline_is_pinned() {
    let scratch = Scratch::new("storm", "pin");
    let (_, doc) = fleet_report("storm", 2, &scratch.0, 42);
    // The committed scenario: strike at 1800, windows of 300 ticks, so
    // the first window close after the strike — the detection tick — is
    // 2100 and TTD is exactly one window. These are exact integers; any
    // drift is a regression in the storm script or the burn engine.
    assert_eq!(metric(&doc, "slo.detection_tick"), 2100.0);
    assert_eq!(metric(&doc, "slo.ttd_ticks"), 300.0);
    assert!(metric(&doc, "slo.incidents") >= 2.0, "both legs must fire");
    // Detection leads repair: TTR (measured recovery of the shed-on
    // leg) is strictly larger than TTD, so the alert fires while the
    // outage is still in progress.
    let ttd = metric(&doc, "slo.ttd_ticks");
    let ttr = metric(&doc, "slo.ttr_ticks");
    assert!(
        ttd < ttr,
        "detection (ttd {ttd}) must precede recovery (ttr {ttr})"
    );
    assert_eq!(metric(&doc, "slo.detection_lead_ticks"), ttr - ttd);

    // The row-level timeline agrees: every armed row's first fast-burn
    // incident fires inside the outage window [strike, repair).
    let rows = doc
        .get("sections")
        .and_then(|s| s.get("resilience"))
        .and_then(Json::as_arr)
        .expect("resilience rows");
    let mut armed = 0;
    for row in rows {
        let Some(analysis) = row
            .get("slo")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
        else {
            continue;
        };
        armed += 1;
        let st = row.get("storm_stats").expect("storm row");
        let strike = st.get("start_tick").and_then(Json::as_f64).expect("strike");
        let repair = st.get("end_tick").and_then(Json::as_f64).expect("repair");
        let fired = analysis
            .get("rules")
            .and_then(Json::as_arr)
            .and_then(|rules| {
                rules
                    .iter()
                    .find(|r| r.get("label").and_then(Json::as_str) == Some("fast"))
            })
            .and_then(|r| r.get("incidents"))
            .and_then(Json::as_arr)
            .and_then(|i| i.first())
            .and_then(|i| i.get("fired_tick"))
            .and_then(Json::as_f64)
            .expect("fast-burn incident");
        assert!(
            strike < fired && fired < repair,
            "incident at {fired} outside outage [{strike}, {repair})"
        );
        // The scripted cause is tagged on the incident itself.
        let cause = analysis
            .get("rules")
            .and_then(Json::as_arr)
            .and_then(|r| r.first())
            .and_then(|r| r.get("incidents"))
            .and_then(Json::as_arr)
            .and_then(|i| i.first())
            .and_then(|i| i.get("cause"))
            .and_then(Json::as_str);
        assert_eq!(cause, Some("storm"), "incidents carry the scripted cause");
    }
    assert_eq!(armed, 2, "both storm legs arm the SLO plane");
}
