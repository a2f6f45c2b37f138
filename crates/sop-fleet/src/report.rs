//! The `sop-report/v1` document a fleet campaign produces.
//!
//! `sop fleet` and the fleet determinism tests both build their report
//! here, so the tests check the bytes the command writes: the rows, the
//! deterministic aggregates summed from them (cached and fresh
//! evaluations export identical values), `metrics.slo.*`, the engine's
//! own counters, and the `series` section lifted out of the rows.

use sop_exec::Exec;
use sop_obs::{Json, Registry, Report, SpanLog};

use crate::point::{
    add_slo_metrics, fleet_points, resilience_points, FleetPointSpec, ResiliencePointSpec,
};

/// The specs of one fleet campaign.
#[derive(Debug, Clone)]
pub enum Campaign {
    /// Plain fleet rows, reported under the `fleet` section.
    Plain(Vec<FleetPointSpec>),
    /// Resilience rows, reported under the `resilience` section.
    Resilience(Vec<ResiliencePointSpec>),
}

/// A fleet campaign's report document and its rows (telemetry already
/// lifted into the document's `series` section).
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The unstabilized report document.
    pub doc: Json,
    /// The evaluated rows, in spec order.
    pub rows: Vec<Json>,
}

/// Runs `campaign` on `exec` and assembles its report. `config` is
/// recorded verbatim as the report's `config` section.
pub fn campaign_report(
    exec: &Exec,
    campaign: &Campaign,
    quick: bool,
    servers: u32,
    config: Json,
) -> CampaignReport {
    let mut spans = SpanLog::new();
    let mut metrics = Registry::new();
    let (section, title, names, mut rows): (_, _, Vec<String>, _) = match campaign {
        Campaign::Plain(specs) => {
            let rows = spans.time("fleet", |_| fleet_points(exec, "fleet", specs));
            for key in ["offered", "served", "dropped"] {
                let total = rows.iter().map(|r| row_total(r, key)).sum();
                metrics.counter_add(&format!("fleet.requests.{key}"), total);
            }
            metrics.gauge_set("fleet.points", rows.len() as f64);
            let names = specs.iter().map(FleetPointSpec::name).collect();
            (
                "fleet",
                "Scale-Out Processors: fleet simulation",
                names,
                rows,
            )
        }
        Campaign::Resilience(specs) => {
            let rows = spans.time("resilience", |_| {
                resilience_points(exec, "resilience", specs)
            });
            // The names each run's own registry uses; CI greps
            // `fleet.resilience.shed`.
            for key in ["offered", "issued", "retries", "hedges", "goodput", "shed"] {
                let total = rows.iter().map(|r| row_total(r, key)).sum();
                metrics.counter_add(&format!("fleet.resilience.{key}"), total);
            }
            metrics.gauge_set("fleet.resilience.points", rows.len() as f64);
            let names = specs.iter().map(ResiliencePointSpec::name).collect();
            let title = "Scale-Out Processors: fleet resilience simulation";
            ("resilience", title, names, rows)
        }
    };
    metrics.gauge_set("fleet.servers", f64::from(servers));
    // Exact replays of the rows' embedded burn-rate analyses; no-op when
    // no row armed an SLO spec.
    add_slo_metrics(&rows, &mut metrics);
    metrics.merge(&exec.metrics_snapshot());

    let mut report = Report::new("fleet", title);
    report.set("campaign", Json::from(section));
    report.set("quick", Json::from(quick));
    report.set("config", config);
    let telemetry = lift_series(&mut rows, &names);
    report.set(section, Json::Arr(rows.clone()));
    if let Some(series) = telemetry {
        report.set("series", series);
    }
    CampaignReport {
        doc: report.to_json(&spans, &metrics),
        rows,
    }
}

/// The integer total `key` of a row's `totals` object (0 when absent,
/// e.g. on a failed row).
pub fn row_total(row: &Json, key: &str) -> u64 {
    row.get("totals")
        .and_then(|t| t.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

/// Lifts each row's embedded `series` object — present only when the
/// run armed telemetry — out of the row and into a self-contained
/// top-level `series` section entry: the series set plus the scripted
/// cause and repair timing `sop slo` needs to replay the burn-rate
/// analysis offline. Returns `None` (no section, zero new report keys)
/// when no row carried telemetry.
fn lift_series(rows: &mut [Json], names: &[String]) -> Option<Json> {
    let mut entries = Vec::new();
    for (row, name) in rows.iter_mut().zip(names) {
        let Json::Obj(members) = row else { continue };
        let Some(pos) = members.iter().position(|(key, _)| key == "series") else {
            continue;
        };
        let (_, set) = members.remove(pos);
        let mut entry = Json::object().with("name", name.as_str());
        if let Some(st) = row.get("storm_stats") {
            let tick = |key: &str| st.get(key).cloned().unwrap_or(Json::Null);
            entry = entry.with(
                "cause",
                Json::object()
                    .with("label", "storm")
                    .with("start_tick", tick("start_tick"))
                    .with("repair_tick", tick("end_tick")),
            );
        }
        if let Some(ttr) = row.get("ttr_ticks") {
            entry = entry.with("ttr_ticks", ttr.clone());
        }
        entries.push(entry.with("series", set));
    }
    (!entries.is_empty()).then_some(Json::Arr(entries))
}
