//! The one fleet determinism harness, shared by `fleet_determinism.rs`,
//! `resilience_determinism.rs` and `slo_determinism.rs`.
//!
//! Every fleet campaign `sop fleet` runs must produce byte-identical
//! stabilized reports no matter how it was scheduled: one worker or
//! four, cold cache or warm. Every source of randomness is a seeded
//! shim-RNG stream, time is an integer tick counter, and the load
//! balancer splits arrivals with exact integer arithmetic — so the only
//! thing allowed to change the bytes is the seed itself.

use scale_out_processors::exec::{Exec, ExecConfig};
use scale_out_processors::fleet::{
    add_slo_metrics, fleet_points, grid, resilience_grid, resilience_points, storm_pair,
};
use scale_out_processors::obs::{stabilized, Json, Registry, Report, SpanLog};

pub const SERVERS: u32 = 8;

/// Builds the stabilized report exactly the way `sop fleet` does for one
/// campaign — engine campaign, metrics summed from the rows,
/// `metrics.slo.*` folded from the armed rows, report document — and
/// returns its pretty-printed bytes plus the document. The campaigns:
///
/// - `plain`: `sop fleet`, every organization × policy;
/// - `resilience`: `sop fleet --resilience`, the ambient grid for one
///   organization plus the committed storm pair (SLO plane armed);
/// - `storm`: `sop fleet --resilience --storm`, the storm pair alone.
pub fn fleet_report(
    campaign: &str,
    workers: usize,
    dir: &std::path::Path,
    seed: u64,
) -> (String, Json) {
    let exec = Exec::new(ExecConfig {
        jobs: workers,
        cache_dir: Some(dir.to_path_buf()),
        ..ExecConfig::default()
    });
    let mut spans = SpanLog::new();
    let mut metrics = Registry::new();
    let (name, title, rows) = if campaign == "plain" {
        let specs = grid(SERVERS, seed, true, None, None);
        let rows = spans.time("fleet", |_| fleet_points(&exec, "fleet", &specs));
        for row in &rows {
            for key in ["offered", "served", "dropped"] {
                metrics.counter_add(&format!("fleet.requests.{key}"), total_of(row, key));
            }
        }
        metrics.gauge_set("fleet.points", rows.len() as f64);
        ("fleet", "Scale-Out Processors: fleet simulation", rows)
    } else {
        let mut specs = match campaign {
            "resilience" => {
                resilience_grid(SERVERS, seed, true, Some("scaleout-ooo"), None, None, None)
            }
            "storm" => Vec::new(),
            other => panic!("unknown fleet campaign {other:?}"),
        };
        specs.extend(storm_pair("scaleout-ooo", SERVERS, seed, true));
        let rows = spans.time("resilience", |_| {
            resilience_points(&exec, "resilience", &specs)
        });
        for row in &rows {
            for key in ["offered", "issued", "retries", "hedges", "goodput", "shed"] {
                metrics.counter_add(&format!("fleet.resilience.{key}"), total_of(row, key));
            }
        }
        metrics.gauge_set("fleet.resilience.points", rows.len() as f64);
        (
            "resilience",
            "Scale-Out Processors: fleet resilience simulation",
            rows,
        )
    };
    assert!(exec.failures().is_empty(), "{:?}", exec.failures());
    metrics.gauge_set("fleet.servers", f64::from(SERVERS));
    add_slo_metrics(&rows, &mut metrics);
    metrics.merge(&exec.metrics_snapshot());
    let mut report = Report::new("fleet", title);
    report.set("campaign", Json::from(name));
    report.set("quick", Json::from(true));
    report.set(name, Json::Arr(rows));
    let doc = stabilized(&report.to_json(&spans, &metrics));
    (doc.to_pretty_string(), doc)
}

pub fn total_of(row: &Json, key: &str) -> u64 {
    row.get("totals")
        .and_then(|t| t.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

/// A scratch directory that cleans up after itself.
pub struct Scratch(pub std::path::PathBuf);

impl Scratch {
    pub fn new(campaign: &str, tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("sop-fleet-{campaign}-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One worker and four produce the same bytes, and a warm-cache rerun
/// — which replays every row (and thus every SLO analysis) from disk —
/// does not change a byte either.
pub fn assert_schedule_independent(campaign: &str) {
    let one = Scratch::new(campaign, "w1");
    let four = Scratch::new(campaign, "w4");
    let (serial, _) = fleet_report(campaign, 1, &one.0, 42);
    let (parallel, _) = fleet_report(campaign, 4, &four.0, 42);
    assert_eq!(
        serial, parallel,
        "{campaign}: stabilized reports must not depend on worker count"
    );
    let (replay, _) = fleet_report(campaign, 4, &four.0, 42);
    assert_eq!(
        parallel, replay,
        "{campaign}: cache hits must reproduce the report"
    );
}
