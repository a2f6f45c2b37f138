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
use scale_out_processors::fleet::{campaign_report, grid, resilience_grid, storm_pair, Campaign};
use scale_out_processors::obs::{stabilized, Json};

pub const SERVERS: u32 = 8;

/// Builds the stabilized report of one campaign through the builder
/// `sop fleet` writes its report with, and returns its pretty-printed
/// bytes plus the document. The campaigns:
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
    let storm = || storm_pair("scaleout-ooo", SERVERS, seed, true);
    let specs = match campaign {
        "plain" => Campaign::Plain(grid(SERVERS, seed, true, None, None)),
        "resilience" => {
            let mut specs =
                resilience_grid(SERVERS, seed, true, Some("scaleout-ooo"), None, None, None);
            specs.extend(storm());
            Campaign::Resilience(specs)
        }
        "storm" => Campaign::Resilience(storm()),
        other => panic!("unknown fleet campaign {other:?}"),
    };
    let config = Json::object().with("servers", SERVERS).with("seed", seed);
    let report = campaign_report(&exec, &specs, true, SERVERS, config);
    assert!(exec.failures().is_empty(), "{:?}", exec.failures());
    let doc = stabilized(&report.doc);
    (doc.to_pretty_string(), doc)
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
