//! `sop` — interactive design-space explorer.
//!
//! Every subcommand's grammar is one [`Command`] table below; `sop
//! --help` lists the subcommands and `sop <command> --help` prints the
//! usage rendered from that command's table. `--help` (or `-h`)
//! anywhere exits 0 before anything runs. An unlisted flag, a missing
//! or malformed value, a repeated flag, or an unexpected argument exits
//! 2 naming it and the valid set, before anything runs.

use scale_out_processors::bench::bench::{
    append_history, check_comparable, check_regression, commit_hash, history_entry, host_signature,
    run_suite_with_metrics, today_utc, BENCH_CAMPAIGNS,
};
use scale_out_processors::bench::campaign::{run_campaign, CAMPAIGNS};
use scale_out_processors::core::designs::{reference_chip, DesignKind};
use scale_out_processors::core::pod::{optimal_pod, preferred_pod, PodSearchSpace};
use scale_out_processors::exec::audit_dir;
use scale_out_processors::exec::cli::{fail, Args, Command, Flag};
use scale_out_processors::exec::heartbeat::{read_events_counting, snapshot, PROGRESS_FILE};
use scale_out_processors::exec::{Exec, ExecConfig};
use scale_out_processors::noc::TopologyKind;
use scale_out_processors::obs::prom::{exposition_from_json, metric_name};
use scale_out_processors::obs::{
    diff_reports, stabilized, write_atomic, DiffConfig, DiffResult, Json, ProfBreakdown, Registry,
    Report, SpanLog, TxnBreakdown,
};
use scale_out_processors::sim::{Machine, SimConfig};
use scale_out_processors::tco::{Datacenter, TcoParams};
use scale_out_processors::tech::{CoreKind, TechnologyNode};
use scale_out_processors::threed::{
    compose_3d, CoolingTechnology, Pod3d, StackStrategy, ThermalModel,
};
use scale_out_processors::workloads::Workload;

const CORE_KINDS: &[&str] = &["ooo", "io", "conv"];
const NODE: Flag = Flag::value("--node", "40|32|20", "technology node in nm (default 40)");
const TOPO: Flag = Flag::value("--topo", "mesh|fbfly|nocout", "pod NOC (default nocout)");
const CORES: Flag = Flag::value(
    "--cores",
    "N",
    "run the N-core validation point, not the pod",
);
const QUICK: Flag = Flag::switch("--quick", "shortened simulation window");
const STABLE: Flag = Flag::switch(
    "--stable",
    "strip wall-clock and cache state from the report",
);
const TOL_PATH: Flag = Flag::value("--tol-path", "PREFIX=PCT", "subtree tolerance (repeatable)");

/// A subcommand's grammar and the function that runs it.
type Subcommand = (Command, fn(&Args));

#[rustfmt::skip]
static COMMANDS: [Subcommand; 15] = [
    (Command::new("sop pod", "<ooo|io|conv>", (1, 1), "derive the PD-optimal pod")
        .choices(CORE_KINDS).flags(&[NODE]), pod),
    (Command::new("sop chip", "<design>", (1, 1), "compose a reference chip")
        .flags(&[NODE]), chip),
    (Command::new("sop dc", "<design>", (1, 1), "size a 20MW datacenter")
        .flags(&[Flag::value("--mem", "GB", "memory per server (default 64)")]), dc),
    (Command::new("sop stack", "<ooo|io|conv> [dies]", (1, 2), "evaluate a 3D pod")
        .choices(CORE_KINDS)
        .flags(&[Flag::switch("--fixed-distance", "keep the pod's wire distance, not its size")]),
        stack),
    (Command::new("sop trace", "[workload]", (0, 1), "capture a Chrome trace of a pod run")
        .flags(&[
            TOPO,
            Flag::value("--out", "FILE", "trace path (default trace.json)"),
            QUICK,
            Flag::switch("--analyze", "print the per-stage latency breakdown"),
            Flag::value("--sample", "N", "trace every Nth transaction (default 1)"),
            CORES,
        ]), trace),
    (Command::new("sop diff", "<a.json> <b.json>", (2, 2), "compare two sop-report/v1 documents")
        .flags(&[Flag::value("--tol", "PCT", "numeric leaf tolerance (default 0)"), TOL_PATH]),
        diff),
    (Command::new("sop sweep", "<campaign>", (1, 1), "run a named experiment campaign")
        .choices(&CAMPAIGNS)
        .flags(&[QUICK, STABLE, Flag::value("--json", "FILE", "default sweep-<campaign>.json")])
        .engine(), sweep),
    (Command::new("sop fleet", "", (0, 0), "simulate a fleet of SOP servers behind a balancer")
        .flags(&[
            Flag::value("--servers", "N", "fleet size (default 256, 64 with --quick)"),
            Flag::value("--seed", "S", "traffic and failure seed (default 42)"),
            Flag::value("--org", "NAME", "one chip organization only"),
            Flag::value("--policy", "drain|derate", "one repair policy only (plain fleet)"),
            Flag::switch("--quick", "shortened simulated day"),
            STABLE,
            Flag::value("--json", "FILE", "default fleet.json, resilience.json with --resilience"),
            Flag::switch("--series", "export per-window telemetry as a series section"),
            Flag::switch("--resilience", "failure domains, retrying clients, health checks"),
            Flag::value("--topology", "flat|rack|wide", "one failure-domain topology only"),
            Flag::value("--retry", "none|naive|backoff|hedge", "one retry policy only"),
            Flag::value("--shed", "on|off", "one overload-shedder arming only"),
            Flag::switch("--storm", "the committed PDU-outage scenario (arms the SLO plane)"),
            Flag::switch("--slo", "arm the SLO monitoring plane on the ambient sweep"),
        ])
        .engine(), fleet),
    (Command::new("sop slo", "<report.json>", (1, 1), "replay a report's burn-rate analysis")
        .flags(&[
            Flag::value("--target", "PCT", "availability objective (default 99.9)"),
            Flag::value("--latency-ms", "N", "add a latency objective at N ms"),
            Flag::value("--latency-target", "PCT", "latency objective (default 99)"),
            Flag::switch("--ascii-sparkline", "render the per-window goodness ratio"),
        ]), slo_cmd),
    (Command::new("sop bench", "", (0, 0), "time the simulator hot paths into the bench history")
        .flags(&[
            QUICK,
            Flag::value("--jobs", "N", "worker threads (0 or omitted = one per core)"),
            Flag::value("--only", "LIST", "comma-separated campaigns to time"),
            Flag::value("--json", "FILE", "history document to append to (default bench.json)"),
            Flag::value("--baseline", "FILE", "fail on a regression against FILE"),
            Flag::value("--tol", "PCT", "regression tolerance (default 25)"),
        ]), bench),
    (Command::new("sop prof", "[workload] | --analyze <a.json> [b.json]", (0, 2),
        "self-profile a pod window, or re-render written profiles")
        .flags(&[
            TOPO,
            QUICK,
            CORES,
            Flag::value("--json", "FILE", "report path (default prof.json)"),
            Flag::switch("--analyze", "re-render the table from written reports"),
            Flag::value("--tol", "PCT", "--analyze diff tolerance (default 25)"),
            TOL_PATH,
        ]), prof),
    (Command::new("sop top", "", (0, 0), "live monitor over a campaign's heartbeat stream")
        .flags(&[
            Flag::value("--file", "PATH", "heartbeat stream (default: the result cache's)"),
            Flag::switch("--once", "render one snapshot and exit"),
            Flag::value("--interval-ms", "N", "redraw interval (default 500)"),
        ]), top),
    (Command::new("sop metrics", "<report.json>", (1, 1), "dump a report's metrics")
        .flags(&[Flag::switch("--text", "Prometheus exposition plus series last values")]),
        metrics_cmd),
    (Command::new("sop cache", "", (0, 0), "audit the result cache for debris")
        .flags(&[Flag::value("--dir", "DIR", "cache directory (default: the result cache)")]),
        cache),
    (Command::new("sop list", "", (0, 0), "list design names"), list),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let named = |(c, _): &&Subcommand| c.name.strip_prefix("sop ") == Some(&name);
    if let Some((command, run)) = COMMANDS.iter().find(named) {
        return run(&command.parse(argv));
    }
    eprint!("{}", overview());
    match name.as_str() {
        "help" | "-h" | "--help" => std::process::exit(0),
        "" => std::process::exit(2),
        other => fail(format_args!("unknown subcommand {other:?}")),
    }
}

/// The subcommand list, rendered from [`COMMANDS`].
fn overview() -> String {
    let width = COMMANDS.iter().map(|(c, _)| c.synopsis().len()).max();
    let width = width.unwrap_or(0);
    let mut out = "usage: sop <command> ...; `sop <command> --help` lists its flags\n\n".to_owned();
    for (c, _) in &COMMANDS {
        out += &format!("  {:<width$}  {}\n", c.synopsis(), c.about);
    }
    out
}

/// Writes `doc`, stabilized when `stable`, pretty-printed to `out`;
/// exits 1 when it cannot.
fn write_report(out: &str, doc: &Json, stable: bool) {
    let stable_doc = stable.then(|| stabilized(doc));
    let text = stable_doc.as_ref().unwrap_or(doc).to_pretty_string();
    if let Err(e) = write_atomic(out, &(text + "\n")) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
}

/// Reads and parses the JSON document at `path`; exits 2 when it cannot.
fn load_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
    scale_out_processors::obs::json::parse(&text)
        .unwrap_or_else(|e| fail(format_args!("{path} is not valid JSON: {e:?}")))
}

/// `--tol PCT` (default `default`) plus every `--tol-path PREFIX=PCT`
/// rule, as a diff configuration.
fn diff_config(args: &Args, default: f64) -> (f64, DiffConfig) {
    let tol: f64 = args.num("--tol").unwrap_or(default);
    let mut cfg = DiffConfig::with_tol(tol / 100.0);
    for rule in args.values("--tol-path") {
        let Some((prefix, pct)) = rule.split_once('=') else {
            fail(format_args!("--tol-path needs PREFIX=PCT, got {rule:?}"));
        };
        let Ok(pct) = pct.parse::<f64>() else {
            fail(format_args!("--tol-path {rule:?}: {pct:?} is not a number"));
        };
        cfg.rules.push((prefix.to_owned(), pct / 100.0));
    }
    (tol, cfg)
}

/// Prints the verdict on two documents `label` names, violations on
/// stderr; true when they match.
fn print_diff(label: &str, result: &DiffResult, tol: f64) -> bool {
    if result.ok() {
        println!(
            "{label} match ({} values compared, tol {tol}%)",
            result.compared
        );
    } else {
        for v in &result.violations {
            eprintln!("DIFF {v}");
        }
        let n = result.violations.len();
        eprintln!(
            "{label} diverge: {n} violation(s) across {} compared values",
            result.compared
        );
    }
    result.ok()
}

/// Exits 1 after listing the engine's failed jobs, if any.
fn exit_on_failures(cmd: &str, exec: &Exec) {
    let failures = exec.failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{cmd}: job failed: {} ({})", f.name, f.error);
        }
        std::process::exit(1);
    }
}

/// Runs a named experiment campaign on the execution engine and writes
/// its data as a `sop-report/v1` document.
fn sweep(args: &Args) {
    let name = args.positional(0).expect("arity checked");
    let quick = args.switch("--quick");
    let out = args
        .value("--json")
        .map_or_else(|| format!("sweep-{name}.json"), str::to_owned);
    let exec = Exec::new(ExecConfig::from_cli(args));

    let mut spans = SpanLog::new();
    let data = spans.time(name, |_| {
        run_campaign(name, quick, &exec).expect("campaign name was validated")
    });
    let mut metrics = Registry::new();
    metrics.merge(&exec.metrics_snapshot());
    let mut report = Report::new("sweep", "Scale-Out Processors: experiment campaign");
    report.set("campaign", Json::from(name));
    report.set("quick", Json::from(quick));
    report.set("data", data);
    let doc = report.to_json(&spans, &metrics);
    write_report(&out, &doc, args.switch("--stable"));
    let m = exec.metrics_snapshot();
    println!(
        "campaign {name}: {} points on {} worker(s)",
        m.counter("exec.jobs.completed") + m.counter("exec.map.items"),
        exec.workers()
    );
    println!("wrote {out}");
    exit_on_failures("sweep", &exec);
}

/// Simulates a fleet of SOP servers behind a load balancer and writes
/// the report `sop_fleet::campaign_report` builds: one row per chip
/// organization × repair policy, or with `--resilience` per topology ×
/// retry policy × shedder arming (`--storm`: the committed PDU-outage
/// pair, shedder off and on). The report is byte-identical across
/// worker counts.
fn fleet(args: &Args) {
    use scale_out_processors::fleet::{
        campaign_report, grid, resilience_grid, storm_pair, Campaign, DomainTopology, Policy,
        RetryPolicy, ORGS,
    };
    let quick = args.switch("--quick");
    let resilience = args.switch("--resilience");
    let storm = args.switch("--storm");
    let series = args.switch("--series");
    let slo = args.switch("--slo");
    let servers: u32 = args
        .num("--servers")
        .unwrap_or(if quick { 64 } else { 256 });
    if servers == 0 {
        fail("--servers must be at least 1");
    }
    let seed: u64 = args.num("--seed").unwrap_or(42);
    let orgs: Vec<&str> = ORGS.iter().map(|o| o.name).collect();
    let org = args.choice("--org", &orgs);
    let policies: Vec<&str> = Policy::ALL.iter().map(|p| p.label()).collect();
    let policy = args
        .choice("--policy", &policies)
        .and_then(Policy::from_label);
    let topology = args.choice("--topology", &DomainTopology::labels());
    let retry = args.choice("--retry", &RetryPolicy::labels());
    let shed = args.choice("--shed", &["on", "off"]).map(|v| v == "on");
    if !resilience && (storm || slo || topology.is_some() || retry.is_some() || shed.is_some()) {
        fail("--storm/--topology/--retry/--shed/--slo require --resilience");
    }
    if resilience && series {
        fail("--series applies to the plain fleet sweep; use --slo with --resilience");
    }
    if let (true, Some(label)) = (resilience, args.value("--policy")) {
        fail(format_args!(
            "--policy {label:?} applies to the plain fleet sweep; \
             resilience runs always derate damaged servers"
        ));
    }
    if storm && (topology.is_some() || retry.is_some()) {
        fail("the storm scenario pins --topology rack --retry naive");
    }
    let kind = if resilience { "resilience" } else { "fleet" };
    let default_out = format!("{kind}.json");
    let out = args.value("--json").unwrap_or(&default_out);
    // Heartbeat job_finish events carry the fleet tick counter so
    // `sop top` can report simulated-hours per second, and the SLO
    // alert counters so it can render live alert state when a run arms
    // a spec (the fields stay absent otherwise).
    scale_out_processors::exec::heartbeat::set_cycle_source(
        scale_out_processors::bench::campaign::simulated_work_counter,
    );
    scale_out_processors::exec::heartbeat::set_slo_source(
        scale_out_processors::fleet::slo_alert_state,
    );
    let exec = Exec::new(ExecConfig::from_cli(args));

    let config = Json::object()
        .with("servers", servers)
        .with("seed", seed)
        .with("org", org.map_or(Json::Null, Json::from));
    let (campaign, config) = if resilience {
        let mut specs = if storm {
            let mut pair = storm_pair(org.unwrap_or("scaleout-ooo"), servers, seed, quick);
            if let Some(want) = shed {
                pair.retain(|s| s.shed == want);
            }
            pair
        } else {
            resilience_grid(servers, seed, quick, org, topology, retry, shed)
        };
        // `--slo` arms the monitoring plane on the ambient sweep; the
        // storm pair arms it unconditionally (it is the committed
        // detection benchmark). Arming is part of the spec identity, so
        // names and cache keys are computed after it.
        for spec in &mut specs {
            spec.slo |= slo;
        }
        let config = config
            .with("topology", topology.map_or(Json::Null, Json::from))
            .with("retry", retry.map_or(Json::Null, Json::from))
            .with("shed", shed.map_or(Json::Null, Json::Bool))
            .with("storm", storm);
        (Campaign::Resilience(specs), config)
    } else {
        let mut specs = grid(servers, seed, quick, org, policy);
        for spec in &mut specs {
            spec.series |= series;
        }
        let policy = policy.map_or(Json::Null, |p| Json::from(p.label()));
        (Campaign::Plain(specs), config.with("policy", policy))
    };
    let report = campaign_report(&exec, &campaign, quick, servers, config);
    write_report(out, &report.doc, args.switch("--stable"));
    if resilience {
        print_resilience_rows(&report.rows);
    } else {
        print_fleet_rows(&report.rows);
    }
    println!(
        "{kind}: {} point(s), {servers} server(s), seed {seed} on {} worker(s)",
        report.rows.len(),
        exec.workers()
    );
    println!("wrote {out}");
    exit_on_failures("fleet", &exec);
}

/// The plain fleet table: one line per organization × policy.
fn print_fleet_rows(rows: &[Json]) {
    println!(
        "{:<14} {:<7} {:>9} {:>7} {:>7} {:>7} {:>12}",
        "org", "policy", "sust.qps", "p50ms", "p99ms", "drop%", "$/k-qps/mo"
    );
    for row in rows {
        let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
        if row.get("failed").is_some() {
            println!("{:<14} {:<7} FAILED", s("org"), s("policy"));
            continue;
        }
        let n = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let cost = match row
            .get("cost_per_sustained_kqps_usd")
            .and_then(Json::as_f64)
        {
            Some(c) => format!("{c:.2}"),
            None => "-".to_owned(),
        };
        println!(
            "{:<14} {:<7} {:>9.0} {:>7.0} {:>7.0} {:>6.2}% {:>12}",
            s("org"),
            s("policy"),
            n("sustained_qps"),
            n("p50_ms"),
            n("p99_ms"),
            n("drop_pct"),
            cost
        );
    }
}

/// The resilience table: one line per row, then one detection line per
/// row that armed the SLO plane.
fn print_resilience_rows(rows: &[Json]) {
    println!(
        "{:<14} {:<5} {:<7} {:<5} {:<5} {:>7} {:>6} {:>11} {:>12}",
        "org", "topo", "retry", "shed", "storm", "avail%", "amp", "goodput", "$/k-qps/mo"
    );
    for row in rows {
        let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
        if row.get("failed").is_some() {
            println!(
                "{:<14} {:<5} {:<7} FAILED",
                s("org"),
                s("topology"),
                s("retry")
            );
            continue;
        }
        let n = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let b = |k: &str| match row.get(k) {
            Some(Json::Bool(true)) => "on",
            _ => "off",
        };
        let cost = match row
            .get("cost_per_delivered_kqps_usd")
            .and_then(Json::as_f64)
        {
            Some(c) => format!("{c:.2}"),
            None => "-".to_owned(),
        };
        println!(
            "{:<14} {:<5} {:<7} {:<5} {:<5} {:>6.2}% {:>6.2} {:>11.0} {:>12}",
            s("org"),
            s("topology"),
            s("retry"),
            b("shed"),
            b("storm"),
            100.0 * n("availability"),
            n("retry_amplification"),
            n("goodput_qps"),
            cost
        );
    }
    for row in rows {
        let Some(analysis) = row
            .get("slo")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
        else {
            continue;
        };
        let shed = matches!(row.get("shed"), Some(Json::Bool(true)));
        let tick = |v: Option<&Json>| match v.and_then(Json::as_f64) {
            Some(t) => format!("{t:.0}"),
            None => "-".to_owned(),
        };
        println!(
            "slo shed={}: detection @{} (ttd {}s, ttr {}s), {} incident(s)",
            if shed { "on" } else { "off" },
            tick(analysis.get("detection_tick")),
            tick(analysis.get("ttd_ticks")),
            tick(row.get("ttr_ticks")),
            analysis
                .get("rules")
                .and_then(Json::as_arr)
                .map_or(0, |rules| {
                    rules
                        .iter()
                        .filter_map(|r| r.get("incidents").and_then(Json::as_arr))
                        .map(<[Json]>::len)
                        .sum()
                }),
        );
    }
}

/// The `sop slo` subcommand: replays the multi-window, multi-burn-rate
/// SLO analysis over a report's `series` section — no simulation runs,
/// the exact-integer series are reloaded and the burn engine re-derives
/// the incident timeline, detection tick, and TTD.
fn slo_cmd(args: &Args) {
    use scale_out_processors::obs::slo::evaluate;
    use scale_out_processors::obs::{BurnRule, ScriptedCause, SeriesSet, SloSpec};

    let path = args.positional(0).expect("arity checked");
    let pct = |flag: &str, default: f64| -> f64 {
        let v: f64 = args.num(flag).unwrap_or(default);
        if v <= 0.0 || v >= 100.0 {
            fail(format_args!("{flag} must be a percentage in (0, 100)"));
        }
        v / 100.0
    };
    let target = pct("--target", 99.9);
    let latency_ms: Option<u64> = args.num("--latency-ms");
    let latency_target = pct("--latency-target", 99.0);
    let sparkline = args.switch("--ascii-sparkline");
    let doc = load_json(path);
    let Some(entries) = doc
        .get("sections")
        .and_then(|s| s.get("series"))
        .and_then(Json::as_arr)
    else {
        eprintln!(
            "{path}: no series section — produce one with `sop fleet --resilience --storm`, \
             `sop fleet --resilience --slo`, or `sop fleet --series`"
        );
        std::process::exit(1);
    };

    let rules = BurnRule::standard();
    for entry in entries {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(set) = entry.get("series").and_then(SeriesSet::from_json) else {
            eprintln!("{name}: malformed series set, skipping");
            continue;
        };
        let cause = entry.get("cause").map(|c| ScriptedCause {
            label: c
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("cause")
                .to_owned(),
            start_tick: c.get("start_tick").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            repair_tick: c.get("repair_tick").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        });
        // Resilience runs measure goodput/offered; plain fleet runs
        // measure served/offered. Both are exact-integer counters.
        let (good, total) = if set.get("goodput").is_some() {
            ("goodput", "offered")
        } else {
            ("served", "offered")
        };
        let mut specs = vec![SloSpec::availability_over(target, good, total)];
        if let Some(ms) = latency_ms {
            specs.push(SloSpec::latency(ms, latency_target));
        }
        println!("{name}");
        let ttr = entry.get("ttr_ticks").and_then(Json::as_f64);
        for spec in &specs {
            let analysis = evaluate(&set, spec, &rules, cause.as_ref());
            print_slo_analysis(&analysis, ttr);
        }
        if sparkline {
            let points = set.ratio(good, total);
            if !points.is_empty() {
                const LEVELS: &[u8] = b" .:-=+*#";
                let line: String = points
                    .iter()
                    .map(|(_, r)| {
                        let idx = (r.clamp(0.0, 1.0) * (LEVELS.len() - 1) as f64).round() as usize;
                        LEVELS[idx] as char
                    })
                    .collect();
                let (low_tick, low) =
                    points.iter().fold(
                        (0u64, f64::INFINITY),
                        |acc, &(t, r)| {
                            if r < acc.1 {
                                (t, r)
                            } else {
                                acc
                            }
                        },
                    );
                println!("  {good}/{total} [{line}] min {low:.3} @ tick {low_tick}");
            }
        }
        println!();
    }
}

/// Renders one replayed SLO analysis: the per-rule burn table, every
/// incident with its tick stamps and cause tag, and the headline
/// detection-vs-repair summary.
fn print_slo_analysis(a: &scale_out_processors::obs::SloAnalysis, ttr: Option<f64>) {
    println!("  objective {} (target {:.3}%)", a.name, 100.0 * a.target);
    println!(
        "  {:<6} {:>7} {:>7} {:>6} {:>10} {:>10}  incidents",
        "rule", "short", "long", "thr", "max-short", "max-long"
    );
    for r in &a.rules {
        let incidents: Vec<String> = r
            .incidents
            .iter()
            .map(|i| {
                let cause = i
                    .cause
                    .as_deref()
                    .map(|c| format!(" [{c}]"))
                    .unwrap_or_default();
                match i.cleared_tick {
                    Some(c) => format!("fired@{}{cause} cleared@{c}", i.fired_tick),
                    None => format!("fired@{}{cause} ACTIVE", i.fired_tick),
                }
            })
            .collect();
        println!(
            "  {:<6} {:>6}s {:>6}s {:>6.1} {:>10.2} {:>10.2}  {}",
            r.rule.label,
            r.rule.short_ticks,
            r.rule.long_ticks,
            r.rule.threshold,
            r.max_short_burn,
            r.max_long_burn,
            if incidents.is_empty() {
                "-".to_owned()
            } else {
                incidents.join(", ")
            }
        );
    }
    match (a.detection_tick, a.ttd_ticks) {
        (Some(det), Some(ttd)) => {
            let ttr_s = ttr.map(|r| format!(", ttr {r:.0}s")).unwrap_or_default();
            let lead = ttr
                .map(|r| format!(", lead {:.0}s", r - ttd as f64))
                .unwrap_or_default();
            println!("  detection @{det} (ttd {ttd}s{ttr_s}{lead})");
        }
        (Some(det), None) => println!("  detection @{det}"),
        _ => println!("  no detection (SLO healthy)"),
    }
}

/// Audits the on-disk result cache: every entry re-validated against its
/// content hash, stray `*.tmp.*` debris and foreign files called out.
/// Exits non-zero if anything but valid entries is found.
fn cache(args: &Args) {
    let dir = args
        .value("--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(scale_out_processors::exec::default_cache_dir);
    let audit = match audit_dir(&dir) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot audit {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    println!("cache {}", dir.display());
    println!("  valid entries: {}", audit.valid);
    println!("  invalid entries: {}", audit.invalid.len());
    for name in &audit.invalid {
        println!("    {name}");
    }
    println!("  stray tmp files: {}", audit.stray_tmp.len());
    for name in &audit.stray_tmp {
        println!("    {name}");
    }
    println!("  other files: {}", audit.other.len());
    for name in &audit.other {
        println!("    {name}");
    }
    if !audit.is_clean() {
        std::process::exit(1);
    }
}

/// Times the simulator micro-benchmarks and cold chapter campaigns and
/// writes the numbers as a `bench` section in a `sop-report/v1`
/// document. The run is appended to the `history` array carried forward
/// from the previous document at the output path (commit, date, per-tier
/// Mcycles/s), and the engine registry populates the report's top-level
/// `metrics`. The committed history `BENCH_sim.json` is written only
/// when named with `--json`. With `--baseline` the run becomes a
/// regression gate against the baseline's latest history entry.
fn bench(args: &Args) {
    let quick = args.switch("--quick");
    let jobs: usize = args.num("--jobs").unwrap_or(0);
    let only: Option<Vec<&str>> = args.value("--only").map(|list| {
        let only: Vec<&str> = list.split(',').collect();
        if let Some(name) = only.iter().find(|n| !BENCH_CAMPAIGNS.contains(n)) {
            let valid = BENCH_CAMPAIGNS.join(" ");
            fail(format_args!(
                "unknown bench campaign {name:?}; one of: {valid}"
            ));
        }
        only
    });
    let out = args.value("--json").unwrap_or("bench.json");
    let tol: f64 = args.num("--tol").unwrap_or(25.0);
    // Read and matched against this run's host signature before the
    // run, so a bad baseline fails before minutes of timing.
    let baseline = args.value("--baseline").map(|path| (path, load_json(path)));
    if let Some((path, base)) = &baseline {
        if let Err(why) = check_comparable(&host_signature(jobs), base) {
            fail(format_args!(
                "sop bench: cannot judge against {path}: {why}"
            ));
        }
    }

    let mut spans = SpanLog::new();
    let (mut data, metrics) = spans.time("bench", |_| {
        run_suite_with_metrics(quick, jobs, only.as_deref())
    });
    // Carry the bench trajectory forward from the previous document at
    // the output path, then append this run.
    let previous = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| scale_out_processors::obs::json::parse(&text).ok());
    let entry = history_entry(&data, &commit_hash(), &today_utc());
    append_history(&mut data, previous.as_ref(), entry);
    let mut report = Report::new("bench", "Scale-Out Processors: simulator benchmarks");
    report.set("bench", data.clone());
    let doc = report.to_json(&spans, &metrics);
    write_report(out, &doc, false);
    for row in data.get("campaigns").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = row.get("campaign").and_then(Json::as_str).unwrap_or("?");
        let wall = row.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
        match (
            row.get("mcycles_per_sec").and_then(Json::as_f64),
            row.get("events_per_sec").and_then(Json::as_f64),
        ) {
            (Some(rate), _) => println!("{name:5} {wall:7.0}ms  {rate:8.3} Mcycles/s"),
            (None, Some(rate)) => {
                println!("{name:5} {wall:7.0}ms  {:8.3} Mevents/s", rate / 1e6);
            }
            (None, None) => println!("{name:5} {wall:7.0}ms  (analytic)"),
        }
    }
    if let Some(x) = data.get("speedup_vs_baseline").and_then(Json::as_f64) {
        println!("speedup vs per-cycle baseline: {x:.2}x");
    }
    println!("wrote {out}");

    if let Some((path, base)) = baseline {
        let violations = check_regression(&doc, &base, tol).unwrap_or_else(|why| {
            fail(format_args!(
                "sop bench: cannot judge against {path}: {why}"
            ))
        });
        if violations.is_empty() {
            println!("bench within {tol:.0}% of {path}");
        } else {
            for v in &violations {
                eprintln!("REGRESSION {v}");
            }
            std::process::exit(1);
        }
    }
}

fn core_kind(args: &Args) -> CoreKind {
    match args.positional(0) {
        Some("io") => CoreKind::InOrder,
        Some("conv") => CoreKind::Conventional,
        _ => CoreKind::OutOfOrder,
    }
}

fn node(args: &Args) -> TechnologyNode {
    match args.choice("--node", &["40", "32", "20"]) {
        Some("32") => TechnologyNode::N32,
        Some("20") => TechnologyNode::N20,
        _ => TechnologyNode::N40,
    }
}

fn design(args: &Args) -> DesignKind {
    let name = args.positional(0).expect("arity checked");
    let found = DESIGNS.iter().find(|(n, _)| *n == name);
    found.map(|(_, d)| *d).unwrap_or_else(|| {
        let known: Vec<&str> = DESIGNS.iter().map(|(n, _)| *n).collect();
        fail(format_args!(
            "unknown design {name:?}; one of: {}",
            known.join(" ")
        ))
    })
}

const DESIGNS: [(&str, DesignKind); 13] = [
    ("conventional", DesignKind::Conventional),
    ("tiled-ooo", DesignKind::Tiled(CoreKind::OutOfOrder)),
    ("tiled-io", DesignKind::Tiled(CoreKind::InOrder)),
    (
        "llcopt-ooo",
        DesignKind::LlcOptimalTiled(CoreKind::OutOfOrder),
    ),
    ("llcopt-io", DesignKind::LlcOptimalTiled(CoreKind::InOrder)),
    (
        "ir-ooo",
        DesignKind::LlcOptimalTiledIr(CoreKind::OutOfOrder),
    ),
    ("ir-io", DesignKind::LlcOptimalTiledIr(CoreKind::InOrder)),
    ("ideal-ooo", DesignKind::Ideal(CoreKind::OutOfOrder)),
    ("ideal-io", DesignKind::Ideal(CoreKind::InOrder)),
    ("1pod-ooo", DesignKind::OnePod(CoreKind::OutOfOrder)),
    ("1pod-io", DesignKind::OnePod(CoreKind::InOrder)),
    ("scaleout-ooo", DesignKind::ScaleOut(CoreKind::OutOfOrder)),
    ("scaleout-io", DesignKind::ScaleOut(CoreKind::InOrder)),
];

fn list(_: &Args) {
    for (name, _) in DESIGNS {
        println!("{name}");
    }
}

fn pod(args: &Args) {
    let kind = core_kind(args);
    let node = node(args);
    let space = PodSearchSpace::thesis_chapter3(kind, node);
    let peak = optimal_pod(&space);
    let pick = preferred_pod(&space, 0.05);
    println!("PD-optimal {kind:?} pod at {node}:");
    println!(
        "  peak:     {} cores + {}MB  (PD {:.4})",
        peak.config.cores, peak.config.llc_mb, peak.performance_density
    );
    println!(
        "  adopted:  {} cores + {}MB  ({:.1}mm2, {:.1}W, {:.1}GB/s)",
        pick.config.cores, pick.config.llc_mb, pick.area_mm2, pick.power_w, pick.bandwidth_gbps
    );
}

fn chip(args: &Args) {
    let d = design(args);
    let node = node(args);
    let c = reference_chip(d, node);
    println!("{} at {node}:", c.label);
    println!("  cores             {}", c.cores);
    println!("  LLC               {:.1} MB", c.llc_mb);
    println!("  memory channels   {}", c.memory_channels);
    println!("  die               {:.1} mm2 ({})", c.die_mm2, c.binding);
    println!("  power             {:.1} W", c.power_w);
    println!("  perf density      {:.4} IPC/mm2", c.performance_density);
    println!("  perf/W            {:.3}", c.perf_per_watt);
}

fn dc(args: &Args) {
    let d = design(args);
    let mem: u32 = args.num("--mem").unwrap_or(64);
    let params = TcoParams::thesis();
    let dc = Datacenter::for_design(d, &params, mem);
    println!(
        "20MW datacenter of {} servers ({}GB each):",
        dc.chip.label, mem
    );
    println!("  sockets per 1U    {}", dc.sockets_per_server);
    println!("  total chips       {}", dc.total_chips());
    println!("  chip price        ${:.0}", dc.chip_price_usd);
    println!(
        "  TCO               ${:.2}M/month",
        dc.tco.total_usd() / 1e6
    );
    println!("  perf/TCO          {:.3}", dc.perf_per_tco());
    println!("  perf/W            {:.4}", dc.perf_per_watt());
}

/// Runs a 64-core pod with transaction tracing on and writes the event
/// log in Chrome trace format (load it at `chrome://tracing` or in
/// Perfetto). One simulated cycle maps to one microsecond. Sampled
/// transactions appear as per-component `txn.hop` lanes.
fn trace(args: &Args) {
    let (cfg, point, warm, measure) = pod_window(args);
    let process = format!("{point} {:?} {:?}", cfg.workload, cfg.noc.topology);
    let out = args.value("--out").unwrap_or("trace.json");
    let sample: u64 = args.num("--sample").unwrap_or(1);
    if sample == 0 {
        fail("--sample must be at least 1");
    }

    let mut machine = Machine::new(cfg);
    machine.enable_tracing(1 << 16);
    machine.enable_txn_tracing(sample);
    let result = machine.run_window(warm, measure);
    let log = machine.event_log().expect("tracing was enabled");
    let trace = log.to_chrome_trace(&process);
    if let Err(e) = write_atomic(out, &(trace.to_compact_string() + "\n")) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "{} events ({} dropped), aggregate IPC {:.2}",
        log.events().count(),
        log.dropped(),
        result.aggregate_ipc()
    );
    println!("wrote {out}");
    if args.switch("--analyze") {
        let breakdown = TxnBreakdown::from_registry(&result.metrics)
            .expect("transaction tracing was armed, sim.txn.total is exported");
        println!();
        print!("{}", breakdown.render());
        if !breakdown.consistent() {
            std::process::exit(1);
        }
    }
}

/// The pod window `trace` and `prof` simulate — the workload positional
/// (default websearch) on the `--topo` NOC, the 64-core pod or the
/// `--cores N` validation point — with its name and its warm-up and
/// measured cycles (`--quick` shortens both).
fn pod_window(args: &Args) -> (SimConfig, String, u64, u64) {
    let workload = workload_by_name(args.positional(0).unwrap_or("websearch"));
    let topo = match args.choice("--topo", &["mesh", "fbfly", "nocout"]) {
        Some("mesh") => TopologyKind::Mesh,
        Some("fbfly") => TopologyKind::FlattenedButterfly,
        _ => TopologyKind::NocOut,
    };
    let (warm, measure) = if args.switch("--quick") {
        (1_000, 2_000)
    } else {
        (4_000, 8_000)
    };
    let (cfg, point) = match args.num::<u32>("--cores") {
        Some(n) => (
            SimConfig::validation(workload, n, topo),
            format!("validation_{n}"),
        ),
        None => (SimConfig::pod_64(workload, topo), "pod_64".to_owned()),
    };
    (cfg, point, warm, measure)
}

/// Resolves a workload by its debug name or label (case- and
/// punctuation-insensitive), exiting with the valid set when unknown.
fn workload_by_name(name: &str) -> Workload {
    Workload::ALL
        .iter()
        .copied()
        .find(|w| {
            let debug = format!("{w:?}").to_lowercase();
            let label = w.label().to_lowercase().replace([' ', '-'], "");
            let wanted = name.to_lowercase().replace([' ', '-'], "");
            debug == wanted || label == wanted
        })
        .unwrap_or_else(|| {
            let known: Vec<String> = Workload::ALL.iter().map(|w| format!("{w:?}")).collect();
            fail(format_args!(
                "unknown workload {name:?}; one of: {}",
                known.join(" ")
            ))
        })
}

/// Runs a self-profiled pod window and prints the host-side component
/// self-time table: where the simulator's own wall clock goes (NOC
/// routing, directory, LLC banks, memory channels, core stepping,
/// next-event calculation) per simulated cycle. The full report —
/// `prof` section plus raw `prof.*` counters in `metrics` — is written
/// as a `sop-report/v1` document. Exits 1 if the attributed self-times
/// exceed the measured advance wall (a profiler bug, not a model bug).
/// With `--analyze` no simulation runs ([`prof_analyze`]).
fn prof(args: &Args) {
    match (args.switch("--analyze"), args.positionals().len()) {
        (true, 1 | 2) => return prof_analyze(args),
        (true, _) => fail("sop prof: --analyze needs <a.json> [b.json]"),
        (false, 2) => fail("sop prof: one workload, or --analyze <a.json> [b.json]"),
        (false, _) => {}
    }
    let (cfg, point, warm, measure) = pod_window(args);
    let (workload, topo) = (cfg.workload, cfg.noc.topology);
    let out = args.value("--json").unwrap_or("prof.json");

    let mut machine = Machine::new(cfg);
    machine.enable_profiling();
    let mut spans = SpanLog::new();
    let result = spans.time("prof", |_| machine.run_window(warm, measure));
    let breakdown = ProfBreakdown::from_registry(&result.metrics)
        .expect("profiling was armed, prof.advance is exported");
    let mut report = Report::new("prof", "Scale-Out Processors: host self-profile");
    report.set(
        "point",
        Json::object()
            .with("point", point.as_str())
            .with("workload", workload.label())
            .with("topology", format!("{topo:?}").as_str())
            .with("warm", warm)
            .with("measure", measure),
    );
    report.set("prof", breakdown.to_json());
    write_report(out, &report.to_json(&spans, &result.metrics), false);
    print!("{}", breakdown.render());
    println!("wrote {out}");
    if !breakdown.consistent() {
        std::process::exit(1);
    }
}

/// The `--analyze` arm of [`prof`]: re-renders the component table from
/// one or two report documents' `prof.*` metrics; with two, diffs the
/// `prof` sections under `--tol`/`--tol-path` (default 25% — host
/// timings are noisy).
fn prof_analyze(args: &Args) {
    let (tol, cfg) = diff_config(args, 25.0);
    let breakdown_of = |path: &str| -> ProfBreakdown {
        load_json(path)
            .get("metrics")
            .and_then(ProfBreakdown::from_metrics_json)
            .unwrap_or_else(|| {
                eprintln!("{path}: no prof.* metrics (was the run profiled?)");
                std::process::exit(1);
            })
    };
    let path_a = args.positional(0).expect("checked by caller");
    let a = breakdown_of(path_a);
    println!("{path_a}:");
    print!("{}", a.render());
    let mut failed = !a.consistent();
    if let Some(path_b) = args.positional(1) {
        let b = breakdown_of(path_b);
        println!();
        println!("{path_b}:");
        print!("{}", b.render());
        failed |= !b.consistent();
        println!();
        let result = diff_reports(&a.to_json(), &b.to_json(), &cfg);
        failed |= !print_diff("prof sections", &result, tol);
    }
    if failed {
        std::process::exit(1);
    }
}

/// Live terminal monitor over a campaign's heartbeat stream, redrawn
/// until the campaign ends; `--once` exits 1 when the stream holds no
/// campaign yet. Malformed lines are counted, not fatal.
fn top(args: &Args) {
    let file = args
        .value("--file")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| scale_out_processors::exec::default_cache_dir().join(PROGRESS_FILE));
    let once = args.switch("--once");
    let interval: u64 = args.num("--interval-ms").unwrap_or(500);
    loop {
        let (events, malformed) = read_events_counting(&file);
        let snap = snapshot(&events);
        let skipped = || {
            if malformed > 0 {
                println!("{malformed} malformed line(s) skipped");
            }
        };
        if once {
            match snap {
                Some(s) => print!("{}", s.render()),
                None => {
                    eprintln!("no campaign activity in {}", file.display());
                    std::process::exit(1);
                }
            }
            return skipped();
        }
        // Clear the screen and repaint the panel in place.
        print!("\x1b[2J\x1b[H");
        match snap {
            Some(s) => {
                print!("{}", s.render());
                if s.done {
                    return skipped();
                }
            }
            None => println!("sop top: waiting for events in {}", file.display()),
        }
        skipped();
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

/// Dumps a report's top-level `metrics` object — pretty JSON, or
/// Prometheus text exposition with `--text`.
fn metrics_cmd(args: &Args) {
    let doc = load_json(args.positional(0).expect("arity checked"));
    let metrics = doc.get("metrics").cloned().unwrap_or(Json::Null);
    if args.switch("--text") {
        print!("{}", exposition_from_json(&metrics));
        // Telemetry last-values: one sample per series in the report's
        // `series` section (when the run armed telemetry), so scrapes
        // see where each windowed counter/digest ended up.
        use scale_out_processors::obs::SeriesSet;
        for entry in doc
            .get("sections")
            .and_then(|s| s.get("series"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let entry_name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
            let Some(set) = entry.get("series").and_then(SeriesSet::from_json) else {
                continue;
            };
            for (sname, ts) in set.iter() {
                if let Some(v) = ts.last_value() {
                    println!(
                        "{} {v}",
                        metric_name(&format!("series.{entry_name}.{sname}.last"))
                    );
                }
            }
        }
    } else {
        println!("{}", metrics.to_pretty_string());
    }
}

/// Structurally compares two `sop-report/v1` documents under `--tol`
/// and `--tol-path`, ignoring wall-clock subtrees. Exits 1 when any
/// value moved beyond tolerance or a key appeared/vanished, 2 on usage
/// or IO errors.
fn diff(args: &Args) {
    let [path_a, path_b] = args.positionals() else {
        unreachable!("arity checked")
    };
    let (tol, cfg) = diff_config(args, 0.0);
    let a = load_json(path_a);
    let b = load_json(path_b);
    if !print_diff(
        &format!("{path_a} and {path_b}"),
        &diff_reports(&a, &b, &cfg),
        tol,
    ) {
        std::process::exit(1);
    }
}

fn stack(args: &Args) {
    let kind = core_kind(args);
    let dies: u32 = args.positional(1).map_or(2, |v| {
        v.parse()
            .unwrap_or_else(|_| fail(format_args!("[dies]: {v:?} is not a valid number")))
    });
    let strategy = if args.switch("--fixed-distance") {
        StackStrategy::FixedDistance
    } else {
        StackStrategy::FixedPod
    };
    let (cores, mb) = match kind {
        CoreKind::InOrder => (64, 2.0),
        _ => (32, 2.0),
    };
    let pod = Pod3d::new(kind, cores, mb, dies, strategy);
    let chip = compose_3d(&pod);
    let thermal = ThermalModel::datacenter(CoolingTechnology::LiquidCooled);
    println!("{kind:?} 3D pod, {dies} die(s), {strategy:?}:");
    println!(
        "  pod               {} cores + {:.0}MB",
        pod.total_cores(),
        pod.total_llc_mb()
    );
    println!("  footprint         {:.1} mm2/die", pod.footprint_mm2());
    println!(
        "  chip              {} pods, {} channels",
        chip.pods, chip.memory_channels
    );
    println!("  PD (per volume)   {:.4}", chip.performance_density_3d);
    println!(
        "  junction temp     {:.0}C (limit {:.0}C, liquid cooled)",
        thermal.junction_c(chip.power_w, dies),
        thermal.t_max_c
    );
    if !thermal.admits(chip.power_w, dies) {
        println!("  WARNING: thermally infeasible at this power");
    }
}
