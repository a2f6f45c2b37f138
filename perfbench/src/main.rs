//! One cold repetition of one benchmark workload, run in a fresh process
//! so the simulator's process-wide warm-up memos start empty.
//!
//! ```text
//! perfbench <workload> --seed N --mode timed|traced|replay --tmp DIR
//!           [--workers N] [--spans-out FILE]
//! ```
//!
//! Prints one JSON object on stdout: set-up and timed wall, the host
//! speed calibration samples taken around them, operations attempted and
//! failed, the simulated-output digest, and (traced and replay modes) the
//! per-layer metrics. `run.py` aggregates repetitions.
//! Every measurement is taken from outside the crates, by timing calls
//! into their public functions.

mod calib;
mod spans;

use sop_bench::{ch3, ch4, points::SimPointSpec, report::golden_checks};
use sop_exec::{hash_hex, spec_hash, Exec, ExecConfig};
use sop_fleet::{FleetPointSpec, ResiliencePointSpec};
use sop_noc::TopologyKind;
use sop_obs::{prof::Component, Json, Registry, Report, SpanLog};
use sop_sim::{Machine, SimConfig, SimResult};
use sop_workloads::Workload;
use spans::Spans;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Cycles each `pod-steady` pod advances through in its one timed window.
const POD_CYCLES: u64 = 65_000;
/// Prefix window every pod is checked against the per-cycle reference
/// engine, outside the timed phase.
const REFERENCE_PREFIX: u64 = 2_000;
/// The `pod-steady` pods: one workload per fabric, so a NOC change tuned
/// to one topology shows on the other two.
const PODS: [(Workload, TopologyKind); 3] = [
    (Workload::WebSearch, TopologyKind::NocOut),
    (Workload::DataServing, TopologyKind::Mesh),
    (Workload::MediaStreaming, TopologyKind::FlattenedButterfly),
];
/// The chapter campaigns, in `all` order.
const CHAPTERS: [&str; 5] = ["ch2", "ch3", "ch4", "ch5", "ch6"];
/// Servers per fleet in `fleet-day` (the quick campaigns' size).
const FLEET_SERVERS: u32 = 64;
/// Calibration kernel runs before the workload and again after it.
const CALIB_SAMPLES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Tracing off: the end-to-end numbers.
    Timed,
    /// Spans around every call (and engine profiling on `pod-steady`).
    Traced,
    /// `campaign-cold` only: the campaign's simulation points replayed on
    /// one worker with warm-up and advance timed apart.
    Replay,
}

struct Args {
    workload: String,
    seed: u64,
    mode: Mode,
    tmp: PathBuf,
    workers: usize,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let workload = argv.first().cloned().ok_or("missing workload")?;
    let mut seed = None;
    let mut mode = None;
    let mut tmp = None;
    let mut workers = 1;
    let mut spans_out = None;
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--mode" => {
                mode = Some(match value.as_str() {
                    "timed" => Mode::Timed,
                    "traced" => Mode::Traced,
                    "replay" => Mode::Replay,
                    _ => return Err(format!("unknown mode {value}")),
                })
            }
            "--tmp" => tmp = Some(PathBuf::from(value)),
            "--workers" => {
                workers = value
                    .parse()
                    .ok()
                    .filter(|&w| w >= 1)
                    .ok_or(format!("bad worker count {value}"))?
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        mode: mode.ok_or("missing --mode")?,
        tmp: tmp.ok_or("missing --tmp")?,
        workers,
        spans_out,
    })
}

/// Operations attempted and failed, plus what went wrong. An operation
/// is one simulation point, pod window, fleet run or golden check.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ops {
    /// Runs one operation, counting a panic as a failure.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(format!("{what} panicked"));
                None
            }
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    wall_s: f64,
    /// Simulated cycles (`sop_sim::cycles_simulated` delta) in the timed phase.
    cycles: u64,
    /// Fleet server-step events (`sop_fleet::events_processed` delta).
    events: u64,
    digest: String,
    ops: Ops,
    layers: Vec<(&'static str, f64)>,
    /// Per-job wall times (µs) from the heartbeat's `job_finish` events.
    job_us: Vec<u64>,
    /// Host seconds of each calibration kernel run, taken before the
    /// set-up and after the timed phase, never inside either.
    calib_s: Vec<f64>,
}

fn main() {
    let main_start_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64;
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_id = format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    );
    let mut spans = Spans::new(matches!(args.mode, Mode::Traced | Mode::Replay), &run_id);
    let calib_before = calib::samples(CALIB_SAMPLES);
    let root = spans.open(&args.workload);
    let mut rep = match (args.workload.as_str(), args.mode) {
        ("campaign-cold", Mode::Replay) => campaign_replay(&mut spans),
        ("campaign-cold", _) => campaign_cold(&args, &mut spans),
        ("pod-steady", Mode::Replay) | ("fleet-day", Mode::Replay) => {
            eprintln!("perfbench: replay mode is campaign-cold only");
            std::process::exit(2);
        }
        ("pod-steady", _) => pod_steady(&args, &mut spans),
        ("fleet-day", _) => fleet_day(&args, &mut spans),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    spans.close(root);
    rep.calib_s = calib_before;
    rep.calib_s.extend(calib::samples(CALIB_SAMPLES));

    let mut layers = Json::object();
    for (name, value) in &rep.layers {
        layers.insert(name, *value);
    }
    if matches!(args.mode, Mode::Traced | Mode::Replay) {
        // The root's self time is the part of the run no layer span
        // covers; it is reported, not dropped.
        let own = spans.self_s_by_name();
        layers.insert("trace.unattributed_s", own[&args.workload]);
    }
    if let Some(path) = &args.spans_out {
        let doc = Json::object()
            .with("run", run_id.as_str())
            .with("spans", spans.to_json());
        if let Err(e) = std::fs::write(path, doc.to_compact_string() + "\n") {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    let out = Json::object()
        .with("main_start_unix_ns", main_start_unix_ns)
        .with("setup_s", rep.setup_s)
        .with("wall_s", rep.wall_s)
        .with("cycles", rep.cycles)
        .with("events", rep.events)
        .with("attempted", rep.ops.attempted)
        .with("failed", rep.ops.failed)
        .with(
            "problems",
            Json::Arr(
                rep.ops
                    .problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        )
        .with("digest", rep.digest.as_str())
        .with("peak_rss_mb", peak_rss_mb())
        .with("layers", layers)
        .with(
            "job_us",
            Json::Arr(rep.job_us.iter().map(|&us| Json::UInt(us)).collect()),
        )
        .with(
            "calib_s",
            Json::Arr(rep.calib_s.iter().map(|&s| Json::from(s)).collect()),
        );
    println!("{}", out.to_compact_string());
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// `repro all --quick`: the five chapter campaigns on a fresh on-disk
/// result cache, then the golden checks and the report round trip.
fn campaign_cold(args: &Args, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();
    let cache_dir = args.tmp.join("cache");
    let t = Instant::now();
    let exec = spans.time("exec.new", || {
        Exec::new(ExecConfig {
            jobs: args.workers,
            cache_dir: Some(cache_dir.clone()),
            heartbeat: true,
            ..ExecConfig::default()
        })
    });
    rep.setup_s = secs(t);

    let t = Instant::now();
    let cycles0 = sop_sim::cycles_simulated();
    let mut data = Json::object();
    let mut chapter_cycles = Vec::new();
    for ch in CHAPTERS {
        let c0 = sop_sim::cycles_simulated();
        let section = spans.time(&format!("bench.{ch}"), || {
            sop_bench::campaign::run_campaign(ch, true, &exec)
        });
        chapter_cycles.push((ch, sop_sim::cycles_simulated() - c0));
        data.insert(ch, section.expect("chapter campaigns exist"));
    }
    let checks = spans.time("bench.golden", golden_checks);
    let doc = spans.time("bench.report", || {
        let mut report = Report::new("sweep", "Scale-Out Processors: experiment campaign");
        report.set("campaign", Json::from("all"));
        report.set("quick", Json::from(true));
        report.set("data", data);
        sop_obs::stabilized(&report.to_json(&SpanLog::new(), &exec.metrics_snapshot()))
    });
    let text = spans.time("obs.encode", || doc.to_pretty_string());
    let parsed = spans.time("obs.parse", || sop_obs::json::parse(&text));
    rep.wall_s = secs(t);
    rep.cycles = sop_sim::cycles_simulated() - cycles0;

    // Correctness, outside the timed phase.
    let m = exec.metrics_snapshot();
    rep.ops.attempted += m.counter("exec.jobs.completed");
    for f in exec.failures() {
        rep.ops.fail(format!("job {} failed: {}", f.name, f.error));
    }
    for c in &checks {
        rep.ops.attempted += 1;
        if !c.ok() {
            rep.ops.fail(format!(
                "golden {} = {} (want {})",
                c.name, c.value, c.golden
            ));
        }
    }
    if let Err(e) = parsed {
        rep.ops.fail(format!("report does not parse back: {e:?}"));
    }
    rep.digest = hash_hex(spec_hash(&doc));

    if args.mode == Mode::Traced {
        let walls = |names: &[&str]| -> f64 {
            names
                .iter()
                .map(|ch| spans.total_s(&format!("bench.{ch}")))
                .sum()
        };
        let mcycles = |name: &str| -> f64 {
            chapter_cycles
                .iter()
                .find(|c| c.0 == name)
                .map_or(0.0, |c| c.1 as f64 / 1e6)
        };
        let campaign_s = walls(&CHAPTERS);
        rep.layers.extend([
            ("bench.ch3.wall_s", walls(&["ch3"])),
            ("bench.ch4.wall_s", walls(&["ch4"])),
            ("bench.analytic.wall_s", walls(&["ch2", "ch5", "ch6"])),
            ("bench.ch3.mcycles", mcycles("ch3")),
            ("bench.ch4.mcycles", mcycles("ch4")),
            ("obs.encode_s", spans.total_s("obs.encode")),
            ("obs.parse_s", spans.total_s("obs.parse")),
            ("obs.report_bytes", text.len() as f64),
        ]);
        let events = sop_exec::heartbeat::read_events(&cache_dir.join("progress.ndjson"));
        rep.job_us = events
            .iter()
            .filter(|e| e.get("ev").and_then(Json::as_str) == Some("job_finish"))
            .filter_map(|e| e.get("wall_us").and_then(Json::as_f64))
            .map(|us| us as u64)
            .collect();
        let busy_s = rep.job_us.iter().sum::<u64>() as f64 / 1e6;
        rep.layers
            .extend(exec_layers(&m, busy_s, args.workers, campaign_s));
    }
    rep
}

/// The `sop-exec` layer metrics of a campaign run. Job percentiles are
/// computed by `run.py` over the job times of every traced repetition.
fn exec_layers(
    m: &Registry,
    busy_s: f64,
    workers: usize,
    campaign_s: f64,
) -> Vec<(&'static str, f64)> {
    let hits = m.counter("exec.cache.hits") as f64;
    let lookups = hits + m.counter("exec.cache.misses") as f64;
    let steals: u64 = m
        .iter()
        .filter(|(k, _)| k.starts_with("exec.worker.") && k.ends_with(".steals"))
        .map(|(k, _)| m.counter(k))
        .sum();
    vec![
        ("exec.jobs", m.counter("exec.jobs.completed") as f64),
        ("exec.jobs_cached", m.counter("exec.jobs.cached") as f64),
        ("exec.jobs_failed", m.counter("exec.jobs.failed") as f64),
        (
            "exec.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
        ("exec.job_busy_s", busy_s),
        (
            "exec.worker_idle_frac",
            1.0 - busy_s / (workers as f64 * campaign_s),
        ),
        ("exec.steals", steals as f64),
    ]
}

/// The configuration `SimPointSpec::evaluate` builds for a spec, with
/// its warm-up and measured windows.
fn point_config(spec: &SimPointSpec) -> (SimConfig, u64, u64) {
    match *spec {
        SimPointSpec::Validation {
            workload,
            cores,
            topology,
            warm,
            measure,
            ..
        } => (
            SimConfig::validation(workload, cores, topology),
            warm,
            measure,
        ),
        SimPointSpec::Pod64 {
            workload,
            topology,
            link_bits,
            llc_tiles,
            warm,
            measure,
            ..
        } => {
            let mut cfg = SimConfig::pod_64(workload, topology);
            cfg.noc = cfg.noc.with_link_bits(link_bits);
            if let Some(tiles) = llc_tiles {
                cfg.noc.llc_tiles = tiles;
            }
            (cfg, warm, measure)
        }
    }
}

/// Exact simulated work and engine profile summed over machine windows.
#[derive(Debug, Default)]
struct SimTotals {
    cycles: u64,
    instructions: u64,
    llc_accesses: u64,
    llc_misses: u64,
    mem_lines: u64,
    flit_hops: u64,
    packets: u64,
    /// Sum of per-window mean packet latency weighted by packets.
    latency_weighted: f64,
    prof: Registry,
}

impl SimTotals {
    fn add(&mut self, r: &SimResult, machine: &Machine) {
        self.cycles += r.cycles;
        self.instructions += r.instructions;
        self.llc_accesses += r.llc_accesses;
        self.llc_misses += r.llc_misses;
        self.mem_lines += r.memory_lines;
        self.flit_hops += r.noc_flit_hops;
        let packets = r.metrics.counter("noc.packets");
        self.packets += packets;
        self.latency_weighted += r.mean_packet_latency * packets as f64;
        self.prof.merge(machine.metrics());
    }

    /// The `sop-sim` and `sop-noc` layer metrics. The engine profile
    /// covers warm-up and measured cycles alike, while flit-hops count
    /// measured cycles only, so NOC time per flit-hop is prorated to
    /// the measured share of profiled cycles.
    fn layers(&self, spans: &Spans) -> Vec<(&'static str, f64)> {
        let p = &self.prof;
        let prof_cycles = p.counter("prof.cycles").max(1) as f64;
        let advance_ns = p.counter("prof.advance.ns") as f64;
        let ns = |c: Component| p.counter(&format!("{}.ns", c.key())) as f64;
        let attributed: f64 = Component::ALL.iter().map(|&c| ns(c)).sum();
        let noc_ns = ns(Component::Noc);
        let measured_share = self.cycles as f64 / prof_cycles;
        vec![
            ("sim.build_s", spans.total_s("sim.build")),
            ("sim.warmup_s", spans.total_s("sim.warmup")),
            ("sim.advance_s", spans.total_s("sim.advance")),
            (
                "sim.ticks_per_cycle",
                p.counter("prof.ticks") as f64 / prof_cycles,
            ),
            ("sim.core_ns_per_cycle", ns(Component::Core) / prof_cycles),
            (
                "sim.directory_ns_per_cycle",
                ns(Component::Directory) / prof_cycles,
            ),
            (
                "sim.llc_bank_ns_per_cycle",
                ns(Component::LlcBank) / prof_cycles,
            ),
            ("sim.mem_ns_per_cycle", ns(Component::Mem) / prof_cycles),
            (
                "sim.next_event_ns_per_cycle",
                ns(Component::NextEvent) / prof_cycles,
            ),
            (
                "sim.unattributed_ns_per_cycle",
                (advance_ns - attributed) / prof_cycles,
            ),
            ("sim.cycles", self.cycles as f64),
            ("sim.instructions", self.instructions as f64),
            ("sim.llc_accesses", self.llc_accesses as f64),
            ("sim.llc_misses", self.llc_misses as f64),
            ("mem.lines", self.mem_lines as f64),
            ("noc.ns_per_cycle", noc_ns / prof_cycles),
            ("noc.share", noc_ns / advance_ns.max(1.0)),
            (
                "noc.ns_per_flit_hop",
                noc_ns * measured_share / self.flit_hops.max(1) as f64,
            ),
            ("noc.flit_hops", self.flit_hops as f64),
            ("noc.packets", self.packets as f64),
            (
                "noc.mean_latency_cycles",
                self.latency_weighted / self.packets.max(1) as f64,
            ),
        ]
    }
}

/// Traced `campaign-cold`, second half: the Fig 3.3 roster and the
/// chapter-4 pod roster replayed through `Machine::new` /
/// `run_window(0, 0)` / `run_window` on one worker, so warm-up and
/// advance are timed apart on the campaign's own points.
fn campaign_replay(spans: &mut Spans) -> Rep {
    let mut roster: Vec<SimPointSpec> = Vec::new();
    for topology in [
        TopologyKind::Ideal,
        TopologyKind::Crossbar,
        TopologyKind::Mesh,
    ] {
        for w in Workload::ALL {
            roster.extend(ch3::fig3_3_specs(w, topology, true));
        }
    }
    for w in Workload::ALL {
        for topology in ch4::FABRICS {
            roster.push(ch4::pod_spec(w, topology, 128, true));
        }
    }
    let mut rep = Rep::default();
    let mut totals = SimTotals::default();
    let t = Instant::now();
    let cycles0 = sop_sim::cycles_simulated();
    for spec in &roster {
        let (cfg, warm, measure) = point_config(spec);
        let done = rep.ops.attempt(&spec.name(), || {
            let mut m = spans.time("sim.build", || Machine::new(cfg));
            m.enable_profiling();
            spans.time("sim.warmup", || m.run_window(0, 0));
            let r = spans.time("sim.advance", || m.run_window(warm, measure));
            (r, m)
        });
        if let Some((r, m)) = done {
            totals.add(&r, &m);
        }
    }
    rep.wall_s = secs(t);
    rep.cycles = sop_sim::cycles_simulated() - cycles0;
    rep.layers = totals.layers(spans);
    rep
}

/// Three 64-core pods, each built and functionally warmed (set-up), then
/// advanced through one long window (timed). Outside the timed phase,
/// every pod's prefix window is checked against the per-cycle reference
/// engine.
fn pod_steady(args: &Args, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();
    let mut totals = SimTotals::default();
    let mut stats = Vec::new();
    for (workload, topology) in PODS {
        let mut cfg = SimConfig::pod_64(workload, topology);
        cfg.seed = args.seed;
        let t = Instant::now();
        let mut m = spans.time("sim.build", || Machine::new(cfg));
        if args.mode == Mode::Traced {
            m.enable_profiling();
        }
        spans.time("sim.warmup", || m.run_window(0, 0));
        rep.setup_s += secs(t);
        let t = Instant::now();
        let c0 = sop_sim::cycles_simulated();
        let r = spans.time("sim.advance", || m.run_window(0, POD_CYCLES));
        rep.wall_s += secs(t);
        rep.cycles += sop_sim::cycles_simulated() - c0;
        rep.ops.attempted += 1;
        if r.halted.is_some() || r.cycles != POD_CYCLES {
            rep.ops
                .fail(format!("{workload:?}/{topology:?} halted: {:?}", r.halted));
        }
        stats.push(Json::Arr(
            [
                r.cycles,
                r.instructions,
                r.llc_accesses,
                r.llc_misses,
                r.memory_lines,
                r.noc_flit_hops,
                r.mean_packet_latency.to_bits(),
            ]
            .into_iter()
            .map(Json::UInt)
            .collect(),
        ));
        totals.add(&r, &m);
    }
    rep.digest = hash_hex(spec_hash(&Json::Arr(stats)));
    let check = spans.open("sim.reference_check");
    for (workload, topology) in PODS {
        let mut cfg = SimConfig::pod_64(workload, topology);
        cfg.seed = args.seed;
        let matches = rep.ops.attempt("reference prefix", || {
            let window = |reference: bool| {
                let mut m = Machine::new(cfg);
                m.set_reference_mode(reference);
                m.run_window(0, REFERENCE_PREFIX)
            };
            window(false) == window(true)
        });
        if matches == Some(false) {
            rep.ops.fail(format!(
                "{workload:?}/{topology:?}: event engine differs from the reference engine"
            ));
        }
    }
    spans.close(check);
    if args.mode == Mode::Traced {
        rep.layers = totals.layers(spans);
    }
    rep
}

/// The quick plain-fleet grid, then the quick resilience grid and storm
/// pair, each spec evaluated directly on this thread.
fn fleet_day(args: &Args, spans: &mut Spans) -> Rep {
    let mut rep = Rep::default();
    let t = Instant::now();
    let (plain, resilience) = spans.time("fleet.specs", || {
        let plain: Vec<FleetPointSpec> =
            sop_fleet::grid(FLEET_SERVERS, args.seed, true, None, None);
        let mut resilience: Vec<ResiliencePointSpec> = sop_fleet::resilience_grid(
            FLEET_SERVERS,
            args.seed,
            true,
            Some("scaleout-ooo"),
            None,
            None,
            None,
        );
        resilience.extend(sop_fleet::storm_pair(
            "scaleout-ooo",
            FLEET_SERVERS,
            args.seed,
            true,
        ));
        (plain, resilience)
    });
    rep.setup_s = secs(t);

    let t = Instant::now();
    let events0 = sop_fleet::events_processed();
    let ticks0 = sop_fleet::ticks_simulated();
    let plain_rows: Vec<Json> = spans.time("fleet.plain", || {
        plain
            .iter()
            .filter_map(|s| rep.ops.attempt(&s.name(), || s.evaluate()))
            .collect()
    });
    let plain_events = sop_fleet::events_processed() - events0;
    let resilience_rows: Vec<Json> = spans.time("fleet.resilience", || {
        resilience
            .iter()
            .filter_map(|s| rep.ops.attempt(&s.name(), || s.evaluate()))
            .collect()
    });
    let resilience_events = sop_fleet::events_processed() - events0 - plain_events;
    let doc = Json::object()
        .with("fleet", Json::Arr(plain_rows))
        .with("resilience", Json::Arr(resilience_rows));
    let text = spans.time("obs.encode", || doc.to_pretty_string());
    let parsed = spans.time("obs.parse", || sop_obs::json::parse(&text));
    rep.wall_s = secs(t);
    rep.events = plain_events + resilience_events;

    if let Err(e) = parsed {
        rep.ops.fail(format!("report does not parse back: {e:?}"));
    }
    rep.digest = hash_hex(spec_hash(&doc));
    if args.mode == Mode::Traced {
        let plain_s = spans.total_s("fleet.plain");
        let resilience_s = spans.total_s("fleet.resilience");
        rep.layers = vec![
            ("fleet.runs", (plain.len() + resilience.len()) as f64),
            ("fleet.events", rep.events as f64),
            (
                "fleet.ticks",
                (sop_fleet::ticks_simulated() - ticks0) as f64,
            ),
            ("fleet.plain_s", plain_s),
            ("fleet.resilience_s", resilience_s),
            (
                "fleet.plain_ns_per_event",
                plain_s * 1e9 / plain_events.max(1) as f64,
            ),
            (
                "fleet.resilience_ns_per_event",
                resilience_s * 1e9 / resilience_events.max(1) as f64,
            ),
            ("obs.encode_s", spans.total_s("obs.encode")),
            ("obs.parse_s", spans.total_s("obs.parse")),
            ("obs.report_bytes", text.len() as f64),
        ];
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_operation_counts_as_failed() {
        let mut ops = Ops::default();
        assert_eq!(ops.attempt("ok", || 1), Some(1));
        assert_eq!(ops.attempt("boom", || -> u32 { panic!("injected") }), None);
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.problems, vec!["boom panicked".to_owned()]);
    }
}
