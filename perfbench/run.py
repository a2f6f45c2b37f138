#!/usr/bin/env python3
"""The repository benchmark: one command, three cold workloads.

    python3 perfbench/run.py --workload campaign-cold|pod-steady|fleet-day \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the `perfbench` worker from
source (into $CARGO_TARGET_DIR, else perfbench/target), then runs cold
repetitions of the workload, each in a fresh worker process, for about
S seconds. It checks the simulated outputs, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics. End-to-end times are reference seconds: each repetition's host
seconds rescaled by the speed of a fixed calibration kernel timed in the
same worker just before and after it (perfbench/src/calib.rs), so a slow
phase of a shared host cancels out; the raw host seconds are printed
next to them. The exit code is 0 only when every correctness check
passed, and 2, with no result line, when the worker cannot be built. Spans and a
per-run report land in <target dir>/perfbench-traces/. Predictions,
digests and the first baseline are in expectations.json; self-tests are
`python3 -m unittest discover -s perfbench/tests`.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tomllib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("campaign-cold", "pod-steady", "fleet-day")

# End-to-end metrics (--trace 0): name -> unit.
END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (--trace 1): name -> unit. A layer a workload does not
# exercise reports 0 there.
PER_LAYER = {
    "bench.ch3.wall_s": "s",
    "bench.ch4.wall_s": "s",
    "bench.analytic.wall_s": "s",
    "bench.ch3.mcycles": "Mcycles",
    "bench.ch4.mcycles": "Mcycles",
    "exec.jobs": "count",
    "exec.jobs_cached": "count",
    "exec.jobs_failed": "count",
    "exec.cache_hit_ratio": "ratio",
    "exec.job_busy_s": "s",
    "exec.job_samples": "count",
    "exec.job_p50_ms": "ms",
    "exec.job_p95_ms": "ms",
    "exec.worker_idle_frac": "ratio",
    "exec.steals": "count",
    "sim.mcycles_per_s": "Mcycles/s",
    "sim.build_s": "s",
    "sim.warmup_s": "s",
    "sim.advance_s": "s",
    "sim.ticks_per_cycle": "ratio",
    "sim.core_ns_per_cycle": "ns/cycle",
    "sim.directory_ns_per_cycle": "ns/cycle",
    "sim.llc_bank_ns_per_cycle": "ns/cycle",
    "sim.mem_ns_per_cycle": "ns/cycle",
    "sim.next_event_ns_per_cycle": "ns/cycle",
    "sim.unattributed_ns_per_cycle": "ns/cycle",
    "sim.cycles": "cycles",
    "sim.instructions": "count",
    "sim.llc_accesses": "count",
    "sim.llc_misses": "count",
    "mem.lines": "count",
    "noc.ns_per_cycle": "ns/cycle",
    "noc.share": "ratio",
    "noc.ns_per_flit_hop": "ns",
    "noc.flit_hops": "count",
    "noc.packets": "count",
    "noc.mean_latency_cycles": "cycles",
    "fleet.events_per_s": "1/s",
    "fleet.runs": "count",
    "fleet.events": "count",
    "fleet.ticks": "count",
    "fleet.plain_s": "s",
    "fleet.resilience_s": "s",
    "fleet.plain_ns_per_event": "ns",
    "fleet.resilience_ns_per_event": "ns",
    "obs.encode_s": "s",
    "obs.parse_s": "s",
    "obs.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

# Host seconds of one calibration kernel run at the reference speed, about
# the kernel's median on a 2-vCPU Intel Xeon VM (0.068 s over 287
# repetitions). A repetition whose kernel runs took this long reports its
# host seconds unchanged; one whose kernel ran twice as slow reports half.
CALIB_REFERENCE_S = 0.07

# Workloads whose inputs follow --seed. At any other seed than the
# default, one extra repetition at the default seed is checked against
# the recorded digest, so a deterministic change of the simulated output
# fails on every seed.
SEEDED = ("pod-steady", "fleet-day")
# Timed repetitions per --trace 0 run, at least.
MIN_REPS = 3
# A worker process that runs longer than this has hung.
WORKER_TIMEOUT_S = 150


def expectations():
    with open(os.path.join(BENCH_DIR, "expectations.json")) as f:
        return json.load(f)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")


def release_profile_env():
    """The repository's [profile.release] as Cargo environment overrides,
    so the worker is built with the settings the repository ships."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def build():
    """Builds the worker; returns its path. Build output goes to stderr."""
    env = dict(os.environ, **release_profile_env())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    subprocess.run(cmd, check=True, env=env, cwd=ROOT, stdout=sys.stderr)
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the repository sources the worker is built from, so a
    checkout without git history still identifies what was measured."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_signature(seed, workers):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "exec_workers": workers,
        "engine_threads": 1,
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_digest": source_digest(),
        "seed": seed,
    }


def run_worker(exe, workload, seed, mode, tmp, workers, spans_out=None):
    """Runs one repetition in a fresh process; returns its result with
    `process_start_s` (spawn to the worker's main) added. Mode "check"
    runs a timed repetition that the metrics leave out."""
    os.makedirs(tmp)
    worker_mode = "timed" if mode == "check" else mode
    cmd = [exe, workload, "--seed", str(seed), "--mode", worker_mode, "--tmp", tmp,
           "--workers", str(workers)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, SOP_CACHE_DIR=os.path.join(tmp, "cache"))
    spawned_ns = time.time_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=WORKER_TIMEOUT_S)
        problem = None if proc.returncode == 0 else \
            f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        problem = f"{mode} worker hung past {WORKER_TIMEOUT_S} s"
    shutil.rmtree(tmp, ignore_errors=True)
    if problem:
        return {"mode": mode, "attempted": 1, "failed": 1, "digest": "", "problems": [problem]}
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["mode"] = mode
    rep["process_start_s"] = (rep["main_start_unix_ns"] - spawned_ns) / 1e9
    return rep


def median(values):
    return statistics.median(values) if values else 0.0


def recorded_digest(expect, workload, seed):
    """The recorded digest of a workload at a seed, or None. campaign-cold
    has one for every seed, because its seed is fixed inside the campaign."""
    want = expect["digests"].get(workload, {})
    return want.get(str(seed)) if isinstance(want, dict) else want


def gate(workload, seed, reps, expect):
    """Correctness over every repetition: no failed operation, one digest
    across the run's repetitions, and the recorded digest wherever one is
    recorded: at the run's seed, and at the default seed for the "check"
    repetition. Returns (attempted, failed, problems)."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    digests = {r["digest"] for r in reps if r["mode"] in ("timed", "traced") and r["digest"]}
    want = recorded_digest(expect, workload, seed)
    if len(digests) > 1:
        failed += 1
        problems.append(f"digest differs across runs: {sorted(digests)}")
    elif want and digests and digests != {want}:
        failed += 1
        problems.append(f"digest {digests.pop()} != recorded {want}")
    default_seed = expect["default_seed"]
    want = recorded_digest(expect, workload, default_seed)
    for r in reps:
        if r["mode"] == "check" and r["digest"] and r["digest"] != want:
            failed += 1
            problems.append(f"seed {default_seed} digest {r['digest']} != recorded {want}")
    return attempted, failed, problems


def speed(r):
    """The host's speed during a repetition relative to the reference
    host: reference kernel time over the repetition's median kernel time."""
    return CALIB_REFERENCE_S / median(r["calib_s"])


def host_setup_s(r):
    """Set-up of a repetition: spawn to the first timed operation."""
    return r["process_start_s"] + r["setup_s"]


def end_to_end(reps):
    """Medians over the timed repetitions, each repetition's host seconds
    rescaled to the reference speed. Set-up is sampled in every timed
    repetition."""
    timed = [r for r in reps if r["mode"] == "timed" and r["failed"] == 0]
    return {
        "wall_ref_s": median([r["wall_s"] * speed(r) for r in timed]),
        "setup_s": median([host_setup_s(r) * speed(r) for r in timed]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in timed]),
    }


def per_layer(reps):
    timed = [r for r in reps if r["mode"] == "timed" and r["failed"] == 0]
    traced = [r for r in reps if r["mode"] in ("traced", "replay") and r["failed"] == 0]
    values = {}
    for r in traced:
        for name, v in r["layers"].items():
            # The replay runs outside the timed phase; only the traced
            # repetitions speak for the tracing itself.
            if not (r["mode"] == "replay" and name.startswith("trace.")):
                values.setdefault(name, []).append(v)
    out = {name: median(values.get(name, [])) for name in PER_LAYER}
    job_us = sorted(us for r in traced for us in r.get("job_us", []))
    if job_us:
        out["exec.job_samples"] = len(job_us)
        out["exec.job_p50_ms"] = nearest_rank(job_us, 0.50) / 1e3
        out["exec.job_p95_ms"] = nearest_rank(job_us, 0.95) / 1e3
    ref_wall = median([r["wall_s"] * speed(r) for r in timed])
    traced_ref_wall = median([r["wall_s"] * speed(r) for r in traced if r["mode"] == "traced"])
    if ref_wall > 0:
        out["trace.overhead_frac"] = traced_ref_wall / ref_wall - 1
    out["sim.mcycles_per_s"], out["fleet.events_per_s"] = rates(
        timed, median([r["wall_s"] for r in timed]))
    return out


def rates(timed, wall):
    """Simulated cycles (in millions) and fleet events per host second of
    the timed phase: the work is fixed per workload and seed."""
    if wall <= 0:
        return 0.0, 0.0
    return (median([r["cycles"] for r in timed]) / wall / 1e6,
            median([r["events"] for r in timed]) / wall)


def nearest_rank(sorted_values, q):
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def measure(exe, workload, seed, seconds, trace, tmp_root, workers, traces_dir, default_seed):
    reps = []
    n = 0

    def rep(mode, spans=False, rep_seed=seed):
        nonlocal n
        n += 1
        spans_out = os.path.join(traces_dir, f"{workload}-seed{seed}-{n}.json") if spans else None
        r = run_worker(exe, workload, rep_seed, mode, os.path.join(tmp_root, str(n)), workers,
                       spans_out)
        reps.append(r)
        return r

    start = time.monotonic()
    if trace:
        if workload == "campaign-cold":
            rep("replay", spans=True)
        while True:
            rep("timed")
            rep("traced", spans=True)
            if time.monotonic() - start >= seconds:
                break
    else:
        while sum(r["mode"] == "timed" for r in reps) < MIN_REPS or time.monotonic() - start < seconds:
            rep("timed")
    if workload in SEEDED and seed != default_seed:
        rep("check", rep_seed=default_seed)
    return reps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    expect = expectations()
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: cannot build the worker: {e}", file=sys.stderr)
        return 2
    workers = min(len(os.sched_getaffinity(0)), 2)
    signature = host_signature(args.seed, workers)
    traces_dir = os.path.join(target_dir(), "perfbench-traces")
    os.makedirs(traces_dir, exist_ok=True)
    tmp_root = os.path.join(ROOT, ".perfbench-tmp", str(os.getpid()))
    try:
        reps = measure(exe, args.workload, args.seed, args.seconds, args.trace,
                       tmp_root, workers, traces_dir, expect["default_seed"])
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass  # another run still uses it

    attempted, failed, problems = gate(args.workload, args.seed, reps, expect)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    correct = failed == 0

    print("host: " + json.dumps(signature, sort_keys=True))
    for p in problems:
        print(f"FAIL: {p}")
    for name, unit in units.items():
        print(f"{name:32} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':32} {failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    if not args.trace:
        timed = [r for r in reps if r["mode"] == "timed" and r["failed"] == 0]
        host_wall = median([r["wall_s"] for r in timed])
        print(f"{'wall_s':32} {host_wall:>16.6g} s (host seconds)")
        print(f"{'host_setup_s':32} {median([host_setup_s(r) for r in timed]):>16.6g} s "
              "(host seconds)")
        print(f"{'host_speed':32} {median([speed(r) for r in timed]):>16.6g} ratio "
              "(of the reference host)")
        mcycles_per_s, events_per_s = rates(timed, host_wall)
        if mcycles_per_s:
            print(f"{'sim_mcycles_per_s':32} {mcycles_per_s:>16.6g} Mcycles/s")
        if events_per_s:
            print(f"{'fleet_events_per_s':32} {events_per_s:>16.6g} 1/s")
    with open(os.path.join(traces_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.report.json"), "w") as f:
        json.dump({"host": signature, "workload": args.workload, "reps": reps,
                   "problems": problems, "metrics": metrics}, f, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
