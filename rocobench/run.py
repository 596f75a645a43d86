#!/usr/bin/env python3
"""The rocosim benchmark.

  python3 rocobench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Builds the repository's library with its default options plus the
rocobench executable (under .bench_build/), then measures workload W
for S seconds with workload seed N. Every measurement is a fresh
process running the workload's whole batch once, so each one proves
its designs cold and owns its peak RSS; the reported host times are
the 10th percentile over those processes (README.md says why).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of the traced run (see README.md). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when any simulation failed a check.

    python3 rocobench/run.py --update-golden

re-freezes golden.json from the default seed, for a change that alters
the simulated statistics on purpose.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
EXE = CMAKE_DIR / "rocobench"
GOLDEN = HERE / "golden.json"

WORKLOADS = ["open_lowload", "open_saturation", "closed_faults",
             "mesh16_sharded"]
# Golden digests are frozen at the default seed. Seed 2 is held out:
# tune nothing on it, and use it to confirm a claim made on seed 1.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
MIN_SAMPLES = 4
CHILD_TIMEOUT_S = 150

# name -> (unit, better); the order is the printing order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "node_cycles_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_latency_avg_cycles": ("cycles", "lower"),
    "sim_latency_p99_cycles": ("cycles", "lower"),
    "sim_completion": ("ratio", "higher"),
    "sim_pef": ("nJ.cycles", "lower"),
}
PER_LAYER = {
    "check.deadlock_ms": "ms",
    "model.liveness_ms": "ms",
    "check.proofs_performed": "count",
    "check.invariant_ms": "ms",
    "sim.build_ms": "ms",
    "sim.reduce_ms": "ms",
    "nic.generate_ns_per_node_cycle": "ns",
    "nic.gen_frac": "ratio",
    "engine.skip_frac": "ratio",
    "engine.overhead_ns_per_cycle": "ns",
    "engine.warmup_ms": "ms",
    "engine.measure_ms": "ms",
    "engine.drain_ms": "ms",
    "engine.drain_cycles": "cycles",
    "router.generic.step_ns": "ns",
    "router.ps.step_ns": "ns",
    "router.roco.step_ns": "ns",
    "router.steps_executed": "count",
    "router.flit_hops": "count",
    "router.ns_per_flit_hop": "ns",
    "router.sa_denied_frac": "ratio",
    "router.va_arbs": "count",
    "router.sa_arbs": "count",
    "router.early_ejections": "count",
    "svc.mshr_throttled_frac": "ratio",
    "svc.timeouts": "count",
    "svc.late_replies": "count",
    "svc.rtt_p99_cycles": "cycles",
    "fault.flits_dropped": "count",
    "par.run_ms": "ms",
    "par.speedup": "ratio",
    "par.overhead_ns_per_cycle": "ns",
    "trace.overhead_frac": "ratio",
}

# Each of these silently changes what is measured.
REFUSED_VARS = {"NOC_SHARDS", "NOC_IDLE_SKIP", "NOC_SKIP_CHECK",
                "NOC_INVARIANT", "NOC_RACE_CHECK"}
REFUSED_PREFIXES = ("NOC_TRACE", "NOC_BENCH_")


def fail(msg):
    print(f"rocobench: {msg}", file=sys.stderr)
    sys.exit(2)


def refused_env():
    return sorted(v for v in os.environ
                  if v in REFUSED_VARS or v.startswith(REFUSED_PREFIXES))


def build():
    """Configures (once) and builds the rocobench target; quiet on success."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"rocosim sources not found in {ROOT}")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR)])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "rocobench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (see {log})")


def child(*args):
    """Runs one rocobench process; returns its JSON line or None."""
    try:
        p = subprocess.run([str(EXE), *args], capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"rocobench: {' '.join(args)}: timed out", file=sys.stderr)
        return None
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"rocobench: {' '.join(args)}: exit {p.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def revision():
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    # Not a git checkout: identify the sources by content instead.
    h = hashlib.sha1()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-sha1:" + h.hexdigest()


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def check_jobs(sample, reference, label):
    """Counts the jobs of @sample that timed out or differ from @reference
    (job name -> digest); prints each failure."""
    bad = 0
    for job in sample["jobs"]:
        want = reference.get(job["name"])
        if job["timed_out"] or want != job["digest"]:
            why = "timed out" if job["timed_out"] else \
                f"digest {job['digest']} != {label} {want}"
            print(f"rocobench: {job['name']}: {why}", file=sys.stderr)
            bad += 1
    return bad


def fast_decile(xs):
    """10th percentile, the fast end of the samples."""
    xs = list(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[0] \
        if len(xs) > 1 else xs[0]


def collect(workload, seed, seconds, mode, extra_args, min_samples):
    """Runs @mode processes back to back until @seconds have passed and
    checks each against the reference digests: golden.json at the
    default seed, else the first process. Returns the samples, the jobs
    attempted and failed, and the reference."""
    args = [mode, "--workload", workload, "--seed", str(seed), *extra_args]
    samples, lost = [], 0
    end = time.monotonic() + seconds
    while len(samples) + lost < min_samples or time.monotonic() < end:
        s = child(*args)
        if s is not None:
            samples.append(s)
        elif (lost := lost + 1) > 2:
            break
    if not samples:
        fail(f"{workload}: no {mode} process completed")

    per_pass = len(samples[0]["jobs"])
    golden = load_golden().get(workload) if seed == DEFAULT_SEED else None
    ref = (golden, "golden") if golden else \
        ({j["name"]: j["digest"] for j in samples[0]["jobs"]}, "first run")
    failed = per_pass * lost + sum(check_jobs(s, *ref) for s in samples)
    return samples, per_pass * (len(samples) + lost), failed, ref


def measure(workload, seed, seconds):
    samples, attempted, failed, ref = collect(workload, seed, seconds,
                                              "run", [], MIN_SAMPLES)
    jobs = samples[0]["jobs"]
    for s in samples:
        if not s["cold_proofs"]:
            print("rocobench: a design was not proved cold", file=sys.stderr)
            failed += len(jobs)

    # Outside the timed window: a sharded batch must match one shard.
    if any(j["shards"] > 1 for j in jobs):
        serial = child("run", "--workload", workload, "--seed", str(seed),
                       "--serial")
        attempted += len(jobs)
        failed += len(jobs) if serial is None else check_jobs(serial, *ref)

    # The first process only warms the host (its outputs were checked
    # above). Host times are the 10th percentile over the processes: a
    # co-tenant can only ever slow a process down, often for many
    # seconds at a time, and the median then follows the co-tenant,
    # not the program.
    timed = samples[1:] or samples
    metrics = {
        "setup_s": fast_decile(s["setup_s"] for s in timed),
        "run_s": fast_decile(s["run_s"] for s in timed),
        "node_cycles_per_s": -fast_decile(
            -s["node_cycles"] / s["run_s"] for s in timed),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "sim_latency_avg_cycles": statistics.fmean(
            j["avg_latency"] for j in jobs),
        # Median, not mean: one job's tail (e.g. RoCo detouring around a
        # fault) would otherwise set the workload's number.
        "sim_latency_p99_cycles": statistics.median(
            j["p99_latency"] for j in jobs),
        "sim_completion": statistics.fmean(j["completion"] for j in jobs),
        "sim_pef": statistics.fmean(j["pef"] for j in jobs),
    }
    extra = {"samples": len(samples), "failed_frac": failed / attempted}
    rtt = [j["rtt_p99"] for j in jobs if j["rtt_p99"] > 0]
    if rtt:
        extra["sim_rtt_p99_cycles"] = statistics.fmean(rtt)
    return metrics, extra, attempted, failed, samples


def trace(workload, seed, seconds):
    spans = BUILD / "spans" / f"{workload}-seed{seed}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    samples, attempted, failed, _ = collect(
        workload, seed, seconds, "trace", ["--spans", str(spans)], 1)
    diverged = sum(s["failed"] for s in samples)
    if diverged:
        print("rocobench: BROKEN HARNESS: the traced run does not reproduce "
              "the untraced one; its per-layer numbers are not valid",
              file=sys.stderr)
    failed += diverged + sum(not s["spans_written"] for s in samples)
    metrics = {name: statistics.median(s["layers"][name] for s in samples)
               for name in PER_LAYER}
    extra = {"samples": len(samples), "failed_frac": failed / attempted,
             "spans": str(spans.relative_to(ROOT))}
    return metrics, extra, attempted, failed, samples


def update_golden():
    golden = {}
    for w in WORKLOADS:
        s = child("run", "--workload", w, "--seed", str(DEFAULT_SEED))
        if s is None or any(j["timed_out"] for j in s["jobs"]):
            fail(f"{w}: cannot freeze a failing run")
        golden[w] = {j["name"]: j["digest"] for j in s["jobs"]}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--update-golden", action="store_true")
    a = ap.parse_args()
    if not a.update_golden and a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    bad = refused_env()
    if bad:
        fail(f"refusing to run with {', '.join(bad)} set: "
             "each changes what is measured")
    build()
    if a.update_golden:
        update_golden()
        return 0

    run = trace if a.trace else measure
    metrics, extra, attempted, failed, samples = run(a.workload, a.seed,
                                                     a.seconds)
    prov = dict(samples[0]["provenance"], revision=revision(),
                workload=a.workload, seed=a.seed, seconds=a.seconds,
                trace=a.trace)
    print("provenance: " + json.dumps(prov))
    units = PER_LAYER if a.trace else \
        {k: u for k, (u, _) in END_TO_END.items()}
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>18.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:34s} {value!s:>18}")

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps({"provenance": prov, "metrics": metrics, "extra": extra,
                    "samples": samples}, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
