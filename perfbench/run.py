#!/usr/bin/env python3
"""The repo benchmark: open-loop workloads on the 8-shard cluster fleet.

Usage, from the repository root:

    python3 perfbench/run.py --workload poisson --seed 1 --seconds 30 --trace 0

Workloads (configs in perfbench/perfbench.cc, rationale in
perfbench/PREDICTIONS.md): poisson, bursty-move, pg-gc.

The script builds perfbench/ (the simulator libraries from src/ plus the
perfbench binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, under the repository root. It then runs whole
iterations of the workload, one process each, until the next iteration
would overrun --seconds (at least three). Every iteration is checked:

  * verifyConsistency() passes and every routed op completes;
  * every iteration of a run reproduces the first one's digest and
    simulated results (same seed, so they must be identical);
  * at seed 1, poisson and bursty-move reproduce the digest, ops/s and
    p50/p99/p99.9 recorded in baselines/BENCH_cluster.json;
  * on pg-gc, a shortened run at 4 engine threads equals a serial one.

A failed check counts every op of the run as failed (correct: false).
The last line of stdout is one JSON object: correct, attempted, failed
and metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list: medians over iterations for host times, exact values for the
simulated ones. With --trace 1 they are its per_layer list; the first
iteration then also runs the traced single-shard replay (replay.hh).

Exit code 1, with no result line, when the build fails or the binary
produces no output (it crashed, timed out or refused the build).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("poisson", "bursty-move", "pg-gc")
# Simulated results every iteration of one run must reproduce exactly.
SIM_KEYS = ("state_digest", "op_p50_us", "layer.router.op_p99_us",
            "layer.router.op_p999_us", "layer.router.op_p99999_us",
            "layer.router.op_samples", "sim_ops_per_s", "horizon_ticks")
# Host-time metrics: reported as the median over a run's iterations.
HOST_KEYS = ("wall_s", "sim_ops_per_wall_s", "peak_rss_mb",
             "layer.cluster.run_s", "layer.cluster.verify_s",
             "layer.cluster.digest_s", "layer.cluster.export_s")
# setup_s: the median over this many processes of the median of
# SETUP_REPS constructions each. Construction takes under a millisecond,
# and its speed shifts from process to process with memory layout.
SETUP_PROCESSES = 15
SETUP_REPS = 32
# The host's speed can drift by tens of percent for seconds at a time;
# a median over at least three iterations keeps one slow iteration from
# setting the run's figure. Past RUN_LIMIT_S the run stops regardless,
# so it ends well inside three minutes.
MIN_ITERATIONS = 3
RUN_LIMIT_S = 100
ITERATION_TIMEOUT_S = 60


def log(msg):
    print(msg, flush=True)


def build():
    """Configure and (re)build; returns the perfbench binary."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = ROOT / target / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def run_perfbench(exe, *args):
    """Run the perfbench binary once; returns its JSON line or an error string."""
    try:
        proc = subprocess.run([str(exe), *args], capture_output=True,
                              text=True, timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {ITERATION_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return f"bad output: {e}"


def baseline_errors(workload, it):
    """Compare a seed-1 iteration with baselines/BENCH_cluster.json."""
    path = ROOT / "baselines" / "BENCH_cluster.json"
    records = json.loads(path.read_text())["records"]
    rec = next((r for r in records if r["mix"] == workload), None)
    if rec is None:
        return [f"no {workload} record in {path.name}"]
    errs = []
    if it["state_digest"] != rec["state_digest"]:
        errs.append(f"digest {it['state_digest']} != {rec['state_digest']}")
    for key in ("ops_per_sec", "op_p50_us", "op_p99_us", "op_p999_us"):
        if float(it["baseline." + key]) != float(rec[key]):
            errs.append(f"{key} {it['baseline.' + key]} != {rec[key]}")
    return errs


def check_iteration(args, it, first):
    """Every correctness check on one iteration; returns error strings."""
    errs = []
    if not it["verified"]:
        errs.append("verifyConsistency failed: " + it["error"])
    if not it["ops_offered"] == it["ops_routed"] == it["ops_completed"]:
        errs.append(f"offered {it['ops_offered']}, routed "
                    f"{it['ops_routed']}, completed {it['ops_completed']}")
    if first is not None:
        errs += [f"{k} differs from the run's first iteration"
                 for k in SIM_KEYS if it[k] != first[k]]
    if args.seed == 1 and args.workload != "pg-gc":
        errs += baseline_errors(args.workload, it)
    return errs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    attempted = failed = 0
    iterations = []
    run_errors = []
    if args.workload == "pg-gc":
        ident = run_perfbench(exe, "--check-threads", f"--seed={args.seed}")
        if isinstance(ident, str) or not ident["thread_identity"]:
            run_errors.append(f"4-thread pg-gc differs from serial: {ident}")
    setup = [run_perfbench(exe, f"--workload={args.workload}",
                        f"--seed={args.seed}", f"--setup={SETUP_REPS}")
             for _ in range(SETUP_PROCESSES)]
    bad = [s for s in setup if isinstance(s, str)]
    if bad:
        print(f"perfbench: set-up run failed: {bad[0]}", file=sys.stderr)
        return 1

    start = time.monotonic()
    for n in range(1, 1_000_000):
        t0 = time.monotonic()
        extra = ["--replay"] if args.trace and not iterations else []
        it = run_perfbench(exe, f"--workload={args.workload}",
                           f"--seed={args.seed}", *extra)
        took = time.monotonic() - t0
        if not isinstance(it, dict):
            log(f"iteration {n}: FAILED: {it}")
            run_errors.append(it)
            break
        errs = check_iteration(args, it, iterations[0] if iterations else None)
        iterations.append(it)
        attempted += it["ops_offered"]
        if errs:
            failed += it["ops_offered"]
            log(f"iteration {n}: FAILED: " + "; ".join(errs))
            run_errors += errs
        else:
            failed += it["ops_offered"] - it["ops_completed"]
            log(f"iteration {n}: wall_s={it['wall_s']:.3f} "
                f"run_s={it['layer.cluster.run_s']:.3f} "
                f"verify_s={it['layer.cluster.verify_s']:.3f} "
                f"digest_s={it['layer.cluster.digest_s']:.3f} "
                f"construct_s={it['construct_s']:.6f} "
                f"rss_mb={it['peak_rss_mb']:.1f}")
        elapsed = time.monotonic() - start
        if elapsed + took > (args.seconds if n >= MIN_ITERATIONS
                             else RUN_LIMIT_S):
            break
    if not iterations:
        print("perfbench: no iteration ran: " + "; ".join(run_errors),
              file=sys.stderr)
        return 1
    if run_errors:
        failed = attempted

    first = iterations[0]
    values = dict(first)
    for key in HOST_KEYS:
        values[key] = statistics.median(i[key] for i in iterations)
    values["setup_s"] = statistics.median(s["setup_s"] for s in setup)
    values = {k.removeprefix("layer."): v for k, v in values.items()}
    values["op_fail_frac"] = failed / attempted

    log(f"perfbench: workload={args.workload} seed={args.seed} "
        f"ops/iteration={first['ops_offered']} "
        f"engine_threads={first['engine_threads']} "
        f"build={first['build_type']} compiler={first['compiler']} "
        f"hardware_concurrency={first['hardware_concurrency']} "
        f"iterations={len(iterations)}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}
        log(f"  {m['name']:<28} {float(values[m['name']]):>18.6f} "
            f"{m['unit']}")
    if not args.trace:
        # End-to-end too, but unbounded: too seed-sensitive to gate on.
        for q in ("op_p99_us", "op_p999_us", "op_p99999_us"):
            log(f"  {q:<28} {values['router.' + q]:>18.6f} us")
        log(f"  {'op_fail_frac':<28} {values['op_fail_frac']:>18.6f} "
            f"(failed {failed} of {attempted} ops; percentiles over "
            f"{values['router.op_samples']} samples)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
