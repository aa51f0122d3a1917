#!/usr/bin/env python3
"""Fleet benchmark driver.

Builds the `perfbench` package (its own Cargo package, path-depending on the
repository crates) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Untraced (`--trace 0`): a few construction-only processes, then full repetitions
(construction + `FleetSimulator::run`) for `--seconds` seconds, at least three. Each
repetition is a fresh process, so its peak RSS is its own. End-to-end metrics are
medians over repetitions. Times are scaled to a fixed host speed: each process also
times a fixed reference kernel (`src/reference.rs`) next to the workload, and every
time it measures is multiplied by `REFERENCE_S / its mean kernel time`.

Traced (`--trace 1`): one untraced repetition and one traced repetition of the same
inputs; prints the per-layer metrics, `trace.overhead_s` being the traced run's summed
fleet-step time minus the untraced `run_s`.

Every repetition is checked: it must exit cleanly and pass its own output checks
(finite metrics, request conservation, trace record count), and every repetition of a
run must produce the same report digest. The last stdout line is the JSON result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("control-week", "trace-replay", "fabric-chaos")
MIN_REPS = 3
# Construction-only samples taken before the timed repetitions.
SETUP_SAMPLES = 16
SETUP_BUDGET_S = 6.0
# Leave room under the 180 s per-run limit.
HARD_STOP_S = 120.0
# Reference-kernel wall time, in seconds, at the host speed the reported times are
# scaled to: a quiet 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz nominal).
REFERENCE_S = 0.16


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.abspath(os.path.join(target, "release", "perfbench"))


def spawn(binary, mode, workload, seed):
    """Runs one repetition; returns (parsed JSON or None, ru_maxrss MiB, error text)."""
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        return None, rss_mb, f"{mode} exited with {proc.returncode}"
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), rss_mb, None
    except (ValueError, IndexError) as error:
        return None, rss_mb, f"{mode} printed no result ({error})"


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def scaled(result, name):
    """A time measured by one process, in seconds at the reference host speed."""
    return result[name] * REFERENCE_S / statistics.mean(result["reference_s"])



# Per-layer metrics of the traced run: name -> unit. BENCHMARK.json lists the same set.
PER_LAYER = {
    "fleet.step_ms_p50": "ms",
    "fleet.step_ms_tail": "ms",
    "fleet.step_tail_pct": "%",
    "fleet.steps": "count",
    "fleet.preload_s": "s",
    "trace.parse_s": "s",
    "trace.records": "count",
    "trace.parse_mb_per_s": "MB/s",
    "fabric.generate_s": "s",
    "fabric.generated": "count",
    "fabric.generate_ns_per_req": "ns",
    "queue.pushes": "count",
    "queue.pops": "count",
    "queue.peak_len": "count",
    "queue.push_ns": "ns",
    "queue.drain_ns_per_event": "ns",
    "geo.requests_routed": "count",
    "geo.choose_request_ns": "ns",
    "geo.vms_routed": "count",
    "geo.choose_vm_ns": "ns",
    "fabric.deliver_ns": "ns",
    "fabric.serve_step_ms": "ms",
    "metrics.record_ns": "ns",
    "batch.offers": "count",
    "batch.offer_ns": "ns",
    "batch.advance_s": "s",
    "batch.running_mean": "count",
    "batch.kv_occupancy": "ratio",
    "batch.kv_committed_frac": "ratio",
    "batch.queue_len_p99": "count",
    "batch.decode_tokens_per_req": "tokens",
    "batch.preemptions": "count",
    "batch.shed": "count",
    "batch.timeouts": "count",
    "batch.useful_token_ratio": "ratio",
    "physics.step_us": "us",
    "physics.ns_per_server": "ns",
    "hierarchy.assess_us": "us",
    "router.routes": "count",
    "router.route_ns": "ns",
    "configurator.selects": "count",
    "configurator.select_ns": "ns",
    "configurator.reconfigurations": "count",
    "placement.placed": "count",
    "placement.rejected": "count",
    "placement.place_ns": "ns",
    "report.json_bytes": "bytes",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def untraced(binary, args):
    """Returns (attempted, failed, failure texts, metrics)."""
    failures = []
    setups = []
    kernel = []
    setup_errors = 0
    started = time.monotonic()
    while len(setups) < SETUP_SAMPLES and time.monotonic() - started < SETUP_BUDGET_S:
        result, _, error = spawn(binary, "setup", args.workload, args.seed)
        if error:
            failures.append(error)
            setup_errors = 1
            break
        setups.append(scaled(result, "setup_s"))
        kernel += result["reference_s"]

    reps = []
    started = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - started < args.seconds:
        if time.monotonic() - started > HARD_STOP_S:
            break
        result, rss_mb, error = spawn(binary, "run", args.workload, args.seed)
        if error:
            failures.append(error)
            reps.append(None)
            continue
        if not result["peak_rss_mb"]:
            result["peak_rss_mb"] = rss_mb
        failures.extend(result["failures"])
        reps.append(result if not result["failures"] else None)

    # Every repetition must reproduce the report of the first clean one.
    good = [r for r in reps if r]
    if good:
        digest = good[0]["digest"]
        for r in good[1:]:
            if r["digest"] != digest:
                failures.append(f"report digest {r['digest']} != first repetition's {digest}")
        good = [r for r in good if r["digest"] == digest]
    attempted = len(setups) + setup_errors + len(reps)
    failed = setup_errors + len(reps) - len(good)
    if not good:
        return attempted, failed, failures, {}

    setups += [scaled(r, "setup_s") for r in good]
    runs = [scaled(r, "run_s") for r in good]
    for r in good:
        kernel += r["reference_s"]
    run_s = statistics.median(runs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "site_minutes_per_s": (good[0]["site_minutes"] / run_s, "1/s"),
        "requests_per_s": (statistics.median(r["requests"] for r in good) / run_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
    }
    first = good[0]
    print(f"workload {args.workload} seed {args.seed}: report digest {first['digest']}, "
          f"{len(good)} repetitions, {len(setups)} setup samples")
    print(f"run_s (scaled) {[round(s, 3) for s in runs]}")
    print(f"run_s (host wall) {[round(r['run_s'], 3) for r in good]}")
    print(f"setup_s (scaled) {[round(s, 4) for s in setups]}")
    print(f"reference kernel s {[round(k, 4) for k in kernel]}")
    if first["lifecycle"]:
        print(f"lifecycle {json.dumps(first['lifecycle'])}")
    if first["shape"]:
        print(f"input shape {json.dumps(first['shape'])}")
    return attempted, failed, failures, metrics


def traced(binary, args):
    """One untraced and one traced repetition of the same inputs."""
    base, _, error = spawn(binary, "run", args.workload, args.seed)
    if error:
        return 2, 1, [error], {}
    failures = list(base["failures"])
    result, _, error = spawn(binary, "trace", args.workload, args.seed)
    if error:
        return 2, 1 + bool(failures), failures + [error], {}
    layer = dict(result["metrics"])
    layer["trace.overhead_s"] = layer.pop("trace.step_s") - base["run_s"]
    layer["report.json_bytes"] = base["json_bytes"]
    life = base["lifecycle"] or {}
    useful = life.get("output_tokens", 0)
    spent = useful + life.get("wasted_prefill_tokens", 0) + life.get("wasted_decode_tokens", 0)
    layer["batch.preemptions"] = life.get("preemptions", 0)
    layer["batch.shed"] = life.get("shed", 0)
    layer["batch.timeouts"] = life.get("timeouts", 0)
    layer["batch.useful_token_ratio"] = useful / spent if spent else 0.0
    traced_failed = 0
    if args.workload == "fabric-chaos" and layer["fabric.generated"] != life.get("arrived"):
        failures.append(f"traced fabric.generated {layer['fabric.generated']} != "
                        f"arrived {life.get('arrived')}")
        traced_failed = 1
    if result["drive_completed"] != result["shadow_completed"]:
        print(f"note: direct batch drive completed {result['drive_completed']}, "
              f"shadow fabric completed {result['shadow_completed']}")
    print(f"workload {args.workload} seed {args.seed}: report digest {base['digest']}")
    if result["shape"]:
        print(f"input shape {json.dumps(result['shape'])}")
    metrics = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
    return 2, bool(base["failures"]) + traced_failed, failures, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    attempted, failed, failures, metrics = (traced if args.trace else untraced)(binary, args)
    bad = [name for name, (value, _) in metrics.items() if not finite(value)]
    if bad:
        failures.append(f"non-finite metrics: {bad}")
        failed = attempted
    for failure in failures:
        print(f"check failed: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
