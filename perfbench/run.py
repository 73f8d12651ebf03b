#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from this checkout's sources, runs
one workload and prints its result as the last line of standard output.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                           --trace <0|1> [--size full|tiny]

The last line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; with `--trace 0` the metrics are BENCHMARK.json's
`end_to_end` list, with `--trace 1` its `per_layer` list.  The line before it
(`# perfbench ...`) records the host (nproc, worker count, build type), the
repetition counts and the result digest.

The run is correct only if every repetition reproduced one digest and one set
of simulator counts, the traced repetitions reproduced the untraced digest,
some flow completed, the digest matches `digests.json` where a digest is
recorded for this workload, size and seed, and the driver measured no
metric that BENCHMARK.json does not declare.  BENCHMARK.json is the only
list of metrics: a declared per-layer metric the driver did not measure (its
layer is absent from the workload) reads 0; a missing end-to-end one fails
the run.  The build and all run files go to `$CARGO_TARGET_DIR` (default
`.bench_build`) under the checkout root.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    src_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", src_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", src_dir, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(src_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "digests.json")) as f:
            digests = json.load(f)
    except (OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    declared = bench["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    driver = build(build_dir)
    if driver is None:
        return 1
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size,
           "--work-dir", os.path.join(build_dir, "perfbench-work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S}s")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: driver printed nothing (exit {done.returncode})")
        return 1
    try:
        out = json.loads(lines[-1])
    except ValueError:
        log(f"perfbench: unreadable driver output: {lines[-1][:200]}")
        return 1

    correct = bool(out["correct"]) and done.returncode == 0
    recorded = digests.get(args.workload, {}).get(args.size, {})
    expected = recorded.get(str(args.seed))
    if expected is None:
        digest_check = "unrecorded"
    elif expected == out["digest"]:
        digest_check = "match"
    else:
        digest_check = "mismatch"
        correct = False
        log(f"perfbench: digest {out['digest']} != recorded {expected}")
    values = out["metrics"]
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        correct = False
        log(f"perfbench: metrics not in BENCHMARK.json: {undeclared}")
    missing = sorted(set(units) - set(values))
    if args.trace == "1":
        # A layer a workload does not exercise reads 0.
        values.update({name: 0 for name in missing})
    elif missing:
        correct = False
        log(f"perfbench: end-to-end metrics not measured: {missing}")

    info = {k: v for k, v in out.items()
            if k not in ("correct", "attempted", "failed", "metrics")}
    info["digest_check"] = digest_check
    print("# perfbench " + json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
