#!/usr/bin/env python3
"""Smoke test of the benchmark itself: runs every workload at its tiny size
(k=4, a few flows or jobs), traced and untraced, and checks that

  * the last line has exactly the keys correct/attempted/failed/metrics and
    reports a correct run;
  * every metric BENCHMARK.json declares for that mode is printed exactly
    once, with its declared unit, and every name matches [A-Za-z0-9_.-]+;
  * the digest check ran and matched the digest recorded for the tiny size.

  python3 perfbench/smoke.py
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["perm_ndp_k32", "rpc_churn_k8", "campaign_mix_k4"]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = sorted({k for k in keys if keys.count(k) > 1})
    if dup:
        raise ValueError(f"duplicate keys {dup}")
    return dict(pairs)


def check(workload, trace, bench):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", trace,
           "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    errors = []
    if done.returncode != 0:
        errors.append(f"exit code {done.returncode}")
    if len(lines) < 2 or not lines[-2].startswith("# perfbench "):
        return errors + ["missing '# perfbench' info line"]
    info = json.loads(lines[-2][len("# perfbench "):])
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("run not correct")
    if info.get("digest_check") != "match":
        errors.append(f"digest check: {info.get('digest_check')}")
    declared = bench["per_layer" if trace == "1" else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append(f"bad metric {m['name']}: {got}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        errors.append(f"undeclared metrics {sorted(extra)}")
    errors += [f"bad name {n}" for n in metrics if not NAME.match(n)]
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            errors = check(workload, trace, bench)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{workload:16s} trace={trace} {status}", flush=True)
            failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
