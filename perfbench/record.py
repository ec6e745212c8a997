#!/usr/bin/env python3
"""Run every workload over several seeds and record a BENCH trajectory entry.

    python3 perfbench/record.py --label 0 --seeds 1-10 --trace-seeds 1,2

For each workload in BENCHMARK.json this runs ``run.py --trace 0`` once
per seed and ``run.py --trace 1`` once per trace seed, always for the
benchmark's ``run_seconds``.  It prints every metric by name with its
unit, the median and the quartile spread (as a share of the median, next
to the metric's bound), and the failed ratio, and writes all of it to
``perfbench/trajectory/BENCH_<label>.json``.
Exit code 1 if any operation fails or any run is incorrect; a traced
run is incorrect when its executions do not repeat the call counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result, env) of one run.py invocation, at the benchmark's run_seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["env"]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def record_workload(workload: str, seeds, trace_seeds) -> dict:
    entry = {"seeds": seeds, "trace_seeds": trace_seeds, "attempted": 0, "failed": 0,
             "incorrect_runs": 0, "env": []}
    for trace, run_seeds, key in ((0, seeds, "end_to_end"), (1, trace_seeds, "per_layer")):
        values: dict[str, list] = {m["name"]: [] for m in SPEC[key]}
        for seed in run_seeds:
            started = time.perf_counter()
            result, env = run_once(workload, seed, trace)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["incorrect_runs"] += not result["correct"]
            entry["env"].append(env)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed} trace {trace}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"{time.perf_counter() - started:.1f} s", flush=True)
        entry[key] = {}
        for m in SPEC[key]:
            stats = summarize(values[m["name"]])
            entry[key][m["name"]] = {"unit": m["unit"], "better": m["better"], **stats}
            if "bound" in m:
                entry[key][m["name"]]["bound"] = m["bound"]
    entry["failed_ratio"] = entry["failed"] / max(entry["attempted"], 1)
    return entry


def print_entry(workload: str, entry: dict) -> None:
    print(f"\n{workload}: failed_ratio = {entry['failed_ratio']:.6g} "
          f"({entry['failed']}/{entry['attempted']}), {len(entry['seeds'])} seeds")
    for name, s in entry["end_to_end"].items():
        # the spread a steady metric should stay under is a third of its bound
        if s["spread"] is None or name == "setup_s":
            within = ""
        elif s["spread"] <= s["bound"] / 3:
            within = "steady"
        else:
            within = "within bound" if s["spread"] <= s["bound"] else "OVER BOUND"
        print(f"  {name:<16} {s['median']:>14.6g} {s['unit']:<6} "
              f"spread {s['spread']:.4f} (bound {s['bound']}) {within}")
    notes: dict[str, tuple[str, list]] = {}
    for env in entry["env"]:
        for name, note in env.get("notes", {}).items():
            notes.setdefault(name, (note["unit"], []))[1].append(note["value"])
    for name, (unit, values) in notes.items():
        print(f"  {name:<16} {statistics.median(values):>14.6g} {unit:<6} (note, not in BENCHMARK.json)")
    for name, s in entry["per_layer"].items():
        if s["median"]:
            print(f"  {name:<52} {s['median']:>14.6g} {s['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="trajectory entry name, e.g. 0")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--trace-seeds", default="1,2")
    args = parser.parse_args()

    seeds, trace_seeds = parse_seeds(args.seeds), parse_seeds(args.trace_seeds)
    report = {"label": args.label, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        entry = record_workload(workload, seeds, trace_seeds)
        report["workloads"][workload] = entry
        print_entry(workload, entry)
        ok &= entry["failed"] == 0 and entry["incorrect_runs"] == 0
    first_env = next(iter(report["workloads"].values()))["env"][0]
    report["environment"] = {
        k: first_env.get(k)
        for k in ("python", "numpy", "nproc", "cpus_usable", "git_commit", "source_sha256")
    }
    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
