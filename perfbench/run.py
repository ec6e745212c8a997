#!/usr/bin/env python3
"""wignerlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {verify,sweep-csv,queries} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root (or a checkout of it).  The package is
used from ``src/`` as is; nothing is built or installed.

Workloads (all closed loop, one client, ``WIGNERLAB_THREADS`` unset):

* ``verify``    -- ``wignerlab verify --grid 50`` in a fresh process, again
                   and again for S seconds.  No seeded inputs.
* ``sweep-csv`` -- ``wignerlab sweep --samples 1000001 --format csv`` in a
                   fresh process; the seed draws u = v, eta and the class.
* ``queries``   -- seeded scalar library queries in this process, one pass
                   over the query set after another.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json;
``--trace 1`` wraps the package's public functions with span recorders
(see tracing.py), runs the CLI workloads in-process through
``wignerlab.cli.main`` and reports the per-layer metrics.  Outputs are
checked on every run; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

FULL = {"grid": 50, "samples": 1_000_001, "queries": 4000}
SMOKE = {"grid": 3, "samples": 1001, "queries": 50}
SETUP_RUNS = 7
SUBSAMPLE_ROWS = 256
WARMUP_QUERIES = 100


class Outcome:
    """What one run measured and how many of its operations failed."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env: dict = {}
        # printed for people, not in BENCHMARK.json: name -> (value, unit, detail)
        self.notes: dict[str, tuple[float, str, str]] = {}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ---------------------------------------------------------------- processes


class Spawned(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def spawn(argv: list[str]) -> Spawned:
    """Run a child to completion: spawn-to-exit wall time and its own rusage."""
    out_path, err_path = SCRATCH / "child.stdout", SCRATCH / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "wignerlab.cli", *args]


def measure_setup(argv: list[str], runs: int) -> float:
    """Median spawn-to-exit time of ``runs`` fresh interpreters."""
    walls = []
    for _ in range(runs):
        child = spawn(argv)
        if child.code != 0:
            raise RuntimeError(f"set-up command failed ({child.code}): {child.stderr}")
        walls.append(child.wall_s)
    return statistics.median(walls)


# ------------------------------------------------------------------ checks

_VERIFY_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def verify_report_ok(code: int, text: str) -> bool:
    """Exit 0, every check line PASS, and the summary line agrees."""
    lines = text.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = sum(line.startswith("FAIL ") for line in lines)
    summary = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
    return (
        code == 0
        and failed == 0
        and passed > 0
        and summary is not None
        and int(summary.group(1)) == int(summary.group(2)) == passed
    )


class SweepInput(NamedTuple):
    u: float
    eta: float
    helicity_class: str


def make_sweep_input(seed: int) -> SweepInput:
    """Ultra-relativistic regime of Fig. 3c: u = v in [0.99, 0.999]."""
    import numpy as np

    rng = np.random.default_rng(seed)
    u = float(rng.uniform(0.99, 0.999))
    eta = float(rng.uniform(0.3, 1.2))
    cls = ("psi", "psitilde", "xi")[int(rng.integers(0, 3))]
    return SweepInput(u, eta, cls)


def sweep_args(inp: SweepInput, samples: int, out: Path) -> list[str]:
    return [
        "sweep", "--u", repr(inp.u), "--v", repr(inp.u), "--eta", repr(inp.eta),
        "--class", inp.helicity_class, "--samples", str(samples),
        "--format", "csv", "--out", str(out),
    ]


def csv_layout_ok(data: bytes, samples: int) -> bool:
    """Header, N + 1 LF-terminated lines, three fields per line."""
    return (
        data.startswith(b"phi,delta,entropy_bits\n")
        and data.endswith(b"\n")
        and b"\r" not in data
        and data.count(b"\n") == samples + 1
        and data.count(b",") == 2 * (samples + 1)
    )


def csv_rows_ok(data: bytes, inp: SweepInput, samples: int, seed: int) -> list[str]:
    """Recompute a seeded subsample of rows independently; list the bad rows.

    delta is checked against the cos form and the entropy against the
    partial-trace pipeline, at the tolerances verify uses for the same
    invariants.
    """
    import numpy as np
    from wignerlab import entanglement as ent
    from wignerlab import kinematics as kin
    from wignerlab import states as st
    from wignerlab.verify import DEFAULT_TOLERANCES

    lines = data.split(b"\n")[1:-1]
    rng = np.random.default_rng(seed)
    picks = {0, samples - 1, *rng.integers(0, samples, SUBSAMPLE_ROWS).tolist()}
    cls = st.HelicityClass(inp.helicity_class)
    rest = st.prepare_state(cls, inp.eta)
    step = math.pi / (samples - 1)
    bad = []
    for i in sorted(picks):
        phi, delta, entropy = (float(x) for x in lines[i].split(b","))
        pipeline = ent.von_neumann_entropy(
            ent.reduced_density_matrix(st.boost_state(rest, delta))
        )
        if not (
            abs(phi - i * step) <= 4e-15 * math.pi
            and abs(delta - kin.wigner_angle_cos_form(inp.u, inp.u, phi))
            <= DEFAULT_TOLERANCES["angle_forms_agree"]
            and abs(entropy - pipeline) <= DEFAULT_TOLERANCES["entropy_oracle_equivalence"]
        ):
            bad.append(f"row {i}: {lines[i].decode()} (pipeline entropy {pipeline!r})")
    return bad


class SweepChecker:
    """Checks each CSV the sweep writes; all runs must give identical bytes."""

    def __init__(self, inp: SweepInput, samples: int, seed: int, out: Path):
        self.inp, self.samples, self.seed, self.out = inp, samples, seed, out
        self.digest = None
        self.csv_bytes = 0

    def __call__(self, code: int) -> bool:
        if code != 0 or not self.out.is_file():
            return False
        data = self.out.read_bytes()
        self.out.unlink()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest, self.csv_bytes = digest, len(data)
            if not csv_layout_ok(data, self.samples):
                return False
            bad = csv_rows_ok(data, self.inp, self.samples, self.seed)
            for row in bad:
                print(f"sweep-csv: row check failed: {row}", file=sys.stderr)
            return not bad
        return digest == self.digest and csv_layout_ok(data, self.samples)


# ---------------------------------------------------------- measurements


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def e2e_metrics(outcome: Outcome, walls, cpus, rss_mb, setup_s):
    """Timings are medians over the run's executions; each one goes to env."""
    outcome.metrics.update(
        wall_s=statistics.median(walls),
        cpu_s=statistics.median(cpus),
        peak_rss_mb=rss_mb,
        setup_s=setup_s,
    )
    outcome.env.update(
        executions=len(walls),
        wall_samples=[round(w, 5) for w in walls],
        cpu_samples=[round(c, 5) for c in cpus],
    )


def cli_e2e(outcome: Outcome, argv: list[str], check, seconds: float, setup_runs: int):
    """Closed loop of fresh CLI processes for ``seconds``; one check each."""
    setup_s = measure_setup(cli_argv("--version"), setup_runs)
    walls, cpus, rss = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        child = spawn(cli_argv(*argv))
        ok = check(child)
        if not ok:
            sys.stderr.write(child.stderr)
        outcome.record(ok, f"execution {len(walls) + 1} (exit {child.code})")
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.rss_mb)
    e2e_metrics(outcome, walls, cpus, max(rss), setup_s)


def run_in_process(argv: list[str]) -> tuple[int, str]:
    from wignerlab import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def traced_pairs(outcome: Outcome, execute, seconds: float, name: str):
    """Alternate untraced and traced executions of the same work.

    ``execute()`` does one unit of work and returns True when its
    outputs check out.  Reports the call counts, which must repeat
    exactly, the median self time per span and the tracing overhead as
    the median traced minus the median untraced wall time.
    """
    from tracing import LAYERS, SPAN_NAMES, Tracer

    plain_walls, traced_walls, tracers = [], [], []
    start = time.perf_counter()
    while len(tracers) < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        ok = execute()
        plain_walls.append(time.perf_counter() - t0)
        outcome.record(ok, f"untraced execution {len(plain_walls)}")

        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            ok = execute()
            traced_walls.append(time.perf_counter() - t0)
        outcome.record(ok, f"traced execution {len(tracers) + 1}")
        tracers.append(tracer)

    counts = [t.calls() for t in tracers]
    outcome.record(
        all(c == counts[0] for c in counts), "call counts differ between traced executions"
    )
    selfs = [t.self_seconds() for t in tracers]
    for span in SPAN_NAMES:
        outcome.metrics[f"{span}.calls"] = counts[0][span]
        outcome.metrics[f"{span}.self_s"] = statistics.median(s[span] for s in selfs)
    for module, names in LAYERS.items():
        outcome.metrics[f"{module}.self_s"] = statistics.median(
            sum(s[f"{module}.{n}"] for n in names) for s in selfs
        )
    outcome.metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
        plain_walls
    )
    spans_path = SCRATCH / f"spans-{name}.tsv"
    tracers[-1].write(spans_path)
    outcome.env.update(
        traced_wall_samples=[round(w, 5) for w in traced_walls],
        untraced_wall_samples=[round(w, 5) for w in plain_walls],
        spans=len(tracers[-1].spans),
        spans_file=str(spans_path.relative_to(ROOT)),
    )


# --------------------------------------------------------------- workloads


def workload_verify(outcome: Outcome, args, size: dict):
    argv = ["verify", "--grid", str(size["grid"])]
    if args.trace:
        def execute():
            return verify_report_ok(*run_in_process(argv))

        traced_pairs(outcome, execute, args.seconds, "verify")
        return
    cli_e2e(
        outcome,
        argv,
        lambda child: verify_report_ok(child.code, child.stdout),
        seconds=args.seconds,
        setup_runs=args.setup_runs,
    )


def workload_sweep_csv(outcome: Outcome, args, size: dict):
    inp = make_sweep_input(args.seed)
    samples = size["samples"]
    out = SCRATCH / "sweep.csv"
    checker = SweepChecker(inp, samples, args.seed, out)
    argv = sweep_args(inp, samples, out)
    outcome.env.update(sweep_input=inp._asdict(), samples=samples)
    if args.trace:
        traced_pairs(
            outcome, lambda: checker(run_in_process(argv)[0]), args.seconds, "sweep-csv"
        )
    else:
        cli_e2e(
            outcome,
            argv,
            lambda child: checker(child.code),
            seconds=args.seconds,
            setup_runs=args.setup_runs,
        )
        rows_per_s = samples / outcome.metrics["wall_s"]
        outcome.notes["rows_per_s"] = (rows_per_s, "1/s", f"{samples} rows / wall_s")
    outcome.env.update(csv_bytes=checker.csv_bytes, csv_sha256=checker.digest)


def workload_queries(outcome: Outcome, args, size: dict):
    import queries as q

    count = size["queries"]
    query_set = q.make_queries(args.seed, count)
    for query in query_set[:WARMUP_QUERIES]:
        q.run_query(query)
    reference: list = []

    def one_pass(latencies=None) -> tuple[float, float]:
        """Run every query once; check the results; return (wall, cpu) seconds."""
        results = []
        clock = time.perf_counter_ns
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for query in query_set:
            t0 = clock()
            results.append(q.run_query(query))
            if latencies is not None:
                latencies.append((clock() - t0) / 1e9)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if not reference:
            reference.extend(results)
            for name, worst in q.worst_deviations(query_set, results).items():
                outcome.env.setdefault("worst_deviation", {})[name] = worst
        for i, (query, result) in enumerate(zip(query_set, results)):
            failures = q.check_query(query, result)
            repeat_ok = result == reference[i]
            if failures or not repeat_ok:
                print(f"queries: query {i} {query}: {failures or 'result changed between passes'}",
                      file=sys.stderr)
            outcome.record(not failures and repeat_ok, f"query {i}")
        return wall, cpu

    outcome.env.update(query_count=count)
    if args.trace:
        def execute():
            failed_before = outcome.failed
            one_pass()
            return outcome.failed == failed_before

        traced_pairs(outcome, execute, args.seconds, "queries")
        return
    setup_argv = [sys.executable, str(HERE / "queries.py"), "--seed", str(args.seed),
                  "--count", str(count)]
    setup_s = measure_setup(setup_argv, args.setup_runs)
    walls, cpus, latencies = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, cpu = one_pass(latencies)
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) == 1:
            # Peak memory of import, inputs and one checked pass: what a
            # script making these queries once holds.  Read here because
            # the allocator's footprint drifts up with the number of
            # passes, which would make a faster program read as bigger.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e_metrics(outcome, walls, cpus, rss_mb, setup_s)
    detail = f"{len(latencies)} queries over {len(walls)} passes"
    outcome.notes.update(
        queries_per_s=(count / outcome.metrics["wall_s"], "1/s", f"{count} queries / wall_s"),
        latency_p50_us=(statistics.median(latencies) * 1e6, "us", detail),
        latency_p99_us=(percentile(latencies, 99) * 1e6, "us", detail),
    )


WORKLOADS = {
    "verify": workload_verify,
    "sweep-csv": workload_sweep_csv,
    "queries": workload_queries,
}


def _environment(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "wignerlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wignerlab benchmark (one run)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check that the harness runs")
    args = parser.parse_args(argv)
    args.setup_runs = 2 if args.smoke else SETUP_RUNS
    # Left unset: the package then evaluates in one thread, which the
    # traced run's span stack relies on, in this process and in children.
    os.environ.pop("WIGNERLAB_THREADS", None)

    if not (SRC / "wignerlab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path[:0] = [str(SRC), str(HERE)]
    import wignerlab

    if Path(wignerlab.__file__).resolve().parent != SRC / "wignerlab":
        print(f"perfbench: imported wignerlab from {wignerlab.__file__}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    outcome.env.update(_environment(args))
    WORKLOADS[args.workload](outcome, args, SMOKE if args.smoke else FULL)

    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        value = outcome.metrics[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    for name, (value, unit, detail) in outcome.notes.items():
        print(f"{name} = {value:.6g} {unit}  ({detail})")
        outcome.env.setdefault("notes", {})[name] = {"value": value, "unit": unit}
    ratio = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_ratio = {ratio:.6g}  ({outcome.failed}/{outcome.attempted})")
    print(json.dumps({"env": outcome.env}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
