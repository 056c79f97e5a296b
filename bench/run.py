"""Benchmark of lossfit: Monte Carlo studies, ARE grids and CLI fits.

Run from the root of a checkout:

    python3 bench/run.py --workload study-y --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs the same workload with spans around lossfit's
public functions and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.
A fuller record of the run goes to ``bench/_work/results/``.

The program under test is ``src/lossfit`` of this checkout; the run
refuses to start if ``lossfit`` would be imported from anywhere else.
Only the standard library is imported here before the set-up is timed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TRACED, Tracer, span_cost_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
WORKLOADS = ("study-y", "study-z", "are-grid", "cli-fit")
#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rounds every run completes, whatever its length: cli-fit compares the
#: output of a repeated ``--deterministic`` command byte for byte.
MIN_ROUNDS = 2
#: One thread for every BLAS pool; all load comes from one process at a time.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
CALLS = ("simulation.generate_sample", "mle.fit_mle_y", "mle.fit_mle_z", "mtm.fit_mtm_y",
         "mtm.fit_mtm_z", "mtm.cov_mtm_y")
ITERATIONS = ("mle.fit_mle_y", "mle.fit_mle_z", "mtm.fit_mtm_y")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import lossfit, build the inputs and exit (one set-up sample)")
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Import lossfit from this checkout's src only, with one-thread BLAS."""
    package = SRC / "lossfit" / "__init__.py"
    if not package.is_file():
        raise RuntimeError(f"{package} is missing")
    if "lossfit" in sys.modules:
        raise RuntimeError("lossfit was imported before the benchmark pinned its source")
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("lossfit")
    if spec is None or Path(spec.origin).resolve() != package.resolve():
        raise RuntimeError(f"lossfit would be imported from {spec and spec.origin}, "
                           f"not from {SRC}")
    os.environ.update(PINNED_ENV)
    os.environ.pop("LOSSFIT_WORKERS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "lossfit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
            "src_sha256": digest.hexdigest(), "platform": platform.platform(),
            "threads": PINNED_ENV}


def setup_only(args) -> int:
    start = time.perf_counter()
    import lossfit  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - start
    import workloads
    workloads.build(args.workload, args.seed, WORK)
    print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - start}))
    return 0


def time_setups(args) -> list[dict]:
    """Set up in fresh processes; wall time is measured from outside each one."""
    runs = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - start
        if out.returncode != 0:
            raise RuntimeError(f"set-up failed ({out.returncode}): {out.stderr.strip()}")
        runs.append(dict(json.loads(out.stdout.splitlines()[-1]), wall_s=wall))
    return runs


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _cpu_s() -> float:
    """CPU seconds of this process and of its waited-for children so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed_phase(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed; each round's wall and CPU time."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        done = workload.run_round(len(rounds))
        done.wall_s, done.cpu_s = time.perf_counter() - wall0, _cpu_s() - cpu0
        rounds.append(done)
    return rounds, time.perf_counter() - start


def end_to_end(rounds, setups) -> dict:
    """Times at the slowest round; rounds all do the same work.

    This machine runs at one of two speeds about 1.5x apart, switching
    every few seconds to minutes as other tenants load the host.  The slow
    one shows up in nearly every run and the fast one only in some, so a
    run's slowest round repeats from run to run where its median does not.
    Totals would only measure the run's fixed length.
    """
    slowest: dict[object, float] = {}
    for r in rounds:
        for key, ms in r.latencies_ms.items():
            slowest[key] = max(ms, slowest.get(key, 0.0))
    latencies = list(slowest.values())
    children_rss = max(r.child_rss_kb for r in rounds)
    return {
        "setup_s": statistics.median(s["wall_s"] for s in setups),
        "ops_per_s": rounds[0].ops / max(r.wall_s for r in rounds),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "cpu_s": max(r.cpu_s for r in rounds),
        # ru_maxrss is in KiB; with child processes, the peak is theirs
        "peak_rss_mb": (children_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        / 1024.0,
    }


def per_layer(tracer, rounds, wall, setups) -> dict:
    ops = sum(r.ops for r in rounds)
    totals = tracer.layer_totals()
    metrics = {"lossfit.import_s": statistics.median(s["import_s"] for s in setups)}
    for name in TRACED:
        metrics[f"{name}.self_ms"] = totals.get(name, (0, 0))[0] / 1e6 / ops
    for name in CALLS:
        metrics[f"{name}.calls"] = totals.get(name, (0, 0))[1] / ops
    for name in ITERATIONS:
        counts = tracer.iterations.get(name) or [0]
        metrics[f"{name}.iterations"] = statistics.fmean(counts)
    top_ns, covered_ns = tracer.coverage()
    metrics["trace.ops_per_s"] = rounds[0].ops / max(r.wall_s for r in rounds)
    metrics["trace.span_cover_pct"] = 100.0 * top_ns / (wall * 1e9)
    metrics["trace.child_cover_pct"] = 100.0 * covered_ns / top_ns
    metrics["trace.overhead_pct"] = 100.0 * len(tracer.spans) * span_cost_ns() / (wall * 1e9)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin_environment()
    except RuntimeError as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)

    setups = time_setups(args)
    import workloads

    tracer = Tracer() if args.trace else None
    workload = workloads.build(args.workload, args.seed, WORK, tracer)
    with tracer.installed() if tracer else contextlib.nullcontext():
        rounds, wall = timed_phase(workload, args.seconds)
    if tracer is None:  # before the checks, so that the peak memory is the workload's
        values, units = end_to_end(rounds, setups), dict(END_TO_END)

    problems = workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer is not None:
        totals = tracer.layer_totals()
        missing = [name for name in workload.reaches if totals.get(name, (0, 0))[1] == 0]
        if missing:
            print(f"traced functions the {args.workload} workload must reach recorded "
                  f"zero calls: {', '.join(missing)}", file=sys.stderr)
            return 3
        values, units = per_layer(tracer, rounds, wall, setups), dict(layer_units())

    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setups": setups,
              "rounds": [dict(vars(r), latencies_ms={str(k): ms for k, ms
                                                     in r.latencies_ms.items()})
                         for r in rounds],
              "wall_s": wall, "problems": problems, "result": result}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# {args.workload}: {len(rounds)} rounds, {result['attempted']} operations "
          f"in {wall:.2f} s; record in {out.relative_to(ROOT)}")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def layer_units():
    yield "lossfit.import_s", "s"
    for name in TRACED:
        yield f"{name}.self_ms", "ms/op"
    for name in CALLS:
        yield f"{name}.calls", "1/op"
    for name in ITERATIONS:
        yield f"{name}.iterations", "count"
    yield "trace.ops_per_s", "op/s"
    yield "trace.span_cover_pct", "%"
    yield "trace.child_cover_pct", "%"
    yield "trace.overhead_pct", "%"


if __name__ == "__main__":
    sys.exit(main())
