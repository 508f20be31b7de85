"""Benchmark of the geostat command line on seeded synthetic data.

    python3 perfbench/run.py --workload archive_extract --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout of the repository; the program is taken
from ``src/`` of that checkout, with no install step. ``--workload all``
runs every workload in turn.

Each run generates its inputs from ``--seed``, computes the references the
outputs are checked against, times a fresh interpreter's ``import geostat``
several times, and then repeats the workload's command sequence, each call
in a new ``python3`` process, for ``--seconds`` seconds (at least three
times). Every output of every repetition is verified. With ``--trace 0`` it
reports the end-to-end metrics as medians over repetitions; with
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics of :mod:`tracing`. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit status is 0 when the run completed (``correct`` says whether every
output was right) and 2 when it could not run at all, for example outside
a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACING = os.path.join(HERE, "tracing.py")
# The same entry point the installed ``geostat`` console script runs.
GEOSTAT_MAIN = "import sys; from geostat.cli import main; sys.exit(main())"

IMPORTS_PER_REPETITION = 2
MIN_REPETITIONS = 3
TIME_BUDGET_S = 150.0   # stop repeating past this, whatever --seconds says
COMMAND_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "series_cells_per_s": "1/s",
}


def machine() -> str:
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def geostat_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def time_imports(env, count: int) -> tuple:
    """Seconds for ``count`` fresh interpreters to finish ``import geostat``,
    and how many of them failed."""
    times = []
    failures = 0
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import geostat"], env=env,
                              capture_output=True, timeout=COMMAND_TIMEOUT_S)
        if proc.returncode:
            failures += 1
        else:
            times.append(time.perf_counter() - t0)
    return times, failures


class Iteration:
    """One pass over a workload's command sequence, verified."""

    def __init__(self):
        self.wall = 0.0
        self.verify_s = 0.0
        self.command_s = {}
        self.problems = {}   # label -> problems
        self.spans = {}      # label -> span file prefix


def run_command(label: str, argv: list, env: dict):
    """Run one CLI call to completion; return None or what went wrong.

    The call gets its own process group, so that on a timeout its pool
    workers are killed along with it.
    """
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return f"{label}: no exit within {COMMAND_TIMEOUT_S} s"
    if proc.returncode:
        return f"{label}: exit status {proc.returncode}: {err.strip()[-300:]}"
    return None


def run_iteration(wl, env, digests: dict, trace_dir: str = None,
                  index: int = 0) -> Iteration:
    import verify
    it = Iteration()
    commands = wl.commands()
    for _, _, out in commands:
        shutil.rmtree(out, ignore_errors=True)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    start = time.perf_counter()
    for label, args, out in commands:
        if trace_dir:
            spans = os.path.join(trace_dir, f"{index}-{label}.json")
            argv = [sys.executable, TRACING, spans, f"{index}-{label}", "--", *args]
            it.spans[label] = spans
        else:
            argv = [sys.executable, "-c", GEOSTAT_MAIN, *args]
        t0 = time.perf_counter()
        failure = run_command(label, argv, env)
        t1 = time.perf_counter()
        if failure:
            problems = [failure]
        else:
            try:
                problems = wl.check(label, out)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problems = [f"{label}: unreadable output: {exc!r}"]
        if not problems:
            digest = verify.digest(os.path.join(out, f) for f in os.listdir(out))
            if digests.setdefault(label, digest) != digest:
                problems.append(f"{label}: outputs differ from the first repetition's")
        it.verify_s += time.perf_counter() - t1
        it.command_s[label] = t1 - t0
        it.problems[label] = problems
    it.wall = time.perf_counter() - start
    return it


def traced_metrics(wl, it: Iteration, setup_s: float) -> dict:
    """Per-layer metrics of one traced repetition.

    ``setup_s`` is the import time measured apart from the traced calls. The
    time a call spends outside ``cli.main``, less writing its spans, should
    be about that much, so ``trace.accounted_ratio`` (main-process self
    times, plus ``setup_s`` per call, plus verification, over ``wall_s``)
    stays near 1 only while the spans and the import time together cover
    the repetition.
    """
    import tracing
    sums = {}
    startup = 0.0
    for label, path in it.spans.items():
        call = tracing.layer_sums(tracing.read_spans(path))
        startup += (it.command_s[label] - call.get("main_s", 0.0)
                    - call.get("trace.write_s", 0.0))
        for key, value in call.items():
            sums[key] = sums.get(key, 0) + value
    calls = len(it.spans)
    metrics = tracing.finish_metrics(sums, wl.rows_total)
    metrics["trace.wall_s"] = it.wall
    metrics["trace.startup_s"] = startup
    metrics["trace.startup_over_setup"] = startup / calls / setup_s
    metrics["trace.verify_s"] = it.verify_s
    metrics["trace.accounted_ratio"] = (
        sums.get("main_self_s", 0.0) + calls * setup_s + it.verify_s) / it.wall
    main_layers = {k[len("main."):]: v for k, v in sums.items() if k.startswith("main.")}
    return metrics, main_layers


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    wl = WORKLOADS[name]()
    env = geostat_env()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-s{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _measure(wl, env, workdir, seed, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(wl, env, workdir, seed, seconds, trace) -> dict:
    t_begin = time.perf_counter()
    # One untimed import writes the bytecode cache, as the first call after
    # an install would; the timed ones are spread over the run, between
    # repetitions, so a passing slowdown of the machine moves few of them.
    _, setup_failures = time_imports(env, 1)
    setup_times = []
    prepare_problems = wl.prepare(workdir, seed)
    print(f"# {wl.name} seed={seed} {machine()}")
    print(f"# why: {wl.why}")
    digests = {}
    iterations = []
    start = time.perf_counter()
    min_reps = 2 * MIN_REPETITIONS if trace else MIN_REPETITIONS
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run_iteration(
            wl, env, digests,
            trace_dir=os.path.join(workdir, "spans") if traced else None,
            index=len(iterations)))
        times, failures = time_imports(env, IMPORTS_PER_REPETITION)
        setup_times += times
        setup_failures += failures
        elapsed = time.perf_counter() - start
        mean = elapsed / len(iterations)
        if elapsed + mean > TIME_BUDGET_S - (start - t_begin):
            break
        if len(iterations) >= min_reps and elapsed + mean > seconds:
            break

    attempted = 1 + 1 + IMPORTS_PER_REPETITION * len(iterations)
    failed = setup_failures + (1 if prepare_problems else 0)
    for problem in prepare_problems:
        print(f"FAIL {problem}")
    for i, it in enumerate(iterations):
        for label, problems in it.problems.items():
            attempted += 1
            if problems:
                failed += 1
                for problem in problems:
                    print(f"FAIL repetition {i}: {problem}")

    if trace:
        metrics = _trace_report(wl, iterations, setup_times)
    else:
        metrics = _end_to_end_report(wl, iterations, setup_times)
    print(f"error_rate {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed or unverified)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _summary(values) -> str:
    return (f"median of {len(values)}; min {min(values):.4g}, "
            f"max {max(values):.4g}")


def _end_to_end_report(wl, iterations, setup_times) -> dict:
    walls = [it.wall for it in iterations]
    rates = [wl.series_cells / it.command_s[wl.featurizing] for it in iterations]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "series_cells_per_s": statistics.median(rates),
    }
    print(f"wall_s {values['wall_s']:.4f} s ({_summary(walls)})")
    print(f"setup_s {values['setup_s']:.4f} s ({_summary(setup_times)})")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB (largest of any process)")
    print(f"series_cells_per_s {values['series_cells_per_s']:.2f} 1/s "
          f"({wl.series_cells} series x grid cells by {wl.featurizing}; "
          f"{_summary(rates)})")
    for label in iterations[0].command_s:
        times = [it.command_s[label] for it in iterations]
        print(f"{label}_s {statistics.median(times):.4f} s ({_summary(times)})")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _trace_report(wl, iterations, setup_times) -> dict:
    import tracing
    setup_s = statistics.median(setup_times)
    untraced = [it.wall for i, it in enumerate(iterations) if i % 2 == 0]
    per_iter = []
    main_layers = []
    for i, it in enumerate(iterations):
        if i % 2 == 1:
            metrics, layers = traced_metrics(wl, it, setup_s)
            per_iter.append(metrics)
            main_layers.append(layers)
    values = {name: statistics.median(m[name] for m in per_iter)
              for name in tracing.LAYER_METRICS}
    values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(untraced)
    for name, (unit, _, moves) in tracing.LAYER_METRICS.items():
        print(f"{name} {values[name]:.6g} {unit}  -> {moves}")
    print(f"setup_s {setup_s:.4f} s ({_summary(setup_times)})")
    print(f"untraced wall_s {statistics.median(untraced):.4f} s "
          f"({_summary(untraced)}); traced {_summary([m['trace.wall_s'] for m in per_iter])}")
    print("main-process self time by layer (s): " + ", ".join(
        f"{layer} {statistics.median(l.get(layer, 0.0) for l in main_layers):.4f}"
        for layer in tracing.LAYERS))
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _, _) in tracing.LAYER_METRICS.items()}


def run_all(names, args) -> dict:
    """Run each workload in its own process, so that ``peak_rss_mb`` (which
    covers every process a benchmark process has waited for) is per
    workload, and merge their results under ``<workload>/<metric>``."""
    results = {}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            raise SystemExit(proc.returncode or 1)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geostat", "cli.py")):
        print(f"error: no geostat sources under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(list(WORKLOADS), args)
    else:
        sys.path.insert(0, SRC)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
