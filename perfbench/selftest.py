"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a seed always generates byte-identical inputs (and another seed
different ones), that one repetition of every workload verifies cleanly on
the current code, that the verifier flags deliberately corrupted output
files, that a traced repetition collects spans from pool workers and the
counts the benchmark documents, and that ``BENCHMARK.json`` names exactly
the metrics and workloads the code reports. Exits 1 if any check fails.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import statistics
import sys

import run
import datagen
import tracing
from workloads import WORKLOADS

failures = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def same_tree(a: str, b: str) -> bool:
    cmp = filecmp.dircmp(a, b)
    names = cmp.left_list
    if cmp.left_only or cmp.right_only:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def check_generators(work: str) -> None:
    for kind, write in (
            ("archive", lambda d, s: datagen.write_archive(d, "Synth", 20, 20, 120, s)),
            ("vessel", lambda d, s: datagen.write_vessels(d, 4, s))):
        dirs = [os.path.join(work, f"{kind}{i}") for i in range(3)]
        write(dirs[0], 7)
        write(dirs[1], 7)
        write(dirs[2], 8)
        expect(same_tree(dirs[0], dirs[1]), f"{kind}: seed 7 twice gives byte-identical files")
        expect(not same_tree(dirs[0], dirs[2]), f"{kind}: seeds 7 and 8 give different files")


def _rewrite(path: str, edit) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _set_field(lines, row: int, col: int, value: str):
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return lines


def corruptions(wl):
    """(description, label, file, edit) cases the verifier must flag."""
    if wl.name == "archive_extract":
        name, (_, _, rows) = sorted(wl.expected.items())[0]
        row = 1 + min(rows)
        return [
            ("a re-derived value nudged by 1e-6 relative", "extract", name,
             lambda ls: _set_field(ls, row, 3, repr(float(ls[row].split(",")[3]) * (1 + 1e-6)))),
            ("a non-finite value", "extract", name,
             lambda ls: _set_field(ls, len(ls) - 1, 0, "nan")),
            ("a missing row", "extract", name, lambda ls: ls[:-1]),
            ("a missing column", "extract", name,
             lambda ls: [",".join(l.split(",")[1:]) for l in ls]),
        ]
    if wl.name == "archive_evaluate":
        return [
            ("an accuracy that is not k/n", "evaluate", "results.csv",
             lambda ls: _set_field(ls, 1, 5, "0.123")),
            ("a dropped grid cell", "evaluate", "results.csv", lambda ls: ls[:-1]),
            ("a changed warping accuracy", "dtw", "dtw_results.csv",
             lambda ls: _set_field(ls, 1, 2, "0.5" if ls[1].split(",")[2] != "0.5" else "0.6")),
        ]
    return [
        ("a lost track in a confusion matrix", "nested", "confusion_svm.csv",
         lambda ls: _set_field(ls, 1, 1, str(int(ls[1].split(",")[1]) - 1))),
        ("an accuracy below the floor", "nested", "nested_summary.csv",
         lambda ls: _set_field(ls, 1, 3, "0.1")),
        ("a missing fold", "nested", "nested_folds.csv", lambda ls: ls[:-1]),
    ]


def check_workload(name: str, work: str, env: dict) -> None:
    wl = WORKLOADS[name]()
    problems = wl.prepare(os.path.join(work, name), seed=3)
    expect(not problems, f"{name}: references agree with the program {problems}")
    it = run.run_iteration(wl, env, {})
    bad = {k: v for k, v in it.problems.items() if v}
    expect(not bad, f"{name}: one repetition verifies cleanly {bad}")
    outs = {label: out for label, _, out in wl.commands()}
    for what, label, fname, edit in corruptions(wl):
        path = os.path.join(outs[label], fname)
        backup = path + ".orig"
        shutil.copyfile(path, backup)
        _rewrite(path, edit)
        expect(bool(wl.check(label, outs[label])), f"{name}: verifier flags {what}")
        os.replace(backup, path)
    digests = {label: "0" * 64 for label in outs}
    it = run.run_iteration(wl, env, digests)
    expect(all(it.problems.values()),
           f"{name}: outputs differing from the first repetition are flagged")


def check_trace(work: str, env: dict) -> None:
    setup_s = statistics.median(run.time_imports(env, 5)[0])
    for name in ("archive_extract", "archive_evaluate"):
        wl = WORKLOADS[name]()
        wl.prepare(os.path.join(work, "trace-" + name), seed=3)
        it = run.run_iteration(wl, env, {}, trace_dir=os.path.join(work, "spans-" + name))
        expect(not any(it.problems.values()), f"{name}: traced repetition verifies")
        metrics, _ = run.traced_metrics(wl, it, setup_s)
        ratio = metrics["trace.startup_over_setup"]
        expect(0.8 < ratio < 2.5,
               f"{name}: time outside cli.main per call is close to setup_s ({ratio:.3f})")
        ratio = metrics["trace.accounted_ratio"]
        expect(abs(ratio - 1.0) < 0.05,
               f"{name}: self times and setup_s account for wall_s ({ratio:.4f})")
        if name == "archive_extract":
            cells = (wl.n_train + wl.n_test) * 12
            expect(metrics["geometry.build_stack_calls"] == cells,
                   f"archive_extract: build_stack_calls is series x 12 = {cells}")
            expect(metrics["features.rows_extracted"] == cells,
                   "archive_extract: one extracted row per series and cell")
        else:
            expect(metrics["trace.worker_busy_s"] > 0
                   and metrics["classify.smo_calls"] > 0,
                   "archive_evaluate: spans from --jobs pool workers are collected")
            expect(metrics["dtw.distance_calls"] == wl.n_train * wl.n_test,
                   "archive_evaluate: one distance call per (query, train) pair")


def check_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the workloads the code defines")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics match the reported ones")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == {k: v[0] for k, v in tracing.LAYER_METRICS.items()},
           "BENCHMARK.json per-layer metrics match the traced ones")


def main() -> int:
    sys.path.insert(0, run.SRC)
    work = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    env = run.geostat_env()
    try:
        check_benchmark_json()
        check_generators(work)
        for name in WORKLOADS:
            check_workload(name, work, env)
        check_trace(work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
