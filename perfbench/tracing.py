"""Span tracing of geostat's layers from outside the package.

Run as a script, this module stands in for the ``geostat`` console command:

    python3 perfbench/tracing.py SPANS_PATH RUN_ID -- extract --dataset ...

It imports geostat, replaces the public functions of each module (and the
CLI's pool tasks) with wrappers that record a span per call, runs
``geostat.cli.main`` and writes the spans as JSON to ``SPANS_PATH``. Nothing
in geostat changes: the wrappers are installed into the module namespaces,
including every module that imported the function by name.

A span is ``[name, start, end, parent, counts]``: ``parent`` indexes the
calling span in the same process (or is None), and ``counts`` holds the
operation counts recorded at that boundary. Spans stay in memory until the
command ends. Pool workers forked by ``--jobs`` inherit the wrappers; each
writes its own spans to ``SPANS_PATH.<pid>`` whenever a task finishes,
since pool workers exit without running exit handlers.

:func:`layer_sums` and :func:`finish_metrics` turn the span files of the
CLI calls of one repetition into per-layer metrics; :data:`LAYER_METRICS`
lists them with the end-to-end metric each should move.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

LAYERS = ("ingest", "series", "geometry", "stats", "features", "classify",
          "dtw", "cli")


def _n(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) else 1


def _dtw_cells(args, kwargs, result) -> dict:
    """Cells the banded recurrence fills for these lengths (computed)."""
    from geostat.dtw import DTWConfig
    n, m = np.size(args[0]), np.size(args[1])
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg", DTWConfig())
    if cfg.band_fraction is None:
        cells = n * m
    else:
        w = int(np.ceil(cfg.band_fraction * max(n, m)))
        i = np.arange(n)
        cells = int(np.sum(np.minimum(m - 1, i + w) - np.maximum(0, i - w) + 1))
    return {"cells": cells, "abandoned": int(np.isinf(result))}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Every function the tracer wraps, by span name, and how its spans add to
# the layer metrics: "count" computes the counts recorded at that boundary
# from the call's arguments and result; "time" sums span durations, "self"
# sums self times, "calls" counts spans, and "counts" maps a recorded count
# to the metric it adds to. Names without a dot in "counts" are raw sums
# that :func:`finish_metrics` turns into ratios. An entry with nothing but
# its name still counts toward its layer's self time.
SPANS = {
    "ingest.load_ucr": {
        "count": lambda a, k, r: {
            "values": sum(np.size(s) for s in r.train_series + r.test_series)},
        "time": "ingest.load_ucr_s", "counts": {"values": "ingest.values_parsed"}},
    "ingest.load_vessels": {
        "count": lambda a, k, r: {"rows_kept": sum(t.n_samples for t in r)},
        "time": "ingest.load_vessels_s", "counts": {"rows_kept": "rows_kept"}},
    "ingest.segment_vessel": {
        "count": lambda a, k, r: {"active": len(r.active),
                                  "dropped": len(r.dropped_spans)},
        "time": "ingest.segment_s",
        "counts": {"active": "ingest.segments_active",
                   "dropped": "ingest.segments_dropped"}},
    "ingest.filter_labels": {
        "count": lambda a, k, r: {"tracks_in": len(a[0]), "tracks_kept": len(r)},
        "time": "ingest.filter_s",
        "counts": {"tracks_in": "tracks_in", "tracks_kept": "tracks_kept"}},
    "ingest.vessel_features": {"self": "ingest.vessel_features_self_s"},
    "ingest.vessel_feature_matrix": {},
    "series.resample_uniform": {
        "count": lambda a, k, r: {"samples": r.n_samples},
        "time": "series.resample_s", "calls": "series.resample_calls",
        "counts": {"samples": "series.samples_out"}},
    "series.equalize_lengths": {},
    "series.laplacian_smooth": {},
    "series.smooth_values": {},
    "geometry.build_stack": {
        "count": lambda a, k, r: {"samples": r.n_samples},
        "time": "geometry.build_stack_s", "calls": "geometry.build_stack_calls",
        "counts": {"samples": "geometry.samples_in"}},
    "stats.summarize": {
        "count": lambda a, k, r: {"samples": np.size(a[0])},
        "time": "stats.summarize_s", "calls": "stats.summarize_calls",
        "counts": {"samples": "stats.samples_summarized"}},
    "stats.frechet_mean_variance": {
        "time": "stats.frechet_s", "calls": "stats.frechet_calls"},
    "features.extract_univariate": {
        "self": "features.extract_self_s", "calls": "features.rows_extracted"},
    "features.extract_multivariate": {
        "self": "features.extract_self_s", "calls": "features.rows_extracted"},
    "features.univariate_matrix": {},
    "features.z_normalize": {"time": "features.z_normalize_s"},
    "features.write_feature_csv": {
        "count": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
        "time": "features.write_csv_s", "counts": {"bytes": "features.bytes_written"}},
    "features.read_feature_csv": {},
    "classify.grid_search_cv": {
        "count": lambda a, k, r: {"points": len(_arg(a, k, 2, "grid"))},
        "time": "classify.grid_search_s", "counts": {"points": "classify.grid_points"}},
    "classify.nested_cv": {"time": "classify.nested_cv_s"},
    # A grid point whose fit raises ValueError is infeasible (see Recorder.wrap).
    "classify.fit_model": {
        "counts": {"value_errors": "classify.grid_points_infeasible"}},
    "classify.predict_model": {},
    "classify.svm_fit": {
        "count": lambda a, k, r: {"unconverged": int(not r.converged)},
        "time": "classify.svm_fit_s", "calls": "classify.svm_fits",
        "counts": {"unconverged": "classify.svm_unconverged"}},
    "classify.smo_solve": {"time": "classify.smo_s", "calls": "classify.smo_calls"},
    "classify.kernel_matrix": {
        "count": lambda a, k, r: {"entries": _n(a[0]) * _n(a[1])},
        "time": "classify.kernel_s", "counts": {"entries": "classify.kernel_entries"}},
    "classify.knn_predict": {
        "count": lambda a, k, r: {
            "entries": _n(np.asarray(_arg(a, k, 1, "queries"))) * _n(a[0].points)},
        "time": "classify.knn_predict_s",
        "counts": {"entries": "classify.knn_distance_entries"}},
    "dtw.dtw_distance": {
        "count": _dtw_cells, "time": "dtw.distance_s", "calls": "dtw.distance_calls",
        "counts": {"cells": "dtw.cells", "abandoned": "dtw_abandoned"}},
    "dtw.nn_dtw_classify": {},
    "cli.main": {"time": "main_s"},
    "cli._extract_cell": {},
    "cli._evaluate_task": {},
    "cli._nested_task": {},
    # Not a geostat function: Recorder.write records it after cli.main
    # returns, so that writing spans is not taken for start-up.
    "trace.write": {"time": "trace.write_s"},
}


class Recorder:
    """Spans of one process; a forked pool worker starts its own."""

    def __init__(self, path: str, run_id: str):
        self.path = path
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.worker = False
        self.flushed = 0

    def after_fork(self) -> None:
        """In a pool worker: drop the parent's spans."""
        self.spans, self.stack = [], []
        self.worker = True
        self.flushed = 0

    def wrap(self, name: str, fn, count):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else None, None]
            index = len(rec.spans)
            rec.spans.append(span)
            rec.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                span[4] = {"value_errors": 1}
                raise
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if rec.worker and not rec.stack:
                rec.flush()
            return result

        return traced

    def install(self) -> None:
        """Replace every target function wherever geostat's modules bind it."""
        import geostat
        from geostat import (classify, cli, dtw, features, geometry, ingest,
                             series, stats)
        modules = [geostat, classify, cli, dtw, features, geometry, ingest,
                   series, stats]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for name, entry in SPANS.items():
            mod, fname = name.split(".")
            if mod == "trace":
                continue
            original = getattr(by_name[mod], fname)
            wrapper = self.wrap(name, original, entry.get("count"))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        os.register_at_fork(after_in_child=self.after_fork)

    def payload(self, spans) -> dict:
        return {"run_id": self.run_id, "worker": self.worker, "spans": spans}

    def flush(self) -> None:
        """Append the spans recorded since the last flush (pool workers)."""
        new = self.spans[self.flushed:]
        with open(f"{self.path}.{os.getpid()}", "a") as fh:
            fh.write(json.dumps(self.payload(new)) + "\n")
        self.flushed = len(self.spans)

    def write(self) -> None:
        start = time.perf_counter()
        with open(self.path, "w") as fh:
            fh.write(json.dumps(self.payload(self.spans)) + "\n")
            span = ["trace.write", start, time.perf_counter(), None, None]
            fh.write(json.dumps(self.payload([span])) + "\n")


def read_spans(path: str) -> list:
    """Span lists of one traced call: the main process first, then workers."""
    directory, base = os.path.split(path)
    procs = []
    for name in sorted(os.listdir(directory)):
        if name != base and not name.startswith(base + "."):
            continue
        spans = []
        meta = None
        with open(os.path.join(directory, name)) as fh:
            for line in fh:
                meta = json.loads(line)
                spans.extend(meta["spans"])
        procs.append((meta["worker"], spans))
    procs.sort(key=lambda p: p[0])
    return procs


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


# name -> (unit, better, moves). ``moves`` names the end-to-end metric and
# workload the layer metric should move; "(computed)" marks counts derived
# from argument shapes rather than observed work. evaluate_s and dtw_s are
# printed per command and bounded through series_cells_per_s and wall_s.
_EXTRACT = "archive_extract wall_s"
_VESSEL = "vessel_nested wall_s"
_GEOMETRY = "archive_extract series_cells_per_s, vessel_nested wall_s"
_CLASSIFY = ("archive_evaluate evaluate_s (series_cells_per_s), vessel_nested "
             "wall_s; archive_extract unchanged")
_DTW = "archive_evaluate dtw_s (wall_s); unchanged elsewhere"
LAYER_METRICS = {
    "ingest.load_ucr_s": ("s", "lower", _EXTRACT + " (slightly)"),
    "ingest.values_parsed": ("count", "lower", _EXTRACT + " (slightly)"),
    "ingest.load_vessels_s": ("s", "lower", _VESSEL),
    "ingest.rows_kept_ratio": ("ratio", "higher", _VESSEL),
    "ingest.segment_s": ("s", "lower", _VESSEL),
    "ingest.segments_active": ("count", "lower", _VESSEL),
    "ingest.segments_dropped": ("count", "lower", _VESSEL),
    "ingest.filter_s": ("s", "lower", _VESSEL),
    "ingest.tracks_kept_ratio": ("ratio", "higher", _VESSEL),
    "ingest.vessel_features_self_s": ("s", "lower", _VESSEL),
    "series.resample_s": ("s", "lower", _EXTRACT),
    "series.resample_calls": ("count", "lower", _EXTRACT),
    "series.samples_out": ("count", "lower", _EXTRACT),
    "geometry.build_stack_s": ("s", "lower", _GEOMETRY),
    "geometry.build_stack_calls": ("count", "lower", _GEOMETRY),
    "geometry.samples_in": ("count", "lower", _GEOMETRY),
    "stats.summarize_s": ("s", "lower", _EXTRACT),
    "stats.summarize_calls": ("count", "lower", _EXTRACT),
    "stats.samples_summarized": ("count", "lower", _EXTRACT + " (computed)"),
    "stats.frechet_s": ("s", "lower", _VESSEL),
    "stats.frechet_calls": ("count", "lower", _VESSEL),
    "features.extract_self_s": ("s", "lower", _EXTRACT),
    "features.rows_extracted": ("count", "lower", _EXTRACT),
    "features.write_csv_s": ("s", "lower", _EXTRACT),
    "features.bytes_written": ("bytes", "lower", _EXTRACT),
    "features.z_normalize_s": ("s", "lower", _EXTRACT),
    "classify.grid_search_s": ("s", "lower", _CLASSIFY),
    "classify.grid_points": ("count", "lower", _CLASSIFY),
    "classify.grid_points_infeasible": ("count", "lower", _CLASSIFY),
    "classify.svm_fit_s": ("s", "lower", _CLASSIFY),
    "classify.svm_fits": ("count", "lower", _CLASSIFY),
    "classify.svm_unconverged": ("count", "lower", _CLASSIFY),
    "classify.smo_s": ("s", "lower", _CLASSIFY),
    "classify.smo_calls": ("count", "lower", _CLASSIFY),
    "classify.kernel_s": ("s", "lower", _CLASSIFY),
    "classify.kernel_entries": ("count", "lower", _CLASSIFY + " (computed)"),
    "classify.knn_predict_s": ("s", "lower", _CLASSIFY),
    "classify.knn_distance_entries": ("count", "lower", _CLASSIFY + " (computed)"),
    "classify.nested_cv_s": ("s", "lower", _VESSEL),
    "dtw.distance_s": ("s", "lower", _DTW),
    "dtw.distance_calls": ("count", "lower", _DTW),
    "dtw.abandoned_ratio": ("ratio", "higher", _DTW),
    "dtw.cells": ("count", "lower", _DTW + " (computed)"),
    "cli.self_s": ("s", "lower", "archive_evaluate wall_s"),
}
LAYER_METRICS.update({
    f"{layer}.self_s": ("s", "lower", "wall_s of every workload that runs it")
    for layer in LAYERS if layer != "cli"})
LAYER_METRICS.update({
    "trace.overhead_ratio": ("ratio", "lower", "traced over untraced wall_s"),
    "trace.wall_s": ("s", "lower", "wall_s of the traced repetitions"),
    "trace.write_s": ("s", "lower", "tracing overhead: writing spans after cli.main"),
    "trace.startup_s": ("s", "lower", "setup_s; time of the calls outside cli.main "
                        "and trace.write"),
    "trace.startup_over_setup": ("ratio", "lower", "setup_s; per-call startup_s over setup_s"),
    "trace.verify_s": ("s", "lower", "the benchmark's own output checks"),
    "trace.accounted_ratio": ("ratio", "higher",
                              "self times + setup_s per call + verify_s, over wall_s"),
    "trace.worker_busy_s": ("s", "lower", "pool worker task time, archive_evaluate"),
    "trace.spans": ("count", "lower", "spans recorded per repetition"),
})


def layer_sums(procs) -> dict:
    """Raw sums over the spans of one traced call, all processes included.

    Besides the metrics of :data:`SPANS`, returns ``main_self_s`` (self time
    of main-process spans), ``main_s`` and the raw counts the ratios need.
    """
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for worker, spans in procs:
        own = self_times(spans)
        for (name, start, end, parent, counts), self_s in zip(spans, own):
            layer = name.split(".", 1)[0]
            add(f"{layer}.self_s", self_s)
            add("trace.spans", 1)
            if not worker:
                add("main_self_s", self_s)
                add(f"main.{layer}", self_s)
            elif parent is None:
                add("trace.worker_busy_s", end - start)
            entry = SPANS[name]
            if "time" in entry:
                add(entry["time"], end - start)
            if "self" in entry:
                add(entry["self"], self_s)
            if "calls" in entry:
                add(entry["calls"], 1)
            for key, metric in entry.get("counts", {}).items():
                add(metric, (counts or {}).get(key, 0))
    return out


def finish_metrics(sums: dict, rows_total: int) -> dict:
    """Per-layer metrics of one traced iteration from its summed raw values."""
    metrics = {name: 0.0 for name in LAYER_METRICS}
    for key, value in sums.items():
        if key in metrics:
            metrics[key] = value
    if sums.get("tracks_in"):
        metrics["ingest.tracks_kept_ratio"] = sums["tracks_kept"] / sums["tracks_in"]
    if rows_total and sums.get("rows_kept"):
        metrics["ingest.rows_kept_ratio"] = sums["rows_kept"] / rows_total
    if sums.get("dtw.distance_calls"):
        metrics["dtw.abandoned_ratio"] = sums["dtw_abandoned"] / sums["dtw.distance_calls"]
    return metrics


def main(argv) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: tracing.py SPANS_PATH RUN_ID -- GEOSTAT_ARGS...",
              file=sys.stderr)
        return 2
    path, run_id, cli_args = argv[0], argv[1], argv[3:]
    recorder = Recorder(path, run_id)
    recorder.install()
    from geostat import cli
    try:
        return cli.main(cli_args)
    finally:
        recorder.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
