"""The benchmark's workloads: inputs, command sequence, and output checks.

Each workload is one closed-loop client that runs its geostat commands one
after another and waits for each. :meth:`Workload.prepare` generates the
inputs from the seed and computes every reference before timing starts;
:meth:`Workload.check` verifies one command's outputs against them.
"""

from __future__ import annotations

import os

import numpy as np

import datagen
import verify

FULL_GRID = {"smoothings": (0, 1, 2), "windows": (1, 2, 4, 6)}


def _grid_flags(smoothings, windows) -> list:
    return ["--smoothings", ",".join(map(str, smoothings)),
            "--windows", ",".join(map(str, windows))]


class Workload:
    name = ""
    why = ""
    # Label of the command whose time series_cells_per_s divides by.
    featurizing = ""
    # Data rows in the generated vessel files (for ingest.rows_kept_ratio).
    rows_total = 0

    def prepare(self, workdir: str, seed: int) -> list:
        """Generate inputs, compute references; return problems found in
        the program's functions while computing them."""
        raise NotImplementedError

    def commands(self) -> list:
        """``[(label, geostat argv, output directory)]`` in run order."""
        raise NotImplementedError

    def check(self, label: str, out: str) -> list:
        raise NotImplementedError

    @property
    def series_cells(self) -> int:
        """Series x grid cells the featurizing command processes."""
        raise NotImplementedError


class ArchiveExtract(Workload):
    name = "archive_extract"
    why = ("single-process extract over the full 3 x 4 grid: parsing, "
           "resampling, geometry, summaries and CSV writes, with no "
           "classifier or warping work")
    featurizing = "extract"
    n_train = n_test = 100
    length = 500
    sample_rows = 2  # re-derived rows per output file

    def prepare(self, workdir, seed):
        from geostat.features import (UNIVARIATE_DISTRIBUTIONS, GeoStatConfig,
                                      extract_univariate)
        from geostat.series import TimeSeries, resample_uniform
        from geostat.stats import SummaryConfig
        self.dataset = os.path.join(workdir, "data", "Synth")
        self.out = os.path.join(workdir, "out", "extract")
        m = datagen.write_archive(self.dataset, "Synth", self.n_train,
                                  self.n_test, self.length, seed)
        rng = np.random.default_rng(seed)
        stat_names = SummaryConfig().statistic_names
        self.expected = {}  # file name -> (header, labels, {row: values})
        for split in ("train", "test"):
            labels, values = datagen.read_archive_split(m[f"{split}_path"])
            uniform = {}
            for w in FULL_GRID["windows"]:
                for s in FULL_GRID["smoothings"]:
                    rows = {}
                    for idx in rng.choice(len(labels), self.sample_rows,
                                          replace=False):
                        idx = int(idx)
                        if idx not in uniform:
                            ts = TimeSeries(np.arange(values[idx].size, dtype=float),
                                            values[idx])
                            uniform[idx] = resample_uniform(ts, 500)
                        cfg = GeoStatConfig(min_samples=500,
                                            smoothing_iterations=s, num_windows=w)
                        rows[idx] = extract_univariate(uniform[idx], cfg)[0]
                    header = verify.feature_header(w, stat_names,
                                                   UNIVARIATE_DISTRIBUTIONS)
                    self.expected[f"features_{split}_{w}W_{s}S.csv"] = (
                        header, labels, rows)
        return []

    def commands(self):
        return [("extract", ["extract", "--dataset", self.dataset,
                             "--out", self.out, "--jobs", "1"]
                 + _grid_flags(**FULL_GRID), self.out)]

    def check(self, label, out):
        problems = []
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        if names != sorted(self.expected):
            problems.append(f"extract wrote {len(names)} files, expected "
                            f"{len(self.expected)}")
        for name, (header, labels, rows) in sorted(self.expected.items()):
            problems += verify.check_feature_file(os.path.join(out, name),
                                                  header, labels, rows)
        return problems

    @property
    def series_cells(self):
        return (self.n_train + self.n_test) * 12


class ArchiveEvaluate(Workload):
    name = "archive_evaluate"
    why = ("evaluate with knn,svm over 4 grid cells on all cores, then the "
           "1-NN warping baseline: all grid search, SMO and DTW work, and the "
           "only use of the CLI process pool")
    featurizing = "evaluate"
    n_train = n_test = 30
    length = 160
    band = 0.1
    smoothings = (1, 2)
    windows = (1, 4)
    models = ("knn", "svm")
    sampled_queries = 4

    def prepare(self, workdir, seed):
        from geostat import dtw
        self.dataset = os.path.join(workdir, "data", "Synth")
        self.out_eval = os.path.join(workdir, "out", "evaluate")
        self.out_dtw = os.path.join(workdir, "out", "dtw")
        m = datagen.write_archive(self.dataset, "Synth", self.n_train,
                                  self.n_test, self.length, seed)
        train_y, train_x = datagen.read_archive_split(m["train_path"])
        test_y, test_x = datagen.read_archive_split(m["test_path"])
        dist = verify.dtw_reference(test_x, train_x, self.band)
        pred = verify.nn_predictions(dist, train_y)
        self.dtw_accuracy = float(np.mean(np.array(test_y) == np.array(pred)))
        # The program's early-abandoning search must agree query by query.
        picks = np.random.default_rng(seed).choice(
            self.n_test, self.sampled_queries, replace=False)
        got = dtw.nn_dtw_classify(train_x, train_y, [test_x[i] for i in picks],
                                  dtw.DTWConfig(band_fraction=self.band))
        want = [pred[i] for i in picks]
        if list(got) != want:
            return [f"dtw: predictions {list(got)} on sampled queries differ "
                    f"from the no-abandon recomputation {want}"]
        return []

    def commands(self):
        jobs = str(len(os.sched_getaffinity(0)))
        return [
            ("evaluate", ["evaluate", "--dataset", self.dataset,
                          "--out", self.out_eval, "--models", ",".join(self.models),
                          "--jobs", jobs] + _grid_flags(self.smoothings, self.windows),
             self.out_eval),
            ("dtw", ["dtw", "--dataset", self.dataset, "--out", self.out_dtw,
                     "--band", str(self.band)], self.out_dtw),
        ]

    def check(self, label, out):
        if label == "evaluate":
            cells = [(w, s) for w in self.windows for s in self.smoothings]
            return verify.check_evaluate(out, cells, list(self.models), self.n_test)
        return verify.check_dtw(out, "Synth", self.band, self.dtw_accuracy)

    @property
    def series_cells(self):
        return (self.n_train + self.n_test) * len(self.windows) * len(self.smoothings)


class VesselNested(Workload):
    name = "vessel_nested"
    why = ("nested CV on vessel CSVs: the only workload on vessel ingest, "
           "segmentation, label filtering and Frechet featurization, with many "
           "small knn and svm fits")
    featurizing = "nested"
    n_per_class = 20
    folds = 5
    models = ("knn", "svm")

    def prepare(self, workdir, seed):
        self.dataset = os.path.join(workdir, "data", "vessels")
        self.out = os.path.join(workdir, "out", "nested")
        m = datagen.write_vessels(self.dataset, self.n_per_class, seed)
        self.kept_counts = m["kept_counts"]
        self.rows_total = m["rows_total"]
        return []

    def commands(self):
        return [("nested", ["nested", "--format", "vessel",
                            "--dataset", self.dataset, "--out", self.out,
                            "--models", ",".join(self.models), "--jobs", "1",
                            "--folds", str(self.folds)], self.out)]

    def check(self, label, out):
        return verify.check_nested(out, list(self.models), self.folds,
                                   self.kept_counts)

    @property
    def series_cells(self):
        return sum(self.kept_counts.values())


WORKLOADS = {w.name: w for w in (ArchiveExtract, ArchiveEvaluate, VesselNested)}
