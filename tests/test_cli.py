import concurrent.futures
import csv
import functools
import json
import os

import numpy as np
import pytest

from conftest import (
    make_blobs,
    make_track,
    sine_chirp_dataset,
    ucr_rows_from_dataset,
    write_ucr_dataset,
)
from geostat import classify, cli
from geostat.cli import main, parse_mask
from geostat.features import FeatureMatrix, write_feature_csv


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """Small separable archive-style dataset (16 train / 8 test, length 40)."""
    root = tmp_path_factory.mktemp("data")
    train_s, train_y = sine_chirp_dataset(8, length=40, noise=0.02, seed=1)
    test_s, test_y = sine_chirp_dataset(4, length=40, noise=0.02, seed=2)
    return write_ucr_dataset(root / "Tiny", "Tiny",
                             ucr_rows_from_dataset(train_s, train_y),
                             ucr_rows_from_dataset(test_s, test_y))


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


BASE_FLAGS = ("--min-samples", "40", "--folds", "4", "--seed", "5")


class TestExtract:
    def test_twelve_cell_grid_writes_24_files(self, tiny_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run("extract", "--dataset", tiny_dataset, "--out", out,
                 "--smoothings", "0,1,2", "--windows", "1,2,4,6", *BASE_FLAGS)
        assert rc == 0
        files = sorted(os.listdir(out))
        assert len(files) == 24
        assert "features_train_4W_2S.csv" in files

    def test_single_cell_grid_writes_2_files(self, tiny_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run("extract", "--dataset", tiny_dataset, "--out", out,
                 "--smoothings", "1", "--windows", "2", *BASE_FLAGS)
        assert rc == 0
        assert len(os.listdir(out)) == 2

    def test_rerun_byte_identical(self, tiny_dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("extract", "--dataset", tiny_dataset, "--out", out,
                       "--smoothings", "1", "--windows", "2", *BASE_FLAGS) == 0
        name = "features_train_2W_1S.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestEvaluate:
    def test_separable_data_perfect_and_deterministic(self, tiny_dataset,
                                                      tmp_path):
        out = tmp_path / "out"
        rc = run("evaluate", "--dataset", tiny_dataset, "--out", out,
                 "--smoothings", "1", "--windows", "2", "--models", "knn,svm",
                 "--repetitions", "2", *BASE_FLAGS)
        assert rc == 0
        rows = read_rows(out / "results.csv")
        assert rows[0] == ["model", "windows", "smoothings", "run", "fold",
                           "accuracy"]
        assert len(rows) == 1 + 2 * 2
        summary = read_rows(out / "summary.csv")
        by_model = {r[0]: r for r in summary[1:]}
        assert float(by_model["KNN_2W_1S"][3]) == 1.0
        assert float(by_model["KNN_2W_1S"][4]) == 0.0

    def test_config_file_with_flag_override(self, tiny_dataset, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dataset": str(tiny_dataset), "out": str(out), "seed": 5,
            "smoothings": [1], "windows": [2], "models": ["knn"],
            "min_samples": 40, "folds": 4, "repetitions": 1}))
        rc = run("evaluate", "--config", config, "--repetitions", "2")
        assert rc == 0
        assert len(read_rows(out / "results.csv")) == 3  # override applied

    def test_missing_dataset_is_error(self, tmp_path):
        assert run("evaluate", "--out", tmp_path / "o") == 1


@pytest.fixture(scope="module")
def feature_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("feat")
    x, y = make_blobs(20, [0.0, 3.0], seed=3)
    cols = tuple(("position", 0, f"s{i}") for i in range(x.shape[1]))
    write_feature_csv(FeatureMatrix(x, cols, y), root / "features.csv")
    return root


@pytest.fixture(scope="module")
def feature_pair_dir(tiny_dataset, tmp_path_factory):
    """The tiny dataset's 2-window, 1-smoothing cell as features input."""
    root = tmp_path_factory.mktemp("pair")
    assert run("extract", "--dataset", tiny_dataset, "--out", root,
               "--smoothings", "1", "--windows", "2", *BASE_FLAGS) == 0
    for split in ("train", "test"):
        os.replace(root / f"features_{split}_2W_1S.csv",
                   root / f"features_{split}.csv")
    return root


class TestFeaturesInput:
    """Features input is one grid cell: the file's window count and the
    first --smoothings value, whatever the --windows flag says."""

    @pytest.mark.parametrize("command, name, extra, cells", [
        ("evaluate", "results.csv", (), [["knn", "2", "0", "0"]]),
        ("ablate", "ablation.csv", ("--mask", "position"),
         [["knn", "2", "0", "position"]]),
        ("windows", "window_accuracy.csv", (),
         [["knn", "2", "0", "0"], ["knn", "2", "0", "1"]]),
    ], ids=["evaluate", "ablate", "windows"])
    def test_default_grid_flags(self, feature_pair_dir, tmp_path, command,
                                name, extra, cells):
        out = tmp_path / "out"
        assert run(command, "--dataset", feature_pair_dir, "--format",
                   "features", "--out", out, "--models", "knn", "--folds", "4",
                   "--seed", "5", *extra) == 0
        assert [row[:4] for row in read_rows(out / name)[1:]] == cells


def command_flags(command, tiny_dataset, feature_dir, tmp_path):
    """Flags of a small run of each model-fitting command."""
    if command == "nested":
        return ("nested", "--dataset", feature_dir, "--format", "features",
                "--folds", "3", "--seed", "9")
    if command == "nested-class-map":
        class_map = tmp_path / "map.json"
        class_map.write_text(json.dumps({"0": "yes", "1": "no"}))
        return (*command_flags("nested", tiny_dataset, feature_dir, tmp_path),
                "--class-map", class_map)
    masks = ("--mask", "position", "--mask", "stat:low_quantiles")
    return (command, "--dataset", tiny_dataset, "--smoothings", "1",
            "--windows", "1,2", *BASE_FLAGS,
            *(masks if command == "ablate" else ()))


class RecordingPool:
    """Stands in for the process pool: records its size, runs in-process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


FITTING_COMMANDS = ["evaluate", "nested", "nested-class-map", "ablate", "windows"]


class TestJobs:
    @pytest.mark.parametrize("command", FITTING_COMMANDS)
    def test_two_workers_write_the_same_files(self, tiny_dataset, feature_dir,
                                              tmp_path, command):
        flags = command_flags(command, tiny_dataset, feature_dir, tmp_path)
        for jobs in (1, 2):
            assert run(*flags, "--models", "knn,svm", "--repetitions", "2",
                       "--jobs", jobs, "--out", tmp_path / str(jobs)) == 0
        names = sorted(os.listdir(tmp_path / "1"))
        assert names and names == sorted(os.listdir(tmp_path / "2"))
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

    @pytest.mark.parametrize("command, most", [
        ("evaluate", 2), ("ablate", 2), ("windows", 2),
        ("nested-class-map", 1)])
    def test_one_pool_per_stage(self, tiny_dataset, feature_dir, tmp_path,
                                monkeypatch, command, most):
        # One pool featurizes the grid cells, one runs every model fit.
        sizes = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        flags = command_flags(command, tiny_dataset, feature_dir, tmp_path)
        assert run(*flags, "--models", "knn,svm", "--jobs", 2,
                   "--out", tmp_path / "out") == 0
        assert 1 <= len(sizes) <= most
        assert set(sizes) == {2}

    @pytest.mark.parametrize("command, sizes", [
        ("evaluate", [2, 4]), ("nested", [2])])
    def test_no_more_workers_than_tasks(self, tiny_dataset, feature_dir,
                                        tmp_path, monkeypatch, command, sizes):
        # evaluate: 2 cells to featurize, then 2 cells x 2 models to fit.
        recorded = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            functools.partial(RecordingPool, recorded))
        flags = command_flags(command, tiny_dataset, feature_dir, tmp_path)
        assert run(*flags, "--models", "knn,svm", "--jobs", 8,
                   "--out", tmp_path / "out") == 0
        assert recorded == sizes


class TestNested:
    def test_nested_on_features(self, feature_dir, tmp_path):
        out = tmp_path / "out"
        rc = run("nested", "--dataset", feature_dir, "--format", "features",
                 "--out", out, "--models", "knn", "--repetitions", "1",
                 "--folds", "5", "--seed", "9")
        assert rc == 0
        summary = read_rows(out / "nested_summary.csv")
        assert summary[1][0] == "KNN"
        assert float(summary[1][3]) >= 0.9
        folds = read_rows(out / "nested_folds.csv")
        assert len(folds) == 1 + 5
        conf = read_rows(out / "confusion_knn.csv")
        assert len(conf) == 3  # header + 2 classes

    def test_binary_task_with_class_map(self, feature_dir, tmp_path):
        out = tmp_path / "out"
        class_map = tmp_path / "map.json"
        class_map.write_text(json.dumps({"0": "yes", "1": "no"}))
        rc = run("nested", "--dataset", feature_dir, "--format", "features",
                 "--out", out, "--models", "knn", "--repetitions", "1",
                 "--folds", "5", "--seed", "9", "--class-map", class_map)
        assert rc == 0
        assert (out / "nested_summary_binary.csv").exists()

    @pytest.mark.parametrize("content", [None, "[1, 2]", "{not json"],
                             ids=["missing", "not-an-object", "malformed"])
    def test_bad_class_map_writes_nothing(self, feature_dir, tmp_path,
                                          capsys, content):
        class_map = tmp_path / "map.json"
        if content is not None:
            class_map.write_text(content)
        out = tmp_path / "out"
        assert run("nested", "--dataset", feature_dir, "--format", "features",
                   "--out", out, "--models", "knn", "--folds", "5",
                   "--class-map", class_map) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_nested_on_vessel_csv(self, tmp_path):
        assert run_vessel_nested(tmp_path, vessel_lines()) == 0
        assert (tmp_path / "out" / "nested_summary.csv").exists()


def vessel_lines():
    """Header and rows of ten two-class vessel tracks with stops."""
    lines = ["mmsi,timestamp,lat,lon,speed,distance_from_shore,"
             "distance_from_port,label"]
    for v in range(10):
        label = "trawlers" if v % 2 == 0 else "reefers"
        speed_moving = 4.0 + v * 0.3 if label == "trawlers" else 9.0 + v
        t = 0.0
        for i in range(12):
            lines.append(f"{v},{t},{10 + 0.01 * i * (v + 1)},20.0,"
                         f"{speed_moving},100,200,{label}")
            t += 300.0
        for i in range(4):
            lines.append(f"{v},{t},{10.12},20.0,0.1,100,200,{label}")
            t += 300.0 * (v % 3 + 1)
    return lines


def run_vessel_nested(root, lines, name="out"):
    data = root / f"{name}-data"
    data.mkdir()
    (data / "mixed.csv").write_text("\n".join(lines) + "\n")
    return run("nested", "--dataset", data, "--format", "vessel",
               "--out", root / name, "--models", "knn", "--repetitions", "1",
               "--folds", "5", "--seed", "4")


class TestVesselRows:
    def test_short_row_is_skipped(self, tmp_path, capsys):
        lines = vessel_lines()
        assert run_vessel_nested(tmp_path, lines, "clean") == 0
        # A row with fewer fields than the header, at the top and inside.
        short = lines[:1] + ["1,0,1,1,5,1,1"] + lines[1:20] + ["3,600"]
        assert run_vessel_nested(tmp_path, short + lines[20:], "short") == 0
        assert "Traceback" not in capsys.readouterr().err
        for name in ("nested_summary.csv", "nested_folds.csv",
                     "confusion_knn.csv"):
            assert ((tmp_path / "short" / name).read_bytes()
                    == (tmp_path / "clean" / name).read_bytes())

    def test_oversized_field_is_an_error(self, tmp_path, capsys):
        lines = vessel_lines()
        lines[3] = lines[3].replace("trawlers", '"' + "x" * 140_000 + '"')
        assert run_vessel_nested(tmp_path, lines) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert "mixed.csv:4: field larger than field limit" in err


class TestNotes:
    """SVM refits that stop before their gap closes are reported on stderr."""

    def test_nested_reports_capped_refits(self, feature_dir, tmp_path,
                                          monkeypatch, capsys):
        flags = ("nested", "--dataset", feature_dir, "--format", "features",
                 "--models", "knn,svm", "--folds", "3", "--seed", "9")
        assert run(*flags, "--out", tmp_path / "plain") == 0
        assert "note:" not in capsys.readouterr().err
        monkeypatch.setattr(classify, "_step_cap", lambda n, max_steps: 1)
        assert run(*flags, "--out", tmp_path / "capped") == 0
        notes = capsys.readouterr().err.splitlines()
        # One two-class refit per outer fold, each stopped by the cap.
        assert notes == [f"note: svm iteration 0 fold {f}: pair (0, 1) hit "
                         f"the iteration cap" for f in range(3)]
        for name in os.listdir(tmp_path / "capped"):
            assert "note" not in (tmp_path / "capped" / name).read_text()

    def test_nested_reports_unstratified_outer_split(self, tmp_path, capsys):
        x, y = make_blobs(6, [0.0, 3.0], seed=4)
        cols = tuple(("position", 0, f"s{i}") for i in range(x.shape[1]))
        write_feature_csv(FeatureMatrix(x, cols, y), tmp_path / "features.csv")
        out = tmp_path / "out"
        assert run("nested", "--dataset", tmp_path, "--format", "features",
                   "--models", "knn,svm", "--folds", "8", "--seed", "9",
                   "--out", out) == 0
        # One note per model and iteration, in place of a raw warning.
        assert capsys.readouterr().err.splitlines() == [
            f"note: {model} iteration 0: smallest class has 6 members "
            f"(< 8 folds); falling back to unstratified folds"
            for model in ("knn", "svm")]
        assert len(read_rows(out / "nested_folds.csv")) == 1 + 2 * 8
        for name in os.listdir(out):
            assert "smallest class" not in (out / name).read_text()

    def test_evaluate_reports_capped_refits(self, tiny_dataset, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.setattr(classify, "_step_cap", lambda n, max_steps: 1)
        out = tmp_path / "out"
        assert run("evaluate", "--dataset", tiny_dataset, "--out", out,
                   "--smoothings", "1", "--windows", "2", "--models", "svm",
                   *BASE_FLAGS) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("note: ")]
        assert notes
        assert all(line.startswith("note: svm 2W 1S run 0: pair (")
                   and line.endswith("hit the iteration cap") for line in notes)
        assert "note" not in (out / "results.csv").read_text()


class TestAblate:
    def test_identity_like_and_informative_masks(self, tiny_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run("ablate", "--dataset", tiny_dataset, "--out", out,
                 "--smoothings", "1", "--windows", "1", "--models", "knn",
                 "--repetitions", "1", "--mask", "signed_curvature",
                 *BASE_FLAGS)
        assert rc == 0
        rows = read_rows(out / "ablation.csv")
        assert rows[0][-1] == "percent_change"
        assert len(rows) == 2

    def test_removing_everything_is_error(self, tiny_dataset, tmp_path):
        rc = run("ablate", "--dataset", tiny_dataset, "--out", tmp_path / "o",
                 "--smoothings", "1", "--windows", "1", "--models", "knn",
                 "--repetitions", "1", *BASE_FLAGS,
                 "--mask", "position,velocity,acceleration,curvature,"
                           "signed_curvature")
        assert rc == 1

    def test_unknown_mask_name_fails_before_any_fit(self, tiny_dataset,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        calls = []
        monkeypatch.setattr(cli, "_evaluate_task",
                            lambda args: calls.append(args))
        rc = run("ablate", "--dataset", tiny_dataset, "--out", tmp_path / "o",
                 "--smoothings", "1", "--windows", "1", "--models", "knn",
                 *BASE_FLAGS, "--jobs", "1",
                 "--mask", "position", "--mask", "dist:nonsense")
        assert rc == 1
        assert ("error: unknown distribution name 'nonsense'"
                in capsys.readouterr().err)
        assert calls == []

    def test_no_mask_is_error(self, tiny_dataset, tmp_path):
        rc = run("ablate", "--dataset", tiny_dataset, "--out", tmp_path / "o",
                 "--smoothings", "1", "--windows", "1", *BASE_FLAGS)
        assert rc == 1

    def test_parse_mask_tokens(self):
        mask = parse_mask("position,dist:curvature,stat:low_quantiles")
        assert mask.removed_distributions == {"position", "curvature"}
        assert mask.removed_statistics == {"low_quantiles"}

    def test_removing_the_only_informative_feature_hurts(self, tmp_path):
        # Classes differ only by level; every derivative-based feature is
        # identical noise, so masking out position collapses the accuracy.
        def rows(n, seed):
            rng = np.random.default_rng(seed)
            return ([("lo", rng.normal(0.0, 0.01, 40)) for _ in range(n)]
                    + [("hi", rng.normal(5.0, 0.01, 40)) for _ in range(n)])

        data = write_ucr_dataset(tmp_path / "Level", "Level", rows(8, 0),
                                 rows(4, 1))
        out = tmp_path / "out"
        rc = run("ablate", "--dataset", data, "--out", out,
                 "--smoothings", "0", "--windows", "1", "--models", "knn",
                 "--repetitions", "1", "--mask", "position",
                 "--min-samples", "40", "--folds", "4", "--seed", "3")
        assert rc == 0
        row = read_rows(out / "ablation.csv")[1]
        assert float(row[4]) == 1.0          # baseline is perfect
        assert float(row[6]) <= -30.0        # large negative percent change


class TestWindows:
    def test_w1_matches_full_evaluation(self, tiny_dataset, tmp_path):
        out_w = tmp_path / "w"
        out_e = tmp_path / "e"
        common = ("--dataset", tiny_dataset, "--smoothings", "1",
                  "--windows", "1", "--models", "knn", "--repetitions", "1",
                  *BASE_FLAGS)
        assert run("windows", "--out", out_w, *common) == 0
        assert run("evaluate", "--out", out_e, *common) == 0
        w_rows = read_rows(out_w / "window_accuracy.csv")
        e_rows = read_rows(out_e / "results.csv")
        assert w_rows[1][4] == e_rows[1][5]  # same accuracy value

    def test_six_windows_yield_six_rows(self, tiny_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run("windows", "--dataset", tiny_dataset, "--out", out,
                 "--smoothings", "1", "--windows", "6", "--models", "knn",
                 "--repetitions", "1", *BASE_FLAGS)
        assert rc == 0
        rows = read_rows(out / "window_accuracy.csv")
        assert len(rows) == 1 + 6

    def test_signal_confined_to_second_half(self, tmp_path):
        # Classes agree on the first half of every series and separate only
        # deep inside the second half (past the reach of the boundary
        # derivatives), so window 2 carries all the class signal.
        t = np.linspace(0, 1, 24)

        def rows(n, seed):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(n):
                flat = rng.normal(0, 0.02, 60)
                a = flat.copy()
                a[36:] += np.sin(2 * np.pi * 6 * t)
                b = flat.copy()
                b[36:] += 2.0 * t
                out.append(("wave", a))
                out.append(("ramp", b))
            return out

        data = write_ucr_dataset(tmp_path / "Half", "Half", rows(8, 0),
                                 rows(4, 1))
        out = tmp_path / "out"
        rc = run("windows", "--dataset", data, "--out", out,
                 "--smoothings", "0", "--windows", "2", "--models", "knn",
                 "--repetitions", "1", "--min-samples", "60", "--folds", "4",
                 "--seed", "2")
        assert rc == 0
        by_window = {r[3]: float(r[4])
                     for r in read_rows(out / "window_accuracy.csv")[1:]}
        assert by_window["1"] >= by_window["0"] + 0.3
        assert by_window["1"] == 1.0


class TestDTWCommand:
    def test_baseline_on_tiny_dataset(self, tiny_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run("dtw", "--dataset", tiny_dataset, "--out", out, "--seed", "0")
        assert rc == 0
        rows = read_rows(out / "dtw_results.csv")
        assert rows[1][0] == "Tiny"
        # Random phases keep this from being trivial for warping alignment;
        # well above chance is what the baseline should deliver here.
        assert float(rows[1][2]) >= 0.7

    def test_band_that_cannot_connect_lengths_is_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [(label, rng.normal(size=n)) for label, n in
                (("a", 40), ("b", 40), ("a", 12), ("b", 40))]
        data = write_ucr_dataset(tmp_path / "Ragged", "Ragged", rows[:2], rows[2:])
        out = tmp_path / "out"
        assert run("dtw", "--dataset", data, "--out", out, "--band", "0.1") == 1
        assert "error: band half-width 4 cannot connect" in capsys.readouterr().err
        assert not (out / "dtw_results.csv").exists()
