import concurrent.futures
import csv
import functools
import json
import os
import re
import types

import numpy as np
import pytest

from conftest import (
    make_blobs,
    make_track,
    sine_chirp_dataset,
    ucr_rows_from_dataset,
    write_ucr_dataset,
)
from geostat import classify, cli, ingest, series
from geostat.cli import main, parse_mask
from geostat.features import FeatureMatrix, read_feature_csv, write_feature_csv


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


# extract reads --min-samples of these; the model-fitting commands all.
EXTRACT_FLAGS = ("--min-samples", "40")
BASE_FLAGS = (*EXTRACT_FLAGS, "--folds", "4", "--seed", "5")


class TestExtract:
    def test_twelve_cell_grid_writes_24_files(self, tiny_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run("extract", "--dataset", tiny_dataset, "--out", out,
                 "--smoothings", "0,1,2", "--windows", "1,2,4,6", *EXTRACT_FLAGS)
        assert rc == 0
        files = sorted(os.listdir(out))
        assert len(files) == 24
        assert "features_train_4W_2S.csv" in files

    def test_single_cell_grid_writes_2_files(self, tiny_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run("extract", "--dataset", tiny_dataset, "--out", out,
                 "--smoothings", "1", "--windows", "2", *EXTRACT_FLAGS)
        assert rc == 0
        assert len(os.listdir(out)) == 2

    def test_rerun_byte_identical(self, tiny_dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("extract", "--dataset", tiny_dataset, "--out", out,
                       "--smoothings", "1", "--windows", "2", *EXTRACT_FLAGS) == 0
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

    def test_test_only_label_counts_as_wrong(self, tmp_path):
        # Two test rows carry labels the train split lacks, one sorting
        # before the training classes and one after. Such a class never
        # wins a vote, and the others keep their order, so each model loses
        # exactly those two rows of the eight it scores perfectly.
        train_s, train_y = sine_chirp_dataset(8, length=40, noise=0.02, seed=1)
        test_s, test_y = sine_chirp_dataset(4, length=40, noise=0.02, seed=2)
        rows = {}
        for name, labels in (("plain", test_y),
                             ("extra", ["0", "zz"] + list(test_y[2:]))):
            data = write_ucr_dataset(tmp_path / name, "Tiny",
                                     ucr_rows_from_dataset(train_s, train_y),
                                     ucr_rows_from_dataset(test_s, labels))
            out = tmp_path / f"{name}-out"
            assert run("evaluate", "--dataset", data, "--out", out,
                       "--smoothings", "1", "--windows", "2",
                       "--models", "knn,svm", *BASE_FLAGS) == 0
            rows[name] = read_rows(out / "results.csv")[1:]
        assert [float(r[5]) for r in rows["plain"]] == [1.0, 1.0]
        assert [float(r[5]) for r in rows["extra"]] == [0.75, 0.75]

    def test_no_feasible_point_names_the_reason(self, tmp_path, capsys):
        train_s, _ = sine_chirp_dataset(4, length=40, noise=0.02, seed=1)
        test_s, test_y = sine_chirp_dataset(2, length=40, noise=0.02, seed=2)
        # The inner fold that holds the one "b" row trains on "a" alone.
        data = write_ucr_dataset(tmp_path, "Tiny",
                                 ucr_rows_from_dataset(train_s,
                                                       ["a"] * 7 + ["b"]),
                                 ucr_rows_from_dataset(test_s, test_y))
        out = tmp_path / "out"
        assert run("evaluate", "--dataset", data, "--out", out,
                   "--smoothings", "1", "--windows", "1", "--models", "svm",
                   *BASE_FLAGS) == 1
        assert capsys.readouterr().err == (
            "error: no grid point was feasible for this data "
            "(svm(C=0.1,kernel=linear): need at least two classes)\n")
        assert not out.exists()

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


class TestConfigChecks:
    """Bad config values are an error line before any work starts."""

    @pytest.mark.parametrize("command, config, message", [
        ("evaluate", {"windows": 3}, "windows must be a list, got 3"),
        ("evaluate", {"models": 5}, "models must be a list, got 5"),
        ("evaluate", {"models": "knn"}, "models must be a list, got 'knn'"),
        ("ablate", {"masks": "position"}, "masks must be a list"),
        ("evaluate", {"jobs": None}, "jobs must be an integer, got None"),
        ("evaluate", {"min_samples": None}, "min_samples must be an integer"),
        ("evaluate", {"folds": "x"}, "folds must be an integer, got 'x'"),
        ("evaluate", {"folds": 2.5}, "folds must be an integer, got 2.5"),
        ("evaluate", {"repetitions": 1.5}, "repetitions must be an integer"),
        ("evaluate", {"seed": True}, "seed must be an integer, got True"),
        ("evaluate", {"dataset": 5}, "dataset must be a string, got 5"),
        ("dtw", {"band": "x"}, "band must be a number, got 'x'"),
        ("dtw", {"band": 1.5}, "band must be at most 1"),
        ("extract", {"smoothings": [1.7]},
         "each of smoothings must be an integer, got 1.7"),
        ("extract", {"windows": [0]}, "each of windows must be at least 1"),
        ("evaluate", {"seed": -1}, "seed must be at least 0"),
        ("evaluate", {"folds": 1}, "folds must be at least 2"),
        ("evaluate", {"format": "csv"}, "unknown format 'csv'"),
        ("evaluate", [1, 2], "a config file holds a JSON object"),
        ("evaluate", {"window": [1]}, "unknown fields ['window']"),
        ("extract", {"format": "ucr"}, "extract does not read fields ['format']"),
        ("dtw", {"format": "ucr"}, "dtw does not read fields ['format']"),
    ], ids=["windows-int", "models-int", "models-str", "masks-str",
            "jobs-null", "min-samples-null", "folds-str", "folds-float",
            "repetitions-float", "seed-bool", "dataset-int", "band-str",
            "band-above-1", "smoothing-float", "window-zero", "seed-negative",
            "folds-one", "format", "not-an-object", "unknown-field",
            "extract-format", "dtw-format"])
    def test_bad_config_is_error(self, tiny_dataset, tmp_path, capsys,
                                 command, config, message):
        if isinstance(config, dict):
            config = {"dataset": str(tiny_dataset), **config}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(command, "--config", path, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_syntax_error_names_the_file(self, tiny_dataset, tmp_path,
                                                capsys):
        path = tmp_path / "run.json"
        path.write_text("{\n")
        out = tmp_path / "out"
        assert run("evaluate", "--dataset", tiny_dataset, "--config", path,
                   "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: Expecting property name enclosed in double "
            f"quotes: line 2 column 1 (char 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("evaluate", "--models", "knn,knn"), "models repeats a value"),
        (("evaluate", "--windows", "1,1"), "windows repeats a value"),
        (("extract", "--windows", "1,2", "--smoothings", "1,1"),
         "smoothings repeats a value"),
        (("ablate", "--mask", "position", "--mask", "position"),
         "masks repeats a value"),
        (("evaluate", "--models", ""), "models must list at least one value"),
        (("extract", "--smoothings", ""),
         "smoothings must list at least one value"),
        (("evaluate", "--format", "vessel"),
         "evaluate does not support format 'vessel'"),
        (("ablate", "--format", "vessel", "--mask", "position"),
         "ablate does not support format 'vessel'"),
        (("windows", "--format", "vessel"),
         "windows does not support format 'vessel'"),
        (("nested", "--format", "ucr"), "nested does not support format 'ucr'"),
    ], ids=["models-twice", "windows-twice", "extract-cell-twice",
            "mask-twice", "no-models", "no-smoothings", "evaluate-vessel",
            "ablate-vessel", "windows-vessel", "nested-ucr"])
    def test_bad_flags_are_errors(self, tiny_dataset, tmp_path, capsys, argv,
                                  message):
        out = tmp_path / "out"
        assert run(*argv, "--dataset", tiny_dataset, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


# Each command's flags besides --config, --dataset and --out, and a flag
# and a config field it does not read. Only a command that reads two input
# formats offers --format.
COMMAND_FLAGS = {
    "extract": ("--jobs", "--smoothings", "--windows", "--min-samples"),
    "dtw": ("--band",),
    "evaluate": ("--format", "--seed", "--jobs", "--repetitions",
                 "--smoothings", "--windows", "--models", "--min-samples",
                 "--folds"),
    "windows": ("--format", "--seed", "--jobs", "--repetitions",
                "--smoothings", "--windows", "--models", "--min-samples",
                "--folds"),
    "ablate": ("--format", "--seed", "--jobs", "--repetitions", "--smoothings",
               "--windows", "--models", "--min-samples", "--folds", "--mask"),
    "nested": ("--format", "--seed", "--jobs", "--repetitions", "--models",
               "--folds", "--class-map"),
}
UNREAD = {
    "extract": (("--seed", "1"), {"folds": 3}),
    "dtw": (("--models", "svm"), {"seed": 0}),
    "evaluate": (("--band", "0.1"), {"class_map": "map.json"}),
    "windows": (("--mask", "position"), {"masks": ["position"]}),
    "ablate": (("--class-map", "map.json"), {"band": 0.1}),
    "nested": (("--windows", "2"), {"min_samples": 40}),
}


class TestCommandFlags:
    """Each command offers only the flags it reads."""

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_exactly_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as stop:
            run(command, "--help")
        assert stop.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed == {"--help", "--config", "--dataset", "--out",
                          *COMMAND_FLAGS[command]}

    # extract and dtw read only ucr input, so they offer no --format.
    @pytest.mark.parametrize("command, flag", [
        *((command, UNREAD[command][0]) for command in COMMAND_FLAGS),
        ("extract", ("--format", "features")), ("dtw", ("--format", "features")),
    ], ids=[*COMMAND_FLAGS, "extract-features", "dtw-features"])
    def test_unread_flag_exits_2(self, command, flag, tiny_dataset, tmp_path,
                                 capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            run(command, "--dataset", tiny_dataset, "--out", out, *flag)
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_unread_config_field_is_error(self, command, tiny_dataset,
                                          tmp_path, capsys):
        _, field = UNREAD[command]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"dataset": str(tiny_dataset), **field}))
        out = tmp_path / "out"
        assert run(command, "--config", path, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {command} does not read fields {sorted(field)}\n")
        assert not out.exists()


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
               "--smoothings", "1", "--windows", "2", *EXTRACT_FLAGS) == 0
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

    def test_windows_keeps_the_files_window_labels(self, feature_pair_dir,
                                                   tmp_path):
        # The same columns with windows labelled 1 and 2 instead of 0 and 1.
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "test"):
            fm = read_feature_csv(feature_pair_dir / f"features_{split}.csv")
            write_feature_csv(FeatureMatrix(
                fm.rows, [(d, w + 1, s) for d, w, s in fm.column_labels],
                fm.labels), data / f"features_{split}.csv")
        flags = ("--format", "features", "--models", "knn", "--folds", "4",
                 "--seed", "5")
        assert run("windows", "--dataset", feature_pair_dir,
                   "--out", tmp_path / "from-0", *flags) == 0
        assert run("windows", "--dataset", data,
                   "--out", tmp_path / "from-1", *flags) == 0
        want = read_rows(tmp_path / "from-0" / "window_accuracy.csv")
        got = read_rows(tmp_path / "from-1" / "window_accuracy.csv")
        assert [row[3] for row in got[1:]] == ["1", "2"]
        assert ([row[:3] + row[4:] for row in got]
                == [row[:3] + row[4:] for row in want])


class TestBadFeatureFiles:
    """A features file with no data row or no feature column, a malformed
    or repeated header column, a row of the wrong length, or a value that
    is not a finite number is an error line that names the file (and the
    line and column), before any fit or write."""

    @pytest.mark.parametrize("content, where", [
        ("", ": empty file, expected a header row"),
        ("position.0.mean,label\n", ": no data rows"),
        ("position.0.mean,label\n1.0,a\n2.0,3.0,b\n",
         ":3: expected 2 fields, got 3"),
        ("position.0.mean,label\n1.0,a\nb\n", ":3: expected 2 fields, got 1"),
        ("position.0.mean,position.0.std,label\n1.0,2.0,a\n1.0,x,b\n",
         ":3: column 'position.0.std' holds 'x', not a finite number"),
        ("position.0.mean,label\n1.0,a\nnan,b\n",
         ":3: column 'position.0.mean' holds 'nan', not a finite number"),
        ("position.0.mean,label\n-inf,a\n1.0,b\n",
         ":2: column 'position.0.mean' holds '-inf', not a finite number"),
        ("position.0.mean,mean,label\n1.0,2.0,a\n",
         ":1: column 'mean' is not distribution.window.statistic"),
        ("position.b.mean,label\n1.0,a\n",
         ":1: column 'position.b.mean' is not distribution.window.statistic"),
        ("label\na\nb\n", ":1: no feature column before 'label'"),
        ("position.0.mean,position.0.mean,label\n1.0,2.0,a\n",
         ":1: column 'position.0.mean' repeats an earlier column"),
    ], ids=["empty", "header-only", "long-row", "short-row", "non-numeric",
            "nan", "infinite", "column-without-dots", "non-integer-window",
            "label-only", "repeated-column"])
    @pytest.mark.parametrize("command, name", [
        ("evaluate", "features_train.csv"), ("nested", "features.csv")])
    def test_is_error(self, tmp_path, capsys, command, name, content, where):
        data = tmp_path / "data"
        data.mkdir()
        for file_name in (name, "features_test.csv"):
            (data / file_name).write_text(content)
        out = tmp_path / "out"
        assert run(command, "--dataset", data, "--format", "features",
                   "--out", out, "--models", "knn") == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {data / name}{where}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("test_header, where", [
        ("velocity.0.std", "column 1 is 'velocity.0.std', but in {train} "
                           "it is 'position.0.std'"),
        ("position.0.std,velocity.0.std",
         "column 2 is 'velocity.0.std', but in {train} it is missing"),
    ], ids=["renamed-column", "extra-column"])
    @pytest.mark.parametrize("command, extra", [
        ("evaluate", ()), ("ablate", ("--mask", "position")), ("windows", ())],
        ids=["evaluate", "ablate", "windows"])
    def test_test_columns_differing_from_train_is_error(
            self, tmp_path, capsys, monkeypatch, command, extra, test_header,
            where):
        def write(name, header):
            n_columns = header.count(",") + 1
            (data / name).write_text(f"{header},label\n" + "".join(
                f"{','.join([str(v)] * n_columns)},{v % 2}\n"
                for v in range(6)))
            return data / name

        data = tmp_path / "data"
        data.mkdir()
        train = write("features_train.csv", "position.0.std")
        write("features_test.csv", test_header)
        monkeypatch.setattr(cli, "_run_tasks",
                            lambda *args: pytest.fail("a fit started"))
        out = tmp_path / "out"
        assert run(command, "--dataset", data, "--format", "features",
                   "--out", out, "--models", "knn", *extra) == 1
        assert capsys.readouterr().err == (
            f"error: {data / 'features_test.csv'}: "
            f"{where.format(train=train)}\n")
        assert not out.exists()


def command_flags(command, tiny_dataset, feature_dir, tmp_path):
    """Flags of a small run of extract and each model-fitting command."""
    if command == "extract":
        return ("extract", "--dataset", tiny_dataset, "--smoothings", "0,1,2",
                "--windows", "1,2,4", *EXTRACT_FLAGS)
    if command == "evaluate-smoothings":
        return (*command_flags("evaluate", tiny_dataset, feature_dir, tmp_path),
                "--smoothings", "1,2")
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
    @pytest.mark.parametrize("command", ["extract"] + FITTING_COMMANDS)
    def test_two_workers_write_the_same_files(self, tiny_dataset, feature_dir,
                                              tmp_path, command):
        flags = command_flags(command, tiny_dataset, feature_dir, tmp_path)
        if command != "extract":
            flags += ("--models", "knn,svm", "--repetitions", "2")
        for jobs in (1, 2):
            assert run(*flags, "--jobs", jobs,
                       "--out", tmp_path / str(jobs)) == 0
        names = sorted(os.listdir(tmp_path / "1"))
        assert names and names == sorted(os.listdir(tmp_path / "2"))
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

    @pytest.mark.parametrize("command, pools", [
        ("evaluate", 1), ("ablate", 1), ("windows", 1),
        ("nested-class-map", 1), ("extract", 1)])
    def test_one_pool_per_stage(self, tiny_dataset, feature_dir, tmp_path,
                                monkeypatch, command, pools):
        # The two smoothings are featurized in-process; one pool runs every
        # model fit, or every file write of extract.
        sizes = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        flags = command_flags(command, tiny_dataset, feature_dir, tmp_path)
        if command != "nested-class-map":
            flags += ("--smoothings", "1,2")
        if command != "extract":
            flags += ("--models", "knn,svm")
        assert run(*flags, "--jobs", 2, "--out", tmp_path / "out") == 0
        assert len(sizes) == pools
        assert set(sizes) == {2}

    @pytest.mark.parametrize("command, sizes", [
        ("evaluate", [4]), ("nested", [2]), ("extract", [8]),
        ("evaluate-smoothings", [8])])
    def test_no_more_workers_than_tasks(self, tiny_dataset, feature_dir,
                                        tmp_path, monkeypatch, command, sizes):
        # A fit per cell and model: evaluate has 2 cells of 1 smoothing,
        # evaluate-smoothings 4 cells of 2. extract writes 18 files.
        recorded = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            functools.partial(RecordingPool, recorded))
        flags = command_flags(command, tiny_dataset, feature_dir, tmp_path)
        if command != "extract":
            flags += ("--models", "knn,svm")
        assert run(*flags, "--jobs", 8, "--out", tmp_path / "out") == 0
        assert recorded == sizes

    @pytest.mark.parametrize("command, worker", [
        ("extract", "_write_task"), ("evaluate", "_evaluate_task"),
        ("ablate", "_evaluate_task"), ("windows", "_evaluate_task"),
        ("nested", "_nested_task"), ("nested-class-map", "_nested_task")])
    def test_pool_tasks_never_featurize(self, tiny_dataset, feature_dir,
                                        tmp_path, monkeypatch, command,
                                        worker):
        # Each command hands one kind of task to the pool, and featurizing
        # is never one of them.
        recorded = []
        run_tasks = cli._run_tasks

        def recording(worker, tasks, jobs):
            recorded.append(worker.__name__)
            return run_tasks(worker, tasks, jobs)

        monkeypatch.setattr(cli, "_run_tasks", recording)
        flags = command_flags(command, tiny_dataset, feature_dir, tmp_path)
        if not command.startswith("nested"):
            flags += ("--smoothings", "1,2")
        assert run(*flags, "--out", tmp_path / "out") == 0
        assert recorded == [worker]


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

    def test_class_map_syntax_error_names_the_file(self, feature_dir,
                                                   tmp_path, capsys):
        class_map = tmp_path / "map.json"
        class_map.write_text("{\n")
        out = tmp_path / "out"
        assert run("nested", "--dataset", feature_dir, "--format", "features",
                   "--out", out, "--models", "knn", "--folds", "5",
                   "--class-map", class_map) == 1
        assert capsys.readouterr().err == (
            f"error: {class_map}: Expecting property name enclosed in double "
            f"quotes: line 2 column 1 (char 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, names", [
        ("nested", ("features.csv",)),
        ("evaluate", ("features_train.csv", "features_test.csv"))])
    def test_one_class_is_error(self, tmp_path, capsys, command, names):
        x, _ = make_blobs(6, [0.0, 3.0], seed=3)
        cols = tuple(("position", 0, f"s{i}") for i in range(x.shape[1]))
        data = tmp_path / "data"
        data.mkdir()
        for name in names:
            write_feature_csv(FeatureMatrix(x, cols, ["a"] * len(x)),
                              data / name)
        out = tmp_path / "out"
        assert run(command, "--dataset", data, "--format", "features",
                   "--out", out, "--models", "knn", "--folds", "3") == 1
        assert capsys.readouterr().err == (
            "error: every training row has class 'a'; need at least two "
            "classes\n")
        assert not out.exists()

    def test_class_map_to_one_class_is_error(self, feature_dir, tmp_path,
                                             capsys):
        class_map = tmp_path / "map.json"
        class_map.write_text(json.dumps({"0": "yes", "1": "yes"}))
        out = tmp_path / "out"
        assert run("nested", "--dataset", feature_dir, "--format", "features",
                   "--out", out, "--models", "knn", "--folds", "5",
                   "--class-map", class_map) == 1
        assert capsys.readouterr().err == (
            "error: class map leaves the binary task the classes ['yes']; "
            "it needs two\n")
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


class TestFormatDefault:
    def test_nested_reads_vessels_without_format(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "mixed.csv").write_text("\n".join(vessel_lines()) + "\n")
        flags = ("--dataset", data, "--models", "knn", "--folds", "5",
                 "--seed", "4")
        assert run("nested", "--format", "vessel", "--out", tmp_path / "given",
                   *flags) == 0
        given = capsys.readouterr()
        assert run("nested", "--out", tmp_path / "default", *flags) == 0
        default = capsys.readouterr()
        assert default.err == given.err
        names = sorted(os.listdir(tmp_path / "given"))
        assert names == sorted(os.listdir(tmp_path / "default"))
        for name in names:
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "given" / name).read_bytes())


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

    def test_negative_speed_row_is_skipped(self, tmp_path, capsys):
        lines = vessel_lines()
        fields = lines[5].split(",")
        fields[4] = "-1.0"
        assert run_vessel_nested(tmp_path, lines[:5] + lines[6:], "clean") == 0
        assert run_vessel_nested(tmp_path, lines[:5] + [",".join(fields)]
                                 + lines[6:], "negative") == 0
        assert capsys.readouterr().err == ""
        names = sorted(os.listdir(tmp_path / "clean"))
        assert names == sorted(os.listdir(tmp_path / "negative"))
        for name in names:
            assert ((tmp_path / "negative" / name).read_bytes()
                    == (tmp_path / "clean" / name).read_bytes())

    @pytest.mark.parametrize("lat", ["95.0", "-90.5"])
    def test_latitude_out_of_range_row_is_skipped(self, tmp_path, capsys, lat):
        lines = vessel_lines()
        fields = lines[5].split(",")
        fields[2] = lat
        assert run_vessel_nested(tmp_path, lines[:5] + lines[6:], "clean") == 0
        assert run_vessel_nested(tmp_path, lines[:5] + [",".join(fields)]
                                 + lines[6:], "polar") == 0
        assert capsys.readouterr().err == ""
        names = sorted(os.listdir(tmp_path / "clean"))
        assert names == sorted(os.listdir(tmp_path / "polar"))
        for name in names:
            assert ((tmp_path / "polar" / name).read_bytes()
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
        monkeypatch.setattr(classify, "_step_cap", lambda n: 1)
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
        monkeypatch.setattr(classify, "_step_cap", lambda n: 1)
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


    @pytest.mark.parametrize("command, where", [
        ("ablate", ["svm 1W 1S run 0", "svm 1W 1S mask 'position' run 0",
                    "svm 1W 1S mask 'stat:low_quantiles' run 0",
                    "svm 2W 1S run 0", "svm 2W 1S mask 'position' run 0",
                    "svm 2W 1S mask 'stat:low_quantiles' run 0"]),
        ("windows", ["svm 1W 1S window 0 run 0", "svm 2W 1S window 0 run 0",
                     "svm 2W 1S window 1 run 0"]),
    ])
    def test_ablate_and_windows_report_capped_refits(
            self, tiny_dataset, feature_dir, tmp_path, monkeypatch, capsys,
            command, where):
        flags = command_flags(command, tiny_dataset, feature_dir, tmp_path)
        assert run(*flags, "--models", "svm", "--out", tmp_path / "plain") == 0
        assert "note:" not in capsys.readouterr().err
        monkeypatch.setattr(classify, "_step_cap", lambda n: 1)
        out = tmp_path / "capped"
        assert run(*flags, "--models", "svm", "--out", out) == 0
        notes = capsys.readouterr().err.splitlines()
        assert all(line.startswith("note: ") and
                   line.endswith("hit the iteration cap") for line in notes)
        # Every refit is capped; entries report in grid, mask or window order.
        assert list(dict.fromkeys(
            line[len("note: "):].split(": pair")[0] for line in notes)) == where
        for name in os.listdir(out):
            assert "note" not in (out / name).read_text()


class TestUniformSplits:
    """An equal-length archive split is resampled as one array, as
    resample_uniform resamples each series."""

    @pytest.fixture
    def write(self, tmp_path):
        def write(rows, name="D"):
            return write_ucr_dataset(tmp_path / name, name, rows, rows[:2])
        return write

    @staticmethod
    def one_by_one(dataset, min_samples):
        ds = ingest.load_ucr(dataset)
        return [series.resample_uniform(ingest.series_to_time_series(v),
                                        min_samples)
                for v in ds.train_series + ds.test_series]

    @pytest.mark.parametrize("min_samples", [3, 40, 97])
    def test_matches_resampling_each_series(self, tiny_dataset, min_samples):
        cfg = cli.RunConfig(dataset=str(tiny_dataset), min_samples=min_samples)
        step, train, train_y, test, test_y = cli._load_uniform_splits(cfg)
        want = self.one_by_one(tiny_dataset, min_samples)
        assert train.shape[1] + test.shape[1] == len(want)
        for got, us in zip(np.hstack([train, test]).T, want):
            assert us.step == step
            assert got.tobytes() == us.values[:, 0].tobytes()
        assert (train_y, test_y) == (["sine", "chirp"] * 8, ["sine", "chirp"] * 4)

    def test_unequal_lengths_are_equalized(self, write):
        rng = np.random.default_rng(0)
        rows = [(str(i % 2), rng.normal(size=n))
                for i, n in enumerate([30, 45, 38, 52])]
        dataset = write(rows)
        step, train, _, test, _ = cli._load_uniform_splits(
            cli.RunConfig(dataset=str(dataset), min_samples=40))
        ds = ingest.load_ucr(dataset)
        want = series.equalize_lengths(
            [ingest.series_to_time_series(v)
             for v in ds.train_series + ds.test_series], 40)
        for got, us in zip(np.hstack([train, test]).T, want):
            assert us.step == step
            assert got.tobytes() == us.values[:, 0].tobytes()

    @pytest.mark.parametrize("rows, min_samples", [
        ([("1", [0.5, 1.0, 2.0]), ("2", [1.0, 0.0, 1.0])], 2),
        ([("1", [1e308, -1e308, 1e308]), ("2", [1.0, 0.0, 1.0])], 5),
    ], ids=["min-samples", "overflow"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_errors_match_resampling_each_series(self, write, rows,
                                                 min_samples):
        dataset = write(rows)
        with pytest.raises(ValueError) as want:
            self.one_by_one(dataset, min_samples)
        # RunConfig itself rejects min_samples 2, so the loader gets the
        # two fields it reads.
        with pytest.raises(ValueError) as got:
            cli._load_uniform_splits(types.SimpleNamespace(
                dataset=str(dataset), min_samples=min_samples))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("train, test, where", [
        ([[0.5], [1.0]], [[0.5], [2.0]], "train row 1"),
        ([[0.5, 1.0, 2.0], [1.0, 0.0, 1.0, 3.0]], [[2.0, 1.0], [4.0]],
         "test row 2"),
    ], ids=["equal", "unequal"])
    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    def test_one_value_series_is_error(self, tmp_path, capsys, command,
                                       train, test, where):
        dataset = write_ucr_dataset(
            tmp_path / "D", "D", [("1", train[0]), ("2", train[1])],
            [("1", test[0]), ("2", test[1])])
        out = tmp_path / "out"
        assert run(command, "--dataset", dataset, "--out", out,
                   "--min-samples", "5") == 1
        assert capsys.readouterr().err == (
            f"error: {where}: a series needs at least 2 values to "
            f"featurize, got 1\n")
        assert not out.exists()
        # The warping baseline needs no derivatives, so it reads them.
        assert run("dtw", "--dataset", dataset, "--out", out) == 0


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

    @pytest.mark.parametrize("spec", [",", "", " , "])
    def test_mask_naming_nothing_is_error(self, tiny_dataset, tmp_path,
                                          capsys, spec):
        with pytest.raises(ValueError, match="names nothing"):
            parse_mask(spec)
        out = tmp_path / "o"
        assert run("ablate", "--dataset", tiny_dataset, "--out", out,
                   "--smoothings", "1", "--windows", "1", "--models", "knn",
                   *BASE_FLAGS, "--mask", spec) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: mask {spec!r} names nothing\n"
        assert captured.out == ""
        assert not out.exists()

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
        rc = run("dtw", "--dataset", tiny_dataset, "--out", out)
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
