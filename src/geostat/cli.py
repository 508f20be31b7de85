"""Command-line front end: extraction, evaluation, ablation, and reports.

Subcommands
-----------
extract    write feature CSVs for every (windows, smoothings) grid cell
evaluate   cross-validated model selection on train, scoring on test
nested     nested cross-validation workflow (vessel or feature input)
ablate     re-evaluate under ablation masks, report percent changes
windows    evaluate each window's column slice independently
dtw        nearest-neighbor baseline under the warping distance

Every run is driven by a JSON config file and/or flags of the same names;
flags win. A command offers only the flags, and its file may hold only the
fields, that it reads (``COMMANDS``): only a command that reads two input
formats offers ``--format``, and each defaults to the first format it
reads. All randomness derives from ``--seed``, and result files are written
atomically, so reruns with the same seed are byte-identical even with
``--jobs`` greater than one.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

# classify and dtw are imported by the functions that use them, so that
# extract, which needs neither, does not pay for loading them.
from . import features, ingest, series
from .features import AblationMask, FeatureMatrix

__all__ = ["main", "RunConfig"]

MODEL_CHOICES = ("knn", "svm")
FORMATS = ("ucr", "vessel", "features")
_KIND_NAMES = {str: "a string", int: "an integer", (int, float): "a number",
               (list, tuple): "a list"}


def _check(name: str, value, kind, least=None) -> None:
    """Raise ``ValueError`` unless ``value`` is a ``kind`` (a bool is not a
    number) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")


@dataclass(frozen=True)
class RunConfig:
    """One experiment manifest. JSON-file fields and flags share names.

    Each field is checked for its type and range on construction, so a bad
    config value is a ``ValueError`` before any work starts. The lists must
    not repeat a value, and only ``masks`` may be empty.
    """

    dataset: str = ""
    format: str = "ucr"  # ucr | vessel | features
    out: str = "results"
    seed: int = 0
    jobs: int = 1
    repetitions: int = 1
    smoothings: tuple = (0, 1, 2)
    windows: tuple = (1, 2, 4, 6)
    models: tuple = MODEL_CHOICES
    min_samples: int = 500
    folds: int = 10
    masks: tuple = ()
    class_map: str = ""
    band: float = -1.0  # warping band fraction; negative = unconstrained

    def __post_init__(self):
        for name in ("dataset", "format", "out", "class_map"):
            _check(name, getattr(self, name), str)
        for name, least in (("seed", 0), ("jobs", 1), ("repetitions", 1),
                            ("min_samples", 3), ("folds", 2)):
            _check(name, getattr(self, name), int, least)
        _check("band", self.band, (int, float))
        if not self.band <= 1.0:
            raise ValueError(f"band must be at most 1, got {self.band!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        for name, kind, least in (("smoothings", int, 0), ("windows", int, 1),
                                  ("models", str, None), ("masks", str, None)):
            values = getattr(self, name)
            _check(name, values, (list, tuple))
            for value in values:
                _check(f"each of {name}", value, kind, least)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
            if not values and name != "masks":
                raise ValueError(f"{name} must list at least one value")
            object.__setattr__(self, name, tuple(values))
        for m in self.models:
            if m not in MODEL_CHOICES:
                raise ValueError(f"unknown model {m!r}")

    @property
    def grid_cells(self) -> list:
        return [(w, s) for w in self.windows for s in self.smoothings]


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    """Write rows atomically so failures never leave partial result files."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _print_notes(where: str, notes) -> None:
    """Report warnings of a run or refit on stderr; result files omit them."""
    for note in notes:
        print(f"note: {where}: {note}", file=sys.stderr)


def _print_run_notes(where: str, runs) -> None:
    """Notes of the ``(accuracy, notes)`` results of an entry's runs."""
    for run, (_, notes) in enumerate(runs):
        _print_notes(f"{where} run {run}", notes)


def _run_tasks(worker, tasks, jobs: int) -> list:
    """Run tasks (picklable argument tuples) and return results in task order.

    A pool never has more workers than tasks: it starts them all at once.
    """
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [worker(t) for t in tasks]
    # Imported here: importing the pool costs every command 10-20 ms.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _group(keys, results) -> dict:
    """Results listed per key, keys in the order they first occur."""
    out = {}
    for key, result in zip(keys, results):
        out.setdefault(key, []).append(result)
    return out


def _spread(values) -> list:
    """Formatted min, max, mean and std of a list of accuracies."""
    return [_fmt(min(values)), _fmt(max(values)), _fmt(float(np.mean(values))),
            _fmt(float(np.std(values)))]


# ---------------------------------------------------------------------------
# dataset loading and extraction
# ---------------------------------------------------------------------------

def _load_uniform_splits(cfg: RunConfig):
    """Load an archive dataset as uniform series sharing one step.

    Returns ``(step, train values, train labels, test values, test
    labels)``, each split's values one (samples x series) array. A series
    of fewer than 2 values is an error that names its split and its
    1-based row in that split.
    """
    ds = ingest.load_ucr(cfg.dataset)
    for split, split_series in (("train", ds.train_series),
                                ("test", ds.test_series)):
        for row, values in enumerate(split_series, start=1):
            if len(values) < 2:
                raise ValueError(f"{split} row {row}: a series needs at "
                                 f"least 2 values to featurize, got 1")
    raw = ds.train_series + ds.test_series
    if ds.equal_length:
        # One series with a coordinate per input series: one grid and one
        # interpolation resample them all, as resample_uniform does each.
        n = len(raw[0])
        uniform = series.resample_uniform(
            series.TimeSeries(np.arange(n, dtype=float), np.column_stack(raw)),
            cfg.min_samples)
        step, values = uniform.step, uniform.values
    else:
        uniform = series.equalize_lengths(
            [ingest.series_to_time_series(v) for v in raw], cfg.min_samples)
        step = uniform[0].step
        values = np.column_stack([us.values[:, 0] for us in uniform])
    n_train = len(ds.train_series)
    return (step, values[:, :n_train], list(ds.train_labels),
            values[:, n_train:], list(ds.test_labels))


def _extract_cell(args):
    """Train and test matrices of the grid cells of one smoothing, one pair
    per window count, from one signal pass over each split. ``args`` ends
    with the smoothing and the window counts."""
    step, train_values, train_labels, test_values, test_labels, *grid = args
    train = features.univariate_grid(train_values, step, train_labels, *grid)
    test = features.univariate_grid(test_values, step, test_labels, *grid)
    return list(zip(train, test))


def _extract_grid(cfg: RunConfig):
    """Feature matrices for every grid cell, keyed by (windows, smoothings)."""
    splits = _load_uniform_splits(cfg)
    tasks = [(*splits, s, cfg.windows) for s in cfg.smoothings]
    results = _run_tasks(_extract_cell, tasks, cfg.jobs)
    return {(w, s): pair for s, cell_pairs in zip(cfg.smoothings, results)
            for w, pair in zip(cfg.windows, cell_pairs)}


def _read_features(path) -> FeatureMatrix:
    """A features file that has at least one feature column."""
    fm = features.read_feature_csv(path)
    if not fm.n_columns:
        raise ValueError(f"{path}:1: no feature column before 'label'")
    return fm


def _load_feature_pair(cfg: RunConfig):
    """Read pre-extracted train/test matrices (``features`` input format).

    Test columns that differ from the train columns are an error that names
    both files and the first column that differs.
    """
    base = cfg.dataset
    train_path = os.path.join(base, "features_train.csv")
    test_path = os.path.join(base, "features_test.csv")
    if not os.path.exists(train_path) or not os.path.exists(test_path):
        raise FileNotFoundError(
            f"expected features_train.csv and features_test.csv under {base}")
    train, test = _read_features(train_path), _read_features(test_path)
    for i, (a, b) in enumerate(itertools.zip_longest(
            train.column_labels, test.column_labels), start=1):
        if a != b:
            raise ValueError(f"{test_path}: column {i} is {_column_name(b)}, "
                             f"but in {train_path} it is {_column_name(a)}")
    return train, test


def _column_name(label) -> str:
    """A column label as a header names it, or ``missing`` for None."""
    return "missing" if label is None else repr("%s.%d.%s" % label)


def _feature_grid(cfg: RunConfig):
    """The run's config and its feature matrices keyed by grid cell.

    Pre-extracted input carries one feature representation, so the grid
    collapses to one cell: its window count is the file's, and its
    smoothing the first of ``cfg.smoothings``.
    """
    if cfg.format != "features":
        return cfg, _extract_grid(cfg)
    pair = _load_feature_pair(cfg)
    cfg = replace(cfg, windows=(len(pair[0].windows),),
                  smoothings=cfg.smoothings[:1])
    return cfg, {cfg.grid_cells[0]: pair}


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def cmd_extract(cfg: RunConfig) -> int:
    grid = _extract_grid(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    for (w, s), (train_fm, test_fm) in grid.items():
        features.write_feature_csv(
            train_fm, os.path.join(cfg.out, f"features_train_{w}W_{s}S.csv"))
        features.write_feature_csv(
            test_fm, os.path.join(cfg.out, f"features_test_{w}W_{s}S.csv"))
    print(f"wrote {2 * len(grid)} feature files to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _evaluate_task(args):
    """One (entry, model, run): select on train folds, refit, score test,
    through ``classify.holdout_cv``.

    ``columns`` lists the column indices the entry keeps, or is None for all.
    """
    from . import classify
    train_fm, test_fm, columns, model, folds, seed_entropy = args
    if columns is not None:
        train_fm = features.select_columns(train_fm, columns)
        test_fm = features.select_columns(test_fm, columns)
    train_n, (test_n,), _, _ = features.z_normalize(train_fm, [test_fm])
    acc, _, notes = classify.holdout_cv(
        train_n.rows, train_n.labels, test_n.rows, test_n.labels,
        classify.default_grid(model), folds,
        np.random.SeedSequence(list(seed_entropy)))
    return acc, notes


def _evaluate_matrices(cfg: RunConfig, entries) -> dict:
    """Accuracy and notes of every (entry, model, run), as one task list.

    Entries are ``(key, cell index, train matrix, test matrix, columns)``;
    the cell index seeds the entry's runs. Tasks share their cell's
    matrices. Returns run-ordered lists keyed by ``(key, model)``, in entry
    and then model order.
    """
    tasks = []
    keys = []
    for key, ci, train_fm, test_fm, columns in entries:
        for mi, model in enumerate(cfg.models):
            for run in range(cfg.repetitions):
                tasks.append((train_fm, test_fm, columns, model, cfg.folds,
                              [int(cfg.seed), ci, mi, run]))
                keys.append((key, model))
    return _group(keys, _run_tasks(_evaluate_task, tasks, cfg.jobs))


def cmd_evaluate(cfg: RunConfig) -> int:
    cfg, grid = _feature_grid(cfg)
    results = _evaluate_matrices(cfg, [
        (cell, ci, *grid[cell], None) for ci, cell in enumerate(cfg.grid_cells)])

    rows = []
    summary = []
    for ((w, s), model), runs in results.items():
        _print_run_notes(f"{model} {w}W {s}S", runs)
        accs = [acc for acc, _ in runs]
        rows += [[model, w, s, run, "", _fmt(acc)]
                 for run, acc in enumerate(accs)]
        summary.append([f"{model.upper()}_{w}W_{s}S"] + _spread(accs))
    _write_csv(os.path.join(cfg.out, "results.csv"),
               ["model", "windows", "smoothings", "run", "fold", "accuracy"],
               rows)
    _write_csv(os.path.join(cfg.out, "summary.csv"),
               ["model", "min", "max", "mean", "std"], summary)
    print(f"wrote results for {len(rows)} runs to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# nested
# ---------------------------------------------------------------------------

def _nested_feature_matrix(cfg: RunConfig) -> FeatureMatrix:
    if cfg.format == "vessel":
        tracks = ingest.filter_labels(ingest.load_vessels(cfg.dataset))
        if not tracks:
            raise ValueError("no usable labeled tracks after filtering")
        return ingest.vessel_feature_matrix(tracks)
    path = cfg.dataset
    if os.path.isdir(path):
        path = os.path.join(path, "features.csv")
    return _read_features(path)


def _nested_task(args):
    from . import classify
    (rows, col_labels, labels, model, folds, seed_entropy) = args
    fm = FeatureMatrix(rows, col_labels, labels)
    normed, _, _, _ = features.z_normalize(fm)
    seed = np.random.SeedSequence(list(seed_entropy))
    grid = classify.default_grid(model)
    # Warnings, such as an unstratified outer split, become notes.
    with warnings.catch_warnings(record=True) as caught:
        report = classify.nested_cv(normed.rows, normed.labels, grid,
                                    outer_k=folds, inner_k=folds, seed=seed)
    return (report.fold_accuracies,
            tuple(p.tag() for p in report.chosen_params),
            report.classes, report.confusion, report.notes,
            tuple(str(w.message) for w in caught))


def _run_nested(cfg: RunConfig, fm: FeatureMatrix, label_sets) -> None:
    """Nested CV of every (label set, model, iteration) as one task list.

    ``label_sets`` pairs a file-name suffix with the row labels it scores.
    """
    tasks = []
    keys = []
    for suffix, labels in label_sets:
        for mi, model in enumerate(cfg.models):
            for it in range(cfg.repetitions):
                tasks.append((fm.rows, fm.column_labels, labels, model,
                              cfg.folds, [int(cfg.seed), mi, it]))
                keys.append((suffix, model))
    results = _group(keys, _run_tasks(_nested_task, tasks, cfg.jobs))

    fold_rows = {suffix: [] for suffix, _ in label_sets}
    summary_rows = {suffix: [] for suffix, _ in label_sets}
    for (suffix, model), runs in results.items():
        iteration_means = []
        for it, (accs, tags, _, _, notes, warned) in enumerate(runs):
            _print_notes(f"{model}{suffix} iteration {it}", warned)
            for f, fold_notes in enumerate(notes):
                _print_notes(f"{model}{suffix} iteration {it} fold {f}",
                             fold_notes)
            iteration_means.append(float(np.mean(accs)))
            fold_rows[suffix] += [[model, it, f, _fmt(acc), tag]
                                  for f, (acc, tag) in enumerate(zip(accs, tags))]
        summary_rows[suffix].append([model.upper()] + _spread(iteration_means))
        # Confusion matrix of the first iteration, pooled over outer folds.
        classes, confusion = runs[0][2], runs[0][3]
        conf_rows = [[c] + [int(v) for v in row]
                     for c, row in zip(classes, confusion)]
        _write_csv(os.path.join(cfg.out, f"confusion_{model}{suffix}.csv"),
                   ["class"] + list(classes), conf_rows)

    for suffix, _ in label_sets:
        _write_csv(os.path.join(cfg.out, f"nested_folds{suffix}.csv"),
                   ["model", "iteration", "fold", "accuracy", "params"],
                   fold_rows[suffix])
        _write_csv(os.path.join(cfg.out, f"nested_summary{suffix}.csv"),
                   ["model", "min", "max", "mean", "std"], summary_rows[suffix])


def cmd_nested(cfg: RunConfig) -> int:
    if cfg.class_map:
        class_map = _load_json(cfg.class_map)
    fm = _nested_feature_matrix(cfg)
    label_sets = [("", fm.labels)]
    if cfg.class_map:
        label_sets.append(
            ("_binary", ingest.binary_fishing_labels(fm.labels, class_map)))
    _run_nested(cfg, fm, label_sets)
    print(f"wrote nested cross-validation reports to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def parse_mask(spec: str) -> AblationMask:
    """Parse ``dist:NAME`` / ``stat:NAME`` tokens (bare names mean ``dist:``).

    A spec that names nothing is a ``ValueError``.
    """
    dists = set()
    stats = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("stat:"):
            stats.add(token[5:])
        elif token.startswith("dist:"):
            dists.add(token[5:])
        else:
            dists.add(token)
    if not dists and not stats:
        raise ValueError(f"mask {spec!r} names nothing")
    return AblationMask(frozenset(dists), frozenset(stats))


def cmd_ablate(cfg: RunConfig) -> int:
    if not cfg.masks:
        raise ValueError("ablate requires at least one --mask")
    masks = [parse_mask(spec) for spec in cfg.masks]
    cfg, grid = _feature_grid(cfg)
    # Every entry of a cell shares its matrices; a mask is column indices.
    entries = []
    for ci, cell in enumerate(cfg.grid_cells):
        train_fm, test_fm = grid[cell]
        entries.append(((cell, None), ci, train_fm, test_fm, None))
        entries += [((cell, i), ci, train_fm, test_fm,
                     features.mask_columns(train_fm, mask))
                    for i, mask in enumerate(masks)]
    means = {}
    for ((cell, mask), model), runs in _evaluate_matrices(cfg, entries).items():
        w, s = cell
        where = "" if mask is None else f" mask {cfg.masks[mask]!r}"
        _print_run_notes(f"{model} {w}W {s}S{where}", runs)
        means[(cell, mask), model] = float(np.mean([acc for acc, _ in runs]))
    rows = []
    for i, mask_spec in enumerate(cfg.masks):
        for cell in cfg.grid_cells:
            for model in cfg.models:
                base = means[(cell, None), model]
                after = means[(cell, i), model]
                change = 100.0 * (after - base) / base if base > 0 else 0.0
                rows.append([model, *cell, mask_spec, _fmt(base), _fmt(after),
                             _fmt(change)])
    _write_csv(os.path.join(cfg.out, "ablation.csv"),
               ["model", "windows", "smoothings", "mask", "baseline_mean",
                "masked_mean", "percent_change"], rows)
    print(f"wrote ablation table ({len(rows)} rows) to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def cmd_windows(cfg: RunConfig) -> int:
    cfg, grid = _feature_grid(cfg)
    # Each window slice is seeded as the only cell of its own run (index 0).
    # Windows are named by their labels, which in a features file need not
    # run from 0.
    entries = []
    for cell in cfg.grid_cells:
        train_fm, test_fm = grid[cell]
        entries += [((cell, window), 0, train_fm, test_fm,
                     features.window_columns(train_fm, window))
                    for window in train_fm.windows]
    rows = []
    results = _evaluate_matrices(cfg, entries)
    for (((w, s), window), model), runs in results.items():
        _print_run_notes(f"{model} {w}W {s}S window {window}", runs)
        accs = [acc for acc, _ in runs]
        rows.append([model, w, s, window, _fmt(float(np.mean(accs))),
                     _fmt(float(np.std(accs)))])
    _write_csv(os.path.join(cfg.out, "window_accuracy.csv"),
               ["model", "windows", "smoothings", "window", "mean", "std"],
               rows)
    print(f"wrote per-window accuracies to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# dtw
# ---------------------------------------------------------------------------

def cmd_dtw(cfg: RunConfig) -> int:
    from . import dtw
    ds = ingest.load_ucr(cfg.dataset)
    band = None if cfg.band < 0 else cfg.band
    dtw_cfg = dtw.DTWConfig(band_fraction=band)
    pred = dtw.nn_dtw_classify(ds.train_series, ds.train_labels,
                               ds.test_series, dtw_cfg)
    acc = float(np.mean(pred == np.array(ds.test_labels, dtype=object)))
    _write_csv(os.path.join(cfg.out, "dtw_results.csv"),
               ["dataset", "band", "accuracy"],
               [[ds.name, "" if band is None else _fmt(band), _fmt(acc)]])
    print(f"1NN warping baseline accuracy on {ds.name}: {acc:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _str_list(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# The flag and argparse keywords of each RunConfig field, in help order.
FLAGS = {
    "dataset": ("--dataset", {"help": "dataset path"}),
    "format": ("--format", {"choices": FORMATS}),
    "out": ("--out", {"help": "output directory"}),
    "seed": ("--seed", {"type": int}),
    "jobs": ("--jobs", {"type": int}),
    "repetitions": ("--repetitions", {"type": int}),
    "smoothings": ("--smoothings", {
        "type": _int_list, "help": "comma-separated smoothing iteration counts"}),
    "windows": ("--windows", {
        "type": _int_list, "help": "comma-separated window counts"}),
    "models": ("--models", {
        "type": _str_list, "help": "comma-separated subset of: knn,svm"}),
    "min_samples": ("--min-samples", {"type": int}),
    "folds": ("--folds", {"type": int}),
    "masks": ("--mask", {
        "action": "append",
        "help": "ablation mask, e.g. 'position,stat:low_quantiles'"}),
    "class_map": ("--class-map", {
        "help": "JSON file mapping class labels to binary-task labels"}),
    "band": ("--band", {
        "type": float, "help": "warping band fraction; omit for unconstrained"}),
}

# Every command reads these fields.
SHARED_FIELDS = ("dataset", "out")
_EVALUATE_FIELDS = ("format", "seed", "jobs", "repetitions", "smoothings",
                    "windows", "models", "min_samples", "folds")

# Each command, the input formats it reads (the first is its default), and
# the fields it reads besides the shared ones: its flags and the fields its
# config file may hold. Only a command with a choice of format reads
# ``format``.
COMMANDS = {
    "extract": (cmd_extract, ("ucr",),
                ("jobs", "smoothings", "windows", "min_samples")),
    "evaluate": (cmd_evaluate, ("ucr", "features"), _EVALUATE_FIELDS),
    "nested": (cmd_nested, ("vessel", "features"), (
        "format", "seed", "jobs", "repetitions", "models", "folds", "class_map")),
    "ablate": (cmd_ablate, ("ucr", "features"), _EVALUATE_FIELDS + ("masks",)),
    "windows": (cmd_windows, ("ucr", "features"), _EVALUATE_FIELDS),
    "dtw": (cmd_dtw, ("ucr",), ("band",)),
}


def _command_parser(sub, name: str) -> None:
    """The subcommand's parser: ``--config`` and the flags of its fields."""
    p = sub.add_parser(name)
    p.add_argument("--config", help="JSON config file; flags override its fields")
    read = SHARED_FIELDS + COMMANDS[name][2]
    for field_name, (flag, kwargs) in FLAGS.items():
        if field_name in read:
            p.add_argument(flag, dest=field_name, **kwargs)


def _load_json(path):
    """The JSON value a file holds; a syntax error names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """The run's config: the command's first format, then the ``--config``
    file's fields, then the flags.

    A file field is an error unless the command reads it.
    """
    read = SHARED_FIELDS + COMMANDS[args.command][2]
    file_values = {}
    if args.config:
        file_values = _load_json(args.config)
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: a config file holds a JSON object")
        unknown = set(file_values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"{args.config}: unknown fields {sorted(unknown)}")
        unread = set(file_values) - set(read)
        if unread:
            raise ValueError(f"{args.config}: {args.command} does not read "
                             f"fields {sorted(unread)}")
    values = {"format": COMMANDS[args.command][1][0], **file_values}
    for name in read:
        cli_value = getattr(args, name)
        if cli_value is not None:
            values[name] = cli_value
    if not values.get("dataset"):
        raise ValueError("a dataset path is required (--dataset or config file)")
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geostat",
        description="Geometric-statistics time series classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _command_parser(sub, name)
    args = parser.parse_args(argv)
    command, formats, _ = COMMANDS[args.command]
    try:
        cfg = build_config(args)
        if cfg.format not in formats:
            raise ValueError(f"{args.command} does not support format "
                             f"{cfg.format!r}")
        return command(cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
