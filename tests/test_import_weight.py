"""Modules that commands do not need stay unimported.

Every command pays for what it imports, so these checks run in a fresh
interpreter, where nothing else has imported the modules yet.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code: str, module: str) -> bool:
    """Whether ``module`` is imported once ``code`` has run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\n"
                               f"print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.split()[-1] == "True"


def test_cli_import_leaves_out_the_process_pool():
    assert not loaded_after("import geostat.cli", "concurrent.futures")
    # The check itself sees the pool once something imports it.
    assert loaded_after("import geostat.cli, concurrent.futures",
                        "concurrent.futures")


def test_extract_leaves_out_classifiers_and_warping(tmp_path):
    data = tmp_path / "Toy"
    data.mkdir()
    for split in ("TRAIN", "TEST"):
        (data / f"Toy_{split}.tsv").write_text(
            "1\t0.0\t1.0\t0.5\t2.0\n2\t1.0\t0.0\t1.5\t0.5\n")
    code = "\n".join([
        "from geostat import cli",
        f"assert cli.main(['extract', '--dataset', {str(data)!r}, '--out',",
        f"                 {str(tmp_path / 'out')!r}, '--windows', '1',",
        "                 '--smoothings', '0,1', '--min-samples', '4']) == 0",
    ])
    for module in ("geostat.classify", "geostat.dtw"):
        assert not loaded_after(code, module)
    # Their names still import from the package, loading them on use.
    assert loaded_after("from geostat import nested_cv, DTWConfig",
                        "geostat.classify")
    assert loaded_after("import geostat\ngeostat.dtw_matrix", "geostat.dtw")


def test_dtw_leaves_out_classifiers(tmp_path):
    data = tmp_path / "Toy"
    data.mkdir()
    for split in ("TRAIN", "TEST"):
        (data / f"Toy_{split}.tsv").write_text(
            "1\t0.0\t1.0\t0.5\t2.0\n2\t1.0\t0.0\t1.5\t0.5\n")
    code = "\n".join([
        "from geostat import cli",
        f"assert cli.main(['dtw', '--dataset', {str(data)!r}, '--out',",
        f"                 {str(tmp_path / 'out')!r}]) == 0",
    ])
    assert not loaded_after(code, "geostat.classify")
    assert loaded_after(code, "geostat.dtw")


def test_window_means_leave_out_masked_arrays():
    code = "\n".join([
        "import numpy as np",
        "from geostat import ingest",
        "t = np.concatenate([60.0 * np.arange(30), 2000.0 + 250.0 * np.arange(9)])",
        "n = t.size",
        "segment = ingest.ActiveSegment(t, np.linspace(10, 11, n),",
        "                               np.linspace(20, 21, n), np.ones(n),",
        "                               np.ones(n))",
        "means, counts = ingest._window_means([segment])",
        "assert counts[0] > 1",
    ])
    assert not loaded_after(code, "numpy.ma")
    assert loaded_after(code + "\nnp.unique(counts)", "numpy.ma")


def test_nested_cv_leaves_out_masked_arrays():
    code = "\n".join([
        "import numpy as np",
        "from geostat import classify",
        "x = np.random.default_rng(0).normal(size=(24, 3))",
        "y = ['a', 'b', 'c'] * 8",
        "grid = classify.default_knn_grid()[:4] + classify.default_svm_grid()",
        "classify.nested_cv(x, y, grid, outer_k=3, inner_k=3, seed=0)",
    ])
    assert not loaded_after(code, "numpy.ma")
