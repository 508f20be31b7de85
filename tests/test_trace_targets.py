"""The traced benchmark wraps geostat functions by name; they must exist."""

import importlib.util
from pathlib import Path

from geostat import (classify, cli, dtw, features, geometry, ingest, series,
                     stats)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_span_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in
               (classify, cli, dtw, features, geometry, ingest, series, stats)}
    # Recorder.install looks each name up with getattr, so a missing one
    # breaks every traced run.
    missing = [name for name in tracing.SPANS if not name.startswith("trace.")
               and not callable(getattr(modules.get(name.split(".")[0]),
                                        name.split(".")[1], None))]
    assert not missing, f"perfbench/tracing.py wraps missing functions: {missing}"
