"""Every exported name resolves, so a deletion leaves no stale export."""

import importlib

import pytest

import geostat

MODULES = ("classify", "cli", "dtw", "features", "geometry", "ingest",
           "series", "stats")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"geostat.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_lazy_package_names_resolve():
    for name, module in geostat._LAZY.items():
        assert getattr(geostat, name) is getattr(
            importlib.import_module(f"geostat.{module}"), name)


def test_star_import():
    namespace = {}
    exec("from geostat import *", namespace)
    assert "univariate_grid" in namespace and "load_ucr" in namespace
