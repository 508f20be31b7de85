"""Every exported name resolves, so a deletion leaves no stale export, and
the command-line module uses only the public names of the others."""

import ast
import importlib
from pathlib import Path

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


def test_cli_reads_no_private_name_of_another_module():
    source = Path(importlib.import_module("geostat.cli").__file__).read_text()
    tree = ast.parse(source)
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(a.asname or a.name for a in node.names)
            else:
                private += [f"{node.module}.{a.name}" for a in node.names
                            if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            private.append(f"{node.value.id}.{node.attr}")
    assert modules >= {"classify", "features", "ingest"}
    assert private == []
