"""The package namespace: every module export resolves and `fcir` re-exports it."""

import importlib

import pytest

import fcir


@pytest.mark.parametrize("module", ["fbm", "scheme", "model", "malliavin", "experiments"])
def test_module_exports_resolve_and_are_reexported(module):
    # the benchmark tracer (perfbench/spans.py) looks up every __all__ entry by name
    namespace = importlib.import_module(f"fcir.{module}")
    for name in namespace.__all__:
        assert getattr(fcir, name) is getattr(namespace, name), name
