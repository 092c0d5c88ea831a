"""The package namespace: every module export resolves and `fcir` re-exports it."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import fcir


@pytest.mark.parametrize("module", ["fbm", "scheme", "model", "malliavin", "experiments"])
def test_module_exports_resolve_and_are_reexported(module):
    # the benchmark tracer (perfbench/spans.py) looks up every __all__ entry by name
    namespace = importlib.import_module(f"fcir.{module}")
    for name in namespace.__all__:
        assert getattr(fcir, name) is getattr(namespace, name), name


KERNELS = ("fbm", "scheme", "malliavin")


@pytest.mark.parametrize("module", ["experiments", "cli"])
def test_studies_and_cli_use_only_public_kernel_names(module):
    # the benchmark tracer wraps public functions only, so a private kernel
    # call would hide its layer's time
    tree = ast.parse(inspect.getsource(importlib.import_module(f"fcir.{module}")))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in KERNELS:
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        if isinstance(node, ast.ImportFrom) and node.module in (None, "fcir"):
            assert not any(alias.name in KERNELS for alias in node.names), ast.dump(node)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in KERNELS
            and node.attr.startswith("_")
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_modules_import_no_private_name_of_another():
    # a `_` name belongs to its module; dunders such as __version__ are public
    private = []
    for path in sorted(Path(fcir.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "fcir"
            ):
                private += [
                    f"{path.stem} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert private == []


def test_version_matches_the_project_metadata():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        assert fcir.__version__ == tomllib.load(handle)["project"]["version"]


@pytest.mark.parametrize(
    "function, first", [("sample_fbm_circulant", "grid"), ("simulate_batch", "noise")]
)
def test_traced_work_arguments_come_first(function, first):
    # perfbench/spans.py reads the grid and the noise positionally
    assert next(iter(inspect.signature(getattr(fcir, function)).parameters)) == first
