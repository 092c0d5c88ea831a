"""The package namespace: every module export resolves and `fcir` re-exports it."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import fcir


EXPORTING = ("fbm", "scheme", "model", "malliavin", "experiments")


@pytest.mark.parametrize("module", EXPORTING)
def test_module_exports_resolve_and_are_reexported(module):
    # the benchmark tracer (perfbench/spans.py) looks up every __all__ entry by name
    namespace = importlib.import_module(f"fcir.{module}")
    for name in namespace.__all__:
        assert getattr(fcir, name) is getattr(namespace, name), name


def test_every_exported_function_has_a_caller_in_the_package():
    # a function only tests call belongs in tests/oracles.py: a reference
    # counts from any function other than its own def, and not from the
    # re-export in fcir/__init__.py
    package = Path(fcir.__file__).parent
    callers = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            owner = statement.name if isinstance(statement, ast.FunctionDef) else None
            for node in ast.walk(statement):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    callers.setdefault(name, set()).add((path.stem, owner))
    unused = [
        f"{module}.{name}"
        for module in EXPORTING
        for name in importlib.import_module(f"fcir.{module}").__all__
        if inspect.isfunction(getattr(fcir, name))
        and not callers.get(name, set()) - {(module, name)}
    ]
    assert unused == []


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


def test_scheme_imports_nothing_from_fbm():
    # the solver takes the noise it is handed; the studies in experiments
    # sample it, so H and the seeds are checked in one place
    tree = ast.parse(Path(fcir.scheme.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if name.split(".")[-1] == "fbm"] == []


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency; scipy serves the tests only
    imported = []
    for path in sorted(Path(fcir.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.stem, node.module))
            elif isinstance(node, ast.Import):
                imported += [(path.stem, alias.name) for alias in node.names]
    assert [entry for entry in imported if entry[1].split(".")[0] == "scipy"] == []


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
    # the version has one source: the project metadata reads fcir.__version__
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "fcir.__version__"}


def _fcir_imports(module):
    """The fcir modules that `module` imports at run time (not under TYPE_CHECKING), by name."""
    tree = ast.parse(Path(fcir.__file__).with_name(f"{module}.py").read_text())
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            skipped.update(map(id, ast.walk(node)))
    dotted = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package = f"fcir.{node.module}" if node.module else "fcir"
            else:
                package = node.module or ""
            # `from . import io` and `from fcir import io` name the module in the alias
            dotted += [package] if package != "fcir" else [f"fcir.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("fcir.")}


def test_each_public_name_is_declared_once_and_the_layers_hold():
    # fcir re-exports each module's __all__ (errors has none: all its names)
    # by `import *`, so a public name is listed in its module alone
    named = []
    for node in ast.parse(Path(fcir.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"fcir.{node.module}")
            public = getattr(module, "__all__", [n for n in vars(module) if n[0] != "_"])
            named += [f"{node.module}.{a.name}" for a in node.names if a.name in public]
    assert named == []
    # the writers take the study results as they are handed them
    assert _fcir_imports("io") == {"errors"}
    # kernels, then studies, then writers, then the command line
    for kernel in ("fbm", "model", "scheme", "malliavin"):
        assert _fcir_imports(kernel) & {"experiments", "io", "cli"} == set(), kernel
    assert _fcir_imports("experiments") & {"io", "cli"} == set()


@pytest.mark.parametrize(
    "function, first", [("sample_fbm_circulant", "grid"), ("simulate_batch", "noise")]
)
def test_traced_work_arguments_come_first(function, first):
    # perfbench/spans.py reads the grid and the noise positionally
    assert next(iter(inspect.signature(getattr(fcir, function)).parameters)) == first
