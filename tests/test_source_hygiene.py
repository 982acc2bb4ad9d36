"""Source checks a linter would make: stale ``__all__`` entries, unused imports,
orphaned private names and imports against the module order.

Every module of the package is parsed with ``ast``.  A name counts as used
when it is read anywhere in the module (as a bare name or the root of an
attribute chain) or listed in ``__all__``.  An import kept on purpose for a
caller outside the module, such as one that perfbench's tracer patches,
carries ``# noqa: F401`` on its line.  A module-level ``_private`` function,
class or constant is the module's own, so the module must read it; dunder
names are exempt.  Relative imports follow ``LAYERS``, lowest module first.
"""

import ast
import importlib
from pathlib import Path

import pytest

import lastlayer

SOURCES = sorted(Path(lastlayer.__file__).parent.glob("*.py"))


def _module_name(path):
    return "lastlayer" if path.stem == "__init__" else f"lastlayer.{path.stem}"


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _imported_names(tree, lines):
    """(bound name, line) of every import not marked ``noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _read_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _private_definitions(tree):
    """(name, line) of every module-level private def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_all_entry_resolves(path):
    module = importlib.import_module(_module_name(path))
    names = _declared_all(ast.parse(path.read_text()))
    assert [n for n in names if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _read_names(tree) | set(_declared_all(tree))
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in _imported_names(tree, source.splitlines())
        if name not in used
    ]
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_defines_a_private_name_it_never_reads(path):
    tree = ast.parse(path.read_text())
    read = _read_names(tree)
    orphans = [
        f"{path.name}:{line} {name}"
        for name, line in _private_definitions(tree)
        if name not in read
    ]
    assert orphans == []


# Lower modules first: each module may import only from modules before it.
LAYERS = (
    "rng", "linalg", "mlp", "data", "autodiff", "bll", "affine", "calibration",
    "training", "baselines", "vi", "benchmarks", "experiment", "cli",
)


def test_every_relative_import_names_a_lower_module():
    assert sorted(LAYERS) == sorted(p.stem for p in SOURCES if p.stem != "__init__")
    upward = []
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if node.module is None:  # ``from . import x``: only the version, or a module
                names = [a.name for a in node.names if a.name != "__version__"]
            else:
                names = [node.module]
            for name in names:
                if name not in LAYERS[: LAYERS.index(path.stem)]:
                    upward.append(f"{path.name}:{node.lineno} imports {name}")
    assert upward == []
