"""Source checks a linter would make: stale ``__all__`` entries, unused imports,
orphaned private and public names, imports against the module order, and the
README's module table and line lengths.

Every module of the package is parsed with ``ast``.  A name counts as used
when it is read anywhere in the module (as a bare name or the root of an
attribute chain) or listed in ``__all__``.  An import kept on purpose for
perfbench's tracer carries ``# noqa: F401`` on its line, and the tracer must
name that ``module:name`` binding.  A module-level ``_private`` function,
class or constant is the module's own, so the module must read it; dunder
names are exempt.  A public name must be read by some module of the package
(as a bare name or an attribute) or named in perfbench, so that no entry
point survives for the tests alone; ``READ_BY_TESTS_ALONE`` lists the
exceptions, each with its reason.  Relative imports follow ``LAYERS``,
lowest module first.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import lastlayer

SOURCES = sorted(Path(lastlayer.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_every_kept_unused_import_is_a_binding_the_tracer_patches():
    # An import kept only for the tracer is dead once the tracer stops
    # naming that binding; it then has to go rather than survive as a comment.
    patched = set(re.findall(r'"(lastlayer\.\w+:\w+)"', TRACING.read_text()))
    kept = []
    for path in SOURCES:
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                kept += [f"{_module_name(path)}:{a.asname or a.name}" for a in node.names]
    assert "lastlayer.training:fit_loop" in patched  # the pattern still reads the tracer
    assert [binding for binding in kept if binding not in patched] == []


# Public names that no module of the package reads and perfbench does not
# name, kept because the acceptance tests call them.
READ_BY_TESTS_ALONE = {
    "affine_cost_kkt": "criterion 3 checks the closed-form affine cost against its KKT solve",
    "bll_affine_equivalence": "criterion 3 reads the bll and affine costs side by side with it",
    "negative_lml_marginalized": "criterion 1 compares the free-weight objective with it",
    "negative_lml_grads": "criteria 1 and 4 train and check gradients through it",
}


def test_every_public_name_is_read_by_the_package_or_named_in_perfbench():
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    perfbench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    assert "fit_posterior" in read and re.search(r"\bpredict_batch\b", perfbench)
    unread = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _declared_all(ast.parse(path.read_text()))
        if name not in read
        and name not in READ_BY_TESTS_ALONE
        and not re.search(rf"\b{re.escape(name)}\b", perfbench)
    ]
    assert unread == []


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


def test_readme_package_table_lists_every_module_once_in_layer_order():
    # a module added, removed or renamed without its table line fails here
    text = README.read_text()
    assert "\n## Package layout\n" in text
    section = text.split("\n## Package layout\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert rows == list(LAYERS)  # LAYERS names every module, as the import test checks


def test_no_readme_line_outside_code_blocks_is_longer_than_160_characters():
    fenced, long = False, []
    for number, line in enumerate(README.read_text().splitlines(), 1):
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and len(line) > 160:
            long.append(number)
    assert long == []
