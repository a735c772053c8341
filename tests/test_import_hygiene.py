"""Every bpblab module imports only what it uses, at module level, and
only `operators` and `jsonio` read the kind of an attainment set.

Package-relative imports inside functions hide the module graph and are
never needed to break a cycle here; an unused import is dead code.  The
package `__init__` re-exports names and is exempt.  Everywhere else an
attainment set is asked `finite_points()`, `representative_points()` or
`distance_to()`, so its kind string is decided in one place.  numpy is the
only runtime dependency: importing bpblab loads no scipy module.  Yes/no
predicates are decided in closed form, so searches and random draws stay
in the few modules that need them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bpblab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_package_imports_at_module_level(path):
    tree = parse(path)
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and id(node) not in top
    ]
    assert not nested, f"{path.name}: function-level package imports at lines {nested}"


def _is_kind(node):
    return isinstance(node, ast.Attribute) and node.attr == "kind"


def _is_str(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_str(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("operators.py", "jsonio.py")], ids=lambda p: p.stem
)
def test_no_kind_string_comparisons(path):
    sites = sorted(
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Compare)
        and any(_is_kind(e) for e in (node.left, *node.comparators))
        and any(_is_str(e) for e in (node.left, *node.comparators))
    )
    assert not sites, f"{path.name}: `.kind` compared with a string at lines {sites}"


def test_import_loads_no_scipy():
    code = "import sys, bpblab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def _refers_to(tree, name):
    """`from ... import name` or an attribute `<module>.name`."""
    return any(
        (isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(tree)
    )


def _uses_np_random(tree):
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_searches_and_random_draws_stay_where_they_belong(path):
    """Yes/no predicates are closed forms: only the l_p^2 maximum search in
    `operators` uses `zoom_max`, and only the seeded sweeps of `bpbverify`
    and the seeded l_2^n grid (n >= 4) of `sampling` draw random numbers."""
    tree = parse(path)
    if path.name != "operators.py":
        assert not _refers_to(tree, "zoom_max"), f"{path.name} imports zoom_max"
    if path.name not in ("bpbverify.py", "sampling.py"):
        assert not _uses_np_random(tree), f"{path.name} uses np.random"
