"""Every bpblab module imports only what it uses, at module level, and
only `operators` and `jsonio` read the kind of an attainment set.

Package-relative imports inside functions hide the module graph and are
never needed to break a cycle here; an unused import is dead code.  The
package `__init__` re-exports names and is exempt.  Everywhere else an
attainment set is asked `finite_points()`, `representative_points()` or
`distance_to()`, so its kind string is decided in one place.
"""

import ast
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
