"""Every imported name is used somewhere in its module.

A name counts as used when it appears as an identifier, as the root of an
attribute chain, or inside a quoted annotation such as "Engine".
Package __init__ modules re-export and are skipped, as are __future__
imports.  No library module imports gc at all.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for pattern in ("src/dyncolor/*.py", "scripts/*.py", "tests/*.py")
    for p in ROOT.glob(pattern)
    if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # argument and variable annotations, and return annotations
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for n in ast.walk(ann) if ann is not None else ():
                if isinstance(n, ast.Constant) and isinstance(n.value, str):
                    used |= _used(ast.parse(n.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_library_never_imports_gc():
    # a saving must come from allocating less: gc.disable() or gc.freeze()
    # in library code would change the caller's whole process
    for path in sorted((ROOT / "src" / "dyncolor").rglob("*.py")):
        modules = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
        assert "gc" not in modules, f"{path.name} imports gc"
