"""Strict mode has one effect, in one place.

Engine.strict is set once, in Engine.__init__, and read once, by
Engine._recolor_inlier: with it an empty inlier palette raises
InlierPaletteEmpty instead of restarting the phase.  Every other step
runs the same with or without it; a second read is a second meaning.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyncolor"


def _attribute_sites(attr: str, ctx: type) -> list[str]:
    """'module.Qual.name' of the innermost function around every
    `<x>.<attr>` under src/dyncolor with the given context (Load/Store)."""
    sites = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == attr
                and isinstance(child.ctx, ctx)
            ):
                sites.append(".".join(scope))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return sites


def test_strict_is_read_only_by_the_inlier_recolor():
    assert _attribute_sites("strict", ast.Load) == ["engine.Engine._recolor_inlier"]


def test_strict_is_set_only_by_the_constructor():
    assert _attribute_sites("strict", ast.Store) == ["engine.Engine.__init__"]
