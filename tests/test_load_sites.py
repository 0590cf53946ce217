"""The graph is loaded in one place.

Engine.__init__ builds its graph with DynamicGraph.from_edges, whose
vectorized pass does the work of the per-edge inserts.  insert_edge is
left to the update handler, to from_edges' replay of an edge list its
vectorized pass refuses, and to the oblivious stream's own graph.  A
loop of insert_edge calls elsewhere is a second bulk load.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyncolor"


def _call_sites(method: str) -> list[str]:
    """'module.Qual.name' of the innermost function around every
    `<x>.<method>(...)` call under src/dyncolor."""
    sites = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == method
            ):
                sites.append(".".join(scope))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return sites


def test_insert_edge_is_called_only_by_updates_replays_and_the_oblivious_stream():
    assert sorted(_call_sites("insert_edge")) == [
        "adversary.oblivious_adversary.try_insert",
        "engine.Engine._handle_insert",
        "graph.DynamicGraph.from_edges",
    ]
