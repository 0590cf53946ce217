"""Every function and class defined in src/dyncolor is used by the program.

A definition that only tests reference is code the program never runs;
it is either an oracle or debug check kept on purpose (ORACLES) or dead.
"Used by the program" means referenced from src/dyncolor, scripts/ or
perfbench/.

The scan matches by name.  A reference is an identifier, an attribute
name, or an identifier inside a string that is not a
docstring (perfbench wraps functions by their names, and __all__ lists
names).  Dunder methods run by protocol and are skipped.  Because only
names are compared, any variable, attribute or other definition that
shares a function's name hides it: a local e_v in
refine_to_sparser_denser kept a method Decomposition.e_v, read only by
tests, from being flagged.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src/dyncolor/*.py", "scripts/*.py", "perfbench/*.py")
IDENT = re.compile(r"[A-Za-z_]\w*")

# independent oracles and debug checks that only tests call
ORACLES = {
    "validate_decomposition",
    "assert_consistent",
    "fuzz_graph",
    "brute_force_sparsity",
    "brute_acd",
    "brute_palette",
}


def _parse(patterns) -> list[ast.Module]:
    return [
        ast.parse(p.read_text(), filename=str(p))
        for pattern in patterns
        for p in sorted(ROOT.glob(pattern))
    ]


def _definitions(trees) -> set[str]:
    return {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _references(trees) -> set[str]:
    names: set[str] = set()
    for tree in trees:
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                names.update(IDENT.findall(node.value))
    return names


def test_no_definition_is_referenced_only_by_tests():
    defined = _definitions(_parse(["src/dyncolor/*.py"]))
    program = _references(_parse(PROGRAM))
    tests = _references(_parse(["tests/*.py"]))
    test_only = {name for name in defined - program if name in tests}
    assert test_only - ORACLES == set(), "referenced only from tests/"
    # an oracle the program starts to call leaves the list
    assert ORACLES - test_only == set(), "no longer test-only"
