"""Each recolor step is metered in one place.

Every trial color is drawn and counted by Engine.trial_color, and every
availability check of the random recolor paths by Engine.holders_among,
as one scan of the whole color class.  Two other scans are metered where
they happen, in closed form: naive_recolor counts the one neighborhood
scan it models, and one_shot_coloring counts its pairwise conflict pass.
A loop that counts its own trials or scans elsewhere is a second copy of
the step.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyncolor"


def _increment_sites(field: str) -> list[str]:
    """'module.function' of every `<x>.<field> +=` under src/dyncolor."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Attribute)
                    and node.target.attr == field
                ):
                    sites.append(f"{path.stem}.{fn.name}")
    return sites


def test_color_trials_are_counted_only_by_trial_color():
    assert _increment_sites("color_trials") == ["engine.trial_color"]


def test_class_scans_are_counted_only_by_the_three_walks():
    assert sorted(_increment_sites("class_scans")) == [
        "engine.holders_among",
        "engine.naive_recolor",
        "fresh.one_shot_coloring",
    ]


def test_engine_reads_color_classes_only_in_its_two_checks():
    # every other engine step asks holders_among, so no class walk of its
    # own can go unmetered
    tree = ast.parse((SRC / "engine.py").read_text())
    readers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        # self.state.classes or an alias's: no other engine attribute is named so
        if isinstance(node, ast.Attribute) and node.attr == "classes"
    }
    assert readers == {"holders_among", "naive_recolor"}
