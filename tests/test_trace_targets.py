"""Every name the benchmark's per-layer tracer wraps exists in tapp.

``perfbench/layers.py`` lists a missing target and skips it, which only
the benchmark's own tests catch.  This reads its ``TARGETS`` with ``ast``,
without importing the benchmark, so a rename in tapp fails here too.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).parents[1] / "perfbench" / "layers.py"


def _targets() -> list[tuple[str, str]]:
    """(module, attribute) for each name in ``TARGETS``; its attribute
    tuples are literals or module-level names bound to literals."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = node.targets[0]
            if isinstance(name, ast.Name):
                values[name.id] = node.value
    pairs = []
    for entry in values["TARGETS"].elts:
        _, module, names = entry.elts
        if isinstance(names, ast.Name):
            names = values[names.id]
        pairs += [(ast.literal_eval(module), n) for n in ast.literal_eval(names)]
    return pairs


def test_every_traced_name_exists():
    pairs = _targets()
    assert ("tapp.engine", "run_binary") in pairs
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
