"""Checks on the benchmark harness that read its files without importing
or running them."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# names the traced run still lists though the package has dropped them
DROPPED = {("deepicf.training", "adagrad_step")}


def traced_targets():
    """The ``(module, attribute, span)`` triples of ``TRACED`` in
    ``perfbench/run.py``, read with ``ast``."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TRACED"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} assigns no TRACED list")


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    missing = [(module, attr) for module, attr, _ in targets
               if (module, attr) not in DROPPED
               and not callable(getattr(importlib.import_module(module),
                                        attr, None))]
    assert missing == []
