"""Checks on the benchmark harness, which read its files without
importing them: its traced names resolve, and the package reproduces the
training losses it records. Beside them, a lint of the package's
sources that needs no linter installed: no import and no function
parameter is left unused."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

from deepicf.config import parse_config_lines
from deepicf.data import leave_one_out_split, parse_interactions
from deepicf.training import fit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deepicf"
RUN_PY = PERFBENCH / "run.py"

# names the traced run still lists though the package has dropped them
DROPPED = {("deepicf.training", "adagrad_step")}
# parameters a protocol requires of a function that has no use for them:
# ItemPop's scorer factory takes the user it scores alike for everyone
UNREAD = {("evaluation.py", "factory", "user")}


def run_py_constant(name):
    """The value ``perfbench/run.py`` assigns to ``name`` at module level,
    read with ``ast``."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} assigns no {name}")


def test_every_traced_name_resolves():
    targets = run_py_constant("TRACED")
    assert targets
    missing = [(module, attr) for module, attr, _ in targets
               if (module, attr) not in DROPPED
               and not callable(getattr(importlib.import_module(module),
                                        attr, None))]
    assert missing == []


def test_training_losses_match_the_benchmark_record(tmp_path):
    """One ``fit`` epoch per variant on ``gen.py``'s training sample, with
    the configs of ``Bench.train`` at batch 1 and at ``MINIBATCH``, gives
    the losses ``expected.json`` records within ``run.py``'s tolerance, so
    that arithmetic which would fail the benchmark's output check fails
    here first."""
    seed = run_py_constant("DEFAULT_SEED")
    subprocess.run([sys.executable, str(PERFBENCH / "gen.py"), "--seed",
                    str(seed), "--out", str(tmp_path), "--sample",
                    str(run_py_constant("TRAIN_SAMPLE_USERS"))],
                   check=True, capture_output=True)
    with open(tmp_path / "ratings.dat", encoding="utf-8") as f:
        split = leave_one_out_split(parse_interactions(f, fmt="double_colon"),
                                    seed)
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    tolerance = run_py_constant("TOLERANCE")
    for workload, batch in (("train-sgd", 1),
                            ("train-minibatch", run_py_constant("MINIBATCH"))):
        for variant in run_py_constant("VARIANTS"):
            config = parse_config_lines([
                f"variant = {variant}", f"k = {run_py_constant('EMBED_K')}",
                f"L = {0 if variant == 'FISM' else 3}", "beta = 0.5",
                "lambda = 1e-6", f"NS = {run_py_constant('NUM_NEGATIVES')}",
                "epochs = 1", f"seed = {seed}", f"batch_size = {batch}"])
            loss = fit(config, split)[1].final_loss
            want = expected[workload][variant]
            assert abs(loss - want) <= tolerance * max(1.0, abs(want)), (
                workload, variant, loss, want)


def unused_imports(source):
    """The names that ``source`` imports at module level but neither reads
    nor lists in its ``__all__``: ``(name, line)`` pairs."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_unused_import_check_finds_one():
    assert unused_imports("from __future__ import annotations\n"
                          "import math\nimport numpy as np\n"
                          "from os import path, sep\n"
                          "__all__ = ['sep']\nx = np.zeros(1)\n") == [
        ("math", 2), ("path", 4)]


def test_every_module_level_import_is_used():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 5
    assert {name: names for name, names in found.items() if names} == {}


def unused_parameters(source):
    """The parameters of each function that ``source`` defines which the
    function's body, nested functions included, never reads: ``(function,
    parameter)`` pairs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = (args.posonlyargs + args.args + args.kwonlyargs
                      + [arg for arg in (args.vararg, args.kwarg) if arg])
            read = {name.id for statement in node.body
                    for name in ast.walk(statement)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            found += [(node.name, arg.arg) for arg in params
                      if arg.arg not in read]
    return sorted(found)


def test_unused_parameter_check_finds_one():
    assert unused_parameters(
        "def f(a, b, *rest, c=1, **extra):\n"
        "    def g(d):\n        return b + d\n"
        "    a = rest\n    return g(c), extra\n"
        "class K:\n    def m(self, e):\n        return self\n") == [
        ("f", "a"), ("m", "e")]


def test_every_function_parameter_is_read():
    found = {(path.name, function, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for function, name in unused_parameters(
                 path.read_text(encoding="utf-8"))}
    assert found == UNREAD
