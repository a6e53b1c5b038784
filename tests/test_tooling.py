"""Checks on the benchmark harness, which read its files without
importing them: its traced names resolve, and the package reproduces the
training losses it records."""

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
RUN_PY = PERFBENCH / "run.py"

# names the traced run still lists though the package has dropped them
DROPPED = {("deepicf.training", "adagrad_step")}


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
