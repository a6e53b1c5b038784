"""Checks on the benchmark harness, which read its files without
importing them: its traced names resolve and the training path calls
each of them, and the package reproduces the training losses, parameters
and ranking metrics it records. Beside them, a lint of the package's
sources that needs no linter installed: no import and no function
parameter is left unused."""

import ast
import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_fits
from bench_fits import run_py_constant
from deepicf.checkpoint import load_checkpoint
from deepicf.data import (leave_one_out_split, parse_interactions,
                          save_split)
from deepicf.evaluation import (evaluate, item_knn_fit_and_score,
                                item_pop_scorer, metrics_at_k,
                                model_scorer_factory, rank_test_item)
from deepicf.model import ModelConfig, Variant
from deepicf.training import fit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deepicf"

# names the traced run still lists though the package has dropped them
DROPPED = {("deepicf.training", "adagrad_step")}
# the modules whose traced names a training epoch calls
TRAINING_MODULES = ("deepicf.training", "deepicf.model")
# the training losses of `test_training_losses_match_the_benchmark_record`
# at seed 1, to the last bit: `expected.json` records them to a tolerance
# that a change in the last bits passes
PINNED_SEED = 1
PINNED_LOSSES = {
    ("train-sgd", "FISM"): "0x1.37e74e5c297a1p-1",
    ("train-sgd", "DeepICF"): "0x1.0e47b166b8e66p-1",
    ("train-sgd", "DeepICF_A"): "0x1.160d1b5a1216ep-1",
    ("train-minibatch", "FISM"): "0x1.57d5704bb22c2p-1",
    ("train-minibatch", "DeepICF"): "0x1.5d932910f00a8p-1",
    ("train-minibatch", "DeepICF_A"): "0x1.5d93a84c81051p-1",
}
# the sha256 of each of those fits' parameter bytes, with BLAS on one
# thread, as the benchmark runs
PINNED_PARAMS = {
    ("train-sgd", "FISM"):
        "b4ee55f67ec37f0b29d8053f5a7bdabc639675148d569c33527e49a9644a65e1",
    ("train-sgd", "DeepICF"):
        "5ae552c35021f5a3873f3f06a60e69a2c072b77dc8f42fef74441ba930c13a89",
    ("train-sgd", "DeepICF_A"):
        "e6d7f0d0831ea7a4437c62f5bc89b66e0efd0efb46739bea95513e8fa647de82",
    ("train-minibatch", "FISM"):
        "f532a8567a78ddbaa340a996054c1aa876564d718ea4a0f4069280d0b4d98dc4",
    ("train-minibatch", "DeepICF"):
        "9668963ea8a52cba221f0903a69283d621a656e007d7ad8ff7dfc841da13447c",
    ("train-minibatch", "DeepICF_A"):
        "c4936c20318bc2cd36b4a3b728e55079b15ae06a1d8b43cb827083edf8c34ebd",
}
# the sha256 of each file of the seed-1 split of `gen.py`'s full log, as
# `save_split` writes it
PINNED_SPLIT = {
    "train":
        "68a348dff6267efbac662909eb582f5c77c6fbb15452d390864d4414cb22d594",
    "test":
        "ac5627f4f3bf67f66722c41928d1b4d849046cdbb68bf6ea6aeadf3f399b80e2",
    "negatives":
        "db1cea45ed597b1b9aa1a19efed921549952c334dc929c6b175885b59180487f",
    "idmap":
        "edb838b31534574f3358e9c65525a9851da9d10f56bf6ac5d7af3a8f921de99e",
}
# parameters a protocol requires of a function that has no use for them:
# ItemPop's scorer factory takes the user it scores alike for everyone
UNREAD = {("evaluation.py", "factory", "user")}


def test_every_traced_name_resolves():
    targets = run_py_constant("TRACED")
    assert targets
    missing = [(module, attr) for module, attr, _ in targets
               if (module, attr) not in DROPPED
               and not callable(getattr(importlib.import_module(module),
                                        attr, None))]
    assert missing == []


@pytest.mark.parametrize("batch_size", [1, 4])
def test_the_training_path_calls_every_traced_name(monkeypatch, small_split,
                                                   batch_size):
    """A counting wrapper at each traced name of the training modules, at
    the module attribute the traced run wraps, is called by a one-epoch
    DeepICF_A ``fit``, so that no training path can bypass the names
    whose spans give the benchmark's per-layer training metrics."""
    calls = {}

    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, _ in run_py_constant("TRACED"):
        if module in TRAINING_MODULES and (module, attr) not in DROPPED:
            owner = importlib.import_module(module)
            calls[module, attr] = 0
            monkeypatch.setattr(owner, attr, counted(getattr(owner, attr),
                                                     (module, attr)))
    assert len(calls) == 9
    fit(ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3, num_layers=1,
                    epochs=1, batch_size=batch_size), small_split)
    assert {key: count for key, count in calls.items() if not count} == {}


@pytest.fixture(scope="module")
def train_sample(tmp_path_factory):
    """The directory of ``gen.py``'s training sample at the benchmark's
    seed."""
    out = tmp_path_factory.mktemp("train-sample")
    subprocess.run([sys.executable, str(PERFBENCH / "gen.py"), "--seed",
                    str(run_py_constant("DEFAULT_SEED")), "--out", str(out),
                    "--sample", str(run_py_constant("TRAIN_SAMPLE_USERS"))],
                   check=True, capture_output=True)
    return out


def test_training_losses_match_the_benchmark_record(train_sample):
    """One ``fit`` epoch per variant on ``gen.py``'s training sample, with
    the configs of ``Bench.train`` at batch 1 and at ``MINIBATCH``, gives
    the losses ``expected.json`` records within ``run.py``'s tolerance, so
    that arithmetic which would fail the benchmark's output check fails
    here first, and the ``PINNED_LOSSES`` to the bit, so that a change to
    the order of any sum fails here too."""
    assert run_py_constant("DEFAULT_SEED") == PINNED_SEED
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    tolerance = run_py_constant("TOLERANCE")
    fits = 0
    for workload, variant, loss, _ in bench_fits.bench_fits(train_sample):
        want = expected[workload][variant]
        assert abs(loss - want) <= tolerance * max(1.0, abs(want)), (
            workload, variant, loss, want)
        assert loss.hex() == PINNED_LOSSES[workload, variant], (
            workload, variant, loss.hex())
        fits += 1
    assert fits == len(PINNED_LOSSES)


def test_training_parameters_match_the_pinned_bytes(train_sample):
    """The same fits, run as the benchmark runs them, with BLAS on one
    thread, end in parameters whose bytes hash to ``PINNED_PARAMS``, and
    in the ``PINNED_LOSSES``: every bit of every parameter, not only of
    the loss, stays as it was."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, bench_fits.__file__,
                          str(train_sample)], env=env, check=True,
                         capture_output=True, text=True).stdout
    got = {tuple(key.split()): value
           for key, value in json.loads(out).items()}
    assert got == {key: [PINNED_LOSSES[key], PINNED_PARAMS[key]]
                   for key in PINNED_PARAMS}


@pytest.fixture(scope="module")
def full_log(tmp_path_factory):
    """The directory of ``gen.py``'s full log and checkpoints at the
    benchmark's seed."""
    out = tmp_path_factory.mktemp("full-log")
    subprocess.run([sys.executable, str(PERFBENCH / "gen.py"), "--seed",
                    str(run_py_constant("DEFAULT_SEED")), "--out", str(out)],
                   check=True, capture_output=True)
    return out


def _full_split(full_log):
    with open(full_log / "ratings.dat", encoding="utf-8") as f:
        return leave_one_out_split(parse_interactions(f, fmt="double_colon"),
                                   run_py_constant("DEFAULT_SEED"))


def test_split_files_match_the_pinned_bytes(full_log, tmp_path):
    """The leave-one-out split of ``gen.py``'s full log at seed 1, saved,
    gives files whose bytes hash to ``PINNED_SPLIT``: the held-out items,
    every negative drawn and every byte written stay as they were."""
    assert run_py_constant("DEFAULT_SEED") == PINNED_SEED
    save_split(_full_split(full_log), tmp_path / "split")
    assert {part: hashlib.sha256(
        (tmp_path / f"split.{part}").read_bytes()).hexdigest()
        for part in PINNED_SPLIT} == PINNED_SPLIT


def test_ranking_metrics_match_the_benchmark_record(full_log):
    """On ``gen.py``'s full log, ItemKNN and ItemPop on every slice of
    users that ``Bench.rank`` ranks, and the three variants from the
    generator's checkpoints on the first slice, give the HR and NDCG
    that ``expected.json`` records within ``run.py``'s tolerance."""
    split = _full_split(full_log)
    cutoff, chunks = run_py_constant("CUTOFF"), run_py_constant("CHUNKS")
    # every CHUNKS-th user in (history length, index) order
    lengths = [hist.size for hist in split.train.item_arrays()]
    by_length = np.lexsort((np.arange(len(lengths)), lengths))
    slices = [np.sort(by_length[c::chunks]).tolist() for c in range(chunks)]

    def metrics(ranks):
        """(HR, NDCG) of a slice's ranks, summed in its user order as
        ``evaluate`` sums them."""
        hits = gain = 0
        for rank in ranks:
            hit, ndcg = metrics_at_k(rank, cutoff)
            hits += hit
            gain += ndcg
        return hits / len(ranks), gain / len(ranks)

    got = {}
    for label, factory in (
            ("ItemKNN", item_knn_fit_and_score(split.train)[1]),
            ("ItemPop", item_pop_scorer(split.train))):
        ranks = [rank for _, rank in evaluate(factory, split, cutoff).per_user]
        got[label] = [metrics([ranks[u] for u in users]) for users in slices]
    for variant in run_py_constant("VARIANTS"):
        params, config = load_checkpoint(full_log / f"{variant}.ckpt")[:2]
        factory = model_scorer_factory(params, config, split)
        got[variant] = [metrics([
            rank_test_item(factory(u), split.test_items[u],
                           split.eval_negatives[u]) for u in slices[0]])]
    expected = json.loads((PERFBENCH / "expected.json").read_text())["rank"]
    tolerance = run_py_constant("TOLERANCE")
    assert len(got["ItemKNN"]) == len(expected["ItemKNN"]) == chunks
    for label, pairs in got.items():
        for chunk, (pair, want) in enumerate(zip(pairs, expected[label])):
            assert all(abs(a - b) <= tolerance * max(1.0, abs(b))
                       for a, b in zip(pair, want)), (label, chunk, pair, want)


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
