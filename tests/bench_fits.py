"""The benchmark's training fits, as ``perfbench/run.py`` runs them, and
its constants, read from ``run.py`` with ``ast`` instead of importing it.

Run as a script, ``python bench_fits.py DIR`` sets every BLAS and OpenMP
pool to one thread before numpy is imported, as ``run.py`` does, runs
the one-epoch fits of ``Bench.train`` on the training sample that
``gen.py`` wrote to ``DIR``, and prints one JSON object that maps
``"<workload> <variant>"`` to the fit's final loss in hex and the sha256
of its parameters' bytes. The thread count matters: a DeepICF_A epoch at
batch 256 ends in other parameter bits with BLAS on two threads.
"""

import ast
import hashlib
import json
import os
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def run_py_constant(name):
    """The value ``perfbench/run.py`` assigns to ``name`` at module level,
    read with ``ast``."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} assigns no {name}")


def bench_fits(data_dir):
    """``(workload, variant, loss, params)`` of each one-epoch ``fit`` of
    ``Bench.train``, at batch 1 and at ``MINIBATCH``, on the leave-one-out
    split of the log in ``data_dir``."""
    from deepicf.config import parse_config_lines
    from deepicf.data import leave_one_out_split, parse_interactions
    from deepicf.training import fit

    seed = run_py_constant("DEFAULT_SEED")
    with open(Path(data_dir) / "ratings.dat", encoding="utf-8") as f:
        split = leave_one_out_split(parse_interactions(f, fmt="double_colon"),
                                    seed)
    for workload, batch in (("train-sgd", 1),
                            ("train-minibatch", run_py_constant("MINIBATCH"))):
        for variant in run_py_constant("VARIANTS"):
            config = parse_config_lines([
                f"variant = {variant}", f"k = {run_py_constant('EMBED_K')}",
                f"L = {0 if variant == 'FISM' else 3}", "beta = 0.5",
                "lambda = 1e-6", f"NS = {run_py_constant('NUM_NEGATIVES')}",
                "epochs = 1", f"seed = {seed}", f"batch_size = {batch}"])
            params, report = fit(config, split)
            yield workload, variant, report.final_loss, params


def main(data_dir):
    print(json.dumps({
        f"{workload} {variant}": [loss.hex(),
                                  hashlib.sha256(params.flat).hexdigest()]
        for workload, variant, loss, params in bench_fits(data_dir)}))


if __name__ == "__main__":
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    main(sys.argv[1])
