"""ML-1M-shaped benchmark of the deepicf package.

Run from the repository root:

    python3 perfbench/run.py --workload train-sgd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                   # every workload, plain then traced
    python3 perfbench/run.py --workload rank --record   # rewrite expected.json

Workloads (closed loop, one process, one thread, BLAS pinned to 1):

* ``train-sgd``: one epoch each of FISM, DeepICF and DeepICF_A through
  ``fit`` at ``batch_size=1`` on a stratified sample of users.
* ``train-minibatch``: the same sample and configs at ``batch_size=256``.
* ``rank``: leave-one-out ranking (100 candidates per user, HR/NDCG@10)
  of all 6,040 users for FISM, DeepICF and DeepICF_A (parameters from
  generated ``DICF1`` checkpoints), ItemKNN and ItemPop.

Inputs come from ``gen.py`` and depend only on ``--seed``. Set-up (parse,
split, save, load, and on ``rank`` the checkpoint loads) is repeated and
timed; then the workload runs for ``--seconds``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` and ``--trace 1`` its per-layer
metrics. See README.md in this directory.
"""

import os
import sys

# One thread for every BLAS and OpenMP pool, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

WORKLOADS = ("train-sgd", "train-minibatch", "rank")
VARIANTS = ("FISM", "DeepICF", "DeepICF_A")
DEFAULT_SEED = 1
TRAIN_SAMPLE_USERS = 4
MINIBATCH = 256
NUM_NEGATIVES = 4
EMBED_K = 16
CUTOFF = 10
# Ranking runs over equal slices of the users, each holding every 40th
# user in history-length order, so every slice has the same length profile.
CHUNKS = 40
MIN_REPS = 3
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.5
# Machine-speed calibration: the host's speed drifts by up to 60% from
# one 10 s spell to the next, for the program and for any other code
# alike. Every time metric is therefore scaled by CALIBRATION_S over the
# median time of a fixed calibration unit interleaved with the measured
# work, i.e. reported at the speed at which that unit takes CALIBRATION_S.
CALIBRATION_S = 0.020
SETUP_CALIBRATION_REPS = 5
CALIBRATION_NEIGHBOURS = 9    # calibration reps that time one measured rep
CALIBRATION_SHARE = 0.25      # calibration time per second of a job's time
# Relative tolerance of the recorded-output checks: loose enough for
# re-associated float sums (about 1e-12 relative after one epoch), tight
# enough to catch any real change in the arithmetic.
TOLERANCE = 1e-9

# (module the caller looks the name up in, attribute, span name)
TRACED = [
    ("deepicf.training", "train_epoch", "training.train_epoch"),
    ("deepicf.training", "sample_training_instances",
     "data.sample_training_instances"),
    ("deepicf.training", "predict_logit", "model.predict_logit"),
    ("deepicf.training", "loss_with_reg", "training.loss_with_reg"),
    ("deepicf.training", "backward", "model.backward"),
    ("deepicf.training", "add_l2_grads", "training.add_l2_grads"),
    ("deepicf.training", "apply_batch", "training.apply_batch"),
    ("deepicf.training", "adagrad_step", "training.adagrad_step"),
    ("deepicf.model", "softmax_beta", "numerics.softmax_beta"),
    ("deepicf.model", "softmax_beta_vjp", "numerics.softmax_beta_vjp"),
    ("deepicf.numerics", "softmax_beta", "numerics.softmax_beta"),
    ("deepicf.evaluation", "rank_test_item", "evaluation.rank_test_item"),
    ("deepicf.evaluation", "score_items", "model.score_items"),
]


class ProgramMissing(Exception):
    pass


def load_program():
    """Import deepicf from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import deepicf
        import deepicf.checkpoint
        import deepicf.config
    except ImportError as err:
        raise ProgramMissing(f"cannot import deepicf from {src}: {err}")
    if not os.path.abspath(deepicf.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"deepicf was imported from {deepicf.__file__}")
    return deepicf


def environment():
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def generate_inputs(workload, seed, out_dir):
    """Write the workload's inputs for ``seed`` under ``out_dir``, in a
    separate process so that the generator's memory stays out of this
    process's peak RSS; returns the shape statistics it printed."""
    cmd = [sys.executable, os.path.join(HERE, "gen.py"),
           "--seed", str(seed), "--out", out_dir]
    if workload != "rank":
        cmd += ["--sample", str(TRAIN_SAMPLE_USERS)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=170).stdout
    return json.loads(out.strip().splitlines()[-1])


class Ledger:
    """Operations attempted and failed; a failed check is a failed
    operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def close(a, b):
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def calibration_job():
    """A fixed unit of benchmark-owned work of the program's kind: gathers
    of embedding-sized rows, small matrix products and a softmax, a Python
    loop over scalars and a dict, and one pass over 2 MB."""
    rng = np.random.default_rng(12345)
    table = rng.normal(size=(4096, 16))
    index = rng.integers(0, 4096, size=(512, 100))
    weight = rng.normal(size=(8, 16))
    block = rng.normal(size=(256, 1024))

    def unit(rep):
        total = 0.0
        for r in range(index.shape[0]):
            v = table[index[r]] * table[r]
            s = np.maximum(v @ weight.T + 0.05, 0.0).sum(axis=1)
            e = np.exp(s - s.max())
            pooled = (e / e.sum() ** 0.5) @ v
            for j in range(16):
                total += float(pooled[j]) * 0.5 + math.sqrt(abs(float(s[j])))
            counts = {}
            for x in index[r, :50].tolist():
                counts[x] = counts.get(x, 0) + 1
            total += len(counts)
        return total + float((block * 1.0001).sum())

    return ("calibration", unit, lambda rep: 1, None)


class Bench:
    def __init__(self, program, workload, seed, seconds, trace, record):
        self.dicf = program
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(TRACED) if trace else None
        self.record = record
        self.ledger = Ledger()
        self.metrics = {}
        # label -> [(seconds, midpoint, work)] of the plain and traced reps
        self.plain, self.traced = {}, {}
        self.outputs = {}                     # check key -> first output
        self.calibration = calibration_job()
        self.cal = []                         # (seconds, midpoint) per rep
        self.expected = {}
        if seed == DEFAULT_SEED and not record and os.path.exists(EXPECTED):
            with open(EXPECTED, encoding="utf-8") as f:
                self.expected = json.load(f).get(workload, {})

    # -- set-up -----------------------------------------------------------

    def _step(self, times, name, fn):
        start = time.perf_counter()
        if self.tracer is None:
            out = fn()
        else:
            with self.tracer.span(name):
                out = fn()
        elapsed = time.perf_counter() - start
        times.setdefault(name, []).append((elapsed, start + elapsed / 2))
        return out

    def setup_once(self, data_dir, prefix, rep):
        d = self.dicf
        times = {}
        if self.tracer is not None:
            self.tracer.run = ("setup", rep)
        with open(os.path.join(data_dir, "ratings.dat"), encoding="utf-8") as f:
            dataset = self._step(times, "data.parse_interactions",
                                 lambda: d.parse_interactions(f, fmt="double_colon"))
        split = self._step(times, "data.leave_one_out_split",
                           lambda: d.leave_one_out_split(dataset, self.seed))
        self._step(times, "data.save_split", lambda: d.save_split(split, prefix))
        loaded = self._step(times, "data.load_split", lambda: d.load_split(prefix))
        models = {}
        if self.workload == "rank":
            for v in VARIANTS:
                path = os.path.join(data_dir, f"{v}.ckpt")
                models[v] = self._step(
                    times, "checkpoint.load_checkpoint",
                    lambda: d.checkpoint.load_checkpoint(path))
        if self.tracer is not None:
            self.tracer.run = None
        tr, lt = split.train, loaded.train
        same = (tr.num_users == lt.num_users and tr.num_items == lt.num_items
                and np.array_equal(split.test_items, loaded.test_items)
                and all(np.array_equal(tr.history_items(u), lt.history_items(u))
                        and np.array_equal(split.eval_negatives[u],
                                           loaded.eval_negatives[u])
                        for u in range(tr.num_users)))
        for v, (_, _, nu, ni) in models.items():
            same = same and (nu, ni) == (lt.num_users, lt.num_items)
        self.ledger.record(same, f"set-up {rep}: split or checkpoint mismatch")
        return times, loaded, {v: m[:2] for v, m in models.items()}

    def calibrate(self, reps):
        for rep in range(reps):
            self.cal.append(self.attempt(self.calibration, rep, False))

    def scaled(self, seconds, midpoint):
        """``seconds`` measured around ``midpoint``, scaled to the speed at
        which the calibration unit takes CALIBRATION_S, judged from the
        calibration reps nearest in time."""
        near = sorted(self.cal, key=lambda c: abs(c[1] - midpoint))
        near = near[:CALIBRATION_NEIGHBOURS]
        if not near:
            return seconds
        return seconds * CALIBRATION_S / statistics.median(e for e, _ in near)

    def speed(self):
        """The whole run's scale factor, for the per-layer span times."""
        if not self.cal:
            return 1.0
        return CALIBRATION_S / statistics.median(e for e, _ in self.cal)

    def normalised(self, runs, label):
        """(scaled seconds, work) of each rep of ``label`` in ``runs``."""
        return [(self.scaled(e, mid), w) for e, mid, w in runs.get(label, [])]

    def setup(self, data_dir):
        """Repeat the set-up; report medians and keep the last result."""
        times = []
        self.calibration[1](0)     # warm-up
        start = time.perf_counter()
        while (len(times) < SETUP_MIN_REPS
               or time.perf_counter() - start < SETUP_MIN_SECONDS):
            self.calibrate(SETUP_CALIBRATION_REPS)
            result = None    # let the previous set-up be freed first
            step_times, *result = self.setup_once(
                data_dir, os.path.join(data_dir, "split"), len(times))
            times.append(step_times)
        self.calibrate(SETUP_CALIBRATION_REPS)
        steps = [{name: sum(self.scaled(*call) for call in calls)
                  for name, calls in t.items()} for t in times]
        self.metrics["setup_s"] = statistics.median(sum(t.values())
                                                    for t in steps)
        for name in steps[0]:
            self.metrics[f"{name}.s"] = statistics.median(t[name] for t in steps)
        return result

    # -- measurement ------------------------------------------------------

    def attempt(self, job, rep, traced):
        """Run one rep of ``job``; (seconds, midpoint), or None if it
        failed."""
        label, unit, _, check = job
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.installed((label, rep)):
                    out = unit(rep)
            else:
                out = unit(rep)
        except Exception as err:  # the program failed: count it, go on
            self.ledger.record(False, f"{label} rep {rep}: "
                                      f"{type(err).__name__}: {err}")
            return None
        elapsed = time.perf_counter() - start
        if check is not None and not self.ledger.record(
                check(rep, out),
                f"{label} rep {rep}{' traced' if traced else ''}: output"):
            return None
        return elapsed, start + elapsed / 2

    def measure(self, jobs, min_reps=MIN_REPS):
        """Run each job's ``unit(rep)`` for ``--seconds``.

        ``jobs`` are (label, unit, work, check) tuples. Rep 0 of each job
        is an untimed warm-up. Timed reps then go to whichever job has
        run for the least time so far, so that every job samples the
        whole run evenly; calibration reps are interleaved the same way,
        at CALIBRATION_SHARE of a job's time. The loop ends once the time
        is up and every job has ``min_reps`` reps. A traced run follows
        each plain rep with a traced rep of the same work. Every output
        goes through ``check``.
        """
        budget = 0.0 if self.record else self.seconds
        jobs = jobs + [self.calibration]
        active = [job for job in jobs if self.attempt(job, 0, False) is not None]
        spent = {job[0]: 0.0 for job in active}
        reps = {job[0]: 0 for job in active}
        start = time.perf_counter()
        while active:
            due = [job for job in active if reps[job[0]] < min_reps]
            if time.perf_counter() - start >= budget and not due:
                break
            job = min(due if time.perf_counter() - start >= budget else active,
                      key=lambda j: spent[j[0]])
            label, work = job[0], job[2]
            reps[label] += 1
            rep = reps[label]
            if job is self.calibration:
                self.calibrate(1)
                spent[label] += self.cal[-1][0] / CALIBRATION_SHARE
                continue
            for traced, runs in ((False, self.plain), (True, self.traced)):
                if traced and self.tracer is None:
                    break
                timing = self.attempt(job, rep, traced)
                if timing is None:
                    active.remove(job)
                    break
                spent[label] += timing[0]
                runs.setdefault(label, []).append((*timing, work(rep)))

    def same_as_first(self, key, out):
        """Whether ``out`` equals the first output recorded under ``key``."""
        return self.outputs.setdefault(key, out) == out

    # -- workloads --------------------------------------------------------

    def train(self, split):
        d = self.dicf
        batch = 1 if self.workload == "train-sgd" else MINIBATCH
        lengths = np.array([split.train.history_items(u).size
                            for u in range(split.train.num_users)])
        positives = int(lengths.sum())
        instances = (1 + NUM_NEGATIVES) * positives
        jobs = []
        for variant in VARIANTS:
            config = d.config.parse_config_lines([
                f"variant = {variant}", f"k = {EMBED_K}",
                f"L = {0 if variant == 'FISM' else 3}", "beta = 0.5",
                "lambda = 1e-6", f"NS = {NUM_NEGATIVES}", "epochs = 1",
                f"seed = {self.seed}", f"batch_size = {batch}"])

            def unit(rep, config=config):
                return d.fit(config, split)[1].final_loss

            def check(rep, loss, variant=variant):
                ok = math.isfinite(loss) and 0.0 < loss < 1.0
                ok = ok and self.same_as_first(variant, loss)
                if variant in self.expected:
                    ok = ok and close(loss, self.expected[variant])
                return ok

            jobs.append((variant, unit, lambda rep: instances, check))
        self.measure(jobs, min_reps=0 if self.record else MIN_REPS)
        if self.record:
            return {v: self.outputs[v] for v in VARIANTS}
        history_rows = (1 + NUM_NEGATIVES) * int((lengths ** 2).sum()) - positives
        self.metrics.update({
            "train.instances": len(VARIANTS) * instances,
            "train.history_rows": len(VARIANTS) * history_rows,
            "train.gathered_bytes":
                len(VARIANTS) * (history_rows + instances) * EMBED_K * 8,
        })
        for prefix, runs in (("", self.plain), ("traced.", self.traced)):
            reps = {v: self.normalised(runs, v) for v in VARIANTS}
            self.metrics[prefix + "wall_s"] = sum(
                statistics.median(t for t, _ in r) for r in reps.values() if r)
            if not prefix:
                self.metrics.update({f"throughput.{v}": statistics.median(
                    w / t for t, w in r) for v, r in reps.items() if r})
        return None

    def chunk_split(self, split, users):
        """The users ``users`` of ``split`` as a split of their own, built
        with the package's public dataclasses."""
        d, tr = self.dicf, split.train
        train = d.InteractionDataset(
            [tr.user_ids[u] for u in users], tr.item_ids,
            [tr.history_items(u) for u in users],
            [tr.history_times(u) for u in users])
        return d.LooSplit(train=train, test_items=split.test_items[users],
                          eval_negatives=[split.eval_negatives[u] for u in users])

    def rank(self, split, models):
        d, tr = self.dicf, split.train
        lengths = np.array([tr.history_items(u).size
                            for u in range(tr.num_users)])
        by_length = np.lexsort((np.arange(lengths.size), lengths))
        chunks = [np.sort(by_length[c::CHUNKS]) for c in range(CHUNKS)]
        parts = [self.chunk_split(split, users) for users in chunks]
        candidates = [1 + split.eval_negatives[u].size for u in range(tr.num_users)]

        def chunk_of(rep):
            return max(rep - 1, 0) % CHUNKS

        def run_chunk(factory, rep, span=None):
            users = chunks[chunk_of(rep)]

            def chunk_factory(u):
                scorer = factory(int(users[u]))
                if span is not None and self.tracer is not None \
                        and self.tracer.run is not None:
                    scorer = self.tracer.wrap(scorer, span)
                return scorer
            return d.evaluate(chunk_factory, parts[chunk_of(rep)], k=CUTOFF)

        def checker(label):
            def check(rep, report):
                c = chunk_of(rep)
                ranks = [r for _, r in report.per_user]
                users = chunks[c]
                ok = (len(ranks) == users.size and all(
                    1 <= r <= candidates[u] for r, u in zip(ranks, users)))
                gains = [1.0 / math.log2(r + 1) if r <= CUTOFF else 0.0
                         for r in ranks]
                hr = sum(r <= CUTOFF for r in ranks) / len(ranks)
                ok = ok and report.hr_at_k == hr and abs(
                    report.ndcg_at_k - sum(gains) / len(ranks)) <= 1e-12
                ok = ok and self.same_as_first((label, c), ranks)
                if label in self.expected:
                    want_hr, want_ndcg = self.expected[label][c]
                    ok = ok and close(report.hr_at_k, want_hr) and close(
                        report.ndcg_at_k, want_ndcg)
                self.outputs[("metrics", label, c)] = [report.hr_at_k,
                                                       report.ndcg_at_k]
                return ok
            return check

        def job(label, factory, span=None):
            return (label, lambda rep: run_chunk(factory, rep, span),
                    lambda rep: chunks[chunk_of(rep)].size, checker(label))

        jobs = []
        for v in VARIANTS:
            params, config = models[v]
            jobs.append(job(v, d.model_scorer_factory(params, config, split)))
        start = time.perf_counter()
        try:
            knn = d.item_knn_fit_and_score(split.train)[1]
        except Exception as err:  # the program failed: count it, go on
            print(f"ItemKNN fit: {type(err).__name__}: {err}", file=sys.stderr)
            knn = None
        knn_seconds = time.perf_counter() - start
        knn_midpoint = start + knn_seconds / 2
        if self.ledger.record(knn is not None, "ItemKNN fit"):
            jobs.append(job("ItemKNN", knn, "evaluation.item_knn_score"))
        self.measure(jobs, min_reps=CHUNKS if self.record else MIN_REPS)

        pop = job("ItemPop", d.item_pop_scorer(split.train))
        start = time.perf_counter()
        for c in range(CHUNKS):
            self.attempt(pop, c + 1, False)
        pop_seconds = time.perf_counter() - start
        pop_pass = self.scaled(pop_seconds, start + pop_seconds / 2)
        knn_fit = self.scaled(knn_seconds, knn_midpoint)

        if self.record:
            return {label: [self.outputs[("metrics", label, c)]
                            for c in range(CHUNKS)]
                    for label in VARIANTS + ("ItemKNN", "ItemPop")}

        users = tr.num_users
        history_rows = int(lengths.sum())
        self.metrics.update({
            "eval.users": users,
            "eval.candidates": int(sum(candidates)),
            "eval.gathered_bytes":
                (history_rows + int(sum(candidates))) * EMBED_K * 8,
            "evaluation.item_knn_fit.s": knn_fit,
        })
        for prefix, runs in (("", self.plain), ("traced.", self.traced)):
            reps = {s: self.normalised(runs, s) for s in VARIANTS + ("ItemKNN",)}
            seconds_per_user = {s: statistics.median(t / w for t, w in r)
                                for s, r in reps.items() if r}
            self.metrics[prefix + "wall_s"] = (
                users * sum(seconds_per_user.values()) + knn_fit + pop_pass)
            if prefix:
                continue
            self.metrics.update({f"throughput.{v}": statistics.median(
                w / t for t, w in reps[v]) for v in VARIANTS if reps[v]})
            if "ItemKNN" in seconds_per_user:
                self.metrics["evaluation.item_knn.users_per_s"] = (
                    users / (knn_fit + users * seconds_per_user["ItemKNN"]))
        return None

    # -- per-layer metrics from the spans ----------------------------------

    def layer_metrics(self):
        totals = self.tracer.totals()
        per_rep = {}   # label -> (reps, work per rep)
        for label, runs in self.traced.items():
            if runs:
                per_rep[label] = (len(runs), sum(r[-1] for r in runs) / len(runs))

        def total(labels, name, field):
            # per-rep mean of calls (0), seconds (1) or self seconds (2)
            return sum(totals[(lab, name)][field] / per_rep[lab][0]
                       for lab in labels
                       if lab in per_rep and (lab, name) in totals)

        def work(labels):
            return sum(per_rep[lab][1] for lab in labels if lab in per_rep)

        def ratio(num, den):
            return num / den if den else 0.0

        training = self.workload != "rank"
        train = list(VARIANTS) if training else []
        attn_train = ["DeepICF_A"] if training else []
        attn_rank = [] if training else ["DeepICF_A"]
        scorers = [] if training else list(VARIANTS) + ["ItemKNN"]
        us = 1e6 * self.speed()
        m = self.metrics
        for name in ("model.predict_logit", "model.backward",
                     "training.adagrad_step"):
            m[f"{name}.us_per_call"] = us * ratio(total(train, name, 1),
                                                  total(train, name, 0))
        m["numerics.softmax_beta_vjp.us_per_call"] = us * ratio(
            total(attn_train, "numerics.softmax_beta_vjp", 1),
            total(attn_train, "numerics.softmax_beta_vjp", 0))
        m["numerics.softmax_beta.calls_per_inst"] = ratio(
            total(attn_train, "numerics.softmax_beta", 0), work(attn_train))
        m["training.adagrad_step.calls_per_inst"] = ratio(
            total(train, "training.adagrad_step", 0), work(train))
        for name in ("training.apply_batch", "training.loss_with_reg",
                     "training.add_l2_grads", "data.sample_training_instances"):
            m[f"{name}.us_per_inst"] = us * ratio(total(train, name, 1),
                                                  work(train))
        m["training.train_epoch.self_us_per_inst"] = us * ratio(
            total(train, "training.train_epoch", 2), work(train))
        for v in VARIANTS:
            lab = [v] if not training else []
            m[f"model.score_items.us_per_user.{v}"] = us * ratio(
                total(lab, "model.score_items", 1), work(lab))
        m["numerics.softmax_beta.calls_per_user"] = ratio(
            total(attn_rank, "numerics.softmax_beta", 0), work(attn_rank))
        m["numerics.softmax_beta.us_per_user"] = us * ratio(
            total(attn_rank, "numerics.softmax_beta", 1), work(attn_rank))
        m["evaluation.rank_test_item.self_us_per_user"] = us * ratio(
            total(scorers, "evaluation.rank_test_item", 2), work(scorers))
        knn = [] if training else ["ItemKNN"]
        m["evaluation.item_knn_score.us_per_user"] = us * ratio(
            total(knn, "evaluation.item_knn_score", 1), work(knn))
        for name in ("checkpoint.load_checkpoint.s", "evaluation.item_knn_fit.s",
                     "evaluation.item_knn.users_per_s", "train.instances",
                     "train.history_rows", "train.gathered_bytes", "eval.users",
                     "eval.candidates", "eval.gathered_bytes"):
            m.setdefault(name, 0)    # counts of the other workloads
        m["trace.overhead_s"] = m.get("traced.wall_s", 0.0) - m.get("wall_s", 0.0)
        m["trace.overhead_pct"] = 100.0 * ratio(m["trace.overhead_s"],
                                                m.get("wall_s", 0.0))
        m["trace.absent_names"] = len(self.tracer.absent)

    def run(self):
        os.makedirs(WORK, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=WORK, prefix="run-")
        try:
            shape = generate_inputs(self.workload, self.seed, scratch)
            print(f"# shape {json.dumps(shape)}")
            split, models = self.setup(scratch)
        finally:
            shutil.rmtree(scratch)
        if self.workload == "rank":
            recorded = self.rank(split, models)
        else:
            recorded = self.train(split)
        if self.record:
            return recorded
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if self.tracer is not None:
            self.layer_metrics()
            if self.tracer.absent:
                print(f"# absent: {' '.join(self.tracer.absent)}")
            path = os.path.join(
                WORK, f"spans-{self.workload}-seed{self.seed}.csv")
            self.tracer.write(path)
            print(f"# spans: {len(self.tracer.spans)} written to "
                  f"{os.path.relpath(path, ROOT)}")
        return None


def result_line(bench, trace):
    """The final JSON object, with exactly the metrics BENCHMARK.json names
    for this mode."""
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    names = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in bench.metrics]
    for name in missing:
        print(f"FAILED: no value for metric {name}", file=sys.stderr)
    metrics = {m["name"]: {"value": bench.metrics.get(m["name"], 0),
                           "unit": m["unit"]} for m in names}
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"# times are scaled by {bench.speed():.4f}, the run's overall speed"
          f" factor ({CALIBRATION_S} s over the calibration unit's median time)")
    failed = bench.ledger.failed + len(missing)
    return json.dumps({"correct": failed == 0,
                       "attempted": bench.ledger.attempted + len(missing),
                       "failed": failed, "metrics": metrics})


def run_all(args):
    """Every workload in a fresh process, plain and traced; prints a table
    of every metric with its unit."""
    print(f"# env {json.dumps(environment())}")
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"\n{workload} (trace {trace}): correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}")
            for name, entry in result["metrics"].items():
                print(f"  {name:48s} {entry['value']:14.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="ML-1M-shaped benchmark of deepicf.")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"write the seed-{DEFAULT_SEED} outputs of the "
                         "workload to expected.json instead of measuring")
    args = ap.parse_args(argv)
    try:
        program = load_program()
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.record and args.seed != DEFAULT_SEED:
        ap.error(f"--record needs --seed {DEFAULT_SEED}")
    print(f"# env {json.dumps(environment())}")
    bench = Bench(program, args.workload, args.seed, args.seconds,
                  args.trace, args.record)
    try:
        recorded = bench.run()
    except Exception:  # the program failed outside a timed rep: report it
        traceback.print_exc()
        bench.ledger.record(False, f"{args.workload}: run aborted")
        recorded = None
    if args.record:
        if bench.ledger.failed:
            print(f"not recorded: {bench.ledger.failed} of "
                  f"{bench.ledger.attempted} operations failed", file=sys.stderr)
            return 1
        expected = {}
        if os.path.exists(EXPECTED):
            with open(EXPECTED, encoding="utf-8") as f:
                expected = json.load(f)
        expected[args.workload] = recorded
        with open(EXPECTED, "w", encoding="utf-8") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"recorded {args.workload} seed {DEFAULT_SEED} outputs")
        return 0
    print(result_line(bench, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
