"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 7 and 8 need the MovieLens-1M ratings file, which is not shipped
with the repository; they skip with instructions when it is absent (see
README, section "Data"). Criterion 8 is the long-running stretch
reproduction and additionally requires DEEPICF_STRETCH=1.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from deepicf.cli import main
from deepicf.data import (InteractionDataset, LooSplit, leave_one_out_split,
                          parse_interactions)
from deepicf.evaluation import (evaluate, item_pop_scorer,
                                model_scorer_factory, metrics_at_k,
                                rank_test_item)
from deepicf.model import (ModelConfig, Variant, backward, init_params,
                           predict_logit)
from deepicf.numerics import bce_from_logit, rng_from_seed, softmax_beta
from deepicf.training import fit, pretrain_and_init

import attention_oracle as history_major
from conftest import ml1m_ratings_path, synthetic_lines
from gradcheck import (finite_diff_grad, flatten_grads, flatten_params,
                       params_from_flat)


def ok(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

GRAD_USERS, GRAD_ITEMS, GRAD_K, GRAD_KPRIME = 8, 12, 6, 4
GRAD_CASES = ([(Variant.FISM, 0)]
              + [(Variant.DEEPICF, layers) for layers in (1, 2, 3)]
              + [(Variant.DEEPICF_A, layers) for layers in (0, 1, 2)])


def _random_instances(cfg, rng, count):
    """Random (params, instance) pairs at O(1) parameter scale, resampled
    away from ReLU kinks and saturated sigmoids where central differences
    lose their accuracy for reasons unrelated to the analytic gradients."""
    made = 0
    while made < count:
        params = init_params(cfg, GRAD_USERS, GRAD_ITEMS, rng)
        flat = rng.normal(0.0, 0.4, size=flatten_params(params, cfg).size)
        params = params_from_flat(flat, cfg, GRAD_USERS, GRAD_ITEMS)
        user = int(rng.integers(GRAD_USERS))
        hist = rng.choice(GRAD_ITEMS, size=int(rng.integers(1, 7)),
                          replace=False)
        item = int(rng.integers(GRAD_ITEMS))
        label = int(rng.integers(2))
        logit, cache = predict_logit(params, cfg, hist, user, item)
        pres = list(cache.layer_pres)
        if cfg.uses_attention:
            # the cache holds the ReLU outputs, which read 0 wherever a
            # unit is off; the pre-activations come from the oracle
            pres.append(history_major.pre_activations(
                params, cache.hist_embed, cache.target))
        closest = min((np.abs(p).min() for p in pres if p.size), default=1.0)
        if closest < 1e-3 or abs(logit) > 12.0:
            continue
        made += 1
        yield params, flat, user, hist, item, label, logit, cache


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst_overall = 0.0
    for variant, layers in GRAD_CASES:
        cfg = ModelConfig(
            variant=variant, k=GRAD_K, k_prime=GRAD_KPRIME,
            num_layers=layers, beta=0.5,
            alpha=0.0 if variant is Variant.DEEPICF_A else 0.5)
        rng = rng_from_seed(20250811, "gradcheck", variant.value, layers)
        for (params, flat, user, hist, item, label, logit,
             cache) in _random_instances(cfg, rng, 100):

            def loss_of(theta):
                view = params_from_flat(theta, cfg, GRAD_USERS, GRAD_ITEMS)
                lg, _ = predict_logit(view, cfg, hist, user, item)
                return bce_from_logit(lg, label)[0]

            _, dlogit = bce_from_logit(logit, label)
            analytic = flatten_grads(backward(params, cfg, cache, dlogit),
                                     cfg, GRAD_USERS, GRAD_ITEMS)
            numeric = finite_diff_grad(loss_of, flat, h=1e-5)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
            err = float(np.abs(analytic - numeric).max() / scale)
            worst_overall = max(worst_overall, err)
            assert err < 1e-4, (variant, layers, err)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    ok(1, f"7 variant configs x 100 instances, worst relative error "
          f"{worst_overall:.2e} < 1e-4 in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. Recovery identities
# ---------------------------------------------------------------------------

def test_criterion_2_recovery_identities():
    rng = rng_from_seed(42, "recovery")
    num_items, k, k_prime = 10, 6, 4

    cfg_deep = ModelConfig(variant=Variant.DEEPICF, k=k, num_layers=0,
                           alpha=0.5)
    worst = 0.0
    for _ in range(1000):
        params = init_params(cfg_deep, 2, num_items, rng)
        flat = rng.normal(0.0, 0.5,
                          size=flatten_params(params, cfg_deep).size)
        params = params_from_flat(flat, cfg_deep, 2, num_items)
        params["output_weights"][:] = 1.0
        params["user_bias"][:] = 0.0
        params["item_bias"][:] = 0.0
        size = int(rng.integers(2, 8))
        hist = rng.choice(num_items, size=size, replace=False)
        item = int(hist[0])  # the target is part of the consumed set
        logit, _ = predict_logit(params, cfg_deep, hist, 0, item)
        masked = [int(j) for j in hist if j != item]
        want = (len(masked) ** -0.5) * sum(
            float(params["target_embed"][item] @ params["history_embed"][j])
            for j in masked)
        worst = max(worst, abs(logit - want))
    assert worst < 1e-12

    beta_cycle = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst_att = 0.0
    for trial in range(1000):
        beta = beta_cycle[trial % len(beta_cycle)]
        cfg_att = ModelConfig(variant=Variant.DEEPICF_A, k=k,
                              k_prime=k_prime, num_layers=0, beta=beta)
        params = init_params(cfg_att, 2, num_items, rng)
        flat = rng.normal(0.0, 0.5, size=flatten_params(params, cfg_att).size)
        params = params_from_flat(flat, cfg_att, 2, num_items)
        params["output_weights"][:] = 1.0
        params["user_bias"][:] = 0.0
        params["item_bias"][:] = 0.0
        size = int(rng.integers(2, 8))
        hist = rng.choice(num_items, size=size, replace=False)
        item = int(hist[0])
        logit, _ = predict_logit(params, cfg_att, hist, 0, item)
        masked = [int(j) for j in hist if j != item]
        scores = []
        for j in masked:
            v = params["history_embed"][j] * params["target_embed"][item]
            hidden = np.maximum(params["att_weight"] @ v + params["att_bias"], 0.0)
            scores.append(float(params["att_out"] @ hidden))
        denom = sum(math.exp(s) for s in scores) ** beta
        want = sum(math.exp(s) / denom
                   * float(params["target_embed"][item]
                           @ params["history_embed"][j])
                   for j, s in zip(masked, scores))
        worst_att = max(worst_att, abs(logit - want))
    assert worst_att < 1e-12
    ok(2, f"1000 instances each: plain recovery off by {worst:.1e}, "
          f"attentive recovery off by {worst_att:.1e} (< 1e-12)")


# ---------------------------------------------------------------------------
# 3. Smoothed softmax normalization
# ---------------------------------------------------------------------------

def test_criterion_3_softmax_normalization():
    rng = rng_from_seed(7, "softmax")
    worst = 0.0
    for _ in range(1000):
        scores = rng.normal(0.0, 5.0, size=int(rng.integers(1, 50)))
        worst = max(worst, abs(float(softmax_beta(scores, 1.0).sum()) - 1.0))
    assert worst < 1e-12
    for _ in range(100):
        scores = rng.uniform(-30.0, 30.0, size=int(rng.integers(1, 20)))
        assert np.array_equal(softmax_beta(scores, 0.0), np.exp(scores))
    ok(3, f"beta=1 weight sums off by at most {worst:.1e} over 1000 vectors;"
          " beta=0 denominator exactly 1")


# ---------------------------------------------------------------------------
# 4. Metric oracle
# ---------------------------------------------------------------------------

def test_criterion_4_metric_oracle():
    rng = rng_from_seed(99, "metrics")
    for _ in range(500):
        num = int(rng.integers(2, 101))
        candidates = rng.choice(500, size=num, replace=False)
        scores = np.round(rng.normal(size=500), 1)  # ties guaranteed
        test_item = int(candidates[0])

        def scorer(items):
            return scores[np.asarray(items, dtype=np.int64)]

        got = rank_test_item(scorer, test_item, candidates[1:])
        t = scores[test_item]
        want = 1 + sum(
            1 for c in candidates.tolist()
            if scores[c] > t or (scores[c] == t and c < test_item))
        assert got == want
    assert metrics_at_k(3, 10) == (1, 0.5)
    assert metrics_at_k(1, 10) == (1, 1.0)
    assert metrics_at_k(11, 10) == (0, 0.0)
    ok(4, "500 random candidate sets match the brute-force sort oracle;"
          " rank 3 at k=10 gives NDCG exactly 0.5")


# ---------------------------------------------------------------------------
# 5. Overfit capability
# ---------------------------------------------------------------------------

def overfit_split():
    """32 users, 16 items in three disjoint groups (sizes 4, 5, 7). Every
    member consumes the whole group; within a group one cohort holds out
    the last item and the other the second-to-last, always with the latest
    timestamp. Each held-out item therefore co-occurs with every item of
    its user's history in the full data (the maximum possible count) and
    is trained as a positive by the sibling cohort."""
    groups = [list(range(0, 4)), list(range(4, 9)), list(range(9, 16))]
    per_group = [11, 11, 10]
    histories, tests = [], []
    for items, n_users in zip(groups, per_group):
        for j in range(n_users):
            test_item = items[-1] if j % 2 == 0 else items[-2]
            others = [i for i in items if i != test_item]
            hist = [(item, t + 1) for t, item in enumerate(others)]
            hist.append((test_item, 100))
            histories.append(hist)
            tests.append(test_item)
    train = InteractionDataset(
        user_ids=[f"u{u}" for u in range(32)],
        item_ids=[f"i{i}" for i in range(16)],
        items_per_user=[[i for i, _ in h if i != t]
                        for h, t in zip(histories, tests)],
        times_per_user=[[ts for i, ts in h if i != t]
                        for h, t in zip(histories, tests)])
    # rank the held-out item against every item the user never touched
    negatives = []
    for u, t in enumerate(tests):
        mask = np.ones(16, dtype=bool)
        mask[train.history_items(u)] = False
        mask[t] = False
        negatives.append(np.flatnonzero(mask).astype(np.int64))
    return LooSplit(train=train, test_items=np.asarray(tests, np.int64),
                    eval_negatives=negatives)


def test_criterion_5_overfit_capability():
    started = time.perf_counter()
    split = overfit_split()
    lengths = sorted({split.train.history_items(u).size + 1
                      for u in range(32)})
    assert lengths[0] >= 4 and lengths[-1] <= 8
    cfg = ModelConfig(variant=Variant.DEEPICF, k=8, num_layers=2, alpha=0.0,
                      num_negatives=4, lr=0.05, epochs=500, seed=7,
                      pretrain=True, pretrain_epochs=60)
    params = pretrain_and_init(cfg, split)
    params, report = fit(cfg, split, params=params)
    elapsed = time.perf_counter() - started
    final_loss = report.epochs[-1].loss
    result = evaluate(model_scorer_factory(params, cfg, split), split, k=10)
    assert final_loss < 0.05, final_loss
    assert result.hr_at_k == 1.0, result.summary()
    assert elapsed < 60.0, elapsed
    ok(5, f"mean training loss {final_loss:.4f} < 0.05 and HR@10 = 1.0 on"
          f" the planted held-out items in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. End-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_6_pipeline_determinism(tmp_path, capsys):
    log = tmp_path / "log.tsv"
    log.write_text("\n".join(synthetic_lines(num_users=30, num_items=300,
                                             seed=13)) + "\n")
    cfg = tmp_path / "model.cfg"
    cfg.write_text("variant = DeepICF_A\nk = 8\nk_prime = 4\nL = 1\n"
                   "alpha = 0\nbeta = 0.7\nNS = 4\nlr = 0.05\nepochs = 5\n"
                   "seed = 31\n")
    summaries = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        assert main(["split", str(log), "--split", str(base / "sp"),
                     "--seed", "4"]) == 0
        assert main(["train", "--config", str(cfg),
                     "--split", str(base / "sp"),
                     "--checkpoint", str(base / "m.ckpt"),
                     "--metrics", str(base / "m.csv")]) == 0
        assert main(["eval", "--checkpoint", str(base / "m.ckpt"),
                     "--split", str(base / "sp"), "--k", "10"]) == 0
        summaries.append(capsys.readouterr().out.strip())
    for ext in (".train", ".test", ".negatives", ".idmap"):
        assert filecmp.cmp(tmp_path / "one" / f"sp{ext}",
                           tmp_path / "two" / f"sp{ext}", shallow=False)
    one = (tmp_path / "one" / "m.ckpt").read_bytes()
    two = (tmp_path / "two" / "m.ckpt").read_bytes()
    assert one == two
    assert summaries[0] == summaries[1]
    ok(6, f"split/train/eval reruns: checkpoints bit-identical"
          f" ({len(one)} bytes), summaries identical ({summaries[0]})")


# ---------------------------------------------------------------------------
# 7. Desk-scale popularity baseline on MovieLens-1M
# ---------------------------------------------------------------------------

ML1M_SKIP = ("MovieLens-1M ratings file not found; place it at"
             " data/ml-1m/ratings.dat or set ML1M_RATINGS"
             " (see README, section 'Data')")


def test_criterion_7_itempop_on_movielens():
    path = ml1m_ratings_path()
    if path is None:
        pytest.skip(ML1M_SKIP)
    started = time.perf_counter()
    with open(path, encoding="utf-8", errors="replace") as f:
        dataset = parse_interactions(f, fmt="double_colon")
    assert dataset.raw_interactions == 1_000_209
    split = leave_one_out_split(dataset, seed=2012)
    report = evaluate(item_pop_scorer(split.train), split, k=10)
    elapsed = time.perf_counter() - started
    assert abs(report.hr_at_k - 0.4558) <= 0.02, report.summary()
    assert abs(report.ndcg_at_k - 0.2556) <= 0.02, report.summary()
    assert elapsed < 300.0
    ok(7, f"ItemPop on MovieLens-1M: {report.summary()} within 0.02 of the"
          f" reference 0.4558/0.2556 in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Stretch reproduction (optional, hours of runtime)
# ---------------------------------------------------------------------------

def test_criterion_8_stretch_reproduction():
    if os.environ.get("DEEPICF_STRETCH") != "1":
        pytest.skip("stretch reproduction disabled; set DEEPICF_STRETCH=1"
                    " (expect several hours of runtime)")
    path = ml1m_ratings_path()
    if path is None:
        pytest.skip(ML1M_SKIP)
    with open(path, encoding="utf-8", errors="replace") as f:
        dataset = parse_interactions(f, fmt="double_colon")
    split = leave_one_out_split(dataset, seed=2012)

    fism_cfg = ModelConfig(variant=Variant.FISM, k=16, alpha=0.0,
                           num_negatives=4, lr=0.01, epochs=50, seed=1)
    fism_params, _ = fit(fism_cfg, split)
    fism = evaluate(model_scorer_factory(fism_params, fism_cfg, split),
                    split, k=10)
    assert abs(fism.hr_at_k - 0.6685) <= 0.015, fism.summary()

    deep_cfg = ModelConfig(variant=Variant.DEEPICF, k=16, num_layers=3,
                           alpha=0.4, num_negatives=4, lr=0.01, epochs=50,
                           seed=1, pretrain=True, pretrain_epochs=50)
    deep_params = pretrain_and_init(deep_cfg, split)
    deep_params, _ = fit(deep_cfg, split, params=deep_params)
    deep = evaluate(model_scorer_factory(deep_params, deep_cfg, split),
                    split, k=10)
    assert abs(deep.hr_at_k - 0.6881) <= 0.015, deep.summary()
    assert abs(deep.ndcg_at_k - 0.4113) <= 0.015, deep.summary()

    att_cfg = ModelConfig(variant=Variant.DEEPICF_A, k=16, k_prime=8,
                          num_layers=3, beta=0.5, num_negatives=4, lr=0.01,
                          epochs=50, seed=1, pretrain=True,
                          pretrain_epochs=50)
    att_params = pretrain_and_init(att_cfg, split)
    att_params, _ = fit(att_cfg, split, params=att_params)
    att = evaluate(model_scorer_factory(att_params, att_cfg, split),
                   split, k=10)
    assert abs(att.hr_at_k - 0.7084) <= 0.015, att.summary()
    ok(8, f"stretch: FISM {fism.summary()}, deep {deep.summary()},"
          f" attentive {att.summary()}")
