import math

import numpy as np
import pytest

from deepicf.data import leave_one_out_split
from deepicf.errors import EvalError
from deepicf.evaluation import (ItemKnnModel, evaluate,
                                item_knn_fit_and_score, item_pop_scorer,
                                metrics_at_k, model_scorer_factory,
                                rank_test_item)
from deepicf.model import ModelConfig, Variant, init_params
from deepicf.numerics import rng_from_seed, sigmoid

from conftest import make_dataset, synthetic_dataset


def table_scorer(table):
    values = np.asarray(table, dtype=np.float64)

    def scorer(items):
        return values[np.asarray(items, dtype=np.int64)]
    return scorer


def rank_oracle(scores, candidates, test_item):
    """Count of candidates strictly better under (score desc, index asc)."""
    t = scores[test_item]
    better = sum(1 for c in candidates
                 if scores[c] > t or (scores[c] == t and c < test_item))
    return better + 1


class TestRankTestItem:
    def test_strictly_highest_score_ranks_first(self):
        scorer = table_scorer([0.1, 0.9, 0.2, 0.3])
        assert rank_test_item(scorer, 1, [0, 2, 3]) == 1

    def test_all_equal_scores_break_ties_by_index(self):
        scorer = table_scorer([5.0, 5.0, 5.0, 5.0])
        assert rank_test_item(scorer, 0, [1, 2, 3]) == 1
        assert rank_test_item(scorer, 2, [0, 1, 3]) == 3

    def test_matches_brute_force_oracle(self):
        rng = rng_from_seed(17)
        for _ in range(500):
            num = int(rng.integers(2, 40))
            items = rng.choice(200, size=num, replace=False)
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=200), 1)
            test_item = int(items[0])
            got = rank_test_item(table_scorer(scores), test_item, items[1:])
            want = rank_oracle(scores, items.tolist(), test_item)
            assert got == want

    def test_non_finite_score_names_the_item(self):
        scores = np.array([0.0, np.nan, 1.0])
        with pytest.raises(EvalError, match="item 1"):
            rank_test_item(table_scorer(scores), 0, [1, 2])


class TestMetricsAtK:
    def test_top_position(self):
        assert metrics_at_k(1, 10) == (1, 1.0)

    def test_rank_three_gain_is_exactly_half(self):
        hr, ndcg = metrics_at_k(3, 10)
        assert hr == 1
        assert ndcg == 0.5  # 1/log2(4)

    def test_miss(self):
        assert metrics_at_k(11, 10) == (0, 0.0)

    def test_gain_never_exceeds_hit(self):
        for rank in range(1, 30):
            for k in (1, 5, 10):
                hr, ndcg = metrics_at_k(rank, k)
                assert 0.0 <= ndcg <= hr <= 1

    def test_nondecreasing_in_k(self):
        for rank in range(1, 15):
            hits = [metrics_at_k(rank, k)[0] for k in range(1, 20)]
            gains = [metrics_at_k(rank, k)[1] for k in range(1, 20)]
            assert hits == sorted(hits)
            assert gains == sorted(gains)

    def test_rejects_bad_arguments(self):
        with pytest.raises(EvalError):
            metrics_at_k(0, 10)


class TestEvaluate:
    def two_user_split(self):
        ds = make_dataset([[(0, 1), (1, 2)], [(2, 1), (3, 2)]], num_items=20)
        return leave_one_out_split(ds, seed=0, num_negatives=12)

    def test_mean_of_metrics(self):
        split = self.two_user_split()

        def factory(user):
            # user 0's test item tops the list; user 1's test item is
            # pushed below ten candidates
            test = int(split.test_items[user])

            def scorer(items):
                items = np.asarray(items, dtype=np.int64)
                if user == 0:
                    return np.where(items == test, 1.0, 0.0)
                return np.where(items == test, -100.0, -items.astype(float))
            return scorer

        report = evaluate(factory, split, k=10)
        assert report.per_user[0][1] == 1
        assert report.per_user[1][1] > 10
        assert report.hr_at_k == 0.5
        assert report.ndcg_at_k == 0.5

    def test_repeat_runs_identical(self, small_split):
        factory = item_pop_scorer(small_split.train)
        a = evaluate(factory, small_split, k=10)
        b = evaluate(factory, small_split, k=10)
        assert a.per_user == b.per_user
        assert (a.hr_at_k, a.ndcg_at_k) == (b.hr_at_k, b.ndcg_at_k)

    def test_ranking_invariant_under_sigmoid(self, small_split):
        cfg = ModelConfig(variant=Variant.FISM, k=6)
        params = init_params(cfg, small_split.train.num_users,
                             small_split.train.num_items, rng_from_seed(5))
        params["target_embed"][:] = rng_from_seed(6).normal(
            0, 0.5, params["target_embed"].shape)
        params["history_embed"][:] = rng_from_seed(7).normal(
            0, 0.5, params["history_embed"].shape)
        raw = model_scorer_factory(params, cfg, small_split)

        def squashed(user):
            inner = raw(user)
            return lambda items: sigmoid(inner(items))

        a = evaluate(raw, small_split, k=10)
        b = evaluate(squashed, small_split, k=10)
        assert a.per_user == b.per_user

    def test_report_csv(self, tmp_path, small_split):
        report = evaluate(item_pop_scorer(small_split.train), small_split, 10)
        out = tmp_path / "report.csv"
        report.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "user,rank"
        assert len(lines) == small_split.train.num_users + 2
        assert lines[-1].startswith("# HR@10=")


    def test_report_csv_failing_midway_leaves_previous_file(self, tmp_path,
                                                            small_split):
        report = evaluate(item_pop_scorer(small_split.train), small_split, 10)
        out = tmp_path / "report.csv"
        report.write_csv(out)
        before = out.read_bytes()

        class Unwritable:
            def __format__(self, spec):
                raise RuntimeError("cannot write")

        report.per_user[3:3] = [(99, Unwritable())]
        with pytest.raises(RuntimeError, match="cannot write"):
            report.write_csv(out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


class TestItemPop:
    def test_uninteracted_item_scores_zero(self):
        ds = make_dataset([[(0, 1), (1, 2)]], num_items=4)
        scorer = item_pop_scorer(ds)(0)
        assert scorer(np.array([3]))[0] == 0.0

    def test_orders_by_count(self):
        ds = make_dataset([
            [(0, 1), (2, 2)], [(2, 1), (0, 2)], [(2, 3), (1, 1)],
            [(2, 4), (0, 5)], [(1, 1), (2, 2)],
        ], num_items=3)
        # counts: item0=3, item1=2, item2=5
        scorer = item_pop_scorer(ds)(0)
        scores = scorer(np.array([0, 1, 2]))
        assert np.array_equal(scores, [3.0, 2.0, 5.0])
        assert list(np.argsort(-scores)) == [2, 0, 1]


class TestItemKnn:
    def test_identical_incidence_gives_similarity_one(self):
        ds = make_dataset([[(0, 1), (1, 2)], [(0, 3), (1, 4)]], num_items=3)
        model = ItemKnnModel(ds)
        assert model.similarity(0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_incidence_gives_zero(self):
        ds = make_dataset([[(0, 1)], [(1, 1)]], num_items=2)
        model = ItemKnnModel(ds)
        assert model.similarity(0, 1) == 0.0

    def test_partial_overlap_hand_value(self):
        # item 0 has 4 users, item 1 has 1 user, overlap 1 -> 1/sqrt(4)=0.5
        ds = make_dataset([
            [(0, 1), (1, 2)], [(0, 1)], [(0, 1)], [(0, 1)],
        ], num_items=2)
        model = ItemKnnModel(ds)
        assert model.similarity(0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_zero_interaction_item_guarded(self):
        ds = make_dataset([[(0, 1), (1, 2)]], num_items=3)
        model = ItemKnnModel(ds)
        assert model.similarity(2, 0) == 0.0
        assert [model.similarity(2, j) for j in range(3)] == [0.0] * 3

    def test_scores_sum_history_similarities(self):
        ds = synthetic_dataset(num_users=12, num_items=40, seed=9)
        model, factory = item_knn_fit_and_score(ds)
        user = 3
        hist = ds.history_items(user)
        # the last candidate is from the user's own history: it scores as
        # the sum over the rest of the history, without self-similarity
        cands = np.array([i for i in range(40)
                          if i not in set(hist.tolist())][:10]
                         + [int(hist[0])])
        got = factory(user)(cands)
        want = [sum(model.similarity(int(c), int(j)) for j in hist if j != c)
                for c in cands]
        assert np.abs(got - np.array(want)).max() < 1e-12

    def test_matches_set_oracle(self):
        # item 6 is untouched; in row 0, items 3 and 4 tie
        hand = [[0, 1, 3], [0, 1], [0, 1, 4], [0, 1], [3, 2, 5], [4, 2]]
        inputs = [(hand, 7)]
        # synthetic logs plus one single-item user and one untouched item
        for seed in (1, 2, 9):
            ds = synthetic_dataset(num_users=12, num_items=40, seed=seed)
            histories = [h.tolist() for h in ds.item_arrays()] + [[0]]
            inputs.append((histories, ds.num_items + 1))
        for histories, num_items in inputs:
            ds = make_dataset([[(i, t) for t, i in enumerate(h)]
                               for h in histories], num_items=num_items)
            model = ItemKnnModel(ds)
            if histories is hand:
                # row 0 is 1.0 at item 1, then the tie
                assert model.similarity(0, 1) == 1.0
                assert model.similarity(0, 3) == model.similarity(0, 4) > 0.0
            users = [{u for u, h in enumerate(histories) if i in h}
                     for i in range(num_items)]

            def cosine(i, j):
                if i == j or not users[i] or not users[j]:
                    return 0.0
                return (len(users[i] & users[j])
                        / math.sqrt(len(users[i]) * len(users[j])))

            # the same formula over dense co-occurrence counts X.T @ X
            incidence = np.zeros((len(histories), num_items))
            for u, h in enumerate(histories):
                incidence[u, h] = 1.0
            counts = incidence.sum(axis=0)
            inv_sqrt = np.zeros(num_items)
            inv_sqrt[counts > 0] = 1.0 / np.sqrt(counts[counts > 0])
            exact = (incidence.T @ incidence) * inv_sqrt
            np.fill_diagonal(exact, 0.0)
            exact *= inv_sqrt[:, None]

            untouched = num_items - 1
            assert not users[untouched]
            for i in range(num_items):
                for j in range(num_items):
                    got = model.similarity(i, j)
                    assert abs(got - cosine(i, j)) <= 1e-12
                    assert got == exact[i, j]
                assert model.similarity(i, i) == 0.0
                assert (model.similarity(i, untouched)
                        == model.similarity(untouched, i) == 0.0)

    def test_symmetry(self):
        ds = synthetic_dataset(num_users=10, num_items=30, seed=2)
        model = ItemKnnModel(ds)
        for i, j in [(1, 7), (4, 9), (0, 20)]:
            assert model.similarity(i, j) == pytest.approx(
                model.similarity(j, i), abs=1e-12)


class TestReportInvariants:
    def test_ndcg_bounded_by_hr_in_aggregate(self, small_split):
        report = evaluate(item_pop_scorer(small_split.train), small_split, 10)
        assert 0.0 <= report.ndcg_at_k <= report.hr_at_k <= 1.0

    def test_hr_monotone_in_k(self, small_split):
        factory = item_pop_scorer(small_split.train)
        r1 = evaluate(factory, small_split, k=1)
        r10 = evaluate(factory, small_split, k=10)
        assert r1.hr_at_k <= r10.hr_at_k
        assert r1.ndcg_at_k <= r10.ndcg_at_k


class TestCheckpointOracleEquivalence:
    def test_fism_checkpoint_ranks_match_brute_force(self, tmp_path,
                                                     small_split):
        from deepicf.checkpoint import load_checkpoint, save_checkpoint

        cfg = ModelConfig(variant=Variant.FISM, k=6, alpha=0.5)
        params = init_params(cfg, small_split.train.num_users,
                             small_split.train.num_items, rng_from_seed(8))
        rng = rng_from_seed(9)
        params["target_embed"][:] = rng.normal(0, 0.5, params["target_embed"].shape)
        params["history_embed"][:] = rng.normal(0, 0.5,
                                             params["history_embed"].shape)
        params["user_bias"][:] = rng.normal(0, 0.1, params["user_bias"].shape)
        params["item_bias"][:] = rng.normal(0, 0.1, params["item_bias"].shape)
        path = tmp_path / "fism.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg, _, _ = load_checkpoint(path)
        report = evaluate(model_scorer_factory(loaded, loaded_cfg,
                                               small_split),
                          small_split, k=10)

        # independent straight-line scorer: normalized sum of inner
        # products over the (masked) history, plus biases
        def brute_scores(user, items):
            hist = small_split.train.history_items(user)
            out = []
            for c in items.tolist():
                masked = [j for j in hist.tolist() if j != c]
                total = sum(float(params["target_embed"][c]
                                  @ params["history_embed"][j])
                            for j in masked)
                scale = len(masked) ** -0.5 if masked else 1.0
                out.append(scale * total + float(params["user_bias"][user])
                           + float(params["item_bias"][c]))
            return np.asarray(out)

        for user, rank in report.per_user:
            negs = small_split.eval_negatives[user]
            test = int(small_split.test_items[user])
            cands = np.concatenate(([test], negs))
            scores = brute_scores(user, cands)
            order = np.lexsort((cands, -scores))
            want = int(np.nonzero(cands[order] == test)[0][0]) + 1
            assert rank == want
