import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepicf import evaluation, model
from deepicf.data import InteractionDataset, LooSplit, leave_one_out_split
from deepicf.errors import EvalError, TrainingDiverged
from deepicf.evaluation import (ItemKnnModel, dense_users, evaluate,
                                item_knn_fit_and_score, item_pop_scorer,
                                metrics_at_k, model_scorer_factory,
                                rank_test_item)
from deepicf.model import ModelConfig, Variant, init_params
from deepicf.numerics import rng_from_seed, sigmoid

import per_user
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

    def test_ties_count_candidates_scored_as_the_test_item(self):
        split = self.two_user_split()
        test = [int(t) for t in split.test_items]
        negatives = [row.tolist() for row in split.eval_negatives]
        # user 0 scores every candidate alike; user 1 scores its test item
        # and its first two negatives alike, above the rest
        tied = [negatives[0], negatives[1][:2]]

        def factory(user):
            def scorer(items):
                return np.isin(items, [test[user], *tied[user]]) * 1.0
            return scorer

        report = evaluate(factory, split, k=10)
        assert report.ties == 12 + 2
        assert report.per_user == [
            (user, 1 + sum(item < test[user] for item in tied[user]))
            for user in (0, 1)]
        assert report.summary() == (f"HR@10={report.hr_at_k:.4f}"
                                    f" NDCG@10={report.ndcg_at_k:.4f}")

    @pytest.mark.parametrize("bad,message", [
        (lambda items: np.zeros(items.size + 1),
         "scorer returned shape (14,) for (13,) items"),
        (lambda items: np.zeros((items.size, 1)),
         "scorer returned shape (13, 1) for (13,) items"),
        (lambda items: np.where(items == items[2], np.nan, items * 0.5),
         "non-finite score for item {}"),
    ], ids=["long", "column", "nan"])
    def test_bad_plain_scorer_is_an_eval_error(self, bad, message):
        # user 0's scorer is bad and user 1's sound; the error is the
        # same whether the scorer is ranked alone or by evaluate
        split = self.two_user_split()
        message = message.format(split.eval_negatives[0][1])
        table = table_scorer(np.arange(20.0))
        with pytest.raises(EvalError) as alone:
            rank_test_item(bad, split.test_items[0], split.eval_negatives[0])
        with pytest.raises(EvalError) as got:
            evaluate(lambda user: bad if user == 0 else table, split)
        assert str(alone.value) == str(got.value) == message

    def test_split_without_users_is_an_eval_error(self):
        empty = LooSplit(make_dataset([], num_items=5),
                         np.empty(0, dtype=np.int64), [])
        with pytest.raises(EvalError, match="split has no users"):
            evaluate(lambda user: table_scorer(np.zeros(5)), empty)

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


@st.composite
def knn_logs(draw):
    """(histories, num_items): up to 12 users over a catalog of 1 to 40
    items, each history of distinct items, empty to the whole catalog."""
    num_items = draw(st.integers(1, 40))
    histories = draw(st.lists(
        st.lists(st.integers(0, num_items - 1), unique=True,
                 max_size=num_items),
        min_size=1, max_size=12))
    return histories, num_items


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
        # the same sums as the (items, hist) block of the counts picked
        # with np.ix_, each count times its column's factor
        block = model._counts[np.ix_(cands, hist)] * model._inv_sqrt[hist]
        assert np.array_equal(got, block.sum(axis=1) * model._inv_sqrt[cands])

    def test_row_gather_switch_keeps_every_bit(self, monkeypatch):
        # histories of 1 to 30 of 40 items: at a share of 0 every user is
        # scored from whole count rows, at 1 by the flat gather, and at the
        # default share (2 items here) some of each; candidates inside
        # and outside each history give the same scores to the bit
        rng = rng_from_seed(61)
        ds = make_dataset([list(zip(rng.choice(40, size=n, replace=False)
                                    .tolist(), range(n)))
                           for n in (1, 2, 3, 10, 30, 2, 17)], num_items=40)
        _, factory = item_knn_fit_and_score(ds)
        cands = [np.concatenate((ds.history_items(u)[:2],
                                 rng.choice(40, size=25)))
                 for u in range(ds.num_users)]
        lengths = np.array([h.size for h in ds.item_arrays()])
        default = evaluation.ROW_GATHER_SHARE
        assert (lengths > default * 40).any()
        assert (lengths <= default * 40).any()
        scores = {}
        for share in (0.0, 1.0, default):
            monkeypatch.setattr(evaluation, "ROW_GATHER_SHARE", share)
            scores[share] = [factory(u)(c).tobytes()
                             for u, c in enumerate(cands)]
        assert scores[0.0] == scores[1.0] == scores[default]

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log=knn_logs())
    # users on both sides of the routing rule (n > 2 is dense at 20 items),
    # one of them holding every item
    @example(log=([list(range(20)), [3], [4, 5], [1, 7, 9], [0]], 20))
    # no dense user, and items 5 to 39 held by nobody
    @example(log=([[0, 1, 2, 3], [4], [], [1, 2]], 40))
    @example(log=([[0, 1], [1, 2, 3], list(range(10))], 10))  # all dense
    @example(log=([[0], [1], [0], [2]], 4))                  # one item each
    # 255 users fill a uint8 count, by the product and by the bincounts
    @example(log=([[0, 1]] * 255, 2))
    @example(log=([[0, 1]] * 255, 30))
    def test_routed_fit_matches_float64_product(self, log):
        histories, num_items = log
        ds = make_dataset([[(i, t) for t, i in enumerate(h)]
                           for h in histories], num_items=num_items)
        incidence = np.zeros((len(histories), num_items))
        for u, h in enumerate(histories):
            incidence[u, h] = 1.0
        counts = incidence.sum(axis=0)
        inv_sqrt = np.zeros(num_items)
        inv_sqrt[counts > 0] = 1.0 / np.sqrt(counts[counts > 0])
        exact = incidence.T @ incidence
        np.fill_diagonal(exact, 0.0)

        def assert_exact(model):
            assert model._counts.dtype == np.min_scalar_type(len(histories))
            assert np.array_equal(model._counts, exact)
            # the column-scaled counts, to the bit
            assert np.array_equal(model._counts * model._inv_sqrt,
                                  exact * inv_sqrt)
        assert_exact(ItemKnnModel(ds))
        # with item blocks of 3 rows and products of 2 users
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "_DENSE_ROWS", 3)
            patch.setattr(evaluation, "_EXACT_USERS", 2)
            assert_exact(ItemKnnModel(ds))

    @pytest.mark.parametrize("budget", [1599, 1600])
    def test_counts_over_the_budget_are_refused(self, monkeypatch, budget):
        # three users take uint8 counts: 40 * 40 bytes
        ds = make_dataset([[(0, 1), (1, 2)], [(1, 1)], [(2, 1), (0, 2)]],
                          num_items=40)
        monkeypatch.setattr(evaluation, "KNN_COUNT_BYTES", budget)
        if budget >= 1600:
            assert ItemKnnModel(ds)._counts.nbytes == budget
            return
        with pytest.raises(EvalError) as err:
            ItemKnnModel(ds)
        assert str(err.value) == ("ItemKNN over 40 items needs 1600 bytes of"
                                  " co-occurrence counts, over its budget of"
                                  " 1599 bytes")

    def test_a_50000_item_catalog_is_refused_before_allocating(self):
        # 2.5 GB of uint8 counts, which np.zeros might grant lazily
        ds = make_dataset([[(0, 1), (49_999, 2)]], num_items=50_000)
        with pytest.raises(EvalError, match="needs 2500000000 bytes"):
            ItemKnnModel(ds)

    @pytest.mark.parametrize("num_items,longest_sparse", [
        (1, 0), (9, 0), (10, 1), (30, 3), (31, 3), (100, 10), (3706, 370),
        (9916, 991)])
    def test_routes_histories_over_a_tenth_of_the_catalog(
            self, num_items, longest_sparse):
        lengths = [0, 1, longest_sparse, longest_sparse + 1, num_items]
        assert dense_users(lengths, num_items).tolist() == [
            n > longest_sparse for n in lengths]

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


# configs of the block path: FISM and DeepICF at alpha 0 and 0.5, DeepICF
# at L = 0 and 3, and DeepICF_A at L = 0 and 3
BLOCK_CONFIGS = [
    dict(variant=Variant.FISM, alpha=0.0),
    dict(variant=Variant.FISM, alpha=0.5),
    dict(variant=Variant.DEEPICF, num_layers=0, alpha=0.0),
    dict(variant=Variant.DEEPICF, num_layers=0, alpha=0.5),
    dict(variant=Variant.DEEPICF, num_layers=3, alpha=0.0),
    dict(variant=Variant.DEEPICF, num_layers=3, alpha=0.5),
    dict(variant=Variant.DEEPICF_A, num_layers=0),
    dict(variant=Variant.DEEPICF_A, num_layers=3),
]
BLOCK_IDS = [f"{c['variant'].value}-L{c.get('num_layers', 0)}"
             f"-a{c.get('alpha', 0.0)}" for c in BLOCK_CONFIGS]


def edge_split():
    """A split whose rows hold the block path's edge cases: `.negatives`
    rows of different lengths, an empty history (user 4), a negative
    inside its own history (user 7) and a test item inside its own
    history (user 9)."""
    split = leave_one_out_split(
        synthetic_dataset(num_users=24, num_items=60, seed=11), seed=3,
        num_negatives=20)
    train = split.train
    rng = rng_from_seed(12)
    items = [train.history_items(u).copy() for u in range(train.num_users)]
    times = [train.history_times(u).copy() for u in range(train.num_users)]
    items[4], times[4] = items[4][:0], times[4][:0]
    negatives = [row[:int(rng.integers(1, row.size + 1))].copy()
                 for row in split.eval_negatives]
    negatives[7] = np.append(negatives[7], items[7][0])
    test_items = split.test_items.copy()
    test_items[9] = items[9][1]
    return LooSplit(
        train=InteractionDataset(train.user_ids, train.item_ids, items, times),
        test_items=test_items, eval_negatives=negatives)


def random_params(config, split, seed):
    """Parameters at O(1) scale, so that no two scores tie by accident."""
    train = split.train
    params = init_params(config, train.num_users, train.num_items,
                         rng_from_seed(seed))
    params.flat[:] = rng_from_seed(seed, "flat").normal(0.0, 0.4,
                                                        params.flat.size)
    if not config.trains_output_weights:
        params["output_weights"] = np.ones(config.output_dim)
    return params


def block_config(spec):
    return ModelConfig(k=6, k_prime=4, **spec)


def assert_same_report(got, want):
    assert got.per_user == want.per_user
    assert (got.hr_at_k, got.ndcg_at_k) == (want.hr_at_k, want.ndcg_at_k)


def all_candidates(split):
    """Every user's test item followed by its negatives."""
    return [np.concatenate(([split.test_items[u]], split.eval_negatives[u]))
            for u in range(split.train.num_users)]


def assert_scores_match_forward(params, cfg, split, users, got):
    """``got`` holds the candidates' scores of ``users`` in turn, within
    1e-12 of one ``predict_logit`` call per user."""
    cands = all_candidates(split)
    oracle = per_user.forward_scorer_factory(params, cfg, split)
    want = np.concatenate([oracle(int(u))(cands[u]) for u in users])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestBlockEvaluate:
    """The blocked :func:`evaluate` against the per-user oracle in
    ``tests/per_user.py``, whose scorer is the per-user forward pass:
    scores within 1e-12, and the same ranks, HR and NDCG to the bit."""

    @pytest.mark.parametrize("spec", BLOCK_CONFIGS, ids=BLOCK_IDS)
    def test_matches_per_user_oracle(self, spec, monkeypatch):
        split = edge_split()
        cfg = block_config(spec)
        params = random_params(cfg, split, 21)
        factory = model_scorer_factory(params, cfg, split)
        want = per_user.evaluate(
            per_user.forward_scorer_factory(params, cfg, split), split, k=5)
        histories = split.train.item_arrays()
        cands = all_candidates(split)
        users = np.arange(split.train.num_users)
        blocks = []
        real = model._score_block

        def counted(*args):
            blocks.append((args[3].size, args[4].size))
            return real(*args)

        monkeypatch.setattr(model, "_score_block", counted)
        # one block, then blocks whose boundaries fall inside the split;
        # at the small budgets every variant scores a user's candidates in
        # pieces, each a user of its own
        for budget, one_block in ((model.SCORE_BLOCK_BYTES, True),
                                  (4000, False), (1, False)):
            monkeypatch.setattr(model, "SCORE_BLOCK_BYTES", budget)
            blocks.clear()
            assert_same_report(evaluate(factory, split, k=5), want)
            entries, scored = np.sum(blocks, axis=0)
            assert scored == sum(c.size for c in cands)
            assert entries >= split.train.num_users
            assert entries == split.train.num_users or not one_block
            assert (len(blocks) == 1) == one_block
            assert_scores_match_forward(params, cfg, split, users,
                                        model._score_users(
                                            params, cfg, histories, users,
                                            np.concatenate(cands),
                                            [c.size for c in cands]))

    @pytest.mark.parametrize("spec", BLOCK_CONFIGS, ids=BLOCK_IDS)
    def test_exact_ties_break_by_index(self, spec):
        split = edge_split()
        cfg = block_config(spec)
        params = random_params(cfg, split, 22)
        # zeroed embeddings leave a score of biases alone, and the item
        # biases take three values, so most candidates tie
        params["target_embed"] = np.zeros_like(params["target_embed"])
        params["history_embed"] = np.zeros_like(params["history_embed"])
        params["item_bias"] = rng_from_seed(23).integers(
            0, 3, split.train.num_items) * 0.5
        report = evaluate(model_scorer_factory(params, cfg, split), split,
                          k=5)
        want = per_user.evaluate(
            per_user.forward_scorer_factory(params, cfg, split), split, k=5)
        assert_same_report(report, want)
        assert len({rank for _, rank in report.per_user}) > 3
        assert report.ties == want.ties > 0

    def test_item_pop_ties_match_oracle(self, small_split):
        factory = item_pop_scorer(small_split.train)
        report = evaluate(factory, small_split, k=10)
        want = per_user.evaluate(factory, small_split, k=10)
        assert_same_report(report, want)
        assert report.ties == want.ties > 0

    @pytest.mark.parametrize("spec", BLOCK_CONFIGS, ids=BLOCK_IDS)
    def test_non_finite_score_names_the_oracle_item(self, spec):
        split = edge_split()
        cfg = block_config(spec)
        params = random_params(cfg, split, 24)
        # two bad items: the third negative of user 5 and user 8's test
        # item; user 5 comes first, and its bad item is not its first
        # candidate
        for item in (split.eval_negatives[5][2], split.test_items[8]):
            params["item_bias"][item] = np.nan
        with pytest.raises(EvalError) as want:
            per_user.evaluate(
                per_user.forward_scorer_factory(params, cfg, split), split)
        with pytest.raises(EvalError) as got:
            evaluate(model_scorer_factory(params, cfg, split), split)
        assert str(got.value) == str(want.value)
        assert "non-finite score for item" in str(got.value)

    @pytest.mark.parametrize("spec", BLOCK_CONFIGS, ids=BLOCK_IDS)
    def test_user_scores_equal_alone_and_in_any_block(self, spec,
                                                      monkeypatch):
        split = edge_split()
        # the benchmark's k, at which a matrix-vector product rounds a
        # row differently with the rows beside it
        cfg = ModelConfig(k=16, k_prime=4, **spec)
        params = random_params(cfg, split, 25)
        histories = split.train.item_arrays()
        cands = all_candidates(split)
        alone = [model._score_users(params, cfg, [histories[u]], [u],
                                    cands[u], [cands[u].size])
                 for u in range(split.train.num_users)]
        assert_scores_match_forward(params, cfg, split,
                                    range(split.train.num_users),
                                    np.concatenate(alone))
        # smaller budgets cut the users into more blocks, and their
        # candidates into pieces; the histories here are under 32 rows,
        # as DeepICF_A's pieces need
        rng = rng_from_seed(26)
        for budget in (model.SCORE_BLOCK_BYTES, 4000, 1):
            monkeypatch.setattr(model, "SCORE_BLOCK_BYTES", budget)
            for _ in range(6):
                users = rng.permutation(split.train.num_users)[
                    :int(rng.integers(2, split.train.num_users + 1))]
                got = model._score_users(
                    params, cfg, [histories[u] for u in users], users,
                    np.concatenate([cands[u] for u in users]),
                    [cands[u].size for u in users])
                ends = np.cumsum([cands[u].size for u in users])
                for user, part in zip(users, np.split(got, ends[:-1])):
                    assert np.array_equal(part, alone[user])
                    assert np.array_equal(part, model_scorer_factory(
                        params, cfg, split)(int(user))(cands[user]))

    @pytest.mark.parametrize("k", [32, 64])
    def test_wide_embeddings_rank_alike_in_a_block_and_alone(self, k):
        # From an inner dimension of 32, OpenBLAS may round a row of a
        # product differently with the rows beside it, so the scores are
        # compared within a bound, and the ranks exactly.
        split = edge_split()
        cfg = ModelConfig(variant=Variant.DEEPICF, k=k, num_layers=2,
                          alpha=0.5)
        params = random_params(cfg, split, 29)
        histories = split.train.item_arrays()
        cands = all_candidates(split)
        items = np.concatenate(cands)
        starts = np.cumsum([0] + [c.size for c in cands[:-1]])
        block = model._score_users(params, cfg, histories,
                                   np.arange(split.train.num_users), items,
                                   [c.size for c in cands])
        alone = np.concatenate([
            model.score_items(params, cfg, histories[u], u, cands[u])
            for u in range(split.train.num_users)])
        np.testing.assert_allclose(block, alone, rtol=1e-12, atol=1e-12)
        ranks, ties = evaluation._count_ranks(items, block, starts)
        want_ranks, want_ties = evaluation._count_ranks(items, alone, starts)
        assert np.array_equal(ranks, want_ranks) and ties == want_ties

    @pytest.mark.parametrize("variant", list(Variant))
    def test_width_32_matches_per_user_oracle(self, variant):
        # k = 32 and a tower layer 32 wide, the inner dimensions from which
        # OpenBLAS may round a row differently with the rows beside it
        split = edge_split()
        layers = {} if variant is Variant.FISM else dict(
            num_layers=2, layer_sizes=(32, 8))
        cfg = ModelConfig(variant=variant, k=32, k_prime=4, **layers)
        params = random_params(cfg, split, 30)
        params.flat[:] *= 0.5   # keeps the tower's logits O(1)
        assert_same_report(
            evaluate(model_scorer_factory(params, cfg, split), split, k=5),
            per_user.evaluate(
                per_user.forward_scorer_factory(params, cfg, split), split,
                k=5))
        cands = all_candidates(split)
        users = np.arange(split.train.num_users)
        assert_scores_match_forward(
            params, cfg, split, users, model._score_users(
                params, cfg, split.train.item_arrays(), users,
                np.concatenate(cands), [c.size for c in cands]))

    @pytest.mark.parametrize("budget", [model.SCORE_BLOCK_BYTES, 1])
    def test_attention_edge_cases_match_per_user_oracle(self, budget,
                                                         monkeypatch):
        # an empty history (user 4), a one-row history (user 5), a
        # candidate inside its history (users 7 and 9), and k' = 1 with a
        # user of one candidate (user 6), in one block and in pieces
        split = edge_split()
        items = list(split.train.item_arrays())
        times = [split.train.history_times(u)
                 for u in range(split.train.num_users)]
        items[5], times[5] = items[5][:1], times[5][:1]
        negatives = list(split.eval_negatives)
        negatives[6] = negatives[6][:0]
        split = LooSplit(
            train=InteractionDataset(split.train.user_ids,
                                     split.train.item_ids, items, times),
            test_items=split.test_items, eval_negatives=negatives)
        cfg = ModelConfig(variant=Variant.DEEPICF_A, k=6, k_prime=1,
                          num_layers=2)
        params = random_params(cfg, split, 31)
        want = per_user.evaluate(
            per_user.forward_scorer_factory(params, cfg, split), split, k=5)
        monkeypatch.setattr(model, "SCORE_BLOCK_BYTES", budget)
        assert_same_report(
            evaluate(model_scorer_factory(params, cfg, split), split, k=5),
            want)
        cands = all_candidates(split)
        users = np.arange(split.train.num_users)
        assert_scores_match_forward(
            params, cfg, split, users, model._score_users(
                params, cfg, split.train.item_arrays(), users,
                np.concatenate(cands), [c.size for c in cands]))
        assert model.score_items(params, cfg, items[6], 6,
                                 cands[6]).shape == (1,)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_one_model_is_one_score_users_call(self, variant, monkeypatch):
        # the ranking throughput rests on scoring every user of a model
        # factory in one call; a scorer of another kind in the factory
        # makes every scorer be called on its own
        split = edge_split()
        layers = {} if variant is Variant.FISM else dict(num_layers=2)
        cfg = block_config(dict(variant=variant, **layers))
        params = random_params(cfg, split, 32)
        want = per_user.evaluate(
            per_user.forward_scorer_factory(params, cfg, split), split, k=5)
        factory = model_scorer_factory(params, cfg, split)
        calls = []
        real = evaluation._score_users

        def counted(*args):
            calls.append(len(args[3]))
            return real(*args)

        def wrapped(user):
            scorer = factory(user)
            return (lambda items: scorer(items)) if user == 0 else scorer

        monkeypatch.setattr(evaluation, "_score_users", counted)
        assert split.train.num_users >= 2
        assert_same_report(evaluate(factory, split, k=5), want)
        assert calls == [split.train.num_users]
        calls.clear()
        assert_same_report(evaluate(wrapped, split, k=5), want)
        assert calls == []

    def test_mixed_scorers_match_oracle(self):
        split = edge_split()
        fism = block_config(dict(variant=Variant.FISM, alpha=0.5))
        deep = block_config(dict(variant=Variant.DEEPICF, num_layers=3))
        params = [random_params(cfg, split, seed)
                  for cfg, seed in ((fism, 27), (deep, 28))]
        models = [model_scorer_factory(p, cfg, split)
                  for p, cfg in zip(params, (fism, deep))]
        oracles = [per_user.forward_scorer_factory(p, cfg, split)
                   for p, cfg in zip(params, (fism, deep))]

        def factory(user):
            scorer = models[user // 10 % 2](user)
            if user % 7 == 3:   # a wrapped scorer is called on its own
                return lambda items: scorer(items)
            return scorer

        assert_same_report(
            evaluate(factory, split, k=5),
            per_user.evaluate(lambda user: oracles[user // 10 % 2](user),
                              split, k=5))


def nan_attention_split():
    return leave_one_out_split(
        synthetic_dataset(num_users=20, num_items=120, seed=31), seed=4,
        num_negatives=20)


def nan_attention_params(case, split):
    """DeepICF_A parameters with a NaN in the attention net's output
    vector, which makes every attention score NaN, or in the target row
    of user 2's first training item, which makes that item's scores NaN;
    and the item that evaluation should name."""
    cfg = block_config(dict(variant=Variant.DEEPICF_A, num_layers=1))
    params = random_params(cfg, split, 41)
    if case == "att-out":
        params["att_out"][0] = np.nan
        return cfg, params, int(split.test_items[0])
    item = int(split.train.history_items(2)[0])
    params["target_embed"][item, 0] = np.nan
    return cfg, params, item


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["att-out", "target-row"])
class TestNonFiniteAttention:
    """An attention score that is not finite reaches the named errors of
    evaluation, training and the CLI, not a finite metric."""

    def test_evaluate_names_the_item(self, case):
        split = nan_attention_split()
        cfg, params, item = nan_attention_params(case, split)
        with pytest.raises(EvalError) as want:
            per_user.evaluate(
                per_user.forward_scorer_factory(params, cfg, split), split)
        with pytest.raises(EvalError) as got:
            evaluate(model_scorer_factory(params, cfg, split), split)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"non-finite score for item {item}"

    def test_fit_diverges(self, case):
        from deepicf.training import fit

        split = nan_attention_split()
        cfg, params, _ = nan_attention_params(case, split)
        cfg = dataclasses.replace(cfg, epochs=1, num_negatives=1)
        with pytest.raises(TrainingDiverged) as err:
            fit(cfg, split, params=params)
        assert math.isnan(err.value.logit)

    def test_cli_eval_exits_with_the_message(self, case, tmp_path, capsys):
        from deepicf.checkpoint import save_checkpoint
        from deepicf.cli import main
        from deepicf.data import save_split

        split = nan_attention_split()
        cfg, params, item = nan_attention_params(case, split)
        save_split(split, tmp_path / "sp")
        save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        assert main(["eval", "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--split", str(tmp_path / "sp")]) == 1
        # the checkpoint's NaN is refused as it loads, before any scoring
        entry = ("att_out[0]" if case == "att-out"
                 else f"target_embed[{item}, 0]")
        assert (f"{tmp_path / 'm.ckpt'}: {entry} is nan, not a finite number"
                in capsys.readouterr().err)


class TestEndToEndRanks:
    """The ranks that reach a user through the CLI and ``fit`` are the
    per-user oracle's."""

    def test_cli_eval_writes_oracle_ranks(self, tmp_path, capsys):
        from deepicf.checkpoint import load_checkpoint, save_checkpoint
        from deepicf.cli import main
        from deepicf.data import load_split, save_split

        split = leave_one_out_split(
            synthetic_dataset(num_users=30, num_items=160, seed=31), seed=4)
        save_split(split, tmp_path / "sp")
        loaded = load_split(tmp_path / "sp")
        for spec, seed in ((dict(variant=Variant.FISM, alpha=0.5), 32),
                           (dict(variant=Variant.DEEPICF, num_layers=3), 33)):
            cfg = block_config(spec)
            path = tmp_path / f"{cfg.variant.value}.ckpt"
            save_checkpoint(path, random_params(cfg, split, seed), cfg)
            out = tmp_path / f"{cfg.variant.value}.csv"
            assert main(["eval", "--checkpoint", str(path), "--split",
                         str(tmp_path / "sp"), "--metrics", str(out)]) == 0
            params, cfg, _, _ = load_checkpoint(path)
            want = per_user.evaluate(
                per_user.forward_scorer_factory(params, cfg, loaded), loaded,
                k=10)
            rows = out.read_text().splitlines()
            assert rows[1:-1] == [f"{u},{r}" for u, r in want.per_user]
            assert rows[-1] == (f"# HR@10={want.hr_at_k:.6f}"
                                f" NDCG@10={want.ndcg_at_k:.6f}")
            assert capsys.readouterr().out == (
                f"{want.summary()}\nties={want.ties}\n")

    @pytest.mark.parametrize("spec", [
        dict(variant=Variant.FISM, alpha=0.5),
        dict(variant=Variant.DEEPICF, num_layers=2)])
    def test_fit_reports_oracle_metrics(self, spec, small_split):
        from deepicf.training import EVAL_K, fit

        cfg = ModelConfig(k=6, epochs=2, eval_every=1, lr=0.05, seed=5,
                          **spec)
        seen = []

        def on_epoch(stats):
            want = per_user.evaluate(
                per_user.forward_scorer_factory(params_now.clone(), cfg,
                                                small_split),
                small_split, k=EVAL_K)
            seen.append((stats.hr, stats.ndcg, want.hr_at_k, want.ndcg_at_k))

        params_now = init_params(cfg, small_split.train.num_users,
                                 small_split.train.num_items,
                                 rng_from_seed(cfg.seed))
        fit(cfg, small_split, params=params_now, on_epoch=on_epoch)
        assert len(seen) == 2
        for hr, ndcg, want_hr, want_ndcg in seen:
            assert (hr, ndcg) == (want_hr, want_ndcg)
