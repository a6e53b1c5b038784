import filecmp
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deepicf import data
from deepicf.config import load_config
from deepicf.data import (InteractionDataset, leave_one_out_split, load_split,
                          open_text, parse_interactions,
                          sample_training_instances, save_split)
from deepicf.errors import ConfigError, DataError, DeepIcfError
from deepicf.numerics import rng_from_seed

from conftest import (check_split, make_dataset, save_split_rows,
                      synthetic_dataset, synthetic_lines)
from line_readers import load_split_lines, parse_log_lines


def parse(text, fmt="tab"):
    return parse_interactions(io.StringIO(text), fmt=fmt)


class TestParse:
    def test_singleton(self):
        ds = parse("u1\ti1\t1\t5\n")
        assert (ds.num_users, ds.num_items) == (1, 1)
        assert ds.history_items(0).tolist() == [0]
        assert ds.history_times(0).tolist() == [5]
        assert ds.raw_interactions == 1

    def test_latest_wins_dedup(self):
        ds = parse("u\ta\t1\t3\nu\ta\t1\t7\nu\tb\t1\t1\n")
        assert ds.history_items(0).tolist() == [0, 1]
        assert ds.history_times(0).tolist() == [7, 1]
        assert ds.raw_interactions == 3
        assert ds.num_interactions == 2

    def test_double_colon_format(self):
        ds = parse("1::20::4::100\n1::30::3::101\n", fmt="double_colon")
        assert ds.num_users == 1
        assert ds.history_items(0).tolist() == [0, 1]
        assert ds.history_times(0).tolist() == [100, 101]

    def test_dense_ids_follow_first_appearance(self):
        ds = parse("b\tx\t1\t1\na\ty\t1\t2\nb\ty\t1\t3\n")
        assert ds.user_ids == ["b", "a"]
        assert ds.item_ids == ["x", "y"]
        assert ds.user_index == {"b": 0, "a": 1}

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse("u\ta\t1\t1\nu\ta\t1\n")
        with pytest.raises(DataError, match="line 1"):
            parse("u\ta\tnotanumber\t1\n")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(DataError, match="negative timestamp"):
            parse("u\ta\t1\t-4\n")

    def test_timestamp_past_int64_rejected(self):
        with pytest.raises(DataError) as err:
            parse(f"u\ta\t1\t1\nu\tb\t1\t{2 ** 63}\n")
        assert str(err.value) == (
            f"line 2: timestamp {2 ** 63} outside [0, 2**63)")

    def test_unknown_format_is_an_error(self):
        with pytest.raises(DataError) as err:
            parse("u\ta\t1\t1\n", fmt="csv")
        assert str(err.value) == ("unknown format 'csv'; expected one of"
                                  " ['double_colon', 'tab']")

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="empty"):
            parse("\n\n")

    def test_thin_users_flagged_in_log(self, caplog):
        with caplog.at_level("INFO"):
            parse("u\ta\t1\t1\nv\ta\t1\t1\nv\tb\t1\t2\n")
        assert "1 users with <2 interactions" in caplog.text

    # the .idmap file separates a raw id from its dense id with a tab
    @pytest.mark.parametrize("line", ["a\tb::i1::5::2", "u::i\t1::5::2"])
    def test_raw_id_with_tab_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "tab.log"
        path.write_text(f"u::i0::5::1\n{line}\n", encoding="utf-8")
        with open_text(path) as f, pytest.raises(DataError) as err:
            parse_interactions(f, fmt="double_colon")
        assert str(err.value).startswith(f"{path}: line 2: raw id ")
        assert "holds a tab" in str(err.value)


def _dataset_args(**changes):
    """InteractionDataset arguments for two users and three items, with
    ``changes`` applied."""
    args = dict(user_ids=["u0", "u1"], item_ids=["a", "b", "c"],
                items_per_user=[[0, 1], [2]], times_per_user=[[1, 2], [3]])
    return {**args, **changes}


class TestInteractionDataset:
    def test_valid_arguments_construct(self):
        ds = InteractionDataset(**_dataset_args())
        assert (ds.num_users, ds.num_items, ds.num_interactions) == (2, 3, 3)

    @pytest.mark.parametrize("changes, message", [
        (dict(items_per_user=[[0, 1]]), "one history per user required"),
        (dict(times_per_user=[[1], [3]]),
         "user 0: items/timestamps length mismatch"),
        (dict(items_per_user=[[0, -1], [2]]),
         "user 0: item index out of range"),
        (dict(items_per_user=[[0, 1], [3]]),
         "user 1: item index out of range"),
        (dict(items_per_user=[[1, 1], [2]]),
         "user 0: duplicate item in history"),
        (dict(times_per_user=[[1, 2], [-1]]), "user 1: negative timestamp"),
        (dict(user_ids=["u0", "u0"]), "duplicate raw user ids"),
        (dict(item_ids=["a", "b", "a"]), "duplicate raw item ids"),
        # the first failing user is reported, with its first failing rule
        (dict(items_per_user=[[0, 1], [3]], times_per_user=[[1, -2], [3]]),
         "user 0: negative timestamp"),
        (dict(items_per_user=[[3, 3], [2]]),
         "user 0: item index out of range"),
        (dict(items_per_user=[[2, 2, 5], [2]]),
         "user 0: items/timestamps length mismatch"),
        (dict(items_per_user=[[0, 1], [2, 2]],
              times_per_user=[[1, 2], [3, -1]]),
         "user 1: duplicate item in history"),
    ])
    def test_bad_arguments_raise(self, changes, message):
        with pytest.raises(DataError) as err:
            InteractionDataset(**_dataset_args(**changes))
        assert str(err.value) == message


class TestLeaveOneOut:
    def test_latest_interaction_held_out(self):
        ds = make_dataset([[(0, 1), (1, 2), (2, 3)]])
        split = leave_one_out_split(ds, seed=0, num_negatives=0)
        assert int(split.test_items[0]) == 2
        assert sorted(split.train.history_items(0).tolist()) == [0, 1]

    def test_timestamp_tie_breaks_to_larger_item(self):
        ds = make_dataset([[(3, 9), (5, 9), (1, 2)]])
        split = leave_one_out_split(ds, seed=0, num_negatives=0)
        assert int(split.test_items[0]) == 5

    def test_thin_users_dropped_and_reindexed(self, caplog):
        ds = make_dataset([[(0, 1)], [(1, 1), (2, 2)]])
        with caplog.at_level("INFO"):
            split = leave_one_out_split(ds, seed=0, num_negatives=0)
        assert "dropped 1 users" in caplog.text
        assert split.train.num_users == 1
        assert split.train.user_ids == ["u1"]
        # item space is untouched by the drop
        assert split.train.num_items == ds.num_items

    def test_no_user_to_split_is_an_error(self):
        ds = make_dataset([[(0, 1)], [(1, 1)], []])
        with pytest.raises(DataError, match="no user has >= 2 interactions"):
            leave_one_out_split(ds, seed=0, num_negatives=0)

    def test_small_candidate_pool_is_an_error_naming_the_user(self):
        ds = make_dataset([[(i, i) for i in range(10)]], num_items=50)
        with pytest.raises(DataError, match="u0"):
            leave_one_out_split(ds, seed=0, num_negatives=99)

    def test_negative_invariants(self):
        ds = synthetic_dataset(num_users=25, num_items=300, seed=11)
        split = leave_one_out_split(ds, seed=5)
        check_split(split)
        for u in range(split.train.num_users):
            negs = split.eval_negatives[u]
            assert negs.size == 99
            assert np.unique(negs).size == 99
            full = set(split.train.history_items(u).tolist())
            full.add(int(split.test_items[u]))
            assert not full.intersection(negs.tolist())

    def test_split_is_deterministic_byte_for_byte(self, tmp_path):
        ds = synthetic_dataset(num_users=20, num_items=300, seed=2)
        for run in ("a", "b"):
            split = leave_one_out_split(ds, seed=77)
            save_split(split, tmp_path / run)
        for ext in (".train", ".test", ".negatives", ".idmap"):
            assert filecmp.cmp(tmp_path / ("a" + ext), tmp_path / ("b" + ext),
                               shallow=False)


class TestSampling:
    def test_ratio_is_exact(self):
        ds = make_dataset([[(i, i) for i in range(10)]], num_items=40)
        stream = sample_training_instances(ds, 4, rng_from_seed(0))
        assert stream.shape == (50, 3)
        assert int((stream[:, 2] == 1).sum()) == 10

    def test_zero_negatives_means_positives_only(self):
        ds = make_dataset([[(0, 1), (1, 2)]])
        stream = sample_training_instances(ds, 0, rng_from_seed(0))
        assert stream.shape == (2, 3)
        assert np.all(stream[:, 2] == 1)

    def test_negatives_avoid_training_history(self):
        ds = synthetic_dataset(num_users=10, num_items=60, seed=4)
        stream = sample_training_instances(ds, 3, rng_from_seed(1))
        for u, i, label in stream.tolist():
            if label == 0:
                assert i not in set(ds.history_items(u).tolist())

    def test_forced_pool_single_item(self):
        # one item left uninteracted: every negative must be that item
        ds = make_dataset([[(i, i) for i in range(7)]], num_items=8)
        stream = sample_training_instances(ds, 4, rng_from_seed(0))
        negs = stream[stream[:, 2] == 0][:, 1]
        assert negs.size == 28
        assert np.all(negs == 7)

    # a user with no history, beside one with a history; and a user who
    # holds all but one of 1,000 items, whose rejection draws run out of
    # budget (1 in 1,000 succeeds, 1 in 100 would be needed)
    @pytest.mark.parametrize("histories, num_items, free", [
        ([[], [(0, 1), (1, 2)]], 5, [2, 3, 4]),
        ([[(i, i) for i in range(999)]], 1000, [999]),
    ], ids=["empty-history", "past-the-rejection-budget"])
    def test_negatives_lie_outside_the_history(self, histories, num_items,
                                               free):
        ds = make_dataset(histories, num_items=num_items)
        stream = sample_training_instances(ds, 3, rng_from_seed(0))
        positives = sum(map(len, histories))
        assert stream.shape == (4 * positives, 3)
        negatives = stream[stream[:, 2] == 0]
        assert set(negatives[:, 1].tolist()) <= set(free)
        # every instance is the last user's, the one with a history
        assert (stream[:, 0] == len(histories) - 1).all()

    def test_negative_count_is_an_error(self):
        ds = make_dataset([[(0, 1), (1, 2)]])
        with pytest.raises(DataError, match="num_negatives must be >= 0,"
                           " got -1"):
            sample_training_instances(ds, -1, rng_from_seed(0))

    def test_no_pool_at_all_is_an_error(self):
        ds = make_dataset([[(i, i) for i in range(5)]], num_items=5)
        with pytest.raises(DataError, match="every item"):
            sample_training_instances(ds, 1, rng_from_seed(0))

    def test_deterministic_per_seed(self):
        ds = synthetic_dataset(num_users=10, num_items=60, seed=4)
        a = sample_training_instances(ds, 4, rng_from_seed(9))
        b = sample_training_instances(ds, 4, rng_from_seed(9))
        assert np.array_equal(a, b)

    def test_stream_is_shuffled(self):
        ds = synthetic_dataset(num_users=10, num_items=60, seed=4)
        stream = sample_training_instances(ds, 1, rng_from_seed(9))
        assert not np.all(np.diff(stream[:, 0]) >= 0)


@pytest.fixture()
def saved_split(tmp_path):
    """A small split saved under ``tmp_path / "sp"``: (prefix, split)."""
    split = leave_one_out_split(
        synthetic_dataset(num_users=6, num_items=60, seed=9), seed=4,
        num_negatives=5)
    save_split(split, tmp_path / "sp")
    return tmp_path / "sp", split


def _set_token(lines, row, col, value):
    tokens = lines[row].split("\t")
    tokens[col] = str(value)
    lines[row] = "\t".join(tokens)


def _as_float(lines, row, col, suffix):
    _set_token(lines, row, col, lines[row].split("\t")[col] + suffix)


def _history_item(split, user):
    return int(split.train.history_items(user)[0])


# (file, 0-based row, mutation): each makes one defect on that row
SPLIT_FILE_DEFECTS = {
    "negatives-non-integer":
        ("negatives", 2, lambda lines, sp: _set_token(lines, 2, 3, "x")),
    "negatives-user-out-of-range":
        ("negatives", 1, lambda lines, sp: _set_token(
            lines, 1, 0, sp.train.num_users)),
    "test-user-out-of-range":
        ("test", 1, lambda lines, sp: _set_token(
            lines, 1, 0, sp.train.num_users + 3)),
    "test-user-minus-one":
        ("test", 3, lambda lines, sp: _set_token(lines, 3, 0, -1)),
    "test-item-out-of-range":
        ("test", 0, lambda lines, sp: _set_token(
            lines, 0, 1, sp.train.num_items)),
    "negatives-item-out-of-range":
        ("negatives", 4, lambda lines, sp: _set_token(
            lines, 4, -1, sp.train.num_items)),
    "negatives-negative-item":
        ("negatives", 0, lambda lines, sp: _set_token(lines, 0, 2, -3)),
    "test-user-twice":
        ("test", 2, lambda lines, sp: lines.__setitem__(2, lines[1])),
    "negatives-user-twice":
        ("negatives", 5, lambda lines, sp: lines.__setitem__(5, lines[0])),
    "negatives-overlap-history":
        ("negatives", 2, lambda lines, sp: _set_token(
            lines, 2, 1, _history_item(sp, 2))),
    "test-item-in-history":
        ("test", 4, lambda lines, sp: _set_token(
            lines, 4, 1, _history_item(sp, 4))),
    "train-duplicate-row":
        ("train", 3, lambda lines, sp: lines.insert(3, lines[2])),
    "train-negative-timestamp":
        ("train", 4, lambda lines, sp: _set_token(lines, 4, 3, -1)),
    "train-huge-timestamp":
        ("train", 1, lambda lines, sp: _set_token(lines, 1, 3, 2 ** 70)),
    # .idmap rows: "#users", the 6 users, "#items" (row 7), then the items
    "idmap-user-twice":
        ("idmap", 3, lambda lines, sp: _set_token(
            lines, 3, 0, sp.train.user_ids[0])),
    "idmap-item-twice":
        ("idmap", 10, lambda lines, sp: _set_token(
            lines, 10, 0, sp.train.item_ids[1])),
    "idmap-no-users-header":
        ("idmap", 0, lambda lines, sp: lines.pop(0)),
    "idmap-bad-entry":
        ("idmap", 2, lambda lines, sp: _set_token(lines, 2, 1, "x")),
    "idmap-ids-out-of-order":
        ("idmap", 9, lambda lines, sp: _set_token(lines, 9, 1, 5)),
    "train-three-columns":
        ("train", 2, lambda lines, sp: lines.__setitem__(
            2, lines[2].rsplit("\t", 1)[0])),
    "train-non-integer":
        ("train", 5, lambda lines, sp: _set_token(lines, 5, 1, "x")),
    # a field's own value written as a float, which some numpy versions
    # read with only a warning
    "train-item-float":
        ("train", 2, lambda lines, sp: _as_float(lines, 2, 1, ".0")),
    "train-timestamp-float":
        ("train", 4, lambda lines, sp: _as_float(lines, 4, 3, ".5")),
    "test-item-float":
        ("test", 1, lambda lines, sp: _as_float(lines, 1, 1, ".0")),
    "negatives-item-float":
        ("negatives", 3, lambda lines, sp: _as_float(lines, 3, 2, "e0")),
    "train-item-out-of-range":
        ("train", 0, lambda lines, sp: _set_token(
            lines, 0, 1, sp.train.num_items)),
    "test-two-items":
        ("test", 2, lambda lines, sp: lines.__setitem__(2, lines[2] + "\t0")),
    "test-two-items-every-row":
        ("test", 0, lambda lines, sp: lines.__setitem__(
            slice(None), [line + "\t0" for line in lines])),
    "negatives-no-items":
        ("negatives", 3, lambda lines, sp: lines.__setitem__(3, "3")),
    "negatives-repeated":
        ("negatives", 3, lambda lines, sp: _set_token(
            lines, 3, 2, lines[3].split("\t")[1])),
    "negatives-test-item":
        ("negatives", 1, lambda lines, sp: _set_token(
            lines, 1, 3, int(sp.test_items[1]))),
}


# name -> (file, mutation, message): rows that break more than one rule,
# or a rule before a later row that cannot be parsed; the message names
# the first rule in the order the line readers check them
RULE_ORDER_DEFECTS = {
    "train-user-out-of-range": ("train", lambda lines, sp: _set_token(
        lines, 2, 0, sp.train.num_users), "line 3: index out of range"),
    "train-item-and-timestamp-out-of-range": ("train", lambda lines, sp: (
        _set_token(lines, 2, 1, sp.train.num_items),
        _set_token(lines, 2, 3, 2 ** 70)), "line 3: index out of range"),
    "train-index-before-later-non-integer": ("train", lambda lines, sp: (
        _set_token(lines, 2, 0, -1), _set_token(lines, 5, 1, "x")),
        "line 3: index out of range"),
    "negatives-user-and-item-out-of-range": ("negatives", lambda lines, sp: (
        _set_token(lines, 2, 0, sp.train.num_users),
        _set_token(lines, 2, 2, -3)), "line 3: user index 6 outside [0, 6)"),
    "negatives-repeated-user-before-non-integer": (
        "negatives", lambda lines, sp: (
            lines.__setitem__(1, lines[0]), _set_token(lines, 4, 2, "x")),
        "line 2: user 0 already listed on line 1"),
    "test-item-out-of-range-before-float": ("test", lambda lines, sp: (
        _set_token(lines, 1, 1, sp.train.num_items),
        _as_float(lines, 3, 1, ".5")), "line 2: item index 36 outside [0, 36)"),
}


# "\udcff" is written as the byte 0xff, which is not UTF-8
_TOKENS = st.one_of(st.integers(-3, 70), st.integers(-2 ** 70, 2 ** 70),
                    st.sampled_from(["x", "", " ", "1.5", "0x1", "\udcff",
                                     "1\udcff"]))
_EDITS = st.one_of(
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 99),
              st.integers(0, 99)),
    st.tuples(st.just("set"), st.integers(0, 99), st.integers(0, 99), _TOKENS),
    st.tuples(st.just("dup"), st.integers(0, 99)),
    st.tuples(st.just("drop"), st.integers(0, 99)))


def _apply_edit(lines, edit):
    kind, row = edit[0], edit[1] % len(lines)
    tokens = lines[row].split("\t")
    if kind == "swap":
        a, b = edit[2] % len(tokens), edit[3] % len(tokens)
        tokens[a], tokens[b] = tokens[b], tokens[a]
        lines[row] = "\t".join(tokens)
    elif kind == "set":
        tokens[edit[2] % len(tokens)] = str(edit[3])
        lines[row] = "\t".join(tokens)
    elif kind == "dup":
        lines.insert(row, lines[row])
    elif len(lines) > 1:
        del lines[row]


def _parse_log_file(path):
    with open_text(path) as f:
        return parse_interactions(f)


class TestBadBytes:
    """A byte that is not UTF-8 is its line's first defect, in line order
    with every other defect, with lines counted as the text reader counts
    them."""

    @pytest.mark.parametrize("read, error, text, message", [
        # a lone CR ends a line, so the byte is on line 3
        (_parse_log_file, DataError, b"u\ti\t1\t1\rv\tj\t1\t2\n\xff\n",
         "line 3: not UTF-8 text"),
        (load_config, ConfigError, b"variant = FISM\rk = 8\n\xff\n",
         "line 3: not UTF-8 text"),
        # a defect comes before a bad byte a few lines below it
        (_parse_log_file, DataError,
         b"u\ti\t1\t1\noops\nu\tj\t1\t2\nv\ti\t1\t3\nv\t\xff\t1\t4\n",
         "line 2: expected user'\\t'item'\\t'rating'\\t'timestamp, got 'oops'"),
        (load_config, ConfigError, b"variant = FISM\nk = x\n# k\n\xff = 1\n",
         "line 2: bad value for 'k': invalid literal for int() with base 10:"
         " 'x'"),
    ], ids=["log-lone-cr", "config-lone-cr", "log-bad-row-first",
            "config-bad-value-first"])
    def test_named_in_line_order(self, tmp_path, read, error, text, message):
        path = tmp_path / "f.txt"
        path.write_bytes(text)
        with pytest.raises(error) as err:
            read(path)
        assert str(err.value) == f"{path}: {message}"


class TestSplitFiles:
    def test_round_trip(self, tmp_path):
        ds = synthetic_dataset(num_users=20, num_items=300, seed=6)
        split = leave_one_out_split(ds, seed=21)
        save_split(split, tmp_path / "rt")
        loaded = load_split(tmp_path / "rt")
        assert loaded.train.user_ids == split.train.user_ids
        assert loaded.train.item_ids == split.train.item_ids
        assert np.array_equal(loaded.test_items, split.test_items)
        for u in range(split.train.num_users):
            assert np.array_equal(loaded.train.history_items(u),
                                  split.train.history_items(u))
            assert np.array_equal(loaded.train.history_times(u),
                                  split.train.history_times(u))
            assert np.array_equal(loaded.eval_negatives[u],
                                  split.eval_negatives[u])
        check_split(loaded)

    def test_file_shapes(self, tmp_path):
        ds = synthetic_dataset(num_users=20, num_items=300, seed=1)
        split = leave_one_out_split(ds, seed=2)
        save_split(split, tmp_path / "s")
        train_lines = (tmp_path / "s.train").read_text().splitlines()
        assert len(train_lines) == split.train.num_interactions
        assert all(len(line.split("\t")) == 4 for line in train_lines)
        neg_lines = (tmp_path / "s.negatives").read_text().splitlines()
        assert all(len(line.split("\t")) == 100 for line in neg_lines)
        idmap = (tmp_path / "s.idmap").read_text().splitlines()
        assert idmap[0] == "#users"
        assert "#items" in idmap

    def test_tab_and_double_colon_agree(self):
        tab = parse_interactions(iter(synthetic_lines(seed=3, sep="\t")), "tab")
        colon = parse_interactions(iter(synthetic_lines(seed=3, sep="::")),
                                   "double_colon")
        assert tab.user_ids == colon.user_ids
        assert tab.item_ids == colon.item_ids
        for u in range(tab.num_users):
            assert np.array_equal(tab.history_items(u), colon.history_items(u))

    @pytest.mark.parametrize("defect", sorted(SPLIT_FILE_DEFECTS))
    def test_defect_names_file_and_line(self, saved_split, defect):
        prefix, split = saved_split
        part, row, mutate = SPLIT_FILE_DEFECTS[defect]
        path = prefix.parent / f"sp.{part}"
        lines = path.read_text().splitlines()
        mutate(lines, split)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match=re.escape(f"sp.{part}: line {row + 1}:")):
            load_split(prefix)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(part=st.sampled_from(["train", "test", "negatives", "idmap"]),
           edits=st.lists(_EDITS, min_size=1, max_size=4))
    def test_mutated_split_loads_valid_or_raises(self, saved_split, part,
                                                  edits):
        prefix, _ = saved_split
        originals = {p: (prefix.parent / f"sp.{p}").read_text()
                     for p in ("train", "test", "negatives", "idmap")}
        lines = originals[part].splitlines()
        for edit in edits:
            _apply_edit(lines, edit)
        path = prefix.parent / f"sp.{part}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                        errors="surrogateescape")
        try:
            try:
                split = load_split(prefix)
            except DeepIcfError:
                return
            check_split(split)
        finally:
            path.write_text(originals[part])

    def test_repeated_row_reported_before_a_later_bad_row(self, saved_split):
        prefix, _ = saved_split
        path = prefix.parent / "sp.train"
        lines = path.read_text().splitlines()
        lines.insert(3, lines[2])
        lines[9] = "oops"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_split(prefix)
        user = lines[2].split("\t")[0]
        assert str(err.value) == (f"{prefix}.train: line 4: user {user}"
                                  f" lists an item a second time")

    def test_cut_train_names_the_file(self, tmp_path):
        # a 30-user, 300-item split whose .train keeps its first two
        # thirds: every row left is sound, and some users have none
        prefix = tmp_path / "sp"
        save_split(leave_one_out_split(synthetic_dataset(), seed=4), prefix)
        path = tmp_path / "sp.train"
        lines = path.read_text().splitlines(keepends=True)
        kept = len(lines) * 2 // 3
        path.write_text("".join(lines[:kept]))
        with pytest.raises(DataError) as err:
            load_split(prefix)
        assert str(err.value) == (
            f"{prefix}.train: {kept} rows, but the split record lists"
            f" {len(lines)}: the split is partial; re-run `deepicf split`")

    @pytest.mark.parametrize("part", ["train", "test", "negatives"])
    def test_record_disagreeing_with_a_file_names_it(self, saved_split,
                                                      part):
        prefix, split = saved_split
        rows = {"train": split.train.num_interactions,
                "test": split.train.num_users,
                "negatives": split.train.num_users}[part]
        _edit_split_file(prefix, "idmap", lambda lines: lines.__setitem__(
            -1, lines[-1].replace(f"{part}={rows}", f"{part}={rows + 1}")))
        with pytest.raises(DataError, match=re.escape(
                f"sp.{part}: {rows} rows, but the split record lists"
                f" {rows + 1}")):
            load_split(prefix)

    @pytest.mark.parametrize("edit,message", [
        # a split saved before the record existed, or an .idmap cut short
        (lambda lines: lines.pop(), "no split record after the ids: the"
         " split is cut short or older than the record; re-run"
         " `deepicf split`"),
        (lambda lines: lines.append("#items"),
         "line {}: text after the split record"),
        (lambda lines: lines.__setitem__(-1, lines[-1] + " extra"),
         "line {}: bad split record"),
        (lambda lines: lines.__setitem__(-1, lines[-1].replace("=", "=-")),
         "line {}: bad split record"),
        # no users between the two headers
        (lambda lines: lines.__delitem__(slice(1, lines.index("#items"))),
         "empty idmap section"),
    ], ids=["missing", "text-after", "extra-field", "negative",
            "empty-section"])
    def test_idmap_record_defects(self, saved_split, edit, message):
        prefix, _ = saved_split
        _edit_split_file(prefix, "idmap", edit)
        lines = (prefix.parent / "sp.idmap").read_text().splitlines()
        with pytest.raises(DataError, match=re.escape(
                f"sp.idmap: {message.format(len(lines))}")):
            load_split(prefix)

    def test_record_is_the_last_idmap_line(self, saved_split):
        prefix, split = saved_split
        last = (prefix.parent / "sp.idmap").read_text().splitlines()[-1]
        tr = split.train
        assert last == (f"#rows train={tr.num_interactions}"
                        f" test={tr.num_users} negatives={tr.num_users}")

    def test_raw_id_like_a_record_is_an_id(self, tmp_path):
        # an id entry holds a tab, so a raw id that reads like the record
        # is still an id
        odd = "#rows train=1 test=1 negatives=1"
        lines = [f"{odd}\ti{i}\t1\t{i}" for i in range(3)]
        lines += ["u\ti3\t1\t0", "u\ti0\t1\t1"]
        split = leave_one_out_split(parse_interactions(lines), seed=1,
                                    num_negatives=1)
        save_split(split, tmp_path / "sp")
        assert load_split(tmp_path / "sp").train.user_ids == [odd, "u"]


class _Unwritable:
    """A value that raises when it is written out."""

    def __format__(self, spec):
        raise RuntimeError("cannot write")

    def __int__(self):
        raise RuntimeError("cannot write")

    __index__ = __int__


def _break_train(split, monkeypatch):
    # the second block of rows fails, after the first is written
    blocks = []

    def lines(*columns):
        blocks.append(None)
        if len(blocks) > 1:
            raise RuntimeError("cannot write")
        return decimal_lines(*columns)
    decimal_lines = data._decimal_lines
    monkeypatch.setattr(data, "_WRITE_ROWS", 5)
    monkeypatch.setattr(data, "_decimal_lines", lines)


# part -> a change that makes save_split raise while writing that file
_SPLIT_WRITE_FAILURES = {
    "train": _break_train,
    "test": lambda split, _: setattr(split, "test_items", [
        *split.test_items[:3], _Unwritable(), *split.test_items[4:]]),
    "negatives": lambda split, _: split.eval_negatives.__setitem__(
        4, [_Unwritable()]),
    "idmap": lambda split, _: split.train.item_ids.__setitem__(
        5, _Unwritable()),
}


@pytest.mark.parametrize("part", sorted(_SPLIT_WRITE_FAILURES))
def test_save_split_failing_midway_leaves_previous_files(
        saved_split, monkeypatch, part):
    prefix, split = saved_split
    before = {p.name: p.read_bytes() for p in prefix.parent.iterdir()}
    _SPLIT_WRITE_FAILURES[part](split, monkeypatch)
    with pytest.raises(RuntimeError, match="cannot write"):
        save_split(split, prefix)
    assert {p.name: p.read_bytes() for p in prefix.parent.iterdir()} == before


def _outcome(read, *args):
    """``("ok", value)``, or ``("raised", type, message)``, of
    ``read(*args)``."""
    try:
        return "ok", read(*args)
    except Exception as err:
        return "raised", type(err), str(err)


def _dataset_key(ds):
    return (ds.user_ids, ds.item_ids, ds.raw_interactions,
            [(a.dtype.str, a.tolist()) for a in ds.item_arrays()],
            [(ds.history_times(u).dtype.str, ds.history_times(u).tolist())
             for u in range(ds.num_users)])


def _split_key(split):
    return (_dataset_key(split.train), split.test_items.dtype.str,
            split.test_items.tolist(),
            [(n.dtype.str, n.tolist()) for n in split.eval_negatives])


def _assert_readers_agree(key, read, public, oracle):
    """The line reader is the oracle: the public reader gives its result,
    or raises its exception type with its message, byte for byte.
    ``read(reader)`` runs a reader on a fresh copy of the input."""
    expected, got = _outcome(read, oracle), _outcome(read, public)
    if expected[0] == "ok":
        expected = ("ok", key(expected[1]))
    assert (got if got[0] == "raised" else ("ok", key(got[1]))) == expected


# Blocks of one line, and of a few lines, put a block edge on every line.
_READ_CHARS = (data._READ_CHARS, 1, 37)
_LOG_CHUNK_LINES = (data._LOG_CHUNK_LINES, 1, 3)


def _assert_split_readers_agree(prefix, read_chars=_READ_CHARS):
    for chars in read_chars:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_READ_CHARS", chars)
            _assert_readers_agree(_split_key, lambda reader: reader(
                str(prefix)), load_split, load_split_lines)


_LOG_ODD_FIELDS = ["", " ", " u1", "u1 ", ":u", "u:", ":::", "a\tb", "4\t5",
                   "\0", "ü", "nan", "inf", "1_0", "1,5", "+5", " 7 ", "-1",
                   "1.0", "٣", "0x1", str(2 ** 63 - 1), str(2 ** 63),
                   str(2 ** 64), "\udcff", "u\udcff"]
_LOG_ENDINGS = ["\n", "\r\n", "\r", ""]
_LOG_FIELD_EDITS = st.tuples(st.just("field"), st.integers(0, 7),
                             st.integers(0, 3),
                             st.sampled_from(_LOG_ODD_FIELDS))
_LOG_EDITS = st.one_of(
    _LOG_FIELD_EDITS, _LOG_FIELD_EDITS,
    st.tuples(st.just("ending"), st.integers(0, 7),
              st.sampled_from(_LOG_ENDINGS)),
    st.tuples(st.just("blank"), st.integers(0, 7),
              st.sampled_from(["", " ", "\t", "\r"])),
    st.tuples(st.just("fields"), st.integers(0, 7), st.sampled_from([3, 5])))


@st.composite
def raw_logs(draw):
    """A few well-formed log rows (fields and line endings), then up to
    four edits that may break them."""
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["u1", "u2", "7", "ü"]),
        st.sampled_from(["i1", "i2", "i3", "a:b"]),
        st.sampled_from(["1", "4", "5"]),
        st.integers(0, 30).map(str)).map(list), min_size=1, max_size=8))
    endings = ["\n"] * len(rows)
    for edit in draw(st.lists(_LOG_EDITS, max_size=4)):
        kind, row = edit[0], edit[1] % len(rows)
        if kind == "field":
            rows[row][edit[2] % len(rows[row])] = edit[3]
        elif kind == "ending":
            endings[row] = edit[2]
        elif kind == "blank":
            rows.insert(row, [edit[2]])
            endings.insert(row, "\n")
        else:
            rows[row] = (rows[row] + ["9"])[:edit[2]]
    return rows, endings


def _odd_digits(line):
    """A ``.train`` line with the same values: its user in Arabic-Indic
    digits, and an underscore in its timestamp."""
    user, item, rating, ts = line.split("\t")
    user = "".join(chr(0x660 + int(d)) for d in user)
    return "\t".join([user, item, rating, ts[0] + "_" + ts[1:] if ts[1:] else ts])


def _edit_split_file(prefix, part, edit):
    """Rewrite ``prefix``'s ``part`` file with ``edit(lines)`` applied."""
    path = prefix.parent / f"{prefix.name}.{part}"
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestFastReaders:
    """The package's readers against the line readers in
    ``tests/line_readers.py``."""

    @pytest.mark.parametrize("defect", sorted(SPLIT_FILE_DEFECTS))
    def test_split_defects_agree(self, saved_split, defect):
        prefix, split = saved_split
        part, _, mutate = SPLIT_FILE_DEFECTS[defect]
        _edit_split_file(prefix, part, lambda lines: mutate(lines, split))
        _assert_split_readers_agree(prefix, read_chars=_READ_CHARS[:1])

    @pytest.mark.parametrize("case", sorted(RULE_ORDER_DEFECTS))
    def test_first_rule_in_order_is_named(self, saved_split, case):
        prefix, split = saved_split
        part, mutate, message = RULE_ORDER_DEFECTS[case]
        _edit_split_file(prefix, part, lambda lines: mutate(lines, split))
        with pytest.raises(DataError) as err:
            load_split(prefix)
        assert str(err.value) == f"{prefix}.{part}: {message}"
        _assert_split_readers_agree(prefix)

    def test_valid_split_agrees(self, saved_split):
        _assert_split_readers_agree(saved_split[0], read_chars=_READ_CHARS[:1])

    @pytest.mark.parametrize("read_chars", [1, 37])
    def test_split_read_in_blocks_agrees(self, saved_split, monkeypatch,
                                         read_chars):
        monkeypatch.setattr(data, "_READ_CHARS", read_chars)
        prefix = str(saved_split[0])
        assert _split_key(load_split(prefix)) == _split_key(
            load_split_lines(prefix))

    @pytest.mark.parametrize("defect", sorted(SPLIT_FILE_DEFECTS))
    def test_split_defects_in_blocks_agree(self, saved_split, defect):
        prefix, split = saved_split
        part, _, mutate = SPLIT_FILE_DEFECTS[defect]
        _edit_split_file(prefix, part, lambda lines: mutate(lines, split))
        _assert_split_readers_agree(prefix, read_chars=_READ_CHARS[1:])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(part=st.sampled_from(["train", "test", "negatives", "idmap"]),
           edits=st.lists(_EDITS, min_size=1, max_size=4))
    def test_mutated_splits_agree(self, saved_split, part, edits):
        prefix, _ = saved_split
        path = prefix.parent / f"sp.{part}"
        original = path.read_text()
        lines = original.splitlines()
        for edit in edits:
            _apply_edit(lines, edit)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                        errors="surrogateescape")
        try:
            _assert_split_readers_agree(prefix)
        finally:
            path.write_text(original)

    # (file, edit): inputs that numpy refuses or reads in part
    ODD_SPLITS = {
        "blank-lines-then-defect": ("train", lambda lines: lines.__setitem__(
            slice(None), ["", ""] + lines[:3] + ["", ""] + lines[3:5]
            + ["oops"] + lines[5:])),
        "blank-lines-then-repeat": ("negatives", lambda lines: lines.__setitem__(
            slice(None), [""] + lines[:2] + ["", ""] + [lines[0]] + lines[2:])),
        "blank-lines-only-valid": ("test", lambda lines: lines.__setitem__(
            slice(None), ["", ""] + lines[:2] + ["", ""] + lines[2:] + [""])),
        # int() reads "1_23" as 123 and "\u0663" as 3; numpy reads neither
        "underscore-and-arabic-digits": ("train", lambda lines: lines.__setitem__(
            slice(None), [_odd_digits(line) for line in lines])),
        "timestamp-2-63": ("train", lambda lines: _set_token(
            lines, 3, 3, 2 ** 63)),
        "timestamp-2-63-and-bad-index": ("train", lambda lines: (
            _set_token(lines, 3, 3, 2 ** 63), _set_token(lines, 3, 1, -1))),
        "item-past-int64-after-repeated-user": ("negatives", lambda lines: (
            lines.__setitem__(4, lines[1]), _set_token(lines, 4, 2, 2 ** 64))),
        "item-past-int64": ("negatives", lambda lines: _set_token(
            lines, 4, 2, -2 ** 64)),
        "user-past-int64": ("test", lambda lines: _set_token(
            lines, 2, 0, 2 ** 64)),
        "ragged-negatives": ("negatives", lambda lines: lines.__setitem__(
            2, lines[2].rsplit("\t", 2)[0])),
        "ragged-negatives-then-repeat": ("negatives", lambda lines: (
            lines.__setitem__(2, lines[2].rsplit("\t", 2)[0]),
            _set_token(lines, 4, 2, lines[4].split("\t")[1]))),
        "non-integer-rating": ("train", lambda lines: _set_token(
            lines, 2, 2, "one")),
        "empty-train": ("train", lambda lines: lines.clear()),
        "empty-test": ("test", lambda lines: lines.clear()),
        "cut-train": ("train", lambda lines: lines.__delitem__(
            slice(len(lines) * 2 // 3, None))),
        "cut-negatives": ("negatives", lambda lines: lines.pop()),
        "no-split-record": ("idmap", lambda lines: lines.pop()),
        "split-record-twice": ("idmap", lambda lines: lines.append(
            lines[-1])),
        "whitespace-line": ("test", lambda lines: lines.insert(3, " ")),
        "idmap-blank-lines": ("idmap", lambda lines: lines.__setitem__(
            slice(None), [""] + lines[:2] + ["", ""] + lines[2:])),
    }

    @pytest.mark.parametrize("case", sorted(ODD_SPLITS))
    def test_odd_splits_agree(self, saved_split, case):
        prefix, _ = saved_split
        part, edit = self.ODD_SPLITS[case]
        _edit_split_file(prefix, part, edit)
        _assert_split_readers_agree(prefix)

    def test_valid_odd_splits_load(self, saved_split):
        prefix, split = saved_split
        for case in ("blank-lines-only-valid", "underscore-and-arabic-digits",
                     "ragged-negatives", "non-integer-rating", "empty-train",
                     "idmap-blank-lines"):
            _edit_split_file(prefix, *self.ODD_SPLITS[case])
        # an empty .train is a whole split only if its record says so
        _edit_split_file(prefix, "idmap", lambda lines: lines.__setitem__(
            -1, re.sub("train=[0-9]+", "train=0", lines[-1])))
        loaded = load_split(prefix)
        assert (loaded.train.user_ids, loaded.train.item_ids) == (
            split.train.user_ids, split.train.item_ids)
        assert loaded.eval_negatives[2].tolist() == (
            split.eval_negatives[2][:-2].tolist())
        assert loaded.train.num_interactions == 0

    @pytest.mark.parametrize("defect", [d for d in sorted(SPLIT_FILE_DEFECTS)
                                        if d.endswith("-float")])
    def test_float_field_where_numpy_only_warns(self, saved_split,
                                                monkeypatch, defect):
        # Some numpy versions read "1.5" into an int64 column through a
        # float, truncate it and only warn; such a numpy is stood in for.
        loadtxt = np.loadtxt

        def lenient(source, dtype, **kwargs):
            text = source.read()
            try:
                return loadtxt(io.StringIO(text), dtype=dtype, **kwargs)
            except ValueError:
                table = loadtxt(io.StringIO(text), dtype=float, **kwargs)
            warnings.warn("loadtxt(): Parsing an integer via a float is"
                          " deprecated.", DeprecationWarning)
            return table.astype(dtype)

        monkeypatch.setattr(np, "loadtxt", lenient)
        prefix, split = saved_split
        part, _, mutate = SPLIT_FILE_DEFECTS[defect]
        _edit_split_file(prefix, part, lambda lines: mutate(lines, split))
        _assert_split_readers_agree(prefix)

    def test_bad_row_before_undecodable_bytes_is_named(self, saved_split):
        prefix, _ = saved_split
        path = prefix.parent / "sp.test"
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"oops"
        lines[50:50] = [b"\xff"]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError) as err:
            load_split(prefix)
        assert str(err.value) == f"{path}: line 2: bad row 'oops'"

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log=raw_logs(), fmt=st.sampled_from(["tab", "double_colon"]))
    def test_raw_logs_agree(self, tmp_path, log, fmt):
        sep = data.SEPARATORS[fmt]
        self.check_log(tmp_path, "".join(
            sep.join(row) + end for row, end in zip(*log)), fmt)

    @pytest.mark.parametrize("text, fmt", [
        # two rows in one line, with a NUL field between, and short rows
        ("u\ti\t5\t3\t\0\tv\tj\t6\t4\nw\n7\t8\n", "tab"),
        ("u::i::5\t3\n", "double_colon"),         # a tab for a separator
        ("\ti1\t5\t3\n", "tab"),
        ("u::::5::3\n", "double_colon"),
        ("u\ti\t5\t3\r\r\n\n  \nv\tj\t1\t2", "tab"),
        ("u:::i::5::3\nu::i::5:::3\n", "double_colon"),
        ("u\ti\t5\t3\nu\ti\t5\t-1\n", "tab"),  # lost in the dedup
        ("u::i::5\t::3\nv::i::\t4::1_0\n", "double_colon"),  # tab in rating
        ("u\ti\t5\t\u0663\nv\ti\t5\t1_0\n", "tab"),
        (f"u\ti\t5\t3\n\n\nv\tj\t1\t{2 ** 63}\n", "tab"),
        ("\n\n\nu\ti\t5\t3\n\n\n\n", "tab"),
    ])
    def test_raw_log_cases_agree(self, tmp_path, text, fmt):
        self.check_log(tmp_path, text, fmt)

    @staticmethod
    def check_log(tmp_path, text, fmt):
        """The log ``text`` agrees when read from a file and from a
        StringIO, which keeps carriage returns, in chunks of every size."""
        sep = data.SEPARATORS[fmt]
        path = tmp_path / "log.dat"
        path.write_bytes(text.encode("utf-8", errors="surrogateescape"))

        def from_file(reader):
            with open_text(path) as f:
                return reader(f)

        for chunk_lines in _LOG_CHUNK_LINES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(data, "_LOG_CHUNK_LINES", chunk_lines)
                for read in (from_file,
                             lambda reader: reader(io.StringIO(text))):
                    _assert_readers_agree(
                        _dataset_key, read,
                        lambda f: parse_interactions(f, fmt),
                        lambda f: parse_log_lines(f, sep))

    def test_bad_log_row_before_undecodable_bytes_is_named(self, tmp_path):
        # the bytes lie past the first 8 KB that a text reader decodes
        lines = [line.encode() for line in synthetic_lines(num_users=200)]
        lines[1] = b"oops"
        assert len(b"\n".join(lines[:-1])) > 9000
        lines[-1] += b"\xff"
        path = tmp_path / "log.dat"
        path.write_bytes(b"\n".join(lines))
        message = (f"{path}: line 2: expected user'\\t'item'\\t'rating"
                   "'\\t'timestamp, got 'oops'")
        for chunk_lines in _LOG_CHUNK_LINES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(data, "_LOG_CHUNK_LINES", chunk_lines)
                for reader in (parse_interactions,
                               lambda f: parse_log_lines(f, "\t")):
                    with open_text(path) as f, pytest.raises(DataError) as err:
                        reader(f)
                    assert str(err.value) == message

    def test_valid_inputs_take_the_fast_path(self, saved_split, tmp_path,
                                             monkeypatch):
        # The row functions give the same results, only slower, so they
        # are made to fail here.
        def refuse(*args, **kwargs):
            raise AssertionError("row function ran on a valid input")
        for row_function in ("_train_row", "_user_row", "_log_rows"):
            monkeypatch.setattr(data, row_function, refuse)

        check_split(load_split(saved_split[0]))
        lines = synthetic_lines(sep="::")
        lines[3:3] = [lines[0], "", lines[5]]   # a repeat and a blank line
        path = tmp_path / "ratings.dat"
        path.write_text("\n".join(lines), encoding="utf-8")
        with open_text(path) as f:
            from_file = parse_interactions(f, fmt="double_colon")
        from_list = parse_interactions(
            [line.replace("::", "\t") for line in lines], fmt="tab")
        assert _dataset_key(from_file) == _dataset_key(from_list)
        assert from_file.raw_interactions == len(lines) - 1

    def test_one_shot_iterator_reads_as_a_list(self, monkeypatch):
        monkeypatch.setattr(data, "_LOG_CHUNK_LINES", 3)
        lines = synthetic_lines(seed=5)
        assert _dataset_key(parse_interactions(iter(lines))) == (
            _dataset_key(parse_interactions(lines)))
        lines[7] = "u\ti\t1"   # past the first chunks
        messages = []
        for given_lines in (iter(lines), lines):
            with pytest.raises(DataError) as err:
                parse_interactions(given_lines)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("line 8: expected user")

    def test_writer_matches_reference_bytes(self, tmp_path):
        times = [0, 9, 10, 9999, 10000, 123456789, 10 ** 15, 2 ** 63 - 1]
        users = ["ü:1", ":u", "u:", "用户", "a::b"]
        lines = [f"{uid}\titem:{(3 * u + k) % 11}é\t1\t{times[(u + k) % 8]}"
                 for u, uid in enumerate(users) for k in range(6)]
        split = leave_one_out_split(parse_interactions(lines), seed=5,
                                    num_negatives=3)
        save_split(split, tmp_path / "fast")
        save_split_rows(split, tmp_path / "rows")
        for part in ("train", "test", "negatives", "idmap"):
            assert ((tmp_path / f"fast.{part}").read_bytes()
                    == (tmp_path / f"rows.{part}").read_bytes()), part

    def test_decimal_lines_match_fstrings(self):
        values = sorted({0, 1, 2 ** 63 - 1} | {
            v for k in range(1, 19)
            for v in (10 ** k - 1, 10 ** k, 10 ** k + 1)})
        column = np.array(values, dtype=np.int64)
        expected = "".join(f"{a}\t{b}\n" for a, b in zip(values, values[::-1]))
        assert data._decimal_lines(column, column[::-1].copy()) == expected
