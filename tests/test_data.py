import filecmp
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deepicf.data import (leave_one_out_split, load_split, open_text,
                          parse_interactions, sample_training_instances,
                          save_split)
from deepicf.errors import DataError, DeepIcfError
from deepicf.numerics import rng_from_seed

from conftest import make_dataset, synthetic_dataset, synthetic_lines


def parse(text, fmt="tab"):
    return parse_interactions(io.StringIO(text), fmt=fmt)


class TestParse:
    def test_singleton(self):
        ds = parse("u1\ti1\t1\t5\n")
        assert (ds.num_users, ds.num_items) == (1, 1)
        assert ds.history_pairs(0) == [(0, 5)]
        assert ds.raw_interactions == 1

    def test_latest_wins_dedup(self):
        ds = parse("u\ta\t1\t3\nu\ta\t1\t7\nu\tb\t1\t1\n")
        assert ds.history_pairs(0) == [(0, 7), (1, 1)]
        assert ds.raw_interactions == 3
        assert ds.num_interactions == 2

    def test_double_colon_format(self):
        ds = parse("1::20::4::100\n1::30::3::101\n", fmt="double_colon")
        assert ds.num_users == 1
        assert ds.history_pairs(0) == [(0, 100), (1, 101)]

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

    def test_small_candidate_pool_is_an_error_naming_the_user(self):
        ds = make_dataset([[(i, i) for i in range(10)]], num_items=50)
        with pytest.raises(DataError, match="u0"):
            leave_one_out_split(ds, seed=0, num_negatives=99)

    def test_negative_invariants(self):
        ds = synthetic_dataset(num_users=25, num_items=300, seed=11)
        split = leave_one_out_split(ds, seed=5)
        split.validate()
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
}


_TOKENS = st.one_of(st.integers(-3, 70), st.integers(-2 ** 70, 2 ** 70),
                    st.sampled_from(["x", "", " ", "1.5", "0x1"]))
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


class TestOpenText:
    def test_bad_line_counted_as_the_reader_counts(self, tmp_path):
        # a lone CR ends a line for the text reader, so the byte is on line 3
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\rb\n\xff\n")
        with pytest.raises(DataError) as err:
            with open_text(path) as f:
                f.read()
        assert str(err.value) == f"{path}: line 3: not UTF-8 text"

    def test_no_bad_line_leaves_line_out(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n")
        with pytest.raises(DataError) as err:
            with open_text(path):
                b"\xff".decode("utf-8")
        assert str(err.value) == f"{path}: not UTF-8 text"


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
        loaded.validate()

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
        path.write_text("\n".join(lines) + "\n")
        try:
            try:
                split = load_split(prefix)
            except DeepIcfError:
                return
            split.validate()
        finally:
            path.write_text(originals[part])

