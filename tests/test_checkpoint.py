import filecmp
import hashlib
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deepicf.checkpoint import load_checkpoint, save_checkpoint
from deepicf.errors import CheckpointError
from deepicf.model import ModelConfig, Variant, init_params, score_items
from deepicf.numerics import rng_from_seed

# sha256 of the DICF1 bytes written by test_file_bytes_are_pinned; pins
# the file format
GOLDEN_SHA256 = ("1c27d32d2f536c967106d513bb34b661"
                 "172ec0bb3dda6d119204ad26e417344d")

CONFIGS = [
    ModelConfig(variant=Variant.FISM, k=5, alpha=0.3),
    ModelConfig(variant=Variant.DEEPICF, k=8, num_layers=3, alpha=0.5),
    ModelConfig(variant=Variant.DEEPICF_A, k=6, k_prime=4, num_layers=2,
                beta=0.7),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.variant.value)
def test_round_trip_is_bit_identical(tmp_path, config):
    params = init_params(config, 7, 11, rng_from_seed(1))
    # make the payload non-trivial everywhere
    params["user_bias"][:] = rng_from_seed(2).normal(size=7)
    params["item_bias"][:] = rng_from_seed(3).normal(size=11)
    first = tmp_path / "a.ckpt"
    save_checkpoint(first, params, config)
    loaded, cfg2, num_users, num_items = load_checkpoint(first)
    assert (num_users, num_items) == (7, 11)
    assert cfg2.variant == config.variant
    assert cfg2.layer_sizes == config.layer_sizes
    assert cfg2.alpha == config.alpha and cfg2.beta == config.beta
    for a, b in zip(params.values(), loaded.values()):
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b)
    # save(load(save(x))) reproduces the same bytes
    second = tmp_path / "b.ckpt"
    save_checkpoint(second, loaded, cfg2)
    assert filecmp.cmp(first, second, shallow=False)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE1\n1 1 FISM 2 2 0 0.0 0.5\n\n")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    config = CONFIGS[0]
    params = init_params(config, 3, 4, rng_from_seed(0))
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, params, config)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(path)


def test_header_layer_count_mismatch_rejected(tmp_path):
    path = tmp_path / "h.ckpt"
    path.write_bytes(b"DICF1\n1 1 DeepICF 2 2 2 0.0 0.5\n4\n")
    with pytest.raises(CheckpointError, match="L=2"):
        load_checkpoint(path)


@pytest.mark.parametrize("name,at,value", [
    ("target_embed", (3, 1), np.nan), ("item_bias", (10,), np.inf),
    ("W1", (2, 0), -np.inf), ("att_weight", (3, 5), np.nan)])
def test_non_finite_parameter_rejected(tmp_path, name, at, value):
    config = CONFIGS[2]
    params = init_params(config, 7, 11, rng_from_seed(4))
    params[name][at] = value
    # a later tensor's NaN is not the one named
    params["att_out"][0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, params, config)
    entry = ", ".join(str(i) for i in at)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"{path}: {name}[{entry}] is {value}, "
                              "not a finite number")


def test_file_bytes_are_pinned(tmp_path):
    config = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3,
                         num_layers=2, beta=0.7)
    params = init_params(config, 3, 5, rng_from_seed(11))
    params["user_bias"][:] = rng_from_seed(12).normal(size=3)
    params["item_bias"][:] = rng_from_seed(13).normal(size=5)
    path = tmp_path / "golden.ckpt"
    save_checkpoint(path, params, config)
    blob = path.read_bytes()
    assert len(blob) == 918
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256


def test_non_ascii_header_rejected(tmp_path):
    path = tmp_path / "n.ckpt"
    path.write_bytes("DICF1\n1 1 FISM 2 2 0 0.0 0.5\u00e9\n\n".encode("utf-8"))
    with pytest.raises(CheckpointError, match="not ASCII") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_negative_user_count_rejected(tmp_path):
    # U=-2 with I=3, k=4 makes the shapes add up to exactly 232 bytes
    path = tmp_path / "u.ckpt"
    path.write_bytes(b"DICF1\n-2 3 FISM 4 8 0 0.0 0.5\n\n" + bytes(232))
    with pytest.raises(CheckpointError, match="U=-2") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("header", [
    b"1 1 FISM 2 2 1 0.0 0.5\n4\n",       # FISM with a tower
    b"1 1 FISM 0 2 0 0.0 0.5\n\n",        # k=0
    b"1 1 FISM 2 2 0 nan 0.5\n\n",        # alpha=nan
    b"1 1 NCF 2 2 0 0.0 0.5\n\n",         # unknown variant
], ids=["fism-tower", "k0", "alpha-nan", "variant"])
def test_header_rejected_by_config_names_file(tmp_path, header):
    path = tmp_path / "c.ckpt"
    path.write_bytes(b"DICF1\n" + header)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_failed_save_leaves_previous_file(tmp_path, monkeypatch):
    config = CONFIGS[0]
    params = init_params(config, 3, 4, rng_from_seed(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, config)
    before = path.read_bytes()
    changed = params.clone()
    changed["item_bias"][:] = 1.0

    def fail(fd):   # after the new bytes are written
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, changed, config)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class _Unwritable:
    """A value that raises when it is written out."""

    def astype(self, *args, **kwargs):
        raise RuntimeError("cannot write")


def test_save_failing_midway_leaves_previous_file(tmp_path):
    config = CONFIGS[0]
    params = init_params(config, 3, 4, rng_from_seed(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, config)
    before = path.read_bytes()
    params.flat = _Unwritable()   # raises once the header is written
    with pytest.raises(RuntimeError, match="cannot write"):
        save_checkpoint(path, params, config)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


@pytest.mark.parametrize("saved,config", [
    (ModelConfig(variant=Variant.DEEPICF, k=8, num_layers=2),
     ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=2)),
    (ModelConfig(variant=Variant.FISM, k=4),
     ModelConfig(variant=Variant.DEEPICF, k=4, num_layers=1)),
], ids=["k8-as-k4", "fism-as-deepicf"])
def test_save_rejects_params_of_another_layout(tmp_path, saved, config):
    params = init_params(saved, 3, 5, rng_from_seed(0))
    path = tmp_path / "x.ckpt"
    with pytest.raises(CheckpointError, match="layout") as err:
        save_checkpoint(path, params, config)
    assert str(path) in str(err.value)
    assert list(tmp_path.iterdir()) == []


_HEADER_TOKENS = st.one_of(
    st.integers(-3, 12), st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from(["nan", "-1", "inf", "-0.0", "1e308", "x", "",
                     "FISM", "DeepICF", "DeepICF_A", "é", "\x00\xff"]))
_HEADER_EDITS = st.one_of(
    st.tuples(st.just("swap"), st.integers(0, 1), st.integers(0, 9),
              st.integers(0, 9)),
    st.tuples(st.just("drop"), st.integers(0, 1), st.integers(0, 9)),
    st.tuples(st.just("set"), st.integers(0, 1), st.integers(0, 9),
              _HEADER_TOKENS))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(_HEADER_EDITS, max_size=4),
       cut=st.integers(0, 40))
def test_mutated_checkpoint_loads_and_scores_or_raises(tmp_path, edits, cut):
    """Swapped, dropped or replaced tokens on the header and sizes lines,
    and a truncated payload: the file loads and scores, or is a
    CheckpointError."""
    config = ModelConfig(variant=Variant.DEEPICF_A, k=4, k_prime=3,
                         num_layers=2, beta=0.7)
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, init_params(config, 3, 5, rng_from_seed(11)),
                    config)
    magic, header, sizes, payload = path.read_bytes().split(b"\n", 3)
    lines = [line.decode("ascii").split(" ") for line in (header, sizes)]
    for kind, line, a, *rest in edits:
        tokens = lines[line]
        if not tokens:
            continue
        a %= len(tokens)
        if kind == "swap":
            b = rest[0] % len(tokens)
            tokens[a], tokens[b] = tokens[b], tokens[a]
        elif kind == "drop":
            del tokens[a]
        else:
            tokens[a] = str(rest[0])
    path.write_bytes(b"\n".join(
        [magic] + [" ".join(t).encode("utf-8") for t in lines]
        + [payload[:len(payload) - cut]]))
    try:
        params, cfg, _, num_items = load_checkpoint(path)
    except CheckpointError:
        return
    scores = score_items(params, cfg, [0], 0, [num_items - 1])
    assert scores.shape == (1,)
