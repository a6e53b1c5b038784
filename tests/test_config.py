import pytest

from deepicf.config import (_KEYS, config_to_text, load_config,
                            parse_config_lines)
from deepicf.errors import ConfigError
from deepicf.model import ModelConfig, Variant


def parse(text):
    return parse_config_lines(text.splitlines())


def test_full_file():
    cfg = parse("""
        variant = DeepICF_A
        k = 16
        k_prime = 8
        L = 2
        layer_sizes = 16,8
        alpha = 0
        beta = 0.7
        lambda = 1e-6
        NS = 4
        lr = 0.01
        epochs = 50
        seed = 123
        batch_size = 2
        pretrain = true
        pretrain_epochs = 30
        eval_every = 10
        reg_embeddings = false
    """)
    assert cfg.variant is Variant.DEEPICF_A
    assert cfg.layer_sizes == (16, 8)
    assert cfg.l2 == 1e-6
    assert cfg.num_negatives == 4
    assert cfg.pretrain and cfg.pretrain_epochs == 30
    assert cfg.eval_every == 10 and cfg.batch_size == 2


def test_defaults_applied():
    cfg = parse("variant = FISM")
    assert cfg.k == 16
    assert cfg.num_layers == 0
    assert cfg.num_negatives == 4
    assert cfg.lr == 0.01
    assert not cfg.pretrain


def test_layer_sizes_imply_depth():
    cfg = parse("variant = DeepICF\nk = 16\nlayer_sizes = 12,6,4")
    assert cfg.num_layers == 3
    assert cfg.layer_sizes == (12, 6, 4)


def test_comments_and_blanks_ignored():
    cfg = parse("# a comment\nvariant = FISM\n\nk = 8  # trailing\n")
    assert cfg.k == 8


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key 'kk'"):
        parse("variant = FISM\nkk = 3")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse("variant = FISM\nk = 3\nk = 4")


def test_missing_variant_is_an_error():
    with pytest.raises(ConfigError, match="variant"):
        parse("k = 8")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse("variant = FISM\nk = eight")


@pytest.mark.parametrize("line, message", [
    ("k 8", "line 2: expected key = value"),
    ("pretrain = maybe", "line 2: bad value for 'pretrain': not a boolean:"
     " 'maybe'"),
])
def test_malformed_line_is_named(line, message):
    with pytest.raises(ConfigError) as err:
        parse(f"variant = FISM\n{line}")
    assert str(err.value) == f"<config>: {message}"


def test_unknown_variant_lists_valid_ones():
    with pytest.raises(ConfigError, match="FISM, DeepICF, DeepICF_A"):
        parse("variant = SVD")


# a value away from its default for every key of the file format
EVERY_KEY = ("variant = DeepICF\nk = 10\nk_prime = 3\nlayer_sizes = 7,5,2\n"
             "alpha = 0.4\nbeta = 0.3\nlambda = 0.001\nNS = 2\nlr = 0.02\n"
             "epochs = 3\nseed = 4\nbatch_size = 16\nreg_embeddings = true\n"
             "pretrain = true\npretrain_epochs = 6\neval_every = 2")


def test_round_trip_through_text(tmp_path):
    default = ModelConfig(variant=Variant.FISM)
    every_key = parse(EVERY_KEY)
    assert all(getattr(every_key, field) != getattr(default, field)
               for field, _ in _KEYS.values())
    some_keys = parse("variant = DeepICF\nk = 12\nL = 2\nalpha = 0.4\nseed = 9")
    for cfg in (some_keys, every_key):
        path = tmp_path / "model.cfg"
        path.write_text(config_to_text(cfg))
        again = load_config(path)
        assert again == cfg
