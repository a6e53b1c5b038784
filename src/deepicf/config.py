"""Flat ``key = value`` configuration files.

One hyper-parameter per line; blank lines and ``#`` comments ignored.
Unknown keys are errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from deepicf.data import not_utf8, open_text
from deepicf.errors import ConfigError
from deepicf.model import ModelConfig, Variant


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_sizes(text):
    return tuple(int(p) for p in text.replace(",", " ").split())


# config-file key -> (ModelConfig field, parser)
_KEYS = {
    "variant": ("variant", Variant.parse),
    "k": ("k", int),
    "k_prime": ("k_prime", int),
    "L": ("num_layers", int),
    "layer_sizes": ("layer_sizes", _parse_sizes),
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "lambda": ("l2", float),
    "NS": ("num_negatives", int),
    "lr": ("lr", float),
    "epochs": ("epochs", int),
    "seed": ("seed", int),
    "batch_size": ("batch_size", int),
    "reg_embeddings": ("reg_embeddings", _parse_bool),
    "pretrain": ("pretrain", _parse_bool),
    "pretrain_epochs": ("pretrain_epochs", int),
    "eval_every": ("eval_every", int),
}


def parse_config_lines(lines, source="<config>"):
    fields = {}
    for lineno, line in enumerate(lines, start=1):
        if not_utf8(line):
            raise ConfigError(f"{source}: line {lineno}: not UTF-8 text")
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _KEYS:
            raise ConfigError(
                f"{source}: line {lineno}: unknown key {key!r}"
                f" (known: {', '.join(sorted(_KEYS))})")
        field, parser = _KEYS[key]
        if field in fields:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        try:
            fields[field] = parser(value)
        except (ValueError, ConfigError) as err:
            raise ConfigError(f"{source}: line {lineno}: bad value for"
                              f" {key!r}: {err}")
    if "variant" not in fields:
        raise ConfigError(f"{source}: missing required key 'variant'")
    if "layer_sizes" in fields and "num_layers" not in fields:
        fields["num_layers"] = len(fields["layer_sizes"])
    try:
        return ModelConfig(**fields)
    except ConfigError as err:
        raise ConfigError(f"{source}: {err}") from err


def load_config(path):
    with open_text(path) as f:
        return parse_config_lines(f, source=str(path))


def config_to_text(config):
    """Serialize a config back to the file format, one line per key of
    the key table (round-trips through :func:`parse_config_lines`). Empty
    layer sizes and an unset pre-training length are left out."""
    lines = []
    for key, (field, _) in _KEYS.items():
        value = getattr(config, field)
        if value is None or value == ():
            continue
        if isinstance(value, Variant):
            value = value.value
        elif isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, tuple):
            value = ",".join(str(d) for d in value)
        else:
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
