"""Binary checkpoint persistence.

Layout: the magic line ``DICF1``, one ASCII header line
``U I variant k k_prime L alpha beta``, one line of hidden-layer sizes
(empty when the tower has depth 0), then the parameters' ``flat`` vector
as one block of little-endian float64, which holds the tensors in
:func:`deepicf.model.param_layout` order: target embeddings, history
embeddings, user biases, item biases, output weights, then (W_l, b_l) per
layer, then the attention weight/bias/output triple for the attention
variant. Loading a saved file reproduces every array bit for bit, which
is what makes the pre-training handoff exact. Files are written under a
temporary name and moved into place, so a failed save leaves the previous
file intact.
"""

from __future__ import annotations

import math

import numpy as np

from deepicf.data import atomic_write
from deepicf.errors import CheckpointError, ConfigError
from deepicf.model import ModelConfig, ModelParams, Variant, param_layout

MAGIC = b"DICF1\n"


def save_checkpoint(path, params, config):
    """Write parameters with enough header to rebuild the model shape.

    Parameters whose layout is not the one ``config`` implies for their
    user and item counts are a :class:`CheckpointError`, raised before
    anything is written. The file is written with
    :func:`deepicf.data.atomic_write`.
    """
    num_users, num_items = params.num_users, params.num_items
    have = [(name, shape) for name, shape, _ in params.layout]
    want = [(name, shape) for name, shape, _
            in param_layout(config, num_users, num_items)]
    if have != want:
        raise CheckpointError(f"{path}: parameters {have} do not match the "
                              f"{config.variant.value} layout {want}")
    header = (f"{num_users} {num_items} {config.variant.value} {config.k} "
              f"{config.k_prime} {config.num_layers} "
              f"{float(config.alpha)!r} {float(config.beta)!r}\n")
    sizes = " ".join(str(d) for d in config.layer_sizes) + "\n"
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(header.encode("ascii"))
        f.write(sizes.encode("ascii"))
        f.write(params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, num_users, num_items).

    The returned config carries the architecture fields from the header
    and defaults for the training-only fields. Payload length must match
    the header shapes exactly, and every parameter must be finite; every
    defect is a :class:`CheckpointError` naming ``path``, and a parameter
    that is not finite is named with its tensor and entry.
    """
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        header_line = f.readline()
        sizes_line = f.readline()
        payload = f.read()
    try:
        header = header_line.decode("ascii").split()
        sizes = sizes_line.decode("ascii").split()
    except UnicodeDecodeError as err:
        raise CheckpointError(f"{path}: header is not ASCII: {err}")
    if len(header) != 8:
        raise CheckpointError(f"{path}: malformed header line")
    try:
        num_users, num_items = int(header[0]), int(header[1])
        k, k_prime, depth = int(header[3]), int(header[4]), int(header[5])
        alpha, beta = float(header[6]), float(header[7])
        layer_sizes = tuple(int(d) for d in sizes)
    except ValueError as err:
        raise CheckpointError(f"{path}: unreadable header: {err}")
    if num_users < 1 or num_items < 1:
        raise CheckpointError(
            f"{path}: header needs at least one user and one item,"
            f" got U={num_users} I={num_items}")
    if len(layer_sizes) != depth:
        raise CheckpointError(
            f"{path}: header says L={depth} but lists {len(layer_sizes)} sizes")
    try:
        config = ModelConfig(variant=Variant.parse(header[2]), k=k,
                             k_prime=k_prime, num_layers=depth,
                             layer_sizes=layer_sizes, alpha=alpha, beta=beta)
    except ConfigError as err:
        raise CheckpointError(f"{path}: {err}") from err

    layout = param_layout(config, num_users, num_items)
    expected = sum(math.prod(shape) for _, shape, _ in layout) * 8
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    params = ModelParams(layout,
                         np.frombuffer(payload, dtype="<f8").astype(np.float64))
    if not np.isfinite(params.flat).all():
        for name, _, _ in layout:
            bad = ~np.isfinite(params[name])
            if bad.any():
                at = np.unravel_index(bad.argmax(), bad.shape)
                raise CheckpointError(
                    f"{path}: {name}[{', '.join(map(str, at))}] is "
                    f"{params[name][at]}, not a finite number")
    return params, config, num_users, num_items

