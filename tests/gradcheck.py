"""The gradient-check oracle: the trained part of a model's flat layout and
a central finite-difference gradient over it.

The trained tensors are a prefix of every layout, so ``flatten_params``
is a slice of the parameters' ``flat`` vector and ``params_from_flat``
rebuilds parameters from such a slice, so that ``finite_diff_grad``
perturbs one model weight at a time; ``flatten_grads`` scatters the
analytic :class:`deepicf.model.Grads` into the same layout for a direct
comparison.
"""

import math

import numpy as np

from deepicf.model import ModelParams, param_layout


def trained_size(config, num_users, num_items):
    """The number of trained entries of a layout."""
    return sum(math.prod(shape) for _, shape, trained
               in param_layout(config, num_users, num_items) if trained)


def flatten_params(params, config):
    """The variant's trained tensors as one vector: a copy of the prefix
    of ``params.flat`` they occupy."""
    size = trained_size(config, params.num_users, params.num_items)
    return params.flat[:size].copy()


def params_from_flat(theta, config, num_users, num_items):
    """Parameters whose trained entries are ``theta``, so perturbing one
    coordinate of ``theta`` perturbs exactly one model weight; the
    untrained tensor, FISM's output vector, is all-ones."""
    size = trained_size(config, num_users, num_items)
    if theta.size != size:
        raise ValueError(
            f"flat vector has {theta.size} entries, expected {size}")
    params = ModelParams(param_layout(config, num_users, num_items))
    params.flat[:] = 1.0
    params.flat[:size] = theta
    return params


def flatten_grads(grads, config, num_users, num_items):
    """Scatter :class:`Grads` into the flat layout of
    :func:`flatten_params`, for direct comparison with the oracle: the
    row gradients summed into their whole tensors, then the dense tail."""
    parts = []
    for name, shape, _ in param_layout(config, num_users, num_items)[:4]:
        full = np.zeros(shape)
        np.add.at(full, *grads.rows[name])
        parts.append(full.ravel())
    return np.concatenate(parts + [grads.dense.flat])


def finite_diff_grad(f, theta, h=1e-5):
    """Central-difference gradient of a scalar function of a 1-D vector.

    Evaluates ``(f(theta + h*e_t) - f(theta - h*e_t)) / (2h)`` one
    coordinate at a time. Raises if any function value is non-finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1:
        raise ValueError("theta must be a 1-D vector")
    if not h > 0:
        raise ValueError(f"h must be positive, got {h!r}")
    work = theta.copy()
    grad = np.empty_like(work)
    for t in range(work.size):
        orig = work[t]
        work[t] = orig + h
        fp = float(f(work))
        work[t] = orig - h
        fm = float(f(work))
        work[t] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"f is non-finite near coordinate {t}")
        grad[t] = (fp - fm) / (2.0 * h)
    return grad
