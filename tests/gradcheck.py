"""The gradient-check oracle: flat views of a model's trained tensors and a
central finite-difference gradient over them.

``params_from_flat`` rebuilds parameters as views into one vector, so that
``finite_diff_grad`` perturbs one model weight at a time; ``flatten_grads``
scatters the analytic :class:`deepicf.model.Grads` into the same layout
for a direct comparison.
"""

import math

import numpy as np

from deepicf.model import ModelParams, param_layout


def flatten_params(params, config):
    """Concatenate the variant's trained tensors into one vector."""
    layout = param_layout(config, params.num_users, params.num_items)
    return np.concatenate([params[name].ravel()
                           for name, _, trained in layout if trained])


def params_from_flat(theta, config, num_users, num_items):
    """Rebuild parameters as views into a flat vector, so perturbing one
    coordinate of ``theta`` perturbs exactly one model weight."""
    params = ModelParams()
    offset = 0
    for name, shape, trained in param_layout(config, num_users, num_items):
        if not trained:
            params[name] = np.ones(shape)
            continue
        size = math.prod(shape)
        params[name] = theta[offset:offset + size].reshape(shape)
        offset += size
    if offset != theta.size:
        raise ValueError(
            f"flat vector has {theta.size} entries, expected {offset}")
    return params


def flatten_grads(grads, config, num_users, num_items):
    """Scatter :class:`Grads` into the flat layout of
    :func:`flatten_params`, for direct comparison with the oracle."""
    parts = []
    for name, shape, trained in param_layout(config, num_users, num_items):
        if name in grads.rows:
            full = np.zeros(shape)
            np.add.at(full, *grads.rows[name])
        elif trained:
            full = grads.dense[name]
        else:
            continue
        parts.append(full.ravel())
    return np.concatenate(parts)


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
