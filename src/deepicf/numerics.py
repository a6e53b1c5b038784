"""Deterministic numeric kernels: stable sigmoid and log loss, the
beta-smoothed softmax used by attention pooling (row-wise over the last
axis, with an optional mask, and its vector-Jacobian product) and seeded
RNG plumbing.

Everything here is a pure function of its inputs; all arithmetic is done
in 64-bit floats.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = [
    "sigmoid",
    "bce_from_logit",
    "softmax_beta",
    "softmax_beta_vjp",
    "relu",
    "rng_from_seed",
]

# exp() saturation bounds for float64: exp(710) overflows, exp(-746) is 0.0
_LOG_HUGE = 709.0
_LOG_TINY = -745.0

# nearest representable neighbours of the open interval (0, 1)
_SIGMOID_LO = float(np.nextafter(0.0, 1.0))
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))

# threshold below which exp(scores) is evaluated directly; see softmax_beta
_DIRECT_SCORE_BOUND = 30.0

_MASK64 = (1 << 64) - 1


def sigmoid(x):
    """Numerically stable logistic function with values in the open (0, 1).

    Only exp(-|x|) is ever evaluated, so no overflow occurs for any finite
    input. Results that would round to exactly 0.0 or 1.0 are nudged to the
    nearest representable neighbour so that downstream logarithms stay
    finite. Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return _sigmoid_float(float(arr))
    z = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI)


def _sigmoid_float(x):
    """:func:`sigmoid` of one Python float, with the same operations in
    plain float arithmetic, for the loss of a single training instance."""
    z = float(np.exp(-abs(x)))
    out = 1.0 / (1.0 + z) if x >= 0.0 else z / (1.0 + z)
    return min(max(out, _SIGMOID_LO), _SIGMOID_HI)


def bce_from_logit(logit, label):
    """Binary cross-entropy of a raw logit against a 0/1 label, or of an
    array of logits against their labels, elementwise.

    Returns ``(loss, dloss_dlogit)``. The loss uses the stable form
    ``max(x, 0) - x*y + log1p(exp(-|x|))`` and the gradient is exactly
    ``sigmoid(logit) - label``. A non-finite logit gives a non-finite
    loss, which the caller detects.
    """
    if isinstance(logit, np.ndarray):
        y = np.asarray(label)
        if not np.isin(y, (0, 1)).all():
            raise ValueError(f"labels must be 0 or 1, got {label!r}")
        loss = (np.maximum(logit, 0.0) - logit * y
                + np.log1p(np.exp(-np.abs(logit))))
        return loss, sigmoid(logit) - y
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    x = float(logit)
    loss = max(x, 0.0) - x * label + math.log1p(math.exp(-abs(x)))
    return loss, _sigmoid_float(x) - label


def softmax_beta(scores, beta, mask=None):
    """Softmax variant whose denominator is raised to ``beta`` in [0, 1],
    row by row over the last axis.

    Computes ``w_t = exp(s_t) / (sum_u exp(s_u)) ** beta``. With beta=1
    this is the standard softmax (evaluated with the usual max-shift, which
    is exact there); with beta=0 the denominator is exactly 1 and the
    result is elementwise exp.

    For beta < 1 the max-shift trick is *not* an identity, so the exact
    convention is: when max|s| <= 30 over a row the formula is evaluated
    directly in float64 (no shift, no bias); for a row with larger scores
    it falls back to the log-domain form ``exp(s_t - beta * logsumexp(s))``,
    which is the shift-consistent rewrite of the same quantity, with the
    final exponent clamped to the float64-representable range so the
    output stays finite (the clamp only engages where the true value over-
    or underflows).

    ``mask``, broadcastable to the scores, leaves out the entries where it
    is False: they get weight 0 and take no part in the row's sums, its
    maximum or its choice of branch. A row with no entry left is all zeros.
    A row with a score left in that is not finite is all NaN, so that what
    is computed from it is not finite either.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim == 0 or s.shape[-1] == 0:
        raise ValueError("scores must have a non-empty last axis")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta!r}")
    bad = ~np.isfinite(s)
    if mask is not None:
        bad &= mask
    if bad.any():
        return np.where(bad.any(axis=-1, keepdims=True), np.nan,
                        softmax_beta(np.where(bad, 0.0, s), beta, mask))
    live = s if mask is None else np.where(mask, s, -np.inf)
    if beta == 1.0:
        return _softmax(live)
    top = np.max(np.abs(s), axis=-1, keepdims=True, initial=0.0,
                 where=True if mask is None else mask)
    direct = top <= _DIRECT_SCORE_BOUND
    all_direct = direct.all()
    e = np.exp(live if all_direct else np.where(direct, live, -np.inf))
    weights = e / _nonzero(e.sum(axis=-1, keepdims=True)) ** beta
    if all_direct:
        return weights
    m = np.where(direct, 0.0, live.max(axis=-1, keepdims=True))
    lse = m + np.log(_nonzero(np.exp(live - m).sum(axis=-1, keepdims=True)))
    logw = np.exp(np.clip(live - beta * lse, _LOG_TINY, _LOG_HUGE))
    return np.where(direct, weights, np.where(live > -np.inf, logw, 0.0))


def _nonzero(total):
    """Row sums with 0 (a row whose entries are all masked) read as 1."""
    return np.where(total > 0.0, total, 1.0)


def _softmax(live):
    """Plain softmax over the last axis, with -inf entries at weight 0."""
    m = live.max(axis=-1, keepdims=True, initial=-np.inf)
    e = np.exp(live - np.where(m > -np.inf, m, 0.0))
    return e / _nonzero(e.sum(axis=-1, keepdims=True))


def softmax_beta_vjp(scores, weights, beta, d_weights, mask=None):
    """Vector-Jacobian product of :func:`softmax_beta` at ``scores``, given
    the ``weights`` it returned there (with the same ``mask``).

    With ``w = softmax_beta(s, beta)`` and ``g = softmax(s)`` the Jacobian
    is ``dw_t/ds_r = w_t * (delta_tr - beta * g_r)``: the beta exponent on
    the shared denominator couples every weight to every score. Returns
    the gradient with respect to the scores given a cotangent on the
    weights; masked entries get 0.
    """
    s = np.asarray(scores, dtype=np.float64)
    d = np.asarray(d_weights, dtype=np.float64)
    g = _softmax(s if mask is None else np.where(mask, s, -np.inf))
    inner = (d * weights).sum(axis=-1, keepdims=True)
    return weights * d - beta * g * inner


def relu(x, out=None):
    """Rectifier max(x, 0), into ``out`` if given (``x`` itself rectifies
    in place). The derivative at 0 is taken to be 0."""
    return np.maximum(x, 0.0, out=out)


def _label_entropy(label):
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_from_seed(seed, *labels):
    """Deterministic generator for ``seed`` plus an optional substream label.

    The same (seed, labels) pair always yields an identical stream;
    distinct labels give independent substreams, which is how the split,
    initialization, and per-epoch shuffles stay decoupled.
    """
    entropy = [int(seed) & _MASK64] + [_label_entropy(lab) for lab in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
