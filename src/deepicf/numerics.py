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
        if not ((y == 0) | (y == 1)).all():
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
    # the largest kept |s| of a row picks its branch, and is NaN or inf
    # where a kept score is not finite; one pass over all rows finds
    # the common case, every row direct
    if beta < 1.0 and _all_direct(s, mask):
        if mask is None:
            e = np.exp(s)
        else:
            # a left-out entry is exp(-inf), an exact 0
            e = np.where(mask, s, -np.inf)
            np.exp(e, out=e)
        e /= _nonzero(e.sum(axis=-1, keepdims=True)) ** beta
        return e
    top = _top(s, mask)
    finite = top < np.inf
    if not finite.all():
        return np.where(finite, softmax_beta(np.where(finite, s, 0.0), beta,
                                             mask), np.nan)
    live = s if mask is None else np.where(mask, s, -np.inf)
    if beta == 1.0:
        return _softmax(live)
    direct = top <= _DIRECT_SCORE_BOUND
    weights = np.exp(np.where(direct, live, -np.inf))
    weights /= _nonzero(weights.sum(axis=-1, keepdims=True)) ** beta
    m = np.where(direct, 0.0, live.max(axis=-1, keepdims=True))
    lse = m + np.log(_nonzero(np.exp(live - m).sum(axis=-1, keepdims=True)))
    logw = live - beta * lse
    np.exp(np.clip(logw, _LOG_TINY, _LOG_HUGE, out=logw), out=logw)
    np.copyto(logw, 0.0, where=live == -np.inf)
    np.copyto(logw, weights, where=direct)
    return logw


def _all_direct(s, mask):
    """Whether every row's largest kept |s| is within the direct
    branch's bound: read off all the scores where they are all within it,
    as they mostly are, and off the kept ones only otherwise."""
    return (_top(s, None, None) <= _DIRECT_SCORE_BOUND
            or mask is not None and _top(s, mask, None) <= _DIRECT_SCORE_BOUND)


def _top(s, mask, axis=-1):
    """The largest kept |s| of each row, or with ``axis`` None of all
    rows; NaN or inf where a kept score is not finite."""
    return np.max(np.abs(s), axis=axis, keepdims=True, initial=0.0,
                  where=True if mask is None else mask)


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

    ``g`` is read off the weights where they hold it: at beta = 1 they
    are the plain softmax, and on a row of the direct branch, where
    ``w = exp(s) / S ** beta``, it is ``w / sum(w)``. Only a log-domain
    row, whose weights may be clamped, takes a masked softmax pass of its
    own.
    """
    d = np.asarray(d_weights, dtype=np.float64)
    if beta == 1.0:
        g = weights
    else:
        s = np.asarray(scores, dtype=np.float64)
        g = weights / _nonzero(weights.sum(axis=-1, keepdims=True))
        if not _all_direct(s, mask):
            g = np.where(_top(s, mask) <= _DIRECT_SCORE_BOUND, g, _softmax(
                s if mask is None else np.where(mask, s, -np.inf)))
    # the products d * w once, as the gradient's first term, from which
    # beta * g * <d, w> is taken in place
    grad = weights * d
    inner = grad.sum(axis=-1, keepdims=True)
    coupled = beta * g
    coupled *= inner
    grad -= coupled
    return grad


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
