"""The history-major attention formula, kept as the oracle of DeepICF_A's
candidate-major forward and backward passes in ``deepicf.model``, of one
item and of a block's user.

Here the pre-activations are laid out ``(..., n, k')``, one row per
history item, and computed as ``q @ (p[..., :, None] * W_att.T) + b``: a
stacked matmul per candidate plus a separate bias pass. The package lays
them out ``(..., k', n)`` and computes them with one GEMM. Both are exact
rewrites of ``relu(W_att (p * q_t) + b)``, so they agree to rounding.
"""

from types import SimpleNamespace

import numpy as np

from deepicf.model import Grads
from deepicf.numerics import relu, softmax_beta


def softmax_beta_vjp(scores, weights, beta, d_weights, mask=None):
    """The vector-Jacobian product of ``softmax_beta`` with the plain
    softmax ``g`` of its Jacobian ``w_t (delta_tr - beta g_r)`` computed
    from the masked scores by a max-shifted ``exp`` pass of its own, where
    the package reads it off the weights."""
    s = np.asarray(scores, dtype=np.float64)
    live = s if mask is None else np.where(mask, s, -np.inf)
    top = live.max(axis=-1, keepdims=True, initial=-np.inf)
    e = np.exp(live - np.where(top > -np.inf, top, 0.0))
    total = e.sum(axis=-1, keepdims=True)
    g = e / np.where(total > 0.0, total, 1.0)
    d = np.asarray(d_weights, dtype=np.float64)
    inner = (d * weights).sum(axis=-1, keepdims=True)
    return weights * d - beta * g * inner


def pre_activations(params, hist_embed, target):
    """The attention pre-activations ``(..., n, k')`` of the target
    embeddings ``target`` (``(..., k)``) against the history rows."""
    return (hist_embed @ (target[..., :, None] * params["att_weight"].T)
            + params["att_bias"])


def forward(params, config, history, user, items):
    """The attention variant's forward pass, in the history-major layout:
    a namespace with the fields of ``deepicf.model.ForwardCache`` that
    the attention variant fills but ``net``, whose pieces it names apart
    (``att_hidden``, laid out ``(..., n, k')``, ``scores`` and
    ``weights``), plus ``att_pre``."""
    hist = np.asarray(history, dtype=np.int64)
    keep = hist != np.asarray(items)[..., None]
    q = params["history_embed"][hist]
    p = params["target_embed"][items]
    att_pre = pre_activations(params, q, p)
    att_hidden = relu(att_pre)
    scores = att_hidden @ params["att_out"]
    weights = (softmax_beta(scores, config.beta, keep) if hist.size
               else np.zeros(scores.shape))
    out = pooled = p * (weights @ q)
    pres, acts = [], []
    for layer in range(config.num_layers):
        pre = out @ params[f"W{layer}"].T + params[f"b{layer}"]
        out = relu(pre)
        pres.append(pre)
        acts.append(out)
    logit = (out @ params["output_weights"] + params["user_bias"][user]
             + params["item_bias"][items])
    return SimpleNamespace(
        user=user, items=items, hist=hist, keep=keep, hist_embed=q,
        target=p, att_pre=att_pre, att_hidden=att_hidden, scores=scores,
        weights=weights, pooled=pooled, layer_pres=pres, layer_acts=acts,
        logit=logit)


def backward(params, config, cache, dlogit):
    """The attention variant's backward pass over a :func:`forward`
    cache: :class:`deepicf.model.Grads` with the dense gradients as a
    plain dict."""
    one = cache.keep.ndim == 1
    q, p = cache.hist_embed, cache.target
    total = (lambda x: x) if one else np.add.reduce
    outer = ((lambda a, b: a[:, None] * b) if one
             else (lambda a, b: np.dot(a.T, b)))
    dense = {}
    top = cache.layer_acts[-1] if cache.layer_acts else cache.pooled
    dense["output_weights"] = dlogit * top if one else np.dot(dlogit, top)
    d_vec = (dlogit if one else dlogit[:, None]) * params["output_weights"]
    for layer in reversed(range(config.num_layers)):
        d_pre = d_vec * (cache.layer_pres[layer] > 0.0)
        below = cache.layer_acts[layer - 1] if layer > 0 else cache.pooled
        dense[f"W{layer}"] = outer(d_pre, below)
        dense[f"b{layer}"] = total(d_pre)
        d_vec = d_pre @ params[f"W{layer}"]

    kept = cache.keep if one else np.logical_or.reduce(cache.keep)
    w_att = params["att_weight"]
    k_att, k = w_att.shape
    dp = d_vec * p
    d_scores = softmax_beta_vjp(cache.scores, cache.weights, config.beta,
                                dp @ q.T, cache.keep)
    dense["att_out"] = (cache.att_hidden.reshape(-1, k_att).T
                        @ d_scores.reshape(-1))
    d_pre = d_scores[..., None] * params["att_out"] * (cache.att_pre > 0.0)
    m = np.swapaxes(d_pre, -1, -2) @ q
    dense["att_weight"] = total(m * p[..., None, :])
    dense["att_bias"] = d_pre.reshape(-1, k_att).sum(axis=0)
    d_target = d_vec * (cache.weights @ q) + (m * w_att).sum(axis=-2)
    w_scaled = (w_att * p[..., None, :]).reshape(-1, k)
    d_history = (outer(cache.weights, dp)
                 + np.swapaxes(d_pre, 0, -2).reshape(-1, w_scaled.shape[0])
                 @ w_scaled)[kept]
    if one:
        d_items = d_user = float(dlogit)
    else:
        d_items, d_user = dlogit, dlogit.sum()
    return Grads(rows={"target_embed": (cache.items, d_target),
                       "history_embed": (cache.hist[kept], d_history),
                       "user_bias": (cache.user, d_user),
                       "item_bias": (cache.items, d_items)},
                 dense=dense)
