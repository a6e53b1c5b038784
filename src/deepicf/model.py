"""Model variants, their parameters, forward prediction, and exact
analytic backward passes.

All three variants share the same skeleton: elementwise products between
the target-item embedding and each history-item embedding, a pooling step
(alpha-normalized averaging, or an attention network with a beta-smoothed
softmax), an optional ReLU tower over the pooled vector, and a linear
prediction layer with user and item biases.

:func:`forward` is the one implementation of that skeleton. It scores a
user's history against one item or a whole candidate set, each candidate
masked out of the history by its own row of a mask; training's
:func:`predict_logit` and ranking's :func:`score_items` are calls of it.
:func:`backward` differentiates its cache, for one item or for the
candidates of one user that a training batch scores together, and returns
the gradients of their summed loss.

The tensors of a variant are declared once, by :func:`param_layout`;
parameters, the flat views used by the gradient checks, the optimizer
state and the checkpoint format are all derived from that list.
Parameters are mutable numpy arrays; training is single-writer, while any
number of evaluators may read a parameter set concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from deepicf.errors import ConfigError, ModelError
from deepicf.numerics import relu, softmax_beta, softmax_beta_vjp

INIT_STD = 0.01
MIN_TOWER_WIDTH = 4


class Variant(str, enum.Enum):
    FISM = "FISM"
    DEEPICF = "DeepICF"
    DEEPICF_A = "DeepICF_A"

    @classmethod
    def parse(cls, text):
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ConfigError(f"unknown variant {text!r}; expected one of {valid}")


def tower_layer_sizes(k, depth):
    """Default hidden sizes: start at the embedding size and halve per
    layer, never narrower than 4. E.g. k=16, depth=3 -> (16, 8, 4)."""
    return tuple(max(MIN_TOWER_WIDTH, k >> level) for level in range(depth))


@dataclass(frozen=True)
class ModelConfig:
    """Variant selector plus every hyper-parameter.

    ``alpha`` smooths the average pooling (0 = sum, 1 = mean), ``beta``
    smooths the attention softmax denominator, ``l2`` is the L2 strength
    applied to the tower weight matrices, and ``num_negatives`` is the
    sampling ratio per training positive.
    """

    variant: Variant
    k: int = 16
    k_prime: int = 8
    num_layers: int = 0
    layer_sizes: tuple = ()
    alpha: float = 0.0
    beta: float = 0.5
    l2: float = 0.0
    num_negatives: int = 4
    lr: float = 0.01
    epochs: int = 50
    seed: int = 42
    batch_size: int = 1
    reg_embeddings: bool = False
    pretrain: bool = False
    pretrain_epochs: int | None = None
    eval_every: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        sizes = tuple(int(d) for d in self.layer_sizes)
        if self.num_layers > 0 and not sizes:
            sizes = tower_layer_sizes(self.k, self.num_layers)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) != self.num_layers:
            raise ConfigError(
                f"layer_sizes {sizes} inconsistent with L={self.num_layers}")
        if self.k <= 0:
            raise ConfigError(f"embedding size must be positive, got {self.k}")
        if any(d <= 0 for d in sizes):
            raise ConfigError(f"layer sizes must be positive, got {sizes}")
        if self.variant is Variant.FISM and self.num_layers != 0:
            raise ConfigError("FISM has no hidden layers; set L=0")
        if self.variant is Variant.DEEPICF_A:
            if self.k_prime <= 0:
                raise ConfigError(
                    f"attention size must be positive, got {self.k_prime}")
            if self.alpha != 0.0:
                raise ConfigError(
                    "the attention variant omits the history-length"
                    " normalizer; alpha must be 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if self.l2 < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.l2}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.num_negatives < 0:
            raise ConfigError(f"NS must be >= 0, got {self.num_negatives}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def output_dim(self):
        return self.layer_sizes[-1] if self.num_layers else self.k

    @property
    def uses_attention(self):
        return self.variant is Variant.DEEPICF_A

    @property
    def trains_output_weights(self):
        # FISM fixes the output vector to all-ones to match its inner
        # product form; the deep variants train it.
        return self.variant is not Variant.FISM


def param_layout(config, num_users, num_items):
    """Every tensor the variant carries, as ordered ``(name, shape,
    trained)`` triples in ``DICF1`` checkpoint order: target and history
    embeddings, user and item biases, the output vector, ``W{l}`` and
    ``b{l}`` per tower layer, then the attention weight, bias and output
    vector. FISM's output vector is fixed to all-ones and not trained."""
    k = config.k
    layout = [("target_embed", (num_items, k), True),
              ("history_embed", (num_items, k), True),
              ("user_bias", (num_users,), True),
              ("item_bias", (num_items,), True),
              ("output_weights", (config.output_dim,),
               config.trains_output_weights)]
    prev = k
    for layer, d in enumerate(config.layer_sizes):
        layout += [(f"W{layer}", (d, prev), True), (f"b{layer}", (d,), True)]
        prev = d
    if config.uses_attention:
        layout += [("att_weight", (config.k_prime, k), True),
                   ("att_bias", (config.k_prime,), True),
                   ("att_out", (config.k_prime,), True)]
    return layout


class ModelParams(dict):
    """Every tensor of one model instance: an ordered name -> array mapping
    in :func:`param_layout` order."""

    @property
    def num_users(self):
        return self["user_bias"].shape[0]

    @property
    def num_items(self):
        return self["item_bias"].shape[0]

    def clone(self):
        return ModelParams((name, a.copy()) for name, a in self.items())

    def arrays(self):
        """Every array the variant carries, in checkpoint order."""
        return list(self.values())


def init_params(config, num_users, num_items, rng):
    """Fresh parameters: weights ~ Gaussian(0, 0.01), biases zero, and
    FISM's fixed output vector all-ones.

    The draw order (target embeddings, history embeddings, tower weights,
    output weights, attention weights) is fixed so a seed fully determines
    the result.
    """
    if num_users <= 0 or num_items <= 0:
        raise ModelError("need at least one user and one item")
    layout = param_layout(config, num_users, num_items)
    drawn = {}
    for name, shape, trained in sorted(
            layout, key=lambda spec: (spec[0].startswith("att"),
                                      spec[0] == "output_weights")):
        if not trained:
            drawn[name] = np.ones(shape)
        elif name.endswith("bias") or name[0] == "b":
            drawn[name] = np.zeros(shape)
        else:
            drawn[name] = rng.normal(0.0, INIT_STD, size=shape)
    return ModelParams((name, drawn[name]) for name, _, _ in layout)


# ---------------------------------------------------------------------------
# Forward and backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    """One user's forward pass over ``items``, which is one item index or
    an array of candidates. Every per-candidate array has the candidates'
    shape as its leading axes (written ``...``), so one item gives plain
    vectors and scalars."""

    user: int
    items: object                # one item index, or an array of them
    hist: np.ndarray             # (n,) history indices
    keep: np.ndarray             # (..., n) False where the candidate is in the history
    hist_embed: np.ndarray       # (n, k) gathered history embeddings
    target: np.ndarray           # (..., k) target embeddings
    pool_scale: object           # (..., 1) |kept history|^-alpha, or 1.0
    hist_sum: np.ndarray | None  # (..., k) sum of the kept history rows
    att_pre: np.ndarray | None   # (..., n, k') attention hidden pre-activations
    att_hidden: np.ndarray | None
    scores: np.ndarray | None    # (..., n) attention scores
    weights: np.ndarray | None   # (..., n) beta-softmax weights, 0 where masked
    pooled: np.ndarray           # (..., k)
    layer_pres: list             # per tower layer, (..., d_l)
    layer_acts: list
    logit: object                # (...)


def forward(params, config, history, user, items):
    """The forward pass of every variant, for one user's training history
    and a candidate set.

    Each candidate is masked out of the history by its own row of
    ``keep``, so a leaked copy of an item cannot influence its own score.
    The elementwise products of the target and history embeddings are
    pooled, with the |set|^-alpha normalized sum or with the attention
    net and its beta-smoothed softmax (history-length normalizer omitted,
    alpha = 0; the products enter it linearly, so they are never formed),
    then passed through the ReLU tower and the prediction layer. The user
    index is range-checked here, the item indices by the callers.
    """
    if not 0 <= user < params.num_users:
        raise ModelError(f"user index {user} outside [0, {params.num_users})")
    hist = np.asarray(history, dtype=np.int64)
    keep = hist != np.asarray(items)[..., None]
    q = params["history_embed"][hist]
    p = params["target_embed"][items]
    hist_sum = att_pre = att_hidden = scores = weights = None
    if config.uses_attention:
        scale = 1.0
        att_pre = (q @ (p[..., :, None] * params["att_weight"].T)
                   + params["att_bias"])
        att_hidden = relu(att_pre)
        scores = att_hidden @ params["att_out"]
        weights = (softmax_beta(scores, config.beta, keep) if hist.size
                   else np.zeros(scores.shape))
        pooled = p * (weights @ q)
    else:
        # alpha=0 is plain sum pooling; an empty set pools to zero, with
        # the normalizer defined as 1 to avoid 0**-alpha
        scale = (1.0 if config.alpha == 0.0 else
                 np.maximum(keep.sum(axis=-1, keepdims=True), 1) ** -config.alpha)
        hist_sum = keep @ q
        pooled = scale * (p * hist_sum)
    out = pooled
    pres, acts = [], []
    for layer in range(config.num_layers):
        w = params[f"W{layer}"]
        if w.shape[1] != out.shape[-1]:
            raise ModelError(
                f"layer expects input of size {w.shape[1]}, got {out.shape[-1]}")
        pre = out @ w.T + params[f"b{layer}"]
        out = relu(pre)
        pres.append(pre)
        acts.append(out)
    logit = (out @ params["output_weights"] + params["user_bias"][user]
             + params["item_bias"][items])
    return ForwardCache(
        user=user, items=items, hist=hist, keep=keep, hist_embed=q, target=p,
        pool_scale=scale, hist_sum=hist_sum, att_pre=att_pre,
        att_hidden=att_hidden, scores=scores, weights=weights, pooled=pooled,
        layer_pres=pres, layer_acts=acts, logit=logit)


def predict_logit(params, config, history, user, items):
    """Forward pass for one user, given the stored training history, and
    one item index or an array of candidates, each range-checked.
    Returns ``(logit, cache)``: the logit is a float for one item and an
    array shaped like ``items`` otherwise."""
    low, high = ((items, items) if isinstance(items, int)
                 else (items.min(), items.max()))
    if low < 0 or high >= params.num_items:
        raise ModelError(f"item index {low if low < 0 else high} outside "
                         f"[0, {params.num_items})")
    cache = forward(params, config, history, user, items)
    return cache.logit, cache


def score_items(params, config, history, user, items):
    """Logits of many candidate items for one user, from one forward pass;
    used by the evaluation harness and the recommender."""
    items = np.atleast_1d(np.asarray(items, dtype=np.int64))
    if items.size == 0:
        return np.empty(0)
    if items.min() < 0 or items.max() >= params.num_items:
        raise ModelError("item index out of range")
    return forward(params, config, history, user, items).logit


@dataclass
class Grads:
    """Gradients keyed by tensor name, as in :func:`param_layout`.

    ``rows`` maps each of the two embedding tables and the two bias
    vectors to ``(rows, values)`` over just the rows a forward cache
    touched: each history row once, and a target row and item bias per
    candidate (a plain int for one item); ``dense`` holds the whole-tensor
    gradients of every other trained tensor.
    """

    rows: dict
    dense: dict


def backward(params, config, cache, dlogit):
    """Exact analytic gradients of the loss summed over the candidates of
    a forward cache, for every parameter the variant trains.

    ``dlogit`` is the loss gradient at each logit, shaped like the
    candidates: a float for one item, or an array for a candidate array.
    Every whole-tensor gradient is summed over the candidates. A history
    row collects the gradient of every candidate that keeps it in its
    pool. Target rows and item biases come one per candidate, so a
    candidate that repeats repeats there too. One item keeps the one-item
    shapes throughout: a plain target index and float biases.

    Chain rule through the prediction layer, the ReLU tower, the pooling
    step, and the pairwise products. For attention pooling the full
    softmax Jacobian is applied: the beta exponent on the shared
    denominator couples all weights, so each score receives
    ``w_r * d_r - beta * g_r * <d, w>`` where g is the plain softmax of the
    same scores. The history rows masked out of every pool get no
    gradient. As in the forward pass, the attention variant never forms
    the ``(..., n, k)`` products: their gradients are folded through
    ``M = d_pre^T q``, of shape ``(..., k', k)``.
    """
    one = cache.keep.ndim == 1
    q, p = cache.hist_embed, cache.target

    dense = {}
    if config.trains_output_weights:
        top = cache.layer_acts[-1] if cache.layer_acts else cache.pooled
        dense["output_weights"] = dlogit * top if one else np.dot(dlogit, top)
    d_vec = (dlogit if one else dlogit[:, None]) * params["output_weights"]

    for layer in reversed(range(config.num_layers)):
        # ReLU subgradient at exactly 0 is taken as 0
        d_pre = d_vec * (cache.layer_pres[layer] > 0.0)
        below = cache.layer_acts[layer - 1] if layer > 0 else cache.pooled
        dense[f"W{layer}"] = _outer_total(d_pre, below, one)
        dense[f"b{layer}"] = _total(d_pre, one)
        d_vec = d_pre @ params[f"W{layer}"]

    kept = cache.keep if one else np.logical_or.reduce(cache.keep)
    rows = cache.hist[kept]
    if config.uses_attention:
        # pooled = sum_t w_t v_t; masked rows carry w_t = 0 throughout
        w_att = params["att_weight"]
        k_att, k = w_att.shape
        dp = d_vec * p
        d_scores = softmax_beta_vjp(cache.scores, cache.weights, config.beta,
                                    dp @ q.T, cache.keep)
        dense["att_out"] = (cache.att_hidden.reshape(-1, k_att).T
                            @ d_scores.reshape(-1))
        d_pre = d_scores[..., None] * params["att_out"] * (cache.att_pre > 0.0)
        m = np.swapaxes(d_pre, -1, -2) @ q
        dense["att_weight"] = _total(m * p[..., None, :], one)
        # summed over candidates and rows as one product: a reduction
        # along the long axis is many times slower
        flat = d_pre.reshape(-1, k_att)
        dense["att_bias"] = np.ones(flat.shape[0]) @ flat
        # direct path through the weights, then the attention path
        d_target = d_vec * (cache.weights @ q) + (m * w_att).sum(axis=-2)
        w_scaled = (w_att * p[..., None, :]).reshape(-1, k)
        d_history = (_outer_total(cache.weights, dp, one)
                     + np.swapaxes(d_pre, 0, -2).reshape(-1, w_scaled.shape[0])
                     @ w_scaled)[kept]
    else:
        d_pool = cache.pool_scale * d_vec
        d_target = d_pool * cache.hist_sum
        # each candidate adds its d_pool * p to every row it keeps
        spread = d_pool * p
        d_history = (np.repeat(spread[None], rows.size, axis=0) if one
                     else np.dot(cache.keep[:, kept].T, spread))

    if one:
        d_items = d_user = float(dlogit)
    else:
        d_items, d_user = dlogit, dlogit.sum()
    return Grads(rows={"target_embed": (cache.items, d_target),
                       "history_embed": (rows, d_history),
                       "user_bias": (cache.user, d_user),
                       "item_bias": (cache.items, d_items)},
                 dense=dense)


def _total(x, one):
    """``x`` summed over its candidate axis, which one item does not have."""
    return x if one else np.add.reduce(x)


def _outer_total(a, b, one):
    """The outer products of ``a`` and ``b`` summed over the candidates."""
    return a[:, None] * b if one else np.dot(a.T, b)


# ---------------------------------------------------------------------------
# Flat parameter views, used by the finite-difference gradient checks
# ---------------------------------------------------------------------------

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
        raise ModelError(
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


def fism_config(config):
    """The FISM companion of a deep config, used for embedding pre-training:
    same embedding size, pooling exponent, sampling ratio, and optimizer
    settings, with the tower and attention removed."""
    return replace(config, variant=Variant.FISM, num_layers=0, layer_sizes=(),
                   pretrain=False,
                   epochs=(config.pretrain_epochs
                           if config.pretrain_epochs is not None
                           else config.epochs))
