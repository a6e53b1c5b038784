"""Model variants, their parameters, forward prediction, and exact
analytic backward passes.

All three variants share the same skeleton: elementwise products between
the target-item embedding and each history-item embedding, a pooling step
(alpha-normalized averaging, or an attention network with a beta-smoothed
softmax), an optional ReLU tower over the pooled vector, and a linear
prediction layer with user and item biases.

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
    def layer_weights(self):
        """Tower weight matrices W_l: (d_l, d_{l-1}), bottom layer first."""
        return [a for name, a in self.items() if name[0] == "W"]

    @property
    def layer_biases(self):
        """Tower biases b_l: (d_l,), bottom layer first."""
        return [a for name, a in self.items() if name[0] == "b"]

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
# Forward pieces
# ---------------------------------------------------------------------------

def pairwise_interactions(params, history, item):
    """Elementwise products q_j * p_i over the history with the target item
    masked out. Returns (masked history indices, the (n, k) matrix)."""
    hist = np.asarray(history, dtype=np.int64)
    hist = hist[hist != item]
    return hist, params["history_embed"][hist] * params["target_embed"][item]


def pool_average(pairwise, alpha):
    """Sum the interaction vectors scaled by |set|^-alpha.

    alpha=0 gives plain sum pooling, alpha=1 the mean. An empty set pools
    to the zero vector (the normalizer is defined as 1 to avoid 0**0).
    """
    n = pairwise.shape[0]
    if n == 0:
        return np.zeros(pairwise.shape[1])
    scale = 1.0 if alpha == 0.0 else float(n) ** -alpha
    return scale * pairwise.sum(axis=0)


@dataclass
class AttentionCache:
    pre: np.ndarray       # (n, k') hidden pre-activations
    hidden: np.ndarray    # (n, k') ReLU outputs
    scores: np.ndarray    # (n,)
    weights: np.ndarray   # (n,) beta-softmax weights
    pooled: np.ndarray    # (k,)


def attention_forward(pairwise, att_weight, att_bias, att_out, beta):
    """Score each interaction vector with the one-hidden-layer attention
    net, normalize with the beta-smoothed softmax, and pool. The history
    length normalizer is omitted here by convention (alpha = 0)."""
    n, k = pairwise.shape
    if n == 0:
        empty = np.empty((0, att_weight.shape[0]))
        return AttentionCache(pre=empty, hidden=empty, scores=np.empty(0),
                              weights=np.empty(0), pooled=np.zeros(k))
    pre = pairwise @ att_weight.T + att_bias
    hidden = relu(pre)
    scores = hidden @ att_out
    weights = softmax_beta(scores, beta)
    pooled = weights @ pairwise
    return AttentionCache(pre=pre, hidden=hidden, scores=scores,
                          weights=weights, pooled=pooled)


def pool_attention(pairwise, att_weight, att_bias, att_out, beta):
    """Attention pooling; returns (pooled vector, attention weights)."""
    cache = attention_forward(pairwise, att_weight, att_bias, att_out, beta)
    return cache.pooled, cache.weights


def mlp_forward(x, weights, biases):
    """ReLU tower over the pooled vector. Returns the final activation and
    the per-layer (pre-activation, activation) lists; depth 0 is the
    identity."""
    pres, acts = [], []
    out = x
    for w, b in zip(weights, biases):
        if w.shape[1] != out.shape[0]:
            raise ModelError(
                f"layer expects input of size {w.shape[1]}, got {out.shape[0]}")
        pre = w @ out + b
        out = relu(pre)
        pres.append(pre)
        acts.append(out)
    return out, pres, acts


@dataclass
class ForwardCache:
    """Everything the backward pass needs, captured during prediction."""

    user: int
    item: int
    hist: np.ndarray            # masked history indices
    pairwise: np.ndarray        # (n, k)
    pool_scale: float           # |set|^-alpha (1.0 for attention/empty)
    attention: AttentionCache | None
    pooled: np.ndarray
    layer_pres: list
    layer_acts: list
    logit: float


def predict_logit(params, config, history, user, item):
    """Forward pass for one (user, item) pair given the user's stored
    training history. The target item is always masked out of the history,
    so a leaked copy of the item cannot influence its own score. Returns
    (logit, cache)."""
    if not 0 <= user < params.num_users:
        raise ModelError(f"user index {user} outside [0, {params.num_users})")
    if not 0 <= item < params.num_items:
        raise ModelError(f"item index {item} outside [0, {params.num_items})")
    hist, pairwise = pairwise_interactions(params, history, item)
    n = pairwise.shape[0]
    att = None
    if config.uses_attention:
        att = attention_forward(pairwise, params["att_weight"],
                                params["att_bias"], params["att_out"],
                                config.beta)
        pooled = att.pooled
        scale = 1.0
    else:
        scale = 1.0 if (n == 0 or config.alpha == 0.0) else float(n) ** -config.alpha
        pooled = scale * pairwise.sum(axis=0) if n else np.zeros(config.k)
    out, pres, acts = mlp_forward(pooled, params.layer_weights,
                                  params.layer_biases)
    logit = float(params["output_weights"] @ out
                  + params["user_bias"][user] + params["item_bias"][item])
    cache = ForwardCache(user=user, item=item, hist=hist, pairwise=pairwise,
                         pool_scale=scale, attention=att, pooled=pooled,
                         layer_pres=pres, layer_acts=acts, logit=logit)
    return logit, cache


def score_items(params, config, history, user, items):
    """Vectorized forward pass over many candidate items for one user.

    Equivalent to calling :func:`predict_logit` per item (verified by
    tests); used by the evaluation harness and the recommender, where the
    candidate set never overlaps the history. Falls back to the scalar
    path when it does.
    """
    items = np.atleast_1d(np.asarray(items, dtype=np.int64))
    if items.size == 0:
        return np.empty(0)
    if items.min() < 0 or items.max() >= params.num_items:
        raise ModelError("item index out of range")
    hist = np.asarray(history, dtype=np.int64)
    if hist.size and np.isin(items, hist).any():
        return np.array([predict_logit(params, config, hist, user, int(i))[0]
                         for i in items])
    n = hist.size
    num = items.shape[0]
    if n == 0:
        pooled = np.zeros((num, config.k))
    elif config.uses_attention:
        v = (params["history_embed"][hist][None, :, :]
             * params["target_embed"][items][:, None, :])
        pre = v @ params["att_weight"].T + params["att_bias"]
        scores = relu(pre) @ params["att_out"]              # (num, n)
        weights = np.empty_like(scores)
        for r in range(num):
            weights[r] = softmax_beta(scores[r], config.beta)
        pooled = np.einsum("cn,cnk->ck", weights, v)
    else:
        scale = 1.0 if config.alpha == 0.0 else float(n) ** -config.alpha
        qsum = params["history_embed"][hist].sum(axis=0)
        pooled = scale * (params["target_embed"][items] * qsum)
    out = pooled
    for w, b in zip(params.layer_weights, params.layer_biases):
        out = relu(out @ w.T + b)
    return (out @ params["output_weights"]
            + params["user_bias"][user] + params["item_bias"][items])


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

@dataclass
class Grads:
    """Gradients keyed by tensor name, as in :func:`param_layout`.

    ``rows`` maps each of the two embedding tables and the two bias
    vectors to ``(rows, values)`` over just the rows an instance touched
    (a plain int for a single row); ``dense`` holds the whole-tensor
    gradients of every other trained tensor.
    """

    rows: dict
    dense: dict


def backward(params, config, cache, dlogit):
    """Exact analytic gradients for every parameter the variant trains.

    Chain rule through the prediction layer, the ReLU tower, the pooling
    step, and the pairwise products. For attention pooling the full
    softmax Jacobian is applied: the beta exponent on the shared
    denominator couples all weights, so each score receives
    ``w_r * d_r - beta * g_r * <d, w>`` where g is the plain softmax of the
    same scores.
    """
    dlogit = float(dlogit)
    k = config.k
    n = cache.hist.size

    dense = {}
    if config.trains_output_weights:
        top = cache.layer_acts[-1] if cache.layer_acts else cache.pooled
        dense["output_weights"] = dlogit * top
    d_vec = dlogit * params["output_weights"]

    for layer in reversed(range(config.num_layers)):
        # ReLU subgradient at exactly 0 is taken as 0
        d_pre = d_vec * (cache.layer_pres[layer] > 0.0)
        below = cache.layer_acts[layer - 1] if layer > 0 else cache.pooled
        dense[f"W{layer}"] = np.outer(d_pre, below)
        dense[f"b{layer}"] = d_pre
        d_vec = params[f"W{layer}"].T @ d_pre

    if config.uses_attention:
        dense["att_weight"] = np.zeros_like(params["att_weight"])
        dense["att_bias"] = np.zeros_like(params["att_bias"])
        dense["att_out"] = np.zeros_like(params["att_out"])

    if n == 0:
        d_target = np.zeros(k)
        d_history = np.zeros((0, k))
    elif config.uses_attention:
        att = cache.attention
        # pooled = sum_t w_t v_t
        d_weights = cache.pairwise @ d_vec                 # (n,)
        d_pair = att.weights[:, None] * d_vec[None, :]     # direct path
        d_scores = softmax_beta_vjp(att.scores, config.beta, d_weights)
        d_hidden = d_scores[:, None] * params["att_out"][None, :]
        dense["att_out"] = att.hidden.T @ d_scores
        d_pre = d_hidden * (att.pre > 0.0)
        dense["att_weight"] = d_pre.T @ cache.pairwise
        dense["att_bias"] = d_pre.sum(axis=0)
        d_pair = d_pair + d_pre @ params["att_weight"]     # attention path
        d_target = (d_pair * params["history_embed"][cache.hist]).sum(axis=0)
        d_history = d_pair * params["target_embed"][cache.item][None, :]
    else:
        d_pool = cache.pool_scale * d_vec
        d_target = d_pool * params["history_embed"][cache.hist].sum(axis=0)
        d_history = np.broadcast_to(
            d_pool * params["target_embed"][cache.item], (n, k))

    return Grads(rows={"target_embed": (cache.item, d_target),
                       "history_embed": (cache.hist, d_history),
                       "user_bias": (cache.user, dlogit),
                       "item_bias": (cache.item, dlogit)},
                 dense=dense)


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
