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
:func:`predict_logit` is a call of it. Ranking's :func:`_score_users`
cuts users into blocks by one byte count for every variant,
:func:`_block_cost`, and scores a block at once: FISM and DeepICF sum
each history once and take a candidate inside it back out; DeepICF_A
runs the attention net user by user, with a mask only for a user with a
candidate inside its history; both then share the tower and the
prediction layer with :func:`forward`, one call per block.
:func:`backward` differentiates its cache, for one item or for the
candidates of one user that a training batch scores together, and
returns the gradients of their summed loss.

The attention variant lays its hidden units out candidate-major,
``(..., k', n)`` for ``n`` history rows. The target embedding folds into
the attention weights and a ones column of the history carries the bias,
so one GEMM, ``(C k', k+1) @ (k+1, n)``, gives every pre-activation of
``C`` candidates; the ReLU rectifies them in place, so one such array is
live, and the scores are ``att_out @ att_hidden``. :func:`_attention`
holds that net, its softmax and its weighted sum, once for
:func:`forward` and for ranking.

The tensors of a variant are declared once, by :func:`param_layout`, and
:class:`ModelParams` lays them out in one vector: the parameters, the
optimizer state, the whole-tensor gradients and the checkpoint payload
all share that layout. Parameters are mutable; training is single-writer,
while any number of evaluators may read a parameter set concurrently.
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
# the bytes the arrays of one scoring block of _score_users may hold
SCORE_BLOCK_BYTES = 32 << 20


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
    vector. FISM's output vector is fixed to all-ones and not trained, so
    the trained tensors are always a prefix of the layout."""
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
    """Every tensor of one model instance: named views, in ``layout``
    order, into one float64 vector ``flat``.

    ``layout`` is a list of :func:`param_layout` triples. A given ``flat``
    becomes the buffer as it is; by default it is zeroed. Assigning to a
    name copies the value into that tensor's view, so ``flat`` always
    holds the whole model.
    """

    def __init__(self, layout, flat=None):
        super().__init__()
        self.layout = layout
        sizes = [math.prod(shape) for _, shape, _ in layout]
        if flat is None:
            flat = np.zeros(sum(sizes))
        elif flat.dtype != np.float64 or flat.shape != (sum(sizes),):
            raise ModelError(f"layout needs {sum(sizes)} float64 entries, "
                             f"got {flat.dtype} {flat.shape}")
        # where each view is cut, worked out once; a vector needs no reshape
        self._cuts, start = [], 0
        for (name, shape, _), size in zip(layout, sizes):
            self._cuts.append((name, slice(start, start + size),
                               shape if len(shape) > 1 else None))
            start += size
        self._tails = {}
        self._bind(flat)

    def _bind(self, flat):
        self.flat = flat
        dict.update(self, {name: flat[at] if shape is None
                           else flat[at].reshape(shape)
                           for name, at, shape in self._cuts})

    def __setitem__(self, name, value):
        view = self[name]
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ModelError(f"{name} has shape {view.shape}, cannot assign "
                             f"shape {value.shape}")
        view[...] = value

    @property
    def num_users(self):
        return self["user_bias"].shape[0]

    @property
    def num_items(self):
        return self["item_bias"].shape[0]

    def clone(self):
        return ModelParams(self.layout, self.flat.copy())

    def zeroed_tail(self, start):
        """A zeroed :class:`ModelParams` over ``layout[start:]``, such as
        the whole-tensor gradients of one backward pass. Its cuts are
        worked out on the first call for a ``start``; later calls only
        cut the views of a fresh buffer."""
        tail = self._tails.get(start)
        if tail is None:
            tail = self._tails[start] = ModelParams(self.layout[start:])
        if not tail.flat.size:
            return tail     # nothing to write: one empty tail serves all
        fresh = dict.__new__(ModelParams)
        fresh.layout, fresh._cuts, fresh._tails = tail.layout, tail._cuts, {}
        fresh._bind(np.zeros(tail.flat.size))
        return fresh


def init_params(config, num_users, num_items, rng):
    """Fresh parameters: weights ~ Gaussian(0, 0.01), biases zero, and
    FISM's fixed output vector all-ones.

    The draw order (target embeddings, history embeddings, tower weights,
    output weights, attention weights) is fixed so a seed fully determines
    the result.
    """
    if num_users <= 0 or num_items <= 0:
        raise ModelError("need at least one user and one item")
    params = ModelParams(param_layout(config, num_users, num_items))
    for name, shape, trained in sorted(
            params.layout, key=lambda spec: (spec[0].startswith("att"),
                                             spec[0] == "output_weights")):
        if not trained:
            params[name].fill(1.0)
        elif not (name.endswith("bias") or name[0] == "b"):
            params[name] = rng.normal(0.0, INIT_STD, size=shape)
    return params


# ---------------------------------------------------------------------------
# Forward and backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    """One user's forward pass over ``items``, which is one item index or
    an array of candidates. Every per-candidate array has the candidates'
    shape as its leading axes (written ``...``), so one item gives plain
    vectors and scalars. The attention arrays are candidate-major: the
    ``k'`` hidden units of a candidate come before its ``n`` history
    rows. Only their ReLU outputs are kept; a unit is on where its
    output is positive."""

    user: int
    items: object                # one item index, or an array of them
    hist: np.ndarray             # (n,) history indices
    keep: np.ndarray             # (..., n) False where the candidate is in the history
    hist_embed: np.ndarray       # (n, k) gathered history embeddings
    target: np.ndarray           # (..., k) target embeddings
    pool_scale: object           # (..., 1) |kept history|^-alpha, or 1.0
    hist_sum: np.ndarray | None  # (..., k) sum of the kept history rows
    hist_ones: np.ndarray | None  # (n, k+1) hist_embed and a ones column
    att_hidden: np.ndarray | None  # (..., k', n) attention ReLU outputs
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
    q = params["history_embed"].take(hist, axis=0)
    p = params["target_embed"][items]
    hist_sum = hist_ones = att_hidden = scores = weights = None
    if config.uses_attention:
        scale = 1.0
        hist_ones = np.empty((hist.size, q.shape[1] + 1))
        hist_ones[:, :-1] = q
        hist_ones[:, -1] = 1.0
        att_hidden, scores, weights, pooled = _attention(
            params, config.beta, p, hist_ones, keep)
        pooled *= p
    else:
        # alpha=0 is plain sum pooling; an empty set pools to zero, with
        # the normalizer defined as 1 to avoid 0**-alpha
        scale = (1.0 if config.alpha == 0.0 else
                 np.maximum(keep.sum(axis=-1, keepdims=True), 1) ** -config.alpha)
        hist_sum = keep @ q
        pooled = scale * (p * hist_sum)
    pres, acts, logit = _head(params, config, pooled, user, items)
    return ForwardCache(
        user=user, items=items, hist=hist, keep=keep, hist_embed=q, target=p,
        pool_scale=scale, hist_sum=hist_sum, hist_ones=hist_ones,
        att_hidden=att_hidden, scores=scores, weights=weights, pooled=pooled,
        layer_pres=pres, layer_acts=acts, logit=logit)


def _attention(params, beta, p, hist_ones, keep, scratch=None, pooled=None):
    """The attention net of one user's candidates, given their target
    rows ``p`` (``(..., k)``) and the history with a ones column,
    ``[q, 1]`` (``(n, k+1)``): ``(hidden, scores, weights, pooled)``.

    The targets fold into the attention weights beside the bias,
    ``(..., k', k+1)``, so that one GEMM against ``[q, 1]`` gives every
    pre-activation ``W_att (p * q_t) + b``, candidate-major
    ``(..., k', n)``; the ReLU rectifies them in place, so one such array
    is live. The scores are ``att_out @ hidden``, the weights their
    beta-softmax with the entries where ``keep`` is False left out
    (``keep`` None keeps them all), and ``pooled`` the weighted sums of
    the history rows, ``(..., k)``, not yet scaled by the targets. The
    folded weights and ``hidden`` are cut from ``scratch``, a float64
    vector of at least ``size(p) / k * k' * (k + 1 + n)`` entries, and
    ``pooled`` is written into, if they are given."""
    w_att = params["att_weight"]
    k_att, k = w_att.shape
    n = hist_ones.shape[0]
    lead = p.shape[:-1] + (k_att,)
    rows = math.prod(lead)
    if scratch is None:
        scratch = np.empty(rows * (k + 1 + n))
    folded = scratch[:rows * (k + 1)].reshape(lead + (k + 1,))
    np.einsum("...i,ji->...ji", p, w_att, out=folded[..., :k])
    folded[..., k] = params["att_bias"]
    hidden = np.matmul(folded.reshape(rows, k + 1), hist_ones.T,
                       out=scratch[rows * (k + 1):rows * (k + 1 + n)]
                       .reshape(rows, n)).reshape(lead + (n,))
    relu(hidden, out=hidden)
    scores = params["att_out"] @ hidden
    weights = (softmax_beta(scores, beta, keep) if n
               else np.zeros(scores.shape))
    pooled = np.matmul(weights, hist_ones[:, :-1], out=pooled)
    return hidden, scores, weights, pooled


def _head(params, config, pooled, user, items):
    """The ReLU tower and the prediction layer over pooled rows ``(..., k)``:
    ``(pres, acts, logit)``, with ``user`` one index or one per row. The
    prediction layer takes one dot product per row, as it does for one
    item, so a row's logit does not depend on the rows scored with it."""
    out = pooled
    pres, acts = [], []
    for layer, d in enumerate(config.layer_sizes):
        w = params[f"W{layer}"]
        if w.shape != (d, out.shape[-1]):
            raise ModelError(f"W{layer} has shape {w.shape}, the config "
                             f"implies {(d, out.shape[-1])}")
        pre = out @ w.T
        pre += params[f"b{layer}"]
        out = relu(pre)
        pres.append(pre)
        acts.append(out)
    logit = (np.vecdot(out, params["output_weights"])
             + params["user_bias"][user] + params["item_bias"][items])
    return pres, acts, logit


def _check_range(kind, index, bound):
    """A :class:`ModelError` naming the lowest index if it is negative, or
    else the highest, unless every index lies in ``[0, bound)``."""
    low, high = ((index, index) if isinstance(index, int)
                 else (index.min(), index.max()))
    if low < 0 or high >= bound:
        raise ModelError(f"{kind} index {low if low < 0 else high} outside "
                         f"[0, {bound})")


def predict_logit(params, config, history, user, items):
    """Forward pass for one user, given the stored training history, and
    one item index or an array of candidates, each range-checked.
    Returns ``(logit, cache)``: the logit is a float for one item and an
    array shaped like ``items`` otherwise."""
    _check_range("item", items, params.num_items)
    cache = forward(params, config, history, user, items)
    return cache.logit, cache


def score_items(params, config, history, user, items):
    """Logits of many candidate items for one user, as
    :func:`_score_users` gives them for a block of one user; used by the
    recommender and by a scorer called on its own."""
    items = np.atleast_1d(np.asarray(items, dtype=np.int64))
    return _score_users(params, config, [history], [user], items,
                        [items.size])


def _score_users(params, config, histories, users, items, sizes):
    """Logits of many users' candidates, end to end: ``items`` holds
    ``sizes[b]`` candidates of user ``users[b]``, each scored against
    ``histories[b]`` with itself masked out, as :func:`forward` scores
    it. A history holds each item at most once, as a dataset's do.

    The users go in blocks, one pass each, whose arrays stay within
    ``SCORE_BLOCK_BYTES`` by the count of :func:`_block_cost`. Beside the
    blocks, a call holds its logits and one copy of ``history_embed``:
    item-major for FISM and DeepICF, with a ones column for DeepICF_A.

    A user's logits do not depend on the block: its pooling is its own,
    the prediction layer is one dot product per row, and the tower's
    matrix products give a row the same bits whatever rows share them, as
    OpenBLAS does for two or more rows and inner dimensions under 32.
    DeepICF_A's pieces of a user keep that guarantee while its history
    is under 32 rows, the inner dimension of its weighted sum."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if items.size == 0:
        return np.empty(0)
    _check_range("user", users, params.num_users)
    _check_range("item", items, params.num_items)
    histories = [np.asarray(h, dtype=np.int64) for h in histories]
    lengths = np.array([hist.size for hist in histories], dtype=np.int64)
    entry, sizes, cost = _block_cost(config, lengths,
                                     np.asarray(sizes, dtype=np.int64),
                                     params.num_items)
    histories = [histories[b] for b in entry.tolist()]
    users = users[entry]
    k = config.k
    if config.uses_attention:
        table = np.empty((params.num_items, k + 1))
        table[:, :k] = params["history_embed"]
        table[:, k] = 1.0
        kernel = _attend_block
    else:
        # the history table item-major, so that a block gathers each
        # user's rows as columns and sums them along contiguous memory
        table = np.ascontiguousarray(params["history_embed"].T)
        kernel = _pool_block
    cost_ends, row_ends = np.cumsum(cost), np.cumsum(sizes)
    logits, start = np.empty(items.size), 0
    while start < users.size:
        stop = max(start + 1, int(np.searchsorted(
            cost_ends, cost_ends[start] - cost[start] + SCORE_BLOCK_BYTES,
            side="right")))
        rows = slice(row_ends[start] - sizes[start], row_ends[stop - 1])
        logits[rows] = kernel(params, config, table, histories[start:stop],
                              users[start:stop], items[rows],
                              sizes[start:stop])
        start = stop
    return logits


def _block_cost(config, lengths, sizes, num_items):
    """The count of :func:`_score_users`, in bytes, over users with
    ``lengths`` history rows and ``sizes`` candidates: ``(entry, sizes,
    cost)``. A user costs ``once``, and each of its candidates
    ``per_item`` plus ``per_pair`` per history row, which only DeepICF_A
    pays. A user is cut into as few near-equal pieces as keep each within
    ``SCORE_BLOCK_BYTES``, none of them a lone candidate, which numpy
    would multiply as a vector and may round differently. ``entry`` names
    each piece's user, ``sizes`` its candidates and ``cost`` its bytes."""
    k, tower = config.k, 2 * sum(config.layer_sizes)
    if config.uses_attention:
        # a user: its history's indices and [q, 1]; a candidate: its
        # target and pooled rows, the tower, six scalars and the scratch's
        # folded weights, and per history row its scratch attention row,
        # six float64s of the softmax and a mask byte
        once = 8 * (k + 2) * lengths
        per_item = 8 * (2 * k + tower + 6 + config.k_prime * (k + 1))
        per_pair = 8 * config.k_prime + 8 * 6 + 1
    else:
        # a user: its gathered history rows and two sums; a candidate: its
        # history sum, target row, a spare row, the tower and four scalars
        once, per_item, per_pair = (8 * k * (lengths + 2),
                                    8 * (3 * k + tower + 4), 0)
    once += num_items        # the user's row of the block's incidence
    each = per_item + per_pair * lengths
    fit = np.maximum(1, (SCORE_BLOCK_BYTES - once) // each)
    # pieces of at most `fit` candidates and at least two, or of two and
    # three where not even two fit
    count = np.minimum(-(-sizes // fit), np.maximum(1, sizes // 2))
    entry = np.repeat(np.arange(sizes.size), count)
    nth = np.arange(entry.size) - np.repeat(np.cumsum(count) - count, count)
    count, total = count[entry], sizes[entry]
    sizes = total // count + (nth < total % count)
    return entry, sizes, once[entry] + each[entry] * sizes


def _owners(num_items, hist, lengths, items, sizes):
    """The block row of each candidate's user, and whether the candidate
    lies in that user's history, read off a boolean ``(block, num_items)``
    incidence of the block's concatenated histories ``hist``."""
    block = np.arange(lengths.size)
    held = np.zeros((lengths.size, num_items), dtype=bool)
    held[np.repeat(block, lengths), hist] = True
    owner = np.repeat(block, sizes)
    return owner, held[owner, items]


def _pool_block(params, config, q_cols, histories, users, items, sizes):
    """One pass of :func:`_score_users` over a block of FISM or DeepICF
    users, given the history table item-major as ``q_cols``. Each history
    sum is one ``np.add.reduceat`` over the user's gathered columns; a
    candidate inside the history, found by :func:`_owners`, subtracts its
    own row and one from the ``|kept|^-alpha`` count; the tower and the
    prediction layer run once over the block's candidate rows."""
    lengths = np.array([hist.size for hist in histories], dtype=np.int64)
    hist = np.concatenate(histories)
    sums = np.zeros((users.size, config.k))
    if hist.size:
        # only the users with a history, since reduceat would give an
        # empty one the next user's first row
        full = lengths > 0
        sums[full] = np.add.reduceat(
            q_cols.take(hist, axis=1), (np.cumsum(lengths) - lengths)[full],
            axis=1).T
    owner, inside = _owners(params.num_items, hist, lengths, items, sizes)
    hist_sum = sums[owner]
    hist_sum[inside] -= params["history_embed"].take(items[inside], axis=0)
    pooled = params["target_embed"].take(items, axis=0)
    pooled *= hist_sum
    if config.alpha != 0.0:
        pooled *= (np.maximum(lengths[owner] - inside, 1)[:, None]
                   ** -config.alpha)
    return _head(params, config, pooled, users[owner], items)[2]


def _attend_block(params, config, table, histories, users, items, sizes):
    """One pass of :func:`_score_users` over a block of DeepICF_A users,
    given the history table with a ones column as ``table``. Each user's
    pass is one :func:`_attention` call on its gathered ``[q, 1]``, which
    folds the targets and writes the attention array into one scratch
    vector that the block reuses, and writes the weighted sums into the
    block's pooled rows. Only a user with a candidate inside its history,
    found by :func:`_owners`, builds a ``(c, n)`` mask. The target rows
    then scale the pooled rows, and the tower and the prediction layer
    run once over the block."""
    lengths = np.array([hist.size for hist in histories], dtype=np.int64)
    owner, inside = _owners(params.num_items, np.concatenate(histories),
                            lengths, items, sizes)
    p = params["target_embed"].take(items, axis=0)
    pooled = np.empty(p.shape)
    scratch = np.empty(config.k_prime
                       * int((sizes * (config.k + 1 + lengths)).max()))
    row = 0
    for hist, c in zip(histories, sizes.tolist()):
        rows = slice(row, row + c)
        row += c
        keep = hist != items[rows, None] if inside[rows].any() else None
        _attention(params, config.beta, p[rows], table.take(hist, axis=0),
                   keep, scratch, pooled[rows])
    pooled *= p
    return _head(params, config, pooled, users[owner], items)[2]


@dataclass
class Grads:
    """Gradients keyed by tensor name, as in :func:`param_layout`.

    ``rows`` maps each of the two embedding tables and the two bias
    vectors to ``(rows, values)`` over just the rows a forward cache
    touched: each history row once, and a target row and item bias per
    candidate (a plain int for one item); ``dense`` holds the whole-tensor
    gradients of every other trained tensor, as a :class:`ModelParams`
    over the tail of the parameters' layout that those tensors fill: the
    output vector, the tower and the attention net, or nothing for FISM.
    """

    rows: dict
    dense: ModelParams


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
    ``M = d_pre @ [q, 1]``, of shape ``(..., k', k+1)``, one GEMM over the
    candidate-major ``(..., k', n)`` pre-activation gradients whose last
    column, from the ones column of the history, is the bias gradient.
    The history rows get ``d_pre^T`` times the target-scaled attention
    weights, a second GEMM over the same array.
    """
    one = cache.keep.ndim == 1
    q, p = cache.hist_embed, cache.target

    # the layout past the embedding tables and bias vectors
    dense = params.zeroed_tail(4 if config.trains_output_weights
                               else len(params.layout))
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
        hidden = cache.att_hidden
        dp = d_vec * p
        d_scores = softmax_beta_vjp(cache.scores, cache.weights, config.beta,
                                    dp @ q.T, cache.keep)
        dense["att_out"] = _total(hidden @ d_scores[..., None], one)[:, 0]
        # d_pre = att_out * d_scores where a unit is on, which is where its
        # ReLU output is positive, as where its pre-activation is; only
        # the mask times d_scores is formed, and att_out, constant along
        # the history, is applied to the small factors on either side
        rows_pre = (hidden > 0.0).astype(np.float64)
        rows_pre *= d_scores[..., None, :]
        rows_pre = rows_pre.reshape(math.prod(hidden.shape[:-1]),
                                    q.shape[0])
        # M from one GEMM, with the bias gradient in its ones column
        m = (rows_pre @ cache.hist_ones).reshape(p.shape[:-1] + (k_att, k + 1))
        m *= params["att_out"][:, None]
        dense["att_weight"] = _total(m[..., :k] * p[..., None, :], one)
        dense["att_bias"] = _total(m[..., k], one)
        # direct path through the weights, then the attention path
        d_target = (d_vec * (cache.weights @ q)
                    + (m[..., :k] * w_att).sum(axis=-2))
        w_scaled = ((w_att * params["att_out"][:, None])
                    * p[..., None, :]).reshape(-1, k)
        d_history = (_outer_total(cache.weights, dp, one)
                     + rows_pre.T @ w_scaled)[kept]
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


def fism_config(config):
    """The FISM companion of a deep config, used for embedding pre-training:
    same embedding size, pooling exponent, sampling ratio, and optimizer
    settings, with the tower and attention removed."""
    return replace(config, variant=Variant.FISM, num_layers=0, layer_sizes=(),
                   pretrain=False,
                   epochs=(config.pretrain_epochs
                           if config.pretrain_epochs is not None
                           else config.epochs))
