"""Model variants, their parameters, forward prediction, and exact
analytic backward passes.

All three variants share the same skeleton: elementwise products between
the target-item embedding and each history-item embedding, a pooling step
(alpha-normalized averaging, or an attention network with a beta-smoothed
softmax), an optional ReLU tower over the pooled vector, and a linear
prediction layer with user and item biases. :func:`predict_logit` scores
one user's history against one item, the path of training at batch size
1. Everything else is scored in blocks of users, cut by one byte count,
:func:`_block_cost`: ranking keeps a block's logits, and a training batch
keeps its :class:`BlockCache` for :func:`backward`, which returns the
gradients of the summed loss of one item or of a batch, each row once.
A block pays for its own rows: its history sums and its embedding
penalty read only the rows that it names, and its gradient merge counts
into no more bins per column than it holds indices.
What grows with the catalog is the block's ``(users, items)`` incidence,
and in a block with at least as many history rows as items, one
item-major copy of ``history_embed``.
The attention variant lays its hidden units out candidate-major,
``(..., k', n)`` for ``n`` history rows, from one GEMM: :func:`_attention`
gathers a user's history and forms that net, which
:func:`_attention_backward` takes back, alike for one item and for a
user's candidates.

The tensors of a variant are declared once, by :func:`param_layout`, and
:class:`ModelParams` lays them out in one vector: the parameters, the
optimizer state, the whole-tensor gradients and the checkpoint payload
all share that layout. Parameters are mutable; training is single-writer,
while any number of evaluators may read a parameter set concurrently.
"""

from __future__ import annotations

import enum
import math
import operator
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
        for key, value in (("lambda", self.l2), ("lr", self.lr)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if value < 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")
        if self.num_negatives < 0:
            raise ConfigError(f"NS must be >= 0, got {self.num_negatives}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pretrain_epochs is not None and self.pretrain_epochs < 0:
            raise ConfigError(
                f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")

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
    """One user's forward pass over one item. Of the attention units, ``k'``
    before the ``n`` history rows, only the ReLU outputs are kept."""

    user: int
    item: int
    hist: np.ndarray             # (n,) history indices
    keep: np.ndarray             # (n,) False where the item is in the history
    hist_embed: np.ndarray       # (n, k) gathered history embeddings
    target: np.ndarray           # (k,) target embedding
    pool_scale: object           # (1,) |kept history|^-alpha, or 1.0
    hist_sum: np.ndarray | None  # (k,) sum of the kept history rows
    net: tuple | None            # the attention net, as _attention gives it
    pooled: np.ndarray           # (k,)
    layer_pres: list             # per tower layer, (d_l,)
    layer_acts: list


def _attention(params, beta, p, hist, keep):
    """The attention net of one user's candidates, given their target
    rows ``p`` (``(..., k)``) and the user's history indices ``hist``:
    ``(net, pooled)``, with ``net = ([q, 1], hidden, scores, weights,
    keep)`` as :func:`_attention_backward` takes it. The history rows
    ``q`` are gathered beside a ones column, and the targets fold into
    the attention weights beside the bias, so that one GEMM against
    ``[q, 1]`` gives every pre-activation ``W_att (p * q_t) + b``,
    ``(..., k', n)``, rectified in place. The weights leave out the
    entries where ``keep`` is False (None keeps all); ``pooled``, the
    weighted history sums, is not yet scaled by the targets."""
    w_att = params["att_weight"]
    k_att, k = w_att.shape
    n = hist.size
    hist_ones = np.empty((n, k + 1))
    hist_ones[:, :k] = params["history_embed"].take(hist, axis=0)
    hist_ones[:, k] = 1.0
    lead = p.shape[:-1] + (k_att,)
    folded = np.empty(lead + (k + 1,))
    np.einsum("...i,ji->...ji", p, w_att, out=folded[..., :k])
    folded[..., k] = params["att_bias"]
    hidden = (folded.reshape(-1, k + 1) @ hist_ones.T).reshape(lead + (n,))
    relu(hidden, out=hidden)
    scores = params["att_out"] @ hidden
    weights = (softmax_beta(scores, beta, keep) if n
               else np.zeros(scores.shape))
    return ((hist_ones, hidden, scores, weights, keep),
            weights @ hist_ones[:, :k])


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
    else the highest, unless every index (if any) lies in ``[0, bound)``."""
    low, high = ((index, index) if isinstance(index, int)
                 else (index.min(initial=0), index.max(initial=0)))
    if low < 0 or high >= bound:
        raise ModelError(f"{kind} index {low if low < 0 else high} outside "
                         f"[0, {bound})")


def predict_logit(params, config, history, user, items, sizes=None):
    """Forward pass with range-checked indices: ``(logit, cache)``. Of one
    user, given its stored training history, and one item, masked out of
    the history so that a leaked copy cannot influence its own score: a
    float and a :class:`ForwardCache`. With ``sizes``, of a training batch
    laid out as :func:`_score_users` takes it (``history`` holds the users'
    histories): an array of logits and the list of the batch's blocks."""
    if sizes is not None:
        blocks = []
        return _score_users(params, config, history, user, items, sizes,
                            blocks), blocks
    hist = np.asarray(history, dtype=np.int64)
    _check_range("user", operator.index(user), params.num_users)
    _check_range("item", operator.index(items), params.num_items)
    _check_range("history item", hist, params.num_items)
    keep = hist != items
    p = params["target_embed"][items]
    hist_sum = net = None
    if config.uses_attention:
        scale = 1.0
        net, pooled = _attention(params, config.beta, p, hist, keep)
        q = net[0][:, :-1]
        pooled *= p
    else:
        # alpha=0 is plain sum pooling; an empty set pools to zero, with
        # the normalizer defined as 1 to avoid 0**-alpha
        scale = (1.0 if config.alpha == 0.0 else
                 np.maximum(keep.sum(axis=-1, keepdims=True), 1) ** -config.alpha)
        q = params["history_embed"].take(hist, axis=0)
        hist_sum = keep @ q
        pooled = scale * (p * hist_sum)
    pres, acts, logit = _head(params, config, pooled, user, items)
    return logit, ForwardCache(
        user=user, item=items, hist=hist, keep=keep, hist_embed=q, target=p,
        pool_scale=scale, hist_sum=hist_sum, net=net, pooled=pooled,
        layer_pres=pres, layer_acts=acts)


def score_items(params, config, history, user, items):
    """Logits of many candidate items for one user, as
    :func:`_score_users` gives them for a block of one user; used by the
    recommender and by a scorer called on its own."""
    items = np.atleast_1d(np.asarray(items, dtype=np.int64))
    if items.ndim != 1:
        raise ModelError(f"candidate items have shape {items.shape}, not 1-D")
    return _score_users(params, config, [history], [user], items,
                        [items.size])


def _score_users(params, config, histories, users, items, sizes,
                 blocks=None):
    """Logits of many users' candidates, end to end: ``items`` holds
    ``sizes[b]`` candidates of user ``users[b]``, each scored against
    ``histories[b]`` (which holds an item at most once) with itself masked
    out, in blocks whose arrays stay within ``SCORE_BLOCK_BYTES`` by
    :func:`_block_cost`. Each :class:`BlockCache`, attention nets and all,
    is appended to a list ``blocks``. Every index is range-checked. Beside
    the blocks, a call holds its logits.

    A user's logits do not depend on the block: its pooling is its own,
    the prediction layer is one dot product per row, and the tower's
    matrix products give a row the same bits whatever rows share them, as
    OpenBLAS does for two or more rows and inner dimensions under 32;
    DeepICF_A's pieces of a user, while its history is under 32 rows."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if items.size == 0:
        return np.empty(0)
    _check_range("user", users, params.num_users)
    _check_range("item", items, params.num_items)
    histories = [np.asarray(h, dtype=np.int64) for h in histories]
    _check_range("history item", np.concatenate(histories), params.num_items)
    lengths = np.array([hist.size for hist in histories], dtype=np.int64)
    entry, sizes, cost = _block_cost(config, lengths,
                                     np.asarray(sizes, dtype=np.int64),
                                     params.num_items)
    histories = [histories[b] for b in entry.tolist()]
    users = users[entry]
    cost_ends, row_ends = np.cumsum(cost), np.cumsum(sizes)
    logits, start = np.empty(items.size), 0
    while start < users.size:
        stop = max(start + 1, int(np.searchsorted(
            cost_ends, cost_ends[start] - cost[start] + SCORE_BLOCK_BYTES,
            side="right")))
        rows = slice(row_ends[start] - sizes[start], row_ends[stop - 1])
        block = _score_block(params, config, histories[start:stop],
                             users[start:stop], items[rows],
                             sizes[start:stop], blocks is not None)
        logits[rows] = block.logit
        if blocks is not None:
            blocks.append(block)
        del block       # so that ranking holds one block at a time
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
        # target and pooled rows, the tower, six scalars and its folded
        # attention weights, and per history row its attention units, six
        # float64s of the softmax and a mask byte
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


@dataclass
class BlockCache:
    """One block's forward pass: ``B`` users (or pieces of one), ``N``
    history rows and ``C`` candidates, laid out user by user."""

    users: np.ndarray            # (B,) user indices
    hist: np.ndarray             # (N,) the users' histories, concatenated
    lengths: np.ndarray          # (B,) history rows per user
    sizes: np.ndarray            # (B,) candidates per user
    items: np.ndarray            # (C,) candidate indices
    owner: np.ndarray            # (C,) the block row of each one's user
    inside: np.ndarray           # (C,) True where it is in that history
    pool_scale: object           # (C, 1) |kept history|^-alpha, or 1.0
    hist_sum: np.ndarray | None  # (C, k) kept history sums (FISM, DeepICF)
    nets: list                   # per user, its attention net (DeepICF_A)
    pooled: np.ndarray           # (C, k)
    layer_pres: list             # per tower layer, (C, d_l)
    layer_acts: list
    logit: np.ndarray            # (C,)


def _score_block(params, config, histories, users, items, sizes,
                 train=False):
    """One pass of :func:`_score_users` over a block of users. FISM and
    DeepICF sum each history with one ``np.add.reduceat`` over the
    block's rows laid out item-major: its gathered rows transposed or,
    where it holds at least as many history rows as the table has items,
    gathered from a transposed copy of ``history_embed``. A candidate
    inside a history (:func:`_owners`) subtracts its own row and one from
    its count.
    DeepICF_A calls :func:`_attention` once per user, masked only where a
    candidate is inside the history, and keeps each net in ``nets`` to
    ``train``."""
    lengths = np.array([hist.size for hist in histories], dtype=np.int64)
    hist = np.concatenate(histories)
    owner, inside = _owners(params.num_items, hist, lengths, items, sizes)
    pooled = params["target_embed"].take(items, axis=0)
    scale, hist_sum, nets = 1.0, None, []
    if config.uses_attention:
        p, pooled = pooled, np.empty(pooled.shape)
        for user_hist, start, c in zip(histories, np.cumsum(sizes) - sizes,
                                       sizes):
            rows = slice(start, start + c)
            keep = (user_hist != items[rows, None] if inside[rows].any()
                    else None)
            net, pooled[rows] = _attention(params, config.beta, p[rows],
                                           user_hist, keep)
            if train:
                nets.append(net)
        pooled *= p
    else:
        hist_sum = np.zeros((users.size, config.k))
        # only the users with a history, since reduceat would give an
        # empty one the next user's first row; item-major, each user's
        # rows are columns, summed along contiguous memory, and the two
        # ways to lay them out give equal arrays, so equal sums
        table = params["history_embed"]
        full = lengths > 0
        hist_sum[full] = np.add.reduceat(
            table.take(hist, axis=0).T.copy() if hist.size < table.shape[0]
            else np.ascontiguousarray(table.T).take(hist, axis=1),
            (np.cumsum(lengths) - lengths)[full], axis=1).T
        hist_sum = hist_sum[owner]
        hist_sum[inside] -= params["history_embed"].take(items[inside], axis=0)
        pooled *= hist_sum
        if config.alpha != 0.0:
            scale = (np.maximum(lengths[owner] - inside, 1)[:, None]
                     ** -config.alpha)
            pooled *= scale
    return BlockCache(users, hist, lengths, sizes, items, owner, inside,
                      scale, hist_sum, nets, pooled,
                      *_head(params, config, pooled, users[owner], items))


@dataclass
class Grads:
    """Gradients keyed by tensor name. ``rows`` maps the embedding tables
    and bias vectors to ``(rows, values)`` over the rows touched, each
    once, where ``values`` broadcast to ``(rows, k)`` or ``(rows,)``: one
    item gives a plain index and float biases, and a FISM or DeepICF
    item one ``(k,)`` row for all the history rows it keeps. ``dense``
    holds the rest as a :class:`ModelParams` over the tail of the layout.
    ``uses`` counts a batch's candidates per table row, in columns."""

    rows: dict
    dense: ModelParams
    uses: dict | None = None


def backward(params, config, cache, dlogit):
    """Exact analytic gradients of the loss summed over the candidates of
    a :func:`predict_logit` cache, given ``dlogit`` (a float for one item),
    through :func:`_head_backward` and the pooling or
    :func:`_attention_backward`. A target row collects the gradient of
    each candidate of its item, a history row that of each candidate that
    keeps it in its pool: in a block, its users' sums of ``d_pool * p``,
    less that of any candidate whose own row it is."""
    # the layout past the embedding tables and bias vectors, and its views
    # in a plain dict, to which += adds in place with no copy
    dense = params.zeroed_tail(4 if config.trains_output_weights
                               else len(params.layout))
    sums = dict(dense)
    if isinstance(cache, ForwardCache):
        p = cache.target
        d_vec = _head_backward(params, config, cache, dlogit, sums)
        rows = cache.hist[cache.keep]
        if config.uses_attention:
            d_target, d_history = _attention_backward(
                params, config.beta, cache.net, p, d_vec, sums)
            d_history = d_history[cache.keep]
        else:
            d_pool = cache.pool_scale * d_vec
            d_target = d_pool * cache.hist_sum
            # the item adds its d_pool * p to every row it keeps: one row,
            # which broadcasts over them
            d_history = d_pool * p
        d_item = float(dlogit)
        return Grads(rows={"target_embed": (cache.item, d_target),
                           "history_embed": (rows, d_history),
                           "user_bias": (cache.user, d_item),
                           "item_bias": (cache.item, d_item)}, dense=dense)
    parts = [_block_backward(params, config, block, part, sums)
             for block, part in zip(cache, np.split(dlogit, np.cumsum(
                 [block.items.size for block in cache])[:-1]))]
    rows = {name: _merge_rows(sum((part[name] for part in parts), []))
            for name in parts[0]}
    return Grads(rows={name: merged[:2] for name, merged in rows.items()},
                 dense=dense, uses={name: rows[name][2][:, None] for name
                                    in ("target_embed", "history_embed")})


def _head_backward(params, config, cache, dlogit, sums):
    """The prediction layer's and the ReLU tower's gradients, summed over
    a cache's candidates into ``sums``; returns those at the pooled rows."""
    one = isinstance(dlogit, float)
    if config.trains_output_weights:
        top = cache.layer_acts[-1] if cache.layer_acts else cache.pooled
        sums["output_weights"] += dlogit * top if one else np.dot(dlogit, top)
    d_vec = (dlogit if one else dlogit[:, None]) * params["output_weights"]
    for layer in reversed(range(config.num_layers)):
        # ReLU subgradient at exactly 0 is taken as 0
        d_pre = d_vec * (cache.layer_pres[layer] > 0.0)
        below = cache.layer_acts[layer - 1] if layer > 0 else cache.pooled
        sums[f"W{layer}"] += _outer_total(d_pre, below, one)
        sums[f"b{layer}"] += _total(d_pre, one)
        d_vec = d_pre @ params[f"W{layer}"]
    return d_vec


def _attention_backward(params, beta, net, p, d_vec, sums):
    """The gradients through one user's :func:`_attention` net,
    ``([q, 1], hidden, scores, weights, mask)``, of target rows ``p``,
    given ``d_vec`` at the pooled rows: the attention tensors' go into
    ``sums``; returns ``(d_target, d_history)`` over every history row.
    The beta exponent couples all softmax weights, ``w_r * d_r - beta *
    g_r * <d, w>`` with g the plain softmax. The products' gradients fold
    through ``M = d_pre @ [q, 1]``, whose ones column gives the bias
    gradient; the history rows get ``d_pre^T`` times the target-scaled
    attention weights."""
    hist_ones, hidden, scores, weights, keep = net
    q, one = hist_ones[:, :-1], p.ndim == 1
    w_att = params["att_weight"]
    k_att, k = w_att.shape
    dp = d_vec * p
    d_scores = softmax_beta_vjp(scores, weights, beta, dp @ q.T, keep)
    sums["att_out"] += _total(hidden @ d_scores[..., None], one)[:, 0]
    # d_pre = att_out * d_scores where a unit is on, which is where its
    # ReLU output is positive, as where its pre-activation is; only the
    # mask times d_scores is formed, and att_out, constant along the
    # history, is applied to the small factors on either side
    rows_pre = (hidden > 0.0).astype(np.float64)
    rows_pre *= d_scores[..., None, :]
    rows_pre = rows_pre.reshape(math.prod(hidden.shape[:-1]), q.shape[0])
    m = (rows_pre @ hist_ones).reshape(p.shape[:-1] + (k_att, k + 1))
    m *= params["att_out"][:, None]
    sums["att_weight"] += _total(m[..., :k] * p[..., None, :], one)
    sums["att_bias"] += _total(m[..., k], one)
    # direct path through the weights, then the attention path
    d_target = d_vec * (weights @ q) + (m[..., :k] * w_att).sum(axis=-2)
    w_scaled = ((w_att * params["att_out"][:, None])
                * p[..., None, :]).reshape(-1, k)
    return d_target, (_outer_total(weights, dp, one)
                      + rows_pre.T @ w_scaled)


def _block_backward(params, config, block, dlogit, sums):
    """One block's gradients: the whole-tensor ones into ``sums``, and
    ``(index, values, uses)`` entries per row tensor for :func:`_merge_rows`;
    a history row is used by its users' candidates but its own."""
    d_vec = _head_backward(params, config, block, dlogit, sums)
    p = params["target_embed"].take(block.items, axis=0)
    starts, inside = np.cumsum(block.sizes) - block.sizes, block.inside
    if config.uses_attention:
        d_target = np.empty(p.shape)
        d_history = np.empty((p.shape[1], block.hist.size))
        at = np.cumsum(block.lengths) - block.lengths
        for net, start, c, n, a in zip(block.nets, starts, block.sizes,
                                       block.lengths, at):
            rows = slice(start, start + c)
            d_target[rows], d_history[:, a:a + n].T[...] = _attention_backward(
                params, config.beta, net, p[rows], d_vec[rows], sums)
        own = np.zeros((p.shape[1], inside.sum()))
    else:
        d_pool = block.pool_scale * d_vec
        d_target = d_pool * block.hist_sum
        # each history row collects the d_pool * p of its user's
        # candidates, but for a candidate inside it, its own row
        spread = d_pool * p
        d_history = np.repeat(np.add.reduceat(spread, starts, axis=0).T,
                              block.lengths, axis=1)
        own = -spread[inside].T
    once = np.ones(block.items.size)
    return {"target_embed": [(block.items, d_target.T, once)],
            "history_embed": [
                (block.hist, d_history, np.repeat(block.sizes, block.lengths)),
                (block.items[inside], own, -once[inside])],
            "user_bias": [(block.users[block.owner], dlogit, once)],
            "item_bias": [(block.items, dlogit, once)]}


def _merge_rows(entries):
    """The rows to which a list of ``(index, values, uses)`` entries gives
    positive uses, ascending, with their values and uses summed in order.
    Values are one per index, or ``(width, indices)``, a row per index.
    Each entry's values go by one ``np.bincount`` into a bin per row and
    column, which sums them in input order, as one catalog-length count
    per column would. Entries that hold at least as many indices as the
    span of rows up to the highest they name are binned by index over
    that span; fewer are binned over only the rows they name, found by a
    sort and a search, so that the cost follows the entries and not the
    table."""
    keys = np.concatenate([index for index, _, _ in entries])
    span = int(keys.max(initial=-1)) + 1
    by_index = keys.size >= span
    if by_index:
        rows = np.arange(span)
    else:
        keys.sort()
        head = np.empty(keys.size, dtype=bool)
        head[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        rows = keys[head]
    shape = np.shape(entries[0][1])[:-1]
    width = math.prod(shape)
    uses = sums = 0
    for index, values, weights in entries:
        at = index if by_index else np.searchsorted(rows, index)
        uses = uses + np.bincount(at, weights, rows.size)
        if shape:
            # each value's bin, by row and column, laid out in memory as
            # the values are
            at = np.add(at * width, np.arange(width)[:, None],
                        out=np.empty_like(values, dtype=np.int64)).ravel("K")
        sums = sums + np.bincount(at, values.ravel("K"), rows.size * width)
    sums = sums.reshape((rows.size,) + shape)
    kept = uses > 0
    return rows[kept], sums[kept], uses[kept]


def _kept_squares(params, block):
    """Each candidate's squared target row plus the squared history rows
    it keeps in its pool: its embedding penalty. Only the block's own
    rows are squared."""
    table = params["history_embed"]
    per_user = np.bincount(np.repeat(np.arange(block.users.size),
                                     block.lengths),
                           (table.take(block.hist, axis=0) ** 2).sum(axis=1),
                           block.users.size)
    own = np.zeros(block.items.size)
    own[block.inside] = (table.take(block.items[block.inside], axis=0)
                         ** 2).sum(axis=1)
    return ((params["target_embed"][block.items] ** 2).sum(axis=1)
            + per_user[block.owner] - own)


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
