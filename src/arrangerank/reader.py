"""Encoders for the two input kinds: ordered browse history, unordered candidates.

The browse history is order-sensitive, so it runs through a gated recurrent
cell whose initial hidden state is a learned projection of the user profile.
The candidate set is order-free: it is canonicalized to ascending item id on
construction and encoded per item with a tanh layer plus an attention weight
against the user vector, so results never depend on storage order.

MLP variants of both encoders are provided as ablation foils: a
mean-pooled history encoder (order-insensitive on purpose) and a plain
per-item MLP candidate encoder with uniform attention.

Every encoder reads one instance, or a ``Group`` of instances of equal
lengths along a leading batch axis, with the same per-instance results.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ParamStore


class EmptyInputError(ValueError):
    """Operation needs at least one item."""


@dataclass
class DropoutPlan:
    """Training-only dropout: rate plus the stream that draws the masks."""

    rate: float
    rng: np.random.Generator


@dataclass
class UserContext:
    """User profile vector plus the time-ordered browsed-item features."""

    profile: np.ndarray
    history: np.ndarray  # (T, feature_dim); T may be 0

    def __init__(self, profile, history, feature_dim: int | None = None):
        self.profile = np.asarray(profile, dtype=np.float64)
        self.history = np.asarray(history, dtype=np.float64)  # a (T, d) array is not copied
        if not len(self.history):
            if feature_dim is None:
                raise ValueError("feature_dim is required for an empty history")
            self.history = np.zeros((0, feature_dim))


class CandidateSet:
    """Unordered candidate items; stored in ascending item-id order.

    Canonical storage order is what makes every downstream computation
    independent of the order the caller happened to supply.
    """

    def __init__(self, items: Iterable[tuple[int, Sequence[float]]]):
        pairs = list(items)
        canonical = CandidateSet.from_rows([i for i, _ in pairs], [x for _, x in pairs])
        self.ids, self.features = canonical.ids, canonical.features

    @classmethod
    def from_rows(cls, ids: Sequence[int], features) -> "CandidateSet":
        """Item ``ids[k]`` with feature row ``features[k]``, from one (n, d) array."""
        order = sorted(range(len(ids)), key=lambda k: int(ids[k]))
        cands = cls.__new__(cls)
        cands.ids: tuple[int, ...] = tuple(int(ids[k]) for k in order)
        if len(set(cands.ids)) != len(cands.ids):
            raise ValueError(f"duplicate item ids in candidate set: {list(cands.ids)}")
        cands.features: np.ndarray = (np.asarray(features, dtype=np.float64)[order] if order
                                      else np.zeros((0, 0)))
        return cands

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class Group:
    """Instances stacked on a leading batch axis, each part on first read, standing in for
    the ``UserContext`` and the ``CandidateSet`` of a single instance: the encoders read a
    whole group in one array pass, and its instances need share only the lengths that a
    stage reads (history length or slate size)."""

    instances: list
    profile = cached_property(lambda self: np.stack([i.ctx.profile for i in self.instances]))
    history = cached_property(lambda self: np.stack([i.ctx.history for i in self.instances]))
    features = cached_property(lambda self: np.stack([i.cands.features for i in self.instances]))
    ids = cached_property(lambda self: tuple(i.cands.ids for i in self.instances))

    def __len__(self) -> int:
        return self.features.shape[-2]


@dataclass
class ReaderOutput:
    """Encoded instance (or ``Group``): user vector, per-candidate representations, attention."""

    ids: tuple                # item ids in row order; a group has one tuple per instance
    user_vec: Tensor          # (..., embed)
    reprs: Tensor             # (..., n, embed), rows follow ``ids``
    betas: Tensor             # (..., n) attention weights


def encode_history(ctx: UserContext | Group, params: ParamStore,
                   drop: DropoutPlan | None = None) -> Tensor:
    """Order-sensitive user vector: recurrent pass over the browse history.

    The hidden state starts from a learned projection of the profile, so an
    empty history yields exactly that projection.
    """
    w0 = params["hist.U0"]
    if ctx.profile.shape[-1] != w0.values.shape[1]:
        raise ad.ShapeError(
            f"profile dim {ctx.profile.shape[-1]} does not match configured {w0.values.shape[1]}")
    h = ad.add(ad.matvec(w0, Tensor(ctx.profile)), params["hist.u0_b"])
    steps = ctx.history.shape[-2]
    if steps:
        expect = params["hist.W"].values.shape[1] - h.values.shape[-1]
        if ctx.history.shape[-1] != expect:
            raise ad.ShapeError(
                f"history feature dim {ctx.history.shape[-1]} does not match configured {expect}")
        hs = ad.gated_cell(params["hist.W"], params["hist.b"], [Tensor(ctx.history)], h)
        h = ad.row(hs, steps - 1)  # the state after the last item
    if drop is not None:
        h = ad.dropout(h, drop.rate, drop.rng)
    return h


def encode_history_mlp(ctx: UserContext | Group, params: ParamStore,
                       drop: DropoutPlan | None = None) -> Tensor:
    """Ablation variant: mean-pooled history through an MLP (order-insensitive).

    Each feature column is sorted before summation, so the pooled vector is
    bitwise identical for any ordering of the same history items.
    """
    hist = ctx.history
    pooled = np.sort(hist, axis=-2).sum(axis=-2) / max(hist.shape[-2], 1)
    inp = Tensor(np.concatenate([pooled, ctx.profile], axis=-1))
    hid = ad.tanh(ad.add(ad.matvec(params["psmlp.W1"], inp), params["psmlp.b1"]))
    if drop is not None:
        hid = ad.dropout(hid, drop.rate, drop.rng)
    return ad.add(ad.matvec(params["psmlp.W2"], hid), params["psmlp.b2"])


def encode_candidates(cands: CandidateSet | Group, user_vec: Tensor, params: ParamStore,
                      drop: DropoutPlan | None = None) -> ReaderOutput:
    """Attention encoding of the candidate set against the user vector.

    Per item: z_d = tanh(W1 x_d + b1), embedding h'_d = V z_d, attention
    logit = h'_d . u, beta = softmax over the set, h_d = beta_d h'_d.
    """
    n = len(cands)
    if n == 0:
        raise EmptyInputError("candidate set is empty")
    if user_vec.values.shape[-1] != params["attn.V"].values.shape[1]:
        raise ad.ShapeError(
            f"user vector dim {user_vec.values.shape[-1]} does not match "
            f"attention output dim {params['attn.V'].values.shape[1]}")
    x = Tensor(cands.features)
    z = ad.tanh(ad.add(ad.matmul(x, params["attn.W1"]), params["attn.b1"]))
    if drop is not None:
        z = ad.dropout(z, drop.rate, drop.rng)
    h_pre = ad.matmul(z, params["attn.V"])          # (..., n, embed)
    logits = ad.matvec(h_pre, user_vec)             # (..., n)
    betas = ad.softmax_masked(logits, np.ones(logits.values.shape, dtype=bool))
    reprs = ad.scale_rows(h_pre, betas)
    return ReaderOutput(ids=cands.ids, user_vec=user_vec, reprs=reprs, betas=betas)


def encode_candidates_mlp(cands: CandidateSet | Group, user_vec: Tensor, params: ParamStore,
                          drop: DropoutPlan | None = None) -> ReaderOutput:
    """Ablation variant: per-item MLP over concat(x_d, u); uniform attention."""
    n = len(cands)
    if n == 0:
        raise EmptyInputError("candidate set is empty")
    x = Tensor(cands.features)
    u_part = ad.add(ad.matvec(params["pimlp.W1u"], user_vec), params["pimlp.b1"])
    hid = ad.tanh(ad.add_rows(ad.matmul(x, params["pimlp.W1x"]), u_part))
    if drop is not None:
        hid = ad.dropout(hid, drop.rate, drop.rng)
    reprs = ad.add(ad.matmul(hid, params["pimlp.W2"]), params["pimlp.b2"])
    betas = Tensor(np.full(x.values.shape[:-1], 1.0 / n))
    return ReaderOutput(ids=cands.ids, user_vec=user_vec, reprs=reprs, betas=betas)
