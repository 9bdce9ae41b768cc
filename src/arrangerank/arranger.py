"""Plackett-Luce pointer decoder: assigns candidates to positions one by one.

At step i the decoder holds a recurrent context vector p_i seeded from the
user vector; the score of placing remaining item d is

    s^i_d = (P tanh(W2 h_d + W3 p_i + b2)) . u

and the next-item distribution is a softmax over the not-yet-arranged items
(arranged items get exactly probability 0). Once an item is placed, its
representation h_d is fed into the decoder cell together with a one-hot
position indicator to produce the next context vector.

One decode loop serves every use: greedy, sampled and teacher-forced. It
runs a single reader output, or a group of equal-shape instances along a
leading batch axis, where step i advances every instance at once. Orders
are rows of candidate indices; candidates are stored by ascending item id,
so greedy decoding breaks exact ties by smallest item id, never by storage
position, and results are invariant to candidate storage order.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ParamStore
from .permutation import Permutation
from .reader import ReaderOutput


def _max_positions(params: ParamStore) -> int:
    hidden = params["dec.W"].values.shape[0] // 4
    return params["dec.W"].values.shape[1] - 2 * hidden


def _decode(rout: ReaderOutput, params: ParamStore,
            choose: Callable[[Tensor, np.ndarray], np.ndarray]) -> np.ndarray:
    """Fill positions 1..n; returns the placement order as candidate indices (..., n).

    At every step ``choose(logits, mask)`` gets the scores of all candidates
    and the mask of the unarranged ones, and names the index each instance
    places next. The placed item's representation, with the one-hot of the
    next position, advances the context, so the next scores condition on it.
    """
    reprs = rout.reprs
    lead, n = reprs.values.shape[:-2], reprs.values.shape[-2]
    if n == 0:
        raise ValueError("cannot arrange an empty candidate set")
    positions = np.eye(_max_positions(params))  # one-hot rows; the last one repeats
    w2h = ad.matmul(reprs, params["ptr.W2"])  # position-independent half of the score
    w = ad.matvec(params["ptr.P"], rout.user_vec)  # P u, fixed for the whole decode
    h, c = rout.user_vec, Tensor(np.zeros(rout.user_vec.values.shape))
    placed: Tensor = params["dec.start"]
    mask = np.ones(lead + (n,), dtype=bool)
    order = np.empty(lead + (n,), dtype=np.intp)
    for i in range(n):
        onehot = Tensor(positions[min(i, len(positions) - 1)])
        h, c = ad.gated_cell(params["dec.W"], params["dec.b"], [placed, onehot, h], c)
        ctx = ad.add(ad.matvec(params["ptr.W3"], h), params["ptr.b2"])
        logits = ad.pointer_logits(w2h, ctx, w)
        chosen = choose(logits, mask)
        order[..., i] = chosen
        placed = ad.row(reprs, chosen)
        mask = mask.copy()  # the tape keeps the previous step's mask
        mask[ad._per_instance(chosen)] = False
    return order


def _as_permutation(ids, order) -> Permutation:
    return Permutation([ids[k] for k in order])


def target_indices(ids, pi: Permutation) -> list[int]:
    """Candidate index of each item of ``pi``, in order; ``pi`` must be a bijection of ``ids``."""
    pi.validate_against(ids)
    index_of = {item: k for k, item in enumerate(ids)}
    return [index_of[item] for item in pi]


def greedy_orders(rout: ReaderOutput, params: ParamStore) -> tuple[np.ndarray, np.ndarray]:
    """Greedy placement order (..., n) and the per-step pointing distribution (..., n, n)."""
    probs = []

    def choose(logits, mask):
        p = ad.softmax_masked(logits, mask).values
        probs.append(p)
        return np.argmax(p, axis=-1)  # exact ties: first index = smallest id

    order = _decode(rout, params, choose)
    return order, np.stack(probs, axis=-2)


def step_scores(rout: ReaderOutput, params: ParamStore) -> dict[int, float]:
    """Placement scores s^1_d of every candidate for position 1."""
    seen = []

    def choose(logits, mask):
        seen.append(logits.values)
        return np.argmax(np.where(mask, logits.values, -np.inf), axis=-1)

    _decode(rout, params, choose)
    return {i: float(s) for i, s in zip(rout.ids, seen[0])}


def arrange_greedy(rout: ReaderOutput, params: ParamStore) -> Permutation:
    pi, _ = greedy_step_probs(rout, params)
    return pi


def greedy_step_probs(rout: ReaderOutput, params: ParamStore) -> tuple[Permutation, np.ndarray]:
    """Greedy decode plus the per-step pointing distribution (positions x items).

    Row i holds P(position i+1 takes item j | choices so far); entries of
    already-arranged items are exactly 0.
    """
    order, probs = greedy_orders(rout, params)
    return _as_permutation(rout.ids, order), probs


def arrange_sample(rout: ReaderOutput, params: ParamStore, seed: int) -> tuple[Permutation, float]:
    """Sample a permutation position by position; returns its log probability."""
    rng = np.random.default_rng(seed)
    log_prob = 0.0

    def choose(logits, mask):
        nonlocal log_prob
        p = ad.softmax_masked(logits, mask).values
        support = np.flatnonzero(mask)
        weights = p[support]
        chosen = int(support[rng.choice(len(support), p=weights / weights.sum())])
        log_prob += float(ad.masked_log_prob(logits, mask, chosen).values)
        return chosen

    order = _decode(rout, params, choose)
    return _as_permutation(rout.ids, order), log_prob


def forced_log_probs(rout: ReaderOutput, params: ParamStore, targets: np.ndarray,
                     summation: bool = False) -> list[Tensor]:
    """Differentiable per-position log-probabilities of ``targets`` (..., n indices).

    The decoder is teacher-forced along the targets: term i is the log
    masked-softmax probability of the target given the target prefix. With
    ``summation`` term i scores the target over all items and the decoder
    follows its own greedy picks instead (the diagnostic foil of
    ``loss.pointwise_summation_loss``).
    """
    terms = []

    def choose(logits, mask):
        target = targets[..., len(terms)]
        if not summation:
            terms.append(ad.masked_log_prob(logits, mask, target))
            return target
        terms.append(ad.masked_log_prob(logits, np.ones_like(mask), target))
        return np.argmax(np.where(mask, logits.values, -np.inf), axis=-1)

    _decode(rout, params, choose)
    return terms


def sum_terms(terms: list[Tensor]) -> Tensor:
    """Position terms added in position order."""
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


def permutation_log_prob(rout: ReaderOutput, params: ParamStore, pi: Permutation) -> Tensor:
    """Differentiable log P(pi) with the decoder teacher-forced along pi.

    Equals the sum over positions of the log masked-softmax probability of
    pi's item given the already-placed prefix.
    """
    return sum_terms(forced_log_probs(rout, params, np.array(target_indices(rout.ids, pi))))
