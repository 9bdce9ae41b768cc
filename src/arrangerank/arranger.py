"""Plackett-Luce pointer decoder: assigns candidates to positions one by one.

At step i the decoder holds a recurrent context vector p_i seeded from the
user vector; the score of placing remaining item d is

    s^i_d = (P tanh(W2 h_d + W3 p_i + b2)) . u

and the next-item distribution is a softmax over the not-yet-arranged items
(arranged items get exactly probability 0). Once an item is placed, its
representation h_d is fed into the decoder cell together with a one-hot
position indicator to produce the next context vector.

Greedy and sampled decoding (and the summation foil) choose each step's
item from that step's scores, so one decode loop runs them step by step.
Teacher forcing fixes every decoder input in advance, so the forced
log-probabilities run the n recurrent steps in one cell call and score
every position in one pass. Both run a single reader output, or a group of
equal-shape instances along a leading batch axis. Orders are rows of
candidate indices; candidates are stored by ascending item id, so greedy
decoding breaks exact ties by smallest item id, never by storage position,
and results are invariant to candidate storage order.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ParamStore
from .permutation import Permutation
from .reader import ReaderOutput


def _onehots(params: ParamStore, steps) -> np.ndarray:
    """Position one-hot rows of the given steps; the last one repeats past the table."""
    rows, cols = params["dec.W"].values.shape
    positions = cols - rows // 2  # the cell reads [placed item, position one-hot, h]
    return np.eye(positions)[np.minimum(steps, positions - 1)]


def _pointer(rout: ReaderOutput, params: ParamStore) -> tuple[Tensor, Tensor]:
    """The score parts fixed for a whole decode: W2 h_d of every candidate, and P u."""
    return ad.matmul(rout.reprs, params["ptr.W2"]), ad.matvec(params["ptr.P"], rout.user_vec)


def _decode(rout: ReaderOutput, params: ParamStore,
            choose: Callable[[Tensor, np.ndarray], np.ndarray]) -> np.ndarray:
    """Fill positions 1..n; returns the placement order as candidate indices (..., n).

    At every step ``choose(logits, mask)`` gets the scores of all candidates
    and the mask of the unarranged ones, both (..., 1, n) (one step), and
    names the index (..., 1) each instance places next. The placed item's
    representation, with the one-hot of the next position, advances the
    context, so the next scores condition on it.
    """
    reprs = rout.reprs
    lead, n = reprs.values.shape[:-2], reprs.values.shape[-2]
    if n == 0:
        raise ValueError("cannot arrange an empty candidate set")
    onehots = _onehots(params, np.arange(n))
    w2h, w = _pointer(rout, params)
    cell_w, cell_b, w3, b2 = params["dec.W"], params["dec.b"], params["ptr.W3"], params["ptr.b2"]
    h, c = rout.user_vec, Tensor(np.zeros(rout.user_vec.values.shape))
    placed: Tensor = params["dec.start"]
    mask = np.ones(lead + (1, n), dtype=bool)
    order = []
    for i in range(n):
        hs, h, c = ad.gated_cell(cell_w, cell_b, [placed, Tensor(onehots[i])], h, c)
        chosen = choose(ad.pointer_logits(w2h, ad.add(ad.matvec(w3, hs), b2), w), mask)
        order.append(chosen)
        placed = ad.row(reprs, chosen)
        mask = mask.copy()  # the tape keeps the previous step's mask
        mask[..., 0, :][ad._per_instance(chosen[..., 0])] = False
    return np.concatenate(order, axis=-1)


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
    return order, np.concatenate(probs, axis=-2)


def step_scores(rout: ReaderOutput, params: ParamStore) -> dict[int, float]:
    """Placement scores s^1_d of every candidate for position 1."""
    seen = []

    def choose(logits, mask):
        seen.append(logits.values)
        return np.argmax(np.where(mask, logits.values, -np.inf), axis=-1)

    _decode(rout, params, choose)
    return {i: float(s) for i, s in zip(rout.ids, seen[0].reshape(-1))}


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
        p = ad.softmax_masked(logits, mask).values[0]
        support = np.flatnonzero(mask[0])
        weights = p[support]
        chosen = support[[rng.choice(len(support), p=weights / weights.sum())]]
        log_prob += float(ad.masked_log_prob(logits, mask, chosen).values[0])
        return chosen

    order = _decode(rout, params, choose)
    return _as_permutation(rout.ids, order), log_prob


def forced_log_probs(rout: ReaderOutput, params: ParamStore, targets: np.ndarray) -> Tensor:
    """Differentiable per-position log-probabilities (..., n) of ``targets`` (..., n indices).

    The decoder is teacher-forced along the targets: term i is the log
    masked-softmax probability of target i given the target prefix. The
    inputs of every step are known in advance (the start vector, then the
    targets), so one cell call runs the n steps and one pass scores them:
    row i of the step-by-item logits keeps the n - i items not yet placed.
    """
    reprs = rout.reprs
    n = reprs.values.shape[-2]
    if n == 0:
        raise ValueError("cannot arrange an empty candidate set")
    placed = [params["dec.start"], ad.row(reprs, targets[..., :-1])]
    hs, _, _ = ad.gated_cell(params["dec.W"], params["dec.b"],
                             [placed, Tensor(_onehots(params, np.arange(n)))],
                             rout.user_vec, Tensor(np.zeros(rout.user_vec.values.shape)))
    w2h, w = _pointer(rout, params)
    ctx = ad.add(ad.matvec(params["ptr.W3"], hs), params["ptr.b2"])  # one product, all steps
    logits = ad.pointer_logits(w2h, ctx, w)
    rank = np.argsort(targets, axis=-1)  # the step at which each candidate is placed
    return ad.masked_log_prob(logits, rank[..., None, :] >= np.arange(n)[:, None], targets)


def summation_log_probs(rout: ReaderOutput, params: ParamStore,
                        targets: np.ndarray) -> list[Tensor]:
    """Per-position terms (each (..., 1)) of the diagnostic summation foil.

    Term i scores target i over all items while the decoder follows its own
    greedy picks, so it runs the decode loop (``loss.pointwise_summation_loss``).
    """
    terms = []

    def choose(logits, mask):
        terms.append(ad.masked_log_prob(logits, np.ones_like(mask),
                                        targets[..., len(terms), None]))
        return np.argmax(np.where(mask, logits.values, -np.inf), axis=-1)

    _decode(rout, params, choose)
    return terms


def permutation_log_prob(rout: ReaderOutput, params: ParamStore, pi: Permutation) -> Tensor:
    """Differentiable log P(pi) with the decoder teacher-forced along pi.

    Equals the sum over positions of the log masked-softmax probability of
    pi's item given the already-placed prefix.
    """
    return ad.sum_all(forced_log_probs(rout, params, np.array(target_indices(rout.ids, pi))))
