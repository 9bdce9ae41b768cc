"""Plackett-Luce pointer decoder: assigns candidates to positions one by one.

At step i the decoder holds a recurrent context vector p_i seeded from the
user vector; the score of placing remaining item d is

    s^i_d = (P tanh(W2 h_d + W3 p_i + b2)) . u

and the next-item distribution is a softmax over the not-yet-arranged items
(arranged items get exactly probability 0). Once an item is placed, its
representation h_d is fed into the decoder cell together with a one-hot
position indicator to produce the next context vector.

Decoding is greedy: each step places the highest-scoring unplaced item. The
decode loop runs step by step on plain arrays: it records nothing on a tape and
writes its cell inputs, mask and order in place. A greedy order takes n - 1
steps: the last item is forced, so it fills the index left. Teacher
forcing fixes every decoder input in advance, so the differentiable
log-probabilities run the n recurrent steps in one cell call and score every
position in one pass; the summation foil decodes its greedy picks first, then
is scored that way (it reads all but the last). Both run a single reader
output, or a group of equal-shape instances along a leading batch axis. Orders
are rows of candidate indices; candidates are stored by ascending item id, so
greedy decoding gives bitwise-equal scores to the smallest item id, never to a
storage position, and results are invariant to candidate storage order.
Candidates with identical features need not score bitwise equal: a row's bits
in the ``reprs @ W`` products depend on its position, so their scores can
differ by 1-2 ulp, and the higher wins.
"""
from __future__ import annotations

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


def _decode(rout: ReaderOutput, params: ParamStore,
            steps: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Fill positions 1..n, or the first ``steps``, greedily; returns the placement order as
    candidate indices (..., steps) and each step's scores of all candidates (..., n).

    Each step places the highest-scoring unarranged candidate (of bitwise-equal scores the
    first, the smallest id); its representation, with the next position's one-hot, advances
    the context. Plain arrays: nothing is taped, and the cell input rows [placed item,
    position one-hot, h], the mask and the order are written in place.
    """
    reprs, h = rout.reprs.values, rout.user_vec.values
    lead, (n, e) = reprs.shape[:-2], reprs.shape[-2:]
    if n == 0:
        raise ValueError("cannot arrange an empty candidate set")
    w2h, w = reprs @ params["ptr.W2"].values, ad._mv(params["ptr.P"].values, h)  # fixed parts
    cell_w, cell_b, w3, b2 = (params[k].values for k in ("dec.W", "dec.b", "ptr.W3", "ptr.b2"))
    z = np.zeros(lead + (cell_w.shape[1],))
    z[..., :e], z[..., e], z[..., -e:] = params["dec.start"].values, 1.0, h  # position 1
    c = np.zeros(h.shape)
    mask = np.ones(lead + (n,), dtype=bool)
    order = np.empty(lead + (n if steps is None else steps,), dtype=np.intp)
    scores = []
    each = tuple(np.indices(lead, sparse=True))  # instance axes of a per-instance pick
    for i in range(order.shape[-1]):
        _, _, c, h = ad._cell_step(cell_w, cell_b, z, c)
        scores.append(ad._pointer_scores(w2h, ad._mv(w3, h) + b2, w))
        chosen = np.where(mask, scores[-1], -np.inf).argmax(axis=-1)
        order[..., i] = chosen
        mask[each + (chosen,)] = False
        z[..., :e], z[..., -e:] = reprs[each + (chosen,)], h
        if i + 1 < z.shape[-1] - 2 * e:  # past the table the last one-hot column stays
            z[..., e + i], z[..., e + i + 1] = 0.0, 1.0
    return order, scores


def _as_permutation(ids, order) -> Permutation:
    return Permutation([ids[k] for k in order])


def _one_request(rout: ReaderOutput, name: str) -> None:
    """Reject a grouped reader output in a decoder that serves one instance."""
    if rout.reprs.values.ndim > 2:
        raise ValueError(f"{name} decodes one instance; got a group of {len(rout.ids)}")


def target_indices(ids, pi: Permutation) -> list[int]:
    """Candidate index of each item of ``pi``, in order; ``pi`` must be a bijection of ``ids``."""
    pi.validate_against(ids)
    index_of = {item: k for k, item in enumerate(ids)}
    return [index_of[item] for item in pi]


def greedy_orders(rout: ReaderOutput, params: ParamStore) -> np.ndarray:
    """Greedy order (..., n): each step places the best unplaced item; the last one is forced."""
    n = rout.reprs.values.shape[-2]
    order = _decode(rout, params, steps=n - 1)[0]
    return np.concatenate([order, n * (n - 1) // 2 - order.sum(axis=-1, keepdims=True)], axis=-1)


def step_scores(rout: ReaderOutput, params: ParamStore) -> dict[int, float]:
    """Placement scores s^1_d of every candidate for position 1 (one decoder step)."""
    _one_request(rout, "step_scores")
    return dict(zip(rout.ids, _decode(rout, params, steps=1)[1][0].tolist()))


def arrange_greedy(rout: ReaderOutput, params: ParamStore) -> Permutation:
    return _as_permutation(rout.ids, greedy_orders(rout, params))


def greedy_step_probs(rout: ReaderOutput, params: ParamStore) -> tuple[Permutation, np.ndarray]:
    """Greedy decode plus the per-step pointing distribution (positions x items).

    Row i holds P(position i+1 takes item j | choices so far); entries of
    already-arranged items are exactly 0.
    """
    _one_request(rout, "greedy_step_probs")
    order, scores = _decode(rout, params)
    kept = np.argsort(order) >= np.arange(len(order))[:, None]  # row i: placed at step i or later
    _, e, s = ad._masked_exp(np.stack(scores), kept, "greedy decode")
    return _as_permutation(rout.ids, order), e / s[:, None]


def _forced_logits(rout: ReaderOutput, params: ParamStore, inputs: np.ndarray) -> Tensor:
    """Step-by-item logits (..., n, n) of the decoder fed the start vector, then ``inputs``:
    one cell call runs the n recurrent steps and one pass scores them."""
    reprs = rout.reprs
    n = reprs.values.shape[-2]
    if n == 0:
        raise ValueError("cannot arrange an empty candidate set")
    placed = [params["dec.start"], ad.row(reprs, inputs)]
    hs = ad.gated_cell(params["dec.W"], params["dec.b"],
                       [placed, Tensor(_onehots(params, np.arange(n)))], rout.user_vec)
    w2h, w = ad.matmul(reprs, params["ptr.W2"]), ad.matvec(params["ptr.P"], rout.user_vec)
    ctx = ad.add(ad.matvec(params["ptr.W3"], hs), params["ptr.b2"])  # one product, all steps
    return ad.pointer_logits(w2h, ctx, w)


def forced_log_probs(rout: ReaderOutput, params: ParamStore, targets: np.ndarray) -> Tensor:
    """Differentiable per-position log-probabilities (..., n) of ``targets`` (..., n indices).

    The decoder is teacher-forced along the targets: term i is the log
    masked-softmax probability of target i given the target prefix, so row
    i of the step-by-item logits keeps the n - i items not yet placed.
    """
    logits = _forced_logits(rout, params, targets[..., :-1])
    n = targets.shape[-1]
    rank = np.argsort(targets, axis=-1)  # the step at which each candidate is placed
    return ad.masked_log_prob(logits, rank[..., None, :] >= np.arange(n)[:, None], targets)


def summation_log_probs(rout: ReaderOutput, params: ParamStore, targets: np.ndarray) -> Tensor:
    """Per-position terms (..., n) of the diagnostic summation foil.

    Term i scores target i over all items while the decoder follows its own
    greedy picks (``loss.sequence_loss(..., "summation")``). The picks are
    decoded untaped, then fed to the decoder like forced targets, so one pass
    scores every position.
    """
    logits = _forced_logits(rout, params, greedy_orders(rout, params)[..., :-1])
    return ad.masked_log_prob(logits, np.ones(logits.values.shape, dtype=bool), targets)


def permutation_log_prob(rout: ReaderOutput, params: ParamStore, pi: Permutation) -> Tensor:
    """Differentiable log P(pi) with the decoder teacher-forced along pi.

    Equals the sum over positions of the log masked-softmax probability of
    pi's item given the already-placed prefix.
    """
    return ad.sum_all(forced_log_probs(rout, params, np.array(target_indices(rout.ids, pi))))
