"""List-wise training loss: negative log-likelihood of the target permutation.

The decoder is teacher-forced along the ground-truth order, so term i is
-log P(position i takes the target item | target prefix), with the softmax
support shrinking as items are placed. A deliberately weaker per-position
summation loss (full-support softmax, state driven by the model's own
greedy picks) is kept as a diagnostic foil.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .arranger import forced_log_probs, summation_log_probs, target_indices
from .params import ParamStore
from .permutation import Permutation
from .reader import ReaderOutput


@dataclass
class LossReport:
    """Loss of one instance, or of each instance of a group (leading batch axis).

    ``losses`` holds the per-instance losses and ``terms`` their breakdown
    (last axis). ``tensor`` is the scalar sum of ``losses`` and carries the
    gradients.
    """

    losses: np.ndarray
    terms: np.ndarray
    tensor: Tensor

    def __post_init__(self):
        # rounding may leave a zero loss at -1e-16; anything lower is a sign error
        worst = min(np.min(self.losses), np.min(self.terms, initial=0.0))
        if worst < -1e-12:
            raise FloatingPointError(f"loss {worst:.3e} is negative beyond rounding")
        self.losses = np.maximum(self.losses, 0.0)
        self.terms = np.maximum(self.terms, 0.0)

    @property
    def total(self) -> float:
        """The loss (summed over the instances of a group)."""
        return float(np.sum(self.losses))

    @property
    def per_position(self) -> list[float]:
        """Per-position terms of one instance."""
        return self.terms.reshape(-1).tolist()


def sequence_loss(rout: ReaderOutput, params: ParamStore, targets: np.ndarray,
                  variant: str = "listwise") -> LossReport:
    """-log P(targets) per instance, targets given as candidate indices (..., n).

    ``variant="summation"`` is the diagnostic per-position summation loss.
    """
    if variant == "summation":
        steps = summation_log_probs(rout, params, targets)
        log_p = np.concatenate([t.values for t in steps], axis=-1)
        total = steps[0]
        for t in steps[1:]:
            total = ad.add(total, t)
        total = ad.sum_all(total)
    else:
        terms = forced_log_probs(rout, params, targets)
        log_p, total = terms.values, ad.sum_all(terms)
    per_instance = log_p[..., 0]
    for k in range(1, log_p.shape[-1]):  # in position order
        per_instance = per_instance + log_p[..., k]
    return LossReport(losses=-per_instance, terms=-log_p, tensor=ad.mul(total, Tensor(-1.0)))


def listwise_loss(rout: ReaderOutput, params: ParamStore, pi_star: Permutation) -> LossReport:
    """Differentiable -log P(pi_star) with per-position terms."""
    return sequence_loss(rout, params, np.array(target_indices(rout.ids, pi_star)))


def pointwise_summation_loss(rout: ReaderOutput, params: ParamStore,
                             pi_star: Permutation) -> LossReport:
    """Per-position cross-entropy over ALL items, no masking, no teacher forcing.

    The decoder state follows the model's own greedy choices, so the loss
    ignores which items the target prefix removed from contention. Kept only
    to demonstrate how much that contextual bookkeeping matters.
    """
    return sequence_loss(rout, params, np.array(target_indices(rout.ids, pi_star)),
                         "summation")
