"""Score-and-sort reference ranker: per-item MLP score, descending sort.

The classic pipeline the arranger is measured against: each candidate gets
an independent score from concat(item features, user vector), trained with
squared error against grade / r_max, and the ranking is a stable descending
sort with ties broken by item id. No cross-candidate information flows
anywhere, which is exactly the limitation the comparison is about.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .loss import LossReport
from .params import ParamStore
from .permutation import Permutation
from .reader import CandidateSet, Group


def score_all(cands: CandidateSet | Group, user_vec: Tensor, params: ParamStore) -> Tensor:
    """Scores for a whole candidate set (or group of sets) at once; rows follow the ids."""
    x = Tensor(cands.features)
    u_part = ad.add(ad.matvec(params["pw.W1u"], user_vec), params["pw.b1"])
    hid = ad.tanh(ad.add_rows(ad.matmul(x, params["pw.W1x"]), u_part))
    return ad.add(ad.matvec(hid, params["pw.w2"]), params["pw.b2"])


def rank_by_sort(scores: dict[int, float]) -> Permutation:
    """Descending by score; exact ties broken by ascending item id."""
    return Permutation(sorted(scores, key=lambda i: (-scores[i], i)))


def grade_loss(cands: CandidateSet | Group, user_vec: Tensor, params: ParamStore,
               targets: np.ndarray) -> LossReport:
    """Per-instance mean squared error of the scores against ``targets`` (..., n)."""
    scores = score_all(cands, user_vec, params)
    diff = ad.add(scores, Tensor(-targets))
    sq = ad.mul(diff, diff)
    n = targets.shape[-1]
    return LossReport(losses=sq.values.sum(axis=-1) * (1.0 / n), terms=sq.values / n,
                      tensor=ad.mul(ad.sum_all(sq), Tensor(1.0 / n)))
