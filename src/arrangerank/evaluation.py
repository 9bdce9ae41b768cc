"""Evaluation harness: ranking metrics at cutoffs, per-position accuracy, exports.

``score_rankings`` scores one given ranking per instance; ``evaluate`` first ranks
the instances with a model (greedy decode for arranger kinds, score-sort for the
baseline). Instances sharing a slate size are scored as one batch of arrays, whatever
their histories; the table holds the mean over instances of:

* N@K   gain-discount ranking quality against the ideal order
* M@K   average precision at K with labels binarized at ceil(r_max / 2)
* P@K / U@K   expected clicks down to K under a position-based / browsing
  simulated user

Everything here is pure: the same rankings and instances always produce
the identical table (instances are summed in order).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arranger import greedy_step_probs
from .clickmodels import ClickModelSpec, click_rows, cutoff_depth, ndcg_rows, served_grades
from .data import Instance, check_grades
from .model import groups_by, rank_instances, read_instance
from .permutation import Permutation


class EmptyEvaluationError(ValueError):
    """No instances to evaluate."""


def map_rows(grades: np.ndarray, k: int, threshold: int) -> np.ndarray:
    """Average precision at k of each row of served grades binarized at ``threshold``; 0 for a
    row with nothing relevant."""
    kk, rel = cutoff_depth(k, grades.shape[1]), grades >= threshold
    # the precision at each relevant rank, added in rank order
    precision = np.where(rel[:, :kk], np.cumsum(rel[:, :kk], axis=1) / np.arange(1, kk + 1), 0.0)
    n_rel = rel.sum(axis=1)
    return np.divide(np.cumsum(precision, axis=1)[:, -1], np.minimum(k, n_rel),
                     out=np.zeros(len(grades)), where=n_rel > 0)


@dataclass
class MetricTable:
    columns: list[str]
    means: dict[str, float]
    n_instances: int = 0

    def to_csv(self) -> str:
        head = ",".join(self.columns)
        vals = ",".join(f"{self.means[c]:.6f}" for c in self.columns)
        return f"{head}\n{vals}\n"

    def to_text(self) -> str:
        values = [f"{self.means[c]:.4f}" for c in self.columns]
        width = max(map(len, self.columns + values)) + 2  # the widest header or value
        lines = ["".join(c.rjust(width) for c in self.columns),
                 "".join(v.rjust(width) for v in values)]
        return "\n".join(lines) + "\n"


def _check_counts(ranked: list[Permutation], instances: list[Instance]) -> None:
    if not instances:
        raise EmptyEvaluationError("no instances to evaluate")
    if len(ranked) != len(instances):
        raise ValueError(f"{len(ranked)} rankings for {len(instances)} instances")


def score_rankings(ranked: list[Permutation], instances: list[Instance],
                   ks: tuple[int, ...] = (5, 10),
                   click_specs: dict[str, ClickModelSpec] | None = None,
                   r_max: int = 4) -> MetricTable:
    """Mean metric table of ``ranked[i]`` served on ``instances[i]``; see module docstring
    for the columns."""
    _check_counts(ranked, instances)
    if click_specs is None:
        click_specs = {"P": ClickModelSpec(kind="pbm", r_max=r_max),
                       "U": ClickModelSpec(kind="ubm", r_max=r_max)}
    cutoff_depth(min(ks), 1)
    if len(set(ks)) < len(ks):
        raise ValueError(f"cutoff k repeats: {', '.join(map(str, ks))}")
    check_grades(instances, r_max)
    for spec in click_specs.values():
        if spec.relevance_map is not None or spec.r_max != r_max:  # else the scan above repeats
            check_grades(instances, spec.r_max, spec.relevance_map)
    threshold = math.ceil(r_max / 2)
    columns = [f"{name}@{k}" for name in ["N", "M", *click_specs] for k in ks]
    values = np.empty((len(instances), len(columns)))
    for positions in groups_by(instances, lambda inst: len(inst.cands)):
        grades = served_grades([(ranked[p], instances[p].labels) for p in positions])
        cols = [ndcg_rows(grades, k) for k in ks] + [map_rows(grades, k, threshold) for k in ks]
        for spec in click_specs.values():
            # one DP down to the deepest cutoff; a cutoff's value is a prefix sum
            clicks = click_rows(spec, grades, max(ks))
            cols += [clicks[:, :k].sum(axis=1) for k in ks]
        values[positions] = np.stack(cols, axis=1)
    means = np.cumsum(values, axis=0)[-1] / len(instances)
    return MetricTable(columns, dict(zip(columns, means.tolist())), len(instances))


def evaluate(params, model_kind: str, instances: list[Instance],
             ks: tuple[int, ...] = (5, 10),
             click_specs: dict[str, ClickModelSpec] | None = None,
             r_max: int = 4) -> MetricTable:
    """``score_rankings`` of the model's own rankings of the instances."""
    return score_rankings(rank_instances(model_kind, params, instances), instances, ks,
                          click_specs, r_max)


def accuracy_at_position(ranked: list[Permutation], instances: list[Instance]) -> np.ndarray:
    """Mean exact-match indicator per position of each ranking against the NDCG oracle tie sets.

    A position counts as correct when the placed item appears there in some
    NDCG-maximizing arrangement, that is when its grade is the position's grade in
    grade-descending order, so label ties never punish an equally-good choice.
    """
    _check_counts(ranked, instances)
    hits, counts = np.zeros((2, max(len(inst.cands) for inst in instances)))
    for positions in groups_by(instances, lambda inst: len(inst.cands)):
        grades = served_grades([(ranked[p], instances[p].labels) for p in positions])
        hits[:grades.shape[1]] += np.sum(grades == -np.sort(-grades, axis=1), axis=0)
        counts[:grades.shape[1]] += len(positions)
    return hits / np.maximum(counts, 1)


def export_attention_weights(params, instances: list[Instance], path,
                             model_kind: str = "starank") -> None:
    """Write the reader's per-candidate attention weights as CSV rows.

    One row per (instance, item): ``instance_id,item_id,beta``.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("instance_id,item_id,beta\n")
        for inst in instances:
            rout = read_instance(model_kind, params, inst)
            for item_id, beta in rout.attn_weights.items():
                fh.write(f"{inst.query_id},{item_id},{beta:.12g}\n")


def export_attention(params, instance: Instance, path, model_kind: str = "starank") -> None:
    """Write the greedy decode's per-step pointing distribution as CSV.

    Rows are positions, columns are item ids (ascending); each row sums to 1
    over the items still unarranged at that step and is exactly 0 elsewhere.
    """
    rout = read_instance(model_kind, params, instance)
    _, probs = greedy_step_probs(rout, params)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("position," + ",".join(str(i) for i in rout.ids) + "\n")
        for pos in range(probs.shape[0]):
            fh.write(str(pos + 1) + "," + ",".join(f"{p:.12g}" for p in probs[pos]) + "\n")
