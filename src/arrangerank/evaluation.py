"""Evaluation harness: ranking metrics at cutoffs, per-position accuracy, exports.

For every instance the model under evaluation produces one permutation
(greedy decode for arranger kinds, score-sort for the baseline; instances
sharing history length and slate size are ranked as one batch); the harness
reports the mean over instances of:

* N@K   gain-discount ranking quality against the ideal order
* M@K   average precision at K with labels binarized at ceil(r_max / 2)
* P@K / U@K   expected clicks down to K under a position-based / browsing
  simulated user

Everything here is pure: the same parameters and instances always produce
the identical table (fixed summation order).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arranger import greedy_step_probs
from .clickmodels import ClickModelSpec, oracle_position_groups, r_cm, r_ndcg
from .data import Instance, check_grades
from .model import rank_instances, read_instance
from .permutation import Permutation


class EmptyEvaluationError(ValueError):
    """No instances to evaluate."""


def map_at_k(pi: Permutation, labels: dict[int, int], k: int, threshold: int) -> float:
    """Average precision at k, labels binarized at ``threshold``; 0 if nothing relevant."""
    rel = [labels[d] >= threshold for d in pi]
    n_rel = sum(1 for g in labels.values() if g >= threshold)
    if n_rel == 0:
        return 0.0
    kk = min(k, len(rel))
    hits = 0
    ap = 0.0
    for i in range(kk):
        if rel[i]:
            hits += 1
            ap += hits / (i + 1)
    return ap / min(k, n_rel)


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


def evaluate(params, model_kind: str, instances: list[Instance],
             ks: tuple[int, ...] = (5, 10),
             click_specs: dict[str, ClickModelSpec] | None = None,
             r_max: int = 4) -> MetricTable:
    """Mean metric table over instances; see module docstring for the columns."""
    if not instances:
        raise EmptyEvaluationError("no instances to evaluate")
    if click_specs is None:
        click_specs = {"P": ClickModelSpec(kind="pbm", r_max=r_max),
                       "U": ClickModelSpec(kind="ubm", r_max=r_max)}
    check_grades(instances, r_max)
    for spec in click_specs.values():
        check_grades(instances, spec.r_max, spec.relevance_map)
    threshold = math.ceil(r_max / 2)
    columns = [f"{name}@{k}" for name in ["N", "M", *click_specs] for k in ks]
    sums = {c: 0.0 for c in columns}
    for inst, pi in zip(instances, rank_instances(model_kind, params, instances)):
        for k in ks:
            sums[f"N@{k}"] += r_ndcg(pi, inst.labels, k)
            sums[f"M@{k}"] += map_at_k(pi, inst.labels, k, threshold)
        for name, spec in click_specs.items():
            # one DP down to the deepest cutoff; a cutoff's value is a prefix sum
            contribs = r_cm(pi, inst.labels, spec, max(ks)).per_position_contributions
            for k in ks:
                sums[f"{name}@{k}"] += float(np.sum(contribs[:k]))
    means = {c: sums[c] / len(instances) for c in columns}
    return MetricTable(columns=columns, means=means, n_instances=len(instances))


def accuracy_at_position(params, model_kind: str, instances: list[Instance]) -> np.ndarray:
    """Mean exact-match indicator per position against the NDCG oracle tie sets.

    A position counts as correct when the placed item appears at that
    position in some NDCG-maximizing arrangement, so label ties never
    punish an equally-good choice.
    """
    if not instances:
        raise EmptyEvaluationError("no instances to evaluate")
    max_n = max(len(inst.cands.ids) for inst in instances)
    hits = np.zeros(max_n)
    counts = np.zeros(max_n)
    for inst, pi in zip(instances, rank_instances(model_kind, params, instances)):
        groups = oracle_position_groups(inst.labels, "ndcg")
        for i, item in enumerate(pi):
            counts[i] += 1
            if item in groups[i]:
                hits[i] += 1
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
