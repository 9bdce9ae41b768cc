"""Output checks and the failure ledger behind ``attempted``/``failed``.

Every checked operation goes through ``Ledger``: a wrong output or any other
exception is a failed operation and makes the run incorrect. An oracle call
that raises the known int64 tie-count overflow (``_sorted_oracle`` draws
``rng.integers(n_ties)`` with more than 2^63 tied maximizers) is the expected
outcome of that defect: it is tallied apart, in ``known_defect``, and is
neither an attempted nor a failed operation. Once the defect is fixed, the
same call returns an oracle and is checked like any other.
"""
from __future__ import annotations

import itertools

import numpy as np

from arrangerank.arranger import greedy_step_probs
from arrangerank.clickmodels import examination_prob, r_cm, r_ndcg, relevance_prob
from arrangerank.permutation import Permutation

KNOWN_DEFECT = "high is out of bounds for int64"
TOL = 1e-9


class Ledger:
    """Operations attempted and failed; an operation fails when it raises or
    when a check on its output finds a problem. Calls that hit the known
    overflow are counted in ``known_defect`` only."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.wrong: list[str] = []

    def op(self, result, problems=(), what: str = "") -> bool:
        """Account for one call that returned ``result`` (or raised it)."""
        if isinstance(result, ValueError) and KNOWN_DEFECT in str(result):
            self.known_defect += 1
            return False
        self.attempted += 1
        if isinstance(result, Exception):
            problems = [f"raised {result!r}"]
        if problems:
            self.failed += 1
            self.wrong_output(f"{what}: {'; '.join(problems)}")
            return False
        return True

    def wrong_output(self, message: str) -> None:
        if len(self.wrong) < 20:
            self.wrong.append(message)
        elif len(self.wrong) == 20:
            self.wrong.append("...")

    @property
    def correct(self) -> bool:
        return not self.wrong

    @property
    def fail_frac(self) -> float:
        """Failed calls over all calls, the known overflow counted as failed."""
        calls = self.attempted + self.known_defect
        return (self.failed + self.known_defect) / max(calls, 1)


def is_bijection(pi: Permutation, ids) -> bool:
    ids = list(ids)
    return len(pi) == len(ids) and set(pi) == set(ids)


def check_ranking(ledger: Ledger, pi: Permutation, ids, what: str, rout=None,
                  params=None) -> None:
    """One served ranking: a bijection of the slate ids and, given the reader
    output, replayed by ``greedy_step_probs`` whose rows each sum to 1."""
    problems = []
    if not is_bijection(pi, ids):
        problems.append(f"{tuple(pi)} is not a bijection of {tuple(ids)}")
    if rout is not None:
        replay, probs = greedy_step_probs(rout, params)
        sums = probs.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= TOL):
            problems.append(f"greedy_step_probs rows sum to {sums}")
        if replay.order != pi.order:
            problems.append(f"step-probability argmax {replay.order} != served {pi.order}")
    ledger.op(pi, problems, what)


def metric_value(metric, pi: Permutation, labels: dict[int, int]) -> float:
    if metric == "ndcg":
        return r_ndcg(pi, labels)
    return r_cm(pi, labels, metric).value


def descending(labels: dict[int, int], metric) -> Permutation:
    """An arrangement by descending per-item value (the sorting-route optimum)."""
    def value(i):
        return labels[i] if metric == "ndcg" else relevance_prob(metric, labels[i])
    return Permutation(sorted(labels, key=lambda i: (-value(i), i)))


def brute_force(labels: dict[int, int], metric) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Ascending ids, every arrangement (as index rows) and its metric value."""
    ids = sorted(labels)
    n = len(ids)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    if metric == "ndcg":
        gains = np.array([2.0 ** labels[i] - 1.0 for i in ids])
        disc = 1.0 / np.log2(np.arange(2, n + 2))
        idcg = float(np.sort(gains)[::-1] @ disc)
        scores = gains[perms] @ disc / idcg if idcg > 0 else np.zeros(len(perms))
        return ids, perms, scores
    rel = np.array([relevance_prob(metric, labels[i]) for i in ids])[perms]
    if metric.kind == "pbm":
        exam = np.array([examination_prob(metric, i) for i in range(1, n + 1)])
        return ids, perms, rel @ exam
    # browsing user: marginalize the last-click position row by row
    scores = np.zeros(len(perms))
    last = np.zeros((len(perms), n + 1))
    last[:, 0] = 1.0
    for i in range(1, n + 1):
        gam = np.array([examination_prob(metric, i, j) for j in range(i)])
        click = (last[:, :i] @ gam) * rel[:, i - 1]
        scores += click
        last[:, :i] *= 1.0 - gam[None, :] * rel[:, i - 1][:, None]
        last[:, i] = click
    return ids, perms, scores


def check_oracle(ledger: Ledger, labels: dict[int, int], metric, result, what: str,
                 groups=None) -> None:
    """One oracle: bijection, optimality and, for n <= 8, agreement of its value
    (and of the position groups, when given) with brute-force enumeration."""
    problems = []
    if not isinstance(result, Exception):
        problems = _oracle_problems(labels, metric, result, groups)
    ledger.op(result, problems, what)


def _oracle_problems(labels, metric, pi, groups) -> list[str]:
    if not is_bijection(pi, labels):
        return [f"oracle {tuple(pi)} is not a bijection"]
    got = metric_value(metric, pi, labels)
    if len(labels) > 8:
        best = metric_value(metric, descending(labels, metric), labels)
        if abs(got - best) > TOL * max(1.0, abs(best)):
            return [f"oracle value {got!r} != descending arrangement {best!r}"]
        return []
    ids, perms, scores = brute_force(labels, metric)
    best = float(scores.max())
    if abs(got - best) > TOL * max(1.0, abs(best)):
        return [f"oracle value {got!r} != brute-force maximum {best!r}"]
    if groups is not None:
        rows = perms[scores >= best - TOL * max(1.0, abs(best))]
        want = [{ids[j] for j in rows[:, pos]} for pos in range(len(ids))]
        if groups != want:
            return [f"position groups {groups} != brute force {want}"]
    return []
