"""Click-model simulators and simulation-based ranking metrics.

Two simulated users are supported:

* position-based ("pbm"): examination depends on rank alone,
  P(examine position i) = rho_i^tau with default rho_i = 1/i;
* browsing ("ubm"): examination depends on rank and on the rank of the last
  clicked item, gamma(i, i') with default (1/(i - i'))^tau and
  gamma(i, 0) = (1/i)^tau for "no click yet".

A ranking's simulation score is the expected number of clicks: the sum over
positions of P(examined) * P(perceived relevant). For the browsing model the
conditioning on earlier clicks is marginalized exactly, never by Monte Carlo,
by a dynamic program over the last-click position. Its one step scores a
batch of served lists (a single list is a batch of one) and the enumeration
oracle's value sequences alike.

The oracle permutation maximizes a chosen metric over all arrangements,
drawing one seeded index into the lexicographically ordered list of tied
maximizers. For NDCG, the position-based model and the default browsing
model, the rearrangement inequality describes every maximizer in closed form
and the index is decoded directly, for any candidate count. An explicit
browsing-model table is enumerated, capped at ``ENUMERATION_CAP`` candidates,
once per distinct sequence of values, and the index is decoded by counting the
id arrangements. Either description gives the pick and the per-position tie sets.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .data import ParseError, parse_value, read_key_values
from .permutation import Permutation

PBM = "pbm"
UBM = "ubm"

ENUMERATION_CAP = 10


class OrderingError(ValueError):
    """last-click position must precede the examined position."""


class EnumerationCapError(ValueError):
    """Candidate count too large for exhaustive search."""


@dataclass
class ClickModelSpec:
    """Configuration of one simulated user.

    ``examination_table`` overrides the parametric defaults: a vector of
    per-position probabilities for "pbm"; for "ubm" a matrix indexed
    [position-1, last_click] with last_click 0 meaning no click yet.
    ``relevance_map`` maps a graded label to P(perceived relevant); the
    default is (2^r - 1) / (2^r_max - 1).
    """

    kind: str
    tau: float = 1.0
    examination_table: np.ndarray | None = None
    relevance_map: dict[int, float] | None = None
    r_max: int = 4

    def __post_init__(self):
        if self.kind not in (PBM, UBM):
            raise ValueError(f"unknown click model kind {self.kind!r}")
        self.tau = float(self.tau)  # one fingerprint, whatever number type spells it
        if not self.tau >= 0:  # NaN fails too
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")
        if self.examination_table is not None:
            self.examination_table = np.asarray(self.examination_table, dtype=np.float64)
            want = 1 if self.kind == PBM else 2
            if self.examination_table.ndim != want:
                raise ValueError(f"{self.kind} examination table must be {want}-D")
            if not np.all((self.examination_table >= 0) & (self.examination_table <= 1)):
                raise ValueError("examination probabilities must lie in [0, 1]")  # NaN fails too
        if self.relevance_map is not None:
            self.relevance_map = {operator.index(r): float(p)
                                  for r, p in self.relevance_map.items()}
            bad = {r: p for r, p in self.relevance_map.items() if not 0.0 <= p <= 1.0}
            if bad:
                raise ValueError(f"relevance probabilities outside [0, 1]: {bad}")


@dataclass
class MetricScore:
    value: float
    per_position_contributions: list[float] = field(default_factory=list)


def examination_prob(spec: ClickModelSpec, position: int, last_click: int = 0) -> float:
    """P(position examined | last click at ``last_click``); 0 means no click yet."""
    if position < 1:
        raise ValueError(f"position must be >= 1, got {position}")
    if last_click < 0 or last_click >= position:
        raise OrderingError(f"last click {last_click} must precede position {position}")
    if spec.kind == PBM:
        if spec.examination_table is not None:
            if position > spec.examination_table.shape[0]:
                raise ValueError(f"examination table has no entry for position {position}")
            return float(spec.examination_table[position - 1])
        return (1.0 / position) ** spec.tau
    if spec.examination_table is not None:
        if position > spec.examination_table.shape[0] or last_click >= spec.examination_table.shape[1]:
            raise ValueError(f"examination table has no entry for ({position}, {last_click})")
        return float(spec.examination_table[position - 1, last_click])
    gap = position - last_click if last_click > 0 else position
    return (1.0 / gap) ** spec.tau


def relevance_prob(spec: ClickModelSpec, grade: int) -> float:
    """P(item perceived relevant | graded label)."""
    if spec.relevance_map is not None:
        if grade not in spec.relevance_map:
            raise ValueError(f"relevance map has no entry for grade {grade}")
        return float(spec.relevance_map[grade])
    if not 0 <= grade <= spec.r_max:
        raise ValueError(f"grade {grade} outside [0, {spec.r_max}]")
    return (2.0 ** grade - 1.0) / (2.0 ** spec.r_max - 1.0)


def served_grades(served: list[tuple[Permutation, dict[int, int]]]) -> np.ndarray:
    """(B, n) grades of equal-length arrangements, each a bijection onto its labels' ids."""
    for pi, labels in served:
        pi.validate_against(labels.keys())
    return np.array([[labels[d] for d in pi] for pi, labels in served], dtype=np.int64)


def cutoff_depth(k: int | None, n: int) -> int:
    """How many of n positions a cutoff k scores (all for None); a cutoff below 1 is an error."""
    if k is not None and k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")
    return n if k is None else min(k, n)


def _examination(spec: ClickModelSpec, n: int):
    """examination_prob at positions 1..n: one float each for a position-based user; for a
    browsing user, per position i an (i,) array indexed by the last click."""
    if spec.kind == PBM:
        return [examination_prob(spec, i) for i in range(1, n + 1)]
    return [np.array([examination_prob(spec, i, j) for j in range(i)]) for i in range(1, n + 1)]


def _browse_step(q: np.ndarray, i: int, gam: np.ndarray, values: np.ndarray, items: np.ndarray,
                 bufs) -> np.ndarray:
    """Browsing-model position i for the first P = len(items) rows of ``q``, q[:, j] being
    P(last click at j) and ``values[items]`` the value each row places at i: returns the
    clicks (in ``bufs``) and updates q unless i is its last column."""
    (dots, rel, spare), P = bufs, len(items)
    # OpenBLAS's gemv can sum a call's last (rows mod 4) rows in another order, and numpy sends
    # a one-row product to its dot routine: 4k rows give a row the same bits in every batch
    m = -(-P // 4) * 4
    dot = np.matmul(q[:m, :i], gam, out=dots[:m])[:P]
    click = np.multiply(dot, np.take(values, items, out=rel[:P], mode="clip"), out=dots[:P])
    if i < q.shape[1]:  # q[:, j] *= 1 - gam[j] * value for j < i, taken per value; later * 1
        factors = np.ones((len(values), q.shape[1]))
        factors[:, :i] = 1.0 - values[:, None] * gam
        q[:P] *= np.take(factors, items, axis=0, out=spare[:P], mode="clip")
        q[:P, i] = click
    return click


def click_rows(spec: ClickModelSpec, grades: np.ndarray, k: int | None = None) -> np.ndarray:
    """Expected clicks at the first k positions of each row of served grades, (B, min(k, n)):
    one product for a position-based user, one ``_browse_step`` per position for a browsing one."""
    depth = cutoff_depth(k, grades.shape[1])
    distinct, at = np.unique(grades, return_inverse=True)
    values = np.array([relevance_prob(spec, g) for g in distinct.tolist()])
    at, exam = at.reshape(grades.shape)[:, :depth], _examination(spec, depth)
    if spec.kind == PBM:
        return np.multiply(exam, values[at])
    rows = -(-len(at) // 4) * 4
    q, clicks = np.tile(np.eye(1, depth), (rows, 1)), np.empty(at.shape)  # no click yet
    bufs = np.zeros(rows), np.zeros(rows), np.zeros((rows, depth))
    for i, gam in enumerate(exam, start=1):
        clicks[:, i - 1] = _browse_step(q, i, gam, values, at[:, i - 1], bufs)
    return clicks


def r_cm(pi: Permutation, labels: dict[int, int], spec: ClickModelSpec,
         k: int | None = None) -> MetricScore:
    """Expected clicks down the list (optionally truncated at position k)."""
    clicks = click_rows(spec, served_grades([(pi, labels)]), k)
    return MetricScore(float(clicks.sum(axis=1)[0]), clicks[0].tolist())


def ndcg_rows(grades: np.ndarray, k: int | None = None) -> np.ndarray:
    """N@k of each row of served grades; 0 for a row in which no item gains."""
    kk = cutoff_depth(k, grades.shape[1])
    gains, discounts = np.ldexp(1.0, grades) - 1.0, 1.0 / np.log2(np.arange(2, kk + 2))[:, None]
    # a (1, kk) @ (kk, 1) product per row runs numpy's 1-D dot, whose bits a gemv does not keep
    dcg, idcg = (np.matmul(g[:, None, :kk], discounts)[:, 0, 0]
                 for g in (gains, -np.sort(-gains, axis=1)))
    return np.divide(dcg, idcg, out=np.zeros(len(grades)), where=idcg != 0.0)


def r_ndcg(pi: Permutation, labels: dict[int, int], k: int | None = None) -> float:
    """Discounted cumulative gain at k over its ideal value; 0 when no item gains."""
    return float(ndcg_rows(served_grades([(pi, labels)]), k)[0])


def ndcg_reduction_check(pi: Permutation, labels: dict[int, int]) -> tuple[float, float]:
    """Full-list NDCG next to the click-metric that reproduces it exactly.

    The reproducing simulated user examines with (1/N_o)/log2(i+1) and
    perceives relevance with (2^r - 1)/N_r, where N_o * N_r is the ideal
    DCG; both factor tables stay inside [0, 1].
    """
    ndcg, n = r_ndcg(pi, labels), len(pi)  # r_ndcg checks pi against the labels
    gains = {r: 2.0 ** r - 1.0 for r in set(labels.values())}
    n_r = max(gains.values())
    if n_r == 0.0:
        return 0.0, 0.0
    ideal = -np.sort(-np.array([gains[g] for g in labels.values()]))
    n_o = float(ideal @ (1.0 / np.log2(np.arange(2, n + 2)))) / n_r
    spec = ClickModelSpec(kind=PBM, examination_table=(1.0 / n_o) / np.log2(np.arange(2, n + 2)),
                          relevance_map={r: g / n_r for r, g in gains.items()})
    return ndcg, r_cm(pi, labels, spec).value


def load_click_spec(path) -> ClickModelSpec:
    """Read a simulated-user configuration from a flat key = value file.

    Recognized keys: ``kind`` (pbm|ubm), ``tau``, ``r_max``,
    ``relevance_map`` (comma-separated ``grade:prob`` pairs) and
    ``examination_table`` (comma-separated columns; for the browsing model,
    semicolon-separated rows indexed by last-click position).
    """
    fields = read_key_values(path)
    parsers = {"kind": str, "tau": float, "r_max": int, "relevance_map": _relevance_map,
               "examination_table": lambda raw: _table(raw, spec.kind)}  # after kind
    unknown = sorted(set(fields) - set(parsers))
    if unknown:
        lineno = min(fields[key][1] for key in unknown)
        raise ParseError(f"{path}:{lineno}: unknown keys {unknown}")
    spec = ClickModelSpec(kind=PBM)
    for key, parse in parsers.items():
        if key in fields:  # checked as it joins, so a rejected value names its own line
            value = parse_value(path, fields, key, parse)
            spec = parse_value(path, fields, key, lambda _: replace(spec, **{key: value}))
    return spec


def _table(raw: str, kind: str) -> np.ndarray:
    rows = [[float(x) for x in row.split(",") if x.strip() != ""] for row in raw.split(";")]
    if kind == PBM and len(rows) > 1:
        raise ValueError(f"a pbm table is one row, got {len(rows)} ';'-separated rows")
    return np.array(rows[0]) if kind == PBM else np.array(rows)


def _relevance_map(raw: str) -> dict[int, float]:
    rmap = {}
    for tok in raw.split(","):
        grade, colon, prob = tok.partition(":")
        if not colon:
            raise ValueError(f"expected grade:prob, got {tok.strip()!r}")
        rmap[int(grade)] = float(prob)
    return rmap


def metric_fingerprint(metric) -> str:
    """Stable text key identifying a metric configuration (for seed scoping)."""
    if metric == "ndcg":
        return "ndcg"
    parts = [metric.kind, f"tau={metric.tau!r}", f"rmax={metric.r_max}"]
    if metric.examination_table is not None:
        table = metric.examination_table
        parts.append(f"table={'x'.join(map(str, table.shape))}:{table.tobytes().hex()}")
    if metric.relevance_map is not None:
        parts.append("rmap=" + ",".join(f"{r}:{p!r}" for r, p in sorted(metric.relevance_map.items())))
    return "|".join(parts)


# ------------------------------------------------------------ oracle search


def _value_pools(labels: dict[int, int], metric) -> dict[float, list[int]]:
    """The ascending ids of each value the metric gives a grade, the first id's grade first."""
    if not labels:
        raise ValueError("cannot build an oracle for an empty candidate set")
    ndcg = metric == "ndcg"
    if not ndcg and not isinstance(metric, ClickModelSpec):
        raise ValueError(f"metric must be 'ndcg' or a ClickModelSpec, got {metric!r}")
    pools: dict[float, list[int]] = {}
    pool_of: dict[int, list[int]] = {}  # grade -> the pool of its value
    for i in sorted(map(int, labels)):
        if (g := labels[i]) not in pool_of:
            pool_of[g] = pools.setdefault(2.0 ** g - 1.0 if ndcg else relevance_prob(metric, g), [])
        pool_of[g].append(i)
    return pools


_CLASSES: dict = {}  # (metric_fingerprint, n) -> (spans, blocks) of _weight_classes


def _weight_classes(metric, n: int, pools) -> tuple[tuple, tuple] | None:
    """With positions ranked by descending weight: each rank's class of equal weights as (first,
    end) ranks, and the positions in order as blocks (first rank, length) of consecutive ranks,
    memoised per (metric_fingerprint, n); None for an explicit browsing table unless every value
    ties. Default browsing weights: value-descending maximizers, all at tau 0 (property-tested)."""
    if metric != "ndcg" and metric.kind == UBM and metric.examination_table is not None:
        return (((0, n),) * n, ((0, n),)) if len(pools) == 1 else None
    if (key := (metric_fingerprint(metric), n)) not in _CLASSES:
        w = ((1.0 / np.log2(np.arange(2, n + 2))).tolist() if metric == "ndcg" else
             _examination(metric, n) if metric.kind == PBM else
             [float(n - p) if metric.tau > 0.0 else 1.0 for p in range(n)])
        by_w = sorted(range(n), key=w.__getitem__, reverse=True)
        ends = [k for k in range(1, n + 1) if k == n or w[by_w[k]] != w[by_w[k - 1]]]
        rank = sorted(range(n), key=by_w.__getitem__)
        blocks = (list(ps) for _, ps in itertools.groupby(range(n), lambda p: rank[p] - p))
        _CLASSES[key] = (tuple((a, b) for a, b in zip([0] + ends, ends) for _ in range(a, b)),
                         tuple((rank[ps[0]], len(ps)) for ps in blocks))  # shared: read-only
    return _CLASSES[key]


def _runs(classes: tuple[tuple, tuple], pools: dict[float, list[int]]):
    """Yields the maximizer count, then (take, length) runs in position order.

    Swapping the items at positions p and q changes a weighted sum by (w_p - w_q)(v_a - v_b), so
    the maximizers give each class of equal weights the values it gets when the classes, heaviest
    first, take the values in descending order: one value, or a list shared by the class's runs.
    With n_v items of value v, m_{W,v} of them in class W of size r_W, that makes
    prod_v n_v! * prod_W r_W! / prod_v m_{W,v}! maximizers."""
    (spans, blocks), values = classes, sorted(pools, reverse=True)
    sizes = [len(pools[v]) for v in values]
    tops, count = list(itertools.accumulate(sizes)), math.prod(map(math.factorial, sizes))
    ends, takes, j = [0], [], 0  # segments of ranks, heaviest first
    while j < len(values):
        first, end = spans[tops[j] - 1]  # the class of values[j]'s last rank
        if end != tops[j] and first == ends[-1]:  # it mixes values: its list, its multinomial
            takes.append([values[bisect.bisect_right(tops, r)] for r in range(first, end)])
            count = count * math.factorial(end - first) // math.prod(
                map(math.factorial, map(takes[-1].count, set(takes[-1]))))
            j = bisect.bisect_right(tops, end)
        else:  # values[j] alone, through that class or up to it
            takes.append(values[j])
            end, j = (end, j + 1) if end == tops[j] else (first, j)
        ends.append(end)
    yield count
    for rank, length in blocks:
        k, stop = bisect.bisect_right(ends, rank), rank + length
        while rank < stop:
            yield takes[k - 1], min(ends[k], stop) - rank
            rank, k = ends[k], k + 1


def _sequence_scores(values: np.ndarray, counts: list[int], metric):
    """Explicit browsing-table score of every distinct sequence of ``values`` indices, ``counts``
    of each, one ``_browse_step`` per shared prefix, a state repeated once per distinct value it
    has left: yields per block, in lexicographic order, the scores (the next block overwrites
    them) and per position a (parent, value index) pair per state. While a state has more than
    8! leaves (beyond 8 items only) the whole frontier grows, then each state is a block."""
    n, block = sum(counts), math.factorial(8)
    gams = _examination(metric, n)
    # a multiset of value indices is coded sum_v c_v * stride_v, the full one last; per code its
    # child count, first child slot and leaf count, per slot the child's value index and code
    strides = np.cumprod([1, *(c + 1 for c in counts[:-1])])
    digits = np.arange(math.prod(c + 1 for c in counts))[:, None] // strides % np.add(counts, 1)
    kid_code, kid_value = np.nonzero(digits)
    kid_code -= strides[kid_value]
    kids, fact = np.count_nonzero(digits, axis=1), np.cumprod([1, *range(1, n + 1)])
    first, leaves = np.cumsum(kids) - kids, fact[digits.sum(axis=1)] // fact[digits].prod(axis=1)
    rows = -(-min(int(leaves[-1]), block) // 4) * 4
    qs, ss, (dots, rel) = np.zeros((2, rows, n)), np.zeros((2, rows)), np.zeros((2, rows))

    def grow(state, i):
        """The states (code, q, s, buffer half or None) through position i, and their level."""
        code, q, s, t = state
        cnt = kids.take(code)
        parent = np.repeat(np.arange(len(code)), cnt)
        slot = (first.take(code) - np.cumsum(cnt) + cnt).take(parent) + np.arange(P := len(parent))
        value = kid_value.take(slot)
        if t is None or P > len(code):  # one child each grows in place
            t = 1 if t == 0 else 0
            np.take(q, parent, axis=0, out=qs[t][:P], mode="clip")  # mode="raise" buffers out
            np.take(s, parent, out=ss[t][:P], mode="clip")
        ss[t][:P] += _browse_step(qs[t], i, gams[i - 1], values, value, (dots, rel, qs[1 - t]))
        return (kid_code.take(slot), qs[t], ss[t][:P], t), (parent, value)

    head, levels = (np.array([len(kids) - 1]), np.eye(1, n), np.zeros(1), None), []
    while leaves.take(head[0]).max() > block:  # no working array holds more than 8! rows
        (code, q, s, _), level = grow(head, len(levels) + 1)
        head, levels = (code, q[:len(code)].copy(), s.copy(), None), [*levels, level]
    for k in range(len(head[0])):
        state, path = (*(a[k:k + 1] for a in head[:3]), None), list(levels)
        for i in range(len(levels) + 1, n + 1):
            state, (parent, value) = grow(state, i)
            path.append((parent + k if i == len(levels) + 1 else parent, value))
        yield state[2], path


def _walk(levels, at: np.ndarray) -> np.ndarray:
    """The int8 value-index rows of the paths through ``levels`` to the last level's ``at``."""
    rows = np.empty((len(at), len(levels)), dtype=np.int8)
    for col in range(len(levels) - 1, -1, -1):
        parent, value = levels[col]
        rows[:, col], at = value[at], parent[at]
    return rows


def _maximizers(pools: dict[float, list[int]], metric) -> tuple[list[float], list[int], np.ndarray]:
    """Ascending values, their counts n_v, and int8 index rows into them of every distinct value
    sequence maximizing an explicit browsing table, each standing for prod_v n_v! id rows."""
    values = sorted(pools)
    counts = [len(pools[v]) for v in values]
    if (n := sum(counts)) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n} candidates exceed the enumeration cap {ENUMERATION_CAP} of an explicit "
            "browsing-model table; rank label-descending (greedy) instead")
    best, kept = -np.inf, []
    for scores, levels in _sequence_scores(np.array(values), counts, metric):
        top = float(scores.max())
        if top > best:
            best, kept = top, []
        if top == best:
            kept.append(_walk(levels, np.flatnonzero(scores == top)))
    return values, counts, np.concatenate(kept)


def oracle_permutation(labels: dict[int, int], metric, seed: int) -> Permutation:
    """Arrangement maximizing the metric ("ndcg" or a ClickModelSpec); one seeded draw
    indexes the tied maximizers in lexicographic id order. Position weights decode it in
    closed form; an explicit browsing table is enumerated, up to ``ENUMERATION_CAP`` items.
    """
    pools, rng = _value_pools(labels, metric), np.random.default_rng(seed)
    if (classes := _weight_classes(metric, len(labels), pools)) is None:
        values, left, seqs = _maximizers(pools, metric)
        every = math.prod(map(math.factorial, left))  # id rows per value sequence
        u, order = int(rng.integers(len(seqs) * every)), []
        rest = sorted((i, k) for k, v in enumerate(values) for i in pools[v])
        while rest:  # the u-th maximizing id row in lexicographic order, counted per candidate
            hits = np.bincount(seqs[:, len(order)], minlength=len(left))
            for i, k in rest:  # an id of value k completes (sequences with k next) * every / left_k
                if u < (below := int(hits[k]) * every // left[k]):
                    break
                u -= below
            seqs, every = seqs[seqs[:, len(order)] == k], every // left[k]
            left[k] -= 1
            rest.remove((i, k))
            order.append(i)
        return Permutation(order)
    count = next(runs := _runs(classes, pools))
    u, order = int(rng.integers(count)), []  # drawn before the runs are laid out
    for take, length in runs:
        if not isinstance(take, list):  # an id of v completes count / n_v: one divmod picks it
            pool = pools[take]
            for _ in range(length):
                count //= len(pool)
                k, u = divmod(u, count)
                order.append(pool.pop(k))
            continue
        for _ in range(length):  # an id of v completes count * m_{W,v} / (r_W * n_v)
            for i, v in sorted((i, v) for v in set(take) for i in pools[v]):
                below = count * take.count(v) // (len(take) * len(pools[v]))
                if u < below:
                    break
                u -= below
            count = below
            take.remove(v)
            pools[v].remove(i)
            order.append(i)
    return Permutation(order)


def oracle_position_groups(labels: dict[int, int], metric) -> list[set[int]]:
    """For each position, the ids some maximizer places there (the tie sets)."""
    pools = _value_pools(labels, metric)
    if (classes := _weight_classes(metric, len(labels), pools)) is None:
        values, _, seqs = _maximizers(pools, metric)
        return [set().union(*(pools[values[k]] for k in set(col.tolist()))) for col in seqs.T]
    next(runs := _runs(classes, pools))  # the count
    return [set().union(*(pools[v] for v in set(take if isinstance(take, list) else [take])))
            for take, length in runs for _ in range(length)]
