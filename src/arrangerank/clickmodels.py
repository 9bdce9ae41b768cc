"""Click-model simulators and simulation-based ranking metrics.

Two simulated users are supported:

* position-based ("pbm"): examination depends on rank alone,
  P(examine position i) = rho_i^tau with default rho_i = 1/i;
* browsing ("ubm"): examination depends on rank and on the rank of the last
  clicked item, gamma(i, i') with default (1/(i - i'))^tau and
  gamma(i, 0) = (1/i)^tau for "no click yet".

A ranking's simulation score is the expected number of clicks: the sum over
positions of P(examined) * P(perceived relevant). For the browsing model the
conditioning on earlier clicks is marginalized exactly by dynamic
programming over the last-click position, never by Monte Carlo, so the
metric is deterministic.

The oracle permutation maximizes a chosen metric over all arrangements,
drawing one seeded index into the lexicographically ordered list of tied
maximizers. When the maximizers are consecutive blocks of ids free to take
any order within their spans (every arrangement ties, or every maximizer is
value-descending: strictly decreasing position weights, or the default
browsing form), a sorting route decodes that index directly, for any
candidate count. Otherwise a single enumeration pass, capped at
``ENUMERATION_CAP`` candidates, keeps the maximizing rows; the same rows
give the oracle's pick and the per-position tie sets.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import parse_value, read_key_values
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
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.examination_table is not None:
            self.examination_table = np.asarray(self.examination_table, dtype=np.float64)
            want = 1 if self.kind == PBM else 2
            if self.examination_table.ndim != want:
                raise ValueError(f"{self.kind} examination table must be {want}-D")
            if np.any(self.examination_table < 0) or np.any(self.examination_table > 1):
                raise ValueError("examination probabilities must lie in [0, 1]")
        if self.relevance_map is not None:
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


def _relevance_vector(spec: ClickModelSpec, pi: Permutation, labels: dict[int, int]) -> np.ndarray:
    pi.validate_against(labels.keys())
    return np.array([relevance_prob(spec, labels[d]) for d in pi])


def r_cm(pi: Permutation, labels: dict[int, int], spec: ClickModelSpec,
         k: int | None = None) -> MetricScore:
    """Expected clicks down the list (optionally truncated at position k)."""
    rel = _relevance_vector(spec, pi, labels)
    n = len(rel)
    kk = n if k is None else min(k, n)
    contribs = []
    if spec.kind == PBM:
        for i in range(kk):
            contribs.append(examination_prob(spec, i + 1) * rel[i])
    else:
        # exact marginalization over click histories: q[j] = P(last click so far at j)
        q = np.zeros(n + 1)
        q[0] = 1.0
        for i in range(1, kk + 1):
            gam = np.array([examination_prob(spec, i, j) for j in range(i)])
            click = float(q[:i] @ gam) * rel[i - 1]
            contribs.append(click)
            q[:i] *= 1.0 - gam * rel[i - 1]
            q[i] = click
    return MetricScore(value=float(np.sum(contribs)), per_position_contributions=contribs)


def r_ndcg(pi: Permutation, labels: dict[int, int], k: int | None = None) -> float:
    """Discounted cumulative gain at k over its ideal value; 0 when no item gains."""
    pi.validate_against(labels.keys())
    n = len(pi)
    kk = n if k is None else min(k, n)
    discounts = 1.0 / np.log2(np.arange(2, kk + 2))
    gains = np.array([2.0 ** labels[d] - 1.0 for d in pi])[:kk]
    ideal = -np.sort(-np.array([2.0 ** g - 1.0 for g in labels.values()]))[:kk]
    idcg = float(ideal @ discounts)
    if idcg == 0.0:
        return 0.0
    return float(gains @ discounts) / idcg


def ndcg_reduction_check(pi: Permutation, labels: dict[int, int]) -> tuple[float, float]:
    """Full-list NDCG next to the click-metric that reproduces it exactly.

    The reproducing simulated user examines with (1/N_o)/log2(i+1) and
    perceives relevance with (2^r - 1)/N_r, where N_o * N_r is the ideal
    DCG; both factor tables stay inside [0, 1].
    """
    pi.validate_against(labels.keys())
    n = len(pi)
    ndcg = r_ndcg(pi, labels)
    gains = {r: 2.0 ** r - 1.0 for r in set(labels.values())}
    max_gain = max(gains.values())
    if max_gain == 0.0:
        return 0.0, 0.0
    ideal = -np.sort(-np.array([gains[labels[d]] for d in labels]))
    idcg = float(ideal @ (1.0 / np.log2(np.arange(2, n + 2))))
    n_r = max_gain
    n_o = idcg / n_r
    spec = ClickModelSpec(
        kind=PBM,
        examination_table=(1.0 / n_o) / np.log2(np.arange(2, n + 2)),
        relevance_map={r: g / n_r for r, g in gains.items()},
    )
    return ndcg, r_cm(pi, labels, spec).value


def simulate_clicks(pi: Permutation, labels: dict[int, int], spec: ClickModelSpec,
                    seed: int) -> np.ndarray:
    """Sample one user session: per position, examine then maybe click.

    Two uniform draws are consumed per position regardless of the outcome,
    so the stream layout is stable under a fixed seed.
    """
    rel = _relevance_vector(spec, pi, labels)
    rng = np.random.default_rng(seed)
    clicks = np.zeros(len(rel), dtype=bool)
    last = 0
    for i in range(1, len(rel) + 1):
        u_exam, u_rel = rng.random(), rng.random()
        examined = u_exam < examination_prob(spec, i, last if spec.kind == UBM else 0)
        if examined and u_rel < rel[i - 1]:
            clicks[i - 1] = True
            last = i
    return clicks


def load_click_spec(path) -> ClickModelSpec:
    """Read a simulated-user configuration from a flat key = value file.

    Recognized keys: ``kind`` (pbm|ubm), ``tau``, ``r_max``,
    ``relevance_map`` (comma-separated ``grade:prob`` pairs) and
    ``examination_table`` (comma-separated columns; for the browsing model,
    semicolon-separated rows indexed by last-click position).
    """
    fields = read_key_values(path)
    unknown = set(fields) - {"kind", "tau", "r_max", "relevance_map", "examination_table"}
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")

    def value(key, parse, default):
        return parse_value(path, fields, key, parse) if key in fields else default

    kind = value("kind", str, PBM)
    return ClickModelSpec(
        kind=kind,
        tau=value("tau", float, 1.0),
        examination_table=value("examination_table", lambda raw: _table(raw, kind), None),
        relevance_map=value("relevance_map", _relevance_map, None),
        r_max=value("r_max", int, 4),
    )


def _table(raw: str, kind: str) -> np.ndarray:
    rows = [[float(x) for x in row.split(",") if x.strip() != ""] for row in raw.split(";")]
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
        parts.append("table=" + metric.examination_table.tobytes().hex()[:32])
    if metric.relevance_map is not None:
        parts.append("rmap=" + ",".join(f"{r}:{p!r}" for r, p in sorted(metric.relevance_map.items())))
    return "|".join(parts)


# ------------------------------------------------------------ oracle search


def _item_values(labels: dict[int, int], metric) -> tuple[list[int], np.ndarray]:
    """Ascending ids and the per-item value the metric attaches to each."""
    if not labels:
        raise ValueError("cannot build an oracle for an empty candidate set")
    ids = sorted(int(i) for i in labels)
    if metric == "ndcg":
        return ids, np.array([2.0 ** labels[i] - 1.0 for i in ids])
    if not isinstance(metric, ClickModelSpec):
        raise ValueError(f"metric must be 'ndcg' or a ClickModelSpec, got {metric!r}")
    return ids, np.array([relevance_prob(metric, labels[i]) for i in ids])


def _position_weights(metric, n: int) -> list[float] | None:
    """Per-position examination weights when the metric has them (pbm/ndcg)."""
    if metric == "ndcg":
        return (1.0 / np.log2(np.arange(2, n + 2))).tolist()
    if metric.kind != PBM:
        return None
    if metric.examination_table is None:
        return [(1.0 / i) ** metric.tau for i in range(1, n + 1)]
    return [examination_prob(metric, i) for i in range(1, n + 1)]


def _tie_blocks(metric, ids: list[int], values: np.ndarray) -> list[list[int]] | None:
    """The maximizers as consecutive blocks of ids, each free to take any order in its span.

    ``[ids]`` when every arrangement ties; the equal-value groups, highest
    value first, when every maximizer is value-descending; None when only
    enumeration can tell.
    """
    by_value = sorted(zip(values.tolist(), ids), key=lambda p: p[0], reverse=True)  # stable
    blocks = [[i for _, i in grp] for _, grp in itertools.groupby(by_value, key=lambda p: p[0])]
    if len(blocks) == 1:
        return blocks
    w = _position_weights(metric, len(ids))
    if w is not None:
        if all(x == w[0] for x in w):
            return [list(ids)]
        descending = all(b < a for a, b in zip(w, w[1:]))
    elif metric.examination_table is None and metric.tau == 0.0:
        return [list(ids)]  # the default browsing model examines everything: order-free
    else:
        # default browsing model: examination shrinks with the gap since the last click,
        # so descending relevance is optimal (property-tested against enumeration)
        descending = metric.examination_table is None and metric.tau > 0.0
    return blocks if descending else None


def _unrank(ids: list[int], rank: int) -> list[int]:
    """rank-th permutation of ``ids`` in lexicographic order (Lehmer decode)."""
    pool, out = list(ids), []
    for k in range(len(ids), 0, -1):
        digit, rank = divmod(rank, math.factorial(k - 1))
        out.append(pool.pop(digit))
    return out


def _sorted_oracle(blocks: list[list[int]], rng: np.random.Generator) -> Permutation:
    """Seeded uniform choice among the arrangements ``blocks`` describe.

    The choice index is decoded most significant block first, matching the
    lexicographic order in which enumeration would list the same maximizers.
    """
    n_ties = math.prod(math.factorial(len(b)) for b in blocks)
    u = int(rng.integers(n_ties))
    order: list[int] = []
    for b in blocks:
        n_ties //= math.factorial(len(b))
        digit, u = divmod(u, n_ties)
        order.extend(_unrank(b, digit))
    return Permutation(order)


@functools.cache
def _perm_table(n: int) -> np.ndarray:
    """Every permutation of range(n) as an int8 row, in lexicographic order; read-only."""
    rest = np.tile(_perm_table(n - 1) if n > 1 else np.zeros((1, 0), dtype=np.int8), (n, 1))
    first = np.arange(n, dtype=np.int8).repeat(len(rest) // n)[:, None]
    table = np.hstack([first, rest + (rest >= first)])  # rest skips ``first``, order kept
    table.flags.writeable = False
    return table


def _perm_chunks(n: int):
    """``itertools.permutations(range(n))`` as int8 blocks: beyond 8 items, one block per
    fixed prefix, followed by the 8-item table mapped onto the other indices."""
    if n <= 8:
        return [_perm_table(n)]
    tail = _perm_table(8)
    return (np.hstack([np.tile(np.array(p, dtype=np.int8), (len(tail), 1)),
                       np.array([j for j in range(n) if j not in p], dtype=np.int8)[tail]])
            for p in itertools.permutations(range(n), n - 8))


def _maximizers(ids: list[int], values: np.ndarray, metric) -> np.ndarray:
    """Index rows of every maximizing arrangement, int8, in lexicographic order.

    One pass over all permutations in chunks of 8! rows; a chunk whose best
    score beats the running maximum discards the rows kept so far.
    """
    n = len(ids)
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n} candidates exceed the enumeration cap {ENUMERATION_CAP} and the metric has "
            "no sorting route; rank label-descending (greedy) instead")
    pos_w = _position_weights(metric, n)
    if pos_w is None:
        gams = [np.array([examination_prob(metric, i, j) for j in range(i)])
                for i in range(1, n + 1)]
    best, rows = -np.inf, []
    for idx in _perm_chunks(n):
        rel = values[idx]  # (m, n)
        if pos_w is not None:
            scores = rel @ pos_w
        else:
            # browsing-model DP over the last-click position, one row per arrangement
            scores = np.zeros(len(idx))
            q = np.zeros((len(idx), n + 1))
            q[:, 0] = 1.0
            for i, gam in enumerate(gams, start=1):
                click = (q[:, :i] @ gam) * rel[:, i - 1]
                scores += click
                q[:, :i] *= 1.0 - gam[None, :] * rel[:, i - 1][:, None]
                q[:, i] = click
        top = float(scores.max())
        if top > best:
            best, rows = top, []
        if top == best:
            rows.append(idx[scores == top])
    return np.concatenate(rows)


def oracle_permutation(labels: dict[int, int], metric, seed: int) -> Permutation:
    """Arrangement maximizing the metric; seeded uniform choice among ties.

    ``metric`` is "ndcg" or a ClickModelSpec. Metrics whose maximizers
    ``_tie_blocks`` can describe take an exact sorting route (any candidate
    count); anything else is exhaustively enumerated, which requires
    ``len(labels) <= ENUMERATION_CAP``.
    """
    ids, values = _item_values(labels, metric)
    rng = np.random.default_rng(seed)
    blocks = _tie_blocks(metric, ids, values)
    if blocks is not None:
        return _sorted_oracle(blocks, rng)
    rows = _maximizers(ids, values, metric)
    return Permutation([ids[j] for j in rows[rng.integers(len(rows))]])


def oracle_position_groups(labels: dict[int, int], metric) -> list[set[int]]:
    """For each position, the ids some maximizer places there (the tie sets)."""
    ids, values = _item_values(labels, metric)
    blocks = _tie_blocks(metric, ids, values)
    if blocks is not None:
        return [set(b) for b in blocks for _ in b]
    rows = _maximizers(ids, values, metric)
    return [{ids[j] for j in np.unique(col)} for col in rows.T]
