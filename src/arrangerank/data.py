"""Datasets: user browse logs, temporal splitting, synthetic generation, file IO.

Log file format (one user per line, '|' separated fields)::

    user_id|p1,p2,...|item_id:grade:f1,f2,...;item_id:grade:f1,...

Split instance files use the same item syntax::

    query_id|p1,p2,...|<history items or empty>|<candidate items>|<oracle ids or empty>

Floats are written with ``repr`` (shortest round-trip), so write-then-read
reproduces values exactly.

The temporal split takes the last 30 log positions of every user with at
least 30 entries: candidates are positions T-29..T-20 for training (history
1..T-30), T-19..T-10 for validation (history 1..T-20) and T-9..T for test
(history 1..T-10), keeping original browse order throughout. Shorter logs
are dropped and counted.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .permutation import Permutation
from .reader import CandidateSet, UserContext


class ParseError(ValueError):
    """Malformed input file; message names the offending line."""


@dataclass
class LogItem:
    item_id: int
    features: np.ndarray
    grade: int


@dataclass
class UserLog:
    user_id: int
    profile: np.ndarray
    items: list[LogItem]


@dataclass
class Instance:
    """One ranking task: a user context, a candidate slate and its labels."""

    query_id: str
    ctx: UserContext
    cands: CandidateSet
    labels: dict[int, int]
    oracle: Permutation | None = None


def check_grades(instances, r_max: int, relevance_map: dict | None = None) -> None:
    """Reject a grade a metric cannot score, naming its query: one outside [0, r_max], or,
    when a ``relevance_map`` names the grades, one the map leaves out."""
    for inst in instances:
        for item, grade in inst.labels.items():
            if relevance_map is not None:
                if grade not in relevance_map:
                    raise ValueError(f"query {inst.query_id}: item {item} has grade {grade}, "
                                     f"which the relevance map {sorted(relevance_map)} lacks")
            elif not 0 <= grade <= r_max:
                raise ValueError(f"query {inst.query_id}: item {item} has grade {grade} "
                                 f"outside [0, {r_max}]")


@dataclass
class DatasetSplit:
    train: list[Instance] = field(default_factory=list)
    validation: list[Instance] = field(default_factory=list)
    test: list[Instance] = field(default_factory=list)
    kept_users: int = 0
    dropped_users: int = 0

    def report(self) -> str:
        return (f"kept {self.kept_users} users, dropped {self.dropped_users} "
                f"(log shorter than 30); instances: train {len(self.train)}, "
                f"validation {len(self.validation)}, test {len(self.test)}")


def _instance(log: UserLog, name: str, hist: list[LogItem], cands: list[LogItem],
              feature_dim: int) -> Instance:
    ids = [it.item_id for it in cands]
    if len(set(ids)) != len(ids):
        raise ValueError(f"user {log.user_id}: the {name} candidate window repeats an item id: "
                         f"{ids}")
    return Instance(
        query_id=f"{log.user_id}:{name}",
        ctx=UserContext(log.profile, [it.features for it in hist], feature_dim=feature_dim),
        cands=CandidateSet((it.item_id, it.features) for it in cands),
        labels={it.item_id: it.grade for it in cands},
    )


def temporal_split(user_logs: list[UserLog]) -> DatasetSplit:
    """Index-arithmetic split on the time axis; drops users with T < 30."""
    split = DatasetSplit()
    for log in user_logs:
        t = len(log.items)
        if t < 30:
            split.dropped_users += 1
            continue
        split.kept_users += 1
        fdim = log.items[0].features.shape[0]
        it = log.items
        split.train.append(_instance(log, "train", it[: t - 30], it[t - 30 : t - 20], fdim))
        split.validation.append(_instance(log, "val", it[: t - 20], it[t - 20 : t - 10], fdim))
        split.test.append(_instance(log, "test", it[: t - 10], it[t - 10 : t], fdim))
    return split


# ---------------------------------------------------------------- synthetic


def slate_grades(taste: np.ndarray, features: np.ndarray, context_strength: float,
                 r_max: int = 4) -> np.ndarray:
    """Grades for one slate: taste-feature affinity minus a saturation penalty.

    Base relevance is the affinity taste . x mapped onto the grade scale.
    The contextual term penalizes an item that closely resembles a
    strictly-better slate mate (similarity above 0.85): showing two
    near-duplicates adds little, so the weaker one loses grades. With
    ``context_strength`` 0 the grade depends on (taste, item) alone.
    """
    affinity = features @ taste
    n = features.shape[0]
    penalty = np.zeros(n)
    if context_strength > 0.0 and n > 1:
        sims = features @ features.T
        for d in range(n):
            better = affinity > affinity[d]
            if better.any():
                sat = max(0.0, float(sims[d, better].max()) - 0.85) / 0.15
                penalty[d] = sat
    score = affinity - 0.45 * context_strength * penalty
    return np.clip(np.floor(score / 0.75 * (r_max + 1)), 0, r_max).astype(int)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / max(float(np.linalg.norm(v)), 1e-12)


def _taste_mix(taste: np.ndarray, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Unit vector at affinity ~alpha to taste, noise in the orthogonal complement."""
    g = rng.normal(size=taste.shape[0])
    g -= (g @ taste) * taste
    return _unit(alpha * taste + np.sqrt(max(1e-12, 1.0 - alpha * alpha)) * _unit(g))


def generate_synthetic(n_users: int, history_len: int = 10, n_candidates: int = 10,
                       feature_dim: int = 8, context_strength: float = 1.0,
                       seed: int = 0, r_max: int = 4) -> list[UserLog]:
    """Synthetic browse logs whose slate grades reward context-aware rankers.

    Each user gets ``history_len`` taste-correlated browsed items followed by
    three candidate slates (train/validation/test windows), sized so the
    temporal split consumes them exactly when ``n_candidates`` is 10. Slate
    items cluster around a few prototypes, so near-duplicate mates exist and
    the saturation penalty has something to bite on.
    """
    if n_users <= 0 or history_len < 0 or n_candidates <= 0 or feature_dim <= 1:
        raise ValueError("sizes must be positive (feature_dim at least 2)")
    rng = np.random.default_rng(seed)
    logs = []
    for u in range(n_users):
        taste = _unit(rng.normal(size=feature_dim))
        profile = taste + 0.1 * rng.normal(size=feature_dim)
        items: list[LogItem] = []
        next_id = u * 1_000_000
        for _ in range(history_len):
            x = _taste_mix(taste, rng.uniform(0.3, 0.9), rng)
            grade = int(slate_grades(taste, x[None, :], 0.0, r_max)[0])
            items.append(LogItem(next_id, x, grade))
            next_id += 1
        for _slate in range(3):
            n_proto = max(2, n_candidates // 2)
            protos = [_taste_mix(taste, rng.uniform(0.0, 0.8), rng) for _ in range(n_proto)]
            feats = np.stack([
                _unit(protos[int(rng.integers(n_proto))] + 0.1 * rng.normal(size=feature_dim))
                for _ in range(n_candidates)
            ])
            grades = slate_grades(taste, feats, context_strength, r_max)
            for k in range(n_candidates):
                items.append(LogItem(next_id, feats[k], int(grades[k])))
                next_id += 1
        logs.append(UserLog(user_id=u, profile=profile, items=items))
    return logs


# ------------------------------------------------------------------ file IO


def _fmt_floats(v: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in v)


def _fmt_item(it: LogItem) -> str:
    return f"{it.item_id}:{it.grade}:{_fmt_floats(it.features)}"


def _parse_floats(text: str, where: str, what: str) -> np.ndarray:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None
    if not all(map(math.isfinite, values)):  # a fifth of np.isfinite's cost on short rows
        raise ParseError(f"{where}: non-finite {what} value in {text[:40]!r}")
    return np.array(values)


def _parse_item(tok: str, where: str) -> LogItem:
    parts = tok.split(":")
    if len(parts) != 3:
        raise ParseError(f"{where}: malformed item record {tok[:40]!r}")
    try:
        item_id, grade = int(parts[0]), int(parts[1])
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None
    if grade < 0:
        raise ParseError(f"{where}: negative grade {grade} for item {item_id}")
    return LogItem(item_id, _parse_floats(parts[2], where, "feature"), grade)


def _parse_items(field: str, where: str) -> list[LogItem]:
    return [_parse_item(tok, where) for tok in field.split(";") if tok]


def _check_feature_dims(items: list[LogItem], where: str) -> None:
    dims = sorted({it.features.shape[0] for it in items})
    if len(dims) > 1:
        raise ParseError(f"{where}: feature vectors of different lengths {dims}")


def write_dataset(logs: list[UserLog], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for log in logs:
            items = ";".join(_fmt_item(it) for it in log.items)
            fh.write(f"{log.user_id}|{_fmt_floats(log.profile)}|{items}\n")


def _records(path, n_fields: int):
    """(``file:line``, its '|' fields) for every non-empty line of a record file."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            fields = line.split("|")
            if len(fields) != n_fields:
                raise ParseError(f"{where}: expected {n_fields} '|' fields, got {len(fields)}")
            yield where, fields


def read_dataset(path) -> list[UserLog]:
    logs = []
    for where, fields in _records(path, 3):
        try:
            uid = int(fields[0])
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None
        profile = _parse_floats(fields[1], where, "profile")
        items = _parse_items(fields[2], where)
        _check_feature_dims(items, where)
        logs.append(UserLog(uid, profile, items))
    return logs


def write_instances(instances: list[Instance], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for inst in instances:
            hist = ";".join(
                f"0:0:{_fmt_floats(row)}" for row in inst.ctx.history)
            cands = ";".join(
                f"{i}:{inst.labels[i]}:{_fmt_floats(inst.cands.features[k])}"
                for k, i in enumerate(inst.cands.ids))
            oracle = ",".join(str(i) for i in inst.oracle) if inst.oracle else ""
            fh.write(f"{inst.query_id}|{_fmt_floats(inst.ctx.profile)}|{hist}|{cands}|{oracle}\n")


def read_instances(path) -> list[Instance]:
    out = []
    for where, fields in _records(path, 5):
        profile = _parse_floats(fields[1], where, "profile")
        hist_items = _parse_items(fields[2], where)
        cand_items = _parse_items(fields[3], where)
        if not cand_items:
            raise ParseError(f"{where}: instance has no candidate items")
        _check_feature_dims(hist_items + cand_items, where)
        labels = {it.item_id: it.grade for it in cand_items}
        if len(labels) != len(cand_items):
            raise ParseError(f"{where}: duplicate candidate item ids")
        inst = Instance(
            query_id=fields[0],
            ctx=UserContext(profile, [it.features for it in hist_items],
                            feature_dim=cand_items[0].features.shape[0]),
            cands=CandidateSet((it.item_id, it.features) for it in cand_items),
            labels=labels,
        )
        if fields[4]:
            try:
                inst.oracle = Permutation([int(x) for x in fields[4].split(",")])
                inst.oracle.validate_against(labels)
            except ValueError as e:
                raise ParseError(f"{where}: oracle: {e}") from None
        out.append(inst)
    return out


def read_key_values(path) -> dict[str, tuple[str, int]]:
    """Flat ``key = value`` file as {key: (raw value, line number)}; '#' starts a comment,
    a repeated key keeps its last value."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = (raw, lineno)
    return values


def parse_value(path, values: dict[str, tuple[str, int]], key: str, parse):
    """``parse`` of a key's raw value; its ValueError becomes a ParseError naming the line."""
    raw, lineno = values[key]
    try:
        return parse(raw)
    except ValueError as e:
        raise ParseError(f"{path}:{lineno}: {key}: {e}") from None


def oracle_seed(master_seed: int, metric_key: str, query_id: str) -> int:
    """Stable per-(metric, instance) tie-break seed derived from the master seed.

    Scoping the stream by metric makes differently-supervised runs draw
    independent samples from their (often identical) maximizer tie sets.
    """
    digest = hashlib.sha256(f"{master_seed}|{metric_key}|{query_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
