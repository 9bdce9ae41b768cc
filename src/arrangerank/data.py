"""Datasets: user browse logs, temporal splitting, synthetic generation, file IO.

Log file format (one user per line, '|' separated fields)::

    user_id|p1,p2,...|item_id:grade:f1,f2,...;item_id:grade:f1,...

Split instance files use the same item syntax::

    query_id|p1,p2,...|<history items or empty>|<candidate items>|<oracle ids or empty>

Floats are written with ``repr`` (shortest round-trip), so write-then-read
reproduces values exactly. A user's three split instances share one memo of
row texts keyed by the rows' exact bytes: ``read_dataset`` fills it with each
row's text as read, and any other row is formatted once, by ``repr``.

The temporal split takes the last 30 log positions of every user with at
least 30 entries: candidates are positions T-29..T-20 for training (history
1..T-30), T-19..T-10 for validation (history 1..T-20) and T-9..T for test
(history 1..T-10), keeping original browse order throughout. Shorter logs
are dropped and counted.

The generator runs in two phases: one loop makes every draw of every user, in a fixed order,
into ``(users, ...)`` arrays, and then all users' vectors and grades are computed at once.
"""
from __future__ import annotations

import hashlib
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
    row_text: dict | None = field(default=None, repr=False, compare=False)  # row bytes -> text


@dataclass
class Instance:
    """One ranking task: a user context, a candidate slate and its labels."""

    query_id: str
    ctx: UserContext
    cands: CandidateSet
    labels: dict[int, int]
    oracle: Permutation | None = None
    row_text: dict | None = field(default=None, repr=False, compare=False)  # row bytes -> text


def check_grades(instances, r_max: int, relevance_map: dict | None = None) -> None:
    """Reject a grade a metric cannot score, naming its query: one outside [0, r_max], or,
    when a ``relevance_map`` names the grades, one the map leaves out. Without a map, ``r_max``
    must be at least 1."""
    if relevance_map is None and r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
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


def temporal_split(user_logs: list[UserLog]) -> DatasetSplit:
    """Index-arithmetic split on the time axis; drops users with T < 30."""
    split = DatasetSplit()
    for log in user_logs:
        t = len(log.items)
        if t < 30:
            split.dropped_users += 1
            continue
        split.kept_users += 1
        feats = np.array([it.features for it in log.items], dtype=np.float64)  # instances slice it
        row_text = {} if log.row_text is None else log.row_text
        for part, name, start in ((split.train, "train", t - 30),
                                  (split.validation, "val", t - 20), (split.test, "test", t - 10)):
            window = log.items[start:start + 10]
            ids = [it.item_id for it in window]
            if len(set(ids)) != len(ids):
                raise ValueError(f"user {log.user_id}: the {name} candidate window repeats an "
                                 f"item id: {ids}")
            part.append(Instance(
                query_id=f"{log.user_id}:{name}",
                ctx=UserContext(log.profile, feats[:start], feature_dim=feats.shape[1]),
                cands=CandidateSet.from_rows(ids, feats[start:start + 10]),
                labels={it.item_id: it.grade for it in window}, row_text=row_text))
    return split


# ---------------------------------------------------------------- synthetic


# Slates whose gram matrices slate_grades holds at once (256 users' three slates)
GRAM_CHUNK = 768


def slate_grades(taste: np.ndarray, features: np.ndarray, context_strength: float,
                 r_max: int = 4) -> np.ndarray:
    """Grades of slates ``(..., n, d)`` for tastes ``(..., d)`` broadcast over their leading
    axes (one ``(n, d)`` slate is a batch of one): the affinity taste . x on the grade scale,
    minus a saturation penalty for an item that closely resembles a strictly-better slate
    mate (similarity above 0.85): showing two near-duplicates adds little, so the weaker one
    loses grades. With ``context_strength`` 0 the grade depends on (taste, item) alone."""
    score = (features @ taste[..., None])[..., 0]
    n, dim = features.shape[-2:]
    if context_strength > 0.0 and n > 1:
        # item d: the closest strictly-better mate's similarity, -inf when none is better
        slates = np.broadcast_to(features, score.shape + (dim,)).reshape(-1, n, dim)
        rows = score.reshape(-1, n)
        closest = np.empty(rows.shape)
        for a in range(0, len(rows), GRAM_CHUNK):
            x, s = slates[a:a + GRAM_CHUNK], rows[a:a + GRAM_CHUNK]
            gram = x @ x.swapaxes(-1, -2)  # masked in place: no second (chunk, n, n)
            np.copyto(gram, -np.inf, where=s[:, None, :] <= s[:, :, None])
            closest[a:a + GRAM_CHUNK] = gram.max(axis=-1)
            del gram  # freed before the next chunk's product, so one gram is held at a time
        closest = closest.reshape(score.shape)
        score = score - 0.45 * context_strength * (np.maximum(closest - 0.85, 0.0) / 0.15)
    return np.clip(np.floor(score / 0.75 * (r_max + 1)), 0, r_max).astype(int)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Each row over its norm, floored at 1e-12: np.linalg.norm's 1-D sqrt(x . x), stacked."""
    return m / np.maximum(np.sqrt((m[..., None, :] @ m[..., :, None])[..., 0]), 1e-12)


def _taste_mix(taste: np.ndarray, alpha: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit rows at affinity ~alpha to the unit taste, each noise row g made orthogonal to it."""
    g = g - (g[..., None, :] @ taste[..., None])[..., 0] * taste
    mix = alpha * taste + np.sqrt(np.maximum(1e-12, 1.0 - alpha * alpha)) * _unit_rows(g)
    return _unit_rows(mix)


def generate_synthetic(n_users: int, history_len: int = 10, n_candidates: int = 10,
                       feature_dim: int = 8, context_strength: float = 1.0,
                       seed: int = 0, r_max: int = 4) -> list[UserLog]:
    """Synthetic browse logs whose slate grades reward context-aware rankers.

    Each user gets ``history_len`` taste-correlated browsed items followed by three candidate
    slates (train/validation/test windows), sized so the temporal split consumes them exactly
    when ``n_candidates`` is 10. Slate items cluster around a few prototypes, so near-duplicate
    mates exist and the saturation penalty (scaled by ``context_strength``, finite and >= 0)
    has something to bite on. It draws for every user first, then computes (module docstring)."""
    if n_users <= 0 or history_len < 0 or n_candidates <= 0 or feature_dim <= 1:
        raise ValueError("sizes must be positive (feature_dim at least 2)")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if not 0.0 <= context_strength < np.inf:
        raise ValueError(f"context_strength must be finite and >= 0, got {context_strength}")
    rng = np.random.default_rng(seed)
    random, normal, integers = rng.random, rng.standard_normal, rng.integers
    n_proto, dim, h = max(2, n_candidates // 2), feature_dim, history_len
    slots = (n_users, 3, n_candidates)
    taste, profile = np.empty((n_users, 1, dim)), np.empty((n_users, dim))
    alpha, g = np.empty((n_users, h + 3 * n_proto)), np.empty((n_users, h + 3 * n_proto, dim))
    picks, noise = np.empty(slots, dtype=int), np.empty(slots + (dim,))
    for u in range(n_users):  # mixed vectors: the history, then each slate's prototypes
        normal(out=taste[u])
        normal(out=profile[u])
        for k in range(h):
            alpha[u, k] = 0.3 + (0.9 - 0.3) * random()  # rng.uniform(0.3, 0.9)'s arithmetic
            normal(out=g[u, k])
        for s in range(3):
            for k in range(h + s * n_proto, h + (s + 1) * n_proto):
                alpha[u, k] = 0.0 + (0.8 - 0.0) * random()  # rng.uniform(0.0, 0.8)
                normal(out=g[u, k])
            for k in range(n_candidates):
                picks[u, s, k] = integers(n_proto)
                normal(out=noise[u, s, k])
    taste = _unit_rows(taste)
    profile = taste[:, 0] + 0.1 * profile
    mixed = _taste_mix(taste, alpha[..., None], g)
    protos = mixed[:, h:].reshape(n_users, 3, n_proto, dim)
    slates = _unit_rows(np.take_along_axis(protos, picks[..., None], axis=2) + 0.1 * noise)
    feats = np.concatenate([mixed[:, :h], slates.reshape(n_users, -1, dim)], axis=1)
    grades = np.concatenate([  # a browsed item is graded as a one-item slate
        slate_grades(taste, mixed[:, :h, None], context_strength, r_max)[..., 0],
        slate_grades(taste, slates, context_strength, r_max).reshape(n_users, -1)], axis=1)
    return [UserLog(u, profile[u], [LogItem(u * 1_000_000 + k, x, grade)
                                    for k, (x, grade) in enumerate(zip(xs, gs))])
            for u, (xs, gs) in enumerate(zip(feats, grades.tolist()))]


# ------------------------------------------------------------------ file IO


def _rows(matrix, memo: dict | None = None) -> list[str]:
    """Each row of a float matrix as the shortest round-trip ``repr`` of its values. ``memo``
    maps a row's exact bytes (so -0.0 is not 0.0) to its text; a row met before is reused."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    raw, size, memo = m.tobytes(), m.itemsize * m.shape[-1], {} if memo is None else memo
    out = []
    for k, row in enumerate(m.tolist()):
        key = raw[k * size:(k + 1) * size]
        if key not in memo:
            memo[key] = ",".join(map(repr, row))
        out.append(memo[key])
    return out


def _floats(rows: list[str], where: str, what: str) -> np.ndarray:
    """Every value of the comma-separated float ``rows``, flat, from one ``float`` pass. If a
    value is bad, the rows are parsed one by one up to the first bad row, which is named; in
    a row, an unparseable value is reported before a non-finite one."""
    try:
        flat = np.array(list(map(float, ",".join(rows).split(",") if rows else ())))
        if np.isfinite(flat).all():
            return flat
    except ValueError:
        pass
    for row in rows:  # some row holds the bad value, so this scan raises
        try:
            values = list(map(float, row.split(",")))
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None
        if not np.isfinite(values).all():
            raise ParseError(f"{where}: non-finite {what} value in {row[:40]!r}")


def _parse_items(field: str, where: str):
    """Ids, grades, flat feature values and feature texts of a ';'-separated item field."""
    ids, grades, rows = [], [], []
    for tok in filter(None, field.split(";")):
        parts = tok.split(":")
        try:
            if len(parts) != 3:
                raise ValueError(f"malformed item record {tok[:40]!r}")
            ids.append(int(parts[0]))
            grades.append(int(parts[1]))
            if grades[-1] < 0:
                raise ValueError(f"negative grade {grades[-1]} for item {ids[-1]}")
        except ValueError as e:
            _floats(rows, where, "feature")  # a bad value of an earlier item is met first
            raise ParseError(f"{where}: {e}") from None
        rows.append(parts[2])
    return ids, grades, _floats(rows, where, "feature"), rows


def _feature_width(rows: list[str], where: str) -> int:
    dims = sorted({row.count(",") + 1 for row in rows})
    if len(dims) > 1:
        raise ParseError(f"{where}: feature vectors of different lengths {dims}")
    return dims[0] if dims else 0


def _same_widths(first: dict[str, int], where: str, **widths: int) -> None:
    """Reject a line whose profile or feature width differs from the earlier lines of its
    file; a line without items has feature width 0 and sets nothing."""
    for what, width in widths.items():
        if width and first.setdefault(what, width) != width:
            raise ParseError(f"{where}: {what} width {width} differs from {first[what]} "
                             f"earlier in the file")


def write_dataset(logs: list[UserLog], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for log in logs:
            items = ";".join(f"{it.item_id}:{it.grade}:{row}" for it, row in
                             zip(log.items, _rows([it.features for it in log.items])))
            fh.write(f"{log.user_id}|{_rows([log.profile])[0]}|{items}\n")


def _records(path, n_fields: int):
    """(``file:line``, its '|' fields) for every non-empty line of a record file."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            if not line.isascii():  # each undecodable byte arrives as a lone surrogate
                col = next(k for k, ch in enumerate(line) if not ch.isascii())
                raise ParseError(f"{where}: byte {ord(line[col]) - 0xDC00:#x} at column "
                                 f"{col + 1} is not ASCII")
            fields = line.split("|")
            if len(fields) != n_fields:
                raise ParseError(f"{where}: expected {n_fields} '|' fields, got {len(fields)}")
            yield where, fields


def read_dataset(path) -> list[UserLog]:
    logs, first = [], {}
    for where, fields in _records(path, 3):
        try:
            uid = int(fields[0])
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None
        profile = _floats([fields[1]], where, "profile")
        ids, grades, values, rows = _parse_items(fields[2], where)
        feats = values.reshape(len(ids), _feature_width(rows, where))
        _same_widths(first, where, profile=len(profile), feature=feats.shape[1])
        raw, size = feats.tobytes(), feats.itemsize * feats.shape[1]
        row_text = {raw[k * size:(k + 1) * size]: rows[k] for k in reversed(range(len(rows)))}
        row_text.setdefault(profile.tobytes(), fields[1])  # a row's first spelling wins
        logs.append(UserLog(uid, profile, list(map(LogItem, ids, feats, grades)), row_text))
    return logs


def write_instances(instances: list[Instance], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for inst in instances:
            memo = inst.row_text
            hist = ";".join("0:0:" + row for row in _rows(inst.ctx.history, memo))
            cands = ";".join(f"{i}:{inst.labels[i]}:{row}" for i, row in
                             zip(inst.cands.ids, _rows(inst.cands.features, memo)))
            oracle = ",".join(str(i) for i in inst.oracle) if inst.oracle else ""
            profile = _rows([inst.ctx.profile], memo)[0]
            fh.write(f"{inst.query_id}|{profile}|{hist}|{cands}|{oracle}\n")


def read_instances(path) -> list[Instance]:
    out, first = [], {}
    for where, fields in _records(path, 5):
        profile = _floats([fields[1]], where, "profile")
        _, _, hist, hist_rows = _parse_items(fields[2], where)
        ids, grades, feats, rows = _parse_items(fields[3], where)
        if not ids:
            raise ParseError(f"{where}: instance has no candidate items")
        width = _feature_width(hist_rows + rows, where)
        labels = dict(zip(ids, grades))
        if len(labels) != len(ids):
            raise ParseError(f"{where}: duplicate candidate item ids")
        inst = Instance(
            query_id=fields[0],
            ctx=UserContext(profile, hist.reshape(-1, width), feature_dim=width),
            cands=CandidateSet.from_rows(ids, feats.reshape(-1, width)),
            labels=labels,
        )
        if fields[4]:
            try:
                inst.oracle = Permutation([int(x) for x in fields[4].split(",")])
                inst.oracle.validate_against(labels)
            except ValueError as e:
                raise ParseError(f"{where}: oracle: {e}") from None
        _same_widths(first, where, profile=len(profile), feature=width)
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
