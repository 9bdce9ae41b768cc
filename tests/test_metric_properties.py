"""Property tests: the grouped metric rows against the per-instance metrics they replaced.

``score_rankings`` scores a whole group of served lists as arrays, and ``r_ndcg``
and ``r_cm`` are that code on a batch of one. The references
below are the per-instance bodies the grouped path replaced. N@K, M@K and
the position-based clicks are elementwise products, row dots and in-order
sums, so they must equal the references bit for bit. The browsing-model
clicks take their examination sums from the shared ``_browse_step`` gemv,
which the references take from a 1-D dot, so those may differ in low bits.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import arrangerank.clickmodels as cm
from arrangerank.clickmodels import (ClickModelSpec, click_rows, examination_prob, ndcg_rows,
                                     r_cm, r_ndcg, relevance_prob, served_grades)
from arrangerank.evaluation import map_rows
from arrangerank.permutation import Permutation

PROPERTY = settings(max_examples=200)
quarter_st = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def _r_cm_reference(pi, labels, spec, k=None):
    """Per-position expected clicks: one examination_prob call per (position, last click)."""
    rel = np.array([relevance_prob(spec, labels[d]) for d in pi])
    n = len(rel)
    kk = n if k is None else min(k, n)
    contribs = []
    if spec.kind == "pbm":
        for i in range(kk):
            contribs.append(examination_prob(spec, i + 1) * rel[i])
    else:
        q = np.zeros(n + 1)  # q[j] = P(last click so far at j)
        q[0] = 1.0
        for i in range(1, kk + 1):
            gam = np.array([examination_prob(spec, i, j) for j in range(i)])
            click = float(q[:i] @ gam) * rel[i - 1]
            contribs.append(click)
            q[:i] *= 1.0 - gam * rel[i - 1]
            q[i] = click
    return float(np.sum(contribs)), contribs


def _r_ndcg_reference(pi, labels, k=None):
    n = len(pi)
    kk = n if k is None else min(k, n)
    discounts = 1.0 / np.log2(np.arange(2, kk + 2))
    gains = np.array([2.0 ** labels[d] - 1.0 for d in pi])[:kk]
    ideal = -np.sort(-np.array([2.0 ** g - 1.0 for g in labels.values()]))[:kk]
    idcg = float(ideal @ discounts)
    if idcg == 0.0:
        return 0.0
    return float(gains @ discounts) / idcg


def _map_at_k_reference(pi, labels, k, threshold):
    rel = [labels[d] >= threshold for d in pi]
    n_rel = sum(1 for g in labels.values() if g >= threshold)
    if n_rel == 0:
        return 0.0
    hits, ap = 0, 0.0
    for i in range(min(k, len(rel))):
        if rel[i]:
            hits += 1
            ap += hits / (i + 1)
    return ap / min(k, n_rel)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


@st.composite
def _spec(draw, n):
    """A default or explicit position-based or browsing user for lists of up to n items."""
    kind, table, rmap = draw(st.sampled_from(["pbm", "ubm"])), None, None
    if draw(st.booleans()):
        cells = draw(st.sampled_from([quarter_st, st.floats(0.0, 1.0)]))
        rows = [draw(st.lists(cells, min_size=n, max_size=n))
                for _ in range(n if kind == "ubm" else 1)]
        table = rows[0] if kind == "pbm" else rows
    if draw(st.booleans()):
        rmap = {g: draw(st.floats(0.0, 1.0)) for g in range(5)}
    return ClickModelSpec(kind=kind, tau=draw(st.floats(0.0, 3.0)), examination_table=table,
                          relevance_map=rmap)


@st.composite
def _group(draw):
    """A group of 1-9 served lists of one slate size 1-12, with a cutoff and a click spec."""
    n, b = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    rows = []
    for _ in range(b):
        ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
        labels = {i: draw(st.integers(0, 4)) for i in ids}
        rows.append((Permutation(draw(st.permutations(ids))), labels))
    return rows, draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(_spec(12))


@PROPERTY
@given(_group())
def test_grouped_rows_equal_their_batch_of_one_and_the_per_instance_references(case):
    rows, k, threshold, spec = case
    grades = served_grades(rows)
    n_rows, m_rows = ndcg_rows(grades, k), map_rows(grades, k, threshold)
    clicks = click_rows(spec, grades, k)
    for r, (pi, labels) in enumerate(rows):
        one = grades[r:r + 1]
        assert _bits(ndcg_rows(one, k)) == _bits(n_rows[r:r + 1])
        assert _bits(map_rows(one, k, threshold)) == _bits(m_rows[r:r + 1])
        assert _bits(click_rows(spec, one, k)) == _bits(clicks[r:r + 1])
        score = r_cm(pi, labels, spec, k)
        assert _bits(score.per_position_contributions) == _bits(clicks[r])
        assert _bits([score.value]) == _bits(clicks[r:r + 1].sum(axis=1))

        assert _bits([r_ndcg(pi, labels, k)]) == _bits([_r_ndcg_reference(pi, labels, k)])
        assert _bits([n_rows[r]]) == _bits([_r_ndcg_reference(pi, labels, k)])
        want = _map_at_k_reference(pi, labels, k, threshold)
        one_ap = map_rows(served_grades([(pi, labels)]), k, threshold)[0]
        assert _bits([one_ap, m_rows[r]]) == _bits([want, want])
        value, contribs = _r_cm_reference(pi, labels, spec, k)
        if spec.kind == "pbm":
            assert _bits(clicks[r]) == _bits(contribs)
            assert _bits([score.value]) == _bits([value])
        else:
            assert np.max(np.abs(clicks[r] - contribs)) <= 1e-12
            assert abs(score.value - value) <= 1e-12


@settings(max_examples=30)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
    st.lists(st.sampled_from([quarter_st, st.floats(0.0, 1.0)]).flatmap(
        lambda cell: st.lists(cell, min_size=n, max_size=n)), min_size=n, max_size=n))))
def test_r_cm_equals_the_enumeration_score_bitwise(case):
    # r_cm and the enumeration oracle run the same browsing-model step, so a served list's
    # r_cm value is the score the enumeration gave its value sequence (in-order sums up to 7 terms)
    grades, table = case
    spec = ClickModelSpec(kind="ubm", examination_table=table)
    labels, distinct = dict(enumerate(grades)), sorted(set(grades))
    values = np.array([relevance_prob(spec, g) for g in distinct])
    [(scores, levels)] = cm._sequence_scores(values, list(map(grades.count, distinct)), spec)
    seqs = cm._walk(levels, np.arange(len(scores)))
    every = slice(None, None, max(1, len(seqs) // 120))  # up to 7! sequences: a spread of them
    got = []
    for seq in seqs[every].tolist():  # one id arrangement with that value sequence
        ids = [[i for i, g in enumerate(grades) if g == d] for d in distinct]
        got.append(r_cm(Permutation([ids[k].pop() for k in seq]), labels, spec).value)
    assert _bits(got) == _bits(scores[every])
