import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangerank.clickmodels import (ClickModelSpec, EnumerationCapError, OrderingError,
                                     examination_prob, metric_fingerprint,
                                     ndcg_reduction_check, oracle_permutation,
                                     oracle_position_groups, r_cm, r_ndcg, relevance_prob)
from arrangerank.permutation import BijectionError, Permutation


def _pbm(tau=1.0, **kw):
    return ClickModelSpec(kind="pbm", tau=tau, **kw)


def _ubm(tau=1.0, **kw):
    return ClickModelSpec(kind="ubm", tau=tau, **kw)


def _ubm_exhaustive(pi, labels, spec, k=None):
    """Expected clicks by brute-force summation over all click histories."""
    rel = [relevance_prob(spec, labels[d]) for d in pi]
    n = len(rel) if k is None else min(k, len(rel))
    total = 0.0
    contribs = []
    for i in range(1, n + 1):
        # enumerate click outcomes of positions 1..i-1
        p_click_i = 0.0
        for hist in itertools.product([0, 1], repeat=i - 1):
            p_hist = 1.0
            last = 0
            for j, clicked in enumerate(hist, start=1):
                e = examination_prob(spec, j, last)
                p = e * rel[j - 1]
                p_hist *= p if clicked else 1.0 - p
                if clicked:
                    last = j
            p_click_i += p_hist * examination_prob(spec, i, last) * rel[i - 1]
        contribs.append(p_click_i)
        total += p_click_i
    return total, contribs


# ------------------------------------------------------------- examination


def test_examination_pbm_defaults():
    assert examination_prob(_pbm(tau=0.0), 5) == 1.0
    assert examination_prob(_pbm(tau=1.0), 2) == 0.5
    assert examination_prob(_pbm(tau=2.0), 2) == 0.25


def test_examination_ubm_defaults():
    assert examination_prob(_ubm(), 3, 2) == 1.0
    assert examination_prob(_ubm(), 3, 1) == 0.5
    assert examination_prob(_ubm(), 3, 0) == 1 / 3


def test_examination_ordering_error():
    with pytest.raises(OrderingError):
        examination_prob(_ubm(), 3, 3)
    with pytest.raises(OrderingError):
        examination_prob(_ubm(), 2, 5)
    with pytest.raises(ValueError):
        examination_prob(_pbm(), 0)


def test_examination_explicit_tables():
    spec = _pbm(examination_table=[1.0, 0.8, 0.1])
    assert examination_prob(spec, 2) == 0.8
    with pytest.raises(ValueError):
        examination_prob(spec, 4)
    table = np.zeros((3, 3))
    table[2, 1] = 0.7
    spec = _ubm(examination_table=table)
    assert examination_prob(spec, 3, 1) == 0.7
    with pytest.raises(ValueError, match=r"no entry for \(4, 1\)"):
        examination_prob(spec, 4, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        ClickModelSpec(kind="cascade")
    with pytest.raises(ValueError):
        _pbm(tau=-1.0)
    with pytest.raises(ValueError):
        _pbm(tau=float("nan"))
    with pytest.raises(ValueError):
        _pbm(examination_table=[1.0, 1.5])
    with pytest.raises(ValueError):
        _ubm(examination_table=[[1.0, 0.0], [float("nan"), 0.5]])
    with pytest.raises(ValueError):
        _pbm(relevance_map={0: -0.1})
    with pytest.raises(ValueError, match="ubm examination table must be 2-D"):
        _ubm(examination_table=[1.0, 0.5])


# --------------------------------------------------------------- relevance


def test_relevance_defaults_and_overrides():
    assert relevance_prob(_pbm(), 0) == 0.0
    assert relevance_prob(_pbm(), 4) == 1.0
    assert relevance_prob(_pbm(), 2) == 3 / 15
    spec = _pbm(relevance_map={0: 0.1, 1: 0.9})
    assert relevance_prob(spec, 1) == 0.9
    with pytest.raises(ValueError):
        relevance_prob(spec, 2)
    with pytest.raises(ValueError, match=r"grade 5 outside \[0, 4\]"):
        relevance_prob(_pbm(), 5)


# ------------------------------------------------------------------- r_cm


def test_r_cm_pbm_hand_evaluation():
    labels = {0: 4, 1: 0}  # relevance probs 1.0 and 0.0
    assert r_cm(Permutation([0, 1]), labels, _pbm()).value == 1.0
    assert r_cm(Permutation([1, 0]), labels, _pbm()).value == 0.5


def test_r_cm_zero_labels_and_bijection():
    labels = {0: 0, 1: 0, 2: 0}
    assert r_cm(Permutation([2, 0, 1]), labels, _pbm()).value == 0.0
    with pytest.raises(BijectionError):
        r_cm(Permutation([0, 1]), labels, _pbm())


def test_r_cm_value_equals_contribution_sum():
    rng = np.random.default_rng(0)
    for case in range(20):
        n = int(rng.integers(1, 8))
        labels = {i: int(rng.integers(0, 5)) for i in range(n)}
        pi = Permutation(rng.permutation(n).tolist())
        spec = _ubm(tau=float(rng.uniform(0.2, 2.0))) if case % 2 else _pbm()
        score = r_cm(pi, labels, spec)
        assert abs(score.value - sum(score.per_position_contributions)) < 1e-12


def test_r_cm_ubm_matches_exhaustive_histories():
    rng = np.random.default_rng(1)
    for case in range(30):
        n = int(rng.integers(2, 9))
        labels = {i: int(rng.integers(0, 5)) for i in range(n)}
        pi = Permutation(rng.permutation(n).tolist())
        spec = _ubm(tau=float(rng.uniform(0.3, 2.0)))
        got = r_cm(pi, labels, spec)
        want, want_contribs = _ubm_exhaustive(pi, labels, spec)
        assert abs(got.value - want) < 1e-10
        assert np.allclose(got.per_position_contributions, want_contribs, atol=1e-10)


def test_r_cm_pbm_adjacent_swap_monotone():
    # moving the better item earlier never hurts under strictly decreasing examination
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        labels = {i: int(rng.integers(0, 5)) for i in range(n)}
        order = rng.permutation(n).tolist()
        i = int(rng.integers(0, n - 1))
        base = r_cm(Permutation(order), labels, _pbm()).value
        if labels[order[i]] < labels[order[i + 1]]:
            swapped = list(order)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert r_cm(Permutation(swapped), labels, _pbm()).value >= base - 1e-15


# ------------------------------------------------------------------ r_ndcg


def test_r_ndcg_examples():
    labels = {0: 0, 1: 3}
    got = r_ndcg(Permutation([0, 1]), labels, 2)
    assert abs(got - (7 / np.log2(3)) / 7.0) < 1e-9
    assert abs(got - 0.6309) < 1e-4
    assert r_ndcg(Permutation([1, 0]), labels, 2) == 1.0
    labels = {i: 2 for i in range(5)}
    for order in itertools.permutations(range(5), 5):
        assert r_ndcg(Permutation(order), labels) == 1.0
        break
    assert r_ndcg(Permutation([0, 1]), {0: 0, 1: 0}) == 0.0


def test_r_ndcg_truncation():
    labels = {0: 4, 1: 3, 2: 2, 3: 1}
    pi = Permutation([3, 2, 1, 0])
    full = r_ndcg(pi, labels)
    at2 = r_ndcg(pi, labels, 2)
    assert 0.0 < at2 < full < 1.0


# ------------------------------------------------------- reduction identity


def test_ndcg_reduction_identity_small():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        labels = {i: int(rng.integers(0, 5)) for i in range(n)}
        pi = Permutation(rng.permutation(n).tolist())
        ndcg, rcm = ndcg_reduction_check(pi, labels)
        assert abs(ndcg - rcm) < 1e-12


def test_ndcg_reduction_degenerate_cases():
    assert ndcg_reduction_check(Permutation([0, 1]), {0: 0, 1: 0}) == (0.0, 0.0)
    ndcg, rcm = ndcg_reduction_check(Permutation([0]), {0: 3})
    assert ndcg == 1.0 and abs(rcm - 1.0) < 1e-12


# ------------------------------------------------------------------ oracle


def _enum_best(labels, metric):
    ids = sorted(labels)
    best, arg = -np.inf, None
    for order in itertools.permutations(ids):
        pi = Permutation(order)
        v = r_ndcg(pi, labels) if metric == "ndcg" else r_cm(pi, labels, metric).value
        if v > best:
            best, arg = v, pi
    return best, arg


def _metric_value(pi, labels, metric):
    return r_ndcg(pi, labels) if metric == "ndcg" else r_cm(pi, labels, metric).value


def _exact_scores(labels, metric):
    """Every arrangement of the sorted ids, in lexicographic order, with its score computed
    exactly in Fractions of the float weights and values the metric uses."""
    ids = sorted(labels)
    n = len(ids)
    if metric == "ndcg":
        value = {i: Fraction(2.0 ** labels[i] - 1.0) for i in ids}
        weights = [Fraction(w) for w in (1.0 / np.log2(np.arange(2, n + 2))).tolist()]
    else:
        value = {i: Fraction(relevance_prob(metric, labels[i])) for i in ids}
        weights = [Fraction(examination_prob(metric, p)) for p in range(1, n + 1)] \
            if metric.kind == "pbm" else None
        gams = [[Fraction(examination_prob(metric, i, j)) for j in range(i)]
                for i in range(1, n + 1)]
    for row in itertools.permutations(ids):
        if weights is not None:
            yield row, sum(w * value[i] for w, i in zip(weights, row))
            continue
        q, score = [Fraction(1)], Fraction(0)  # the browsing DP over the last-click position
        for gam, i in zip(gams, row):
            click = sum(a * g for a, g in zip(q, gam)) * value[i]
            score += click
            q = [a * (1 - g * value[i]) for a, g in zip(q, gam)] + [click]
        yield row, score


def _exact_oracle(labels, metric, seed):
    """Reference (pick, tie sets): the exact maximizers kept in lexicographic order, and
    ``rows[default_rng(seed).integers(len(rows))]`` as the pick."""
    best, rows = None, []
    for row, score in _exact_scores(labels, metric):
        if best is None or score > best:
            best, rows = score, []
        if score == best:
            rows.append(row)
    return rows[np.random.default_rng(seed).integers(len(rows))], [set(c) for c in zip(*rows)]


def _oracle(labels, metric, seed):
    return oracle_permutation(labels, metric, seed).order, oracle_position_groups(labels, metric)


def test_oracle_pbm_example_label_descending():
    labels = {0: 1, 1: 3, 2: 2}
    pi = oracle_permutation(labels, _pbm(), seed=0)
    assert pi.order == (1, 2, 0)
    best, _ = _enum_best(labels, _pbm())
    assert abs(_metric_value(pi, labels, _pbm()) - best) < 1e-12


def test_oracle_matches_enumeration_across_metrics():
    rng = np.random.default_rng(4)
    for case in range(60):
        n = int(rng.integers(2, 7))
        labels = {i: int(rng.integers(0, 5)) for i in range(n)}
        metric = ["ndcg", _pbm(), _ubm(), _pbm(tau=1.7), _ubm(tau=0.4)][case % 5]
        pi = oracle_permutation(labels, metric, seed=case)
        best, _ = _enum_best(labels, metric)
        got = _metric_value(pi, labels, metric)
        assert got >= best - 1e-12, f"{metric}: {got} < {best}"
        grades = [labels[d] for d in pi]
        assert grades == sorted(grades, reverse=True)


def test_oracle_total_tie_reproducible_and_uniformish():
    labels = {i: 2 for i in range(4)}
    a = oracle_permutation(labels, "ndcg", seed=5)
    b = oracle_permutation(labels, "ndcg", seed=5)
    assert a.order == b.order
    seen = {oracle_permutation(labels, "ndcg", seed=s).order for s in range(200)}
    assert len(seen) == 24  # every arrangement is reachable


def test_oracle_sorting_route_equals_enumeration_route():
    # same seed, same metric: the closed-form route must reproduce the exact
    # enumeration's tie pick, not just its metric value, and its tie sets
    rng = np.random.default_rng(6)
    for case in range(60):
        n = int(rng.integers(2, 6))
        labels = {i: int(rng.integers(0, 3)) for i in range(n)}
        metric = ["ndcg", _pbm(), _ubm()][case % 3]
        want = _exact_oracle(labels, metric, case)
        assert _oracle(labels, metric, case) == want, (labels, metric)


def test_oracle_cap_error_suggests_fallback():
    rng = np.random.default_rng(11)
    labels = {i: int(i % 5) for i in range(11)}
    with pytest.raises(EnumerationCapError, match="greedy"):
        oracle_permutation(labels, _ubm(examination_table=rng.random((11, 11))), seed=0)


def test_oracle_ties_are_decided_by_single_weights_and_values():
    # summing whole arrangements in floats split positions 4-5 into {3} and {4}
    spec = _pbm(examination_table=[0.7, 0.7, 0.7, 0.9, 0.9])
    labels = {0: 2, 1: 0, 2: 1, 3: 3, 4: 4}
    assert oracle_position_groups(labels, spec) == [{0, 1, 2}] * 3 + [{3, 4}] * 2
    for seed in range(20):
        assert _oracle(labels, spec, seed) == _exact_oracle(labels, spec, seed)


@pytest.mark.parametrize("n", [11, 40])
def test_oracle_tied_non_monotone_tables_beyond_the_enumeration_cap(n):
    # n // 2 weights, each on two shuffled positions, and distinct values: 2^(n // 2) maximizers
    rng = np.random.default_rng(n)
    table = rng.permutation([k / 23 for k in range(1, n // 2 + 1)] * 2 + [0.3] * (n % 2))
    spec = _pbm(examination_table=table, relevance_map={g: g / 41 for g in range(n)})
    labels = {3 * i: i for i in range(n)}
    value = {i: Fraction(spec.relevance_map[g]) for i, g in labels.items()}
    optimum = sum(Fraction(w) * v for w, v in zip(sorted(table), sorted(value.values())))
    groups = oracle_position_groups(labels, spec)
    for seed in range(5):
        pi = oracle_permutation(labels, spec, seed)
        assert pi.order == oracle_permutation(labels, spec, seed).order
        assert sum(Fraction(w) * value[i] for w, i in zip(table, pi)) == optimum
        assert all(i in g for i, g in zip(pi, groups))
    assert [len(g) for g in groups].count(2) == 2 * (n // 2)


def test_oracle_non_monotone_table_puts_the_best_item_on_the_heaviest_position():
    # best item must land on the highest-weight position, not position 1
    spec = _pbm(examination_table=[0.2, 1.0, 0.1])
    labels = {0: 4, 1: 1, 2: 0}
    pi = oracle_permutation(labels, spec, seed=0)
    assert pi.order[1] == 0
    best, _ = _enum_best(labels, spec)
    assert abs(_metric_value(pi, labels, spec) - best) < 1e-12


def test_oracle_seed_scoping_changes_tie_choice_across_metrics():
    labels = {i: g for i, g in enumerate([3, 3, 2, 2, 1, 0])}
    from arrangerank.data import oracle_seed
    s_ndcg = oracle_seed(0, metric_fingerprint("ndcg"), "q")
    s_pbm = oracle_seed(0, metric_fingerprint(_pbm()), "q")
    assert s_ndcg != s_pbm
    pis = {oracle_permutation(labels, "ndcg", s).order for s in (s_ndcg, s_pbm)}
    assert len(pis) == 2  # tie sets coincide but the draws differ


def test_oracle_position_groups():
    labels = {0: 3, 1: 3, 2: 1}
    groups = oracle_position_groups(labels, "ndcg")
    assert groups == [{0, 1}, {0, 1}, {2}]
    groups = oracle_position_groups({0: 2, 1: 2}, _pbm(tau=0.0))
    assert groups == [{0, 1}, {0, 1}]
    spec = _pbm(examination_table=[0.2, 1.0, 0.1])
    groups = oracle_position_groups({0: 4, 1: 1, 2: 0}, spec)
    assert groups[1] == {0}


def test_oracle_empty_label_set_raises_value_error():
    for metric in ("ndcg", _pbm(), _ubm()):
        with pytest.raises(ValueError, match="empty candidate set"):
            oracle_permutation({}, metric, seed=0)
        with pytest.raises(ValueError, match="empty candidate set"):
            oracle_position_groups({}, metric)
    with pytest.raises(ValueError, match="metric must be 'ndcg' or a ClickModelSpec"):
        oracle_permutation({0: 1}, "pbm", seed=0)


def test_maximizers_nine_items_match_itertools_reference():
    # reference: 8!-row chunks straight from itertools, keeping every row that ties the
    # running maximum (quarter values keep every float score exact)
    labels = {i: g for i, g in enumerate([4, 4, 2, 2, 2, 1, 0, 3, 3])}
    spec = _pbm(examination_table=[0.5, 1.0, 1.0, 0.25, 0.5, 0.75, 0.75, 0.25, 0.5],
                relevance_map={0: 0.0, 1: 0.25, 2: 0.5, 3: 0.75, 4: 1.0})
    values = np.array([spec.relevance_map[labels[i]] for i in range(9)])
    weights = np.array(spec.examination_table)
    perms = itertools.permutations(range(9))
    best, kept = -np.inf, []
    while block := list(itertools.islice(perms, 40320)):
        idx = np.array(block, dtype=np.int8)
        scores = values[idx] @ weights
        top = float(scores.max())
        if top > best:
            best, kept = top, []
        if top == best:
            kept.append(idx[scores == top])
    want = np.concatenate(kept)
    assert len(want) == 2 * 2 * 6 * 2  # orders of the equal values, times 2 in the 0.25 class
    assert oracle_position_groups(labels, spec) == [set(col.tolist()) for col in want.T]
    for seed in range(10):
        pick = want[np.random.default_rng(seed).integers(len(want))]
        assert oracle_permutation(labels, spec, seed).order == tuple(pick.tolist())


def _per_row_browsing(values, spec):
    """Reference maximizer rows and scores: the browsing-model DP run over the whole prefix of
    every row, in 8!-row blocks straight from itertools: one gemv call per block and position,
    the per-row form the prefix-shared DP must match bit for bit."""
    n = len(values)
    gams = [np.array([examination_prob(spec, i, j) for j in range(i)]) for i in range(1, n + 1)]
    perms = itertools.permutations(range(n))
    best, kept, every = -np.inf, [], []
    while block := list(itertools.islice(perms, 40320)):
        idx = np.array(block, dtype=np.int8)
        rel = values[idx]
        scores = np.zeros(len(idx))
        q = np.zeros((len(idx), n + 1))
        q[:, 0] = 1.0
        for i, gam in enumerate(gams, start=1):
            click = (q[:, :i] @ gam) * rel[:, i - 1]
            scores += click
            q[:, :i] *= 1.0 - gam[None, :] * rel[:, i - 1][:, None]
            q[:, i] = click
        every.append(scores)
        top = float(scores.max())
        if top > best:
            best, kept = top, []
        if top == best:
            kept.append(idx[scores == top])
    return np.concatenate(kept), np.concatenate(every)


def _value_sequence_browsing(values, spec):
    """Every id row's score read off its value sequence in the value-sequence scan, and the id
    rows of the scan's maximizing value sequences, both in itertools order."""
    import arrangerank.clickmodels as cm

    distinct, n = sorted(set(values.tolist())), len(values)
    at = np.searchsorted(distinct, values)
    key = (len(distinct) ** np.arange(n))[::-1]  # a value sequence as a base-V number
    scanned, scores = [], []
    for block, levels in cm._sequence_scores(np.array(distinct), np.bincount(at).tolist(), spec):
        scanned.append(cm._walk(levels, np.arange(len(block))) @ key)
        scores.append(block.copy())  # each block reuses the buffers
    scanned, scores = np.concatenate(scanned), np.concatenate(scores)
    assert np.all(np.diff(scanned) > 0)  # each sequence once, in lexicographic order
    rows = np.array(list(itertools.permutations(range(n))), dtype=np.int8).reshape(-1, n)
    seq = at[rows] @ key
    pools = {v: np.flatnonzero(values == v).tolist() for v in distinct}
    best = cm._maximizers(pools, spec)[2] @ key
    return rows[np.isin(seq, best)], scores[np.searchsorted(scanned, seq)]


def _labelled(values):
    """Labels and a relevance map that give item i the value values[i]."""
    distinct = sorted(set(values.tolist()))
    return ({i: distinct.index(v) for i, v in enumerate(values.tolist())},
            dict(enumerate(distinct)))


_quarter = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_unit = st.floats(0.0, 1.0)


@st.composite
def _browsing_case(draw):
    n = draw(st.integers(1, 8))
    cell, value = (draw(st.sampled_from([_quarter, _unit])) for _ in range(2))
    table = [[draw(cell) for _ in range(n)] for _ in range(n)]  # tied and zero cells, or uniform
    values = np.array([draw(value) for _ in range(n)])
    return values, _ubm(examination_table=table)


@settings(max_examples=120)
@given(_browsing_case())
def test_prefix_shared_browsing_dp_equals_the_per_row_dp_bitwise(case):
    values, spec = case
    want_rows, want_scores = _per_row_browsing(values, spec)
    got_rows, got_scores = _value_sequence_browsing(values, spec)
    assert got_scores.view(np.int64).tolist() == want_scores.view(np.int64).tolist()
    assert np.array_equal(got_rows, want_rows)
    labels, rmap = _labelled(values)
    spec = _ubm(examination_table=spec.examination_table, relevance_map=rmap)
    for seed in range(3):
        pick = want_rows[np.random.default_rng(seed).integers(len(want_rows))]
        assert oracle_permutation(labels, spec, seed).order == tuple(pick.tolist())


@pytest.mark.parametrize("table_seed,n_maximizers", [(0, 24), (1, 1)])
def test_browsing_maximizers_nine_items_match_the_per_row_reference(table_seed, n_maximizers):
    # a quarter-valued table with ties and zeros, then a uniform one; both against the per-row DP
    rng = np.random.default_rng(table_seed)
    if table_seed == 0:
        table = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(9, 9))
        values = np.array([1.0, 1.0, 0.5, 0.5, 0.5, 0.25, 0.0, 0.75, 0.75])
    else:
        table, values = rng.random((9, 9)), rng.random(9)
    want_rows, want_scores = _per_row_browsing(values, _ubm(examination_table=table))
    got_rows, got_scores = _value_sequence_browsing(values, _ubm(examination_table=table))
    assert got_scores.view(np.int64).tolist() == want_scores.view(np.int64).tolist()
    assert np.array_equal(got_rows, want_rows)
    assert len(want_rows) == n_maximizers
    labels, rmap = _labelled(values)
    spec = _ubm(examination_table=table, relevance_map=rmap)
    for seed in range(5):  # the seeded index, unranked by counting, picks the reference's row
        pick = want_rows[np.random.default_rng(seed).integers(len(want_rows))]
        assert oracle_permutation(labels, spec, seed).order == tuple(pick.tolist())


@st.composite
def _quarter_browsing_case(draw):
    labels = draw(st.dictionaries(st.integers(0, 50), st.integers(0, 4), min_size=1, max_size=5))
    table = [[draw(_quarter) for _ in labels] for _ in labels]
    rmap = draw(st.one_of(st.none(), st.fixed_dictionaries({g: _quarter for g in range(5)})))
    return labels, _ubm(examination_table=table, relevance_map=rmap)


@settings(max_examples=80)
@given(_quarter_browsing_case(), st.lists(st.integers(0, 2 ** 32), min_size=3, max_size=3))
def test_browsing_table_oracles_match_the_exact_reference(case, seeds):
    # quarter-valued tables and maps keep every float score exact, so float ties are exact
    # ties; a map may send several grades to one value
    labels, spec = case
    for seed in seeds:
        assert _oracle(labels, spec, seed) == _exact_oracle(labels, spec, seed)


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 4: explicit browsing-table ties are "
                                       "decided on float sums, not exactly")
def test_browsing_table_ties_are_decided_by_exact_scores():
    # exactly, items 0 and 1 tie at positions 1-2; the float sums of the two orders differ
    labels = {0: 3, 1: 1, 2: 0}
    spec = _ubm(examination_table=[[0.9, 0.7, 0.7], [0.9, 0.3, 0.3], [0.3, 0.9, 0.7]])
    assert _oracle(labels, spec, 0) == _exact_oracle(labels, spec, 0)


@pytest.mark.parametrize("counts", [[1] * 9, [2, 2, 2, 2, 2], [2, 2, 2, 2, 1, 1], [3, 1, 6]])
def test_value_sequence_blocks_hold_each_sequence_once_and_at_most_eight_factorial(counts):
    import arrangerank.clickmodels as cm

    n = sum(counts)
    spec = _ubm(examination_table=np.random.default_rng(n).random((n, n)))
    sizes, seen = [], set()
    for scores, levels in cm._sequence_scores(np.linspace(0.1, 0.9, len(counts)), counts, spec):
        sizes.append(len(scores))
        seen.update(map(bytes, cm._walk(levels, np.arange(len(scores)))))
    assert max(sizes) <= math.factorial(8)
    assert sum(sizes) == len(seen) == math.factorial(n) // math.prod(map(math.factorial, counts))
    assert all(np.bincount(np.frombuffer(row, np.int8), minlength=len(counts)).tolist() == counts
               for row in seen)


_sorting_metric_st = st.one_of(
    st.just("ndcg"),
    st.floats(0.05, 5.0).map(lambda tau: _pbm(tau=tau)),
    st.tuples(st.sampled_from(["pbm", "ubm"]), st.floats(0.05, 5.0),
              st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=5, max_size=5))
    .map(lambda c: ClickModelSpec(kind=c[0], tau=c[1],
                                  relevance_map=dict(enumerate(sorted(c[2]))))))


@settings(max_examples=150)
@given(st.dictionaries(st.integers(0, 50), st.integers(0, 4), min_size=1, max_size=6),
       _sorting_metric_st, st.integers(0, 2 ** 32))
def test_sorting_route_equals_enumeration_route_property(labels, metric, seed):
    # tied relevance probabilities (a monotone map with repeats) merge grades
    # into one value; the pick and the tie sets must still match the exact reference
    assert _oracle(labels, metric, seed) == _exact_oracle(labels, metric, seed)


_tied = st.sampled_from([0.0, 0.3, 0.7, 0.9, 1.0])  # not dyadic: float sums round


@st.composite
def _tied_pbm_case(draw):
    labels = draw(st.dictionaries(st.integers(0, 50), st.integers(0, 4), min_size=1, max_size=7))
    table = draw(st.lists(_tied, min_size=len(labels), max_size=len(labels)))
    rmap = draw(st.one_of(st.none(), st.fixed_dictionaries({g: _tied for g in range(5)})))
    return labels, _pbm(examination_table=table, relevance_map=rmap)


@settings(max_examples=150)
@given(_tied_pbm_case(), st.integers(0, 2 ** 32))
def test_tied_non_monotone_pbm_tables_match_the_exact_reference(case, seed):
    # tied, zero and non-monotone weights and tied relevance maps, n <= 7: the pick and every
    # position's tie set equal exact enumeration's
    labels, spec = case
    assert _oracle(labels, spec, seed) == _exact_oracle(labels, spec, seed)


_TIED_TABLE = [0.5, 0.9, 0.5, 0.3, 0.9, 0.7, 0.3, 0.7, 0.5, 0.0,
               0.9, 0.3, 0.7, 0.0, 0.5, 0.3, 0.9, 0.7, 0.0, 0.5]
_QUARTERS = [[0.25 * (1 + (3 * i + 5 * j) % 4) for j in range(8)] for i in range(8)]
_TIED_MAP = {0: 0.0, 1: 0.2, 2: 0.2, 3: 0.7, 4: 0.7}
_GOLDEN_METRICS = {
    "ndcg": ("ndcg", 20),
    "pbm-tau0": (_pbm(tau=0.0), 20),
    "pbm-tau0.5": (_pbm(tau=0.5), 20),
    "pbm-tau1": (_pbm(), 20),
    "pbm-tau1e-17": (_pbm(tau=1e-17), 20),
    "ubm-tau0": (_ubm(tau=0.0), 20),
    "ubm-tau1": (_ubm(), 20),
    "pbm-tied-map": (_pbm(relevance_map=_TIED_MAP), 20),
    "ubm-tied-map": (_ubm(relevance_map=_TIED_MAP), 20),
    "pbm-tied-table": (_pbm(examination_table=_TIED_TABLE), 20),
    "ubm-table": (_ubm(examination_table=_QUARTERS), 8),
}


def _golden_oracle_payload(metric, n_max):
    """Picks and tie sets over slates of 1..n_max items: for each n, grades 0-4, grades 0-1
    and one grade, on spread-out ids, each drawn under a small and a large seed."""
    rng = np.random.default_rng(20)
    parts = []
    for n in range(1, n_max + 1):
        ids = (rng.permutation(n) * 7 + 3).tolist()
        for top in (4, 1, 0):
            labels = dict(zip(ids, rng.integers(0, top + 1, n).tolist()))
            groups = [sorted(g) for g in oracle_position_groups(labels, metric)]
            picks = [oracle_permutation(labels, metric, seed).order for seed in (n, 2 ** 60 + n)]
            parts.append(repr((sorted(labels.items()), picks, groups)).encode())
    return b"\n".join(parts)


# sha256 of the oracles' picks and tie sets over a fixed corpus, taken before the
# sorting route was rebuilt around runs of positions: every pick and tie set must keep
# its ids. Position weights come from numpy's log2 and float powers, so another numpy
# build could in principle tie or split weights differently. Metrics whose maximizers are
# the same arrangements (grade-descending, or all of them) share a digest.
_GOLDEN_ORACLES = {
    "ndcg": "0d678476dd60b5723ebd47280244de68941eed7f36afbfaeb4b0f6b02649df13",
    "pbm-tau0": "0258f6f05a5758a2dd3e9e9ce6cdee10e713403f81137d98cce9096134a700d5",
    "pbm-tau0.5": "0d678476dd60b5723ebd47280244de68941eed7f36afbfaeb4b0f6b02649df13",
    "pbm-tau1": "0d678476dd60b5723ebd47280244de68941eed7f36afbfaeb4b0f6b02649df13",
    "pbm-tau1e-17": "0258f6f05a5758a2dd3e9e9ce6cdee10e713403f81137d98cce9096134a700d5",
    "ubm-tau0": "0258f6f05a5758a2dd3e9e9ce6cdee10e713403f81137d98cce9096134a700d5",
    "ubm-tau1": "0d678476dd60b5723ebd47280244de68941eed7f36afbfaeb4b0f6b02649df13",
    "pbm-tied-map": "59dc0eb446bf7828e38f8fe7de96f63f092faf66b0896cd089e3ab91dfefd322",
    "ubm-tied-map": "59dc0eb446bf7828e38f8fe7de96f63f092faf66b0896cd089e3ab91dfefd322",
    "pbm-tied-table": "6dd7f22f89f0566aca900816263de8866d495f8090c8a2249cd77ceb8e199e52",
    "ubm-table": "be413cf5c57168fdec34007d1dcae8e0e0ce42c7bb0f21b8d65ceee64abcf0eb",
}


@pytest.mark.golden
@pytest.mark.parametrize("case", sorted(_GOLDEN_ORACLES))
def test_oracles_match_their_golden_digests(case):
    payload = _golden_oracle_payload(*_GOLDEN_METRICS[case])
    assert hashlib.sha256(payload).hexdigest() == _GOLDEN_ORACLES[case]


_QUARTERS_10 = [[0.25 * (1 + (3 * i + 5 * j) % 4) for j in range(10)] for i in range(10)]
_UNIFORM_10 = np.random.default_rng(10).random((10, 10))

# the same corpus style at 9 and 10 items, where an explicit browsing table is scanned in blocks
# of at most 8! rows; taken before that scan moved from id arrangements to value sequences
_GOLDEN_BROWSING_TABLES = {
    "quarters": (_QUARTERS_10, "8f0129a35ec29c5bb79e13b27d76fe7c748d72b2edc69bc3ff4c8a008391b724"),
    "uniform": (_UNIFORM_10, "9a635464aaa44ac2d5ada0d0bc2e068a7f92ca63f8bc7d80404a89594bd627c6"),
}


@pytest.mark.golden
@pytest.mark.parametrize("case", sorted(_GOLDEN_BROWSING_TABLES))
def test_nine_and_ten_item_browsing_table_oracles_match_their_golden_digests(case):
    # grades 0-4 and 0-1 on 9 and 10 items, each drawn under a small and a large seed
    table, digest = _GOLDEN_BROWSING_TABLES[case]
    rng, metric, parts = np.random.default_rng(23), _ubm(examination_table=table), []
    for n in (9, 10):
        ids = (rng.permutation(n) * 7 + 3).tolist()
        for top in (4, 1):
            labels = dict(zip(ids, rng.integers(0, top + 1, n).tolist()))
            groups = [sorted(g) for g in oracle_position_groups(labels, metric)]
            picks = [oracle_permutation(labels, metric, seed).order for seed in (n, 2 ** 60 + n)]
            parts.append(repr((sorted(labels.items()), picks, groups)).encode())
    assert hashlib.sha256(b"\n".join(parts)).hexdigest() == digest


def test_metric_fingerprint_distinguishes_configs():
    fps = {metric_fingerprint(m) for m in
           ["ndcg", _pbm(), _pbm(tau=2.0), _ubm(), _pbm(relevance_map={0: 0.0, 1: 1.0}),
            _pbm(examination_table=[1.0, 0.5])]}
    assert len(fps) == 6


def test_one_metric_spelt_three_ways_has_one_fingerprint_and_one_tie_stream():
    # the fingerprint scopes the tie seed, so it must not copy the caller's number types
    from arrangerank.training import ensure_oracles
    from conftest import make_instance

    def orders(specs):
        assert len({metric_fingerprint(spec) for spec in specs}) == 1
        picks = set()
        for spec in specs:
            inst = make_instance(n=9, labels={i: i % 3 for i in range(9)})
            inst.query_id = "q"
            ensure_oracles([inst], spec, master_seed=1)
            picks.add(inst.oracle.order)
        return picks

    # the pick tau = 1.0 has always drawn
    assert orders([_pbm(tau=tau) for tau in (1.0, 1, np.float64(1.0))]) \
        == {(8, 5, 2, 4, 7, 1, 6, 3, 0)}
    assert len(orders([_pbm(relevance_map=rmap) for rmap in (
        {0: 0.0, 1: 0.5, 2: 1.0}, {0: 0, 1: 0.5, 2: 1},
        {np.int64(g): np.float64(g / 2) for g in range(3)})])) == 1


def test_metric_fingerprint_keys_on_every_cell_and_the_shape():
    # two tables that differ only in their third cell
    assert (metric_fingerprint(_pbm(examination_table=[1.0, 0.5, 0.3]))
            != metric_fingerprint(_pbm(examination_table=[1.0, 0.5, 0.9])))
    # the same bytes laid out as 1 x 4 and as 2 x 2
    assert (metric_fingerprint(_ubm(examination_table=[[1.0, 0.0, 0.5, 0.25]]))
            != metric_fingerprint(_ubm(examination_table=[[1.0, 0.0], [0.5, 0.25]])))


def test_load_click_spec_round_trip(tmp_path):
    from arrangerank.clickmodels import load_click_spec

    cfg = tmp_path / "pbm.cfg"
    cfg.write_text("kind = pbm\ntau = 1.5\nr_max = 3\n"
                   "examination_table = 1.0, 0.6, 0.45, 0.3   # per position\n"
                   "relevance_map = 0:0.0, 1:0.2, 2:0.7, 3:1.0\n")
    spec = load_click_spec(cfg)
    assert spec.kind == "pbm" and spec.tau == 1.5 and spec.r_max == 3
    assert np.allclose(spec.examination_table, [1.0, 0.6, 0.45, 0.3])
    assert relevance_prob(spec, 2) == 0.7
    assert examination_prob(spec, 3) == 0.45

    ubm_cfg = tmp_path / "ubm.cfg"
    ubm_cfg.write_text("kind = ubm\nexamination_table = 0.9, 0, 0; 0.5, 0.8, 0; 0.2, 0.4, 0.7\n")
    spec = load_click_spec(ubm_cfg)
    assert spec.kind == "ubm"
    assert examination_prob(spec, 2, 1) == 0.8
    assert examination_prob(spec, 3, 2) == 0.7

    bad = tmp_path / "bad.cfg"
    bad.write_text("flavor = cascade\n")
    with pytest.raises(ValueError, match="unknown keys"):
        load_click_spec(bad)
