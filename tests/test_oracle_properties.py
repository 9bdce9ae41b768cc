"""Property tests: the oracles against brute force over every arrangement (n <= 6).

``oracle_permutation`` must reach the brute-force maximum and pick the
maximizer that one seeded draw indexes among them in lexicographic id order,
and ``oracle_position_groups`` must equal, position by position, the ids that
some brute-force maximizer places there. For the default browsing model
this is the claim its closed-form route rests on: its maximizers are
exactly the value-descending arrangements.

Brute force and the enumeration of explicit browsing tables decide ties by
float equality of whole scores. The explicit-table cases therefore draw
examination and relevance values from quarters, which keeps every score
exact, so arrangements that tie mathematically also tie in floating point.
"""
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangerank.clickmodels import (ClickModelSpec, oracle_permutation, oracle_position_groups,
                                     r_cm, r_ndcg)
from arrangerank.permutation import Permutation

TOL = 1e-12
PROPERTY = settings(max_examples=150)

labels_st = st.dictionaries(st.integers(0, 50), st.integers(0, 4), min_size=1, max_size=6)
seed_st = st.integers(0, 2 ** 32)
tau_st = st.floats(0.05, 5.0)
quarter_st = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def _value(pi, labels, metric):
    return r_ndcg(pi, labels) if metric == "ndcg" else r_cm(pi, labels, metric).value


def _brute_force(labels, metric):
    """Best value over all arrangements and its maximizers, in lexicographic id order."""
    values = {order: _value(Permutation(order), labels, metric)
              for order in itertools.permutations(sorted(labels))}
    best = max(values.values())
    return best, [order for order, v in values.items() if v >= best - TOL]


def _check(labels, metric, seed):
    best, rows = _brute_force(labels, metric)
    pi = oracle_permutation(labels, metric, seed=seed)
    assert _value(pi, labels, metric) >= best - TOL
    assert pi.order == rows[np.random.default_rng(seed).integers(len(rows))]
    assert oracle_position_groups(labels, metric) == [set(col) for col in zip(*rows)]


@PROPERTY
@given(labels_st, tau_st, seed_st)
def test_default_ubm_maximizers_are_the_value_descending_arrangements(labels, tau, seed):
    _check(labels, ClickModelSpec(kind="ubm", tau=tau), seed)


@PROPERTY
@given(labels_st, st.sampled_from(["ndcg", *(ClickModelSpec(kind="pbm", tau=tau)
                                             for tau in (0.0, 0.5, 1.0, 3.0)),
                                   ClickModelSpec(kind="ubm", tau=0.0)]), seed_st)
def test_default_pbm_ndcg_and_order_free_ubm_match_brute_force(labels, metric, seed):
    _check(labels, metric, seed)


@PROPERTY
@given(labels_st, st.sampled_from(["pbm", "ubm"]), tau_st,
       st.lists(st.integers(0, 20), min_size=5, max_size=5), seed_st)
def test_monotone_relevance_maps_match_brute_force(labels, kind, tau, steps, seed):
    # grid values: distinct relevances differ by at least 0.05; equal ones tie exactly
    rmap = {grade: step / 20 for grade, step in enumerate(sorted(steps))}
    _check(labels, ClickModelSpec(kind=kind, tau=tau, relevance_map=rmap), seed)


@st.composite
def explicit_table_specs(draw):
    labels = draw(labels_st)
    n = len(labels)
    kind = draw(st.sampled_from(["pbm", "ubm"]))
    cells = draw(st.lists(quarter_st, min_size=n * n, max_size=n * n))
    table = cells[:n] if kind == "pbm" else [cells[i * n:(i + 1) * n] for i in range(n)]
    rmap = {grade: draw(quarter_st) for grade in range(5)}
    return labels, ClickModelSpec(kind=kind, examination_table=table, relevance_map=rmap)


@PROPERTY
@given(explicit_table_specs(), seed_st)
def test_explicit_tables_with_tied_and_non_monotone_weights_match_brute_force(case, seed):
    labels, spec = case
    _check(labels, spec, seed)
