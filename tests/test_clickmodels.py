import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangerank.clickmodels import (ClickModelSpec, EnumerationCapError, OrderingError,
                                     examination_prob, metric_fingerprint,
                                     ndcg_reduction_check, oracle_permutation,
                                     oracle_position_groups, r_cm, r_ndcg, relevance_prob,
                                     simulate_clicks)
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


def test_spec_validation():
    with pytest.raises(ValueError):
        ClickModelSpec(kind="cascade")
    with pytest.raises(ValueError):
        _pbm(tau=-1.0)
    with pytest.raises(ValueError):
        _pbm(examination_table=[1.0, 1.5])
    with pytest.raises(ValueError):
        _pbm(relevance_map={0: -0.1})


# --------------------------------------------------------------- relevance


def test_relevance_defaults_and_overrides():
    assert relevance_prob(_pbm(), 0) == 0.0
    assert relevance_prob(_pbm(), 4) == 1.0
    assert relevance_prob(_pbm(), 2) == 3 / 15
    spec = _pbm(relevance_map={0: 0.1, 1: 0.9})
    assert relevance_prob(spec, 1) == 0.9
    with pytest.raises(ValueError):
        relevance_prob(spec, 2)


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


# ---------------------------------------------------------------- simulate


def test_simulate_clicks_certain_and_impossible():
    labels = {i: 4 for i in range(6)}
    clicks = simulate_clicks(Permutation(range(6)), labels, _pbm(tau=0.0), seed=0)
    assert clicks.all()
    labels = {i: 0 for i in range(6)}
    clicks = simulate_clicks(Permutation(range(6)), labels, _pbm(), seed=0)
    assert not clicks.any()


def test_simulate_clicks_deterministic_and_rate():
    labels = {0: 2, 1: 3, 2: 1}
    pi = Permutation([1, 0, 2])
    a = simulate_clicks(pi, labels, _ubm(), seed=42)
    b = simulate_clicks(pi, labels, _ubm(), seed=42)
    assert np.array_equal(a, b)
    # position-1 click rate ~= rho_1 * P(rel) over many trials
    spec = _pbm(tau=1.0)
    p1 = relevance_prob(spec, labels[1])
    trials = 20_000
    hits = sum(simulate_clicks(pi, labels, spec, seed=s)[0] for s in range(trials))
    se = np.sqrt(p1 * (1 - p1) / trials)
    assert abs(hits / trials - p1) < 3 * se + 1e-9


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


def test_oracle_sorting_route_equals_enumeration_route(monkeypatch):
    # same seed, same metric: the sorting shortcut must reproduce the
    # enumeration route's tie pick exactly, not just its metric value
    import arrangerank.clickmodels as cm

    rng = np.random.default_rng(6)
    for case in range(60):
        n = int(rng.integers(2, 6))
        labels = {i: int(rng.integers(0, 3)) for i in range(n)}
        metric = ["ndcg", _pbm(), _ubm()][case % 3]
        fast = oracle_permutation(labels, metric, seed=case)
        with monkeypatch.context() as m:
            m.setattr(cm, "_tie_blocks", lambda metric, ids, values: None)
            slow = cm.oracle_permutation(labels, metric, seed=case)
        assert fast.order == slow.order, (labels, metric, fast.order, slow.order)


def test_oracle_cap_error_suggests_fallback():
    table = np.array([0.5, 0.9, 0.1, 0.7, 0.3, 0.2, 0.6, 0.4, 0.8, 0.05, 0.02])
    labels = {i: int(i % 5) for i in range(11)}
    with pytest.raises(EnumerationCapError, match="greedy"):
        oracle_permutation(labels, _pbm(examination_table=table), seed=0)


def test_oracle_non_monotone_table_uses_enumeration():
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


def test_perm_table_is_itertools_order_and_read_only():
    import arrangerank.clickmodels as cm

    for n in range(1, 9):
        table = cm._perm_table(n)
        assert table.dtype == np.int8 and table.shape == (math.factorial(n), n)
        assert table.tolist() == [list(p) for p in itertools.permutations(range(n))]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_maximizers_nine_items_match_itertools_reference():
    # reference: 8!-row chunks straight from itertools, keeping every row
    # that ties the running maximum
    import arrangerank.clickmodels as cm

    labels = {i: g for i, g in enumerate([4, 4, 2, 2, 2, 1, 0, 3, 3])}
    spec = _pbm(examination_table=[0.5, 1.0, 1.0, 0.25, 0.5, 0.75, 0.75, 0.25, 0.5],
                relevance_map={0: 0.0, 1: 0.25, 2: 0.5, 3: 0.75, 4: 1.0})
    ids, values = cm._item_values(labels, spec)
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
    got = cm._maximizers(ids, values, spec)
    assert got.dtype == np.int8 and len(want) > 1
    assert np.array_equal(got, want)


_sorting_metric_st = st.one_of(
    st.just("ndcg"),
    st.floats(0.05, 5.0).map(lambda tau: _pbm(tau=tau)),
    st.tuples(st.sampled_from(["pbm", "ubm"]), st.floats(0.05, 5.0),
              st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=5, max_size=5))
    .map(lambda c: ClickModelSpec(kind=c[0], tau=c[1],
                                  relevance_map=dict(enumerate(sorted(c[2]))))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.integers(0, 50), st.integers(0, 4), min_size=1, max_size=6),
       _sorting_metric_st, st.integers(0, 2 ** 32))
def test_sorting_route_equals_enumeration_route_property(labels, metric, seed):
    # tied relevance probabilities (a monotone map with repeats) merge grades
    # into one block; the pick and the tie sets must still match enumeration
    import arrangerank.clickmodels as cm

    fast = (oracle_permutation(labels, metric, seed), oracle_position_groups(labels, metric))
    with mock.patch.object(cm, "_tie_blocks", lambda metric, ids, values: None):
        slow = (oracle_permutation(labels, metric, seed), oracle_position_groups(labels, metric))
    assert fast == slow


def test_metric_fingerprint_distinguishes_configs():
    fps = {metric_fingerprint(m) for m in
           ["ndcg", _pbm(), _pbm(tau=2.0), _ubm(), _pbm(relevance_map={0: 0.0, 1: 1.0}),
            _pbm(examination_table=[1.0, 0.5])]}
    assert len(fps) == 6


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
