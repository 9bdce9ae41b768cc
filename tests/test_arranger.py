import hashlib
import itertools

import numpy as np
import pytest

from arrangerank.arranger import (arrange_greedy, greedy_orders, greedy_step_probs,
                                  permutation_log_prob, step_scores)
from arrangerank.autodiff import Tensor
from arrangerank.model import init_params, read_group, read_instance
from arrangerank.permutation import BijectionError, Permutation
from arrangerank.reader import CandidateSet, ReaderOutput

from conftest import make_instance, spread_params, taped_decode, tiny_dims


def _rout(seed=0, n=4, kind="starank", params=None, gain=2.0, ids=None):
    dims = tiny_dims(max_list_len=max(n, 6))
    params = params if params is not None else spread_params(kind, dims, seed, gain)
    inst = make_instance(seed=seed, n=n, ids=ids)
    return read_instance(kind, params, inst), params


def _uniform_params(seed=0, n=6):
    # zero pointer projection -> all step scores identical -> uniform picks
    params = init_params("starank", tiny_dims(max_list_len=n), seed)
    params["ptr.P"].values[:] = 0.0
    return params


def test_step_scores_equal_for_identical_reprs():
    params = init_params("starank", tiny_dims(), 1)
    rng = np.random.default_rng(0)
    u = Tensor(rng.normal(size=6))
    reprs = Tensor(np.tile(rng.normal(size=6), (4, 1)))
    rout = ReaderOutput(ids=(0, 1, 2, 3), user_vec=u, reprs=reprs,
                        betas=Tensor(np.full(4, 0.25)))
    scores = step_scores(rout, params)
    vals = list(scores.values())
    assert len(scores) == 4
    assert all(v == vals[0] for v in vals)


def test_step_scores_zero_projection_gives_uniform_distribution():
    params = _uniform_params()
    rout, _ = _rout(params=params)
    scores = step_scores(rout, params)
    assert all(v == 0.0 for v in scores.values())


def test_step_scores_deterministic_and_remaining_only():
    rout, params = _rout(seed=2)
    s1 = step_scores(rout, params)
    s2 = step_scores(rout, params)
    assert s1 == s2
    assert set(s1) == set(rout.ids)


def _taped_greedy(rout, params):
    """The taped per-step reference: the full n-step greedy order and every step's logits."""
    seen = []

    def choose(logits, mask):
        seen.append(logits.values)
        return np.argmax(np.where(mask, logits.values, -np.inf), axis=-1)

    return taped_decode(rout, params, choose), np.concatenate(seen, axis=-2)


def test_step_scores_run_one_decoder_step_equal_to_the_first_greedy_step():
    from unittest import mock

    from arrangerank import autodiff as ad

    rout, params = _rout(seed=4, n=6)
    order, seen = _taped_greedy(rout, params)  # every step's logits, the last one too
    with mock.patch.object(ad, "_cell_step", wraps=ad._cell_step) as cell:
        assert np.array_equal(order, greedy_orders(rout, params))
        assert cell.call_count == 5
        scores = step_scores(rout, params)
        assert cell.call_count == 5 + 1
    assert list(scores) == list(rout.ids)
    assert np.array([scores[i] for i in rout.ids]).tobytes() == seen[0].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_greedy_orders_place_the_forced_last_item_without_a_decoder_step(n):
    from unittest import mock

    from arrangerank import autodiff as ad

    params = spread_params("starank", tiny_dims(max_list_len=7), 16)
    group = [make_instance(seed=60 + k, n=n, hist_len=2) for k in range(3)]
    for rout in (read_group("starank", params, group), read_group("starank", params, group[:1])):
        full = _taped_greedy(rout, params)[0]  # every step decoded, the last one too
        with mock.patch.object(ad, "_cell_step", wraps=ad._cell_step) as cell:
            order = greedy_orders(rout, params)
        assert cell.call_count == n - 1
        assert order.dtype == full.dtype and order.tobytes() == full.tobytes()


@pytest.mark.parametrize("kind", ("starank", "starank_pi_mlp", "starank_ps_mlp"))
def test_forced_logits_of_a_prefix_equal_the_first_rows_of_the_full_pass(kind):
    # k < n - 1 inputs run k + 1 steps of the same recurrence, so step_scores' one-step read
    # (k = 0) and every shorter prefix give the full pass's rows bit for bit
    from arrangerank.arranger import _forced_logits

    params = spread_params(kind, tiny_dims(max_list_len=3), 21)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8):  # 5 and 8 run past the 3-row position table
        group = [make_instance(seed=80 + k, n=n, hist_len=3) for k in range(4)]
        for rout in (read_group(kind, params, group), read_group(kind, params, group[:1])):
            lead = rout.reprs.values.shape[:-2]
            targets = np.argsort(rng.random(lead + (n,)), axis=-1)
            full = _forced_logits(rout, params, targets[..., :-1]).values
            assert full.shape == lead + (n, n)
            for k in range(n - 1):
                part = _forced_logits(rout, params, targets[..., :k]).values
                assert part.shape == lead + (k + 1, n)
                assert part.tobytes() == full[..., :k + 1, :].tobytes()


def test_greedy_tie_break_by_item_id():
    params = _uniform_params()
    inst = make_instance(seed=1, n=3, ids=[7, 3, 5])
    rout = read_instance("starank", params, inst)
    assert arrange_greedy(rout, params).order == (3, 5, 7)


def test_greedy_single_candidate():
    rout, params = _rout(seed=3, n=1)
    assert arrange_greedy(rout, params).order == rout.ids


def test_greedy_hand_built_monotone_params_rank_by_feature():
    """1-D features (3.0), (1.0), (2.0): monotone score chain -> descending order."""
    from arrangerank.data import Instance
    from arrangerank.reader import UserContext

    dims = tiny_dims(n_features=1, embed=1, max_list_len=3)
    params = init_params("starank", dims, 0)
    for name in params.names():
        params[name].values[:] = 0.0
    params["hist.u0_b"].values[:] = 1.0            # empty history -> u = [1]
    params["attn.W1"].values[:] = 1.0              # z = tanh(x)
    params["attn.V"].values[:] = 1.0               # h' = z (monotone in x)
    params["ptr.W2"].values[:] = 1.0               # score path: P tanh(W2 h) . u
    params["ptr.P"].values[:] = 1.0                # W3 = 0 keeps scores static
    inst = Instance("hand", UserContext(np.zeros(1), [], feature_dim=1),
                    CandidateSet([(0, [3.0]), (1, [1.0]), (2, [2.0])]),
                    labels={0: 0, 1: 0, 2: 0})
    rout = read_instance("starank", params, inst)
    assert arrange_greedy(rout, params).order == (0, 2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_greedy_step_probs_chosen_entries_give_the_forced_log_prob(n):
    # the greedy decode's own distributions and the teacher-forced pass along its order
    # score the same permutation; uniform params give log(1/n!) on both sides
    for params in (spread_params("starank", tiny_dims(max_list_len=6), 20 + n),
                   _uniform_params(n=n)):
        rout = read_instance("starank", params, make_instance(seed=30 + n, n=n, hist_len=3))
        pi, probs = greedy_step_probs(rout, params)
        chosen = [rout.ids.index(item) for item in pi]
        stepwise = float(np.log(probs[np.arange(n), chosen]).sum())
        assert abs(stepwise - float(permutation_log_prob(rout, params, pi).values)) < 1e-12


def test_log_prob_equal_scores_closed_form():
    for n, expect in ((2, np.log(0.5)), (3, np.log(1 / 6))):
        params = _uniform_params(n=n)
        inst = make_instance(seed=7, n=n)
        rout = read_instance("starank", params, inst)
        for order in itertools.permutations(range(n)):
            lp = float(permutation_log_prob(rout, params, Permutation(order)).values)
            assert abs(lp - expect) < 1e-12


def test_log_prob_rejects_invalid_permutations():
    rout, params = _rout(seed=8, n=3)
    with pytest.raises(BijectionError):
        permutation_log_prob(rout, params, Permutation([0, 1]))
    with pytest.raises(BijectionError):
        permutation_log_prob(rout, params, Permutation([0, 1, 5]))
    with pytest.raises(BijectionError):
        Permutation([0, 0, 1])


def test_normalization_over_all_permutations():
    for n in (2, 3, 4, 5, 6):
        rout, params = _rout(seed=n, n=n, gain=2.5)
        total = sum(np.exp(float(permutation_log_prob(rout, params, Permutation(p)).values))
                    for p in itertools.permutations(rout.ids))
        assert abs(total - 1.0) < 1e-9, f"n={n}: {total}"


def test_storage_order_invariance_greedy_and_log_prob():
    # candidate storage shuffles leave the greedy sequence and any fixed
    # permutation's log-probability unchanged
    rng = np.random.default_rng(9)
    for case in range(20):
        params = spread_params("starank", tiny_dims(), case, 2.0)
        ids = [3, 11, 7, 2, 9]
        inst = make_instance(seed=case, n=5, ids=ids)
        feats = {i: inst.cands.features[k] for k, i in enumerate(inst.cands.ids)}
        probe = Permutation(rng.permutation(ids).tolist())
        base = None
        for _ in range(3):
            order = rng.permutation(ids).tolist()
            shuffled = make_instance(seed=case, n=5, ids=ids)
            shuffled.cands = CandidateSet((i, feats[i]) for i in order)
            rout = read_instance("starank", params, shuffled)
            got = (arrange_greedy(rout, params).order,
                   float(permutation_log_prob(rout, params, probe).values))
            if base is None:
                base = got
            assert got[0] == base[0]
            assert abs(got[1] - base[1]) <= 1e-12


def test_arranged_items_get_exact_zero_probability():
    rout, params = _rout(seed=10, n=5)
    pi, probs = greedy_step_probs(rout, params)
    for step in range(1, 5):
        placed = [rout.ids.index(i) for i in pi.order[:step]]
        assert np.all(probs[step][placed] == 0.0)
        assert abs(probs[step].sum() - 1.0) < 1e-9


def test_internal_consistency_static_scores_small():
    # with the position path zeroed, P(a before b) from enumeration equals
    # the two-item softmax of the static scores
    for case in range(10):
        params = spread_params("starank", tiny_dims(), case, 2.0)
        params["ptr.W3"].values[:] = 0.0
        n = 4
        inst = make_instance(seed=case, n=n)
        rout = read_instance("starank", params, inst)
        s = step_scores(rout, params)
        probs = {}
        for order in itertools.permutations(rout.ids):
            probs[order] = np.exp(float(permutation_log_prob(rout, params,
                                                             Permutation(order)).values))
        a, b = rout.ids[0], rout.ids[1]
        marg = sum(p for order, p in probs.items() if order.index(a) < order.index(b))
        expect = np.exp(s[a]) / (np.exp(s[a]) + np.exp(s[b]))
        assert abs(marg - expect) < 1e-9


def test_position_dependent_consistency_deviation_reported():
    # with W3 free the classical subset-consistency identity need not hold;
    # record the typical deviation without asserting it
    devs = []
    for case in range(5):
        params = spread_params("starank", tiny_dims(), 40 + case, 3.0)
        inst = make_instance(seed=case, n=4)
        rout = read_instance("starank", params, inst)
        s = step_scores(rout, params)
        a, b = rout.ids[0], rout.ids[1]
        marg = 0.0
        for order in itertools.permutations(rout.ids):
            if order.index(a) < order.index(b):
                marg += np.exp(float(permutation_log_prob(rout, params,
                                                          Permutation(order)).values))
        devs.append(abs(marg - np.exp(s[a]) / (np.exp(s[a]) + np.exp(s[b]))))
    print(f"\nposition-dependent pairwise-consistency deviation: "
          f"max {max(devs):.4f}, mean {np.mean(devs):.4f}")


def _decode_payloads():
    """Bytes of every untaped decode entry point on one seeded checkpoint whose position
    table holds 6 steps: slates of 3, 6 and 9 items (9 runs past the table, where the
    position one-hot stays on its last column) with histories of 0 and 3 items, each served
    alone and as a group of 4."""
    params = spread_params("starank", tiny_dims(max_list_len=6), 31)
    lone = {"greedy": [], "probs": [], "scores": []}
    groups = []
    for n in (3, 6, 9):
        for hist in (0, 3):
            pool = [make_instance(seed=100 * n + 10 * hist + k, n=n, hist_len=hist,
                                  ids=range(5, 5 + 3 * n, 3)) for k in range(4)]
            groups.append(greedy_orders(read_group("starank", params, pool), params))
            for inst in pool[:2]:
                rout = read_instance("starank", params, inst)
                lone["greedy"].append(greedy_orders(rout, params))
                pi, probs = greedy_step_probs(rout, params)
                lone["probs"] += [repr(pi.order).encode(), probs]
                lone["scores"].append(repr({i: s.hex() for i, s in
                                            step_scores(rout, params).items()}).encode())
    payloads = {f"lone-{name}": parts for name, parts in lone.items()}
    payloads["group-greedy"] = groups
    return payloads


# sha256 of the untaped decode's outputs, taken with numpy 2.4.6 on OpenBLAS 0.3.31
# (scipy-openblas64, DYNAMIC_ARCH, Haswell kernels) before the decode loop was rewritten:
# every logit and every pick must keep its bits. The taped reference decode shares the
# cell and scoring kernels with the decode, so only a fixed digest catches a change inside
# them. Other BLAS builds may round products differently, and then these digests differ.
_GOLDEN_DECODES = {
    "group-greedy": "3ce13f5cdfd87df708e79612e7d57659edc582d28d25a8973908e85f708c1bbb",
    "lone-greedy": "23fc7f916c6541d7a38907a2512b1b58a029cccc2c7a1a2daeb655969448e76b",
    "lone-probs": "c64ad8e019651de651fcd9fcd9688cc07d476486cda800fb57118f3d2af441c2",
    "lone-scores": "a4a72e618b7be9b664189c58a45adbb64daf255706f990fc918204ca0e903659",
}


@pytest.mark.golden
@pytest.mark.parametrize("case", sorted(_GOLDEN_DECODES))
def test_decodes_match_their_golden_digests(case):
    assert _digest(_decode_payloads()[case]) == _GOLDEN_DECODES[case]


def _digest(parts) -> str:
    """sha256 of byte strings and of arrays as little-endian float64 or int64."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else
                      np.ascontiguousarray(part, dtype="<f8" if part.dtype.kind == "f"
                                           else "<i8").tobytes())
    return digest.hexdigest()


def _served_payloads():
    """Bytes of the decode and the history encoder at the shapes ``rerank`` serves (embed 16,
    feature dim 8, a 40-row position table): slates of 5, 20 and 40 items with histories of
    0, 8 and 32 items, each served alone (two instances) and as a group of 4."""
    params = spread_params("starank", tiny_dims(n_features=8, embed=16, max_list_len=40), 28)
    payloads = {"served-lone-greedy": [], "served-lone-probs": [], "served-group-greedy": [],
                "served-user-vecs": []}
    for n in (5, 20, 40):
        for hist in (0, 8, 32):
            pool = [make_instance(seed=1000 * n + 10 * hist + k, n=n, n_features=8,
                                  hist_len=hist, ids=range(3, 3 + 2 * n, 2)) for k in range(4)]
            group = read_group("starank", params, pool)
            payloads["served-group-greedy"].append(greedy_orders(group, params))
            payloads["served-user-vecs"].append(group.user_vec.values)
            for inst in pool[:2]:
                rout = read_instance("starank", params, inst)
                payloads["served-user-vecs"].append(rout.user_vec.values)
                payloads["served-lone-greedy"].append(greedy_orders(rout, params))
                pi, probs = greedy_step_probs(rout, params)
                payloads["served-lone-probs"] += [repr(pi.order).encode(), probs]
    return payloads


# sha256 of the served-shape outputs, taken as above (numpy 2.4.6, OpenBLAS 0.3.31 Haswell
# kernels) before the cell step was rewritten to work in place on buffers made once per
# recurrence: every user vector, step distribution and pick must keep its bits.
_GOLDEN_SERVED = {
    "served-group-greedy": "0840f90a8dc56b0a932a6d47b393a4de051729a5e7c20e48c698d0b203b12b4c",
    "served-lone-greedy": "4c843fb0b4666c5f118b2e7d3c7a27ab94f3a70ccbd02e31db48424299d0415a",
    "served-lone-probs": "e84937e606e679a6fa9ceb56ad9e4a83922e0b1faf573be2ed4e04693d34e036",
    "served-user-vecs": "39a13c053ba347086f1dc22637f5eea7df5c0504e535ba72bdcc7f891fb76452",
}


@pytest.mark.golden
@pytest.mark.parametrize("case", sorted(_GOLDEN_SERVED))
def test_served_shapes_match_their_golden_digests(case):
    assert _digest(_served_payloads()[case]) == _GOLDEN_SERVED[case]
