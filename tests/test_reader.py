import numpy as np
import pytest

from arrangerank.autodiff import ShapeError, Tensor
from arrangerank.model import init_params
from arrangerank.reader import (CandidateSet, EmptyInputError, UserContext, encode_candidates,
                                encode_candidates_mlp, encode_history, encode_history_mlp)

from conftest import tiny_dims


def _params(kind="starank", seed=0, dims=None):
    return init_params(kind, dims or tiny_dims(), seed)


def test_candidate_set_canonical_order_and_duplicates():
    cs = CandidateSet([(9, [1.0]), (2, [2.0]), (5, [3.0])])
    assert cs.ids == (2, 5, 9)
    assert cs.features[:, 0].tolist() == [2.0, 3.0, 1.0]
    with pytest.raises(ValueError, match="duplicate"):
        CandidateSet([(1, [0.0]), (1, [1.0])])


def test_empty_history_gives_profile_projection():
    params = _params()
    ctx = UserContext(np.arange(4.0), [], feature_dim=4)
    u = encode_history(ctx, params)
    expect = params["hist.U0"].values @ ctx.profile + params["hist.u0_b"].values
    assert np.array_equal(u.values, expect)


def test_history_order_sensitivity():
    params = _params(seed=3)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=4), rng.normal(size=4)
    u_ab = encode_history(UserContext(np.zeros(4), [a, b]), params)
    u_ba = encode_history(UserContext(np.zeros(4), [b, a]), params)
    assert np.linalg.norm(u_ab.values - u_ba.values) > 1e-12


def test_history_swap_sensitivity_randomized():
    # property: swapping two distinct history items changes the user vector
    for case in range(25):
        rng = np.random.default_rng(500 + case)
        params = _params(seed=case)
        profile = rng.normal(size=4)
        items = [rng.normal(size=4) for _ in range(int(rng.integers(2, 6)))]
        swapped = list(items)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        u1 = encode_history(UserContext(profile, items), params)
        u2 = encode_history(UserContext(profile, swapped), params)
        assert np.linalg.norm(u1.values - u2.values) > 1e-12


def test_history_determinism_bitwise():
    params = _params(seed=5)
    rng = np.random.default_rng(2)
    ctx = UserContext(rng.normal(size=4), [rng.normal(size=4) for _ in range(3)])
    assert np.array_equal(encode_history(ctx, params).values,
                          encode_history(ctx, params).values)


def test_history_dimension_mismatch():
    params = _params()
    with pytest.raises(ShapeError):
        encode_history(UserContext(np.zeros(4), [np.zeros(3)]), params)
    with pytest.raises(ShapeError):
        encode_history(UserContext(np.zeros(9), [], feature_dim=4), params)


def test_attention_uniform_on_identical_candidates():
    params = _params(seed=1)
    x = np.r_[0.3, -0.2, 0.9, 0.1]
    cands = CandidateSet((i, x) for i in range(5))
    u = Tensor(np.random.default_rng(0).normal(size=6))
    rout = encode_candidates(cands, u, params)
    assert np.allclose(rout.betas.values, 0.2, atol=1e-12)
    assert abs(rout.betas.values.sum() - 1.0) < 1e-9


def test_attention_storage_order_invariance_bitwise():
    params = _params(seed=2)
    rng = np.random.default_rng(4)
    feats = {i: rng.normal(size=4) for i in (3, 11, 7, 2)}
    u = Tensor(rng.normal(size=6))
    base = encode_candidates(CandidateSet((i, feats[i]) for i in (3, 11, 7, 2)), u, params)
    shuf = encode_candidates(CandidateSet((i, feats[i]) for i in (7, 2, 3, 11)), u, params)
    for i in feats:
        assert np.array_equal(base.reprs.values[base.ids.index(i)],
                              shuf.reprs.values[shuf.ids.index(i)])
        assert base.betas.values[base.ids.index(i)] == shuf.betas.values[shuf.ids.index(i)]


def test_attention_beta_normalization_random():
    rng = np.random.default_rng(6)
    for case in range(30):
        params = _params(seed=case)
        n = int(rng.integers(1, 8))
        cands = CandidateSet((i, rng.normal(size=4)) for i in range(n))
        rout = encode_candidates(cands, Tensor(rng.normal(size=6)), params)
        assert abs(rout.betas.values.sum() - 1.0) < 1e-9


def test_attention_closed_form_two_candidates():
    # engineered logits (ln 2, 0): beta = (2/3, 1/3)
    params = _params()
    params["attn.W1"].values[:] = 0.0
    params["attn.b1"].values[:] = 0.0
    params["attn.V"].values[:] = 0.0
    # tanh(0)=0 rows; set V so h' = z @ V stays zero, then betas come from logits h'.u = 0
    # instead drive logits via b1 -> z, single attention column
    params["attn.b1"].values[0] = np.arctanh(0.5)
    params["attn.V"].values[0, 0] = 1.0          # h'_d = (0.5, 0, ...) for every d
    cands = CandidateSet([(0, [1.0, 0, 0, 0]), (1, [1.0, 0, 0, 0])])
    u = np.zeros(6)
    u[0] = 2 * np.log(2.0)                       # logits = 0.5*u0 = ln 2 for both -> equal betas
    rout = encode_candidates(cands, Tensor(u), params)
    assert np.allclose(rout.betas.values, [0.5, 0.5], atol=1e-12)
    # now make the candidates differ through W1 so logits become (ln 2, 0)
    params["attn.W1"].values[0, 0] = np.arctanh(0.5)
    params["attn.b1"].values[0] = 0.0
    cands = CandidateSet([(0, [1.0, 0, 0, 0]), (1, [0.0, 0, 0, 0])])
    rout = encode_candidates(cands, Tensor(u), params)
    assert np.allclose(rout.betas.values, [2 / 3, 1 / 3], atol=1e-12)


def test_empty_candidate_set_error():
    params = _params()
    with pytest.raises(EmptyInputError):
        encode_candidates(CandidateSet([]), Tensor(np.zeros(6)), params)
    with pytest.raises(EmptyInputError):
        encode_candidates_mlp(CandidateSet([]), Tensor(np.zeros(6)), _params("starank_pi_mlp"))
    with pytest.raises(ValueError, match="feature_dim is required"):
        UserContext(np.zeros(6), [])


def test_mlp_candidates_identical_items_and_order_independence():
    params = _params("starank_pi_mlp", seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    u = Tensor(rng.normal(size=6))
    rout = encode_candidates_mlp(CandidateSet([(0, x), (1, x), (2, x)]), u, params)
    assert np.array_equal(rout.reprs.values[0], rout.reprs.values[1])
    assert np.allclose(rout.betas.values, 1 / 3)
    feats = {i: rng.normal(size=4) for i in range(4)}
    a = encode_candidates_mlp(CandidateSet((i, feats[i]) for i in (0, 1, 2, 3)), u, params)
    b = encode_candidates_mlp(CandidateSet((i, feats[i]) for i in (3, 1, 0, 2)), u, params)
    for i in feats:
        assert np.array_equal(a.reprs.values[a.ids.index(i)], b.reprs.values[b.ids.index(i)])


def test_mlp_candidates_zero_weights_bias_driven():
    params = _params("starank_pi_mlp", seed=4)
    for name in ("pimlp.W1x", "pimlp.W1u", "pimlp.W2"):
        params[name].values[:] = 0.0
    params["pimlp.b2"].values[:] = 0.25
    rng = np.random.default_rng(3)
    rout = encode_candidates_mlp(CandidateSet((i, rng.normal(size=4)) for i in range(3)),
                                 Tensor(rng.normal(size=6)), params)
    assert np.allclose(rout.reprs.values, 0.25)


def test_mlp_history_order_invariance_and_empty():
    params = _params("starank_ps_mlp", seed=8)
    rng = np.random.default_rng(8)
    items = [rng.normal(size=4) for _ in range(4)]
    prof = rng.normal(size=4)
    u1 = encode_history_mlp(UserContext(prof, items), params)
    u2 = encode_history_mlp(UserContext(prof, list(reversed(items))), params)
    assert np.array_equal(u1.values, u2.values)
    u_empty = encode_history_mlp(UserContext(prof, [], feature_dim=4), params)
    hid = np.tanh(params["psmlp.W1"].values @ np.concatenate([np.zeros(4), prof])
                  + params["psmlp.b1"].values)
    expect = params["psmlp.W2"].values @ hid + params["psmlp.b2"].values
    assert np.array_equal(u_empty.values, expect)
    assert np.array_equal(u1.values, encode_history_mlp(UserContext(prof, items), params).values)
