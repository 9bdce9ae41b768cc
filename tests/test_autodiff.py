import numpy as np
import pytest

from arrangerank import autodiff as ad
from arrangerank.autodiff import (EmptySupportError, GraphError, ShapeError, Tape, Tensor,
                                  grad_check)
from arrangerank.params import ParamStore


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), a)
    assert np.array_equal(out.values, a.values)


def test_matmul_row_times_column():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.values.shape == (1, 1)
    assert out.values[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_of_total_is_row_sums_of_b():
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    with Tape() as t:
        out = ad.sum_all(ad.matmul(a, b))
    t.backward(out)
    expect = np.ones((3, 2)) @ b.values.T
    assert np.allclose(a.grad, expect, rtol=0, atol=1e-12)


def test_tanh_at_zero_and_log_exp_inverse():
    assert ad.tanh(Tensor(0.0)).values == 0.0


def test_softmax_masked_symmetry_and_closed_form():
    p = ad.softmax_masked(Tensor([0.0, 0.0, 0.0]), np.array([True, True, True]))
    assert np.allclose(p.values, [1 / 3] * 3, atol=1e-15)
    p = ad.softmax_masked(Tensor([np.log(2.0), 0.0]), np.array([True, True]))
    assert np.allclose(p.values, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_masked_masks_exactly():
    p = ad.softmax_masked(Tensor([5.0, -1.0, 9.0]), np.array([True, False, True]))
    assert p.values[1] == 0.0
    assert abs(p.values[0] + p.values[2] - 1.0) < 1e-12


def test_softmax_masked_empty_support():
    with pytest.raises(EmptySupportError):
        ad.softmax_masked(Tensor([1.0, 2.0]), np.array([False, False]))


def test_softmax_masked_sums_to_one_and_in_range():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True
        p = ad.softmax_masked(Tensor(rng.uniform(-50, 50, n)), mask).values
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_masked_log_prob_matches_composed_path():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        mask = np.ones(n, dtype=bool)
        mask[rng.random(n) < 0.3] = False
        if not mask.any():
            mask[0] = True
        idx = int(rng.choice(np.flatnonzero(mask)))
        logits = Tensor(rng.uniform(-5, 5, n))
        fused = ad.masked_log_prob(logits, mask, idx).values
        composed = np.log(ad.softmax_masked(logits, mask).values[idx])
        assert abs(fused - composed) < 1e-12


def test_backward_twice_is_an_error():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as t:
        out = ad.sum_all(ad.tanh(x))
    t.backward(out)
    with pytest.raises(GraphError):
        t.backward(out)


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(9)
    x = rng.uniform(-2, 2, 16)
    w = rng.uniform(-2, 2, (16, 16))
    run = lambda: ad.tanh(ad.matvec(Tensor(w), ad.tanh(Tensor(x)))).values
    assert np.array_equal(run(), run())


def test_dropout_seeded_and_inverted_scaling():
    x = Tensor(np.ones(1000))
    out1 = ad.dropout(x, 0.5, np.random.default_rng(5)).values
    out2 = ad.dropout(x, 0.5, np.random.default_rng(5)).values
    assert np.array_equal(out1, out2)
    kept = out1[out1 > 0]
    assert np.allclose(kept, 2.0)        # inverted scaling at rate 0.5
    assert 0.4 < kept.size / 1000 < 0.6
    assert ad.dropout(x, 0.0, np.random.default_rng(5)) is x


# ------------------------------------------------- finite-difference checks


def _fd_check(build, params, tol=1e-6):
    err = grad_check(build, params, eps=1e-5)
    assert err < tol, f"max rel err {err:.3e}"


def _store(rng, **arrays) -> ParamStore:
    params = ParamStore()
    for name, shape in arrays.items():
        params.create(name, rng.uniform(-2, 2, shape))
    return params


@pytest.mark.parametrize("case", range(20))
def test_primitive_gradients_against_finite_differences(case):
    """Every primitive's analytic gradient vs central differences, random inputs."""
    rng = np.random.default_rng(100 + case)
    params = _store(rng, a=(3, 4), b=(4, 2), v=(4,), u=(3,), w=(12,), c=(3,))

    mask = rng.random(12) < 0.75
    if not mask.any():
        mask[0] = True
    idx = int(rng.choice(np.flatnonzero(mask)))

    cases = {
        "matmul": lambda p: ad.sum_all(ad.matmul(p["a"], p["b"])),
        "matvec": lambda p: ad.sum_all(ad.matvec(p["a"], p["v"])),
        "add": lambda p: ad.sum_all(ad.add(p["v"], p["v"])),
        "add_rows": lambda p: ad.sum_all(ad.add_rows(p["a"], p["v"])),
        "mul": lambda p: ad.sum_all(ad.mul(p["u"], p["c"])),
        "scale_rows": lambda p: ad.sum_all(ad.scale_rows(p["a"], p["u"])),
        "tanh": lambda p: ad.sum_all(ad.tanh(p["w"])),
        "concat": lambda p: ad.sum_all(ad.tanh(ad.concat([p["v"], p["u"]]))),
        "row": lambda p: ad.sum_all(ad.tanh(ad.row(p["a"], 1))),
        "softmax": lambda p: ad.sum_all(ad.mul(ad.softmax_masked(p["w"], mask),
                                               Tensor(np.eye(12)[idx]))),
        "logprob": lambda p: ad.masked_log_prob(p["w"], mask, idx),
    }
    for name, build in cases.items():
        _fd_check(build, params)


@pytest.mark.parametrize("case", range(8))
def test_pointer_logits_gradients_and_equivalence(case):
    rng = np.random.default_rng(500 + case)
    params = _store(rng, m=(5, 6), ctx=(6,), proj=(6, 3), u=(3,))

    composed = ad.matvec(ad.matmul(ad.tanh(ad.add_rows(params["m"], params["ctx"])),
                                   params["proj"]), params["u"])
    fused = ad.pointer_logits(params["m"], params["ctx"], ad.matvec(params["proj"], params["u"]))
    assert np.allclose(composed.values, fused.values, atol=1e-14)

    def build(p):
        return ad.sum_all(ad.tanh(ad.pointer_logits(p["m"], p["ctx"],
                                                    ad.matvec(p["proj"], p["u"]))))

    _fd_check(build, params)


@pytest.mark.parametrize("case", range(8))
def test_gated_cell_gradients_against_finite_differences(case):
    rng = np.random.default_rng(300 + case)
    params = _store(rng, w=(12, 8), b=(12,), z=(8,), c=(3,))

    def build(p):
        h, c = ad.gated_cell(p["w"], p["b"], p["z"], p["c"])
        return ad.add(ad.sum_all(ad.tanh(h)), ad.sum_all(ad.tanh(c)))

    _fd_check(build, params)


def test_gated_cell_chain_gradients():
    # both outputs feed the next step, exercising the two-output pull
    rng = np.random.default_rng(42)
    params = _store(rng, w=(12, 8), b=(12,), z1=(5,), z2=(5,), c=(3,))

    def build(p):
        h, c = ad.gated_cell(p["w"], p["b"], ad.concat([p["z1"], p["c"]]), p["c"])
        h, c = ad.gated_cell(p["w"], p["b"], ad.concat([p["z2"], h]), c)
        return ad.sum_all(h)

    _fd_check(build, params)


def test_grad_check_contract_examples():
    rng = np.random.default_rng(17)
    params = _store(rng, x=(5,), y=(2, 3))

    linear = lambda p: ad.add(ad.sum_all(p["x"]), ad.sum_all(p["y"]))
    assert grad_check(linear, params) < 1e-10

    constant = lambda p: Tensor(3.5)
    assert grad_check(constant, params) == 0.0

    with pytest.raises(ValueError):
        grad_check(linear, params, eps=1e-2)


def test_grad_check_rejects_non_finite_forward():
    rng = np.random.default_rng(18)
    params = _store(rng, x=(3,))
    with pytest.raises(FloatingPointError):
        grad_check(lambda p: Tensor(np.inf), params)


def test_finite_values_through_deep_chain():
    rng = np.random.default_rng(19)
    x = Tensor(rng.uniform(-2, 2, 8))
    w = Tensor(rng.uniform(-2, 2, (8, 8)))
    for _ in range(50):
        x = ad.tanh(ad.matvec(w, x))
    assert np.all(np.isfinite(x.values))
