import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangerank import autodiff as ad
from arrangerank.autodiff import (EmptySupportError, GraphError, ShapeError, Tape, Tensor,
                                  grad_check)
from arrangerank.model import ModelDims, param_shapes
from arrangerank.params import ParamStore

# The decoder cell's and the pointer's weight shapes at embedding widths 6, 16 and 64
_MV_SHAPES = sorted({shape for e, positions in ((6, 6), (16, 10), (64, 40))
                     for key, shape in param_shapes("starank", ModelDims(
                         feature_dim=8, profile_dim=8, embed=e, attn_width=e, mlp_hidden=e,
                         max_list_len=positions)).items()
                     if key in ("dec.W", "ptr.W3", "ptr.P")})


@settings(max_examples=200)
@given(st.sampled_from(_MV_SHAPES), st.integers(1, 64), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_a_stacked_mv_row_equals_the_lone_product_bitwise(shape, batch, shared, seed):
    """A weight shared by the batch, or one matrix per instance as in a pointer step."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=shape if shared else (batch,) + shape)
    v = rng.normal(size=(batch, shape[1]))
    stacked = ad._mv(m, v)
    assert stacked.shape == (batch, shape[0])
    for b in range(batch):
        assert stacked[b].tobytes() == ad._mv(m if shared else m[b], v[b]).tobytes()


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


def test_masked_log_prob_rows_keep_different_counts():
    """Each row of a ragged batch equals the same row alone, bitwise; gradients check out."""
    rng = np.random.default_rng(4)
    logits = rng.uniform(-5, 5, (2, 4, 9))
    mask = np.ones((2, 4, 9), dtype=bool)
    index = np.empty((2, 4), dtype=int)
    for b in range(2):
        order = rng.permutation(9)
        for i in range(4):  # row i keeps the 9 - i entries not yet placed
            mask[b, i, order[:i]] = False
            index[b, i] = order[i]
    rows = ad.masked_log_prob(Tensor(logits), mask, index).values
    probs = ad.softmax_masked(Tensor(logits), mask).values
    for b in range(2):
        for i in range(4):
            one = ad.masked_log_prob(Tensor(logits[b, i]), mask[b, i], index[b, i]).values
            assert one.tobytes() == rows[b, i].tobytes()
            one = ad.softmax_masked(Tensor(logits[b, i]), mask[b, i]).values
            assert one.tobytes() == probs[b, i].tobytes()
    params = ParamStore()
    params.create("z", logits)
    _fd_check(lambda p: ad.sum_all(ad.masked_log_prob(p["z"], mask, index)), params)
    with pytest.raises(EmptySupportError):
        empty = mask.copy()
        empty[1, 2] = False
        ad.masked_log_prob(Tensor(logits), empty, index)


def test_row_with_a_step_axis_gathers_and_accumulates():
    rng = np.random.default_rng(5)
    params = _store(rng, m=(2, 4, 3))
    index = np.array([[1, 1, 3], [0, 2, 1]])  # instance 0 picks row 1 at two steps
    out = ad.row(params["m"], index)
    assert out.values.shape == (2, 3, 3)
    assert np.array_equal(out.values[0, 2], params["m"].values[0, 3])
    _fd_check(lambda p: ad.sum_all(ad.tanh(ad.row(p["m"], index))), params)
    with Tape() as t:
        total = ad.sum_all(ad.row(params["m"], index))
    t.backward(total)
    assert np.array_equal(params["m"].grad[0, :, 0], [0.0, 2.0, 0.0, 1.0])
    with pytest.raises(ShapeError):
        ad.row(params["m"], np.zeros((2, 3, 1), dtype=int))


def test_backward_twice_is_an_error():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as t:
        out = ad.sum_all(ad.tanh(x))
    t.backward(out)
    with pytest.raises(GraphError):
        t.backward(out)


def test_batched_primitives_reject_shapes_that_do_not_agree():
    m = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="matvec"):  # batch 2 against batch 3
        ad.matvec(m, Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeError, match="add shapes"):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError, match="add_rows"):
        ad.add_rows(m, Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeError, match="mul"):
        ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match="scale_rows"):
        ad.scale_rows(m, Tensor(np.zeros((2, 4))))


def test_masked_log_prob_rejects_bad_indices():
    logits = Tensor(np.zeros((2, 3)))
    mask = np.array([[True, True, False], [True, True, True]])
    with pytest.raises(ShapeError, match="one index per row"):
        ad.masked_log_prob(logits, mask, np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="masked out"):
        ad.masked_log_prob(logits, mask, np.array([2, 0]))


def test_dropout_rate_nested_tapes_and_non_scalar_backward_are_errors():
    for rate in (-0.1, 1.0):
        with pytest.raises(ValueError, match="dropout rate"):
            ad.dropout(Tensor([1.0]), rate, np.random.default_rng(0))
    with Tape():
        with pytest.raises(GraphError, match="nested"):
            Tape().__enter__()
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as t:
        out = ad.tanh(x)
    with pytest.raises(ShapeError, match="scalar"):
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
    params = _store(rng, m=(5, 6), ctx=(3, 6), proj=(6, 3), u=(3,))

    fused = ad.pointer_logits(params["m"], params["ctx"], ad.matvec(params["proj"], params["u"]))
    assert fused.values.shape == (3, 5)
    for t in range(3):  # one row of scores per step's context
        composed = ad.matvec(ad.matmul(ad.tanh(ad.add_rows(params["m"],
                                                           Tensor(params["ctx"].values[t]))),
                                       params["proj"]), params["u"])
        assert np.allclose(composed.values, fused.values[t], atol=1e-14)

    def build(p):
        return ad.sum_all(ad.tanh(ad.pointer_logits(p["m"], p["ctx"],
                                                    ad.matvec(p["proj"], p["u"]))))

    _fd_check(build, params)
    params.create("us", rng.uniform(-2, 2, (2, 3)))  # a batch of w over shared m and ctx
    _fd_check(lambda p: ad.sum_all(ad.tanh(ad.pointer_logits(
        p["m"], p["ctx"], ad.matvec(p["proj"], p["us"])))), params)


def test_pointer_logits_steps_equal_single_steps_bitwise():
    rng = np.random.default_rng(520)
    m, ctx, w = (rng.uniform(-2, 2, shape) for shape in ((4, 5, 6), (4, 3, 6), (4, 6)))
    steps = ad.pointer_logits(Tensor(m), Tensor(ctx), Tensor(w)).values
    for t in range(3):
        one = ad.pointer_logits(Tensor(m), Tensor(ctx[:, t:t + 1]), Tensor(w)).values
        assert one.tobytes() == steps[:, t:t + 1].tobytes()
    # all steps in one pass, each context scoring every row
    assert steps.tobytes() == ad._pointer_scores(m[:, None], ctx, w[:, None]).tobytes()
    with pytest.raises(ShapeError):  # a context without its step axis
        ad.pointer_logits(Tensor(m[0]), Tensor(ctx[0, 0]), Tensor(w[0]))


def _pointer_grads(m, ctx, w, g):
    """Gradients of m, ctx and w, in that order, under the upstream gradient g."""
    ts = [Tensor(v, requires_grad=True) for v in (m, ctx, w)]
    with Tape() as tape:
        out = ad.sum_all(ad.mul(ad.pointer_logits(*ts), Tensor(g)))
    tape.backward(out)
    return [t.grad for t in ts]


def test_pointer_logits_backward_blocks_keep_every_gradient_bit(monkeypatch):
    rng = np.random.default_rng(530)
    m, ctx, w = (rng.uniform(-2, 2, shape) for shape in ((37, 6, 5), (37, 4, 5), (37, 5)))
    g = rng.uniform(-2, 2, (37, 4, 6))
    monkeypatch.setattr(ad, "POINTER_BLOCK", 8)  # five blocks, the last one short
    grads = _pointer_grads(m, ctx, w, g)
    for b in range(37):
        for got, want in zip(grads, _pointer_grads(m[b], ctx[b], w[b], g[b])):
            assert got[b].tobytes() == want.tobytes()
    shared = _pointer_grads(m, ctx, w[0], g)  # a w shared by the group sums over it
    monkeypatch.setattr(ad, "POINTER_BLOCK", 64)
    for got, want in zip(shared, _pointer_grads(m, ctx, w[0], g)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", range(8))
def test_gated_cell_gradients_against_finite_differences(case):
    rng = np.random.default_rng(300 + case)
    params = _store(rng, w=(12, 8), b=(12,), z1=(2, 5), h=(3,))
    _fd_check(lambda p: ad.sum_all(ad.tanh(ad.gated_cell(p["w"], p["b"], [p["z1"]], p["h"]))),
              params)


def test_gated_cell_chain_gradients():
    # the first call's last state starts the second, as the history encoder's user vector
    # starts the decoder
    rng = np.random.default_rng(42)
    params = _store(rng, w=(12, 8), b=(12,), z1=(2, 5), z2=(2, 5), h=(3,))

    def build(p):
        first = ad.gated_cell(p["w"], p["b"], [p["z1"]], p["h"])
        return ad.sum_all(ad.gated_cell(p["w"], p["b"], [p["z2"]], ad.row(first, np.array(1))))

    _fd_check(build, params)


@pytest.mark.parametrize("case", range(4))
def test_gated_cell_sequence_gradients_against_finite_differences(case):
    """T > 1 steps of a batch of 3: per-instance inputs, one-hot rows shared by the batch,
    and a part laid out as a shared first step followed by per-instance steps."""
    rng = np.random.default_rng(330 + case)
    params = _store(rng, w=(16, 4 + 3 + 2 + 4), b=(16,), x=(3, 5, 4), s=(2,), r=(3, 4, 2),
                    h=(3, 4))
    onehots = Tensor(np.eye(5)[[0, 1, 2, 2, 2]][:, :3])

    def build(p):
        return ad.sum_all(ad.tanh(ad.gated_cell(p["w"], p["b"],
                                                [p["x"], onehots, [p["s"], p["r"]]], p["h"])))

    _fd_check(build, params)


def _cell_run(w, b, parts, h):
    """Forward values and every leaf gradient of one cell call under a tanh readout."""
    leaves = [Tensor(t, requires_grad=True) for t in (w, b, h, *parts)]
    with Tape() as t:
        hs = ad.gated_cell(leaves[0], leaves[1], leaves[3:], leaves[2])
        out = ad.sum_all(ad.tanh(hs))
    t.backward(out)
    return hs.values, [leaf.grad for leaf in leaves]


def test_gated_cell_parts_equal_their_concatenation_bitwise():
    rng = np.random.default_rng(61)
    w, b = rng.uniform(-2, 2, (12, 8)), rng.uniform(-2, 2, 12)
    a, y, h = (rng.uniform(-2, 2, k) for k in ((2, 3), (2, 2), 3))
    hs2, (gw2, gb2, gh2, ga, gy) = _cell_run(w, b, [a, y], h)
    hs1, (gw1, gb1, gh1, gay) = _cell_run(w, b, [np.concatenate([a, y], axis=-1)], h)
    for two, one in ((hs2, hs1), (gw2, gw1), (gb2, gb1), (gh2, gh1),
                     (np.concatenate([ga, gy], axis=-1), gay)):
        assert two.tobytes() == one.tobytes()


def test_gated_cell_steps_equal_single_steps_bitwise():
    """A T-step call makes each step's calls: every state equals the one that chained
    ``_cell_step`` calls from a zero cell state reach, as in the untaped decode."""
    rng = np.random.default_rng(63)
    w, b = rng.uniform(-2, 2, (16, 9)), rng.uniform(-2, 2, 16)
    x, start, h = rng.uniform(-2, 2, (3, 4, 5)), rng.uniform(-2, 2, 5), rng.uniform(-2, 2, (3, 4))
    hs = ad.gated_cell(Tensor(w), Tensor(b), [[Tensor(start), Tensor(x)]], Tensor(h)).values
    assert hs.shape == (3, 5, 4)
    z, c, work = np.empty((3, 9)), np.zeros((3, 4)), ad._cell_work((3,), b)
    for t in range(5):
        z[:, :5], z[:, 5:] = start if t == 0 else x[:, t - 1], h
        h = np.empty((3, 4))
        ad._cell_step(w, z, c, h, work)
        assert h.tobytes() == hs[:, t].tobytes()


def _reference_mv(m, v):
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def _reference_cell_step(wv, bv, zv, cv):
    """The out-of-place cell step that the in-place kernel replaced: gates, candidate, c, h."""
    hdim = cv.shape[-1]
    pre = _reference_mv(wv, zv) + bv
    gates = 0.5 * (np.tanh(0.5 * pre[..., :3 * hdim]) + 1.0)  # sigmoid of i, f, o
    gg = np.tanh(pre[..., 3 * hdim:])
    cv = gates[..., hdim:2 * hdim] * cv + gates[..., :hdim] * gg
    return gates, gg, cv, gates[..., 2 * hdim:] * np.tanh(cv)


def _signed_zeros(rng, x):
    """x with about a tenth of its entries set to +0.0 or -0.0."""
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.05] = -0.0
    return x


@settings(max_examples=500)
@given(st.one_of(st.none(), st.integers(1, 64)),
       st.one_of(st.sampled_from([6, 16]), st.integers(1, 32)),
       st.integers(1, 8), st.sampled_from([0.5, 2.0, 40.0]), st.integers(0, 2 ** 32 - 1))
def test_the_in_place_cell_step_equals_the_out_of_place_step_bitwise(batch, hdim, width, gain,
                                                                     seed):
    """Lone and batched steps, gates saturated at the larger gains, +-0.0 entries, and h
    written into a strided step slot of a (..., T, hidden) array, as ``gated_cell`` does;
    two steps in a row reuse one workspace."""
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    w = _signed_zeros(rng, gain * rng.normal(size=(4 * hdim, width + hdim)))
    b = _signed_zeros(rng, gain * rng.normal(size=4 * hdim))
    z = _signed_zeros(rng, rng.normal(size=lead + (width + hdim,)))
    c = _signed_zeros(rng, rng.normal(size=lead + (hdim,)))
    hs, work, ref_c = np.empty(lead + (3, hdim)), ad._cell_work(lead, b), c.copy()
    for t in (1, 2):
        gates, gg, ref_c, ref_h = _reference_cell_step(w, b, z, ref_c)
        ad._cell_step(w, z, c, hs[..., t, :], work)
        assert work[0][..., :3 * hdim].tobytes() == gates.tobytes()
        assert work[0][..., 3 * hdim:].tobytes() == gg.tobytes()
        assert c.tobytes() == ref_c.tobytes()
        assert hs[..., t, :].tobytes() == ref_h.tobytes()
        z[..., width:] = ref_h


@settings(max_examples=100)
@given(st.one_of(st.none(), st.integers(1, 16)), st.integers(1, 40),
       st.sampled_from([6, 16]), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_pointer_scores_with_and_without_buffers_equal_the_formula_bitwise(batch, n, a, shared_w,
                                                                          seed):
    """Scores written into a reused tanh buffer and a strided step slot equal fresh arrays."""
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    m = _signed_zeros(rng, 2.0 * rng.normal(size=lead + (n, a)))
    w = rng.normal(size=(a,) if shared_w else lead + (a,))
    t, scores = np.empty(lead + (n, a)), np.empty(lead + (3, n))
    for step in range(3):
        ctx = _signed_zeros(rng, rng.normal(size=lead + (a,)))
        expect = _reference_mv(np.tanh(m + ctx[..., None, :]), w)
        assert ad._pointer_scores(m, ctx, w).tobytes() == expect.tobytes()
        ad._pointer_scores(m, ctx, w, t, scores[..., step, :])
        assert scores[..., step, :].tobytes() == expect.tobytes()


def test_gated_cell_batch_with_a_shared_part():
    rng = np.random.default_rng(62)
    params = _store(rng, w=(16, 9), b=(16,), x=(3, 2, 2), s=(2, 3), h=(3, 4))
    _fd_check(lambda p: ad.sum_all(ad.tanh(ad.gated_cell(p["w"], p["b"], [p["x"], p["s"]],
                                                         p["h"]))), params)
    hs = ad.gated_cell(params["w"], params["b"], [params["x"], params["s"]], params["h"])
    for i in range(3):
        hsi = ad.gated_cell(params["w"], params["b"], [Tensor(params["x"].values[i]), params["s"]],
                            Tensor(params["h"].values[i]))
        assert np.array_equal(hs.values[i], hsi.values)


def test_gated_cell_broadcasts_only_a_shared_part():
    w, b = Tensor(np.ones((8, 5))), Tensor(np.zeros(8))
    single = ad.gated_cell(w, b, [Tensor(np.ones((1, 3)))], Tensor(np.ones(2)))
    batched = ad.gated_cell(w, b, [Tensor(np.ones((4, 1, 3)))], Tensor(np.ones((4, 2))))
    # a single request stays unbatched; parts that already share the batch keep it
    assert single.values.shape == (1, 2) and batched.values.shape == (4, 1, 2)
    assert all(np.array_equal(row, single.values) for row in batched.values)
    shared = Tensor(np.arange(6.0).reshape(2, 3))
    hs = ad.gated_cell(w, b, [shared], Tensor(np.ones((4, 2))))
    assert hs.values.shape == (4, 2, 2)
    copied = ad.gated_cell(w, b, [Tensor(np.tile(shared.values, (4, 1, 1)))],
                           Tensor(np.ones((4, 2))))
    assert hs.values.tobytes() == copied.values.tobytes()  # every instance reads the part


def test_gated_cell_batch_shape_errors():
    w, b = Tensor(np.zeros((8, 5))), Tensor(np.zeros(8))
    with pytest.raises(ShapeError, match="input parts"):
        ad.gated_cell(w, b, [Tensor(np.zeros((3, 1, 3)))], Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match="step counts"):
        ad.gated_cell(Tensor(np.zeros((8, 6))), b, [Tensor(np.zeros((2, 3))),
                                                    Tensor(np.zeros((3, 1)))],
                      Tensor(np.zeros(2)))
    with pytest.raises(ShapeError, match="step counts"):  # a part covering no step
        ad.gated_cell(w, b, [Tensor(np.zeros((0, 3)))], Tensor(np.zeros(2)))


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
