import numpy as np

from arrangerank import autodiff as ad
from arrangerank.autodiff import Tensor, grad_check
from arrangerank.baseline import grade_loss, score_all
from arrangerank.model import init_params, rank_instance, rank_instances
from arrangerank.permutation import Permutation
from arrangerank.reader import CandidateSet, encode_history

from conftest import make_instance, tiny_dims


def test_zero_weights_constant_score():
    params = init_params("pointwise_baseline", tiny_dims(), 0)
    for name in ("pw.W1x", "pw.W1u", "pw.b1", "pw.w2"):
        params[name].values[:] = 0.0
    params["pw.b2"].values = np.asarray(0.75)
    rng = np.random.default_rng(0)
    u = Tensor(rng.normal(size=6))
    cands = CandidateSet((i, rng.normal(size=4)) for i in range(5))
    vals = [float(v) for v in score_all(cands, u, params).values]
    assert vals == [0.75] * 5


def test_identical_items_identical_scores():
    params = init_params("pointwise_baseline", tiny_dims(), 1)
    rng = np.random.default_rng(1)
    u = Tensor(rng.normal(size=6))
    x = rng.normal(size=4)
    one = CandidateSet([(0, x)])
    assert float(score_all(one, u, params).values[0]) == float(score_all(one, u, params).values[0])
    inst = make_instance(seed=2, n=3)
    inst.cands.features[1] = inst.cands.features[0]
    s = score_all(inst.cands, u, params).values
    assert s[0] == s[1]


def test_score_gradient_check():
    params = init_params("pointwise_baseline", tiny_dims(embed=5), 2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=4)
    uvals = rng.normal(size=5)

    def f(ps):
        return ad.sum_all(score_all(CandidateSet([(0, x)]), Tensor(uvals), ps))

    assert grad_check(f, params) < 1e-4


def test_pointwise_loss_gradient_check():
    params = init_params("pointwise_baseline", tiny_dims(embed=5), 3)
    inst = make_instance(seed=4, n=4)
    rng = np.random.default_rng(4)
    uvals = rng.normal(size=5)
    targets = np.array([inst.labels[i] / 4 for i in inst.cands.ids])

    def f(ps):
        return grade_loss(inst.cands, Tensor(uvals), ps, targets).tensor

    assert grad_check(f, params) < 1e-4


def _pointwise_orders(params, instances):
    return [pi.order for pi in rank_instances("pointwise_baseline", params, instances)]


def _by_score(params, inst):
    """Ids by descending ``score_all`` score, exact ties by ascending id."""
    scores = score_all(inst.cands, encode_history(inst.ctx, params), params).values
    by_id = dict(zip(inst.cands.ids, scores.tolist()))
    return tuple(sorted(by_id, key=lambda i: (-by_id[i], i)))


def test_pointwise_ranking_examples():
    params = init_params("pointwise_baseline", tiny_dims(), 0)
    for name in params.names():
        params[name].values[...] = 0.0
    params["pw.W1x"].values[0, 0] = params["pw.w2"].values[0] = 1.0  # score = tanh(feature 0)
    inst = make_instance(seed=0, n=3, ids=[1, 2, 3])
    inst.cands.features[:, 0] = [0.2, 0.9, 0.5]
    assert _pointwise_orders(params, [inst]) == [(2, 3, 1)]
    params["pw.W1x"].values[0, 0] = 0.0  # every score equal: ascending ids, in a group too
    tied = [make_instance(seed=1, n=3, ids=[7, 3, 5]), make_instance(seed=2, n=3, ids=[9, 1, 4])]
    assert _pointwise_orders(params, tied) == [(3, 5, 7), (1, 4, 9)]


def test_pointwise_ranking_is_the_descending_score_order_whatever_the_storage_order():
    params = init_params("pointwise_baseline", tiny_dims(), 5)
    rng = np.random.default_rng(5)
    pool = []
    for k in range(12):
        ids = rng.permutation(20)[:int(rng.integers(2, 9))].tolist()
        inst = make_instance(seed=k, n=len(ids), ids=ids)
        if k % 3 == 0:
            inst.cands.features[-1] = inst.cands.features[0]  # an exact tie, smallest id first
        pool.append(inst)
    base = _pointwise_orders(params, pool)
    assert base == [_by_score(params, inst) for inst in pool]
    for inst, order in zip(pool[::3], base[::3]):
        assert order.index(inst.cands.ids[0]) < order.index(inst.cands.ids[-1])
    for inst in pool:  # the same candidates supplied largest id first
        inst.cands = CandidateSet(zip(inst.cands.ids[::-1], inst.cands.features[::-1]))
    assert _pointwise_orders(params, pool) == base
    params["pw.w2"].values *= 4.0  # a strictly increasing map of every score
    params["pw.b2"].values = params["pw.b2"].values * 4.0 + 0.5
    assert _pointwise_orders(params, pool) == base


def test_rank_instance_pointwise_uses_sort():
    params = init_params("pointwise_baseline", tiny_dims(), 6)
    inst = make_instance(seed=7, n=5)
    pi = rank_instance("pointwise_baseline", params, inst)
    assert isinstance(pi, Permutation)
    assert sorted(pi.order) == sorted(inst.cands.ids)
