import numpy as np

from arrangerank import autodiff as ad
from arrangerank.autodiff import Tensor, grad_check
from arrangerank.baseline import grade_loss, rank_by_sort, score_all
from arrangerank.model import init_params, rank_instance
from arrangerank.permutation import Permutation
from arrangerank.reader import CandidateSet

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

    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_pointwise_loss_gradient_check():
    params = init_params("pointwise_baseline", tiny_dims(embed=5), 3)
    inst = make_instance(seed=4, n=4)
    rng = np.random.default_rng(4)
    uvals = rng.normal(size=5)
    targets = np.array([inst.labels[i] / 4 for i in inst.cands.ids])

    def f(ps):
        return grade_loss(inst.cands, Tensor(uvals), ps, targets).tensor

    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_rank_by_sort_examples():
    assert rank_by_sort({1: 0.2, 2: 0.9, 3: 0.5}).order == (2, 3, 1)
    assert rank_by_sort({7: 1.0, 3: 1.0, 5: 1.0}).order == (3, 5, 7)


def test_rank_by_sort_input_order_and_monotone_invariance():
    rng = np.random.default_rng(5)
    scores = {int(i): float(rng.normal()) for i in rng.permutation(20)[:8]}
    base = rank_by_sort(scores)
    assert rank_by_sort(dict(reversed(list(scores.items())))).order == base.order
    squashed = {i: np.tanh(s) + 5 for i, s in scores.items()}  # strictly increasing map
    assert rank_by_sort(squashed).order == base.order


def test_rank_instance_pointwise_uses_sort():
    params = init_params("pointwise_baseline", tiny_dims(), 6)
    inst = make_instance(seed=7, n=5)
    pi = rank_instance("pointwise_baseline", params, inst)
    assert isinstance(pi, Permutation)
    assert sorted(pi.order) == sorted(inst.cands.ids)
