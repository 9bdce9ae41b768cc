import numpy as np
import pytest

from arrangerank.arranger import permutation_log_prob
from arrangerank.autodiff import grad_check
from arrangerank.clickmodels import oracle_permutation
from arrangerank.loss import listwise_loss, sequence_loss
from arrangerank.model import init_params, instance_loss, read_instance
from arrangerank.permutation import BijectionError, Permutation
from arrangerank.training import TrainConfig, train
from arrangerank.data import DatasetSplit

from conftest import make_instance, spread_params, tiny_dims


def _setup(seed=0, n=4, gain=2.0):
    params = spread_params("starank", tiny_dims(max_list_len=max(n, 6)), seed, gain)
    inst = make_instance(seed=seed, n=n)
    rout = read_instance("starank", params, inst)
    return rout, params, inst


def test_single_candidate_loss_is_zero():
    rout, params, _ = _setup(n=1)
    rep = listwise_loss(rout, params, Permutation(rout.ids))
    assert rep.total == 0.0 and rep.per_position == [0.0]


def test_equal_logits_closed_forms():
    params = init_params("starank", tiny_dims(), 1)
    params["ptr.P"].values[:] = 0.0
    for n, expect in ((2, np.log(2.0)), (4, np.log(24.0))):
        inst = make_instance(seed=n, n=n)
        rout = read_instance("starank", params, inst)
        rep = listwise_loss(rout, params, Permutation(rout.ids))
        assert abs(rep.total - expect) < 1e-12
    assert abs(np.log(24.0) - 3.1781) < 1e-4


def test_total_equals_sum_of_positions_and_nonnegative():
    for case in range(10):
        rout, params, _ = _setup(seed=case, n=5)
        rng = np.random.default_rng(case)
        rep = listwise_loss(rout, params, Permutation(rng.permutation(rout.ids).tolist()))
        assert abs(rep.total - sum(rep.per_position)) < 1e-12
        assert all(t >= 0.0 for t in rep.per_position)


def test_loss_is_negative_permutation_log_prob():
    for case in range(10):
        rout, params, _ = _setup(seed=20 + case, n=4)
        rng = np.random.default_rng(case)
        pi = Permutation(rng.permutation(rout.ids).tolist())
        rep = listwise_loss(rout, params, pi)
        lp = float(permutation_log_prob(rout, params, pi).values)
        assert abs(rep.total + lp) < 1e-12


def test_sequence_loss_rejects_an_unknown_variant():
    rout, params, _ = _setup(n=3)
    with pytest.raises(ValueError, match=r"^unknown loss variant 'bogus'$"):
        sequence_loss(rout, params, np.arange(3), "bogus")


def test_loss_rejects_invalid_target():
    rout, params, _ = _setup(n=3)
    with pytest.raises(BijectionError):
        listwise_loss(rout, params, Permutation([0, 1, 99]))


def test_gradient_check_full_listwise_loss():
    for case in range(3):
        inst = make_instance(seed=case, n=3 + case, hist_len=2)
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=case)
        params = init_params("starank", tiny_dims(embed=5), 50 + case)

        def f(ps):
            return instance_loss("starank", ps, inst).tensor

        assert grad_check(f, params, eps=1e-5) < 1e-4


def test_gradient_check_mlp_variants():
    for kind in ("starank_pi_mlp", "starank_ps_mlp"):
        inst = make_instance(seed=3, n=3, hist_len=2)
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=1)
        params = init_params(kind, tiny_dims(embed=5), 9)

        def f(ps):
            return instance_loss(kind, ps, inst).tensor

        assert grad_check(f, params, eps=1e-5) < 1e-4


def test_pointwise_summation_loss_base_cases():
    rout, params, _ = _setup(n=1)
    rep = sequence_loss(rout, params, np.arange(len(rout.ids)), "summation")
    assert rep.total == 0.0
    listw = listwise_loss(rout, params, Permutation(rout.ids))
    assert rep.total == listw.total


def test_pointwise_summation_loss_ignores_masking():
    # full-support softmax at every position: terms can exceed the masked ones
    rout, params, _ = _setup(seed=5, n=4)
    pi = Permutation(rout.ids)
    summation = sequence_loss(rout, params, np.arange(4), "summation")
    assert len(summation.per_position) == 4
    assert summation.per_position[-1] > 0.0  # masked loss would be exactly 0 here
    masked = listwise_loss(rout, params, pi)
    assert masked.per_position[-1] == 0.0


def test_loss_decreases_under_training_single_instance():
    inst = make_instance(seed=11, n=4, hist_len=2)
    split = DatasetSplit(train=[inst])
    cfg = TrainConfig(lr_initial=0.05, lr_final=0.05, epochs=60, batch_size=1,
                      l2_weight=0.0, dropout_rate=0.0, seed=0, embedding_dim=8,
                      optimizer="adam", max_list_len=6)
    params, log = train("starank", split, "ndcg", cfg)
    assert log[-1]["mean_loss"] < 0.5 * log[0]["mean_loss"]


def test_summation_loss_trains_worse_than_listwise():
    # the per-position summation loss ignores what the prefix removed from
    # contention; on contextual data it should rank worse at matched budget
    from dataclasses import replace

    from arrangerank.data import generate_synthetic, temporal_split
    from arrangerank.evaluation import evaluate
    from arrangerank.experiments import _fresh_split, small_config

    logs = generate_synthetic(200, history_len=6, context_strength=1.0, seed=55)
    split = temporal_split(logs)
    means = {}
    for variant in ("listwise", "summation"):
        n5 = []
        for seed in range(2):
            cfg = replace(small_config(seed=seed, epochs=3), loss_variant=variant)
            params, _ = train("starank", _fresh_split(split), "ndcg", cfg)
            n5.append(evaluate(params, "starank", split.test, ks=(5,)).means["N@5"])
        means[variant] = sum(n5) / len(n5)
    assert means["listwise"] > means["summation"], means
