"""Grouped (batched) model path against the same instances one at a time."""
import numpy as np
import pytest

from arrangerank.autodiff import Tensor, add, grad_check
from arrangerank.clickmodels import ClickModelSpec, oracle_permutation, r_cm
from arrangerank.data import DatasetSplit
from arrangerank.evaluation import evaluate
from arrangerank.loss import LossReport
from arrangerank.model import (batch_loss, init_params, instance_loss, rank_instance,
                               rank_instances, shape_groups)
from arrangerank.training import TrainConfig, save_model, train

from conftest import make_instance, spread_params, tiny_dims

KINDS = ("starank", "starank_pi_mlp", "starank_ps_mlp", "pointwise_baseline")


def mixed_pool(n_inst=48, seed=0, max_n=12, max_hist=5):
    """Slate sizes 2..max_n and history lengths 0..max_hist; every third
    instance has two candidates with identical features (an exact tie)."""
    rng = np.random.default_rng(seed)
    pool = []
    for k in range(n_inst):
        n = int(rng.integers(2, max_n + 1))
        ids = rng.permutation(100)[:n].tolist()
        inst = make_instance(seed=seed * 1000 + k, n=n, hist_len=int(rng.integers(0, max_hist + 1)),
                             ids=ids)
        if k % 3 == 0:
            inst.cands.features[-1] = inst.cands.features[0]
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=k)
        pool.append(inst)
    return pool


@pytest.mark.parametrize("kind", KINDS)
def test_grouped_ranking_equals_batch_of_one(kind):
    pool = mixed_pool()
    assert len(shape_groups(pool)) < len(pool)  # some groups really batch
    params = spread_params(kind, tiny_dims(max_list_len=12), 3)
    grouped = rank_instances(kind, params, pool)
    assert [pi.order for pi in grouped] == [rank_instance(kind, params, inst).order
                                            for inst in pool]
    # evaluate's table is the mean of the single-instance tables, summed in order
    table = evaluate(params, kind, pool, ks=(3, 5, 10))
    singles = [evaluate(params, kind, [inst], ks=(3, 5, 10)).means for inst in pool]
    assert table.means == {c: sum(s[c] for s in singles) / len(pool) for c in table.columns}


def test_grouped_exact_ties_break_by_smallest_id():
    pool = mixed_pool(seed=1)
    for kind in ("starank", "starank_pi_mlp", "starank_ps_mlp"):
        params = spread_params(kind, tiny_dims(max_list_len=12), 4)
        for k, (inst, pi) in enumerate(zip(pool, rank_instances(kind, params, pool))):
            if k % 3 == 0:
                # the tied pair shares every score, so the smaller id (stored first)
                # wins each step at which both are still unplaced
                low, high = inst.cands.ids[0], inst.cands.ids[-1]
                assert pi.order.index(low) < pi.order.index(high)
    params = init_params("starank", tiny_dims(max_list_len=12), 0)
    params["ptr.P"].values[:] = 0.0  # every score equal: ascending ids throughout
    for inst, pi in zip(pool, rank_instances("starank", params, pool)):
        assert pi.order == inst.cands.ids


@pytest.mark.parametrize("kind,variant", [(k, "listwise") for k in KINDS] +
                         [("starank", "summation")])
def test_batched_losses_equal_single_instance_losses(kind, variant):
    pool = mixed_pool(seed=2)
    params = spread_params(kind, tiny_dims(max_list_len=12), 5)
    for positions in shape_groups(pool):
        group = [pool[p] for p in positions]
        rep = batch_loss(kind, params, group, loss_variant=variant)
        losses, terms_rows = np.reshape(rep.losses, -1), np.reshape(rep.terms, (len(group), -1))
        for inst, loss, terms in zip(group, losses, terms_rows):
            single = instance_loss(kind, params, inst, loss_variant=variant)
            assert abs(loss - single.total) <= 1e-12
            assert np.max(np.abs(terms - single.per_position)) <= 1e-12
        assert abs(rep.total - float(rep.tensor.values)) <= 1e-12


@pytest.mark.parametrize("kind", ("starank", "pointwise_baseline"))
def test_gradient_check_through_mixed_shape_batches(kind):
    pool = mixed_pool(n_inst=40, seed=3, max_n=4, max_hist=2)
    groups = [[pool[p] for p in pos] for pos in shape_groups(pool) if len(pos) > 1][:3]
    assert len(groups) == 3 and len({(len(g[0].cands), g[0].ctx.history.shape[0])
                                     for g in groups}) == 3
    params = init_params(kind, tiny_dims(embed=5, max_list_len=4), 70)

    def f(ps):
        total = Tensor(0.0)
        for group in groups:
            total = add(total, batch_loss(kind, ps, group).tensor)
        return total

    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_training_on_mixed_shapes_writes_identical_checkpoints(tmp_path):
    cfg = TrainConfig(lr_initial=5e-3, lr_final=1e-3, epochs=3, batch_size=8, l2_weight=1e-5,
                      dropout_rate=0.5, seed=4, embedding_dim=6, max_list_len=12)
    for kind in ("starank", "pointwise_baseline"):
        blobs = []
        for run in range(2):
            params, _ = train(kind, DatasetSplit(train=mixed_pool(seed=5)), "ndcg", cfg)
            path = tmp_path / f"{kind}{run}.txt"
            save_model(params, path, kind, tiny_dims(), cfg)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def test_evaluate_click_metrics_are_prefix_sums_of_one_dp():
    pool = mixed_pool(seed=6)
    params = spread_params("starank", tiny_dims(max_list_len=12), 6)
    specs = {"P": ClickModelSpec(kind="pbm"), "U": ClickModelSpec(kind="ubm", tau=0.7)}
    table = evaluate(params, "starank", pool, ks=(2, 5, 7), click_specs=specs)
    ranked = rank_instances("starank", params, pool)
    for name, spec in specs.items():
        for k in (2, 5, 7):
            total = 0.0
            for inst, pi in zip(pool, ranked):
                total += r_cm(pi, inst.labels, spec, k).value
            assert table.means[f"{name}@{k}"] == total / len(pool)


def test_loss_report_rejects_negative_losses_beyond_rounding():
    rep = LossReport(losses=np.array(-1e-15), terms=np.array([-1e-15]), tensor=Tensor(0.0))
    assert rep.total == 0.0 and rep.per_position == [0.0]
    with pytest.raises(FloatingPointError):
        LossReport(losses=np.array([0.5, -1e-9]), terms=np.zeros((2, 3)), tensor=Tensor(0.0))
