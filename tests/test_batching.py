"""Grouped (batched) model path against the same instances one at a time."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangerank import autodiff as ad
from arrangerank.arranger import (forced_log_probs, greedy_orders, greedy_step_probs,
                                  step_scores, summation_log_probs, target_indices)
from arrangerank.autodiff import GraphError, Tape, Tensor, add, grad_check
from arrangerank.clickmodels import ClickModelSpec, oracle_permutation, r_cm
from arrangerank.data import DatasetSplit
from arrangerank.evaluation import MetricTable, accuracy_at_position, evaluate, score_rankings
from arrangerank.loss import LossReport
from arrangerank.model import (batch_loss, init_params, rank_instance, rank_instances,
                               read_group, shape_groups)
from arrangerank.reader import DropoutPlan, Group
from arrangerank.training import TrainConfig, save_model, train

from conftest import make_instance, spread_params, taped_decode, tiny_dims

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
    one_shape = [make_instance(seed=k, n=5, hist_len=2) for k in range(250)]
    assert shape_groups(one_shape) == [list(range(250))]  # one run, however long
    params = spread_params(kind, tiny_dims(max_list_len=12), 3)
    grouped = rank_instances(kind, params, pool)
    assert [pi.order for pi in grouped] == [rank_instance(kind, params, inst).order
                                            for inst in pool]
    # evaluate's table is the mean of the single-instance tables, summed in order
    table = evaluate(params, kind, pool, ks=(3, 5, 10))
    singles = [evaluate(params, kind, [inst], ks=(3, 5, 10)).means for inst in pool]
    assert table.means == {c: sum(s[c] for s in singles) / len(pool) for c in table.columns}


HISTORIES, SIZES = (0, 3, 7), (2, 5, 9, 12)


def crossed_pool(per_cell=3, seed=40):
    """Every history length in HISTORIES crossed with every slate size in SIZES, ``per_cell``
    instances per cell, interleaved so that the joint groups and both stage groupings all
    differ; every third instance has two candidates with identical features."""
    pool = []
    for k in range(per_cell * len(HISTORIES) * len(SIZES)):
        hist, n = HISTORIES[k % 3], SIZES[k // 3 % 4]
        inst = make_instance(seed=seed * 1000 + k, n=n, hist_len=hist,
                             ids=np.random.default_rng(k).permutation(100)[:n].tolist())
        if k % 3 == 0:
            inst.cands.features[-1] = inst.cands.features[0]
        pool.append(inst)
    return pool


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that every call records its first argument."""
    calls, real = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_ranking_runs_one_history_pass_per_length_and_one_decode_per_size(kind, monkeypatch):
    from arrangerank import baseline, evaluation, model

    pool = crossed_pool()
    assert len(shape_groups(pool)) == 12 and all(len(g) == 3 for g in shape_groups(pool))
    params = spread_params(kind, tiny_dims(max_list_len=12), 14)
    singles = [rank_instance(kind, params, inst).order for inst in pool]
    encoder = "encode_history_mlp" if kind == "starank_ps_mlp" else "encode_history"
    histories = _counting(monkeypatch, model, encoder)
    if kind == "pointwise_baseline":
        candidates = _counting(monkeypatch, baseline, "score_all")
        decodes = candidates
    else:
        candidates = _counting(monkeypatch, model, "encode_candidates_mlp"
                               if kind == "starank_pi_mlp" else "encode_candidates")
        decodes = _counting(monkeypatch, model, "greedy_orders")
    grouped = rank_instances(kind, params, pool)
    assert [pi.order for pi in grouped] == singles
    # one pass per distinct length, each over every instance of that length
    assert sorted(ctx.history.shape[:2] for ctx in histories) == [(12, h) for h in HISTORIES]
    assert sorted(c.features.shape[:2] for c in candidates) == [(9, n) for n in SIZES]
    assert len(decodes) == len(SIZES)
    clicks = _counting(monkeypatch, evaluation, "click_rows")
    grades = _counting(monkeypatch, evaluation, "served_grades")
    specs = {"P": ClickModelSpec(kind="pbm", tau=0.5), "U": ClickModelSpec(kind="ubm", tau=0.7)}
    table = score_rankings(grouped, pool, ks=(3, 5, 10), click_specs=specs)
    assert len(grades) == len(SIZES) and len(clicks) == 2 * len(SIZES)
    evaluation.accuracy_at_position(grouped, pool)
    assert len(grades) == 2 * len(SIZES)
    # the table is the in-order mean of the single-instance tables, as CSV and to the bit
    alone = [score_rankings([pi], [inst], ks=(3, 5, 10), click_specs=specs).means
             for pi, inst in zip(grouped, pool)]
    means = {c: sum(s[c] for s in alone) / len(pool) for c in table.columns}
    assert repr(table.means) == repr(means)
    assert table.to_csv() == MetricTable(table.columns, means, len(pool)).to_csv()


@pytest.mark.parametrize("kind", KINDS)
def test_staged_evaluate_equals_the_single_instance_tables(kind):
    pool = crossed_pool(per_cell=2, seed=41)
    params = spread_params(kind, tiny_dims(max_list_len=12), 15)
    table = evaluate(params, kind, pool, ks=(2, 5))
    alone = [evaluate(params, kind, [inst], ks=(2, 5)).means for inst in pool]
    means = {c: sum(s[c] for s in alone) / len(pool) for c in table.columns}
    assert repr(table.means) == repr(means)
    assert table.to_csv() == MetricTable(table.columns, means, len(pool)).to_csv()
    ranked = rank_instances(kind, params, pool)
    # per position: the in-order count of hits over the count of slates that reach it
    hits = [accuracy_at_position([pi], [inst]) for pi, inst in zip(ranked, pool)]
    want = [sum(h[k] for h in hits if len(h) > k) / sum(len(h) > k for h in hits)
            for k in range(max(SIZES))]
    assert accuracy_at_position(ranked, pool).tolist() == want


@settings(max_examples=200)
@given(st.sampled_from(KINDS), st.lists(st.tuples(st.integers(0, 12), st.integers(1, 12)),
                                        min_size=1, max_size=30), st.integers(0, 2 ** 32 - 1))
def test_ranking_and_evaluate_equal_the_per_instance_results_on_any_pool(kind, shapes, seed):
    """Histories 0-12 and slates 1-12 in any mix; every third slate has an exact tie."""
    rng = np.random.default_rng(seed)
    pool = []
    for k, (hist, n) in enumerate(shapes):
        inst = make_instance(seed=int(rng.integers(2 ** 32)), n=n, hist_len=hist,
                             ids=rng.permutation(100)[:n].tolist())
        if k % 3 == 0:
            inst.cands.features[-1] = inst.cands.features[0]
        pool.append(inst)
    params = spread_params(kind, tiny_dims(max_list_len=12), 16)
    assert [pi.order for pi in rank_instances(kind, params, pool)] == [
        rank_instance(kind, params, inst).order for inst in pool]
    table = evaluate(params, kind, pool, ks=(2, 5))
    alone = [evaluate(params, kind, [inst], ks=(2, 5)).means for inst in pool]
    assert repr(table.means) == repr({c: sum(s[c] for s in alone) / len(pool)
                                      for c in table.columns})


def test_a_group_stacks_only_the_parts_a_stage_reads():
    pool = crossed_pool(per_cell=1)
    group = Group([inst for inst in pool if len(inst.cands) == SIZES[0]])
    assert group.ids == tuple(inst.cands.ids for inst in group.instances)
    assert group.features.shape == (3, SIZES[0], 4)
    assert "profile" not in vars(group) and "history" not in vars(group)  # mixed histories
    with pytest.raises(ValueError):
        group.history


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
            single = batch_loss(kind, params, [inst], loss_variant=variant)
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


@pytest.mark.parametrize("kind", KINDS)
def test_evaluate_scores_the_model_s_own_rankings(kind):
    pool = mixed_pool(seed=7)
    params = spread_params(kind, tiny_dims(max_list_len=12), 7)
    specs = {"P": ClickModelSpec(kind="pbm", tau=0.5), "U": ClickModelSpec(kind="ubm", tau=0.7)}
    table = evaluate(params, kind, pool, ks=(2, 5, 7), click_specs=specs)
    want = score_rankings(rank_instances(kind, params, pool), pool, ks=(2, 5, 7),
                          click_specs=specs)
    assert (table.columns, table.means) == (want.columns, want.means)


def test_model_dispatch_rejects_unknown_kinds_and_variants_and_missing_oracles():
    inst = make_instance(seed=1, n=3)
    with pytest.raises(ValueError, match="unknown model kind 'ranknet'"):
        init_params("ranknet", tiny_dims(), 0)
    with pytest.raises(ValueError, match="unknown model kind 'oracle_replay'"):
        rank_instance("oracle_replay", init_params("starank", tiny_dims(), 0), inst)
    with pytest.raises(ValueError, match="test:1 has no oracle permutation"):
        batch_loss("starank", init_params("starank", tiny_dims(), 0), [inst])
    inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=0)
    with pytest.raises(ValueError, match="unknown loss variant 'pairwise'"):
        batch_loss("starank", init_params("starank", tiny_dims(), 0), [inst],
                   loss_variant="pairwise")


def test_loss_report_rejects_negative_losses_beyond_rounding():
    rep = LossReport(losses=np.array(-1e-15), terms=np.array([-1e-15]), tensor=Tensor(0.0))
    assert rep.total == 0.0 and rep.per_position == [0.0]
    with pytest.raises(FloatingPointError):
        LossReport(losses=np.array([0.5, -1e-9]), terms=np.zeros((2, 3)), tensor=Tensor(0.0))


def _per_step_terms(rout, params, targets, variant="listwise"):
    """Reference: the taped decode loop, teacher-forced one step at a time, or (the
    summation foil) following its own greedy picks and scoring over every item."""
    terms = []

    def choose(logits, mask):
        target = targets[..., len(terms), None]
        if variant == "summation":
            terms.append(ad.masked_log_prob(logits, np.ones_like(mask), target))
            return np.argmax(np.where(mask, logits.values, -np.inf), axis=-1)
        terms.append(ad.masked_log_prob(logits, mask, target))
        return target

    taped_decode(rout, params, choose)
    return terms


def _taped_loss(kind, params, group, one_pass, variant="listwise"):
    """Losses, per-position terms and every parameter gradient of one group."""
    params.zero_grads()
    drop = DropoutPlan(0.3, np.random.default_rng(11))
    targets = [target_indices(inst.cands.ids, inst.oracle) for inst in group]
    with Tape() as tape:
        rout = read_group(kind, params, group, drop)
        targets = np.reshape(targets, rout.reprs.values.shape[:-1])  # a lone instance: (n,)
        if one_pass:
            log_probs = summation_log_probs if variant == "summation" else forced_log_probs
            log_p = log_probs(rout, params, targets)
            terms, total = log_p.values, ad.sum_all(log_p)
        else:
            steps = _per_step_terms(rout, params, targets, variant)
            terms = np.concatenate([t.values for t in steps], axis=-1)
            total = ad.sum_all(steps[0])
            for t in steps[1:]:
                total = add(total, ad.sum_all(t))
        loss = ad.mul(total, Tensor(-1.0))
    recorded = len(tape._steps)  # backward empties the tape
    tape.backward(loss)
    grads = {name: p.grad.copy() for name, p in params.items() if p.grad is not None}
    return -terms.sum(axis=-1), -terms, grads, recorded


def _assert_one_pass_equals_per_step(kind, variant):
    pool = mixed_pool(seed=7)
    params = spread_params(kind, tiny_dims(max_list_len=12), 8)
    for positions in shape_groups(pool):
        group = [pool[p] for p in positions]
        losses, terms, grads, _ = _taped_loss(kind, params, group, True, variant)
        ref_losses, ref_terms, ref_grads, _ = _taped_loss(kind, params, group, False, variant)
        assert np.max(np.abs(losses - ref_losses)) <= 1e-12
        assert np.max(np.abs(terms - ref_terms)) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert np.max(np.abs(g - ref_grads[name])) <= 1e-12, name


@pytest.mark.parametrize("kind", ("starank", "starank_pi_mlp", "starank_ps_mlp"))
def test_one_pass_forced_loss_equals_the_per_step_decode(kind):
    _assert_one_pass_equals_per_step(kind, "listwise")


@pytest.mark.parametrize("kind", ("starank", "starank_pi_mlp", "starank_ps_mlp"))
def test_one_pass_summation_foil_equals_the_per_step_decode(kind):
    _assert_one_pass_equals_per_step(kind, "summation")


def _oracle_group(size=40, n=10, n_features=4):
    group = [make_instance(seed=900 + k, n=n, n_features=n_features, hist_len=8)
             for k in range(size)]
    for k, inst in enumerate(group):
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=k)
    return group


def test_forced_group_records_a_short_tape():
    group = _oracle_group()
    params = init_params("starank", tiny_dims(max_list_len=10), 9)
    *_, steps = _taped_loss("starank", params, group, one_pass=True)
    *_, per_step = _taped_loss("starank", params, group, one_pass=False)
    assert steps == 23 < per_step
    for drop, recorded in ((None, 21), (DropoutPlan(0.3, np.random.default_rng(0)), 23)):
        with Tape() as tape:
            rep = batch_loss("starank", params, group, drop=drop)
        assert len(tape._steps) == recorded
        tape.backward(rep.tensor)


def test_summation_group_records_a_short_tape():
    group = _oracle_group()
    params = init_params("starank", tiny_dims(max_list_len=10), 9)
    with Tape() as tape:
        rep = batch_loss("starank", params, group, drop=DropoutPlan(0.3, np.random.default_rng(0)),
                         loss_variant="summation")
    assert len(tape._steps) == 23
    tape.backward(rep.tensor)


def test_backward_empties_the_tape_and_runs_once():
    group = _oracle_group()
    params = init_params("starank", tiny_dims(max_list_len=10), 9)
    with Tape() as tape:
        rep = batch_loss("starank", params, group)
    tape.backward(rep.tensor)
    assert tape._steps == [] and params["ptr.P"].grad is not None
    with pytest.raises(GraphError, match="backward already ran"):
        tape.backward(rep.tensor)


def test_backward_peak_stays_near_what_the_tape_holds():
    """A 100-instance group's backward frees each entry's arrays once pulled and builds
    no (..., T, n, a) temporary, so it adds little to what the forward left on the tape."""
    group = _oracle_group(size=100, n_features=8)
    params = init_params("starank", tiny_dims(n_features=8, embed=16, max_list_len=10), 9)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            rep = batch_loss("starank", params, group)
        held = tracemalloc.get_traced_memory()[0] - base
        tape.backward(rep.tensor)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * held, f"peak {peak} B against {held} B held after the forward"


def test_decode_inside_a_tape_records_nothing():
    group = _oracle_group(n=6)
    params = spread_params("starank", tiny_dims(max_list_len=6), 10)
    with Tape() as tape:
        routs = [read_group("starank", params, group), read_group("starank", params, group[:1])]
        assert all(r.reprs.requires_grad and r.user_vec.requires_grad for r in routs)
        recorded = len(tape._steps)
        for rout in routs:
            greedy_orders(rout, params)
    assert len(tape._steps) == recorded


@pytest.mark.parametrize("size,n", [(2, 4), (3, 3)])
def test_single_request_decoders_reject_a_group_naming_it(size, n):
    params = spread_params("starank", tiny_dims(max_list_len=n), 11)
    group = [make_instance(seed=40 + k, n=n, hist_len=2) for k in range(size)]
    rout = read_group("starank", params, group)
    for name, decode in (("greedy_step_probs", lambda r: greedy_step_probs(r, params)[0]),
                         ("step_scores", lambda r: step_scores(r, params))):
        with pytest.raises(ValueError, match=rf"^{name} decodes one instance; got a group of "
                                             rf"{size}$"):
            decode(rout)
        got = decode(read_group("starank", params, group[:1]))  # a lone instance still decodes
        assert sorted(got) == sorted(group[0].labels)


def _taped_greedy(rout, params):
    """Taped reference: each step places the highest-scoring unplaced item; the per-step
    softmax is kept beside it."""
    probs = []

    def choose(logits, mask):
        probs.append(ad.softmax_masked(logits, mask).values)
        return np.argmax(np.where(mask, logits.values, -np.inf), axis=-1)

    order = taped_decode(rout, params, choose)
    return order, np.concatenate(probs, axis=-2)


@pytest.mark.parametrize("kind", ("starank", "starank_pi_mlp", "starank_ps_mlp"))
def test_greedy_decode_equals_the_taped_per_step_loop_bitwise(kind):
    pool = mixed_pool(seed=8)
    params = spread_params(kind, tiny_dims(max_list_len=12), 12)
    for positions in shape_groups(pool):
        for group in ([pool[p] for p in positions], [pool[positions[-1]]]):
            rout = read_group(kind, params, group)
            order = greedy_orders(rout, params)
            ref_order, ref_probs = _taped_greedy(rout, params)
            assert order.shape == ref_order.shape
            assert order.tobytes() == ref_order.tobytes()
            if len(group) == 1:  # the one decode that keeps its distributions
                pi, probs = greedy_step_probs(rout, params)
                assert pi.order == tuple(group[0].cands.ids[k] for k in ref_order)
                assert probs.shape == ref_probs.shape
                assert probs.tobytes() == ref_probs.tobytes()
