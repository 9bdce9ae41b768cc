import numpy as np
import pytest

from arrangerank.clickmodels import ClickModelSpec, oracle_permutation
from arrangerank.evaluation import (EmptyEvaluationError, accuracy_at_position, evaluate,
                                    export_attention, map_at_k)
from arrangerank.model import rank_instance
from arrangerank.permutation import Permutation

from conftest import make_instance, spread_params, tiny_dims


def _instances(n_inst=6, seed=0, with_oracle=True):
    out = []
    for k in range(n_inst):
        inst = make_instance(seed=seed + k, n=5)
        if with_oracle:
            inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=k)
        out.append(inst)
    return out


def test_map_at_k_basics():
    labels = {0: 4, 1: 0, 2: 3, 3: 0}
    pi = Permutation([0, 2, 1, 3])
    assert map_at_k(pi, labels, 2, threshold=2) == 1.0
    assert map_at_k(Permutation([1, 0, 3, 2]), labels, 2, threshold=2) == 0.25
    assert map_at_k(Permutation([1, 3, 0, 2]), labels, 2, threshold=2) == 0.0
    assert map_at_k(pi, {i: 0 for i in range(4)}, 5, threshold=2) == 0.0


def test_evaluate_oracle_replayer_perfect():
    table = evaluate(None, "oracle_replay", _instances(), ks=(5, 10))
    assert table.means["N@5"] == 1.0
    assert table.means["N@10"] == 1.0
    assert table.means["M@5"] == 1.0


def test_evaluate_random_on_equal_labels_degenerate():
    insts = []
    for k in range(5):
        inst = make_instance(seed=50 + k, n=5, labels={i: 2 for i in range(5)})
        insts.append(inst)
    table = evaluate(123, "uniform_random", insts, ks=(5,))
    assert table.means["N@5"] == 1.0


def test_evaluate_p5_under_certain_clicks():
    insts = [make_instance(seed=60 + k, n=6, labels={i: 4 for i in range(6)})
             for k in range(3)]
    spec = ClickModelSpec(kind="pbm", tau=0.0)
    for inst in insts:
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=0)
    table = evaluate(None, "oracle_replay", insts, ks=(5,), click_specs={"P": spec})
    assert abs(table.means["P@5"] - 5.0) < 1e-12


def test_evaluate_metric_ranges_and_purity():
    params = spread_params("starank", tiny_dims(n_features=4, max_list_len=6), 3)
    insts = _instances()
    t1 = evaluate(params, "starank", insts)
    t2 = evaluate(params, "starank", insts)
    assert t1.means == t2.means
    for k in (5, 10):
        assert 0.0 <= t1.means[f"N@{k}"] <= 1.0
        assert 0.0 <= t1.means[f"M@{k}"] <= 1.0
        assert 0.0 <= t1.means[f"P@{k}"] <= k
        assert 0.0 <= t1.means[f"U@{k}"] <= k


def test_evaluate_rejects_empty():
    with pytest.raises(EmptyEvaluationError):
        evaluate(None, "oracle_replay", [])


def test_evaluate_rejects_grades_above_r_max_naming_the_query():
    inst = make_instance(seed=3, n=2, labels={1: 9, 2: 0}, ids=[1, 2])
    inst.oracle = Permutation([1, 2])
    with pytest.raises(ValueError, match=r"query test:3: item 1 has grade 9 outside \[0, 4\]"):
        evaluate(None, "oracle_replay", [inst], ks=(2,))
    inst.labels[1] = 4  # within r_max, but above a click model's own r_max
    spec = {"P": ClickModelSpec(kind="pbm", r_max=3)}
    with pytest.raises(ValueError, match=r"query test:3: .*grade 4 outside \[0, 3\]"):
        evaluate(None, "oracle_replay", [inst], ks=(2,), click_specs=spec)


def test_tie_choice_does_not_move_label_metrics():
    # any oracle from the tie set yields the same N@K / M@K
    inst = make_instance(seed=70, n=6, labels={0: 3, 1: 3, 2: 2, 3: 2, 4: 0, 5: 0})
    values = set()
    for s in range(10):
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=s)
        t = evaluate(None, "oracle_replay", [inst], ks=(5,))
        values.add((t.means["N@5"], t.means["M@5"]))
    assert len(values) == 1
    assert values.pop() == (1.0, 1.0)


def test_accuracy_perfect_and_single():
    acc = accuracy_at_position(None, "oracle_replay", _instances())
    assert np.allclose(acc, 1.0)
    insts = [make_instance(seed=80, n=1, labels={0: 2})]
    insts[0].oracle = Permutation([0])
    acc = accuracy_at_position(None, "oracle_replay", insts)
    assert acc.tolist() == [1.0]


def test_accuracy_membership_in_tie_set():
    # two equally-graded top items: either one at position 1 counts
    inst = make_instance(seed=81, n=3, labels={0: 3, 1: 3, 2: 0})
    inst.oracle = Permutation([1, 0, 2])
    acc = accuracy_at_position(None, "oracle_replay", [inst])
    assert acc.tolist() == [1.0, 1.0, 1.0]


def test_accuracy_uniform_random_near_one_over_n():
    rng = np.random.default_rng(0)
    insts = []
    for k in range(2000):
        labels = {i: int(g) for i, g in enumerate(rng.permutation(10))}
        insts.append(make_instance(seed=90 + k, n=10, labels=labels))
    acc = accuracy_at_position(7, "uniform_random", insts)
    assert abs(acc[0] - 0.1) < 0.025


def test_export_attention(tmp_path):
    params = spread_params("starank", tiny_dims(max_list_len=6), 5)
    inst = make_instance(seed=95, n=4)
    path = tmp_path / "attn.csv"
    export_attention(params, inst, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "position," + ",".join(str(i) for i in inst.cands.ids)
    rows = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
    assert rows.shape == (4, 4)
    for r in rows:
        assert abs(r.sum() - 1.0) < 1e-9
    pi = rank_instance("starank", params, inst)
    for step in range(1, 4):
        placed = [inst.cands.ids.index(i) for i in pi.order[:step]]
        assert np.all(rows[step][placed] == 0.0)


def test_export_attention_single_candidate(tmp_path):
    params = spread_params("starank", tiny_dims(max_list_len=6), 6)
    inst = make_instance(seed=96, n=1)
    path = tmp_path / "attn1.csv"
    export_attention(params, inst, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == 1.0


def test_export_attention_weights_csv(tmp_path):
    from arrangerank.evaluation import export_attention_weights

    params = spread_params("starank", tiny_dims(max_list_len=6), 7)
    insts = [make_instance(seed=97, n=3), make_instance(seed=98, n=4)]
    path = tmp_path / "betas.csv"
    export_attention_weights(params, insts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "instance_id,item_id,beta"
    assert len(lines) == 1 + 3 + 4
    for inst in insts:
        rows = [l for l in lines[1:] if l.startswith(inst.query_id + ",")]
        total = sum(float(r.split(",")[2]) for r in rows)
        assert abs(total - 1.0) < 1e-9
