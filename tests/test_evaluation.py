import numpy as np
import pytest

from arrangerank import evaluation
from arrangerank.clickmodels import ClickModelSpec, oracle_permutation, served_grades
from arrangerank.evaluation import (EmptyEvaluationError, MetricTable, accuracy_at_position,
                                    attention_files, evaluate, map_rows, score_rankings)
from arrangerank.model import rank_instance
from arrangerank.permutation import Permutation

from conftest import make_instance, replayed, shuffled, spread_params, tiny_dims


def _instances(n_inst=6, seed=0, with_oracle=True):
    out = []
    for k in range(n_inst):
        inst = make_instance(seed=seed + k, n=5)
        if with_oracle:
            inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=k)
        out.append(inst)
    return out


def _ap(pi, labels, k, threshold):
    return map_rows(served_grades([(pi, labels)]), k, threshold)[0]


def test_map_at_k_basics():
    labels = {0: 4, 1: 0, 2: 3, 3: 0}
    pi = Permutation([0, 2, 1, 3])
    assert _ap(pi, labels, 2, threshold=2) == 1.0
    assert _ap(Permutation([1, 0, 3, 2]), labels, 2, threshold=2) == 0.25
    assert _ap(Permutation([1, 3, 0, 2]), labels, 2, threshold=2) == 0.0
    assert _ap(pi, {i: 0 for i in range(4)}, 5, threshold=2) == 0.0


def test_evaluate_oracle_replayer_perfect():
    insts = _instances()
    table = score_rankings(replayed(insts), insts, ks=(5, 10))
    assert table.means["N@5"] == 1.0
    assert table.means["N@10"] == 1.0
    assert table.means["M@5"] == 1.0


def test_metric_table_text_keeps_every_column_apart():
    insts = _instances()
    table = score_rankings(replayed(insts), insts, ks=(5, 10))
    values = [f"{table.means[c]:.4f}" for c in table.columns]
    assert table.to_text().split() == table.columns + values
    wide = MetricTable(columns=["N@5", "P@10"], means={"N@5": 0.4872, "P@10": 10.0})
    assert wide.to_text().split() == ["N@5", "P@10", "0.4872", "10.0000"]


def test_evaluate_random_on_equal_labels_degenerate():
    insts = []
    for k in range(5):
        inst = make_instance(seed=50 + k, n=5, labels={i: 2 for i in range(5)})
        insts.append(inst)
    table = score_rankings(shuffled(insts, 123), insts, ks=(5,))
    assert table.means["N@5"] == 1.0


def test_evaluate_p5_under_certain_clicks():
    insts = [make_instance(seed=60 + k, n=6, labels={i: 4 for i in range(6)})
             for k in range(3)]
    spec = ClickModelSpec(kind="pbm", tau=0.0)
    for inst in insts:
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=0)
    table = score_rankings(replayed(insts), insts, ks=(5,), click_specs={"P": spec})
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
    params = spread_params("starank", tiny_dims(), 0)
    with pytest.raises(EmptyEvaluationError):
        evaluate(params, "starank", [])
    with pytest.raises(EmptyEvaluationError):
        score_rankings([], [])
    with pytest.raises(EmptyEvaluationError):
        accuracy_at_position([], [])


@pytest.mark.parametrize("score", [score_rankings, accuracy_at_position])
def test_scoring_rejects_a_ranking_count_that_differs_from_the_instances(score):
    insts = _instances(3)
    for ranked, named in ((replayed(insts)[:2], "2 rankings for 3 instances"),
                          (replayed(insts) * 2, "6 rankings for 3 instances")):
        with pytest.raises(ValueError, match=named):
            score(ranked, insts)


def test_evaluate_rejects_grades_above_r_max_naming_the_query():
    inst = make_instance(seed=3, n=2, labels={1: 9, 2: 0}, ids=[1, 2])
    inst.oracle = Permutation([1, 2])
    with pytest.raises(ValueError, match=r"query test:3: item 1 has grade 9 outside \[0, 4\]"):
        score_rankings(replayed([inst]), [inst], ks=(2,))
    inst.labels[1] = 4  # within r_max, but above a click model's own r_max
    spec = {"P": ClickModelSpec(kind="pbm", r_max=3)}
    with pytest.raises(ValueError, match=r"query test:3: .*grade 4 outside \[0, 3\]"):
        score_rankings(replayed([inst]), [inst], ks=(2,), click_specs=spec)


def test_evaluate_rejects_a_grade_a_relevance_map_lacks():
    inst = make_instance(seed=3, n=2, labels={1: 3, 2: 0}, ids=[1, 2])
    inst.oracle = Permutation([1, 2])
    specs = {"P": ClickModelSpec(kind="pbm"),
             "Q": ClickModelSpec(kind="ubm", relevance_map={0: 0.0, 1: 0.5, 2: 1.0})}
    with pytest.raises(ValueError, match=r"query test:3: item 1 has grade 3, which the "
                                         r"relevance map \[0, 1, 2\] lacks"):
        score_rankings(replayed([inst]), [inst], ks=(2,), click_specs=specs)
    specs["Q"].relevance_map[3] = 0.75
    assert score_rankings(replayed([inst]), [inst], ks=(2,), click_specs=specs).n_instances == 1


def test_evaluate_scans_each_grade_bound_once(monkeypatch):
    scans, check = [], evaluation.check_grades

    def counted(instances, r_max, relevance_map=None):
        scans.append((r_max, relevance_map))
        check(instances, r_max, relevance_map)

    monkeypatch.setattr(evaluation, "check_grades", counted)
    insts = _instances(2)
    score_rankings(replayed(insts), insts, ks=(2,))
    assert scans == [(4, None)]  # the default P and U specs repeat the table's own bound
    scans.clear()
    relevance = {r: r / 4 for r in range(5)}
    specs = {"P": ClickModelSpec(kind="pbm"), "Q": ClickModelSpec(kind="pbm", r_max=6),
             "U": ClickModelSpec(kind="ubm", relevance_map=relevance)}
    score_rankings(replayed(insts), insts, ks=(2,), click_specs=specs)
    assert scans == [(4, None), (6, None), (4, relevance)]


def test_tie_choice_does_not_move_label_metrics():
    # any oracle from the tie set yields the same N@K / M@K
    inst = make_instance(seed=70, n=6, labels={0: 3, 1: 3, 2: 2, 3: 2, 4: 0, 5: 0})
    values = set()
    for s in range(10):
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=s)
        t = score_rankings(replayed([inst]), [inst], ks=(5,))
        values.add((t.means["N@5"], t.means["M@5"]))
    assert len(values) == 1
    assert values.pop() == (1.0, 1.0)


def test_accuracy_perfect_and_single():
    insts = _instances()
    acc = accuracy_at_position(replayed(insts), insts)
    assert np.allclose(acc, 1.0)
    insts = [make_instance(seed=80, n=1, labels={0: 2})]
    insts[0].oracle = Permutation([0])
    acc = accuracy_at_position(replayed(insts), insts)
    assert acc.tolist() == [1.0]


def test_accuracy_membership_in_tie_set():
    # two equally-graded top items: either one at position 1 counts
    inst = make_instance(seed=81, n=3, labels={0: 3, 1: 3, 2: 0})
    inst.oracle = Permutation([1, 0, 2])
    acc = accuracy_at_position(replayed([inst]), [inst])
    assert acc.tolist() == [1.0, 1.0, 1.0]


def test_accuracy_uniform_random_near_one_over_n():
    rng = np.random.default_rng(0)
    insts = []
    for k in range(2000):
        labels = {i: int(g) for i, g in enumerate(rng.permutation(10))}
        insts.append(make_instance(seed=90 + k, n=10, labels=labels))
    acc = accuracy_at_position(shuffled(insts, 7), insts)
    assert abs(acc[0] - 0.1) < 0.025


def test_export_attention():
    params = spread_params("starank", tiny_dims(max_list_len=6), 5)
    inst = make_instance(seed=95, n=4)
    lines = attention_files(params, [inst], "starank")["attention_test_95.csv"].splitlines()
    assert lines[0] == "position," + ",".join(str(i) for i in inst.cands.ids)
    rows = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
    assert rows.shape == (4, 4)
    for r in rows:
        assert abs(r.sum() - 1.0) < 1e-9
    pi = rank_instance("starank", params, inst)
    for step in range(1, 4):
        placed = [inst.cands.ids.index(i) for i in pi.order[:step]]
        assert np.all(rows[step][placed] == 0.0)


def test_export_attention_single_candidate():
    params = spread_params("starank", tiny_dims(max_list_len=6), 6)
    inst = make_instance(seed=96, n=1)
    lines = attention_files(params, [inst], "starank")["attention_test_96.csv"].splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == 1.0


def test_export_attention_weights_csv():
    params = spread_params("starank", tiny_dims(max_list_len=6), 7)
    insts = [make_instance(seed=97, n=3), make_instance(seed=98, n=4)]
    lines = attention_files(params, insts, "starank")["betas.csv"].splitlines()
    assert lines[0] == "instance_id,item_id,beta"
    assert len(lines) == 1 + 3 + 4
    for inst in insts:
        rows = [l for l in lines[1:] if l.startswith(inst.query_id + ",")]
        total = sum(float(r.split(",")[2]) for r in rows)
        assert abs(total - 1.0) < 1e-9
