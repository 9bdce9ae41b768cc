import numpy as np
import pytest

from arrangerank.data import (LogItem, ParseError, UserLog, generate_synthetic,
                              oracle_seed, read_dataset, read_instances, slate_grades,
                              temporal_split, write_dataset, write_instances)
from arrangerank.permutation import Permutation


def _log(user_id: int, t: int) -> UserLog:
    rng = np.random.default_rng(user_id)
    return UserLog(user_id, rng.normal(size=3),
                   [LogItem(100 * user_id + k, rng.normal(size=3), int(k % 5))
                    for k in range(1, t + 1)])


def test_split_drops_short_logs():
    split = temporal_split([_log(1, 29)])
    assert split.kept_users == 0 and split.dropped_users == 1
    assert not split.train and not split.validation and not split.test


def test_split_boundary_t30_empty_train_history():
    split = temporal_split([_log(1, 30)])
    assert split.kept_users == 1
    inst = split.train[0]
    assert len(inst.ctx.history) == 0
    assert inst.cands.ids == tuple(100 + k for k in range(1, 11))  # items 1..10
    assert split.validation[0].cands.ids == tuple(100 + k for k in range(11, 21))
    assert split.test[0].cands.ids == tuple(100 + k for k in range(21, 31))


def test_split_t40_index_arithmetic():
    split = temporal_split([_log(2, 40)])
    train, val, test = split.train[0], split.validation[0], split.test[0]
    assert len(train.ctx.history) == 10                      # items 1..10
    assert train.cands.ids == tuple(200 + k for k in range(11, 21))
    assert len(val.ctx.history) == 20
    assert val.cands.ids == tuple(200 + k for k in range(21, 31))
    assert len(test.ctx.history) == 30
    assert test.cands.ids == tuple(200 + k for k in range(31, 41))


def test_split_no_leakage_and_determinism():
    logs = [_log(u, 30 + u) for u in range(1, 6)]
    s1, s2 = temporal_split(logs), temporal_split(logs)
    for inst1, inst2 in zip(s1.train + s1.validation + s1.test,
                            s2.train + s2.validation + s2.test):
        assert inst1.cands.ids == inst2.cands.ids
        assert np.array_equal(inst1.ctx.history, inst2.ctx.history)
    for log, tr, va, te in zip(logs, s1.train, s1.validation, s1.test):
        positions = {it.item_id: k for k, it in enumerate(log.items)}
        for inst in (tr, va, te):
            hist_max = len(inst.ctx.history) - 1
            assert all(positions[c] > hist_max for c in inst.cands.ids)


def test_slate_grades_context_free_is_slate_independent():
    rng = np.random.default_rng(0)
    taste = rng.normal(size=6)
    taste /= np.linalg.norm(taste)
    feats = rng.normal(size=(8, 6))
    base = slate_grades(taste, feats, 0.0)
    swapped = feats.copy()
    swapped[3] = rng.normal(size=6)  # replace one distractor
    after = slate_grades(taste, swapped, 0.0)
    keep = [i for i in range(8) if i != 3]
    assert np.array_equal(base[keep], after[keep])


def test_slate_grades_context_changes_some_grade():
    rng = np.random.default_rng(1)
    taste = rng.normal(size=6)
    taste /= np.linalg.norm(taste)
    hit = False
    for _ in range(50):
        feats = rng.normal(size=(8, 6))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        feats[4] = feats[2] + 0.01 * rng.normal(size=6)  # near-duplicate pair
        feats[4] /= np.linalg.norm(feats[4])
        if not np.array_equal(slate_grades(taste, feats, 0.0),
                              slate_grades(taste, feats, 2.0)):
            hit = True
            break
    assert hit


def test_generator_determinism_bytes(tmp_path):
    logs1 = generate_synthetic(8, history_len=5, seed=3)
    logs2 = generate_synthetic(8, history_len=5, seed=3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_dataset(logs1, p1)
    write_dataset(logs2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generator_composes_with_split():
    logs = generate_synthetic(6, history_len=4, seed=5)
    assert all(len(log.items) == 34 for log in logs)
    split = temporal_split(logs)
    assert split.kept_users == 6
    assert all(len(inst.cands.ids) == 10 for inst in split.train)
    assert all(len(inst.ctx.history) == 4 for inst in split.train)


def test_generator_context_effect_exists_in_generated_set():
    # regenerate with context off under the same seed; some grade must differ
    logs = generate_synthetic(30, history_len=4, context_strength=1.0, seed=6)
    logs0 = generate_synthetic(30, history_len=4, context_strength=0.0, seed=6)
    differs = False
    for a, b in zip(logs, logs0):
        for ia, ib in zip(a.items, b.items):
            assert ia.item_id == ib.item_id
            if ia.grade != ib.grade:
                differs = True
    assert differs


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_synthetic(0)
    with pytest.raises(ValueError):
        generate_synthetic(3, n_candidates=-1)


def test_dataset_round_trip(tmp_path):
    logs = generate_synthetic(5, history_len=3, seed=7)
    path = tmp_path / "data.txt"
    write_dataset(logs, path)
    back = read_dataset(path)
    assert len(back) == len(logs)
    for a, b in zip(logs, back):
        assert a.user_id == b.user_id
        assert np.array_equal(a.profile, b.profile)
        assert len(a.items) == len(b.items)
        for ia, ib in zip(a.items, b.items):
            assert ia.item_id == ib.item_id and ia.grade == ib.grade
            assert np.array_equal(ia.features, ib.features)


def test_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert read_dataset(path) == []


def test_dataset_truncated_record_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1|0.5,0.5|10:2:0.1,0.2\n2|0.5|10:2\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2"):
        read_dataset(path)


def test_instances_round_trip_with_oracle(tmp_path):
    logs = generate_synthetic(4, history_len=4, seed=8)
    split = temporal_split(logs)
    split.train[0].oracle = Permutation(sorted(split.train[0].labels,
                                               key=lambda i: -split.train[0].labels[i]))
    path = tmp_path / "train.txt"
    write_instances(split.train, path)
    back = read_instances(path)
    assert len(back) == len(split.train)
    assert back[0].oracle.order == split.train[0].oracle.order
    assert back[1].oracle is None
    for a, b in zip(split.train, back):
        assert a.query_id == b.query_id
        assert a.cands.ids == b.cands.ids
        assert a.labels == b.labels
        assert np.array_equal(a.ctx.history, b.ctx.history)
        assert np.array_equal(a.cands.features, b.cands.features)


_GOOD_INSTANCE = "q0|0.5,0.5|0:0:0.1,0.2|10:2:0.1,0.2;11:1:0.3,0.4|11,10"


@pytest.mark.parametrize("bad", [
    pytest.param("q1|nan,0.5|0:0:0.1,0.2|10:2:0.1,0.2;11:1:0.3,0.4|", id="nan-profile-value"),
    pytest.param("q1|0.5,0.5|0:0:0.1,inf|10:2:0.1,0.2;11:1:0.3,0.4|", id="inf-history-feature"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:-inf,0.4|", id="inf-candidate-feature"),
    pytest.param("q1|0.5,0.5||10:-1:0.1,0.2;11:1:0.3,0.4|", id="negative-grade"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:0.3|", id="ragged-candidates"),
    pytest.param("q1|0.5,0.5|0:0:0.1,0.2,0.3|10:2:0.1,0.2;11:1:0.3,0.4|", id="history-vs-candidates"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;10:1:0.3,0.4|", id="duplicate-candidate-id"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|10", id="oracle-misses-an-id"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|10,12", id="oracle-names-a-stranger"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|10,10", id="oracle-repeats-an-id"),
])
def test_instances_reject_bad_line_naming_it(tmp_path, bad):
    path = tmp_path / "bad.txt"
    path.write_text(f"{_GOOD_INSTANCE}\n{bad}\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2: "):
        read_instances(path)
    path.write_text(f"{_GOOD_INSTANCE}\n")
    assert len(read_instances(path)) == 1


@pytest.mark.parametrize("bad", [
    pytest.param("2|0.5,nan|10:2:0.1,0.2", id="nan-profile-value"),
    pytest.param("2|0.5,0.5|10:2:0.1,inf", id="inf-feature"),
    pytest.param("2|0.5,0.5|10:-3:0.1,0.2", id="negative-grade"),
    pytest.param("2|0.5,0.5|10:2:0.1,0.2;11:1:0.3", id="ragged-features"),
])
def test_dataset_rejects_bad_line_naming_it(tmp_path, bad):
    path = tmp_path / "bad.txt"
    # grade 9 is above the default r_max; only a metric knows its r_max, so the reader keeps it
    path.write_text(f"1|0.5,0.5|10:2:0.1,0.2;11:9:0.3,0.4\n{bad}\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2: "):
        read_dataset(path)


def test_oracle_seed_stability():
    assert oracle_seed(1, "ndcg", "u:train") == oracle_seed(1, "ndcg", "u:train")
    assert oracle_seed(1, "ndcg", "u:train") != oracle_seed(2, "ndcg", "u:train")
    assert oracle_seed(1, "ndcg", "u:train") != oracle_seed(1, "pbm", "u:train")
    assert oracle_seed(1, "ndcg", "u:train") != oracle_seed(1, "ndcg", "v:train")
