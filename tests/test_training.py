import functools
import hashlib
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrangerank import training
from arrangerank.autodiff import Tape
from arrangerank.cli import main
from arrangerank.clickmodels import ClickModelSpec
from arrangerank.data import DatasetSplit, generate_synthetic, temporal_split, write_instances
from arrangerank.evaluation import evaluate
from arrangerank.model import ModelDims, init_params
from arrangerank.params import CheckpointError, ParamStore, load_checkpoint, save_checkpoint
from arrangerank.training import (TrainConfig, _Sgd, dims_for, ensure_oracles, learning_rate,
                                  load_model, save_model, train, write_training_log)

from conftest import make_instance, separable_rank_split, tiny_dims


def test_config_validation():
    for bad, named in [
        ({"lr_initial": 1e-4, "lr_final": 1e-2}, "lr_final 0.01 exceeds lr_initial 0.0001"),
        ({"lr_initial": float("nan")}, "exceeds lr_initial nan"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"optimizer": "lion"}, "optimizer must be 'sgd' or 'adam', got 'lion'"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"epochs": -1}, "epochs must be >= 1, got -1"),
        ({"max_list_len": 0}, "max_list_len must be >= 1, got 0"),
        ({"embedding_dim": 0}, "embedding_dim must be >= 1, got 0"),
        ({"lr_initial": -1.0, "lr_final": -2.0}, "lr_final must be > 0, got -2.0"),
        ({"lr_final": 0.0}, "lr_final must be > 0, got 0.0"),
        ({"dropout_rate": 1.0}, "dropout_rate must lie in [0, 1), got 1.0"),
        ({"dropout_rate": -0.1}, "dropout_rate must lie in [0, 1), got -0.1"),
        ({"l2_weight": -1e-5}, "l2_weight must be >= 0, got -1e-05"),
        ({"loss_variant": "bogus"}, "loss_variant must be 'listwise' or 'summation', got 'bogus'"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"r_max": 0}, "r_max must be >= 1, got 0"),
        ({"r_max": -1}, "r_max must be >= 1, got -1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(named)):
            TrainConfig(**bad)


def test_config_accepts_the_edges_of_every_range():
    cfg = TrainConfig(epochs=1, batch_size=1, embedding_dim=1, max_list_len=1, lr_initial=1e-9,
                      lr_final=1e-9, dropout_rate=0.0, l2_weight=0.0, optimizer="sgd", seed=0,
                      r_max=1, loss_variant="summation")
    assert cfg.dropout_rate == 0.0 and cfg.lr_final == cfg.lr_initial


def test_learning_rate_schedule_endpoints():
    cfg = TrainConfig(epochs=50)
    assert learning_rate(cfg, 0) == 1e-2
    assert abs(learning_rate(cfg, 49) - 1e-6) < 1e-18
    mid = learning_rate(cfg, 25)
    assert 1e-6 < mid < 1e-2
    one = TrainConfig(epochs=1)
    assert learning_rate(one, 0) == 1e-2


def _small_split(n_users=6, seed=0):
    return temporal_split(generate_synthetic(n_users, history_len=4, seed=seed))


def _small_cfg(**kw):
    base = dict(lr_initial=5e-3, lr_final=5e-3, epochs=2, batch_size=4, l2_weight=1e-5,
                dropout_rate=0.0, seed=0, embedding_dim=8, optimizer="adam")
    base.update(kw)
    return TrainConfig(**base)


def test_training_deterministic_checkpoint_bytes(tmp_path):
    paths = []
    for run in range(2):
        split = _small_split()
        cfg = _small_cfg()
        params, log = train("starank", split, "ndcg", cfg)
        path = tmp_path / f"ckpt{run}.txt"
        save_model(params, path, "starank", dims_for(cfg, split.train[0]), cfg)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sgd_step_is_decayed_gradient_step_and_clears_grads():
    params = init_params("starank", tiny_dims(), 3)
    rng = np.random.default_rng(3)
    before = {name: p.values.copy() for name, p in params.items()}
    grads = {}
    for k, (name, p) in enumerate(params.items()):
        if k % 3:  # a parameter without a gradient still decays
            grads[name] = rng.normal(size=p.values.shape)
            p.grad = grads[name].copy()
    lr, l2 = 0.05, 1e-3
    _Sgd(params).step(lr, l2)
    for name, p in params.items():
        g = grads.get(name, 0.0)
        assert np.array_equal(p.values, before[name] - lr * (g + l2 * before[name])), name
        assert p.grad is None


def test_sgd_training_deterministic_checkpoint_bytes(tmp_path):
    paths = []
    for run in range(2):
        split = _small_split()
        cfg = _small_cfg(optimizer="sgd", lr_initial=1e-3, lr_final=1e-3)
        params, _ = train("starank", split, "ndcg", cfg)
        path = tmp_path / f"sgd{run}.txt"
        save_model(params, path, "starank", dims_for(cfg, split.train[0]), cfg)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_training_different_seed_differs(tmp_path):
    split = _small_split()
    p0, _ = train("starank", split, "ndcg", _small_cfg(seed=0))
    split = _small_split()
    p1, _ = train("starank", split, "ndcg", _small_cfg(seed=1))
    assert any(not np.array_equal(p0[n].values, p1[n].values) for n in p0.names())


def test_training_loss_trajectory_deterministic():
    logs = []
    for _ in range(2):
        split = _small_split()
        _, log = train("starank", split, "ndcg", _small_cfg(epochs=3))
        logs.append([row["mean_loss"] for row in log])
    assert logs[0] == logs[1]


def test_training_all_kinds_run():
    for kind in ("starank", "starank_pi_mlp", "starank_ps_mlp", "pointwise_baseline"):
        split = _small_split()
        params, log = train(kind, split, "ndcg", _small_cfg(epochs=1))
        assert len(log) == 1 and np.isfinite(log[0]["mean_loss"])


def test_dropout_training_runs_and_is_seeded():
    finals = []
    for _ in range(2):
        split = _small_split()
        _, log = train("starank", split, "ndcg", _small_cfg(dropout_rate=0.5, epochs=2))
        finals.append(log[-1]["mean_loss"])
    assert finals[0] == finals[1]


# sha256 of the checkpoints that tiny seeded runs write, taken with numpy 2.4.6 on
# OpenBLAS 0.3.31 (scipy-openblas64, DYNAMIC_ARCH, Haswell kernels) before the recurrent
# cell dropped its cell-state input and its last-state outputs: training keeps every byte.
# The case with a group size trains one batch of that many equal-shape instances on one
# tape.
# Other BLAS builds may round products differently, and then these digests differ.
_GOLDEN_CHECKPOINTS = {
    "starank": ("starank", "listwise", None,
        "aece1b8d6766f83846adbb9869532a083fc5a8d7d768ed8f0deeeb1c645ae8e0"),
    "starank_pi_mlp": ("starank_pi_mlp", "listwise", None,
        "5f94f42654df4b38d49d6d05972b49e9187f683b4a293ca947e87de724783f18"),
    "starank_ps_mlp": ("starank_ps_mlp", "listwise", None,
        "ac0b37a90f0819bfc7e361b5f3a53a0e4eeaf33a9891a6f63a61bf9604792224"),
    "pointwise_baseline": ("pointwise_baseline", "listwise", None,
        "43bf0edffdd3d595f26bc2a66b283827b3186657cefc44823491d14803e01038"),
    "starank-summation": ("starank", "summation", None,
        "ae308f87ee45555b50529f43045cc9e5ce52912ceb1f5626961b92b4042d7e34"),
    "starank-group-48": ("starank", "listwise", 48,
        "7beca4018e56fc82eed287621e1d13edc3ab816281e74c3814cd6dec27e7abb1"),
}


def _golden_run(kind, variant="listwise", group=None):
    """Two epochs with dropout 0.3 over slates of 4 and 5 items whose histories hold 0, 1
    or 2 items, so some groups read an empty history and others run the recurrent cell;
    or over one batch of ``group`` 5-item instances with 2-item histories."""
    if group is None:
        split = DatasetSplit(train=[make_instance(seed=k, n=4 + k % 2, hist_len=k % 3)
                                    for k in range(18)])
    else:
        split = DatasetSplit(train=[make_instance(seed=k, n=5, hist_len=2) for k in range(group)])
    cfg = _small_cfg(dropout_rate=0.3, loss_variant=variant, batch_size=group or 4)
    params, _ = train(kind, split, "ndcg", cfg)
    return params, cfg, split


@pytest.mark.golden
@pytest.mark.parametrize("case", sorted(_GOLDEN_CHECKPOINTS))
def test_trained_checkpoints_match_their_golden_digests(tmp_path, case):
    kind, variant, group, want = _GOLDEN_CHECKPOINTS[case]
    params, cfg, split = _golden_run(kind, variant, group)
    path = tmp_path / "model.txt"
    save_model(params, path, kind, dims_for(cfg, split.train[0]), cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


_golden_model = functools.cache(_golden_run)  # evaluate and inspect never write to params


def _held_out():
    """24 instances the golden models never trained on: slates of 4-6 items, histories of
    0-3 items, grades 0-4."""
    return [make_instance(seed=100 + k, n=4 + k % 3, hist_len=k % 4) for k in range(24)]


_GOLDEN_SPECS = {
    "default": None,  # evaluate's own P and U columns
    "pbm-table": {"P": ClickModelSpec(kind="pbm", examination_table=[
        0.6, 1.0, 0.9, 0.7, 0.5, 0.4, 0.3, 0.25])},
    "ubm-quarters": {"U": ClickModelSpec(kind="ubm", examination_table=[
        [0.25 * (1 + (3 * i + 5 * j) % 4) for j in range(8)] for i in range(8)])},
}
# sha256 of each evaluate table of the golden models on the held-out instances at ks 3, 5
# and 10, as to_csv() bytes and as repr of its means. Taken on the build named above, while
# evaluate still ranked through the model kinds' harness: scoring given rankings keeps every
# byte.
_GOLDEN_TABLES = {
    ("pointwise_baseline", "default"):
        ("13435cf3f8a21cc3ca7553363faced82b3aa1a071bc000b4ac91ce58fc340440",
         "f47b80649f74fd54d4ea82f1042c3b567fe8e4ff246f5d47978cf65371b084a8"),
    ("pointwise_baseline", "pbm-table"):
        ("0301727efadd390656231918a2b8d01267df4d7e7ab607311f0945f7bed1383b",
         "4ea8f7deb3d391152561a074c717029190a89b774e39951b31dbf7af5e5dcc15"),
    ("pointwise_baseline", "ubm-quarters"):
        ("257690b6468e3d9abbc7f41f85a92ef70604ffc64e17a9a9378d82e0fb387161",
         "2b165ed5178731b2aa4d0bf51e7b75671b26e703368f100ce4adf890939a6cd4"),
    ("starank", "default"):
        ("63128642684606886ac1894093a5a17ec9c7dbdc596e4df4aa6f06303ddcbdf1",
         "bbd5bd94db2b665c8c7c04229827ece0966587a639c88e1f353203b9731a2d53"),
    ("starank", "pbm-table"):
        ("274fc71dc936e275a9700845ecf13e747495cfbb6c6612d503cae4c686153cf3",
         "7cd2da2f63670c45369f388b3458933b00381288ddb617a4e49b96335ceb82c9"),
    ("starank", "ubm-quarters"):
        ("6f692d4cc0a122ab50bf28b24dcb05d31c6902f2a912e4816ad9edda1d7e6d75",
         "15d86e7cb9ab62b2d9012b5404a53141f3ed7798a6d37fb0fd654f60f77d5b3f"),
    ("starank_pi_mlp", "default"):
        ("f4de6d9c0a94c119298ef3a1c13d3ce56a408e422cdc69d0cf3ad0de59c9895e",
         "afe569e3c46dd3e06fc26605ac3b06564f4fab6d438b6c91d9d8fa301f98d3b2"),
    ("starank_pi_mlp", "pbm-table"):
        ("a4aeff57b7adfb60592602caa7eec4361b522e8983cb49c4d2190901c61ac376",
         "5331830631fdd2098bb27e36e3b96d61d221057ea74fc21eacc56b9116853133"),
    ("starank_pi_mlp", "ubm-quarters"):
        ("5da000054b6b1db74eab627937ee66a160c3010873fcd8799c7fd6b68196db90",
         "6e893015081279e9327cf862b38e8dcbd2719dc2ab5f230c9f4640668df85e2d"),
    ("starank_ps_mlp", "default"):
        ("4d0d31833a81f0c294cc8657d0b4c749c4e1f2d616c33948f71e6ddcc43eec02",
         "0ef7d78eb4b432eefd6537d067f116a1d3bba11e69cbc43e8d1398c1779cfd66"),
    ("starank_ps_mlp", "pbm-table"):
        ("f76f3bc485a4e77c73da2bf1a005897c2f6869a78632d08d1430cf3708a720c9",
         "67dc2378a77e32ac326fb701c3a292e6e05bd81ed1fe7b28b7aca7e36c5ecfc8"),
    ("starank_ps_mlp", "ubm-quarters"):
        ("bbd785d1f4625e047625a12c417136c43dfcc1df038017289e658d35da0b2f13",
         "96dd3aab008c94fae4c62387c7dab2b6a582bf470f5a4dd8a125a70dcc8b6452"),
}


@pytest.mark.golden
@pytest.mark.parametrize("kind, specs", sorted(_GOLDEN_TABLES))
def test_evaluate_tables_match_their_golden_digests(kind, specs):
    params, _, _ = _golden_model(kind)
    table = evaluate(params, kind, _held_out(), ks=(3, 5, 10), click_specs=_GOLDEN_SPECS[specs])
    got = (hashlib.sha256(table.to_csv().encode()).hexdigest(),
           hashlib.sha256(repr(table.means).encode()).hexdigest())
    assert got == _GOLDEN_TABLES[kind, specs]


# sha256 of `arrangerank inspect`'s pointing matrices (each file's name and bytes, in name
# order) and of its betas.csv, for three held-out instances of different shapes.
_GOLDEN_INSPECT = {
    "starank":
        ("dbcbde07f770fb01b7b9d64a37ac1637980829cf59df1b39367ee54bb8f25056",
         "30877d485253a1f114070af62d50abe5bc8415785e5fb9a699bb499f40221c7a"),
    "starank_pi_mlp":
        ("ca98aa5e1025d251a69f4f09a708b5ef208c29c3e461b7ceff1a88306a3edbda",
         "ea506d208bd82e5384f685f201887e27952c6ecb3fd49ab81096b4d2b67b9cf6"),
    "starank_ps_mlp":
        ("fde919c53b1c84a86ebf54f0c295aa1b7fd39463f5035afe35a20fb1e30e790d",
         "dfcc2b4673407039f9a826212b4c30416d29077041b5bc920b3228688085185a"),
}


@pytest.mark.golden
@pytest.mark.parametrize("kind", sorted(_GOLDEN_INSPECT))
def test_inspect_files_match_their_golden_digests(tmp_path, kind):
    params, cfg, split = _golden_model(kind)
    ckpt, instances, out = tmp_path / "model.txt", tmp_path / "test.txt", tmp_path / "inspect"
    save_model(params, ckpt, kind, dims_for(cfg, split.train[0]), cfg)
    write_instances(_held_out(), instances)
    assert main(["inspect", "--checkpoint", str(ckpt), "--instances", str(instances),
                 "--query-ids", "test:100", "test:105", "test:110", "--out", str(out)]) == 0
    matrices = b"".join(p.name.encode() + b"\n" + p.read_bytes()
                        for p in sorted(out.glob("attention_*.csv")))
    got = (hashlib.sha256(matrices).hexdigest(),
           hashlib.sha256((out / "betas.csv").read_bytes()).hexdigest())
    assert got == _GOLDEN_INSPECT[kind]


def test_a_one_shape_batch_trains_on_one_tape_per_step(tmp_path, monkeypatch):
    """A shape group runs on one tape however many instances the batch gives it, so the
    dropout masks, drawn per tape, follow from the config alone."""
    counts = {"tapes": 0, "steps": 0}

    class CountedTape(Tape):
        def __init__(self):
            super().__init__()
            counts["tapes"] += 1

    step = training._Adam.step

    def counted_step(opt, lr, l2):
        counts["steps"] += 1
        step(opt, lr, l2)

    monkeypatch.setattr(training, "Tape", CountedTape)
    monkeypatch.setattr(training._Adam, "step", counted_step)
    blobs = []
    for run in range(2):
        split = DatasetSplit(train=[make_instance(seed=k, n=5, hist_len=2) for k in range(300)])
        cfg = _small_cfg(dropout_rate=0.3, batch_size=150)
        params, _ = train("starank", split, "ndcg", cfg)
        path = tmp_path / f"ckpt{run}.txt"
        save_model(params, path, "starank", dims_for(cfg, split.train[0]), cfg)
        blobs.append(path.read_bytes())
    assert counts == {"tapes": 8, "steps": 8}  # 2 runs x 2 epochs x 2 batches of 150
    assert blobs[0] == blobs[1]


def test_non_finite_gradient_stops_training_naming_epoch_and_query():
    inst = make_instance(seed=3, n=4, hist_len=2)
    inst.cands.features[1, 0] = np.inf  # the loss stays finite, the gradient does not
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError, match=r"epoch 0, group of query 'test:3'"):
            train("starank", DatasetSplit(train=[inst]), "ndcg", _small_cfg(epochs=1))


def test_a_diverging_sgd_run_stops_before_its_next_optimizer_step():
    """Sgd at lr 1e4 takes the mean loss of 40 users' 10-item slates from 15.11, near a uniform
    pointer's log 10! = 15.10, to 7.8e4 after one step: past 10 (1 + log 10!) = 161."""
    split = temporal_split(generate_synthetic(40))
    steps = []
    cfg = TrainConfig(optimizer="sgd", lr_initial=1e4, lr_final=1e4, epochs=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Sgd, "step", lambda self, *a, step=_Sgd.step: steps.append(step(self, *a)))
        with pytest.raises(FloatingPointError, match=r"^epoch 1, group of query '\d+:train': "
                           r"mean loss 7\.811e\+04 exceeds 10 \(1 \+ log n!\) = 161$"):
            train("starank", split, "ndcg", cfg)
    assert len(steps) == 1  # the diverged group's step is not taken


def test_the_divergence_guard_names_the_largest_loss_and_allows_one_item_slates():
    """A group shares one slate size n, as ``shape_groups`` makes them: its bound is
    10 (1 + log n!), and one-item slates, with log 1! = 0, get 10."""
    pairs = [make_instance(seed=k, n=2) for k in range(4)]
    bound = 10.0 * (1.0 + math.log(2.0))
    training._check_health(ParamStore(), np.array([0.0, 0.0, 1.9 * bound, 1.9 * bound]), 0,
                           pairs)
    with pytest.raises(FloatingPointError, match=r"^epoch 4, group of query 'test:1': mean loss"):
        training._check_health(ParamStore(), np.array([0.0, 4 * bound, 0.0, 0.1]), 4, pairs)
    single = [make_instance(seed=0, n=1)]
    training._check_health(ParamStore(), np.array([10.0]), 0, single)
    with pytest.raises(FloatingPointError, match="mean loss 10.01 exceeds"):
        training._check_health(ParamStore(), np.array([10.01]), 0, single)


def test_default_config_loss_halves_on_separable_data():
    # every hyperparameter at its default; only the dataset is chosen here
    split = separable_rank_split(400, n=6)
    cfg = TrainConfig(epochs=50, seed=0, r_max=5, max_list_len=6)
    params, log = train("starank", split, "ndcg", cfg)
    assert log[-1]["mean_loss"] < 0.5 * log[0]["mean_loss"], \
        f"{log[0]['mean_loss']:.3f} -> {log[-1]['mean_loss']:.3f}"


def test_oracle_metric_switch_changes_supervision():
    split = _small_split(n_users=12, seed=3)
    variants = {}
    for name, metric in (("ndcg", "ndcg"),
                         ("pbm", ClickModelSpec(kind="pbm")),
                         ("ubm", ClickModelSpec(kind="ubm"))):
        instances = [type(inst)(**{**inst.__dict__}) for inst in split.train]
        for inst in instances:
            inst.oracle = None
        ensure_oracles(instances, metric, master_seed=0)
        variants[name] = [inst.oracle.order for inst in instances]
    assert variants["ndcg"] != variants["pbm"]
    assert variants["ndcg"] != variants["ubm"]


def test_supervision_experiment_counts_the_oracles_ensure_oracles_makes():
    from arrangerank.clickmodels import metric_fingerprint, oracle_permutation
    from arrangerank.data import oracle_seed
    from arrangerank.experiments import supervision_variant_experiment

    res = supervision_variant_experiment(n_users=60, n_seeds=0)
    train_set = temporal_split(generate_synthetic(60, history_len=8, seed=131)).train
    pbm = ClickModelSpec(kind="pbm")
    changed = 0  # the per-instance count the experiment once made itself
    for inst in train_set:
        orders = [oracle_permutation(inst.labels, m, oracle_seed(131, metric_fingerprint(m),
                                                                 inst.query_id)).order
                  for m in ("ndcg", pbm)]
        changed += orders[0] != orders[1]
    assert changed > 0
    assert res.changed_fraction == changed / len(train_set)


@pytest.mark.parametrize("metric", ["ndcg", ClickModelSpec(kind="pbm"),
                                    ClickModelSpec(kind="ubm")])
def test_ensure_oracles_rejects_grades_above_r_max_naming_the_query(metric):
    inst = make_instance(seed=1, n=2, labels={1: 9, 2: 0}, ids=[1, 2])
    with pytest.raises(ValueError, match=r"query test:1: item 1 has grade 9 outside \[0, 4\]"):
        ensure_oracles([inst], metric, master_seed=0)
    assert inst.oracle is None
    narrow = make_instance(seed=2, n=2, labels={1: 3, 2: 0}, ids=[1, 2])
    with pytest.raises(ValueError, match=r"query test:2: .*outside \[0, 2\]"):
        ensure_oracles([narrow], "ndcg", master_seed=0, r_max=2)
    mapped = ClickModelSpec(kind="pbm", relevance_map={0: 0.0, 9: 1.0})  # names grade 9 itself
    assert ensure_oracles([inst], mapped, master_seed=0) == 1


@pytest.mark.parametrize("kind", ["pbm", "ubm"])
def test_ensure_oracles_rejects_a_grade_the_relevance_map_lacks(kind):
    inst = make_instance(seed=1, n=3, labels={1: 2, 2: 0, 3: 7}, ids=[1, 2, 3])
    spec = ClickModelSpec(kind=kind, relevance_map={0: 0.0, 2: 0.5, 4: 1.0})
    with pytest.raises(ValueError, match=r"query test:1: item 3 has grade 7, which the "
                                         r"relevance map \[0, 2, 4\] lacks"):
        ensure_oracles([inst], spec, master_seed=0)
    assert inst.oracle is None


@pytest.mark.parametrize("kind", ["pointwise_baseline", "starank"])
def test_train_rejects_grades_above_r_max_naming_the_query(kind):
    good = make_instance(seed=3, n=3)
    bad = make_instance(seed=1, n=3, labels={0: 9, 1: 0, 2: 1})
    cfg = TrainConfig(epochs=1, embedding_dim=4, max_list_len=3, seed=0)
    with pytest.raises(ValueError, match=r"query test:1: item 0 has grade 9 outside \[0, 4\]"):
        train(kind, DatasetSplit(train=[good, bad]), "ndcg", cfg)


def test_ensure_oracles_counts_and_caches():
    split = _small_split(n_users=4, seed=2)
    n1 = ensure_oracles(split.train, "ndcg", 0)
    assert n1 == len(split.train)
    n2 = ensure_oracles(split.train, "ndcg", 0)
    assert n2 == 0


def test_checkpoint_round_trip_bitwise(tmp_path):
    params = init_params("starank", tiny_dims(), 5)
    path = tmp_path / "p.txt"
    save_checkpoint(params, path, {"note": "x"})
    back, meta = load_checkpoint(path)
    assert meta == {"note": "x"}
    assert back.names() == params.names()
    for name in params.names():
        assert np.array_equal(back[name].values, params[name].values)
        assert back[name].values.shape == params[name].values.shape


def test_checkpoint_architecture_mismatch(tmp_path):
    dims = tiny_dims()
    other = ModelDims(feature_dim=9, profile_dim=9, embed=6, attn_width=6,
                      mlp_hidden=6, max_list_len=6)
    path = _edited_model(tmp_path, 2, _meta("starank", asdict(other)))
    with pytest.raises(CheckpointError, match=re.escape("p.txt:2: ")):
        load_model(path)
    save_model(init_params("starank", dims, 5), path, "starank", dims)
    back, kind, got_dims = load_model(path)
    assert kind == "starank" and got_dims == dims


def test_checkpoint_version_mismatch(tmp_path):
    params = init_params("starank", tiny_dims(), 5)
    path = tmp_path / "p.txt"
    save_checkpoint(params, path)
    body = path.read_text().replace("arrangerank-checkpoint v1", "arrangerank-checkpoint v9", 1)
    path.write_text(body)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
    path.write_text("something else\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_value_shape_or_meta_names_the_line(tmp_path):
    params = init_params("starank", tiny_dims(), 5)
    path = tmp_path / "p.txt"
    save_checkpoint(params, path)
    lines = path.read_text().splitlines()
    fields = lines[3].split(" ")  # line 4 of the file: the second parameter
    for token in ("inf", "-inf", "nan", "0x1.8p+zz"):
        edited = lines[:3] + [" ".join(fields[:4] + [token] + fields[5:])] + lines[4:]
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(CheckpointError,
                           match=re.escape(f"p.txt:4: parameter {fields[1]}: value '{token}'")):
            load_checkpoint(path)
    edited = lines[:3] + [" ".join(fields[:2] + [fields[2] + "x"] + fields[3:])] + lines[4:]
    path.write_text("\n".join(edited) + "\n")
    with pytest.raises(CheckpointError,
                       match=re.escape(f"p.txt:4: parameter {fields[1]}: bad shape")):
        load_checkpoint(path)
    path.write_text("\n".join([lines[0], "meta {bad"] + lines[2:]) + "\n")
    with pytest.raises(CheckpointError, match=re.escape("p.txt:2: malformed meta line")):
        load_checkpoint(path)


def _edited_model(tmp_path, lineno, replace):
    """A saved model whose line ``lineno`` is ``replace(lines)``; returns its path."""
    dims = tiny_dims()
    path = tmp_path / "p.txt"
    save_model(init_params("starank", dims, 5), path, "starank", dims)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = replace(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def _meta(kind: str, dims: dict):
    """An ``_edited_model`` edit: the meta line naming ``kind`` and ``dims``."""
    return lambda lines: "meta " + json.dumps({"model_kind": kind, "dims": dims})


@pytest.mark.parametrize("kind,dims,shown", [
    ("oracle_replay", {}, "meta line: unknown model kind 'oracle_replay'"),
    ("bogus", {}, "meta line: unknown model kind 'bogus'"),
    ("pointwise_baseline", {}, "meta pointwise_baseline and its dims do not fit the parameter "
                                "table (file shape != meta shape): attn.V (6, 6) != None"),
    ("starank", {"embed": 7}, "hist.U0 (6, 4) != (7, 4)"),
    ("starank", {"feature_dim": 5}, "attn.W1 (4, 6) != (5, 6)"),
])
def test_checkpoint_meta_that_disagrees_with_its_parameters_names_the_line(tmp_path, kind, dims,
                                                                           shown):
    """The meta line's kind and dims must give the file's parameter table; oracle_replay
    is no model kind, so it is rejected like any other unknown name."""
    path = _edited_model(tmp_path, 2, _meta(kind, {**asdict(tiny_dims()), **dims}))
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}:2: ") and shown in str(err.value)


def test_checkpoint_saved_under_the_pointwise_alias_loads(tmp_path):
    """The benchmark's study workload saves its baseline under the CLI alias "pointwise"."""
    dims, path = tiny_dims(), tmp_path / "p.txt"
    params = init_params("pointwise", dims, 5)
    save_model(params, path, "pointwise", dims)
    back, kind, got_dims = load_model(path)
    assert kind == "pointwise_baseline" and got_dims == dims and back.names() == params.names()


def test_checkpoint_repeated_parameter_names_the_line(tmp_path):
    path = _edited_model(tmp_path, 4, lambda lines: lines[2])  # line 3's parameter again
    with pytest.raises(CheckpointError, match=re.escape("p.txt:4: repeats parameter ")):
        load_model(path)


def test_checkpoint_meta_that_is_not_an_object_names_the_line(tmp_path):
    path = _edited_model(tmp_path, 2, lambda lines: 'meta ["starank"]')
    with pytest.raises(CheckpointError, match=re.escape("p.txt:2: meta line is not a JSON object")):
        load_model(path)


def test_checkpoint_meta_without_model_kind_or_dims_names_the_line(tmp_path):
    for key in ("model_kind", "dims"):
        def drop_key(lines):
            meta = json.loads(lines[1][5:])
            del meta[key]
            return "meta " + json.dumps(meta)
        path = _edited_model(tmp_path, 2, drop_key)
        with pytest.raises(CheckpointError, match=re.escape(f"p.txt:2: meta line lacks ['{key}']")):
            load_model(path)


# every finite float, -0.0 and subnormals named so that each run draws them
_finite = st.one_of(st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308]),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _param_stores(draw):
    params = ParamStore()
    for k in range(draw(st.integers(1, 4))):
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        size = math.prod(shape)
        values = draw(st.lists(_finite, min_size=size, max_size=size))
        params.create(f"layer{k}.w", np.array(values, dtype=np.float64).reshape(shape))
    return params


_CHECKPOINT_PROPERTY = settings(max_examples=100,
                                suppress_health_check=[HealthCheck.function_scoped_fixture])


@_CHECKPOINT_PROPERTY
@given(_param_stores())
def test_checkpoint_round_trip_is_bitwise_over_shapes_and_finite_floats(tmp_path, params):
    path = tmp_path / "p.txt"
    save_checkpoint(params, path, {"note": "x"})
    back, meta = load_checkpoint(path)
    assert meta == {"note": "x"} and back.names() == params.names()
    for name, t in params.items():
        assert back[name].values.shape == t.values.shape
        assert back[name].values.tobytes() == t.values.tobytes()


def _corrupt(line: str, lineno: int, last: int, previous: str, choice: int) -> str:
    """One line of a saved model made unreadable; ``choice`` picks how."""
    if lineno == 1:
        return ["arrangerank-checkpoint v2", "checkpoint v1"][choice % 2]
    if lineno == 2:
        return ['meta ["starank"]', "meta {bad", "meta {}", 'meta {"model_kind": "starank"}',
                'meta {"model_kind": "starank", "dims": 3}', "mta {}"][choice % 6]
    if lineno == last:
        return "ned"
    fields = line.split(" ")
    edits = [fields + ["0x1.0p+0"], fields[:2] + [fields[2] + "x"] + fields[3:],
             ["parm"] + fields[1:]]
    if len(fields) > 3:
        edits += [fields[:-1], fields[:-1] + ["zz"], fields[:-1] + ["inf"], fields[:-1] + ["nan"]]
    if lineno > 3:
        edits.append(previous.split(" "))  # repeats the previous parameter's name
    return " ".join(edits[choice % len(edits)])


@_CHECKPOINT_PROPERTY
@given(_param_stores(), st.data())
def test_checkpoint_one_corrupted_line_is_rejected_naming_it(tmp_path, params, data):
    path = tmp_path / "p.txt"
    save_checkpoint(params, path, {"model_kind": "starank", "dims": asdict(tiny_dims())})
    lines = path.read_text().splitlines()
    lineno = data.draw(st.integers(1, len(lines)))
    choice = data.draw(st.integers(0, 11))
    lines[lineno - 1] = _corrupt(lines[lineno - 1], lineno, len(lines), lines[lineno - 2], choice)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}:{lineno}: ")


def test_training_log_csv(tmp_path):
    rows = [{"epoch": 0, "lr": 0.01, "mean_loss": 2.5, "mean_exp_neg_loss": 0.08},
            {"epoch": 1, "lr": 0.005, "mean_loss": 1.5, "mean_exp_neg_loss": 0.22}]
    path = tmp_path / "log.csv"
    write_training_log(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,lr,mean_loss,mean_exp_neg_loss"
    assert len(lines) == 3 and lines[1].startswith("0,0.01,2.5,")
