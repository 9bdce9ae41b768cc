import re

import numpy as np
import pytest

from arrangerank.autodiff import ShapeError
from arrangerank.clickmodels import ClickModelSpec
from arrangerank.data import DatasetSplit, generate_synthetic, temporal_split
from arrangerank.model import ModelDims, init_params, param_shapes
from arrangerank.params import CheckpointError, load_checkpoint, save_checkpoint
from arrangerank.training import (TrainConfig, _Sgd, dims_for, ensure_oracles, learning_rate,
                                  load_model, save_model, train, write_training_log)

from conftest import make_instance, separable_rank_split, tiny_dims


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr_initial=1e-4, lr_final=1e-2)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lion")


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


def test_non_finite_gradient_stops_training_naming_epoch_and_query():
    inst = make_instance(seed=3, n=4, hist_len=2)
    inst.cands.features[1, 0] = np.inf  # the loss stays finite, the gradient does not
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError, match=r"epoch 0, group of query 'test:3'"):
            train("starank", DatasetSplit(train=[inst]), "ndcg", _small_cfg(epochs=1))


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
    params = init_params("starank", dims, 5)
    path = tmp_path / "p.txt"
    save_model(params, path, "starank", dims)
    other = ModelDims(feature_dim=9, profile_dim=9, embed=6, attn_width=6,
                      mlp_hidden=6, max_list_len=6)
    with pytest.raises(ShapeError):
        load_checkpoint(path, expect_shapes=param_shapes("starank", other))
    back, kind, got_dims = load_model(path, expect_kind="starank", expect_dims=dims)
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


def test_training_log_csv(tmp_path):
    rows = [{"epoch": 0, "lr": 0.01, "mean_loss": 2.5, "mean_exp_neg_loss": 0.08},
            {"epoch": 1, "lr": 0.005, "mean_loss": 1.5, "mean_exp_neg_loss": 0.22}]
    path = tmp_path / "log.csv"
    write_training_log(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,lr,mean_loss,mean_exp_neg_loss"
    assert len(lines) == 3 and lines[1].startswith("0,0.01,2.5,")
