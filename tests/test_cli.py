import hashlib
import itertools
import json
import re
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from arrangerank.cli import build_parser, main
from arrangerank.clickmodels import (ClickModelSpec, examination_prob, load_click_spec,
                                     metric_fingerprint, oracle_permutation, relevance_prob)
from arrangerank.data import oracle_seed, read_instances
from arrangerank.training import TrainConfig, ensure_oracles


def _run(*argv):
    return main(list(argv))


def test_gen_data_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("gen-data", "--users", "6", "--history-len", "4", "--seed", "3",
                    "--out", str(out)) == 0
    assert (a / "dataset.txt").read_bytes() == (b / "dataset.txt").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert "dataset.txt" in manifest["outputs"]
    assert (a / "config.echo.txt").exists()


def test_split_writes_three_files_and_report(tmp_path):
    data = tmp_path / "data"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    out = tmp_path / "split"
    assert _run("split", "--data", str(data / "dataset.txt"), "--out", str(out)) == 0
    for name in ("train.txt", "validation.txt", "test.txt", "split_report.txt"):
        assert (out / name).exists()
    assert "kept 5 users" in (out / "split_report.txt").read_text()


def test_split_repeated_candidate_id_names_user_and_window(tmp_path, capsys):
    data = tmp_path / "data"
    _run("gen-data", "--users", "3", "--history-len", "4", "--out", str(data))
    lines = (data / "dataset.txt").read_text().splitlines()
    user, profile, items = lines[1].split("|")
    items = items.split(";")
    # the last item joins the test window (the last 10) under its neighbour's id
    items[-1] = items[-2].split(":")[0] + items[-1][items[-1].index(":"):]
    lines[1] = "|".join([user, profile, ";".join(items)])
    (data / "dataset.txt").write_text("\n".join(lines) + "\n")
    assert _run("split", "--data", str(data / "dataset.txt"), "--out", str(tmp_path / "s")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: user {user}: the test candidate window repeats an item id")


def test_split_undecodable_byte_exits_naming_file_and_line(tmp_path, capsys):
    data = tmp_path / "data"
    _run("gen-data", "--users", "3", "--history-len", "4", "--out", str(data))
    lines = (data / "dataset.txt").read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"|", "|\u00e9".encode(), 1)  # 0xc3 0xa9 opens the profile
    (data / "dataset.txt").write_bytes(b"\n".join(lines))
    assert _run("split", "--data", str(data / "dataset.txt"), "--out", str(tmp_path / "s")) == 1
    col = lines[1].index(b"|") + 2
    assert capsys.readouterr().err == (f"error: {data / 'dataset.txt'}:2: byte 0xc3 at column "
                                       f"{col} is not ASCII\n")


def test_full_recipe_and_artifacts(tmp_path):
    data, split, oracle = tmp_path / "d", tmp_path / "s", tmp_path / "o"
    run, ev, ins = tmp_path / "run", tmp_path / "eval", tmp_path / "inspect"
    assert _run("gen-data", "--users", "8", "--history-len", "4", "--seed", "1",
                "--out", str(data)) == 0
    assert _run("split", "--data", str(data / "dataset.txt"), "--out", str(split)) == 0
    assert _run("oracle", "--split-dir", str(split), "--metric", "ndcg", "--seed", "5",
                "--out", str(oracle)) == 0
    train_txt = (oracle / "train.txt").read_text()
    assert all(line.split("|")[4] for line in train_txt.splitlines())
    assert _run("train", "--model", "starank", "--split-dir", str(oracle),
                "--epochs", "2", "--embedding-dim", "8", "--dropout-rate", "0",
                "--lr-initial", "0.005", "--lr-final", "0.005",
                "--out", str(run)) == 0
    assert (run / "checkpoint.txt").exists()
    log = (run / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,lr,mean_loss,mean_exp_neg_loss" and len(log) == 3
    assert _run("evaluate", "--checkpoint", str(run / "checkpoint.txt"),
                "--instances", str(oracle / "test.txt"), "--k", "5,10",
                "--out", str(ev)) == 0
    header = (ev / "metrics.csv").read_text().splitlines()[0]
    assert header == "N@5,N@10,M@5,M@10,P@5,P@10,U@5,U@10"
    qid = train_txt.splitlines()[0].split("|")[0]
    assert _run("inspect", "--checkpoint", str(run / "checkpoint.txt"),
                "--instances", str(oracle / "train.txt"), "--query-ids", qid,
                "--out", str(ins)) == 0
    attn = list(ins.glob("attention_*.csv"))
    assert len(attn) == 1


def test_oracle_reports_read_fill_and_write_apart(tmp_path, capsys):
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    capsys.readouterr()
    assert _run("oracle", "--split-dir", str(split), "--out", str(tmp_path / "o")) == 0
    assert re.fullmatch(r"computed 15 oracle permutations in \d+\.\d\ds \(\d+/s\); "
                        r"read \d+\.\d\ds, wrote \d+\.\d\ds\n", capsys.readouterr().out)


def test_train_config_file_and_flag_override(tmp_path):
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 3\nembedding_dim = 8\ndropout_rate = 0.0\n"
                   "lr_initial = 0.005\nlr_final = 0.005\n# comment\n")
    run = tmp_path / "run"
    assert _run("train", "--model", "pointwise", "--split-dir", str(split),
                "--config", str(cfg), "--epochs", "1", "--out", str(run)) == 0
    echo = (run / "config.echo.txt").read_text()
    assert "epochs = 1" in echo            # flag wins over file
    assert "embedding_dim = 8" in echo


def test_train_loss_variant_flag_reaches_the_config(tmp_path):
    data, split, run = tmp_path / "d", tmp_path / "s", tmp_path / "run"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    assert _run("train", "--split-dir", str(split), "--epochs", "1", "--embedding-dim", "4",
                "--loss-variant", "summation", "--out", str(run)) == 0
    assert "loss_variant = summation" in (run / "config.echo.txt").read_text().splitlines()


def test_every_train_config_key_has_a_train_flag():
    args = build_parser().parse_args(["train", "--split-dir", "s", "--out", "o"])
    assert set(asdict(TrainConfig())) <= set(vars(args))


def test_missing_file_nonzero_exit(tmp_path, capsys):
    assert _run("split", "--data", str(tmp_path / "nope.txt"), "--out", str(tmp_path)) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_nonzero_exit():
    with pytest.raises(SystemExit) as e:
        _run("gen-data", "--wat", "1")
    assert e.value.code != 0


def test_bad_config_key_fails(tmp_path, capsys):
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 1\nlearning = fast\n")
    assert _run("train", "--split-dir", str(split), "--config", str(cfg),
                "--out", str(tmp_path / "r")) == 1
    assert f"error: {cfg}:2: unknown config key 'learning'" in capsys.readouterr().err


def test_malformed_config_lines_name_file_and_line(tmp_path, capsys):
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# header\nepochs = 1\nbatch_size 4\n")
    assert _run("train", "--split-dir", str(split), "--config", str(cfg),
                "--out", str(tmp_path / "r")) == 1
    assert f"error: {cfg}:3: expected 'key = value'" in capsys.readouterr().err
    click = tmp_path / "click.cfg"
    click.write_text("kind = pbm\ntau: 2\n")
    assert _run("oracle", "--split-dir", str(split), "--metric", "pbm",
                "--click-config", str(click), "--out", str(tmp_path / "o")) == 1
    assert f"error: {click}:2: expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("train", "--config"),
                                  ("oracle", "--metric", "pbm", "--click-config")])
def test_a_config_byte_that_is_not_utf8_exits_naming_file_line_and_byte(tmp_path, capsys, argv):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "o"
    cfg.write_bytes("# r\u00e9glages\n".encode() + b"kind = pbm\ntau = 1\xff\n")  # UTF-8 comment
    assert _run(*argv, str(cfg), "--split-dir", str(tmp_path / "s"), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: byte 0xff is not UTF-8\n"
    assert not out.exists()


@pytest.mark.parametrize("line,shown", [
    ("examination_table = 1.0, 0.x5, 0.3",
     "examination_table: could not convert string to float: ' 0.x5'"),
    ("relevance_map = 0:0.0, 0.2, 2:1.0", "relevance_map: expected grade:prob, got '0.2'"),
    ("examination_table = 1.0, 1.5", "examination_table: examination probabilities must lie in"),
    ("kind = cascade", "kind: unknown click model kind 'cascade'"),
    ("taus = 0.5", "unknown keys ['taus']"),
    ("tau = nan", "tau: tau must be >= 0, got nan"),
    ("examination_table = nan, 0.5, 0.9",
     "examination_table: examination probabilities must lie in"),
    ("examination_table = 1.0, 0.5; 0.3, 0.2",
     "examination_table: a pbm table is one row, got 2 ';'-separated rows"),
    ("r_max = 0", "r_max: r_max must be >= 1, got 0"),
])
def test_bad_click_config_values_name_file_and_line(tmp_path, capsys, line, shown):
    click = tmp_path / "click.cfg"
    click.write_text(f"kind = pbm\n{line}\n")
    assert _run("oracle", "--split-dir", str(tmp_path / "s"), "--metric", "pbm",
                "--click-config", str(click), "--out", str(tmp_path / "o")) == 1
    assert f"error: {click}:2: {shown}" in capsys.readouterr().err


def test_oracle_relevance_map_missing_a_grade_exits_naming_the_query(tmp_path, capsys):
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    click = tmp_path / "click.cfg"
    click.write_text("kind = pbm\nrelevance_map = 0:0.0, 1:0.3\n")  # grades 2-4 are missing
    assert _run("oracle", "--split-dir", str(split), "--metric", "pbm",
                "--click-config", str(click), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert re.search(r"error: query \d+:train: item \d+ has grade [2-4], which the relevance map "
                     r"\[0, 1\] lacks", err), err


def test_oracle_tied_non_monotone_pbm_table_beyond_the_enumeration_cap(tmp_path, capsys):
    # 12 items, a table with tied, zero and non-monotone weights: solved in closed form
    split = tmp_path / "s"
    split.mkdir()
    grades = {20 + i: g for i, g in enumerate([3, 0, 4, 1, 1, 2, 4, 0, 3, 2, 2, 1])}
    items = ";".join(f"{i}:{g}:0.{i},0.5" for i, g in grades.items())
    (split / "test.txt").write_text(f"q0|0.5,0.5||{items}|\n")
    click = tmp_path / "click.cfg"
    click.write_text("kind = pbm\n"
                     "examination_table = 0.3, 0.9, 0.7, 0.9, 0.3, 1, 0.7, 0.7, 0, 0.9, 0.3, 0.7\n")
    assert _run("oracle", "--split-dir", str(split), "--metric", "pbm",
                "--click-config", str(click), "--out", str(tmp_path / "o")) == 0, \
        capsys.readouterr().err
    oracle = [int(i) for i in (tmp_path / "o" / "test.txt").read_text().split("|")[4].split(",")]
    assert sorted(oracle) == sorted(grades)
    spec = load_click_spec(click)
    weights = [Fraction(examination_prob(spec, p)) for p in range(1, 13)]
    values = [Fraction(relevance_prob(spec, grades[i])) for i in oracle]
    optimum = sum(w * v for w, v in zip(sorted(weights), sorted(values)))  # rearrangement
    assert sum(w * v for w, v in zip(weights, values)) == optimum


_QUARTER_UBM = ("kind = ubm\nrelevance_map = 0:0, 1:0.25, 2:0.5, 3:0.75, 4:1\n"
                "examination_table = " + "; ".join(", ".join(str(0.25 * (1 + (3 * i + 5 * j) % 4))
                                                           for j in range(11)) for i in range(11)))


def _exact_ubm_clicks(order, labels, spec):
    """Expected clicks of an arrangement by the browsing-model DP in exact fractions."""
    q, score = [Fraction(1)], Fraction(0)
    for i, d in enumerate(order, start=1):
        v = Fraction(relevance_prob(spec, labels[d]))
        gam = [Fraction(examination_prob(spec, i, j)) for j in range(i)]
        click = sum(a * g for a, g in zip(q, gam)) * v
        score += click
        q = [a * (1 - g * v) for a, g in zip(q, gam)] + [click]
    return score


def test_oracle_explicit_browsing_table_reaches_the_exact_maximum(tmp_path, capsys):
    # 6-item slates under a quarter-valued UBM table and map, so float scores are exact
    split, click = tmp_path / "s", tmp_path / "click.cfg"
    split.mkdir()
    click.write_text(_QUARTER_UBM + "\n")
    slates = {f"q{k}": {10 * k + i: g for i, g in enumerate(grades)} for k, grades in enumerate(
        [[3, 0, 4, 1, 1, 2], [2, 2, 0, 0, 1, 1], [4, 3, 2, 1, 0, 0], [1, 1, 1, 1, 1, 0]])}
    (split / "test.txt").write_text("".join(
        f"{q}|0.5,0.5||" + ";".join(f"{i}:{g}:0.{i},0.5" for i, g in labels.items()) + "|\n"
        for q, labels in slates.items()))
    assert _run("oracle", "--split-dir", str(split), "--metric", "ubm", "--click-config",
                str(click), "--seed", "3", "--out", str(tmp_path / "o")) == 0, \
        capsys.readouterr().err
    spec = load_click_spec(click)
    written = read_instances(tmp_path / "o" / "test.txt")
    assert [inst.query_id for inst in written] == list(slates)
    for inst in written:
        labels = slates[inst.query_id]
        best = max(_exact_ubm_clicks(row, labels, spec) for row in itertools.permutations(labels))
        assert _exact_ubm_clicks(inst.oracle.order, labels, spec) == best
        seed = oracle_seed(3, metric_fingerprint(spec), inst.query_id)
        assert inst.oracle.order == oracle_permutation(labels, spec, seed).order


def test_oracle_explicit_browsing_table_beyond_the_enumeration_cap_exits(tmp_path, capsys):
    split, click, out = tmp_path / "s", tmp_path / "click.cfg", tmp_path / "o"
    split.mkdir()
    click.write_text(_QUARTER_UBM + "\n")
    items = ";".join(f"{i}:{i % 5}:0.{i},0.5" for i in range(11))
    (split / "test.txt").write_text(f"q0|0.5,0.5||{items}|\n")
    assert _run("oracle", "--split-dir", str(split), "--metric", "ubm", "--click-config",
                str(click), "--out", str(out)) == 1
    assert ("error: 11 candidates exceed the enumeration cap 10 of an explicit browsing-model "
            "table" in capsys.readouterr().err)
    assert not out.exists()


def test_bad_train_config_value_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = four\n")
    assert _run("train", "--split-dir", str(tmp_path / "s"), "--config", str(cfg),
                "--out", str(tmp_path / "r")) == 1
    assert f"error: {cfg}:2: batch_size: invalid literal for int()" in capsys.readouterr().err


def test_out_of_range_train_config_value_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 0\n")
    assert _run("train", "--split-dir", str(tmp_path / "s"), "--config", str(cfg),
                "--out", str(tmp_path / "r")) == 1
    assert f"error: {cfg}:2: batch_size: batch_size must be >= 1, got 0" in \
        capsys.readouterr().err


def test_unknown_loss_variant_in_a_train_config_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nloss_variant = bogus\n")
    assert _run("train", "--split-dir", str(tmp_path / "s"), "--config", str(cfg),
                "--out", str(tmp_path / "r")) == 1
    assert f"error: {cfg}:2: loss_variant: loss_variant must be 'listwise' or 'summation', " \
        "got 'bogus'" in capsys.readouterr().err


def test_train_zero_epochs_exits_before_training(tmp_path, capsys):
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    run = tmp_path / "run"
    assert _run("train", "--split-dir", str(split), "--epochs", "0", "--out", str(run)) == 1
    assert "error: epochs must be >= 1, got 0" in capsys.readouterr().err
    assert not (run / "checkpoint.txt").exists()


def test_a_training_run_that_fails_its_float_checks_exits_with_an_error_line(tmp_path, capsys):
    """Sgd at lr 1e300 makes the loss and every gradient non-finite, and at lr 1e4 the mean
    loss diverges; each exits 1 naming the epoch and a query, and writes no output directory."""
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "40", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    for lr, says in (("1e300", "non-finite loss, hist.U0"), ("1e4", "mean loss")):
        run = tmp_path / f"run{lr}"
        with np.errstate(over="ignore", invalid="ignore"):
            assert _run("train", "--split-dir", str(split), "--optimizer", "sgd", "--lr-initial",
                        lr, "--lr-final", lr, "--epochs", "3", "--out", str(run)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: epoch 1, group of query '\d+:train': ", err, re.M), err
        assert says in err and "Traceback" not in err
        assert not run.exists()


def test_train_config_file_keys_join_in_any_order(tmp_path):
    # lr_initial alone would fall below the default lr_final; the pair is valid
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lr_initial = 1e-7\nlr_final = 1e-8\nepochs = 1\nembedding_dim = 4\n")
    run = tmp_path / "run"
    assert _run("train", "--model", "pointwise", "--split-dir", str(split), "--config", str(cfg),
                "--out", str(run)) == 0
    assert "lr_final = 1e-08" in (run / "config.echo.txt").read_text()


def test_oracle_without_split_files_exits_naming_the_directory(tmp_path, capsys):
    missing, out = tmp_path / "nonexistent", tmp_path / "o"
    assert _run("oracle", "--split-dir", str(missing), "--out", str(out)) == 1
    assert capsys.readouterr().err == \
        f"error: {missing}: no train.txt, validation.txt or test.txt\n"
    assert not out.exists()


def test_train_echoes_how_many_oracles_came_from_the_split(tmp_path):
    data, split, filled = tmp_path / "d", tmp_path / "s", tmp_path / "o"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    assert _run("oracle", "--split-dir", str(split), "--metric", "pbm", "--out", str(filled)) == 0
    n_train = len(read_instances(split / "train.txt"))
    for split_dir, want in ((split, 0), (filled, n_train)):
        run = tmp_path / f"run_{want}"
        assert _run("train", "--split-dir", str(split_dir), "--metric", "ndcg", "--epochs", "1",
                    "--embedding-dim", "4", "--out", str(run)) == 0
        echo = (run / "config.echo.txt").read_text().splitlines()
        assert f"oracles_from_split = {want}" in echo and "metric = ndcg" in echo


def _tiny_model(tmp_path, instance_lines):
    """A starank checkpoint over 2 features and an instance file; their paths."""
    from arrangerank.model import ModelDims, init_params
    from arrangerank.training import save_model

    dims = ModelDims(feature_dim=2, profile_dim=2, embed=4, attn_width=4, mlp_hidden=4)
    ckpt = tmp_path / "ckpt.txt"
    save_model(init_params("starank", dims, 0), ckpt, "starank", dims)
    inst = tmp_path / "test.txt"
    inst.write_text("".join(line + "\n" for line in instance_lines))
    return ckpt, inst


def test_evaluate_bad_instance_line_exits_naming_it(tmp_path, capsys):
    ckpt, inst = _tiny_model(tmp_path, ["q0|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|",
                                        "q1|0.5,0.5||10:2:0.1,nan;11:1:0.3,0.4|"])
    assert _run("evaluate", "--checkpoint", str(ckpt), "--instances", str(inst),
                "--out", str(tmp_path / "ev")) == 1
    assert f"error: {inst}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-1", "5,0"])
def test_evaluate_cutoff_below_one_exits_naming_it(tmp_path, capsys, k):
    ckpt, inst = _tiny_model(tmp_path, ["q0|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|"])
    assert _run("evaluate", "--checkpoint", str(ckpt), "--instances", str(inst), "--k", k,
                "--out", str(tmp_path / "ev")) == 1
    assert f"error: cutoff k must be >= 1, got {min(map(int, k.split(',')))}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("k", ["5,5", "5,10,5"])
def test_evaluate_repeated_cutoff_exits_naming_it(tmp_path, capsys, k):
    ckpt, inst = _tiny_model(tmp_path, ["q0|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|"])
    assert _run("evaluate", "--checkpoint", str(ckpt), "--instances", str(inst), "--k", k,
                "--out", str(tmp_path / "ev")) == 1
    assert f"error: cutoff k repeats: {k.replace(',', ', ')}" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "inspect"])
@pytest.mark.parametrize("meta", ["[1, 2]", '{"dims": {}}'])
def test_checkpoint_with_a_bad_meta_line_exits_naming_it(tmp_path, capsys, command, meta):
    ckpt = tmp_path / "ckpt.txt"
    ckpt.write_text(f"arrangerank-checkpoint v1\nmeta {meta}\nparam w 1 0x1.0p+0\nend\n")
    inst = tmp_path / "test.txt"
    inst.write_text("q0|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|\n")
    extra = ["--query-ids", "q0"] if command == "inspect" else []
    assert _run(command, "--checkpoint", str(ckpt), "--instances", str(inst), *extra,
                "--out", str(tmp_path / "out")) == 1
    assert f"error: {ckpt}:2: meta line " in capsys.readouterr().err


def test_evaluate_click_config_replaces_the_column_of_its_kind(tmp_path):
    ckpt, inst = _tiny_model(tmp_path, [
        "q0|0.5,0.5|0:0:0.1,0.9|10:2:0.1,0.2;11:4:0.3,0.4;12:1:0.8,0.1|",
        "q1|0.2,0.7||10:3:0.5,0.2;11:0:0.3,0.6;12:4:0.1,0.1|"])
    tables = {}
    for kind in (None, "pbm", "ubm"):
        extra = []
        if kind:
            cfg = tmp_path / f"{kind}.cfg"
            cfg.write_text(f"kind = {kind}\ntau = 0\n")
            extra = ["--click-config", str(cfg)]
        out = tmp_path / f"ev_{kind}"
        assert _run("evaluate", "--checkpoint", str(ckpt), "--instances", str(inst), "--k", "2",
                    *extra, "--out", str(out)) == 0
        head, values = (out / "metrics.csv").read_text().splitlines()
        tables[kind] = dict(zip(head.split(","), values.split(",")))
    assert list(tables[None]) == ["N@2", "M@2", "P@2", "U@2"]
    for kind, column in (("pbm", "P@2"), ("ubm", "U@2")):
        changed = {c for c in tables[None] if tables[kind][c] != tables[None][c]}
        assert changed == {column}


def test_click_config_is_hashed_into_the_manifest_and_its_spec_echoed(tmp_path):
    ckpt, inst = _tiny_model(tmp_path, ["q0|0.5,0.5||10:2:0.1,0.2;11:3:0.3,0.4;12:1:0.8,0.1|"])
    cfg = tmp_path / "ubm.cfg"
    cfg.write_text("kind = ubm\ntau = 0.25\nr_max = 3\n")
    spec = load_click_spec(cfg)
    split = tmp_path / "s"
    split.mkdir()
    (split / "test.txt").write_text(inst.read_text())
    for command, extra in (("oracle", ["--split-dir", str(split), "--metric", "ubm"]),
                           ("evaluate", ["--checkpoint", str(ckpt), "--instances", str(inst)])):
        out = tmp_path / command
        assert _run(command, *extra, "--click-config", str(cfg), "--tau", "3",
                    "--out", str(out)) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs[str(cfg)] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        echo = (out / "config.echo.txt").read_text().splitlines()
        assert not any(line.startswith("tau") for line in echo)  # the file's tau wins
        key = "metric" if command == "oracle" else "U"
        assert f"{key} = {metric_fingerprint(spec)}" in echo
        # the oracle's r_max is the click model's; evaluate's own r_max binarizes M@K
        assert f"r_max = {3 if command == 'oracle' else 4}" in echo
    assert f"P = {metric_fingerprint(ClickModelSpec(kind='pbm', tau=3.0))}" in echo


def test_parametric_click_metrics_reach_oracle_and_train(tmp_path):
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--r-max", "3", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    assert _run("oracle", "--split-dir", str(split), "--metric", "ubm", "--tau", "0.5",
                "--r-max", "3", "--seed", "2", "--out", str(tmp_path / "o")) == 0
    spec = ClickModelSpec("ubm", tau=0.5, r_max=3)
    for name in ("train", "validation", "test"):
        want = read_instances(split / f"{name}.txt")
        ensure_oracles(want, spec, 2, 3)
        got = read_instances(tmp_path / "o" / f"{name}.txt")
        assert [inst.oracle.order for inst in got] == [inst.oracle.order for inst in want]
    echo = (tmp_path / "o" / "config.echo.txt").read_text()
    assert f"metric = {metric_fingerprint(spec)}" in echo
    run = tmp_path / "run"
    assert _run("train", "--split-dir", str(split), "--metric", "pbm", "--tau", "0.5",
                "--r-max", "3", "--epochs", "1", "--embedding-dim", "4", "--out", str(run)) == 0
    echo = (run / "config.echo.txt").read_text()
    assert f"metric = {metric_fingerprint(ClickModelSpec('pbm', tau=0.5, r_max=3))}" in echo


def test_oracle_metric_conflicting_with_the_click_config_kind_exits(tmp_path):
    click = tmp_path / "click.cfg"
    click.write_text("kind = pbm\n")
    with pytest.raises(SystemExit, match=f"--metric ubm conflicts with {click} \\(kind pbm\\)"):
        _run("oracle", "--split-dir", str(tmp_path / "s"), "--metric", "ubm",
             "--click-config", str(click), "--out", str(tmp_path / "o"))


def test_inspect_unknown_query_id_exits(tmp_path, capsys):
    ckpt, inst = _tiny_model(tmp_path, ["q0|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|"])
    assert _run("inspect", "--checkpoint", str(ckpt), "--instances", str(inst),
                "--query-ids", "q0", "q9", "--out", str(tmp_path / "out")) == 1
    assert "error: no instance with query id 'q9'" in capsys.readouterr().err


_REJECTED = {  # arguments that fail each command's checks, and the message they give
    "train --epochs 0": (["train", "--split-dir", "{split}", "--epochs", "0"],
                         "epochs must be >= 1, got 0"),
    "evaluate --k 5,5": (["evaluate", "--checkpoint", "{ckpt}", "--instances", "{inst}",
                          "--k", "5,5"], "cutoff k repeats: 5, 5"),
    "gen-data --users 0": (["gen-data", "--users", "0"], "sizes must be positive"),
    "gen-data --r-max -2": (["gen-data", "--users", "2", "--r-max", "-2"],
                            "r_max must be >= 1, got -2"),
    "gen-data --context-strength inf": (["gen-data", "--users", "2", "--context-strength",
                                         "inf"], "context_strength must be finite and >= 0, "
                                                 "got inf"),
    "gen-data --context-strength nan": (["gen-data", "--users", "2", "--context-strength",
                                         "nan"], "context_strength must be finite and >= 0, "
                                                 "got nan"),
    "gen-data --context-strength -1": (["gen-data", "--users", "2", "--context-strength",
                                        "-1"], "context_strength must be finite and >= 0, "
                                               "got -1.0"),
    "oracle --metric pbm --r-max 0": (["oracle", "--split-dir", "{split}", "--metric", "pbm",
                                       "--r-max", "0"], "r_max must be >= 1, got 0"),
    "train --seed -1": (["train", "--split-dir", "{split}", "--seed", "-1"],
                        "seed must be >= 0, got -1"),
    "train --loss-variant bogus": (["train", "--split-dir", "{split}", "--loss-variant",
                                    "bogus"], "loss_variant must be 'listwise' or 'summation', "
                                              "got 'bogus'"),
    "oracle --metric ndcg --r-max 1": (["oracle", "--split-dir", "{split}", "--metric", "ndcg",
                                        "--r-max", "1"],
                                       "query q0: item 10 has grade 2 outside [0, 1]"),
    "oracle --metric ndcg --r-max 0": (["oracle", "--split-dir", "{split}", "--metric", "ndcg",
                                        "--r-max", "0"], "r_max must be >= 1, got 0"),
    "evaluate oracle_replay meta": (["evaluate", "--checkpoint", "{replay}", "--instances",
                                     "{inst}"], "{replay}:2: meta line: unknown model kind "
                                                "'oracle_replay'"),
    "split malformed": (["split", "--data", "{bad}"], "{bad}:1: "),
    "inspect unknown id": (["inspect", "--checkpoint", "{ckpt}", "--instances", "{inst}",
                            "--query-ids", "q0", "q9"], "no instance with query id 'q9'"),
    "bench --sizes 5": (["bench", "--sizes", "5"],
                        "fitting an exponent needs two distinct sizes, got 5"),
    "bench --sizes 5,5": (["bench", "--sizes", "5,5"],
                          "fitting an exponent needs two distinct sizes, got 5,5"),
    "bench --sizes 0,5": (["bench", "--sizes", "0,5"], "every size must be >= 1, got 0"),
    "bench --width 0": (["bench", "--sizes", "4,8", "--width", "0"],
                        "width must be >= 1, got 0"),
    "bench --sizes ''": (["bench", "--sizes", ""], "--sizes: '' is not an integer"),
    "bench --sizes 4,x": (["bench", "--sizes", "4,x"], "--sizes: 'x' is not an integer"),
    "bench --repeats 0": (["bench", "--sizes", "4,8", "--repeats", "0"],
                          "repeats must be >= 1, got 0"),
    "bench --repeats -5": (["bench", "--sizes", "4,8", "--repeats", "-5"],
                           "repeats must be >= 1, got -5"),
    "evaluate --k 5,": (["evaluate", "--checkpoint", "{ckpt}", "--instances", "{inst}",
                         "--k", "5,"], "--k: '' is not an integer"),
    "evaluate --k five": (["evaluate", "--checkpoint", "{ckpt}", "--instances", "{inst}",
                           "--k", "five"], "--k: 'five' is not an integer"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_a_rejected_command_makes_no_out_path(tmp_path, capsys, case):
    """Every command checks its arguments and inputs before it makes ``--out``; inspect
    checks every query id before it writes the first attention file."""
    ckpt, inst = _tiny_model(tmp_path, ["q0|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|"])
    split, bad, out = tmp_path / "s", tmp_path / "bad.txt", tmp_path / "out"
    split.mkdir()
    (split / "train.txt").write_text(inst.read_text())
    bad.write_text("u0|0.5,0.5\n")
    replay = tmp_path / "replay.txt"  # a replayer of the instances' oracles is no model kind
    replay.write_text(ckpt.read_text().replace('"model_kind": "starank"',
                                               '"model_kind": "oracle_replay"'))
    paths = {"split": split, "ckpt": ckpt, "inst": inst, "bad": bad, "replay": replay}
    argv, message = _REJECTED[case]
    assert _run(*[arg.format(**paths) for arg in argv], "--out", str(out)) == 1
    assert f"error: {message.format(**paths)}" in capsys.readouterr().err
    assert not out.exists()


def test_decode_scaling_without_sizes_names_the_sizes_check():
    from arrangerank.experiments import decode_scaling

    with pytest.raises(ValueError, match="fitting an exponent needs two distinct sizes, got $"):
        decode_scaling(sizes=())


def test_bench_reports_exponent(tmp_path, capsys):
    out = tmp_path / "bench"
    assert _run("bench", "--sizes", "4,8", "--repeats", "2", "--width", "64",
                "--out", str(out)) == 0
    text = (out / "bench.csv").read_text()
    assert text.startswith("candidates,seconds")
    assert "exponent" in capsys.readouterr().out
