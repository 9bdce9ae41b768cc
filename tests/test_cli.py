import json

import pytest

from arrangerank.cli import main


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


def test_missing_file_nonzero_exit(tmp_path, capsys):
    assert _run("split", "--data", str(tmp_path / "nope.txt"), "--out", str(tmp_path)) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_nonzero_exit():
    with pytest.raises(SystemExit) as e:
        _run("gen-data", "--wat", "1")
    assert e.value.code != 0


def test_bad_config_key_fails(tmp_path):
    data, split = tmp_path / "d", tmp_path / "s"
    _run("gen-data", "--users", "5", "--history-len", "4", "--out", str(data))
    _run("split", "--data", str(data / "dataset.txt"), "--out", str(split))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning = fast\n")
    with pytest.raises(SystemExit):
        _run("train", "--split-dir", str(split), "--config", str(cfg),
             "--out", str(tmp_path / "r"))


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


@pytest.mark.parametrize("line,shown", [
    ("examination_table = 1.0, 0.x5, 0.3",
     "examination_table: could not convert string to float: ' 0.x5'"),
    ("relevance_map = 0:0.0, 0.2, 2:1.0", "relevance_map: expected grade:prob, got '0.2'"),
])
def test_bad_click_config_values_name_file_and_line(tmp_path, capsys, line, shown):
    click = tmp_path / "click.cfg"
    click.write_text(f"kind = pbm\n{line}\n")
    assert _run("oracle", "--split-dir", str(tmp_path / "s"), "--metric", "pbm",
                "--click-config", str(click), "--out", str(tmp_path / "o")) == 1
    assert f"error: {click}:2: {shown}" in capsys.readouterr().err


def test_bad_train_config_value_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = four\n")
    assert _run("train", "--split-dir", str(tmp_path / "s"), "--config", str(cfg),
                "--out", str(tmp_path / "r")) == 1
    assert f"error: {cfg}:2: batch_size: invalid literal for int()" in capsys.readouterr().err


def test_evaluate_bad_instance_line_exits_naming_it(tmp_path, capsys):
    from arrangerank.model import ModelDims, init_params
    from arrangerank.training import save_model

    dims = ModelDims(feature_dim=2, profile_dim=2, embed=4, attn_width=4, mlp_hidden=4)
    ckpt = tmp_path / "ckpt.txt"
    save_model(init_params("starank", dims, 0), ckpt, "starank", dims)
    inst = tmp_path / "test.txt"
    inst.write_text("q0|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|\n"
                    "q1|0.5,0.5||10:2:0.1,nan;11:1:0.3,0.4|\n")
    assert _run("evaluate", "--checkpoint", str(ckpt), "--instances", str(inst),
                "--out", str(tmp_path / "ev")) == 1
    assert f"error: {inst}:2: " in capsys.readouterr().err


def test_bench_reports_exponent(tmp_path, capsys):
    out = tmp_path / "bench"
    assert _run("bench", "--sizes", "4,8", "--repeats", "2", "--width", "64",
                "--out", str(out)) == 0
    text = (out / "bench.csv").read_text()
    assert text.startswith("candidates,seconds")
    assert "exponent" in capsys.readouterr().out
