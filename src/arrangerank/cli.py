"""Command-line entry point wiring the modules into reproducible recipes.

Every subcommand writes its artifacts into an output directory together
with ``manifest.json`` (input/output hashes plus the seeds used) and
``config.echo.txt`` (the effective flat key=value configuration), so a run
can be audited and reproduced from its directory alone.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .clickmodels import ClickModelSpec, load_click_spec
from .data import (generate_synthetic, parse_value, read_dataset, read_instances,
                   read_key_values, temporal_split, write_dataset, write_instances)
from .evaluation import evaluate, export_attention, export_attention_weights
from .training import (TrainConfig, dims_for, ensure_oracles, load_model, save_model,
                       train, write_training_log)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, seeds: dict, inputs: list[Path],
                    outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "seeds": seeds,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p.relative_to(out_dir)): _sha256(p) for p in outputs},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _echo_config(out_dir: Path, values: dict) -> None:
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    (out_dir / "config.echo.txt").write_text("\n".join(lines) + "\n")


def _build_config(args) -> TrainConfig:
    cfg = TrainConfig()
    fields = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    merged = dict(fields)
    file_values = read_key_values(args.config) if args.config else {}
    for key in file_values:
        if key not in fields:
            raise SystemExit(f"unknown config key {key!r}")
        merged[key] = parse_value(args.config, file_values, key, type(fields[key]))
    for key in fields:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return TrainConfig(**merged)


def _metric_arg(name: str, tau: float, r_max: int, click_config: str | None = None):
    if name == "ndcg":
        return "ndcg"
    if click_config:
        spec = load_click_spec(click_config)
        if spec.kind != name:
            raise SystemExit(f"--metric {name} conflicts with {click_config} (kind {spec.kind})")
        return spec
    return ClickModelSpec(kind=name, tau=tau, r_max=r_max)


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ------------------------------------------------------------- subcommands


def _cmd_gen_data(args) -> int:
    out = _out_dir(args.out)
    logs = generate_synthetic(args.users, history_len=args.history_len,
                              n_candidates=args.candidates, feature_dim=args.dim,
                              context_strength=args.context_strength, seed=args.seed,
                              r_max=args.r_max)
    data_path = out / "dataset.txt"
    write_dataset(logs, data_path)
    _echo_config(out, {k: getattr(args, k) for k in
                       ("users", "history_len", "candidates", "dim",
                        "context_strength", "seed", "r_max")})
    _write_manifest(out, "gen-data", {"seed": args.seed}, [], [data_path])
    print(f"wrote {len(logs)} user logs to {data_path}")
    return 0


def _cmd_split(args) -> int:
    out = _out_dir(args.out)
    logs = read_dataset(args.data)
    split = temporal_split(logs)
    outputs = []
    for name, instances in (("train", split.train), ("validation", split.validation),
                            ("test", split.test)):
        path = out / f"{name}.txt"
        write_instances(instances, path)
        outputs.append(path)
    report = out / "split_report.txt"
    report.write_text(split.report() + "\n")
    outputs.append(report)
    _echo_config(out, {"data": args.data})
    _write_manifest(out, "split", {}, [Path(args.data)], outputs)
    print(split.report())
    return 0


def _cmd_oracle(args) -> int:
    out = _out_dir(args.out)
    metric = _metric_arg(args.metric, args.tau, args.r_max, args.click_config)
    inputs, outputs = [], []
    t0 = time.perf_counter()
    n = 0
    for name in ("train", "validation", "test"):
        src = Path(args.split_dir) / f"{name}.txt"
        if not src.exists():
            continue
        inputs.append(src)
        instances = read_instances(src)
        n += ensure_oracles(instances, metric, args.seed, args.r_max)
        path = out / f"{name}.txt"
        write_instances(instances, path)
        outputs.append(path)
    took = time.perf_counter() - t0
    _echo_config(out, {"metric": args.metric, "tau": args.tau, "seed": args.seed,
                       "r_max": args.r_max})
    _write_manifest(out, "oracle", {"seed": args.seed}, inputs, outputs)
    print(f"computed {n} oracle permutations in {took:.2f}s")
    return 0


def _cmd_train(args) -> int:
    out = _out_dir(args.out)
    cfg = _build_config(args)
    metric = _metric_arg(args.metric, args.tau, cfg.r_max)
    from .data import DatasetSplit

    split = DatasetSplit(
        train=read_instances(Path(args.split_dir) / "train.txt"),
        validation=[], test=[])
    params, log = train(args.model, split, metric, cfg)
    ckpt = out / "checkpoint.txt"
    save_model(params, ckpt, args.model.replace("-", "_"), dims_for(cfg, split.train[0]), cfg)
    log_path = out / "training_log.csv"
    write_training_log(log, log_path)
    _echo_config(out, {**{f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
                       "model": args.model, "metric": args.metric})
    _write_manifest(out, "train", {"seed": cfg.seed},
                    [Path(args.split_dir) / "train.txt"], [ckpt, log_path])
    print(f"final epoch mean loss {log[-1]['mean_loss']:.4f}; checkpoint at {ckpt}")
    return 0


def _cmd_evaluate(args) -> int:
    out = _out_dir(args.out)
    params, kind, _dims = load_model(args.checkpoint)
    instances = read_instances(args.instances)
    ks = tuple(int(k) for k in args.k.split(","))
    specs = {"P": ClickModelSpec(kind="pbm", tau=args.tau, r_max=args.r_max),
             "U": ClickModelSpec(kind="ubm", tau=args.tau, r_max=args.r_max)}
    if args.click_config:
        custom = load_click_spec(args.click_config)
        specs["P" if custom.kind == "pbm" else "U"] = custom
    table = evaluate(params, kind, instances, ks=ks, click_specs=specs, r_max=args.r_max)
    csv_path = out / "metrics.csv"
    csv_path.write_text(table.to_csv())
    txt_path = out / "metrics.txt"
    txt_path.write_text(table.to_text())
    _echo_config(out, {"checkpoint": args.checkpoint, "instances": args.instances,
                       "k": args.k, "tau": args.tau, "r_max": args.r_max})
    _write_manifest(out, "evaluate", {}, [Path(args.checkpoint), Path(args.instances)],
                    [csv_path, txt_path])
    print(table.to_text(), end="")
    return 0


def _cmd_inspect(args) -> int:
    out = _out_dir(args.out)
    params, kind, _dims = load_model(args.checkpoint)
    instances = {inst.query_id: inst for inst in read_instances(args.instances)}
    outputs = []
    for qid in args.query_ids:
        if qid not in instances:
            print(f"error: no instance with query id {qid!r}", file=sys.stderr)
            return 1
        path = out / f"attention_{qid.replace(':', '_')}.csv"
        export_attention(params, instances[qid], path, model_kind=kind)
        outputs.append(path)
    betas_path = out / "betas.csv"
    export_attention_weights(params, [instances[q] for q in args.query_ids], betas_path,
                             model_kind=kind)
    outputs.append(betas_path)
    _write_manifest(out, "inspect", {}, [Path(args.checkpoint), Path(args.instances)], outputs)
    print(f"wrote {len(outputs)} attention matrices to {out}")
    return 0


def _cmd_bench(args) -> int:
    from .experiments import decode_scaling

    out = _out_dir(args.out)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    times, exponent = decode_scaling(sizes, repeats=args.repeats, width=args.width,
                                     seed=args.seed)
    csv_path = out / "bench.csv"
    with open(csv_path, "w") as fh:
        fh.write("candidates,seconds\n")
        for n, t in zip(sizes, times):
            fh.write(f"{n},{t:.6g}\n")
        fh.write(f"# fitted exponent {exponent:.3f}\n")
    _write_manifest(out, "bench", {"seed": args.seed}, [], [csv_path])
    for n, t in zip(sizes, times):
        print(f"L={n:3d}  decode {t * 1e3:8.3f} ms per instance")
    print(f"fitted runtime growth exponent: {exponent:.3f}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="arrangerank",
                                 description="set-to-arrangement ranking toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic browse-log dataset")
    g.add_argument("--users", type=int, required=True)
    g.add_argument("--history-len", type=int, default=10, dest="history_len")
    g.add_argument("--candidates", type=int, default=10)
    g.add_argument("--dim", type=int, default=8)
    g.add_argument("--context-strength", type=float, default=1.0, dest="context_strength")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--r-max", type=int, default=4, dest="r_max")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen_data)

    s = sub.add_parser("split", help="temporal split of a dataset into instances")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_split)

    o = sub.add_parser("oracle", help="precompute oracle permutations for a split")
    o.add_argument("--split-dir", required=True, dest="split_dir")
    o.add_argument("--metric", choices=["ndcg", "pbm", "ubm"], default="ndcg")
    o.add_argument("--tau", type=float, default=1.0)
    o.add_argument("--r-max", type=int, default=4, dest="r_max")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--click-config", default=None, dest="click_config")
    o.add_argument("--out", required=True)
    o.set_defaults(fn=_cmd_oracle)

    t = sub.add_parser("train", help="train a ranker on a split")
    t.add_argument("--model", default="starank",
                   choices=["starank", "starank-pi-mlp", "starank-ps-mlp", "pointwise"])
    t.add_argument("--split-dir", required=True, dest="split_dir")
    t.add_argument("--metric", choices=["ndcg", "pbm", "ubm"], default="ndcg")
    t.add_argument("--tau", type=float, default=1.0)
    t.add_argument("--config", default=None)
    for fname, ftype in (("lr_initial", float), ("lr_final", float), ("epochs", int),
                         ("batch_size", int), ("l2_weight", float), ("dropout_rate", float),
                         ("seed", int), ("embedding_dim", int), ("optimizer", str),
                         ("max_list_len", int), ("r_max", int)):
        t.add_argument(f"--{fname.replace('_', '-')}", type=ftype, default=None, dest=fname)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("evaluate", help="metric table for a checkpoint on instances")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--instances", required=True)
    e.add_argument("--k", default="5,10")
    e.add_argument("--tau", type=float, default=1.0)
    e.add_argument("--r-max", type=int, default=4, dest="r_max")
    e.add_argument("--click-config", default=None, dest="click_config")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=_cmd_evaluate)

    i = sub.add_parser("inspect", help="export per-step pointing matrices")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--instances", required=True)
    i.add_argument("--query-ids", nargs="+", required=True, dest="query_ids")
    i.add_argument("--out", required=True)
    i.set_defaults(fn=_cmd_inspect)

    b = sub.add_parser("bench", help="decode-time scaling vs candidate count")
    b.add_argument("--sizes", default="5,10,20,40")
    b.add_argument("--repeats", type=int, default=15)
    b.add_argument("--width", type=int, default=1024)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=_cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
