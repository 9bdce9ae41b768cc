"""Per-layer sweep for the traced run: one span around every call into a layer.

The sweep calls each module's public functions on inputs made from the seed,
interleaving repeats so that clock drift spreads evenly, and reads the
per-layer medians back from the spans. It runs identically in every
workload's traced run, so the layer figures of the three workloads compare
directly. Shapes follow the workloads: study-shaped instances (history 8,
10 candidates, dim 16) for the training path, slates of 5/10/20/40 at the
dim-16 model width for decode scaling, and n=8 explicit tables for
enumeration.
"""
from __future__ import annotations

import numpy as np

from arrangerank.arranger import arrange_greedy, permutation_log_prob
from arrangerank.autodiff import Tape
from arrangerank.clickmodels import (ClickModelSpec, oracle_permutation, oracle_position_groups,
                                     r_cm, r_ndcg)
from arrangerank.data import (DatasetSplit, generate_synthetic, read_dataset, read_instances,
                              temporal_split, write_dataset, write_instances)
from arrangerank.evaluation import evaluate
from arrangerank.experiments import small_config
from arrangerank.loss import listwise_loss
from arrangerank.model import init_params, instance_loss, rank_instance, read_instance
from arrangerank.reader import encode_candidates, encode_history
from arrangerank.training import dims_for, ensure_oracles, load_model, save_model, train

from checks import Ledger, check_oracle, check_ranking
from workloads import FEATURE_DIM, explicit_tables, slate_instances

DECODE_SIZES = (5, 10, 20, 40)

# per-layer metric name -> unit; BENCHMARK.json lists the same names
UNITS = {
    "autodiff.forward_ms": "ms", "autodiff.backward_ms": "ms", "autodiff.tape_steps": "count",
    "reader.history_ms": "ms", "reader.candidates_ms": "ms",
    **{f"arranger.greedy_ms.L{n}": "ms" for n in DECODE_SIZES},
    "arranger.decode_exponent": "exponent",
    "arranger.teacher_forced_ms": "ms", "loss.listwise_ms": "ms",
    "training.train_s": "s", "training.optimizer_ms": "ms",
    "baseline.loss_ms": "ms", "baseline.rank_us": "us",
    "clickmodels.r_ndcg_us": "us", "clickmodels.r_cm_pbm_us": "us",
    "clickmodels.r_cm_ubm_us": "us",
    "evaluation.metric_ms": "ms", "evaluation.decode_share": "ratio",
    "clickmodels.sort_oracle_us": "us", "clickmodels.enum_oracle_ms.pbm": "ms",
    "clickmodels.enum_oracle_ms.ubm": "ms", "clickmodels.position_groups_ms": "ms",
    "clickmodels.oracle_failures": "count",
    "data.generate_s": "s", "data.split_s": "s", "data.io_s": "s",
    "params.save_ms": "ms", "params.load_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def run_probe(rec, ledger: Ledger, seed: int, size: str, workdir) -> dict[str, float]:
    """Run the sweep under request id ``probe``; returns metric name -> value."""
    full = size == "full"
    reps, n_inst = (5, 20) if full else (2, 3)
    rec.request = "probe"
    sp = rec.span

    # data: generate, split and file round trips at study shape
    for _ in range(reps):
        with sp("data.generate"):
            logs = generate_synthetic(40 if full else 6, history_len=8, n_candidates=10,
                                      feature_dim=FEATURE_DIM, seed=seed)
        with sp("data.split"):
            split = temporal_split(logs)
        with sp("data.io"):
            write_dataset(logs, workdir / "probe_dataset.txt")
            read_dataset(workdir / "probe_dataset.txt")
            write_instances(split.train, workdir / "probe_train.txt")
            train_set = read_instances(workdir / "probe_train.txt")
    ensure_oracles(train_set, "ndcg", seed)
    test_set = split.test
    insts = train_set[:n_inst]

    cfg = small_config(seed=seed, epochs=1)
    cfg.max_list_len = max(DECODE_SIZES)
    dims = dims_for(cfg, insts[0])
    params = init_params("starank", dims, seed)
    pw = init_params("pointwise_baseline", dims, seed)

    # taped training path, reader, decoder and baseline, interleaved per instance
    tape_steps = set()
    for _ in range(reps):
        for inst in insts:
            with sp("autodiff.forward"):
                with Tape() as tape:
                    rep = instance_loss("starank", params, inst)
            tape_steps.add(len(tape._steps))  # the tape has no public step count
            with sp("autodiff.backward"):
                tape.backward(rep.tensor)
            params.zero_grads()
            with sp("reader.history"):
                user = encode_history(inst.ctx, params)
            with sp("reader.candidates"):
                encode_candidates(inst.cands, user, params)
            with Tape():
                rout = read_instance("starank", params, inst)
                with sp("arranger.teacher_forced"):
                    permutation_log_prob(rout, params, inst.oracle)
            with Tape():
                rout = read_instance("starank", params, inst)
                with sp("loss.listwise"):
                    listwise_loss(rout, params, inst.oracle)
            with sp("baseline.loss"):
                with Tape() as tape:
                    rep = instance_loss("pointwise", pw, inst)
                tape.backward(rep.tensor)
            pw.zero_grads()
            with sp("baseline.rank"):
                pi = rank_instance("pointwise", pw, inst)
            check_ranking(ledger, pi, inst.cands.ids, f"probe pointwise {inst.query_id}")
    if len(tape_steps) != 1:
        ledger.wrong_output(f"probe: tape step count varies {sorted(tape_steps)}")

    # decode scaling at the dim-16 model width, sizes interleaved
    routs = {n: read_instance("starank", params, slate_instances(seed * 7919 + n, 1, 8, n,
                                                                 f"dec{n}")[0])
             for n in DECODE_SIZES}
    for rout in routs.values():
        arrange_greedy(rout, params)  # warm-up
    for _ in range(reps * 3):
        for n, rout in routs.items():
            with sp(f"arranger.greedy.L{n}"):
                pi = arrange_greedy(rout, params)
            check_ranking(ledger, pi, rout.ids, f"probe greedy L{n}")

    # train() per batch, against the per-instance forward+backward measured above
    batch = 10 if full else 3
    sub = DatasetSplit(train=train_set[: 2 * batch])
    bcfg = small_config(seed=seed, epochs=1)
    bcfg.batch_size = batch
    for _ in range(max(2, reps // 2)):
        with sp("training.train"):
            trained, _ = train("starank", sub, "ndcg", bcfg)

    # params: checkpoint write and read
    ckpt = workdir / "probe.checkpoint.txt"
    for _ in range(reps):
        with sp("params.save"):
            save_model(trained, ckpt, "starank", dims_for(bcfg, sub.train[0]), bcfg)
        with sp("params.load"):
            load_model(ckpt)

    # evaluation: bulk evaluate against the decodes inside it
    evald = test_set[:n_inst]
    for _ in range(reps):
        with sp("evaluation.evaluate"):
            evaluate(params, "starank", evald, ks=(5, 10))
        with sp("evaluation.decode"):
            for inst in evald:
                rank_instance("starank", params, inst)

    # click metrics and oracles
    pbm, ubm = ClickModelSpec(kind="pbm"), ClickModelSpec(kind="ubm")
    ranked = [rank_instance("starank", params, inst) for inst in evald]
    for _ in range(reps):
        for inst, pi in zip(evald, ranked):
            with sp("clickmodels.r_ndcg"):
                r_ndcg(pi, inst.labels, 10)
            with sp("clickmodels.r_cm_pbm"):
                r_cm(pi, inst.labels, pbm, 10)
            with sp("clickmodels.r_cm_ubm"):
                r_cm(pi, inst.labels, ubm, 10)
            for k, metric in enumerate(("ndcg", pbm, ubm)):
                with sp("clickmodels.sort_oracle"):
                    oracle_permutation(inst.labels, metric, seed=seed + k)
    failures = 0
    for k, inst in enumerate(slate_instances(seed * 7919 + 40, 2 if full else 1, 0, 40, "fail")):
        try:
            oracle_permutation(inst.labels, "ndcg", seed=seed + k)
        except ValueError:
            failures += 1
    tables = explicit_tables(seed)
    for inst in slate_instances(seed * 7919 + 8, 2 if full else 1, 0, 8, "enum"):
        for name, spec in tables.items():
            with sp(f"clickmodels.enum_oracle.{name}"):
                pi = oracle_permutation(inst.labels, spec, seed=seed)
            with sp("clickmodels.position_groups"):
                groups = oracle_position_groups(inst.labels, spec)
            check_oracle(ledger, inst.labels, spec, pi, f"probe {name}-table", groups=groups)

    med = rec.median
    ms, us = 1e3, 1e6
    greedy = [med(f"arranger.greedy.L{n}", "probe") for n in DECODE_SIZES]
    fwd, bwd = med("autodiff.forward", "probe"), med("autodiff.backward", "probe")
    train_s = med("training.train", "probe")
    eval_s, dec_s = med("evaluation.evaluate", "probe"), med("evaluation.decode", "probe")
    out = {
        "autodiff.forward_ms": fwd * ms, "autodiff.backward_ms": bwd * ms,
        "autodiff.tape_steps": float(max(tape_steps)),
        "reader.history_ms": med("reader.history", "probe") * ms,
        "reader.candidates_ms": med("reader.candidates", "probe") * ms,
        **{f"arranger.greedy_ms.L{n}": t * ms for n, t in zip(DECODE_SIZES, greedy)},
        "arranger.decode_exponent": float(np.polyfit(np.log(DECODE_SIZES), np.log(greedy), 1)[0]),
        "arranger.teacher_forced_ms": med("arranger.teacher_forced", "probe") * ms,
        "loss.listwise_ms": med("loss.listwise", "probe") * ms,
        "training.train_s": train_s,
        # derived: train() time per batch minus that batch's forward+backward
        "training.optimizer_ms": (train_s / 2 - batch * (fwd + bwd)) * ms,
        "baseline.loss_ms": med("baseline.loss", "probe") * ms,
        "baseline.rank_us": med("baseline.rank", "probe") * us,
        "clickmodels.r_ndcg_us": med("clickmodels.r_ndcg", "probe") * us,
        "clickmodels.r_cm_pbm_us": med("clickmodels.r_cm_pbm", "probe") * us,
        "clickmodels.r_cm_ubm_us": med("clickmodels.r_cm_ubm", "probe") * us,
        "evaluation.metric_ms": (eval_s - dec_s) / len(evald) * ms,
        "evaluation.decode_share": dec_s / eval_s,
        "clickmodels.sort_oracle_us": med("clickmodels.sort_oracle", "probe") * us,
        "clickmodels.enum_oracle_ms.pbm": med("clickmodels.enum_oracle.pbm", "probe") * ms,
        "clickmodels.enum_oracle_ms.ubm": med("clickmodels.enum_oracle.ubm", "probe") * ms,
        "clickmodels.position_groups_ms": med("clickmodels.position_groups", "probe") * ms,
        "clickmodels.oracle_failures": float(failures),
        "data.generate_s": med("data.generate", "probe"),
        "data.split_s": med("data.split", "probe"),
        "data.io_s": med("data.io", "probe"),
        "params.save_ms": med("params.save", "probe") * ms,
        "params.load_ms": med("params.load", "probe") * ms,
    }
    return out
