"""The three workloads. Each makes its inputs from the seed, runs timed passes
and checks every output it produced.

* ``study``  the README recipe at desk scale: generate, write/read, split,
  write/read instances, ndcg oracles, train starank and pointwise, save/load,
  evaluate both at N@5, then serve the test set one request at a time.
* ``rerank`` a fixed starank checkpoint made in set-up; phase A is one bulk
  ``evaluate`` over mixed slate sizes and history lengths, phase B a closed
  loop of single ``rank_instance`` requests from one caller.
* ``oracle`` sorting-route oracles on 10/20/40 slates, enumeration oracles and
  position groups for explicit PBM/UBM tables at n=8; no model code.

A pass returns a ``PassResult``; ``check`` runs after the pass, outside its
timing, and compares it with the first pass of the run (same seed, so every
output must repeat exactly).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from arrangerank.clickmodels import (ClickModelSpec, metric_fingerprint, oracle_permutation,
                                     oracle_position_groups)
from arrangerank.data import (DatasetSplit, Instance, generate_synthetic, oracle_seed,
                              read_dataset, read_instances, temporal_split, write_dataset,
                              write_instances)
from arrangerank.evaluation import evaluate
from arrangerank.experiments import small_config
from arrangerank.model import rank_instance, read_instance
from arrangerank.reader import CandidateSet, UserContext
from arrangerank.training import dims_for, ensure_oracles, load_model, save_model, train

from checks import Ledger, check_oracle, check_ranking

FEATURE_DIM = 8


@dataclass
class PassResult:
    wall_s: float
    rate: float                                   # headline instances per second
    rate_window: tuple[float, float]              # when the rate's phase ran
    latencies: list[float] = field(default_factory=list)  # single requests, seconds
    extras: dict = field(default_factory=dict)
    setup_s: float | None = None                  # study: its data preparation,
    setup_window: tuple[float, float] | None = None  # and when it ran
    wall_ref: float = 0.0                         # filled in by the runner
    rate_ref: float = 0.0
    requests_ref: list[float] = field(default_factory=list)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def perm_hash(pairs) -> str:
    h = hashlib.sha256()
    for qid, pi in pairs:
        h.update(f"{qid}:{','.join(map(str, pi))}\n".encode())
    return h.hexdigest()


def slate_instances(seed: int, n_users: int, history_len: int, n_candidates: int,
                    tag: str) -> list[Instance]:
    """One ranking instance per synthetic user: its history and its last slate."""
    logs = generate_synthetic(n_users, history_len=history_len, n_candidates=n_candidates,
                              feature_dim=FEATURE_DIM, seed=seed)
    out = []
    for log in logs:
        hist, slate = log.items[:history_len], log.items[-n_candidates:]
        out.append(Instance(
            query_id=f"{tag}:{log.user_id}",
            ctx=UserContext(log.profile, [it.features for it in hist], feature_dim=FEATURE_DIM),
            cands=CandidateSet((it.item_id, it.features) for it in slate),
            labels={it.item_id: it.grade for it in slate}))
    return out


class SampledList(list):
    """A list that samples the reference whenever an item is fetched by index.

    ``train()`` fetches each training instance by index, so handing it the
    training set in this form puts reference samples inside the call, which
    otherwise runs for a second or more with none."""

    def __init__(self, items, tick):
        super().__init__(items)
        self.tick = tick

    def __getitem__(self, index):
        self.tick()
        return super().__getitem__(index)


def same_params(a, b) -> bool:
    return a.names() == b.names() and all(
        np.array_equal(a[n].values, b[n].values) for n in a.names())


class Workload:
    name = ""
    rate_name = ""     # what ``PassResult.rate`` counts, on the report lines
    setup_repeats = 5

    def __init__(self, seed: int, size: str, workdir, rec, ref):
        self.seed, self.size, self.workdir, self.rec, self.ref = seed, size, workdir, rec, ref
        self.first: dict | None = None
        self.report: dict = {}

    def setup(self) -> None:
        """Build the inputs from the seed; timed and repeated by the runner.
        Calls ``self.ref.tick()`` between its steps, so that its reference
        window holds samples from inside it."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def check(self, ledger: Ledger, index: int) -> None:
        raise NotImplementedError

    def enough(self, passes: list[PassResult]) -> bool:
        return True

    def repeat_of_first(self, ledger: Ledger, fingerprint: dict, what: str) -> None:
        """Every pass of one run uses the same seed, so its fingerprint repeats exactly."""
        if self.first is None:
            self.first = fingerprint
            return
        for key, want in self.first.items():
            if fingerprint[key] != want:
                ledger.wrong_output(f"{what}: {key} changed from {want!r} to {fingerprint[key]!r}")


class Study(Workload):
    name = "study"
    rate_name = "train_inst_per_s"
    setup_repeats = 0  # the whole recipe, data preparation included, runs in every pass

    def __init__(self, *args):
        super().__init__(*args)
        self.users, self.epochs = (200, 2) if self.size == "full" else (12, 1)

    def run_pass(self, index: int) -> PassResult:
        rec, ref, wd = self.rec, self.ref, self.workdir
        rec.request = f"study:{index}"
        t0, spent0 = perf_counter(), ref.spent
        with rec.span("study.pass"):
            with rec.span("data.generate_synthetic"):
                logs = generate_synthetic(self.users, history_len=8, n_candidates=10,
                                          feature_dim=FEATURE_DIM, seed=self.seed)
            ref.tick()
            with rec.span("data.write_dataset"):
                write_dataset(logs, wd / "dataset.txt")
            with rec.span("data.read_dataset"):
                logs = read_dataset(wd / "dataset.txt")
            with rec.span("data.temporal_split"):
                split = temporal_split(logs)
            ref.tick()
            with rec.span("data.write_instances"):
                for part in ("train", "validation", "test"):
                    write_instances(getattr(split, part), wd / f"{part}.txt")
            with rec.span("data.read_instances"):
                split = DatasetSplit(train=SampledList(read_instances(wd / "train.txt"), ref.tick),
                                     test=read_instances(wd / "test.txt"))
            ref.tick()
            with rec.span("training.ensure_oracles"):
                ensure_oracles(split.train, "ndcg", self.seed)
            t_prep = perf_counter()
            prep_s = t_prep - t0 - ref.spent + spent0
            models = {}
            for kind in ("starank", "pointwise"):
                cfg = small_config(seed=self.seed, epochs=self.epochs)
                ref.sample()
                t1 = perf_counter()
                with rec.span("training.train"):
                    params, log = train(kind, split, "ndcg", cfg)
                t1_end = perf_counter()
                train_s = t1_end - t1
                ref.sample()
                if kind == "starank":
                    window = (t1, t1_end)
                ckpt = wd / f"{kind}.checkpoint.txt"
                with rec.span("training.save_model"):
                    save_model(params, ckpt, kind, dims_for(cfg, split.train[0]), cfg)
                with rec.span("training.load_model"):
                    loaded, _, _ = load_model(ckpt)
                t2 = perf_counter()
                with rec.span("evaluation.evaluate"):
                    table = evaluate(loaded, kind, split.test, ks=(5,))
                models[kind] = dict(params=params, loaded=loaded, log=log, table=table,
                                    ckpt=ckpt, train_s=train_s, eval_s=perf_counter() - t2)
                ref.tick()
            served, latencies = [], []
            ref.sample()
            for inst in split.test:
                t3 = perf_counter()
                with rec.span("model.rank_instance"):
                    pi = rank_instance("starank", models["starank"]["loaded"], inst)
                latencies.append(perf_counter() - t3)
                ref.request(latencies[-1])
                served.append(pi)
        wall = perf_counter() - t0
        n_train = len(split.train) * self.epochs
        st = models["starank"]
        self._last = dict(split=split, models=models, served=served)
        return PassResult(
            wall_s=wall, rate=n_train / st["train_s"], rate_window=window, latencies=latencies,
            setup_s=prep_s, setup_window=(t0, t_prep),
            extras={"eval_inst_per_s": len(split.test) / st["eval_s"]})

    def check(self, ledger: Ledger, index: int) -> None:
        split, models, served = (self._last[k] for k in ("split", "models", "served"))
        for inst in split.train:
            check_oracle(ledger, inst.labels, "ndcg", inst.oracle, f"study oracle {inst.query_id}")
        loaded = models["starank"]["loaded"]
        for inst, pi in zip(split.test, served):
            rout = read_instance("starank", loaded, inst) if index == 0 else None
            check_ranking(ledger, pi, inst.cands.ids, f"study serve {inst.query_id}", rout, loaded)
        fingerprint = {"served_sha256": perm_hash((i.query_id, p) for i, p in zip(split.test, served))}
        for kind, m in models.items():
            ledger.op(m["loaded"], [] if same_params(m["params"], m["loaded"]) else
                      ["load_model(save_model(params)) differs from params"], f"study {kind}")
            fingerprint[f"checkpoint_sha256_{kind}"] = sha256_file(m["ckpt"])
            fingerprint[f"n5_{kind}"] = m["table"].means["N@5"]
            fingerprint[f"final_loss_{kind}"] = m["log"][-1]["mean_loss"]
        self.repeat_of_first(ledger, fingerprint, f"study pass {index}")
        self.report.update(
            n5_starank=fingerprint["n5_starank"], n5_pointwise=fingerprint["n5_pointwise"],
            final_loss=fingerprint["final_loss_starank"],
            checkpoint_sha256={k: fingerprint[f"checkpoint_sha256_{k}"] for k in models},
            served_sha256=fingerprint["served_sha256"],
            train_instances=len(split.train), test_instances=len(split.test))


class Rerank(Workload):
    name = "rerank"
    rate_name = "eval_inst_per_s"
    slate_sizes = (5, 10, 20, 40)
    history_lens = (0, 8, 32)

    def __init__(self, *args):
        super().__init__(*args)
        full = self.size == "full"
        self.train_users = 100 if full else 10
        self.per_cell = 8 if full else 1
        self.min_requests = 1000 if full else 24
        self.requests_sent = 0

    def setup(self) -> None:
        tick = self.ref.tick
        split = temporal_split(generate_synthetic(self.train_users, history_len=8,
                                                  n_candidates=10, feature_dim=FEATURE_DIM,
                                                  seed=self.seed))
        tick()
        ensure_oracles(split.train, "ndcg", self.seed)
        tick()
        cfg = small_config(seed=self.seed, epochs=1)
        cfg.max_list_len = max(self.slate_sizes)
        params, _ = train("starank", split, "ndcg", cfg)
        tick()
        ckpt = self.workdir / "rerank.checkpoint.txt"
        save_model(params, ckpt, "starank", dims_for(cfg, split.train[0]), cfg)
        self.params, _, _ = load_model(ckpt)
        self.checkpoint_sha256 = sha256_file(ckpt)
        tick()
        self.pool = []
        for size in self.slate_sizes:
            for hist in self.history_lens:
                self.pool += slate_instances(self.seed * 7919 + 97 * size + hist, self.per_cell,
                                             hist, size, f"L{size}H{hist}")
                tick()
        self.specs = {"P": ClickModelSpec(kind="pbm"), "U": ClickModelSpec(kind="ubm")}

    def enough(self, passes) -> bool:
        return self.requests_sent >= self.min_requests

    def run_pass(self, index: int) -> PassResult:
        rec, ref = self.rec, self.ref
        t0 = perf_counter()
        rec.request = f"rerank:{index}:evaluate"
        with rec.span("evaluation.evaluate"):
            table = evaluate(self.params, "starank", self.pool, ks=(5, 10),
                             click_specs=self.specs)
        t0_end = perf_counter()
        eval_s = t0_end - t0
        ref.sample()
        served, latencies = [], []
        for inst in self.pool:
            rec.request = f"rerank:{self.requests_sent}"
            t1 = perf_counter()
            with rec.span("model.rank_instance"):
                pi = rank_instance("starank", self.params, inst)
            latencies.append(perf_counter() - t1)
            ref.request(latencies[-1])
            served.append(pi)
            self.requests_sent += 1
        wall = perf_counter() - t0
        self._last = dict(table=table, served=served)
        return PassResult(wall_s=wall, rate=len(self.pool) / eval_s, rate_window=(t0, t0_end),
                          latencies=latencies)

    def check(self, ledger: Ledger, index: int) -> None:
        table, served = self._last["table"], self._last["served"]
        for inst, pi in zip(self.pool, served):
            rout = read_instance("starank", self.params, inst) if index == 0 else None
            check_ranking(ledger, pi, inst.cands.ids, f"rerank {inst.query_id}", rout,
                          self.params)
        fingerprint = {"permutations_sha256": perm_hash(
                           (i.query_id, p) for i, p in zip(self.pool, served)),
                       "metric_table": table.to_csv(),
                       "checkpoint_sha256": self.checkpoint_sha256}
        self.repeat_of_first(ledger, fingerprint, f"rerank pass {index}")
        self.report.update(fingerprint, instances=len(self.pool),
                           requests=self.requests_sent)


def explicit_tables(seed: int, n: int = 8) -> dict[str, ClickModelSpec]:
    """A non-monotone PBM table and a UBM table: only enumeration can solve them."""
    rng = np.random.default_rng([seed, 0x7AB1E])
    pbm = rng.uniform(0.1, 1.0, size=n)
    while np.all(np.diff(pbm) < 0.0):
        pbm = rng.permutation(pbm)
    ubm = rng.uniform(0.1, 1.0, size=(n, n))
    return {"pbm": ClickModelSpec(kind="pbm", examination_table=pbm),
            "ubm": ClickModelSpec(kind="ubm", examination_table=ubm)}


class Oracle(Workload):
    name = "oracle"
    rate_name = "oracle_inst_per_s"
    slate_sizes = (10, 20, 40)
    metrics = {"ndcg": "ndcg", "pbm": ClickModelSpec(kind="pbm"),
               "ubm": ClickModelSpec(kind="ubm")}

    def __init__(self, *args):
        super().__init__(*args)
        full = self.size == "full"
        # more 10-item slates, so the request median sits inside one mode
        self.per_size = {10: 240, 20: 120, 40: 120} if full else {10: 4, 20: 2, 40: 2}
        self.enum_slates = 2 if full else 1

    def setup(self) -> None:
        tick = self.ref.tick
        self.slates = []
        for size in self.slate_sizes:
            self.slates += slate_instances(self.seed * 7919 + size, self.per_size[size],
                                           0, size, f"L{size}")
            tick()
        self.enum = slate_instances(self.seed * 7919 + 8, self.enum_slates, 0, 8, "enum")
        # check-only slates of 5-7 items, verified against brute-force enumeration
        self.small = []
        for size in (5, 6, 7):
            self.small += slate_instances(self.seed * 7919 + size, 4, 0, size, f"small{size}")
            tick()
        self.tables = explicit_tables(self.seed)
        self.fps = {name: metric_fingerprint(m)
                    for name, m in {**self.metrics, **self.tables}.items()}

    def _oracle(self, inst, name, metric):
        try:
            return oracle_permutation(inst.labels, metric,
                                      seed=oracle_seed(self.seed, self.fps[name], inst.query_id))
        except ValueError as exc:
            return exc

    def run_pass(self, index: int) -> PassResult:
        rec, ref = self.rec, self.ref
        rec.request = f"oracle:{index}"
        ref.sample()
        sorted_out, latencies = [], []
        sort_s, n_ok = 0.0, 0
        t0 = perf_counter()
        for inst in self.slates:
            # one request: the slate's oracle under each of the three metrics
            t1 = perf_counter()
            with rec.span("clickmodels.oracle_permutation"):
                outs = [(name, self._oracle(inst, name, metric))
                        for name, metric in self.metrics.items()]
            took = perf_counter() - t1
            sort_s += took
            ok = sum(not isinstance(out, Exception) for _, out in outs)
            n_ok += ok
            if ok == len(outs):
                latencies.append(took)
                ref.request(took)
            else:
                ref.sample()
            sorted_out += [(inst, name, out) for name, out in outs]
        t_sorted = perf_counter()
        ref.sample()
        enum_out, enum_s = [], []
        for inst in self.enum:
            for name, metric in self.tables.items():
                t2 = perf_counter()
                with rec.span("clickmodels.oracle_permutation"):
                    out = self._oracle(inst, name, metric)
                enum_s.append(perf_counter() - t2)
                ref.tick()
                with rec.span("clickmodels.oracle_position_groups"):
                    groups = oracle_position_groups(inst.labels, metric)
                enum_out.append((inst, name, out, groups))
                ref.tick()
        wall = perf_counter() - t0
        self._last = dict(sorted_out=sorted_out, enum_out=enum_out)
        return PassResult(wall_s=wall, rate=n_ok / sort_s, rate_window=(t0, t_sorted),
                          latencies=latencies,
                          extras={"enum_oracle_ms": 1e3 * float(np.median(enum_s))})

    def check(self, ledger: Ledger, index: int) -> None:
        before = ledger.known_defect
        for inst, name, out in self._last["sorted_out"]:
            check_oracle(ledger, inst.labels, self.metrics[name], out,
                         f"oracle {name} {inst.query_id}")
        for inst, name, out, groups in self._last["enum_out"]:
            check_oracle(ledger, inst.labels, self.tables[name], out,
                         f"oracle {name}-table {inst.query_id}", groups=groups)
        if index == 0:
            for inst in self.small:
                for name, metric in {**self.metrics, **self.tables}.items():
                    groups = (oracle_position_groups(inst.labels, metric)
                              if name in self.tables else None)
                    check_oracle(ledger, inst.labels, metric, self._oracle(inst, name, metric),
                                 f"oracle {name} {inst.query_id}", groups=groups)
        orders = [(f"{inst.query_id}:{name}", out if not isinstance(out, Exception) else ())
                  for inst, name, out in self._last["sorted_out"]]
        self.repeat_of_first(ledger, {"oracles_sha256": perm_hash(orders)},
                             f"oracle pass {index}")
        self.report.update(oracles_sha256=perm_hash(orders),
                           overflow_failures_per_pass=ledger.known_defect - before)


WORKLOADS = {w.name: w for w in (Study, Rerank, Oracle)}
