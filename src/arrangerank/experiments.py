"""Reproducible end-to-end experiment recipes on synthetic data.

Two studies back the package's headline claims:

* ``comparative_experiment`` — does arranging beat score-and-sort on data
  whose grades depend on slate context? Trains both models over several
  seeds and reports test N@5, P@5 and U@5 per seed.
* ``supervision_variant_experiment`` — what changes when the training
  oracles come from a click-model metric instead of the gain-discount
  metric? Reports the training oracles that differ, in order and in grade
  sequence, and the simulated-click quality of both trained models.

Both run at deliberately small dimensions so a full multi-seed study fits
in minutes on one core.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from .arranger import greedy_orders
from .clickmodels import ClickModelSpec
from .data import DatasetSplit, Instance, generate_synthetic, temporal_split
from .evaluation import evaluate
from .model import ModelDims, init_params, read_group
from .reader import CandidateSet, UserContext
from .training import TrainConfig, ensure_oracles, train


def small_config(seed: int, epochs: int) -> TrainConfig:
    """Desk-scale hyperparameters: small embeddings, constant lr, no dropout."""
    return TrainConfig(
        lr_initial=5e-3, lr_final=5e-3, epochs=epochs, batch_size=100,
        l2_weight=4e-5, dropout_rate=0.0, seed=seed,
        embedding_dim=16, optimizer="adam")


@dataclass
class ComparativeResult:
    starank: list[dict[str, float]] = field(default_factory=list)  # each seed's test-set means
    pointwise: list[dict[str, float]] = field(default_factory=list)

    @property
    def relative_gain(self) -> float:
        n5 = [np.mean([m["N@5"] for m in seeds]) for seeds in (self.starank, self.pointwise)]
        return float(n5[0] / n5[1] - 1.0)


def _fresh_split(split: DatasetSplit) -> DatasetSplit:
    out = copy.copy(split)
    out.train = [copy.copy(inst) for inst in split.train]
    return out


def comparative_experiment(n_users: int = 2000, context_strength: float = 1.0,
                           n_seeds: int = 10, epochs: int = 4) -> ComparativeResult:
    """Arranger vs pointwise baseline on context-dependent synthetic slates."""
    split = temporal_split(generate_synthetic(n_users, history_len=8,
                                              context_strength=context_strength, seed=97))
    result = ComparativeResult()
    for seed in range(n_seeds):
        for kind, bucket in (("starank", result.starank),
                             ("pointwise_baseline", result.pointwise)):
            cfg = small_config(seed=seed, epochs=epochs)
            params, _ = train(kind, _fresh_split(split), "ndcg", cfg)
            bucket.append(evaluate(params, kind, split.test, ks=(5,)).means)
    return result


@dataclass
class SupervisionVariantResult:
    changed_fraction: float = 0.0
    grades_changed: int = 0  # training instances whose grades, in oracle order, differ
    n_train: int = 0
    p_at_k: dict[str, dict[int, list[float]]] = field(default_factory=dict)

    def pooled_gap_in_se(self, k: int) -> float:
        """(PBM-supervised minus NDCG-supervised P@k) in pooled standard errors."""
        a = np.array(self.p_at_k["pbm"][k])
        b = np.array(self.p_at_k["ndcg"][k])
        se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        return float((a.mean() - b.mean()) / se) if se > 0 else 0.0


def supervision_variant_experiment(n_users: int = 800, n_seeds: int = 5, epochs: int = 4
                                   ) -> SupervisionVariantResult:
    """Train under gain-discount vs position-based-click oracles and compare P@5 and P@10.
    ``changed_fraction`` is the share of training instances whose oracles differ when
    ``ensure_oracles`` fills one copy per metric, the data seed as master seed."""
    data_seed, ks = 131, (5, 10)
    base_split = temporal_split(generate_synthetic(n_users, history_len=8, seed=data_seed))
    pbm = ClickModelSpec(kind="pbm")
    result = SupervisionVariantResult(p_at_k={"ndcg": {k: [] for k in ks},
                                              "pbm": {k: [] for k in ks}})

    # fraction of training instances whose oracle differs between supervisions
    filled = [_fresh_split(base_split).train for _ in range(2)]
    for instances, metric in zip(filled, ("ndcg", pbm)):
        ensure_oracles(instances, metric, data_seed)
    changed = sum(a.oracle.order != b.oracle.order for a, b in zip(*filled))
    result.changed_fraction = changed / len(base_split.train)
    result.grades_changed = sum([a.labels[i] for i in a.oracle] != [b.labels[i] for i in b.oracle]
                                for a, b in zip(*filled))
    result.n_train = len(base_split.train)

    for seed in range(n_seeds):
        for name, metric in (("ndcg", "ndcg"), ("pbm", pbm)):
            cfg = small_config(seed=seed, epochs=epochs)
            params, _ = train("starank", _fresh_split(base_split), metric, cfg)
            table = evaluate(params, "starank", base_split.test, ks=ks,
                             click_specs={"P": pbm})
            for k in ks:
                result.p_at_k[name][k].append(table.means[f"P@{k}"])
    return result


DECODE_GROUP = 32  # instances decode_scaling decodes together per candidate count


def decode_scaling(sizes: tuple[int, ...] = (5, 10, 20, 40), repeats: int = 15,
                   width: int = 1024, seed: int = 0) -> tuple[list[float], float]:
    """Greedy-decode wall time per instance and candidate count, and the fitted growth exponent.

    Each candidate count decodes a group of ``DECODE_GROUP`` instances in one
    batched pass (as evaluation does) through a wide pointer layer: the group shares
    the per-step interpreter overhead, so the per-step score computation (work
    proportional to the candidate count) dominates and total decode work grows
    as roughly the square of the list length. All sizes get a warm-up pass
    first and each timing is the median over ``repeats`` runs, interleaved
    across sizes to spread clock drift evenly.
    """
    if len(set(sizes)) < 2:
        raise ValueError(f"fitting an exponent needs two distinct sizes, got "
                         f"{','.join(map(str, sizes))}")
    for name, value in (("every size", min(sizes)), ("width", width), ("repeats", repeats)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    fdim = 16
    dims = ModelDims(feature_dim=fdim, profile_dim=fdim, embed=8, attn_width=width, mlp_hidden=8,
                     max_list_len=max(sizes))
    params = init_params("starank", dims, seed)
    routs = []
    for n in sizes:
        group = [Instance(
            query_id=f"bench:{n}:{k}",
            ctx=UserContext(rng.normal(size=fdim), [rng.normal(size=fdim) for _ in range(5)]),
            cands=CandidateSet((i, rng.normal(size=fdim)) for i in range(n)),
            labels={i: 0 for i in range(n)},
        ) for k in range(DECODE_GROUP)]
        rout = read_group("starank", params, group)
        greedy_orders(rout, params)  # warm-up, caches and kernels
        greedy_orders(rout, params)
        routs.append(rout)
    samples = [[] for _ in sizes]
    for _ in range(repeats):
        for k, rout in enumerate(routs):
            t0 = time.perf_counter()
            greedy_orders(rout, params)
            samples[k].append((time.perf_counter() - t0) / DECODE_GROUP)
    times = [float(np.median(s)) for s in samples]
    exponent = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    return times, exponent
