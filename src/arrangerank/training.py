"""Training loop: seeded shuffling, gradient accumulation, geometric lr decay.

One optimizer step per batch: the batch splits into groups sharing (history
length, slate size), each group runs one batched forward and backward whose
gradients accumulate into the parameter buffers, then the step applies the
accumulated gradient plus L2 weight decay. The learning rate decays
geometrically from ``lr_initial`` on
the first epoch to exactly ``lr_final`` on the last. Everything — init,
shuffling, dropout, oracle tie breaks — derives from one master seed, so a
rerun with the same config reproduces the checkpoint byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .arranger import target_indices
from .autodiff import Tape
from .clickmodels import ClickModelSpec, metric_fingerprint, oracle_permutation
from .data import DatasetSplit, Instance, check_grades, oracle_seed
from .model import (ModelDims, batch_loss, init_params, normalize_kind, param_shapes,
                    shape_groups)
from .params import CheckpointError, ParamStore, load_checkpoint, save_checkpoint
from .reader import DropoutPlan


@dataclass
class TrainConfig:
    lr_initial: float = 1e-2
    lr_final: float = 1e-6
    epochs: int = 50
    batch_size: int = 100
    l2_weight: float = 4e-5
    dropout_rate: float = 0.5
    seed: int = 0
    embedding_dim: int = 64
    optimizer: str = "adam"  # plain sgd available; needs lr scaled for summed grads
    max_list_len: int = 10
    r_max: int = 4
    loss_variant: str = "listwise"  # "summation" = diagnostic per-position loss

    def __post_init__(self):
        for key in self.__dataclass_fields__:
            self.checked(key, getattr(self, key))
        if not self.lr_final <= self.lr_initial:  # NaN fails too
            raise ValueError(f"lr_final {self.lr_final} exceeds lr_initial {self.lr_initial}")

    @staticmethod
    def checked(key: str, value):
        """``value`` if it is in range for field ``key``; otherwise a ValueError naming it.
        The cross-field lr check waits for the whole config."""
        if key in ("epochs", "batch_size", "embedding_dim", "max_list_len", "r_max") and value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")
        if key == "seed" and value < 0:
            raise ValueError(f"seed must be >= 0, got {value}")
        if key == "lr_final" and not value > 0:
            raise ValueError(f"lr_final must be > 0, got {value}")
        if key == "dropout_rate" and not 0 <= value < 1:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {value}")
        if key == "l2_weight" and not value >= 0:
            raise ValueError(f"l2_weight must be >= 0, got {value}")
        if key == "optimizer" and value not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {value!r}")
        if key == "loss_variant" and value not in ("listwise", "summation"):
            raise ValueError(f"loss_variant must be 'listwise' or 'summation', got {value!r}")
        return value


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Geometric decay hitting lr_initial at epoch 0 and lr_final at the last epoch."""
    if cfg.epochs <= 1:
        return cfg.lr_initial
    frac = epoch / (cfg.epochs - 1)
    return cfg.lr_initial * (cfg.lr_final / cfg.lr_initial) ** frac


def dims_for(cfg: TrainConfig, sample: Instance) -> ModelDims:
    """Model dimensions for a config; the attention and MLP widths follow ``embedding_dim``."""
    e = cfg.embedding_dim
    return ModelDims(feature_dim=sample.cands.features.shape[1],
                     profile_dim=sample.ctx.profile.shape[0], embed=e, attn_width=e,
                     mlp_hidden=e, max_list_len=cfg.max_list_len)


def ensure_oracles(instances: list[Instance], metric, master_seed: int, r_max: int = 4) -> int:
    """Fill missing oracle permutations; returns how many were computed.

    The tie-break stream for each instance is scoped by (master seed, metric
    fingerprint, query id), so supervision under different metrics draws
    independent tie choices while staying reproducible. Grades must lie in
    [0, r_max], the click model's own ``r_max`` for a ClickModelSpec; a
    relevance map names its grades itself, and each must be among them.
    """
    if not isinstance(metric, ClickModelSpec):
        check_grades(instances, r_max)
    else:
        check_grades(instances, metric.r_max, metric.relevance_map)
    fp = metric_fingerprint(metric)
    n = 0
    for inst in instances:
        if inst.oracle is None:
            inst.oracle = oracle_permutation(
                inst.labels, metric, seed=oracle_seed(master_seed, fp, inst.query_id))
            n += 1
    return n


class _Sgd:
    """Plain gradient step on the batch-summed loss plus L2 decay.

    The training objective is a sum over queries, so the step consumes the
    accumulated (summed, not averaged) batch gradient.
    """

    def __init__(self, params: ParamStore):
        self.params = params

    def step(self, lr: float, l2: float) -> None:
        for _, p in self.params.items():
            g = (p.grad if p.grad is not None else 0.0) + l2 * p.values
            p.values -= lr * g
        self.params.zero_grads()


class _Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: ParamStore):
        self.params = params
        self.m = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.t = 0

    def step(self, lr: float, l2: float) -> None:
        self.t += 1
        for name, p in self.params.items():
            g = (p.grad if p.grad is not None else 0.0) + l2 * p.values
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mhat = self.m[name] / (1 - self.beta1 ** self.t)
            vhat = self.v[name] / (1 - self.beta2 ** self.t)
            p.values -= lr * mhat / (np.sqrt(vhat) + self.eps)
        self.params.zero_grads()


def _check_health(params: ParamStore, losses: np.ndarray, epoch: int, group: list) -> None:
    """Fail before the optimizer step if a group's loss or a gradient is not finite, or if the
    group's mean loss diverged past 10 (1 + log n!) for its shared slate size n: a uniform
    pointer's loss is log n!, and the 1 covers one-item slates."""
    bad = [] if np.isfinite(losses).all() else ["loss"]
    bad += [name for name, p in params.items()
            if p.grad is not None and not np.isfinite(p.grad).all()]
    if bad:
        raise FloatingPointError(f"epoch {epoch}, group of query {group[0].query_id!r}: "
                                 f"non-finite {', '.join(bad)}")
    bound = 10.0 * (1.0 + math.lgamma(len(group[0].cands) + 1))
    if losses.mean() > bound:
        raise FloatingPointError(f"epoch {epoch}, group of query "
                                 f"{group[int(losses.argmax())].query_id!r}: mean loss "
                                 f"{losses.mean():.4g} exceeds 10 (1 + log n!) = {bound:.4g}")


def train(model_kind: str, split: DatasetSplit, metric_for_oracle, cfg: TrainConfig
          ) -> tuple[ParamStore, list[dict]]:
    """Train a model kind on the split's training instances.

    ``metric_for_oracle`` ("ndcg" or a ClickModelSpec) defines the target
    permutations for the arranger kinds; the pointwise baseline regresses on
    grades directly. Returns the trained parameters and per-epoch log rows
    (epoch, lr, mean_loss, mean_exp_neg_loss).
    """
    kind = normalize_kind(model_kind)
    if not split.train:
        raise ValueError("split has no training instances")
    instances = split.train
    if kind == "pointwise_baseline":  # it regresses on grade / r_max
        check_grades(instances, cfg.r_max)
        targets = [None] * len(instances)
    else:
        ensure_oracles(instances, metric_for_oracle, cfg.seed, cfg.r_max)
        # the oracles stay fixed, so their candidate indices are computed once per run
        targets = [target_indices(inst.cands.ids, inst.oracle) for inst in instances]
    dims = dims_for(cfg, split.train[0])
    params = init_params(kind, dims, cfg.seed)
    opt = _Adam(params) if cfg.optimizer == "adam" else _Sgd(params)
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        lr = learning_rate(cfg, epoch)
        order = np.random.default_rng([cfg.seed, 7, epoch]).permutation(len(instances))
        drop = DropoutPlan(cfg.dropout_rate, np.random.default_rng([cfg.seed, 11, epoch]))
        losses = np.empty(len(instances))
        done = 0
        while done < len(order):
            batch = [instances[idx] for idx in order[done : done + cfg.batch_size]]
            for positions in shape_groups(batch):
                group = [batch[j] for j in positions]
                with Tape() as tape:
                    rep = batch_loss(kind, params, group, cfg.r_max, drop, cfg.loss_variant,
                                     [targets[order[done + j]] for j in positions])
                tape.backward(rep.tensor)
                losses[[done + j for j in positions]] = rep.losses
                _check_health(params, rep.losses, epoch, group)
            opt.step(lr, cfg.l2_weight)
            done += len(batch)
        log.append({
            "epoch": epoch,
            "lr": lr,
            "mean_loss": float(losses.mean()),
            "mean_exp_neg_loss": float(np.exp(-losses).mean()),
        })
    return params, log


def save_model(params: ParamStore, path, model_kind: str, dims: ModelDims,
               cfg: TrainConfig | None = None) -> None:
    meta = {"model_kind": model_kind, "dims": asdict(dims)}
    if cfg is not None:
        meta["config"] = asdict(cfg)
    save_checkpoint(params, path, meta)


def load_model(path) -> tuple[ParamStore, str, ModelDims]:
    """A ``save_model`` checkpoint as (params, model kind, dims). Its meta line must name a
    trainable kind and dims whose ``param_shapes`` are the file's parameter table; any
    disagreement is a CheckpointError naming that line."""
    params, meta = load_checkpoint(path)
    missing = [key for key in ("model_kind", "dims") if key not in meta]
    if missing:
        raise CheckpointError(f"{path}:2: meta line lacks {missing}")
    try:
        kind, dims = normalize_kind(str(meta["model_kind"])), ModelDims(**meta["dims"])
        want = param_shapes(kind, dims)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}:2: meta line: {e}") from None
    got = {name: t.values.shape for name, t in params.items()}
    if got != want:
        odd = [f"{n} {got.get(n)} != {want.get(n)}" for n in sorted(got.keys() | want.keys())
               if got.get(n) != want.get(n)]
        raise CheckpointError(f"{path}:2: meta {kind} and its dims do not fit the parameter "
                              f"table (file shape != meta shape): {', '.join(odd)}")
    return params, kind, dims


def write_training_log(log: list[dict], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,lr,mean_loss,mean_exp_neg_loss\n")
        for row in log:
            fh.write(f"{row['epoch']},{row['lr']:.10g},{row['mean_loss']:.10g},"
                     f"{row['mean_exp_neg_loss']:.10g}\n")
