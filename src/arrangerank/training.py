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

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tape
from .clickmodels import ClickModelSpec, metric_fingerprint, oracle_permutation
from .data import DatasetSplit, Instance, check_grades, oracle_seed
from .model import ModelDims, batch_loss, init_params, normalize_kind, shape_groups
from .params import ParamStore, load_checkpoint, save_checkpoint
from .reader import DropoutPlan


# Most instances one tape holds. A tape keeps every step's arrays of its group
# alive until backward: on 10-item slates at width 16, 40 instances hold about
# 1.8 MB and 100 hold 5 MB, which raised peak RSS by 9-11%.
TAPE_GROUP = 40


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
    attn_width: int = 0       # 0: follow embedding_dim
    mlp_hidden: int = 0       # 0: follow embedding_dim
    max_list_len: int = 10
    r_max: int = 4
    loss_variant: str = "listwise"  # "summation" = diagnostic per-position loss

    def __post_init__(self):
        if self.lr_final > self.lr_initial:
            raise ValueError(f"lr_final {self.lr_final} exceeds lr_initial {self.lr_initial}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Geometric decay hitting lr_initial at epoch 0 and lr_final at the last epoch."""
    if cfg.epochs <= 1 or cfg.lr_initial == cfg.lr_final:
        return cfg.lr_initial
    frac = epoch / (cfg.epochs - 1)
    return cfg.lr_initial * (cfg.lr_final / cfg.lr_initial) ** frac


def dims_for(cfg: TrainConfig, sample: Instance) -> ModelDims:
    e = cfg.embedding_dim
    return ModelDims(
        feature_dim=sample.cands.features.shape[1],
        profile_dim=sample.ctx.profile.shape[0],
        embed=e,
        attn_width=cfg.attn_width or e,
        mlp_hidden=cfg.mlp_hidden or e,
        max_list_len=cfg.max_list_len,
    )


def ensure_oracles(instances: list[Instance], metric, master_seed: int, r_max: int = 4) -> int:
    """Fill missing oracle permutations; returns how many were computed.

    The tie-break stream for each instance is scoped by (master seed, metric
    fingerprint, query id), so supervision under different metrics draws
    independent tie choices while staying reproducible. Grades must lie in
    [0, r_max], the click model's own ``r_max`` for a ClickModelSpec; a
    relevance map names its grades itself.
    """
    if not isinstance(metric, ClickModelSpec):
        check_grades(instances, r_max)
    elif metric.relevance_map is None:
        check_grades(instances, metric.r_max)
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
    def __init__(self, params: ParamStore, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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


def _check_finite(params: ParamStore, losses: np.ndarray, epoch: int, query_id: str) -> None:
    """Fail before the optimizer step if a group's loss or a gradient is not finite."""
    bad = [] if np.isfinite(losses).all() else ["loss"]
    bad += [name for name, p in params.items()
            if p.grad is not None and not np.isfinite(p.grad).all()]
    if bad:
        raise FloatingPointError(f"epoch {epoch}, group of query {query_id!r}: "
                                 f"non-finite {', '.join(bad)}")


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
    if kind != "pointwise_baseline":
        ensure_oracles(split.train, metric_for_oracle, cfg.seed, cfg.r_max)
    dims = dims_for(cfg, split.train[0])
    params = init_params(kind, dims, cfg.seed)
    opt = _Adam(params) if cfg.optimizer == "adam" else _Sgd(params)
    log: list[dict] = []
    instances = split.train
    for epoch in range(cfg.epochs):
        lr = learning_rate(cfg, epoch)
        order = np.random.default_rng([cfg.seed, 7, epoch]).permutation(len(instances))
        drop_rng = np.random.default_rng([cfg.seed, 11, epoch])
        drop = DropoutPlan(cfg.dropout_rate, drop_rng) if cfg.dropout_rate > 0 else None
        losses = np.empty(len(instances))
        done = 0
        while done < len(order):
            batch = [instances[idx] for idx in order[done : done + cfg.batch_size]]
            for positions in shape_groups(batch, TAPE_GROUP):
                with Tape() as tape:
                    rep = batch_loss(kind, params, [batch[j] for j in positions], cfg.r_max,
                                     drop, cfg.loss_variant)
                tape.backward(rep.tensor)
                losses[[done + j for j in positions]] = rep.losses
                _check_finite(params, rep.losses, epoch, batch[positions[0]].query_id)
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


def load_model(path, expect_kind: str | None = None, expect_dims: ModelDims | None = None
               ) -> tuple[ParamStore, str, ModelDims]:
    from .model import param_shapes

    expect_shapes = None
    if expect_kind is not None and expect_dims is not None:
        expect_shapes = param_shapes(expect_kind, expect_dims)
    params, meta = load_checkpoint(path, expect_shapes=expect_shapes)
    dims = ModelDims(**meta["dims"])
    return params, meta["model_kind"], dims


def write_training_log(log: list[dict], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,lr,mean_loss,mean_exp_neg_loss\n")
        for row in log:
            fh.write(f"{row['epoch']},{row['lr']:.10g},{row['mean_loss']:.10g},"
                     f"{row['mean_exp_neg_loss']:.10g}\n")
