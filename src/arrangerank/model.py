"""Model kinds: parameter initialization and forward dispatch.

Four trainable rankers share this interface:

* ``starank``             recurrent history encoder + attention candidates + pointer decoder
* ``starank_pi_mlp``      same, but candidates through a plain MLP (uniform attention)
* ``starank_ps_mlp``      same, but history mean-pooled through an MLP
* ``pointwise_baseline``  recurrent history encoder + per-item MLP score, ranked by sort

Training groups share (history length, slate size); ranking groups each stage by the one
length it reads: history length, then slate size. Groups stack without padding, and a
single instance runs the same code unbatched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baseline
from .arranger import _as_permutation, greedy_orders, target_indices
from .autodiff import Tensor
from .loss import LossReport, sequence_loss
from .data import Instance
from .params import ParamStore
from .permutation import Permutation
from .reader import (DropoutPlan, Group, ReaderOutput, encode_candidates, encode_candidates_mlp,
                     encode_history, encode_history_mlp)

KINDS = ("starank", "starank_pi_mlp", "starank_ps_mlp", "pointwise_baseline")


@dataclass
class ModelDims:
    feature_dim: int
    profile_dim: int
    embed: int = 64
    attn_width: int = 64
    mlp_hidden: int = 64
    max_list_len: int = 10


def normalize_kind(kind: str) -> str:
    k = kind.replace("-", "_")
    if k == "pointwise":
        k = "pointwise_baseline"
    if k not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {KINDS}")
    return k


def param_shapes(kind: str, dims: ModelDims) -> dict[str, tuple]:
    """Parameter table layout for a model kind (drives init and checkpoint checks)."""
    f, p, e = dims.feature_dim, dims.profile_dim, dims.embed
    a, m, lmax = dims.attn_width, dims.mlp_hidden, dims.max_list_len
    kind = normalize_kind(kind)
    shapes: dict[str, tuple] = {}

    def cell(prefix: str, in_dim: int) -> None:
        # packed gate pre-activations: input, forget, output, candidate
        shapes[f"{prefix}.W"] = (4 * e, in_dim + e)
        shapes[f"{prefix}.b"] = (4 * e,)

    if kind == "starank_ps_mlp":
        shapes["psmlp.W1"] = (m, f + p)
        shapes["psmlp.b1"] = (m,)
        shapes["psmlp.W2"] = (e, m)
        shapes["psmlp.b2"] = (e,)
    else:
        shapes["hist.U0"] = (e, p)
        shapes["hist.u0_b"] = (e,)
        cell("hist", f)
    if kind == "pointwise_baseline":
        shapes["pw.W1x"] = (f, m)
        shapes["pw.W1u"] = (m, e)
        shapes["pw.b1"] = (m,)
        shapes["pw.w2"] = (m,)
        shapes["pw.b2"] = ()
        return shapes
    if kind == "starank_pi_mlp":
        shapes["pimlp.W1x"] = (f, m)
        shapes["pimlp.W1u"] = (m, e)
        shapes["pimlp.b1"] = (m,)
        shapes["pimlp.W2"] = (m, e)
        shapes["pimlp.b2"] = (e,)
    else:
        shapes["attn.W1"] = (f, a)
        shapes["attn.b1"] = (a,)
        shapes["attn.V"] = (a, e)
    shapes["dec.start"] = (e,)
    cell("dec", e + lmax)
    shapes["ptr.W2"] = (e, a)
    shapes["ptr.W3"] = (a, e)
    shapes["ptr.b2"] = (a,)
    shapes["ptr.P"] = (a, e)
    return shapes


def init_params(kind: str, dims: ModelDims, seed: int) -> ParamStore:
    """Uniform fan-scaled init; biases zero except forget gates at 1."""
    rng = np.random.default_rng([seed, 0xA11])
    params = ParamStore()
    e = dims.embed
    for name, shape in param_shapes(kind, dims).items():
        if not shape or len(shape) == 1:
            vals = np.zeros(shape)
            if name.endswith(".b") and shape == (4 * e,):
                vals[e : 2 * e] = 1.0  # forget-gate block
        else:
            fan = shape[0] + shape[1]
            if name.endswith(".W") and shape[0] == 4 * e:
                fan = e + shape[1]  # per-gate fan, not the packed 4x block
            lim = np.sqrt(6.0 / fan)
            vals = rng.uniform(-lim, lim, size=shape)
        params.create(name, vals)
    return params


def groups_by(instances, length) -> list[list[int]]:
    """Positions grouped by ``length(inst)``, first seen first; a group is one run however long."""
    if len(instances) == 1:  # a lone request is its own group, with no length to compare
        return [[0]]
    groups: dict = {}
    for pos, inst in enumerate(instances):
        groups.setdefault(length(inst), []).append(pos)
    return list(groups.values())


def shape_groups(instances) -> list[list[int]]:
    """Groups of one (history length, slate size), as in training, whose tape sums per group."""
    return groups_by(instances, lambda inst: (inst.ctx.history.shape[0], len(inst.cands)))


def _inputs(instances: list[Instance]):
    """Encoder inputs: more than one instance stacked as a Group, a single one as is."""
    if len(instances) == 1:
        return instances[0].ctx, instances[0].cands
    group = Group(instances)
    return group, group


def _user_vec(kind: str, params: ParamStore, ctx, drop=None) -> Tensor:
    return (encode_history_mlp if kind == "starank_ps_mlp" else encode_history)(ctx, params, drop)


def _candidates(kind: str, params: ParamStore, cands, user_vec, drop=None) -> ReaderOutput:
    if kind == "starank_pi_mlp":
        return encode_candidates_mlp(cands, user_vec, params, drop)
    if kind == "pointwise_baseline":
        raise ValueError("the pointwise baseline has no candidate-set encoder")
    return encode_candidates(cands, user_vec, params, drop)


def read_group(kind: str, params: ParamStore, instances: list[Instance],
               drop: DropoutPlan | None = None) -> ReaderOutput:
    """Reader output of instances sharing one (history length, slate size)."""
    kind, (ctx, cands) = normalize_kind(kind), _inputs(instances)
    return _candidates(kind, params, cands, _user_vec(kind, params, ctx, drop), drop)


def read_instance(kind: str, params: ParamStore, inst: Instance) -> ReaderOutput:
    return read_group(kind, params, [inst])


def instance_loss(kind: str, params: ParamStore, inst: Instance) -> LossReport:
    return batch_loss(kind, params, [inst])


def batch_loss(kind: str, params: ParamStore, instances: list[Instance],
               r_max: int = 4, drop: DropoutPlan | None = None,
               loss_variant: str = "listwise", targets: list | None = None) -> LossReport:
    """Losses of instances sharing one (history length, slate size), in one array pass;
    ``targets``, the oracles as candidate indices, may come precomputed."""
    kind = normalize_kind(kind)
    ctx, cands = _inputs(instances)
    shape = cands.features.shape[:-1]
    if kind == "pointwise_baseline":
        grades = [[inst.labels[i] for i in inst.cands.ids] for inst in instances]
        return baseline.grade_loss(cands, encode_history(ctx, params, drop), params,
                                   np.reshape(grades, shape) / r_max)
    if targets is None:
        for inst in instances:
            if inst.oracle is None:
                raise ValueError(f"instance {inst.query_id} has no oracle permutation")
        targets = [target_indices(inst.cands.ids, inst.oracle) for inst in instances]
    rout = _candidates(kind, params, cands, _user_vec(kind, params, ctx, drop), drop)
    return sequence_loss(rout, params, np.reshape(targets, shape), loss_variant)


def rank_instance(kind: str, params: ParamStore, inst: Instance) -> Permutation:
    """Greedy decode for arranger kinds, score-sort for the baseline."""
    return rank_instances(kind, params, [inst])[0]


def rank_instances(kind: str, params: ParamStore, instances: list[Instance]) -> list[Permutation]:
    """``rank_instance`` for every instance, stage by stage: one history pass per history
    length, then one candidate pass and decode per slate size."""
    kind, user_vecs, ranked = normalize_kind(kind), {}, [None] * len(instances)
    for positions in groups_by(instances, lambda inst: inst.ctx.history.shape[0]):
        u = _user_vec(kind, params, _inputs([instances[p] for p in positions])[0])
        user_vecs.update(zip(positions, map(Tensor, u.values) if len(positions) > 1 else [u]))
    for positions in groups_by(instances, lambda inst: len(inst.cands)):
        group = [instances[p] for p in positions]
        user_vec = (user_vecs[positions[0]] if len(group) == 1
                    else Tensor(np.stack([user_vecs[p].values for p in positions])))
        if kind == "pointwise_baseline":
            scores = baseline.score_all(_inputs(group)[1], user_vec, params).values
            # candidates are stored by ascending id, so equal scores go to the smallest id
            order = np.argsort(-scores, axis=-1, kind="stable")
        else:
            order = greedy_orders(_candidates(kind, params, _inputs(group)[1], user_vec), params)
        for p, inst, row in zip(positions, group, order.reshape(len(group), -1)):
            ranked[p] = _as_permutation(inst.cands.ids, row)
    return ranked
