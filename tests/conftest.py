from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import settings

from arrangerank import autodiff as ad
from arrangerank.autodiff import Tensor
from arrangerank.data import Instance
from arrangerank.model import ModelDims, init_params
from arrangerank.permutation import Permutation
from arrangerank.reader import CandidateSet, UserContext

# Property tests draw the same examples on every run, with no deadline and no example
# database; a test's own settings(...) name only what differs, such as max_examples.
settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")


def tiny_dims(n_features: int = 4, embed: int = 6, max_list_len: int = 6) -> ModelDims:
    return ModelDims(feature_dim=n_features, profile_dim=n_features, embed=embed,
                     attn_width=embed, mlp_hidden=embed, max_list_len=max_list_len)


def make_instance(seed: int = 0, n: int = 4, n_features: int = 4, hist_len: int = 2,
                  labels: dict[int, int] | None = None, ids=None) -> Instance:
    rng = np.random.default_rng(seed)
    ids = list(ids) if ids is not None else list(range(n))
    if labels is None:
        labels = {i: int(rng.integers(0, 5)) for i in ids}
    return Instance(
        query_id=f"test:{seed}",
        ctx=UserContext(rng.normal(size=n_features),
                        [rng.normal(size=n_features) for _ in range(hist_len)],
                        feature_dim=n_features),
        cands=CandidateSet((i, rng.normal(size=n_features)) for i in ids),
        labels=labels,
    )


def replayed(instances) -> list[Permutation]:
    """The rankings of a ranker that serves each instance's stored oracle."""
    return [inst.oracle for inst in instances]


def shuffled(instances, seed: int) -> list[Permutation]:
    """The rankings of a uniform random ranker: each slate shuffled by a generator seeded
    with ``seed`` and the first 8 bytes of the sha256 of the query id."""
    ranked = []
    for inst in instances:
        order = list(inst.cands.ids)
        query = int.from_bytes(hashlib.sha256(inst.query_id.encode()).digest()[:8], "big")
        np.random.default_rng([seed, query]).shuffle(order)
        ranked.append(Permutation(order))
    return ranked


def spread_params(kind: str, dims: ModelDims, seed: int, gain: float = 2.0):
    """Random params scaled up so per-step score gaps are non-trivial."""
    params = init_params(kind, dims, seed)
    for _, p in params.items():
        p.values *= gain
    return params


def separable_rank_split(n_users: int, n: int = 6, n_features: int = 8, seed: int = 9):
    """Cleanly separable ranking data: one shared taste vector, grades are the
    within-slate ranks of the taste-feature affinity (no label ties)."""
    from arrangerank.data import DatasetSplit

    rng = np.random.default_rng(seed)
    taste = rng.normal(size=n_features)
    taste /= np.linalg.norm(taste)
    split = DatasetSplit(kept_users=n_users)
    next_id = 0
    for u in range(n_users):
        feats = rng.normal(size=(n, n_features))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        ranks = np.argsort(np.argsort(-(feats @ taste)))
        ids = list(range(next_id, next_id + n))
        next_id += n
        split.train.append(Instance(
            query_id=f"{u}:train",
            ctx=UserContext(taste + 0.05 * rng.normal(size=n_features), [],
                            feature_dim=n_features),
            cands=CandidateSet((ids[k], feats[k]) for k in range(n)),
            labels={ids[k]: int(n - 1 - ranks[k]) for k in range(n)},
        ))
    return split


def taped_decode(rout, params, choose):
    """Reference decode built from the public tape primitives, one step per call.

    Step i runs ``gated_cell`` over the start vector and the i items placed so far,
    takes its last state with ``row`` and scores it with ``pointer_logits`` on
    Tensors; ``choose(logits, mask)`` gets the (..., 1, n) logits Tensor and mask and
    names the index (..., 1) each instance places next, which ``row`` feeds back.
    """
    reprs, u = rout.reprs, rout.user_vec
    lead, n = reprs.values.shape[:-2], reprs.values.shape[-2]
    rows, cols = params["dec.W"].values.shape
    onehots = np.eye(cols - rows // 2)
    w2h, w = ad.matmul(reprs, params["ptr.W2"]), ad.matvec(params["ptr.P"], u)
    placed = [params["dec.start"]]
    mask = np.ones(lead + (1, n), dtype=bool)
    order = []
    for i in range(n):
        positions = Tensor(onehots[np.minimum(np.arange(i + 1), len(onehots) - 1)])
        hs = ad.gated_cell(params["dec.W"], params["dec.b"], [placed, positions], u)
        last = ad.row(hs, np.full(lead + (1,), i))
        ctx = ad.add(ad.matvec(params["ptr.W3"], last), params["ptr.b2"])
        chosen = choose(ad.pointer_logits(w2h, ctx, w), mask)
        order.append(chosen)
        placed.append(ad.row(reprs, chosen))
        mask = mask.copy()  # the tape keeps the previous step's mask
        np.put_along_axis(mask, chosen[..., None], False, axis=-1)
    return np.concatenate(order, axis=-1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
