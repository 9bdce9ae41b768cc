"""Minimal reverse-mode autodiff over float64 numpy arrays.

The ranker only needs a handful of primitives (matrix products, a few
elementwise maps, reductions, concatenation and a masked softmax), so the
engine is a flat tape: every primitive appends one backward closure, and
``Tape.backward`` replays the closures in exact reverse execution order.

Primitives take one instance, or a batch of equal-shape instances on leading
axes (batch axis first); shape checks are strict on the trailing dimensions.
An operand without the leading axes, such as a parameter, is shared by the
batch and its gradient sums over them; that is the only broadcasting. An
instance's forward values never depend on its batch: products use numpy's
stacked matmul, the same BLAS call per instance as an unbatched product (one
2-D product over all rows switches kernel for a single row), and masked
softmaxes reduce over each row's kept entries only.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not fit the operation."""


class EmptySupportError(ValueError):
    """Masked softmax called with no unmasked entry."""


class GraphError(RuntimeError):
    """Tape misuse, e.g. backward called twice on one forward."""


class Tensor:
    """Dense float64 array plus an optional gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


_ACTIVE: "Tape | None" = None


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Use as a context manager; primitives executed inside the block whose
    inputs require grad are recorded. ``backward`` may run exactly once.
    """

    def __init__(self):
        self._steps: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise GraphError("a tape is already active; nested tapes are not supported")
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

    def backward(self, out: Tensor) -> None:
        """Seed d(out)/d(out) = 1 and replay the chain rule in reverse order."""
        if self._spent:
            raise GraphError("backward already ran on this tape; run a fresh forward")
        if out.values.shape != ():
            raise ShapeError(f"backward needs a scalar output, got shape {out.values.shape}")
        self._spent = True
        out.grad = np.ones((), dtype=np.float64)
        for result, pull in reversed(self._steps):
            if type(result) is tuple:  # multi-output primitive
                if any(r.grad is not None for r in result):
                    pull(tuple(r.grad for r in result))
                for r in result:
                    r.grad = None
            elif result.grad is not None:
                pull(result.grad)
                result.grad = None  # intermediate buffers are single-use
            else:
                result.grad = None


def _record(out: Tensor, pull: Callable[[np.ndarray], None]) -> None:
    out.requires_grad = True
    _ACTIVE._steps.append((out, pull))


def _tracing(*tensors: Tensor) -> bool:
    return _ACTIVE is not None and any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------- primitives


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the leading axes that an operand of ``shape`` was shared along."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def _lead_agree(*leads: tuple) -> bool:
    """Leading (batch) shapes agree; an empty one belongs to a shared operand."""
    return len(set(leads) - {()}) <= 1


def _per_instance(index) -> tuple:
    """Index tuple that picks entry ``index[b]`` of instance b along the next axis."""
    index = np.asarray(index)
    if index.ndim == 0:
        return (index,)
    return np.indices(index.shape, sparse=True) + (index,)


def _shared(sa: tuple, sb: tuple) -> bool:
    """One shape is a trailing part of the other (a scalar, or a bias shared by a batch)."""
    short, long = sorted((sa, sb), key=len)
    return long[len(long) - len(short):] == short


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m[..., r, c] @ v[..., c] -> [..., r], one BLAS matrix-vector call per instance."""
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a[..., m, k] @ b[k, n] -> [..., m, n]; b is shared by the batch."""
    if a.values.ndim < 2 or b.values.ndim != 2 or a.values.shape[-1] != b.values.shape[0]:
        raise ShapeError(f"matmul shapes do not agree: {a.values.shape} vs {b.values.shape}")
    out = Tensor(a.values @ b.values)
    if _tracing(a, b):
        av, bv = a.values, b.values

        def pull(g, a=a, b=b, av=av, bv=bv):
            if a.requires_grad:
                a._accum(g @ bv.T)
            if b.requires_grad:
                b._accum(av.reshape(-1, bv.shape[0]).T @ g.reshape(-1, bv.shape[1]))

        _record(out, pull)
    return out


def matvec(m: Tensor, v: Tensor) -> Tensor:
    """Matrix-vector product m[..., r, c] @ v[..., c] -> [..., r]."""
    mv, vv = m.values, v.values
    if (mv.ndim < 2 or vv.ndim < 1 or mv.shape[-1] != vv.shape[-1]
            or not _lead_agree(mv.shape[:-2], vv.shape[:-1])):
        raise ShapeError(f"matvec shapes do not agree: {mv.shape} vs {vv.shape}")
    out = Tensor(_mv(mv, vv))
    if _tracing(m, v):

        def pull(g, m=m, v=v, mv=mv, vv=vv):
            if m.requires_grad:
                m._accum(_unbroadcast(g[..., :, None] * vv[..., None, :], mv.shape))
            if v.requires_grad:
                v._accum(_unbroadcast((g[..., None, :] @ mv)[..., 0, :], vv.shape))

        _record(out, pull)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; an operand whose shape ends the other's (a scalar, a bias) is shared."""
    if not _shared(a.values.shape, b.values.shape):
        raise ShapeError(f"add shapes do not agree: {a.values.shape} vs {b.values.shape}")
    out = Tensor(a.values + b.values)
    if _tracing(a, b):

        def pull(g, a=a, b=b):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.values.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.values.shape))

        _record(out, pull)
    return out


def add_rows(m: Tensor, v: Tensor) -> Tensor:
    """Add v[..., k] to every row of m[..., n, k]."""
    mv, vv = m.values, v.values
    if (mv.ndim < 2 or vv.ndim < 1 or mv.shape[-1] != vv.shape[-1]
            or not _lead_agree(mv.shape[:-2], vv.shape[:-1])):
        raise ShapeError(f"add_rows shapes do not agree: {mv.shape} vs {vv.shape}")
    out = Tensor(mv + vv[..., None, :])
    if _tracing(m, v):

        def pull(g, m=m, v=v):
            if m.requires_grad:
                m._accum(_unbroadcast(g, m.values.shape))
            if v.requires_grad:
                v._accum(_unbroadcast(g.sum(axis=-2), v.values.shape))

        _record(out, pull)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; an operand whose shape ends the other's is shared."""
    if not _shared(a.values.shape, b.values.shape):
        raise ShapeError(f"mul shapes do not agree: {a.values.shape} vs {b.values.shape}")
    out = Tensor(a.values * b.values)
    if _tracing(a, b):
        av, bv = a.values, b.values

        def pull(g, a=a, b=b, av=av, bv=bv):
            if a.requires_grad:
                a._accum(_unbroadcast(g * bv, av.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * av, bv.shape))

        _record(out, pull)
    return out


def scale_rows(m: Tensor, v: Tensor) -> Tensor:
    """Scale row i of m[..., n, k] by v[..., i]."""
    if m.values.ndim < 2 or v.values.shape != m.values.shape[:-1]:
        raise ShapeError(f"scale_rows shapes do not agree: {m.values.shape} vs {v.values.shape}")
    out = Tensor(m.values * v.values[..., None])
    if _tracing(m, v):
        mv, vv = m.values, v.values

        def pull(g, m=m, v=v, mv=mv, vv=vv):
            if m.requires_grad:
                m._accum(g * vv[..., None])
            if v.requires_grad:
                v._accum((g * mv).sum(axis=-1))

        _record(out, pull)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient for c)."""
    out = Tensor(x.values * c)
    if _tracing(x):

        def pull(g, x=x, c=c):
            x._accum(g * c)

        _record(out, pull)
    return out


def tanh(x: Tensor) -> Tensor:
    out_vals = np.tanh(x.values)
    out = Tensor(out_vals)
    if _tracing(x):

        def pull(g, x=x, out_vals=out_vals):
            x._accum(g * (1.0 - out_vals * out_vals))

        _record(out, pull)
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis; parts without the leading (batch) axes are shared."""
    vals = [p.values for p in parts]
    leads = {v.shape[:-1] for v in vals}
    if len(leads) > 1:  # a shared part joins every instance of the batch
        if len(leads - {()}) > 1:
            raise ShapeError(f"concat parts do not agree: {[v.shape for v in vals]}")
        lead = max(leads, key=len)
        vals = [np.broadcast_to(v, lead + v.shape[-1:]) for v in vals]
    out = Tensor(np.concatenate(vals, axis=-1))
    if _ACTIVE is not None and any(p.requires_grad for p in parts):
        sizes = [p.values.shape[-1] for p in parts]

        def pull(g, parts=tuple(parts), sizes=sizes):
            off = 0
            for p, s in zip(parts, sizes):
                if p.requires_grad:
                    p._accum(_unbroadcast(g[..., off : off + s], p.values.shape))
                off += s

        _record(out, pull)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element -> scalar."""
    out = Tensor(np.sum(x.values))
    if _tracing(x):
        shp = x.values.shape

        def pull(g, x=x, shp=shp):
            x._accum(np.full(shp, float(g)))

        _record(out, pull)
    return out


def row(m: Tensor, index) -> Tensor:
    """Select row ``index`` of m[..., n, k] -> [..., k]; a batch takes one index per instance."""
    if m.values.ndim < 2 or np.shape(index) != m.values.shape[:-2]:
        raise ShapeError(f"row expects a [..., n, k] tensor and one index per instance, "
                         f"got shape {m.values.shape} and index shape {np.shape(index)}")
    sel = _per_instance(index)
    out = Tensor(m.values[sel])
    if _tracing(m):
        shp = m.values.shape

        def pull(g, m=m, sel=sel, shp=shp):
            buf = np.zeros(shp)
            buf[sel] = g
            m._accum(buf)

        _record(out, pull)
    return out


def _kept(values: np.ndarray, mask: np.ndarray, what: str) -> np.ndarray:
    """The unmasked entries of every row, [..., kept]; rows must keep equally many."""
    if values.ndim < 1 or mask.shape != values.shape:
        raise ShapeError(f"{what} shapes do not agree: {values.shape} vs {mask.shape}")
    kept = values[mask]
    if not kept.size:
        raise EmptySupportError(f"{what} needs at least one unmasked entry")
    if mask.ndim == 1:
        return kept
    counts = np.count_nonzero(mask, axis=-1)
    if counts.min() != counts.max():
        raise ShapeError(f"{what} needs the same number of unmasked entries in every row")
    return kept.reshape(values.shape[:-1] + (-1,))


def softmax_masked(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the entries where ``mask`` is True; exact 0 elsewhere.

    Stabilized by max-subtraction over the unmasked support. Gradients flow
    only through unmasked entries. Each row of a batch is normalised on its
    own; all rows keep the same number of entries, as they do in a decode.
    """
    z = _kept(logits.values, mask, "softmax_masked")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out_vals = np.zeros_like(logits.values)
    out_vals[mask] = p.reshape(-1)
    out = Tensor(out_vals)
    if _tracing(logits):

        def pull(g, logits=logits, mask=mask, p=p):
            ga = g[mask].reshape(p.shape)
            gz = p * (ga - (ga * p).sum(axis=-1, keepdims=True))
            buf = np.zeros_like(logits.values)
            buf[mask] = gz.reshape(-1)
            logits._accum(buf)

        _record(out, pull)
    return out


def pointer_logits(m: Tensor, ctx: Tensor, w: Tensor) -> Tensor:
    """Per-row pointer scores tanh(m_row + ctx) . w, fused.

    m is (..., n, a); ctx (..., a) is added to every row; w is (..., a). The
    decoder passes w = P u, fixed for a whole decode. One tape entry;
    backward recomputes the tanh from m and ctx instead of keeping an (n, a)
    array per decode step alive on the tape.
    """
    mv, cv, wv = m.values, ctx.values, w.values
    if (mv.ndim < 2 or cv.shape[-1:] != mv.shape[-1:] or wv.shape[-1:] != mv.shape[-1:]
            or not _lead_agree(mv.shape[:-2], cv.shape[:-1], wv.shape[:-1])):
        raise ShapeError(
            f"pointer_logits shapes do not agree: m {mv.shape}, ctx {cv.shape}, w {wv.shape}")
    t = mv + cv[..., None, :]
    np.tanh(t, out=t)  # in place: a second (n, a) temporary per step costs page faults
    out = Tensor(_mv(t, wv))
    if _tracing(m, ctx, w):

        def pull(g, m=m, ctx=ctx, w=w):
            mv, cv, wv = m.values, ctx.values, w.values
            t = np.tanh(mv + cv[..., None, :])
            if m.requires_grad or ctx.requires_grad:
                gpre = (g[..., None] * wv[..., None, :]) * (1.0 - t * t)
                if m.requires_grad:
                    m._accum(_unbroadcast(gpre, mv.shape))
                if ctx.requires_grad:
                    ctx._accum(_unbroadcast(gpre.sum(axis=-2), cv.shape))
            if w.requires_grad:
                w._accum(_unbroadcast((t * g[..., None]).sum(axis=-2), wv.shape))

        _record(out, pull)
    return out


def gated_cell(w: Tensor, b: Tensor, z: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM-style cell update, fused into a single tape entry.

    ``w @ z + b`` stacks the four gate pre-activations (input, forget,
    output, candidate – each ``len(c)`` rows, in that order)::

        c' = sigmoid(f)*c + sigmoid(i)*tanh(g),  h' = sigmoid(o)*tanh(c')

    Returns (h', c'). w and b are shared; z is (..., in) and c (..., hidden).
    Fusing the cell keeps the tape an order of magnitude shorter than
    composing it from elementwise primitives; the hand-derived backward is
    covered by the finite-difference property tests.
    """
    wv, zv, cv = w.values, z.values, c.values
    hdim = cv.shape[-1]
    if (wv.shape != (4 * hdim, zv.shape[-1]) or b.values.shape != (4 * hdim,)
            or not _lead_agree(zv.shape[:-1], cv.shape[:-1])):
        raise ShapeError(f"gated_cell shapes do not agree: {wv.shape} vs "
                         f"input {zv.shape}, state {cv.shape}")
    pre = _mv(wv, zv) + b.values
    gates = 0.5 * (np.tanh(0.5 * pre[..., :3 * hdim]) + 1.0)  # sigmoid of i, f, o
    gi, gf, go = gates[..., :hdim], gates[..., hdim:2 * hdim], gates[..., 2 * hdim:]
    gg = np.tanh(pre[..., 3 * hdim:])
    c_new = gf * cv + gi * gg
    h_out = Tensor(go * np.tanh(c_new))
    c_out = Tensor(c_new)
    if _tracing(w, b, z, c):

        def pull(grads, w=w, b=b, z=z, c=c, gi=gi, gf=gf, go=go, gg=gg, c_new=c_new,
                 cv=cv, zv=zv, wv=wv, hdim=hdim):
            gh, gcn = grads
            tc = np.tanh(c_new)  # recomputed: one array less per step on the tape
            gc_new = gcn if gcn is not None else 0.0
            if gh is not None:
                gc_new = gc_new + gh * go * (1.0 - tc * tc)
            gpre = np.empty(tc.shape[:-1] + (4 * hdim,))
            gpre[..., :hdim] = gc_new * gg * gi * (1.0 - gi)
            gpre[..., hdim:2 * hdim] = gc_new * cv * gf * (1.0 - gf)
            gpre[..., 2 * hdim:3 * hdim] = ((gh * tc) if gh is not None else 0.0) * go * (1.0 - go)
            gpre[..., 3 * hdim:] = gc_new * gi * (1.0 - gg * gg)
            flat = gpre.reshape(-1, 4 * hdim)
            if w.requires_grad:
                zb = np.broadcast_to(zv, gpre.shape[:-1] + zv.shape[-1:])
                w._accum(flat.T @ zb.reshape(-1, zv.shape[-1]))
            if b.requires_grad:
                b._accum(flat.sum(axis=0))
            if z.requires_grad:
                z._accum(_unbroadcast(gpre @ wv, zv.shape))
            if c.requires_grad:
                c._accum(_unbroadcast(gc_new * gf, cv.shape))

        h_out.requires_grad = True
        c_out.requires_grad = True
        _ACTIVE._steps.append(((h_out, c_out), pull))
    return h_out, c_out


def masked_log_prob(logits: Tensor, mask: np.ndarray, index) -> Tensor:
    """log softmax_masked(logits, mask)[index], fused for numerical safety.

    Equals ``log(softmax_masked(logits, mask)[index])`` but cannot
    underflow to log(0) for very spread-out logits. A batch of logits
    [..., n] takes one index per instance and returns [...].
    """
    z = _kept(logits.values, mask, "masked_log_prob")
    if np.shape(index) != logits.values.shape[:-1]:
        raise ShapeError(f"masked_log_prob needs one index per instance, got shape {np.shape(index)}")
    sel = _per_instance(index)
    if not np.all(mask[sel]):
        raise ValueError(f"index {index} is masked out")
    m = z.max(axis=-1)
    e = np.exp(z - m[..., None])
    s = e.sum(axis=-1)
    out = Tensor(logits.values[sel] - (m + np.log(s)))
    if _tracing(logits):
        p = e / s[..., None]

        def pull(g, logits=logits, mask=mask, sel=sel, p=p):
            buf = np.zeros_like(logits.values)
            buf[mask] = (-g[..., None] * p).reshape(-1)
            buf[sel] += g
            logits._accum(buf)

        _record(out, pull)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling Bernoulli dropout; call only during training."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.values * keep)
    if _tracing(x):

        def pull(g, x=x, keep=keep):
            x._accum(g * keep)

        _record(out, pull)
    return out


# -------------------------------------------------------------- grad checks


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued forward against central differences.

    ``f(params)`` must be deterministic and return a scalar Tensor. Returns
    the max over all parameter entries of
    ``|analytic - numeric| / max(1, |numeric|)``.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must be in [1e-7, 1e-3], got {eps}")
    params.zero_grads()
    with Tape() as t:
        out = f(params)
    if not np.isfinite(out.values):
        raise FloatingPointError("forward produced a non-finite value")
    t.backward(out)
    analytic = {name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
                for name, p in params.items()}
    params.zero_grads()

    worst = 0.0
    for name, p in params.items():
        flat = p.values.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + eps
            hi = float(f(params).values)
            flat[i] = keep - eps
            lo = float(f(params).values)
            flat[i] = keep
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise FloatingPointError("forward produced a non-finite value")
            num = (hi - lo) / (2.0 * eps)
            err = abs(ana[i] - num) / max(1.0, abs(num))
            if err > worst:
                worst = err
    return worst
